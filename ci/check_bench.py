#!/usr/bin/env python3
"""CI gate over BENCH_sweep.json: per-section schema validation.

The sweep bench is the repository's perf trajectory record *and* its
cross-engine correctness oracle: the per-workload, intra_scale, and
streaming sections each carry hard comparisons (frontier engine vs the
dp::baseline oracle, tiled vs untiled, refresh vs scratch reports) that
must all hold — a divergence is a correctness bug in an engine or an
execution knob that claims to be invisible, not benchmark noise. This script fails loudly, naming the
workload and scale that diverged, if any section is missing, any checksum
mismatches, or a section's shape degenerates (empty scale lists, zero
timings).

Usage:
    python3 ci/check_bench.py --file /tmp/bench_sweep.json
    python3 ci/check_bench.py --self-test
"""

import argparse
import json
import sys

WORKLOADS = ("dense_uniform", "sparse_ring", "sparse_burst")

# Sections older bench versions emitted for engine switches and timeline
# builders that no longer exist; a record still carrying one was not
# regenerated by this bench.
RETIRED = (("delta",), ("intra_scale", "degree1"), ("timeline",))


class GateFailure(Exception):
    """A named, human-actionable gate violation."""


def require(condition, message):
    if not condition:
        raise GateFailure(message)


def section(bench, name):
    require(name in bench, f"section `{name}` is missing from the bench JSON")
    return bench[name]


def check_retired(bench):
    """No section of a retired engine switch: the record must come from
    the current bench."""
    for path in RETIRED:
        node = bench
        for key in path[:-1]:
            node = node.get(key) or {}
        require(
            path[-1] not in node,
            f"section `{'.'.join(path)}` is retired; regenerate the bench record",
        )


def check_workloads(bench):
    """The per-workload pipeline sections: timings per scale, and the
    frontier engine's checksum against the dp::baseline oracle."""
    for workload in WORKLOADS:
        data = section(bench, workload)
        require(
            data.get("checksums_match") is True,
            f"{workload}: frontier vs baseline checksum mismatch",
        )
        rows = data.get("per_scale")
        require(rows, f"{workload}: per_scale is missing or empty")
        for row in rows:
            k = row.get("k")
            require(
                row.get("checksum_match") is True,
                f"{workload} k={k}: frontier engine diverged from the baseline",
            )
            require(
                row.get("current_pipeline_seconds", 0) > 0,
                f"{workload} k={k}: current_pipeline_seconds must be > 0",
            )
            low = row.get("current_pipeline_min_seconds", 0)
            high = row.get("current_pipeline_max_seconds", 0)
            require(
                low > 0,
                f"{workload} k={k}: current_pipeline_min_seconds must be > 0",
            )
            require(
                low <= row["current_pipeline_seconds"] <= high,
                f"{workload} k={k}: current pipeline spread is not min <= median <= max",
            )


def check_intra_scale(bench):
    """Target tiling: checksums and shape. The `sink` row times one scale's
    DP into a counting sink and into the rate counter; the counter's
    histogram must equal the one the dp::baseline oracle records. The same
    row times the histogram layer (seal and score) on the bench scale with
    the most distinct rates."""
    intra = section(bench, "intra_scale")
    require(
        intra.get("checksums_match") is True,
        "intra_scale: tiled vs untiled checksum mismatch",
    )
    sink = intra.get("sink")
    require(isinstance(sink, dict), "intra_scale: the `sink` row is missing")
    require(
        sink.get("checksum_match") is True,
        "intra_scale.sink: counter histogram diverged from the baseline's",
    )
    for key in (
        "counting_seconds",
        "counter_seconds",
        "seal_seconds",
        "score_seconds",
        "seal_distinct_rates",
    ):
        require(sink.get(key, 0) > 0, f"intra_scale.sink: {key} must be > 0")
    require(intra.get("tile_sensitivity"), "intra_scale: no tile sensitivity points")
    require(
        intra.get("single_scale_threads"), "intra_scale: no single-scale thread points"
    )


def check_streaming(bench):
    """Streaming ingest refresh: a session's warm incremental refresh must
    reproduce the scratch sweep byte-identically at every append round, and
    it must actually be faster — a session cache that loses to scratch (or
    never reuses a scale) is a regression in the whole streaming API's
    reason to exist."""
    streaming = section(bench, "streaming")
    require(
        streaming.get("reports_identical") is True,
        "streaming: refresh vs scratch report mismatch",
    )
    require(
        streaming.get("speedup", 0) > 1.0,
        "streaming: warm refresh must beat the scratch sweep (speedup <= 1)",
    )
    require(
        streaming.get("scales_reused", 0) >= 1,
        "streaming: no scales reused across refreshes",
    )
    require(
        streaming.get("suffix_windows_rebuilt", 0) >= 1,
        "streaming: no suffix windows respliced (appends never hit the splice path)",
    )
    rounds = streaming.get("per_round")
    require(rounds, "streaming: per_round is missing or empty")
    for row in rounds:
        where = f"streaming: round {row.get('round')}"
        require(
            row.get("reports_identical") is True,
            f"{where}: refresh report diverged from scratch",
        )
        require(
            row.get("refresh_seconds", 0) > 0,
            f"{where}: refresh_seconds must be > 0",
        )
        require(
            row.get("scratch_seconds", 0) > 0,
            f"{where}: scratch_seconds must be > 0",
        )


CHECKS = (
    check_retired,
    check_workloads,
    check_intra_scale,
    check_streaming,
)


def run_gate(bench):
    for check in CHECKS:
        check(bench)


def self_test():
    """The gate must reject every class of violation it exists to catch."""
    with open("BENCH_sweep.json", encoding="utf-8") as f:
        good = json.load(f)
    run_gate(good)  # the committed record must itself pass

    def failing(mutate, expect):
        bench = json.loads(json.dumps(good))
        mutate(bench)
        try:
            run_gate(bench)
        except GateFailure as e:
            assert expect in str(e), f"wrong message: {e!r} (wanted {expect!r})"
        else:
            raise AssertionError(f"gate accepted a bench violating: {expect}")

    failing(lambda b: b.pop("intra_scale"), "`intra_scale` is missing")
    failing(lambda b: b.update(delta={}), "section `delta` is retired")
    failing(
        lambda b: b["intra_scale"].update(degree1={}),
        "section `intra_scale.degree1` is retired",
    )
    failing(lambda b: b.update(timeline={}), "section `timeline` is retired")
    failing(
        lambda b: b["dense_uniform"].update(checksums_match=False),
        "dense_uniform: frontier vs baseline checksum mismatch",
    )
    failing(lambda b: b["sparse_ring"].pop("checksums_match"), "checksum mismatch")
    failing(
        lambda b: b["sparse_burst"]["per_scale"][0].update(checksum_match=False),
        "frontier engine diverged from the baseline",
    )
    failing(
        lambda b: b["intra_scale"].update(checksums_match=False),
        "tiled vs untiled checksum mismatch",
    )
    failing(lambda b: b["intra_scale"].pop("sink"), "the `sink` row is missing")
    failing(
        lambda b: b["intra_scale"]["sink"].update(checksum_match=False),
        "counter histogram diverged from the baseline's",
    )
    failing(
        lambda b: b["intra_scale"]["sink"].pop("checksum_match"),
        "counter histogram diverged from the baseline's",
    )
    failing(
        lambda b: b["intra_scale"]["sink"].update(counter_seconds=0),
        "counter_seconds must be > 0",
    )
    failing(
        lambda b: b["intra_scale"]["sink"].pop("seal_seconds"),
        "seal_seconds must be > 0",
    )
    failing(
        lambda b: b["intra_scale"]["sink"].update(score_seconds=0),
        "score_seconds must be > 0",
    )
    failing(
        lambda b: b["sparse_ring"]["per_scale"][1].pop("current_pipeline_min_seconds"),
        "current_pipeline_min_seconds must be > 0",
    )

    def invert_spread(bench):
        row = bench["dense_uniform"]["per_scale"][0]
        row["current_pipeline_min_seconds"] = 2 * row["current_pipeline_seconds"]

    failing(invert_spread, "spread is not min <= median <= max")
    failing(
        lambda b: b["sparse_burst"]["per_scale"][2].update(
            current_pipeline_max_seconds=b["sparse_burst"]["per_scale"][2][
                "current_pipeline_seconds"
            ]
            / 2
        ),
        "spread is not min <= median <= max",
    )
    failing(
        lambda b: b["sparse_burst"].update(per_scale=[]),
        "per_scale is missing or empty",
    )
    failing(lambda b: b.pop("streaming"), "`streaming` is missing")
    failing(
        lambda b: b["streaming"].update(reports_identical=False),
        "refresh vs scratch report mismatch",
    )
    failing(
        lambda b: b["streaming"].update(speedup=0.97),
        "warm refresh must beat the scratch sweep",
    )
    failing(
        lambda b: b["streaming"].update(scales_reused=0),
        "no scales reused",
    )
    failing(
        lambda b: b["streaming"].update(suffix_windows_rebuilt=0),
        "never hit the splice path",
    )
    failing(
        lambda b: b["streaming"]["per_round"][0].update(reports_identical=False),
        "refresh report diverged from scratch",
    )
    failing(
        lambda b: b["streaming"]["per_round"][1].update(refresh_seconds=0),
        "refresh_seconds must be > 0",
    )
    failing(lambda b: b["streaming"].update(per_round=[]), "per_round is missing or empty")
    print("check_bench self-test: all violation classes rejected")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--file",
        default="BENCH_sweep.json",
        help="bench JSON to validate (default: the committed BENCH_sweep.json)",
    )
    parser.add_argument(
        "--self-test",
        action="store_true",
        help="verify the gate rejects known-bad mutations of the committed record",
    )
    args = parser.parse_args()
    if args.self_test:
        self_test()
        return
    with open(args.file, encoding="utf-8") as f:
        bench = json.load(f)
    try:
        run_gate(bench)
    except GateFailure as e:
        print(f"check_bench: FAIL: {e}", file=sys.stderr)
        sys.exit(1)
    print(f"check_bench: {args.file} passes all section gates")


if __name__ == "__main__":
    main()
