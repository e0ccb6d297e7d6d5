//! Typed request parameters: one parser for every query knob the v1 API
//! accepts, replacing the per-endpoint hand-rolled `request.param` reads.
//!
//! Every endpoint taking query parameters funnels through
//! [`RequestParams::parse`], so a knob parses (and fails) identically on
//! `/v1/analyze`, `/v1/validate`, and the `/v1/streams` session routes.
//! Unknown parameters are ignored (clients may probe newer servers);
//! recognized parameters that fail to parse are a `400` with code
//! `bad_request` and a message naming the parameter and the raw value.
//! So are the [`RETIRED`] knobs: the two ablation switches (their answer
//! is measured and the engine always runs with both mechanisms on) and
//! `tile` (the sweep sizes its own tiles to the memory budget), so a
//! request still setting one is told so instead of silently getting the
//! default behaviour.
//!
//! | parameter | type | default | meaning |
//! |-----------|------|---------|---------|
//! | `points` | usize ≤ 4096 | 48 | geometric sweep grid size |
//! | `sample` | u32 | absent = exact | target-set sample size |
//! | `seed` | u64 | 1 | sampling seed (with `sample`) |
//! | `deadline_ms` | u64 | server default | end-to-end deadline, 0 = none |
//! | `delta_min` | i64 | 1 | validation minimum delta |
//! | `weighted` | 0/1 | 1 | validation weighted transitions |
//! | `directed` | flag | off | parse the trace body as directed |
//! | `async` | flag | off | return `202` + job id instead of waiting |

use crate::http::Request;
use crate::ApiError;
use saturn_core::{SweepGrid, TargetSpec};
use saturn_linkstream::Directedness;
use std::time::Duration;

/// Parameters earlier API versions accepted, each with the reason it is
/// gone; naming one is a `400`.
pub const RETIRED: [(&str, &str); 3] = [
    ("no_delta", "delta propagation is always on"),
    ("no_incremental", "every scale's timeline is built from one sorted event view"),
    ("tile", "the sweep sizes its own tiles to fit its memory budget"),
];

/// Every query parameter of the v1 API, parsed and defaulted.
#[derive(Clone, Debug)]
pub struct RequestParams {
    /// `points`: geometric sweep grid size.
    pub points: usize,
    /// `sample`/`seed`: target spec (absent `sample` = exact).
    pub targets: TargetSpec,
    /// `deadline_ms` over the server default; `None` = unbounded.
    pub deadline: Option<Duration>,
    /// `delta_min` (validation sweeps).
    pub delta_min: i64,
    /// `weighted` (validation sweeps; default on).
    pub weighted: bool,
    /// `directed`: directedness of the trace body.
    pub directedness: Directedness,
    /// `async`: detach and answer `202` with a job id.
    pub async_job: bool,
}

impl RequestParams {
    /// Parses every recognized parameter of `request`; an absent
    /// `deadline_ms` falls back to the server's `default_deadline_ms`. Any
    /// unparsable value is a `400` naming the parameter.
    pub fn parse(
        request: &Request,
        default_deadline_ms: u64,
    ) -> Result<RequestParams, ApiError> {
        if let Some((key, reason, raw)) = RETIRED
            .iter()
            .find_map(|&(key, reason)| request.param(key).map(|raw| (key, reason, raw)))
        {
            return Err(ApiError::new(
                400,
                format!("query parameter {key}={raw}: retired; {reason}"),
            ));
        }
        let deadline_ms = numeric(request, "deadline_ms", default_deadline_ms)?;
        // validated even when `sample` is absent: a garbled `seed` is a 400
        // like every other unparsable value, never silently ignored
        let seed = numeric(request, "seed", 1u64)?;
        let points = numeric(request, "points", 48usize)?;
        if points > SweepGrid::MAX_POINTS {
            return Err(ApiError::new(
                400,
                format!("query parameter points={points}: at most {}", SweepGrid::MAX_POINTS),
            ));
        }
        Ok(RequestParams {
            points,
            targets: match request.param("sample") {
                None => TargetSpec::All,
                Some(_) => TargetSpec::Sample { size: numeric(request, "sample", 0u32)?, seed },
            },
            deadline: (deadline_ms > 0).then(|| Duration::from_millis(deadline_ms)),
            delta_min: numeric(request, "delta_min", 1i64)?,
            weighted: request.param("weighted").is_none_or(|v| v != "0"),
            directedness: directedness(request),
            async_job: request.flag("async"),
        })
    }
}

/// The `directed` flag: how the request's trace body is read. The one
/// place the flag is parsed, for the endpoints that run
/// [`RequestParams::parse`] and for those that take no other parameter.
pub fn directedness(request: &Request) -> Directedness {
    if request.flag("directed") {
        Directedness::Directed
    } else {
        Directedness::Undirected
    }
}

/// Parses a numeric query parameter, defaulting when absent.
pub fn numeric<T: std::str::FromStr>(
    request: &Request,
    key: &str,
    default: T,
) -> Result<T, ApiError>
where
    T::Err: std::fmt::Display,
{
    match request.param(key) {
        None => Ok(default),
        Some(raw) => raw
            .parse()
            .map_err(|e| ApiError::new(400, format!("query parameter {key}={raw}: {e}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A synthetic request carrying only a query string.
    fn req(query: &[(&str, &str)]) -> Request {
        Request {
            method: "POST".into(),
            path: "/v1/analyze".into(),
            query: query.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect(),
            keep_alive: false,
            body: Vec::new(),
        }
    }

    fn parse(query: &[(&str, &str)]) -> Result<RequestParams, ApiError> {
        RequestParams::parse(&req(query), 0)
    }

    #[test]
    fn defaults_cover_an_empty_query() {
        let p = parse(&[]).unwrap();
        assert_eq!(p.points, 48);
        assert_eq!(p.targets, TargetSpec::All);
        assert_eq!(p.deadline, None);
        assert_eq!(p.delta_min, 1);
        assert!(p.weighted);
        assert_eq!(p.directedness, Directedness::Undirected);
        assert!(!p.async_job);
    }

    #[test]
    fn server_defaults_flow_through() {
        let p = RequestParams::parse(&req(&[]), 1500).unwrap();
        assert_eq!(p.deadline, Some(Duration::from_millis(1500)));
        // a per-request value overrides the server default
        let p = RequestParams::parse(&req(&[("deadline_ms", "0")]), 1500).unwrap();
        assert_eq!(p.deadline, None);
    }

    #[test]
    fn explicit_values_parse() {
        let p = parse(&[
            ("points", "12"),
            ("sample", "64"),
            ("seed", "9"),
            ("deadline_ms", "250"),
            ("delta_min", "5"),
            ("weighted", "0"),
            ("directed", "1"),
            ("async", "1"),
        ])
        .unwrap();
        assert_eq!(p.points, 12);
        assert_eq!(p.targets, TargetSpec::Sample { size: 64, seed: 9 });
        assert_eq!(p.deadline, Some(Duration::from_millis(250)));
        assert_eq!(p.delta_min, 5);
        assert!(!p.weighted);
        assert_eq!(p.directedness, Directedness::Directed);
        assert!(p.async_job);
    }

    #[test]
    fn empty_sample_value_is_a_400() {
        // `?sample=` selects sampling but an empty value fails u32
        // parsing — a 400 naming the parameter, not a silent Sample{0}
        let e = parse(&[("sample", "")]).unwrap_err();
        assert_eq!(e.status, 400);
        assert!(e.message.contains("sample="));
    }

    /// Garbage in any numeric parameter is a `400` naming it — and so is
    /// any value of a retired one.
    #[test]
    fn every_numeric_parameter_rejects_garbage_with_400() {
        for key in [
            "points",
            "sample",
            "seed",
            "deadline_ms",
            "delta_min",
            "no_delta",
            "no_incremental",
            "tile",
        ] {
            let e = parse(&[(key, "abc")]).unwrap_err();
            assert_eq!(e.status, 400, "{key}");
            assert_eq!(e.code, "bad_request", "{key}");
            assert!(!e.retryable, "{key}");
            assert!(
                e.message.contains(&format!("query parameter {key}=abc")),
                "{key}: {}",
                e.message
            );
        }
    }

    /// A retired parameter is a `400` giving its own reason, whatever the
    /// value — `tile=0` included, so no client keeps believing it sets it.
    #[test]
    fn retired_parameters_name_their_reason() {
        for (key, reason) in RETIRED {
            for raw in ["0", "7"] {
                let e = parse(&[("points", "8"), (key, raw)]).unwrap_err();
                assert_eq!((e.status, e.code), (400, "bad_request"), "{key}={raw}");
                assert_eq!(
                    e.message,
                    format!("query parameter {key}={raw}: retired; {reason}")
                );
            }
        }
        assert!(RETIRED.iter().any(|&(key, reason)| key == "tile" && reason.contains("tiles")));
    }

    #[test]
    fn negative_and_overflow_values_are_400s() {
        assert_eq!(parse(&[("points", "-1")]).unwrap_err().status, 400);
        assert_eq!(parse(&[("deadline_ms", "-5")]).unwrap_err().status, 400);
        assert_eq!(parse(&[("seed", "99999999999999999999999")]).unwrap_err().status, 400);
        // i64 accepts negatives: delta_min=-3 parses (the sweep clamps it)
        assert_eq!(parse(&[("delta_min", "-3")]).unwrap().delta_min, -3);
    }

    /// `points` is bounded before any sweep work: the grid would otherwise
    /// be materialized at the requested size.
    #[test]
    fn points_above_the_grid_bound_are_400s() {
        assert_eq!(parse(&[("points", "4096")]).unwrap().points, SweepGrid::MAX_POINTS);
        for raw in ["4097", "1099511627776"] {
            let e = parse(&[("points", raw)]).unwrap_err();
            assert_eq!((e.status, e.code), (400, "bad_request"), "points={raw}");
            assert!(!e.retryable);
            assert_eq!(e.message, format!("query parameter points={raw}: at most 4096"));
        }
    }

    #[test]
    fn flags_accept_their_historical_spellings() {
        for truthy in ["", "1", "true", "yes"] {
            assert!(parse(&[("async", truthy)]).unwrap().async_job, "async={truthy}");
            assert_eq!(
                parse(&[("directed", truthy)]).unwrap().directedness,
                Directedness::Directed,
                "directed={truthy}"
            );
        }
        assert!(!parse(&[("async", "0")]).unwrap().async_job);
        assert_eq!(parse(&[("directed", "0")]).unwrap().directedness, Directedness::Undirected);
    }

    #[test]
    fn weighted_only_disables_on_literal_zero() {
        assert!(parse(&[]).unwrap().weighted);
        assert!(parse(&[("weighted", "1")]).unwrap().weighted);
        assert!(parse(&[("weighted", "banana")]).unwrap().weighted);
        assert!(!parse(&[("weighted", "0")]).unwrap().weighted);
    }

    #[test]
    fn last_value_wins_on_duplicates() {
        let p = parse(&[("points", "8"), ("points", "16")]).unwrap();
        assert_eq!(p.points, 16);
    }

    #[test]
    fn numeric_error_names_parameter_and_raw_value() {
        let e = numeric::<u64>(&req(&[("deadline_ms", "12x")]), "deadline_ms", 0).unwrap_err();
        assert_eq!(e.status, 400);
        assert!(e.message.starts_with("query parameter deadline_ms=12x:"), "{}", e.message);
    }
}
