#!/usr/bin/env python3
"""Counts the repository's Rust lines, split into non-test and test code.

Non-test lines are the lines of each `.rs` file under `crates/`, `src/` and
`examples/`, outside `tests/` and `benches/` directories, above its
`#[cfg(test)] mod` (the attribute line that opens the unit-test module,
with `mod` on the same or a following line). Test lines are the rest of
those files plus every `.rs` file under a `tests/` directory there or at
the root. A `#[cfg(test)]` item that is not a module (a test-only helper
function, say) does not cut its file.

    python3 ci/loc.py                 # the working tree
    python3 ci/loc.py --base REV      # REV, the working tree, and the change
    python3 ci/loc.py --self-test     # checks the cut rule on small inputs
"""

import argparse
import os
import subprocess
import sys

ROOTS = ("crates/", "src/", "examples/", "tests/")


def classify(path):
    """'code', 'test' or None for a repository-relative path."""
    if not path.endswith(".rs") or not path.startswith(ROOTS):
        return None
    parts = path.split("/")
    if "benches" in parts[:-1]:
        return None
    if "tests" in parts[:-1]:
        return "test"
    return "code"


def cut(lines):
    """Index of the `#[cfg(test)]` line that opens a test module, else len."""
    for i, line in enumerate(lines):
        stripped = line.strip()
        if not stripped.startswith("#[cfg(test)]"):
            continue
        rest = stripped[len("#[cfg(test)]"):].strip()
        j = i + 1
        # the item may follow on the same line, or after other attributes
        # and blank lines
        while not rest and j < len(lines):
            rest = lines[j].strip()
            if rest.startswith("#[") or not rest:
                rest = ""
            j += 1
        if rest.startswith(("mod ", "pub mod ", "pub(crate) mod ")):
            return i
    return len(lines)


def count(files):
    """(non-test, test) line totals over `(path, text)` pairs."""
    code = test = 0
    for path, text in files:
        kind = classify(path)
        if kind is None:
            continue
        lines = text.splitlines()
        if kind == "test":
            test += len(lines)
        else:
            at = cut(lines)
            code += at
            test += len(lines) - at
    return code, test


def worktree_files(root):
    out = subprocess.run(
        ["git", "ls-files", "--cached", "--others", "--exclude-standard"],
        cwd=root, check=True, capture_output=True, text=True,
    ).stdout
    for path in out.splitlines():
        full = os.path.join(root, path)
        if classify(path) and os.path.isfile(full):
            with open(full, encoding="utf-8") as f:
                yield path, f.read()


def revision_files(root, rev):
    out = subprocess.run(
        ["git", "ls-tree", "-r", "--name-only", rev],
        cwd=root, check=True, capture_output=True, text=True,
    ).stdout
    for path in out.splitlines():
        if classify(path):
            text = subprocess.run(
                ["git", "show", f"{rev}:{path}"],
                cwd=root, check=True, capture_output=True, text=True,
            ).stdout
            yield path, text


def self_test():
    module = ["fn a() {}", "#[cfg(test)]", "mod tests {", "    fn t() {}", "}"]
    assert cut(module) == 1
    assert cut(["fn a() {}", "#[cfg(test)] mod tests {", "}"]) == 1
    assert cut(["#[cfg(test)]", "#[allow(dead_code)]", "", "mod tests {}"]) == 0
    # a test-only item above the module does not cut the file there
    helper = ["#[cfg(test)]", "fn helper() {}", "fn b() {}", "#[cfg(test)]", "mod tests {}"]
    assert cut(helper) == 3
    assert cut(["fn a() {}"]) == 1
    assert classify("crates/core/src/method.rs") == "code"
    assert classify("crates/core/tests/determinism.rs") == "test"
    assert classify("tests/golden_reports.rs") == "test"
    assert classify("crates/bench/benches/x.rs") is None
    assert classify("shims/serde/src/lib.rs") is None
    assert classify("perfbench/src/main.rs") is None
    assert count([("crates/a/src/lib.rs", "\n".join(helper))]) == (3, 2)
    print("loc self-test passed")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", help="also count this git revision and print the change")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        self_test()
        return 0
    root = subprocess.run(
        ["git", "rev-parse", "--show-toplevel"], check=True, capture_output=True, text=True
    ).stdout.strip()
    code, test = count(worktree_files(root))
    if args.base is None:
        print(f"non-test {code}  test {test}")
        return 0
    base_code, base_test = count(revision_files(root, args.base))
    print(f"{args.base}: non-test {base_code}  test {base_test}")
    print(f"working tree: non-test {code}  test {test}")
    print(f"change: non-test {code - base_code:+d}  test {test - base_test:+d}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
