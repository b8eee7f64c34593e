#!/usr/bin/env python3
"""Net line delta of the workspace's Rust code between two revisions.

Usage: ci/line_delta.py BASE [HEAD]      (HEAD defaults to `HEAD`)

Counts the added and removed lines of `git diff BASE HEAD` over the
`.rs` files in `crates/`, the facade crate's `src/`, and the top-level
`tests/` and `examples/` (the offline shims under `vendor/` are left
out), in four buckets:

  non-test Rust  `src/` lines before the file's test module
  tests          `tests/` files, plus `src/` lines from the first
                 `#[cfg(test)]` that gates a `mod` on (in-file test
                 modules; a `#[cfg(test)]` helper item above it stays
                 non-test)
  benches        `benches/` files
  examples       `examples/` files

A removed line is classified by the base revision of its file, an added
line by the head revision, so a test module that moves or a non-test
item added above one lands in the right bucket.

It then prints the number of public items at BASE and at HEAD: lines
declaring a `pub` (not `pub(crate)` or `pub(super)`) `fn`, `struct`,
`enum`, `trait`, `const`, `static` or `type` that the same classifier
puts in the non-test Rust bucket. Standard library only.
"""

import fnmatch
import re
import subprocess
import sys

BUCKETS = ("non-test Rust", "tests", "benches", "examples")
PATHS = ("crates/*.rs", "src/*.rs", "tests/*.rs", "examples/*.rs")
HUNK = re.compile(r"^@@ -(\d+)(?:,(\d+))? \+(\d+)(?:,(\d+))? @@")
CFG_TEST = re.compile(r"^\s*#\[cfg\(test\)\]")
MOD = re.compile(r"^\s*(pub(\([^)]*\))?\s+)?mod\s")
PUB_ITEM = re.compile(
    r"^\s*pub\s+((const|async|unsafe|extern\s+\"[^\"]*\")\s+)*"
    r"(fn|struct|enum|trait|const|static|type)\b"
)


def git(*args):
    return subprocess.run(
        ("git",) + args, check=True, capture_output=True, text=True
    ).stdout


def test_cutoff(rev, path, lines=None):
    """1-based number of the first `#[cfg(test)]` line of `path` at
    `rev` whose next item (past blank, comment and attribute lines) is
    a `mod`, or infinity when the file has none."""
    if lines is None:
        lines = git("show", f"{rev}:{path}").splitlines()
    for number, line in enumerate(lines, 1):
        if CFG_TEST.match(line):
            item = next(
                (l for l in lines[number:] if l.strip() and not l.lstrip().startswith(("#", "//"))),
                "",
            )
            if MOD.match(item):
                return number
    return float("inf")


def bucket(path, line, cutoff):
    parts = path.split("/")
    if "benches" in parts:
        return "benches"
    if "examples" in parts:
        return "examples"
    if "tests" in parts:
        return "tests"
    if "src" in parts and line >= cutoff:
        return "tests"
    return "non-test Rust"


def pub_items(rev):
    """Public item declarations in the non-test Rust of `rev`."""
    paths = [
        path
        for path in git("ls-tree", "-r", "--name-only", rev).splitlines()
        if any(fnmatch.fnmatchcase(path, pattern) for pattern in PATHS)
    ]
    total = 0
    for path in paths:
        lines = git("show", f"{rev}:{path}").splitlines()
        cutoff = test_cutoff(rev, path, lines)
        total += sum(
            1
            for number, line in enumerate(lines, 1)
            if bucket(path, number, cutoff) == "non-test Rust" and PUB_ITEM.match(line)
        )
    return total


def main(argv):
    if len(argv) not in (2, 3):
        sys.exit(__doc__.strip().splitlines()[2])
    base = argv[1]
    head = argv[2] if len(argv) == 3 else "HEAD"
    diff = git("diff", "-U0", "-M", base, head, "--", *PATHS)
    counts = {b: [0, 0] for b in BUCKETS}
    old_path = new_path = None
    old_cut = new_cut = float("inf")
    old_line = new_line = 0
    in_header = False
    for line in diff.splitlines():
        if line.startswith("diff --git "):
            in_header = True
        elif in_header and line.startswith("--- "):
            old_path = None if line == "--- /dev/null" else line[6:]
            old_cut = test_cutoff(base, old_path) if old_path else float("inf")
        elif in_header and line.startswith("+++ "):
            new_path = None if line == "+++ /dev/null" else line[6:]
            new_cut = test_cutoff(head, new_path) if new_path else float("inf")
        elif line.startswith("@@"):
            in_header = False
            match = HUNK.match(line)
            old_line, new_line = int(match.group(1)), int(match.group(3))
        elif in_header:
            continue
        elif line.startswith("-"):
            counts[bucket(old_path, old_line, old_cut)][1] += 1
            old_line += 1
        elif line.startswith("+"):
            counts[bucket(new_path, new_line, new_cut)][0] += 1
            new_line += 1
    print(f"Rust line delta {base}..{head}")
    print(f"{'bucket':<14} {'added':>7} {'removed':>8} {'net':>7}")
    total = [0, 0]
    for name in BUCKETS:
        added, removed = counts[name]
        total[0] += added
        total[1] += removed
        print(f"{name:<14} {added:>7} {removed:>8} {added - removed:>+7}")
    print(f"{'total':<14} {total[0]:>7} {total[1]:>8} {total[0] - total[1]:>+7}")
    before, after = pub_items(base), pub_items(head)
    print(f"pub items      {before:>7} -> {after:<7} {after - before:>+7}")


if __name__ == "__main__":
    main(sys.argv)
