#!/usr/bin/env python3
"""Compare two ``oblique verify all`` reports leaf by leaf.

    python3 scripts/verify_diff.py A.json B.json

Walks both JSON documents together and prints

* every leaf that differs and is not a float (verdicts, booleans, counts,
  strings) and every key or list entry present on one side only; a change
  that keeps behaviour must show none of these;
* every float leaf that moved, with both values and its relative change
  |b - a| / max(|a|, |b|), largest change first.

``timestamp`` leaves are skipped.  Exits 1 when a non-float leaf differs,
else 0.
"""

import json
import sys

SKIPPED_KEYS = {"timestamp"}


def walk(a, b, path: str, fixed: list, moved: list) -> None:
    """Collect differing non-float leaves in ``fixed`` and moved floats in ``moved``."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(a.keys() | b.keys()):
            if key in SKIPPED_KEYS:
                continue
            sub = f"{path}.{key}" if path else key
            if key not in a or key not in b:
                fixed.append((sub, a.get(key, "<absent>"), b.get(key, "<absent>")))
            else:
                walk(a[key], b[key], sub, fixed, moved)
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            fixed.append((f"{path}[len]", len(a), len(b)))
        for i, (x, y) in enumerate(zip(a, b)):
            walk(x, y, f"{path}[{i}]", fixed, moved)
    elif type(a) is float and type(b) is float:
        if a != b:
            moved.append((abs(b - a) / max(abs(a), abs(b)), path, a, b))
    elif type(a) is not type(b) or a != b:
        fixed.append((path, a, b))


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    with open(argv[0]) as fa, open(argv[1]) as fb:
        a, b = json.load(fa), json.load(fb)
    fixed: list = []
    moved: list = []
    walk(a, b, "", fixed, moved)
    print(f"non-float leaves that differ: {len(fixed)}")
    for path, x, y in fixed:
        print(f"  {path}: {x!r} -> {y!r}")
    print(f"floats that moved: {len(moved)}")
    for rel, path, x, y in sorted(moved, reverse=True):
        print(f"  {rel:.3e}  {path}: {x!r} -> {y!r}")
    return 1 if fixed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
