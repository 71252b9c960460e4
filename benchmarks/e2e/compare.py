#!/usr/bin/env python
"""Compare two benchmark result files, workload by workload.

Usage: ``python benchmarks/e2e/compare.py A.json B.json``

``A`` and ``B`` are ``run.py --out`` files: ``A`` the parent commit,
``B`` the change, run with the same settings.  For every workload and
end-to-end metric both sides print their median, quartiles and sample
count, then a verdict:

- ``better`` / ``worse``: B's median moved past the metric's bound in
  that direction.  Modelled metrics have bound 0, so any move counts.
- ``unchanged``: the medians differ by no more than the bound.
- ``unresolved``: one side's own spread (IQR / median) is wider than
  the bound, so noise could explain the move.  The exception: when
  every run of B reads better than every run of A, the verdict is
  ``better``.

Each workload's report digests print as ``identical`` or ``differ``.
Exit code 1 when any verdict is ``worse``.
"""

from __future__ import annotations

import json
import math
import sys


def _spread(metric: dict) -> float:
    width = metric["q3"] - metric["q1"]
    if metric["median"]:
        return width / abs(metric["median"])
    return 0.0 if width == 0 else math.inf


def _gain(before: float, after: float, higher: bool) -> float:
    """Relative improvement from ``before`` to ``after``."""
    delta = after - before if higher else before - after
    if delta == 0:
        return 0.0
    return delta / abs(before) if before else math.copysign(math.inf, delta)


def verdict(a: dict, b: dict) -> "tuple[str, float]":
    """Verdict on metric summary ``b`` against ``a``, and B's gain."""
    higher = a["better"] == "higher"
    gain = _gain(a["median"], b["median"], higher)
    if max(_spread(a), _spread(b)) > a["bound"]:
        beats = all(_gain(x, y, higher) > 0
                    for x in a["samples"] for y in b["samples"])
        return ("better" if beats else "unresolved"), gain
    if gain < -a["bound"]:
        return "worse", gain
    if gain > a["bound"]:
        return "better", gain
    return "unchanged", gain


def _cell(metric: dict) -> str:
    return (f"{metric['median']:.6g} [{metric['q1']:.6g}, "
            f"{metric['q3']:.6g}] n={metric['n']}")


def compare(a: dict, b: dict) -> "tuple[list[str], int]":
    """Rendered rows and the number of ``worse`` verdicts."""
    header = ("workload", "metric", "unit", "A median [q1, q3] n",
              "B median [q1, q3] n", "change", "verdict")
    rows, worse, digests = [header], 0, []
    for name, side_a in a["workloads"].items():
        side_b = b["workloads"].get(name)
        if side_b is None:
            continue
        for metric, ma in side_a["metrics"].items():
            mb = side_b["metrics"].get(metric)
            if mb is None:
                continue
            outcome, gain = verdict(ma, mb)
            worse += outcome == "worse"
            rows.append((name, metric, ma["unit"], _cell(ma), _cell(mb),
                         f"{gain:+.2%}", outcome))
        same = side_a["digest"] == side_b["digest"]
        digests.append(f"{name}: report digests "
                       f"{'identical' if same else 'differ'}")
    widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
    lines = ["  ".join(cell.ljust(width) for cell, width in zip(row, widths))
             for row in rows]
    return lines + [""] + digests, worse


def main(argv: "list[str]") -> int:
    if len(argv) != 2:
        print(__doc__.splitlines()[2], file=sys.stderr)
        return 2
    with open(argv[0]) as a_file, open(argv[1]) as b_file:
        a, b = json.load(a_file), json.load(b_file)
    lines, worse = compare(a, b)
    print("\n".join(lines))
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
