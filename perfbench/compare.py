#!/usr/bin/env python3
"""Compare the per-layer ledgers of two sets of traced benchmark runs.

Usage:
    python3 perfbench/compare.py BASE.out [BASE.out ...] -- NEW.out [NEW.out ...]

Each file holds the standard output of one traced run
(`--trace 1`); its last line is the JSON result. Give several runs of
each side (the same workload, different seeds) so the command knows each
metric's own spread across repeats.

For every per-layer metric the command prints both medians, the change,
and the spread, which is the distance between the first and third
quartiles of the base runs (of the new runs when there is a single base
run). A metric whose medians differ by more than that spread is flagged
`moved`. With a single run on each side no spread is known and nothing
is flagged.

Counts (unit `count`) and the layers' shares of traced time
(`*.self_share`) have no better direction: they are the bases of the
other figures, and the shares sum to 1, so a speed-up in one layer raises
the others' shares. Such a metric that moves beyond its spread is
flagged `changed`, not `moved`, and is not counted as a move.
"""

import json
import statistics
import sys


def load(path):
    with open(path, encoding="utf-8") as f:
        lines = [line for line in f.read().splitlines() if line.strip()]
    if not lines:
        sys.exit(f"{path}: empty output")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError as e:
        sys.exit(f"{path}: last line is not the JSON result ({e})")
    if not result.get("correct", False):
        print(f"warning: {path} reports correct=false", file=sys.stderr)
    return {name: (m["value"], m["unit"]) for name, m in result["metrics"].items()}


def spread(values):
    if len(values) < 2:
        return None
    q = statistics.quantiles(values, n=4)
    return q[2] - q[0]


def directed(name, unit):
    """Whether a metric has a better direction (see the module doc)."""
    return unit != "count" and not name.endswith(".self_share")


def main(argv):
    if "--" not in argv:
        sys.exit(__doc__)
    cut = argv.index("--")
    base_paths, new_paths = argv[:cut], argv[cut + 1 :]
    if not base_paths or not new_paths:
        sys.exit(__doc__)
    base = [load(p) for p in base_paths]
    new = [load(p) for p in new_paths]
    names = [n for n in base[0] if all(n in run for run in base + new)]
    print(f"{'metric':32} {'unit':>6} {'base':>14} {'new':>14} {'change':>8} {'spread':>12}")
    flagged = 0
    for name in names:
        unit = base[0][name][1]
        b = [run[name][0] for run in base]
        n = [run[name][0] for run in new]
        mb, mn = statistics.median(b), statistics.median(n)
        s = spread(b)
        if s is None:
            s = spread(n)
        change = (mn - mb) / mb if mb else 0.0
        beyond = s is not None and abs(mn - mb) > s
        flag = ""
        if beyond:
            flag = "  moved" if directed(name, unit) else "  changed"
        flagged += flag == "  moved"
        print(
            f"{name:32} {unit:>6} {mb:14.6g} {mn:14.6g} {change:+8.1%} "
            f"{'-' if s is None else f'{s:.4g}':>12}{flag}"
        )
    if len(base) < 2 and len(new) < 2:
        print("note: one run per side gives no spread; nothing is flagged")
    else:
        directed_names = [n for n in names if directed(n, base[0][n][1])]
        print(
            f"{flagged} of {len(directed_names)} metrics with a better "
            "direction moved beyond their spread"
        )


if __name__ == "__main__":
    main(sys.argv[1:])
