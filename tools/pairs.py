"""The benchmark's claim rule as a command: alternating pairs of runs of two trees.

    python tools/pairs.py PARENT CHANGE --workload W [--seed S] [--pairs N] [--claim METRIC]

Each tree is a checkout of this repository.  The command runs the benchmark
of ``BENCHMARK.json`` (``python3 perfbench/run.py --workload W --seed S``) in
each tree, N pairs of runs (10 by default), the parent first in odd pairs and
the change first in even ones, and reads the last JSON line of each run.  A
run whose ``correct`` is false, or a change's run with more ``failed`` than
the parent's run of its pair, is reported.

For every end-to-end metric of the parent's ``BENCHMARK.json`` it prints each
side's median and quartiles and the pairs the change won by the metric's
``better``, ties counting for neither, then a verdict.  For the ``--claim``
metric: the change won at least nine tenths of the pairs, and the medians lie
further apart than the parent's quartiles.  For every other metric: the
change's median is worse than the parent's by at most the metric's ``bound``,
relative to the parent's median.  It exits 1 if any verdict fails or any run
is reported.  It writes nothing but what ``run.py`` writes in each tree.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def verdict(metric: dict, parent: list, change: list, claim: bool = False) -> dict:
    """The pairs the change won, both sides' quartiles and whether the rule
    holds for ``metric`` (an entry of BENCHMARK.json's ``end_to_end``), given
    each side's values in pair order: the claim rule with ``claim``, else
    the bound."""
    sign = 1.0 if metric["better"] == "lower" else -1.0  # > 0: the change is better
    won = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    (p1, pm, p3), (c1, cm, c3) = (statistics.quantiles(xs, n=4, method="inclusive")
                                  for xs in (parent, change))
    if claim:
        ok = 10 * won >= 9 * len(parent) and sign * (pm - cm) > p3 - p1
    else:
        ok = sign * (cm - pm) <= metric["bound"] * abs(pm)
    return {"won": won, "parent": (p1, pm, p3), "change": (c1, cm, c3), "ok": ok}


def run(command: list, tree: Path, workload: str, seed: int) -> dict:
    """The last JSON line of one benchmark run in ``tree``."""
    out = subprocess.run([*command, "--workload", workload, "--seed", str(seed)], cwd=tree,
                         capture_output=True, text=True)
    if out.returncode:
        sys.exit(f"{tree}: the benchmark failed:\n{out.stderr}")
    return json.loads(out.stdout.splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--claim", metavar="METRIC", default=None)
    args = parser.parse_args(argv)
    bench = json.loads((args.parent / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    if args.pairs < 2:
        parser.error("--pairs: at least 2, so that the parent's runs have quartiles")
    if args.claim is not None and args.claim not in metrics:
        parser.error(f"--claim: not an end-to-end metric: {args.claim}")
    trees, runs, failed = (args.parent, args.change), ([], []), False
    for i in range(args.pairs):
        for side in (0, 1) if i % 2 == 0 else (1, 0):  # the parent first in odd pairs
            runs[side].append(run(bench["command"], trees[side], args.workload, args.seed))
        old, new = runs[0][-1], runs[1][-1]
        for name, r in (("parent", old), ("change", new)):
            if not r["correct"] or (name == "change" and r["failed"] > old["failed"]):
                print(f"pair {i + 1}: the {name}'s run is correct {r['correct']}, failed "
                      f"{r['failed']} of {r['attempted']} (parent {old['failed']})")
                failed = True
    for name, metric in metrics.items():
        values = [[r["metrics"][name]["value"] for r in side] for side in runs]
        v = verdict(metric, *values, claim=name == args.claim)
        rule = ("claim met" if v["ok"] else "claim not met") if name == args.claim else (
            "within" if v["ok"] else "past") + f" its bound {metric['bound']}"
        (p1, pm, p3), (c1, cm, c3) = v["parent"], v["change"]
        print(f"{name} ({metric['unit']}, {metric['better']} is better): parent median "
              f"{pm:.4g}, quartiles {p1:.4g}-{p3:.4g}; change median {cm:.4g}, quartiles "
              f"{c1:.4g}-{c3:.4g}; the change won {v['won']} of {args.pairs} pairs; {rule}")
        failed |= not v["ok"]
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
