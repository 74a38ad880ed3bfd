"""Alternating A/B runs of ``perfbench/run.py`` in two checkouts, summarized per metric.

Run from anywhere, with two checkouts of the repository::

    python3 scripts/bench_ab.py PARENT CHANGE --workload wide-fit-bin

Each of the ``PAIRS`` pairs, k = 0, 1, ..., runs ``perfbench/run.py
--workload W --trace 0 --seed 3000+k`` once in each checkout, at the
benchmark's own run length, the parent first in odd pairs and the change
first in even ones, so that neither always runs second. Both checkouts are byte-compiled
first, and the children run with ``PYTHONDONTWRITEBYTECODE`` removed from
the environment, so every run starts from written bytecode caches:
compiling the package from source leaves its heap resident, and the
peak-RSS metrics would then move with the length of the source. Every run's
``correct``, ``failed`` and metrics are printed as it ends. For each
end-to-end metric of the parent's ``BENCHMARK.json`` the summary gives the
median and quartiles of either side, the pairs in which the change read
lower, and whether the change's median is worse than the parent's by more
than the metric's bound; where the parent's quartile spread is wider than
the bound, the verdict is "unresolved" unless every change run beats every
parent run. Then it gives how many runs were correct.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

SEED_BASE = 3000
PAIRS = 10


def _env():
    return {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}


def run_once(tree, workload, seed):
    """The JSON result line that one ``--trace 0`` run in the checkout ``tree`` prints last."""
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload, "--trace", "0",
        "--seed", str(seed),
    ]
    proc = subprocess.run(cmd, cwd=tree, env=_env(), capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{tree}: perfbench/run.py exited {proc.returncode}:\n{proc.stderr}")
    return lines[-1]


def _spread(values):
    """(median, first quartile, third quartile) of ``values``."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return median, q1, q3


def summarize(spec, parent_lines, change_lines):
    """Summary lines for the paired result lines of the parent and the change.

    ``spec`` is the parent's ``BENCHMARK.json``; the lines are the JSON lines
    ``perfbench/run.py`` prints last, ``parent_lines[k]`` paired with
    ``change_lines[k]``.
    """
    parent = [json.loads(line) for line in parent_lines]
    change = [json.loads(line) for line in change_lines]
    out = []
    for metric in spec["end_to_end"]:
        name, unit, bound = metric["name"], metric["unit"], metric["bound"]
        a = [r["metrics"][name]["value"] for r in parent]
        b = [r["metrics"][name]["value"] for r in change]
        (ma, qa1, qa3), (mb, qb1, qb3) = _spread(a), _spread(b)
        lower = sum(y < x for x, y in zip(a, b))
        if metric["better"] == "lower":
            excess, beaten = mb - ma, max(b) < min(a)
        else:
            excess, beaten = ma - mb, min(b) > max(a)
        if excess > bound:
            verdict = f"WORSE than the bound {bound} {unit}"
        elif qa3 - qa1 > bound and not beaten:
            verdict = f"unresolved (spread > bound {bound} {unit})"
        else:
            verdict = f"within the bound {bound} {unit}"
        out.append(
            f"{name}: parent {ma:.4f} [{qa1:.4f}, {qa3:.4f}] change {mb:.4f} "
            f"[{qb1:.4f}, {qb3:.4f}] {unit}; change lower in {lower}/{len(a)} pairs; {verdict}"
        )
    runs = parent + change
    out.append(f"runs correct: {sum(r['correct'] for r in runs)}/{len(runs)}; "
               f"failed operations: {sum(r['failed'] for r in runs)}")
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    args = parser.parse_args(argv)
    spec = json.loads((args.parent / "BENCHMARK.json").read_text())
    for tree in (args.parent, args.change):
        # so that the first pair, too, runs from written caches
        subprocess.run([sys.executable, "-m", "compileall", "-q", "src", "perfbench"],
                       cwd=tree, env=_env(), check=True)
    lines = {"parent": [], "change": []}
    for k in range(PAIRS):
        order = ("parent", "change") if k % 2 else ("change", "parent")
        for side in order:
            line = run_once(getattr(args, side), args.workload, SEED_BASE + k)
            lines[side].append(line)
            result = json.loads(line)
            values = " ".join(f"{m}={v['value']:.4f}" for m, v in result["metrics"].items())
            print(f"pair {k} {side}: correct={result['correct']} failed={result['failed']} "
                  f"{values}", flush=True)
    for line in summarize(spec, lines["parent"], lines["change"]):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
