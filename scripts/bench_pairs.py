#!/usr/bin/env python3
"""Run alternating parent/change pairs of the benchmark and write a BENCH JSON.

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR [--pairs 10]
        [--seconds 30] [--first-seed 301] [--workload W ...]
        [--label NAME] [--what TEXT] [--parent-rev REV] [--out FILE]

PARENT_DIR and CHANGE_DIR are two checkouts of the repository, for example
a `git archive` of the parent commit and a copy of the change.  For each
workload of BENCHMARK.json, pair k runs

    python3 perfbench/run.py --workload W --seed FIRST_SEED+k --seconds S --trace 0

once in each checkout, from that checkout; even pairs run the parent first
and odd pairs the change.  Then each side makes one traced run
(`--seed 1 --seconds 1 --trace 1`).  Before the runs, `src/` of both
checkouts is compiled to bytecode, so no run pays for compiling it.

The output file (default BENCH_LABEL.json) records, per workload and
end-to-end metric, every run's value, the medians, the parent's
interquartile range (statistics.quantiles, method 'inclusive'), the
median change in percent and the number of pairs the change won; and per
workload, each side's traced checks and `.calls` counters, compared.
Nothing under perfbench/ is written by this script; perfbench itself
writes only under .perfbench/ of each checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def run_bench(checkout: Path, workload: str, seed: int, seconds: float, trace: int):
    """(diagnostics, result) of one perfbench run: its last two stdout lines."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                          timeout=600 + 20 * seconds)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{' '.join(cmd)} in {checkout} exited {proc.returncode}:\n"
                         f"{proc.stdout[-2000:]}\n{proc.stderr[-2000:]}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def _round(x):
    return round(x, 6)


def summarize(values: dict, better: str) -> dict:
    """Medians, the parent's interquartile range and the pairs the change won."""
    parent, change = values["parent"], values["change"]
    pm, cm = statistics.median(parent), statistics.median(change)
    q1, _, q3 = statistics.quantiles(parent, n=4, method="inclusive")
    wins = sum((c < p) if better == "lower" else (c > p) for p, c in zip(parent, change))
    return {"parent_median": _round(pm), "change_median": _round(cm),
            "change_pct": round(100 * (cm - pm) / pm, 2) if pm else None,
            "parent_iqr": [_round(q1), _round(q3)], "change_better_pairs": wins,
            "parent": [_round(v) for v in parent], "change": [_round(v) for v in change]}


def end_to_end(dirs: dict, workload: str, pairs: int, first_seed: int, seconds: float,
               metrics: list[dict]) -> dict:
    seeds = [first_seed + k for k in range(pairs)]
    runs = {side: [] for side in SIDES}
    first = []
    for k, seed in enumerate(seeds):
        order = SIDES if k % 2 == 0 else SIDES[::-1]
        first.append(order[0])
        for side in order:
            runs[side].append(run_bench(dirs[side], workload, seed, seconds, 0)[1])
            print(f"{workload} pair {k} {side}: wall_s "
                  f"{runs[side][-1]['metrics']['wall_s']['value']:.6f}", file=sys.stderr)
    out = {"pairs": pairs, "seeds": seeds, "first": first,
           "attempted": {s: sum(r["attempted"] for r in runs[s]) for s in SIDES},
           "failed": {s: sum(r["failed"] for r in runs[s]) for s in SIDES},
           "correct": all(r["correct"] for s in SIDES for r in runs[s]),
           "metrics": {}}
    for metric in metrics:
        name = metric["name"]
        values = {s: [r["metrics"][name]["value"] for r in runs[s]] for s in SIDES}
        out["metrics"][name] = {"unit": metric["unit"], **summarize(values, metric["better"])}
    return out


def traced(dirs: dict, workload: str) -> dict:
    sides = {}
    for side in SIDES:
        diag, result = run_bench(dirs[side], workload, 1, 1, 1)
        sides[side] = {
            "correct": result["correct"],
            "missing_layers": diag.get("missing_layers"),
            "expectation_failures": diag.get("expectation_failures"),
            "calls": {k: v["value"] for k, v in result["metrics"].items() if k.endswith(".calls")},
        }
    parent, change = sides["parent"]["calls"], sides["change"]["calls"]
    compared = {k: {"parent": parent.get(k), "change": change.get(k),
                    "change_pct": round(100 * (change[k] - parent[k]) / parent[k], 2)
                    if parent.get(k) and k in change else None}
                for k in sorted(set(parent) | set(change)) if parent.get(k) != change.get(k)}
    return {**sides, "calls_equal": not compared, "calls_differing": compared}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent_dir", type=Path)
    ap.add_argument("change_dir", type=Path)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--first-seed", type=int, default=301)
    ap.add_argument("--workload", action="append",
                    help="a workload to run (repeatable); default: all of BENCHMARK.json")
    ap.add_argument("--label", default="pairs")
    ap.add_argument("--what", default="")
    ap.add_argument("--parent-rev", default="")
    ap.add_argument("--out", type=Path)
    args = ap.parse_args()
    if args.pairs < 2:
        ap.error("--pairs must be at least 2, for the quartiles")
    dirs = {"parent": args.parent_dir.resolve(), "change": args.change_dir.resolve()}
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    for checkout in dirs.values():
        subprocess.run([sys.executable, "-m", "compileall", "-q", "src"], cwd=checkout, check=True,
                       stdout=subprocess.DEVNULL)
    report = {
        "label": args.label, "what": args.what, "parent": args.parent_rev,
        "machine": {"cpus": os.cpu_count(), "python": platform.python_version(),
                    "platform": platform.platform()},
        "method": {
            "command": f"python3 perfbench/run.py --workload W --seed N --seconds {args.seconds:g}"
                       " --trace 0",
            "pairs": f"{args.pairs} pairs per workload, seeds {args.first_seed}.."
                     f"{args.first_seed + args.pairs - 1}; parent and change alternate which runs "
                     "first (even pair index: parent first); each side runs from its own checkout, "
                     "with bytecode compiled beforehand",
            "quartiles": "statistics.quantiles(method='inclusive') over the per-run values",
            "traced": "python3 perfbench/run.py --workload W --seed 1 --seconds 1 --trace 1, "
                      "one run per side",
        },
        "end_to_end": {w: end_to_end(dirs, w, args.pairs, args.first_seed, args.seconds,
                                     bench["end_to_end"]) for w in workloads},
        "traced": {w: traced(dirs, w) for w in workloads},
    }
    out = args.out or ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
