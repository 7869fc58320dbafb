"""poissonlab benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout (it needs `src/poissonlab` and
`tests/golden`).  Workloads:

- ruled_sweep      `tables ruled --m-max 12` in a fresh process per command
- hopf_cap         `tables hopf --degree 7 --md` in a fresh process per command
- classify_stream  one long-lived process serving seeded classify, bracket,
                   verify-family and mc-check requests through `cli.main`

With --trace 0 the run measures the end-to-end metrics untraced for S
seconds.  With --trace 1 it runs a fixed amount of work once untraced and
twice under the layer tracer (perfbench/tracer.py), checks that the two
traced runs count exactly the same work, and reports the per-layer
metrics.  Outputs are checked against oracles after the timed region.
The last line of stdout is one JSON object: correct, attempted, failed
and metrics.  Spans of the traced run go to .perfbench/trace-NAME.json.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import stream  # noqa: E402
import tables  # noqa: E402
from tracer import METRICS as LAYER_METRICS  # noqa: E402

WORKLOADS = ("ruled_sweep", "hopf_cap", "classify_stream")
END_TO_END = {
    "setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
    "req_p50_ms": "ms", "req_p90_ms": "ms", "req_per_s": "1/s",
}
SETUP_SAMPLES = 11
MIN_COMMANDS = 3        # fresh-process commands per table run, at least
TRACE_ROUNDS = 3        # stream rounds in a traced run (129 requests)
CHILD_TIMEOUT_S = 160   # a child still running then is killed and fails
WORKER = Path(__file__).resolve().parent / "worker.py"

# Counters each workload is built to exercise, and those it must leave at 0.
EXPECT = {
    "ruled_sweep": {
        "nonzero": ("rational.mul.calls", "laurent.mul.calls", "laurent.exact_div.calls",
                    "multivector.schouten.calls", "linalg.kernel_basis.calls",
                    "obstruction.r4_search.calls", "obstruction.h1_kernel.calls",
                    "ruled.complex_model.calls"),
        "zero": ("expr.eval_str.calls", "rational.mul.complex_frac",
                 "hopf.cover_model.calls"),
    },
    "hopf_cap": {
        "nonzero": ("rational.mul.calls", "laurent.mul.calls", "laurent.substitute.calls",
                    "multivector.pushforward.calls", "linalg.kernel_basis.calls",
                    "linalg.quotient_coords.calls", "linalg.colspace.calls",
                    "hopf.cover_model.calls", "hopf.id_minus_fstar.calls",
                    "hopf.invariant_rebuilds"),
        "zero": ("expr.eval_str.calls", "rational.mul.complex_frac",
                 "obstruction.r4_search.calls"),
    },
    "classify_stream": {
        "nonzero": ("expr.eval_str.calls", "rational.mul.complex_frac",
                    "multivector.schouten_formed.calls", "ruled.complex_model.calls",
                    "obstruction.r4_search.calls",
                    "hopf.cover_model.calls", "products.ep1_classify.self_s",
                    "products.tp1_classify.self_s"),
        "zero": (),
    },
}


class Child:
    """One finished child process: exit code, wall time and stderr tail."""

    def __init__(self, argv, env, out_path: Path):
        err_path = out_path.with_suffix(".err")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env)
            # a blocking wait returns at exit; Popen.wait(timeout) polls in
            # steps of up to 50 ms, which would quantize the set-up time
            watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                self.code = proc.wait()
            finally:
                watchdog.cancel()
            self.wall_s = time.perf_counter() - start
        self.stderr = err_path.read_text(errors="replace")[-2000:]


def percentile(values, q):
    """Linear-interpolated q-th percentile."""
    v = sorted(values)
    pos = (len(v) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def host_probe() -> float:
    """Median time of a fixed pure-Python loop: shows host speed drift."""
    def once():
        start = time.perf_counter()
        acc = 0
        for i in range(1_000_000):
            acc = (acc * 31 + i) % 1_000_003
        return time.perf_counter() - start
    return statistics.median(once() for _ in range(3))


def setup_time(env, work: Path, samples: int) -> list[float]:
    """Walls from a fresh interpreter to `poissonlab.cli` imported."""
    argv = [sys.executable, "-c", "import poissonlab.cli"]
    walls = []
    for _ in range(samples):
        child = Child(argv, env, work / "setup.out")
        if child.code != 0:
            raise RuntimeError(f"importing poissonlab.cli failed:\n{child.stderr}")
        walls.append(child.wall_s)
    return walls


def run_worker(requests, env, work: Path, tag: str, trace=False, seconds=None):
    """Serve rounds of argv lists in one worker process; returns (child, doc)."""
    req_path, res_path = work / f"{tag}.requests.json", work / f"{tag}.results.json"
    req_path.write_text(json.dumps(requests))
    argv = [sys.executable, str(WORKER), str(req_path), str(res_path)]
    if seconds is not None:
        argv += ["--seconds", str(seconds)]
    if trace:
        argv.append("--trace")
    child = Child(argv, env, work / f"{tag}.out")
    if child.code != 0:
        raise RuntimeError(f"worker exited with {child.code}:\n{child.stderr}")
    return child, json.loads(res_path.read_text())


def request_errors(name, requests, results, root):
    """One "kind: reason" entry per request that exited nonzero, raised or
    failed its oracle."""
    errors, table_verdicts = [], {}
    for req, res in zip(requests, results):
        if res["code"] != 0:
            why = f"exit code {res['code']}: {res['stderr'].strip()[-300:]}"
        elif name == "classify_stream":
            why = stream.check(req, res)
        else:  # every command prints the same table; check each text once
            text = res["stdout"]
            if text not in table_verdicts:
                table_verdicts[text] = "; ".join(tables.CHECKS[name](text, root))
            why = table_verdicts[text]
        if why:
            errors.append(f"{req['kind']}: {why}")
    return errors


# ----------------------------------------------------------------------
# untraced runs: end-to-end metrics

def measure_tables(name, seconds, env, work, root):
    runs = []
    start = time.perf_counter()
    while len(runs) < MIN_COMMANDS or time.perf_counter() - start < seconds:
        runs.append(run_worker([[tables.COMMANDS[name]]], env, work, f"{name}-{len(runs)}"))
    total = time.perf_counter() - start

    results = [doc["results"][0] for _, doc in runs]
    errors = request_errors(name, [{"kind": name}] * len(runs), results, root)
    walls = [child.wall_s for child, _ in runs]
    metrics = {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(doc["cpu_s"] for _, doc in runs),
        "peak_rss_mb": statistics.median(doc["peak_rss_mb"] for _, doc in runs),
        "req_p50_ms": 1000 * percentile(walls, 50),
        "req_p90_ms": 1000 * percentile(walls, 90),
        "req_per_s": len(runs) / total,
    }
    detail = {"commands": len(runs), "argv": tables.COMMANDS[name]}
    return metrics, errors, len(runs), detail


def measure_stream(seed, seconds, env, work):
    # enough rounds that the time limit, not the supply, ends the run
    rounds = stream.make_rounds(seed, 4 * int(seconds) + 10)
    _, doc = run_worker([[r["argv"] for r in rnd] for rnd in rounds], env, work,
                        "stream", seconds=seconds)
    served = [r for rnd in rounds for r in rnd][:len(doc["results"])]
    errors = request_errors("classify_stream", served, doc["results"], None)
    latencies = [r["latency_s"] for r in doc["results"]]
    metrics = {
        "wall_s": statistics.median(doc["round_wall_s"]),
        "cpu_s": statistics.median(doc["round_cpu_s"]),
        "peak_rss_mb": doc["peak_rss_mb"],
        "req_p50_ms": 1000 * percentile(latencies, 50),
        "req_p90_ms": 1000 * percentile(latencies, 90),
        "req_per_s": len(latencies) / sum(doc["round_wall_s"]),
    }
    detail = {"rounds": len(doc["round_wall_s"]), "requests": len(latencies),
              "request_kinds": stream.kind_histogram(served)}
    return metrics, errors, len(served), detail


# ----------------------------------------------------------------------
# traced runs: per-layer metrics

def trace_workload(name, seed, env, work, root):
    if name == "classify_stream":
        reqs = [r for rnd in stream.make_rounds(seed, TRACE_ROUNDS) for r in rnd]
        batches = [[r["argv"] for r in reqs]]
    else:
        reqs = [{"kind": name}]
        batches = [[tables.COMMANDS[name]]]
    _, plain = run_worker(batches, env, work, f"{name}.plain")
    passes = [run_worker(batches, env, work, f"{name}.traced{i}", trace=True)[1]
              for i in (1, 2)]
    errors = [e for doc in [plain, *passes]
              for e in request_errors(name, reqs, doc["results"], root)]
    attempted = len(reqs) * 3

    first, second = (p["trace"] for p in passes)
    metrics = dict(first["metrics"])
    traced_wall = statistics.mean(p["wall_s"] for p in passes)
    metrics["trace.overhead_frac"] = traced_wall / plain["wall_s"] - 1
    counted = [k for k in metrics if not k.endswith("self_s") and k != "trace.overhead_frac"]
    nondeterministic = [k for k in counted if first["metrics"][k] != second["metrics"][k]]

    missing = set(first["missing_layers"])
    expect = EXPECT[name]
    unexpected = [f"{k} is 0" for k in expect["nonzero"] if not metrics[k]]
    unexpected += [f"{k} is {metrics[k]}" for k in expect["zero"] if metrics[k]]
    # a layer that a refactor removed is reported, not asserted on
    unexpected = [u for u in unexpected if u.split()[0].rpartition(".")[0] not in missing]

    trace_file = root / ".perfbench" / f"trace-{name}.json"
    trace_file.write_text(json.dumps({"workload": name, "seed": seed,
                                      "fields": ["id", "layer", "start", "end", "parent"],
                                      "spans": first["spans"]}))
    detail = {"requests_per_pass": len(reqs), "missing_layers": sorted(missing),
              "nondeterministic_counters": nondeterministic,
              "expectation_failures": unexpected,
              "trace_file": str(trace_file.relative_to(root))}
    if name == "classify_stream":
        detail["request_kinds"] = stream.kind_histogram(reqs)
    ok_trace = not nondeterministic and not unexpected
    return metrics, errors, attempted, detail, ok_trace


# ----------------------------------------------------------------------

def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = Path.cwd()
    needed = [root / "src/poissonlab/cli.py", root / "tests/golden/ruled.md",
              root / "tests/golden/hopf.md"]
    absent = [str(p.relative_to(root)) for p in needed if not p.is_file()]
    if absent:
        print(f"not a poissonlab checkout (missing {', '.join(absent)}); "
              "run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))  # the oracles import poissonlab
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    (root / ".perfbench").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=root / ".perfbench"))
    try:
        probe = host_probe()
        if args.trace:
            metrics, errors, attempted, detail, ok_trace = trace_workload(
                args.workload, args.seed, env, work, root)
            units = LAYER_METRICS
        else:
            # half the set-up samples before the measured phase and half after
            setup_time(env, work, 1)  # writes the bytecode caches
            setups = setup_time(env, work, SETUP_SAMPLES // 2)
            if args.workload == "classify_stream":
                metrics, errors, attempted, detail = measure_stream(
                    args.seed, args.seconds, env, work)
            else:
                metrics, errors, attempted, detail = measure_tables(
                    args.workload, args.seconds, env, work, root)
            setups += setup_time(env, work, SETUP_SAMPLES - len(setups))
            metrics["setup_s"] = statistics.median(setups)
            ok_trace = True
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = len(errors)
    detail.update({"workload": args.workload, "seed": args.seed,
                   "failed_frac": failed / attempted, "host.probe_s": probe,
                   "first_failures": errors[:5]})
    for name, unit in units.items():
        print(f"{args.workload} {name} = {metrics[name]:.6g} {unit}")
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0 and ok_trace,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
