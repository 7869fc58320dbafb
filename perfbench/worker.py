"""Serve poissonlab CLI requests in one long-lived process.

    python3 perfbench/worker.py REQUESTS.json RESULTS.json [--seconds S] [--trace]

REQUESTS.json is a list of rounds, each a list of argv lists.  The worker
imports `poissonlab.cli` once, then sends the requests one at a time
through `cli.main(argv)` (a closed loop with one client), a round at a
time, until every round is served or, with --seconds, until S seconds
have passed at a round boundary.  With --trace the layer tracer is
installed first.  RESULTS.json receives each request's exit code,
latency and output, each round's wall and CPU time, and the trace.
"""

from __future__ import annotations

import argparse
import io
import json
import resource
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout

MIN_ROUNDS = 3  # 129 stream requests, so the p90 has ten samples beyond it


def serve(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a raised request is a failed request, not a crash
        code = None
        err.write(traceback.format_exc())
    latency = time.perf_counter() - start
    return {"code": code, "latency_s": latency, "stdout": out.getvalue(),
            "stderr": err.getvalue()[-4000:]}


def peak_rss_mb() -> float:
    """Peak resident set of this process since exec (VmHWM).  ru_maxrss is
    no use here: it also counts the parent's pages held before exec."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("requests")
    ap.add_argument("results")
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()

    from poissonlab import cli
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    with open(args.requests) as fh:
        rounds = json.load(fh)

    results, round_wall, round_cpu = [], [], []
    start = time.perf_counter()
    for batch in rounds:
        if (args.seconds is not None and len(round_wall) >= MIN_ROUNDS
                and time.perf_counter() - start >= args.seconds):
            break
        w0, c0 = time.perf_counter(), time.process_time()
        results.extend(serve(cli, argv) for argv in batch)
        round_wall.append(time.perf_counter() - w0)
        round_cpu.append(time.process_time() - c0)
    wall_s = time.perf_counter() - start
    usage = resource.getrusage(resource.RUSAGE_SELF)
    doc = {"wall_s": wall_s, "round_wall_s": round_wall,
           "round_cpu_s": round_cpu, "cpu_s": usage.ru_utime + usage.ru_stime,
           "peak_rss_mb": peak_rss_mb(), "results": results}
    if tracer is not None:
        doc["trace"] = {"metrics": tracer.metrics(),
                        "missing_layers": tracer.missing_layers,
                        "spans": tracer.spans}
    with open(args.results, "w") as fh:
        json.dump(doc, fh)


if __name__ == "__main__":
    main()
