"""eqm benchmark: one workload, one run, one JSON line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload solve-onecut --seed 1 --seconds 20 --trace 0

Workloads: solve-onecut, sweep-twocut, oracle (see README.md); without
--workload each runs in turn and its line starts with its name.  The
workload runs in its own single-threaded process (EQM_THREADS=1, one
BLAS thread, eqm imported from ./src) and nothing else runs meanwhile.
With --trace 0 the result holds the end-to-end metrics: setup_s, the
median over SETUP_SAMPLES processes of the time from process start to
the end of the warm-up, plus the worker's op_p50_s, ops_per_s and
peak_rss_mb.  With --trace 1 it holds the per-layer metrics.  Exits
non-zero, printing no result, when the checkout has no eqm sources or
the worker fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("solve-onecut", "sweep-twocut", "oracle")
SETUP_SAMPLES = 3
DEADLINE_S = 170.0  # one workload's run, set-up included


def start_worker(workload, args, env, setup_only):
    """Start worker.py; return (process, seconds from start to READY)."""
    cmd = [sys.executable, str(Path(__file__).with_name("worker.py")),
           "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    ready = time.perf_counter() - start
    if line.strip() != "READY":
        proc.kill()
        proc.wait()
        raise SystemExit(f"{workload}: worker set-up failed")
    return proc, ready


def finish(proc, timeout):
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit("worker ran past the deadline")
    if proc.returncode != 0:
        raise SystemExit(f"worker exited with {proc.returncode}")
    return out


def run_workload(workload, args, env):
    """One run of one workload: the worker's result, plus setup_s."""
    begin = time.perf_counter()
    setup = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            proc, ready = start_worker(workload, args, env, setup_only=True)
            finish(proc, DEADLINE_S - (time.perf_counter() - begin))
            setup.append(ready)
    proc, ready = start_worker(workload, args, env, setup_only=False)
    setup.append(ready)
    out = finish(proc, DEADLINE_S - (time.perf_counter() - begin))
    result = json.loads(out.strip().splitlines()[-1])
    if not args.trace:
        result["metrics"]["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run one workload; without it, run each in turn")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "eqm" / "cli.py").is_file():
        sys.exit(f"no eqm sources under {root / 'src'}")
    env = dict(os.environ, EQM_THREADS="1", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    if args.workload:
        print(json.dumps(run_workload(args.workload, args, env)))
        return
    for workload in WORKLOADS:
        print(workload, json.dumps(run_workload(workload, args, env)), flush=True)


if __name__ == "__main__":
    main()
