"""One workload in one process: set up eqm, then time whole rounds.

Started by run.py with EQM_THREADS=1 and single-threaded BLAS.  It
imports eqm from the checkout's src/, runs the untimed warm-up, prints
READY (run.py times set-up up to that line), and exits there under
--setup-only.  Otherwise it runs rounds until --seconds have passed,
timing each eqm.cli.main call alone and checking its output after,
and prints one JSON line: correct, attempted, failed, metrics.

With --trace 1 each round runs twice, untraced then traced, so that
the tracing overhead is measured on the same inputs; the metrics are
the per-layer figures of the traced copies, per operation, and the
spans go to .perfbench_out/trace-<workload>.jsonl.
"""

import argparse
import contextlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"


def load_eqm():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import eqm.cli

    if not Path(eqm.cli.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"eqm was imported from {eqm.cli.__file__}, not {src}")
    return eqm.cli


def os_threads():
    return len(os.listdir("/proc/self/task"))


def run_op(cli, argv):
    """(exit code, seconds, stdout, stderr) of one in-process CLI call.

    After the timed call, waits (untimed) until every OS thread the call
    started has exited.  `eqm sweep` joins its worker thread, but the
    thread's exit, which returns its malloc arena for reuse, can finish
    after the join; the next sweep's thread then takes a fresh arena or
    the old one by chance, which moved peak RSS by 10 MB between runs.
    """
    threads = os_threads()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception:  # an escaped error is a failed operation, not a crash
            code = None
            traceback.print_exc()
        seconds = time.perf_counter() - start
    deadline = time.perf_counter() + 1.0
    while os_threads() > threads and time.perf_counter() < deadline:
        time.sleep(0.001)
    return code, seconds, out.getvalue(), err.getvalue()


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.times = []

    def run(self, cli, op):
        code, seconds, stdout, stderr = run_op(cli, op.argv)
        self.attempted += 1
        if code != 0:
            self.failed += 1
            print(f"FAILED {op.label}: exit {code}: {stderr.strip()}", file=sys.stderr)
            return
        self.times.append(seconds)
        try:
            op.check(stdout)
        except Exception as exc:  # any wrong or unreadable output fails the run
            self.correct = False
            print(f"WRONG {op.label}: {type(exc).__name__}: {exc}", file=sys.stderr)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import workloads
    from tracing import LAYER_METRICS, Tracer

    make_round = workloads.ROUNDS[args.workload]
    cli = load_eqm()
    OUT.mkdir(exist_ok=True)
    tmp = OUT / f"run-{os.getpid()}"
    tmp.mkdir()
    try:
        for argv in workloads.warmup(args.workload, str(tmp)):
            code, _, _, stderr = run_op(cli, argv)
            if code != 0:
                raise SystemExit(f"warm-up {argv[0]} failed: {stderr.strip()}")
        print("READY", flush=True)
        if args.setup_only:
            return

        rng = random.Random(args.seed)
        plain, traced = Tally(), Tally()
        tracer = Tracer() if args.trace else None
        start = time.perf_counter()
        while time.perf_counter() - start < args.seconds:
            round_dir = tmp / "round"
            round_dir.mkdir()
            ops = make_round(rng, str(round_dir))
            for op in ops:
                plain.run(cli, op)
            if tracer is not None:
                tracer.install()
                try:
                    for op in ops:
                        tracer.op = traced.attempted
                        traced.run(cli, op)
                finally:
                    tracer.uninstall()
            shutil.rmtree(round_dir)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    if not plain.times or (tracer is not None and not traced.times):
        raise SystemExit(f"{args.workload}: no operation completed")
    if tracer is None:
        tally = plain
        metrics = {
            "op_p50_s": (statistics.median(plain.times), "s"),
            "ops_per_s": (len(plain.times) / sum(plain.times), "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    else:
        tracer.write(OUT / f"trace-{args.workload}.jsonl")
        tally = traced
        values = tracer.layer_metrics(len(traced.times))
        values["trace.overhead_s"] = statistics.median(traced.times) - statistics.median(plain.times)
        metrics = {name: (values[name], unit) for name, unit in LAYER_METRICS}
        tally.correct = tally.correct and plain.correct
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }), flush=True)


if __name__ == "__main__":
    main()
