"""Benchmark entry point.

    python3 perfbench/run.py --blas-threads 1 --workload t2 --seed 0 --seconds 30 --trace 0

Writes the workload's input files in one worker process (perfbench/worker.py
--prepare), then runs the workload in a fresh worker process, both with the
BLAS thread count pinned through the environment and the checkout's ``src``
on PYTHONPATH.  Relays the worker's report and prints the result JSON as the
last line of standard output.  Exits non-zero, printing no result, when the
checkout holds no splitsvm sources or the worker fails.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("t2", "train-n1000", "predict-n1000")
#: The whole run, worker included, must end well inside three minutes.
TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--blas-threads", type=int, required=True,
                    help="OpenBLAS/OpenMP thread count; at most the usable cores")
    args = ap.parse_args()

    cores = len(os.sched_getaffinity(0))
    if not 1 <= args.blas_threads <= cores:
        print(f"error: --blas-threads must lie in 1..{cores}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("error: --seconds must be at least 1", file=sys.stderr)
        return 2
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "splitsvm", "__init__.py")):
        print(f"error: no splitsvm sources under {src}", file=sys.stderr)
        return 2

    threads = str(args.blas_threads)
    env = dict(os.environ)
    env.update({
        "OPENBLAS_NUM_THREADS": threads,
        "OMP_NUM_THREADS": threads,
        "MKL_NUM_THREADS": threads,
        "PYTHONPATH": src,
        "PYTHONHASHSEED": "0",
        "PYTHONDONTWRITEBYTECODE": "1",
    })
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--blas-threads", threads]
    deadline = time.monotonic() + TIMEOUT_S
    rc, out = run_worker([*cmd, "--prepare"], env, deadline)
    if rc != 0:
        sys.stderr.write(out)
        print(f"error: preparing the inputs failed with status {rc}", file=sys.stderr)
        return 1
    rc, out = run_worker(cmd, env, deadline)
    lines = out.splitlines()
    try:
        result = json.loads(lines[-1]) if rc == 0 and lines else None
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        sys.stderr.write(out)
        print(f"error: worker exited with status {rc} and no result", file=sys.stderr)
        return 1
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0


def run_worker(cmd, env, deadline):
    """(exit status, stdout) of one worker; it is killed at the deadline."""
    with subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True) as proc:
        try:
            out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 0.0))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return 1, f"worker exceeded the {TIMEOUT_S} s limit of the run\n"
    return proc.returncode, out


if __name__ == "__main__":
    sys.exit(main())
