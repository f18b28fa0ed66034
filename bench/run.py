"""Benchmark of the siamcaps verifier: train and eval workloads, with an
optional per-layer trace.

Run from the root of a checkout:

    python3 bench/run.py --workload desk_train --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

Each workload runs in its own process; ``all`` runs them one after another,
never at once, because the full-size ones each need gigabytes of memory.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (end-to-end metrics with
``--trace 0``, per-layer metrics with ``--trace 1``).  The program is
imported from ``src/`` next to this directory and nowhere else.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
NAMES = ("desk_train", "full_train", "full_eval")
BLAS_THREADS = str(min(2, len(os.sched_getaffinity(0))))


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def print_result(name: str, res, env: dict, seed: int) -> None:
    print(f"workload {name} seed={seed}")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    for line in res.notes:
        print(line)
    for key, (value, unit) in res.metrics.items():
        print(f"metric {key} = {value:.6g} {unit}")
    print(json.dumps(dict(
        correct=res.correct, attempted=res.attempted, failed=res.failed,
        metrics={k: dict(value=v, unit=u)
                 for k, (v, u) in res.metrics.items()})))


def run_one(args) -> int:
    import workloads

    w = workloads.WORKLOADS[args.workload]
    work = os.path.join(ROOT, ".bench_work",
                        f"{w.name}-s{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        res = workloads.run_workload(w, args.seed, args.seconds,
                                     bool(args.trace), work)
    except workloads.MemoryShortage as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # left when another run is live
            os.rmdir(os.path.dirname(work))
    if res.tracer is not None:
        out = os.path.join(ROOT, ".bench_out")
        os.makedirs(out, exist_ok=True)
        path = os.path.join(out, f"spans-{w.name}-s{args.seed}.jsonl")
        res.tracer.write(path)
        res.notes.append(f"spans written to {os.path.relpath(path, ROOT)}")
    print_result(w.name, res, workloads.environment(), args.seed)
    return 0


def run_all(args) -> int:
    """Each workload in a child process, one at a time."""
    merged = dict(correct=True, attempted=0, failed=0, metrics={})
    for name in NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"error: {name} exited with {proc.returncode}",
                  file=sys.stderr)
            return proc.returncode or 1
        res = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        for key, val in res["metrics"].items():
            merged["metrics"][f"{name}/{key}"] = val
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "siamcaps", "__init__.py")):
        print(f"error: no siamcaps package under {SRC}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    # BLAS reads its thread count once, when numpy loads
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, SRC)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
