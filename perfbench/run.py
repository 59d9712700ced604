"""gmapprox benchmark: one run of one workload, summarised as one JSON line.

    python3 perfbench/run.py --workload table1 --seed 1 --seconds 15 --trace 0

The run writes the workload's configs from the seed, starts set-up probes
and one worker process (worker.py), and prints as its last line
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are the end-to-end ones (norm_wall_s, setup_s, peak_rss_mb); with
``--trace 1`` they are the per-layer ones from a traced rep. The full record,
with provenance and every check, goes to
``perfbench/out/<workload>-seed<seed>-trace<t>/result.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS, write_configs

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_SAMPLES = 5  # processes timed to "ready": SETUP_SAMPLES - 1 probes plus the worker
DEADLINE_S = 170.0
# norm_wall_s and setup_s are rescaled to a machine on which the worker's
# reference kernel (worker.calibrate) takes this long; about its time here.
REFERENCE_KERNEL_S = 0.1


class RunFailed(RuntimeError):
    pass


def git_sha() -> str:
    """HEAD of the checkout if it is a git repository, read without leaving it."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unavailable"


def start_worker(args, out: str, probe: bool, deadline: float):
    """Start worker.py; return (process, seconds from start until it printed ready)."""
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--out", out, "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if probe:
        cmd.append("--probe")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT, env=env)
    ready, _, _ = select.select([proc.stdout], [], [], max(deadline - time.monotonic(), 0.0))
    line = proc.stdout.readline() if ready else b""
    setup = time.perf_counter() - t0
    if line.strip() != b"ready":
        stop(proc)
        raise RunFailed("worker did not get ready (is src/gmapprox in the checkout?)")
    return proc, setup


def stop(proc) -> None:
    proc.kill()
    proc.communicate()


def finish(proc, deadline: float) -> None:
    try:
        proc.communicate(timeout=max(deadline - time.monotonic(), 0.0))
    except subprocess.TimeoutExpired:
        stop(proc)
        raise RunFailed("worker ran past the deadline")
    if proc.returncode != 0:
        raise RunFailed(f"worker exited with {proc.returncode}")


def run(args) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    w = WORKLOADS[args.workload]
    out = os.path.join(HERE, "out", f"{w.name}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(out, ignore_errors=True)
    write_configs(w, args.seed, out)

    setup = []
    for _ in range(SETUP_SAMPLES - 1):
        proc, s = start_worker(args, out, True, deadline)
        finish(proc, deadline)
        setup.append(s)
    proc, s = start_worker(args, out, False, deadline)
    setup.append(s)
    finish(proc, deadline)
    with open(os.path.join(out, "worker.json")) as fh:
        worker = json.load(fh)

    failed = sum(1 for _, _, ok in worker["checks"] if not ok)
    plain = worker["rep_s"]["plain"]
    if args.trace:
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in worker["per_layer"].items()}
    else:
        speed = REFERENCE_KERNEL_S / statistics.median(worker["calibration_s"])
        metrics = {
            "norm_wall_s": {"value": statistics.median(plain) * speed, "unit": "s"},
            "setup_s": {"value": statistics.median(setup) * speed, "unit": "s"},
            "peak_rss_mb": {"value": worker["peak_rss_mb"], "unit": "MiB"},
        }
    summary = {
        "correct": failed == 0,
        "attempted": len(worker["checks"]),
        "failed": failed,
        "metrics": metrics,
    }
    record = dict(summary)
    record["provenance"] = {
        "workload": w.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "threads": 1,
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "n_paths": {name: wl.n_paths for name, wl in WORKLOADS.items()},
        **worker["versions"],
    }
    record["setup_samples_s"] = setup
    record["rep_s"] = worker["rep_s"]
    record["wall_s"] = statistics.median(plain)
    record["calibration_s"] = worker["calibration_s"]
    record["failed_share"] = failed / len(worker["checks"])
    record["checks"] = worker["checks"]
    with open(os.path.join(out, "result.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    try:
        summary = run(args)
    except (RunFailed, OSError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
