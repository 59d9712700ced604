"""One benchmark process: set up gmapprox, then run reps of one workload.

Started by run.py. It prints ``ready`` once the package is imported, the
first config is parsed and the first sample is drawn, so the parent can time
set-up from process start. With ``--probe`` it exits there. Otherwise it runs
reps of the workload until ``--seconds`` is used up, checks every rep's
outputs, and writes ``worker.json`` (and ``spans.jsonl`` when tracing) into
``--out``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback

import numpy as np

from checks import check_rep
from tracer import Tracer, per_layer_metrics, rebind
from workloads import WORKLOADS, config_paths, run_rep

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CALIBRATIONS = 3  # reference-kernel timings before each scenario and after the last rep

# Return values the checks read: the table reports carry the optimality-gap
# standard errors, which the written table files do not.
CAPTURED = {
    "run_table1": ("costs", "run_table1"),
    "run_table2": ("neuro", "run_table2"),
    "cost_block": ("costs", "cost_block"),
    "F2_analytic": ("approx", "F2_analytic"),
    "F4_from_moments": ("approx", "F4_from_moments"),
}


def import_package():
    """Import gmapprox from this checkout's src/, and nowhere else."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    pkg = importlib.import_module("gmapprox")
    importlib.import_module("gmapprox.cli")
    if not os.path.abspath(pkg.__file__).startswith(src + os.sep):
        raise ImportError(f"gmapprox imported from {pkg.__file__}, not from {src}")
    return pkg


def install_capture(pkg) -> dict:
    captured = {name: [] for name in CAPTURED}

    def keep(name):
        def wrap(fn):
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                captured[name].append(result)
                return result
            return wrapper
        return wrap

    for name, (mod, fn) in CAPTURED.items():
        rebind(pkg, getattr(getattr(pkg, mod), fn), keep(name), [])
    return captured


def calibrate() -> float:
    """Seconds taken by a fixed reference kernel that uses no gmapprox code.

    The machine's speed drifts by 10-20% over tens of seconds, and a run is too
    short to average that out. The kernel mixes what the workloads spend their
    time on (interpreter loops, numpy passes over (paths, nodes) blocks, many
    small random draws), so timing it next to the reps measures the drift.
    """
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(200_000):
        acc += i * 0.5
    block = np.random.default_rng(0).standard_normal((256, 5001))
    for _ in range(8):
        err = np.abs(block - 0.1)
        acc += float(((err * err) ** 2).sum(axis=1)[0])
    rng = np.random.Generator(np.random.Philox(1))
    for _ in range(2000):
        acc += float(rng.standard_normal(50)[0])
    return time.perf_counter() - t0


def calibrate_into(samples: list):
    """A callable that appends CALIBRATIONS reference-kernel timings to ``samples``."""
    return lambda: samples.extend(calibrate() for _ in range(CALIBRATIONS))


def digest(directory: str) -> dict:
    out = {}
    for dirpath, _, files in os.walk(directory):
        for name in files:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, directory)] = hashlib.sha256(fh.read()).hexdigest()
    return out


def run(pkg, w, configs, args) -> dict:
    captured = install_capture(pkg)
    outputs = os.path.join(args.out, "outputs")
    times = {"plain": [], "traced": []}
    calibration = []
    checks, digests, spans, counts, unspanned = [], [], [], {}, []
    t_start = time.perf_counter()
    while True:
        k = len(times["plain"]) + len(times["traced"])
        traced = args.trace and k % 2 == 1  # trace runs alternate plain and traced reps
        shutil.rmtree(outputs, ignore_errors=True)
        for results in captured.values():
            results.clear()
        tracer = Tracer() if traced else None
        if tracer:
            tracer.install(pkg)
        raised = False
        t0 = time.perf_counter()
        try:
            rep = run_rep(pkg, w, configs, tracer, between=calibrate_into(calibration))
            wall = sum(rep["scenario_s"])
        except Exception:
            traceback.print_exc()
            raised, rep = True, {"exits": {}, "d2_closed": {}}
            wall = time.perf_counter() - t0
        if tracer:
            tracer.uninstall()
        times["traced" if traced else "plain"].append(wall)

        results = check_rep(w, configs, rep, captured)
        if raised:  # an exception counts as every check failing
            results = [(name, False) for name, _ in results] + [("rep.completed", False)]
        digests.append(digest(outputs))
        if k > 0:
            results.append(("outputs_identical_to_rep0", digests[k] == digests[0]))
        if tracer:
            top = sum(s.end - s.start for s in tracer.spans if s.depth == 0)
            self_total = sum(s.self_s for s in tracer.spans)
            unspanned.append(wall - top)
            results.append(("trace.self_times_add_up",
                            abs(self_total - top) <= 1e-6 * wall and top <= wall
                            and all(s.self_s >= -1e-9 for s in tracer.spans)))
            spans += [(k, s) for s in tracer.spans]
            for name, n in tracer.counts.items():
                counts[name] = counts.get(name, 0) + n
        checks += [(k, name, ok) for name, ok in results]

        elapsed = time.perf_counter() - t_start
        all_times = times["plain"] + times["traced"]
        enough = times["plain"] and (times["traced"] or not args.trace)
        if enough and elapsed + statistics.median(all_times) > args.seconds:
            break
    calibrate_into(calibration)()

    record = {
        "rep_s": times,
        "calibration_s": calibration,
        "checks": checks,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": importlib.import_module("scipy").__version__,
            "gmapprox": pkg.__version__,
        },
    }
    if args.trace:
        n = len(times["traced"])
        layers = per_layer_metrics([s for _, s in spans], counts, n)
        layers["trace.overhead_s"] = (
            statistics.median(times["traced"]) - statistics.median(times["plain"]), "s")
        layers["trace.unspanned_s"] = (sum(unspanned) / n, "s")
        record["per_layer"] = layers
        with open(os.path.join(args.out, "spans.jsonl"), "w") as fh:
            for k, s in spans:
                fh.write(json.dumps({
                    "workload": w.name, "scenario": s.scenario, "rep": k, "layer": s.layer,
                    "depth": s.depth, "start": s.start, "end": s.end, "self_s": s.self_s,
                    "work": s.work}) + "\n")
    return record


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--out", required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args()
    w = WORKLOADS[args.workload]
    configs = config_paths(w, args.out)

    pkg = import_package()
    first_config = next(iter(configs.values()))[0]
    cfg = pkg.cli.load_config(first_config, argparse.Namespace(threads=1))
    pkg.drift.sample_Z_path(cfg.model, cfg.theta, cfg.grid(), pkg.timebase.derive_stream(cfg.seed, 0))
    print("ready", flush=True)
    if args.probe:
        return 0

    record = run(pkg, w, configs, args)
    with open(os.path.join(args.out, "worker.json"), "w") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
