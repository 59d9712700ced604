"""The four workloads: their sizes, the configs made from a seed, and one rep.

A rep runs the workload's CLI subcommands in this process through
``gmapprox.cli.main``, always with ``--threads 1``. Path counts are fixed per
workload; only the master seed comes from the benchmark's ``--seed``.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass

THETA = 1.5
RATE = 2.0

TABLE1_MODELS = {
    "single_shot": {"type": "single_shot", "rate": RATE},
    "poisson": {"type": "poisson", "rate": RATE},
    "compound_poisson": {"type": "compound_poisson", "rate": RATE,
                         "jump": {"type": "exponential", "rate": 2.0}},
    "brownian": {"type": "brownian", "trend": RATE},
    "ornstein_uhlenbeck": {"type": "ou", "rate": RATE, "sigma_u": 1.0, "u0": 1.0},
}


@dataclass(frozen=True)
class Workload:
    name: str
    n_paths: int
    commands: tuple  # CLI subcommands run for each scenario, in order
    scenarios: dict  # label -> config keys besides "mc" and "output"
    closed_d2: bool = False  # also evaluate bounds.d2_closed for each scenario


def _fine(model: dict) -> dict:
    return {"sde": {"theta": THETA}, "grid": {"T": 5.0, "dt": 1e-4}, "model": model}


def _long(model: dict) -> dict:
    return {"sde": {"theta": THETA}, "grid": {"T": 250.0, "dt": 0.05}, "model": model}


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "table1",
            n_paths=1000,
            commands=("table1",),
            scenarios={"table1": {}},
        ),
        Workload(
            "table2",
            n_paths=800,
            commands=("table2",),
            scenarios={"table2": {}},
        ),
        Workload(
            "fine_grid",
            n_paths=100,
            commands=("approx", "bound"),
            scenarios={
                **{label: _fine(m) for label, m in TABLE1_MODELS.items()},
                "shot_noise": _fine({"type": "shot_noise",
                                     "arrival": {"type": "gamma", "rate": 1.0 / 15.0, "shape": 2.0}}),
            },
            closed_d2=True,
        ),
        Workload(
            "long_horizon",
            n_paths=20,
            commands=("costs",),
            scenarios={
                "poisson": _long(TABLE1_MODELS["poisson"]),
                "compound_poisson": _long(TABLE1_MODELS["compound_poisson"]),
            },
        ),
    )
}


def config_paths(w: Workload, base: str) -> dict:
    """label -> (config path, output directory) for each scenario, under ``base``."""
    return {
        label: (os.path.join(base, "configs", f"{label}.json"), os.path.join(base, "outputs", label))
        for label in w.scenarios
    }


def write_configs(w: Workload, seed: int, base: str) -> None:
    """Write each scenario's config; the seed is the run's only input."""
    for label, (path, out_dir) in config_paths(w, base).items():
        cfg = dict(w.scenarios[label], mc={"n_paths": w.n_paths, "seed": seed},
                   output={"directory": out_dir, "formats": ["csv", "json"]})
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump(cfg, fh, indent=2)


def run_rep(pkg, w: Workload, configs: dict, tracer=None, between=None) -> dict:
    """Run every scenario's subcommands once.

    Returns exit codes, the closed-form d2 curves and each scenario's wall
    time. ``between`` is called before each scenario, outside the timing.
    """
    exits, d2_closed, scenario_s = {}, {}, []
    for label, (path, _) in configs.items():
        if between is not None:
            between()
        if tracer is not None:
            tracer.scenario = label
        t0 = time.perf_counter()
        for cmd in w.commands:
            exits[(label, cmd)] = pkg.cli.main([cmd, "--config", path, "--threads", "1"])
        if w.closed_d2:
            spec = w.scenarios[label]
            grid = pkg.timebase.TimeGrid.from_step(spec["grid"]["T"], spec["grid"]["dt"])
            model = pkg.cli.parse_model(spec["model"], grid)
            d2_closed[label] = pkg.bounds.d2_closed(model, spec["sde"]["theta"], grid).d2.values
        scenario_s.append(time.perf_counter() - t0)
    return {"exits": exits, "d2_closed": d2_closed, "scenario_s": scenario_s}
