"""Command-line entry point for simulations, approximants, bounds and tables.

Subcommands: simulate, approx, bound, costs, table1, table2, neuron.
All randomness flows from a single --seed; every emitted file carries enough
configuration echo to reproduce it exactly. Exit codes: 0 on success, 2 for
configuration errors, 3 for numerical failures.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import approx as approx_mod
from . import bounds as bounds_mod
from . import costs as costs_mod
from . import drift as drift_mod
from . import neuro as neuro_mod
from .sde import LinearSDE, simulate_Y
from .timebase import Curve, TimeGrid, child_seed, derive_stream, write_csv_columns

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


class ConfigError(ValueError):
    """Invalid experiment configuration."""


class NumericalFailure(RuntimeError):
    """A numerical procedure exhausted its budget (bracket, censoring cap, ...)."""


@dataclass
class ExperimentConfig:
    """Validated experiment configuration with the standard protocol defaults."""

    theta: float = 1.5
    sigma: float = 1.0
    x0: float = 0.0
    T: float = 5.0
    dt: float = 1e-3
    model: drift_mod.DriftModel = field(default_factory=lambda: drift_mod.SingleShot(2.0))
    model_spec: dict = field(default_factory=lambda: {"type": "single_shot", "rate": 2.0})
    n_paths: int = 10_000
    seed: int = 42
    out_dir: str = "out"
    formats: tuple = ("csv", "json")
    threads: int = 1
    neuron: dict = field(default_factory=dict)

    def grid(self) -> TimeGrid:
        return TimeGrid.from_step(self.T, self.dt)

    def sde(self) -> LinearSDE:
        return LinearSDE(theta=self.theta, sigma=self.sigma, x0=self.x0, grid=self.grid())

    def echo(self) -> dict:
        return {
            "sde": {"theta": self.theta, "sigma": self.sigma, "x0": self.x0},
            "grid": {"T": self.T, "dt": self.dt},
            "model": self.model_spec,
            "mc": {"n_paths": self.n_paths, "seed": self.seed},
            "output": {"directory": self.out_dir, "formats": list(self.formats)},
        }


# ---------------------------------------------------------------------------
# tagged-object parsing

_DIST_TAGS = {
    "exponential": (drift_mod.Exponential, ("rate",)),
    "gamma": (drift_mod.Gamma, ("rate", "shape")),
    "uniform": (drift_mod.Uniform, ("lo", "hi")),
    "poisson_count": (drift_mod.PoissonCount, ("mean",)),
    "fixed": (drift_mod.FixedCount, ("value",)),
    "fixed_count": (drift_mod.FixedCount, ("value",)),
    "point_mass": (drift_mod.PointMass, ("value",)),
}


def parse_distribution(spec, where: str) -> drift_mod.Distribution:
    if not isinstance(spec, dict) or "type" not in spec:
        raise ConfigError(f"{where}: expected a tagged distribution object, got {spec!r}")
    tag = spec["type"]
    if tag not in _DIST_TAGS:
        raise ConfigError(f"{where}: unknown distribution type {tag!r}")
    cls, fields = _DIST_TAGS[tag]
    missing = [f for f in fields if f not in spec]
    if missing:
        raise ConfigError(f"{where}: distribution {tag!r} is missing fields {missing}")
    try:
        return cls(**{f: spec[f] for f in fields})
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def parse_model(spec, grid: TimeGrid, where: str = "model") -> drift_mod.DriftModel:
    if not isinstance(spec, dict) or "type" not in spec:
        raise ConfigError(f"{where}: expected a tagged model object, got {spec!r}")
    tag = spec["type"]
    try:
        if tag == "single_shot":
            return drift_mod.SingleShot(rate=spec["rate"])
        if tag == "poisson":
            return drift_mod.Poisson(rate=spec["rate"])
        if tag == "compound_poisson":
            jump = parse_distribution(spec.get("jump", {"type": "exponential", "rate": 2.0}), f"{where}.jump")
            return drift_mod.CompoundPoisson(rate=spec["rate"], jump=jump)
        if tag == "shot_noise":
            kwargs = {}
            if "count" in spec:
                kwargs["count"] = parse_distribution(spec["count"], f"{where}.count")
            if "amplitude" in spec:
                kwargs["amplitude"] = parse_distribution(spec["amplitude"], f"{where}.amplitude")
            if "arrival" in spec:
                kwargs["arrival"] = parse_distribution(spec["arrival"], f"{where}.arrival")
            if "response_rate" in spec:
                kwargs["response_rate"] = spec["response_rate"]
            return drift_mod.ShotNoise(**kwargs)
        if tag == "brownian":
            return drift_mod.BrownianDrift(trend=spec.get("trend", 0.0))
        if tag == "ou":
            return drift_mod.OUDrift(
                rate=spec["rate"], sigma_u=spec.get("sigma_u", 1.0), u0=spec.get("u0", 0.0)
            )
        if tag == "deterministic":
            if "values" in spec:
                vals = np.asarray(spec["values"], dtype=float)
            elif "constant" in spec:
                vals = np.full(grid.n_nodes, float(spec["constant"]))
            else:
                raise ConfigError(f"{where}: deterministic model needs 'values' or 'constant'")
            return drift_mod.Deterministic(Curve(grid, vals))
    except KeyError as exc:
        raise ConfigError(f"{where}: missing field {exc} for model {tag!r}") from exc
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    raise ConfigError(f"{where}: unknown model type {tag!r}")


def load_config(path: str | None, overrides: argparse.Namespace) -> ExperimentConfig:
    raw = {}
    if path is not None:
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    cfg = ExperimentConfig()
    try:
        sde_spec = raw.get("sde", {})
        grid_spec = raw.get("grid", {})
        mc = raw.get("mc", {})
        out = raw.get("output", {})
        cfg.theta = float(sde_spec.get("theta", cfg.theta))
        cfg.sigma = float(sde_spec.get("sigma", cfg.sigma))
        cfg.x0 = float(sde_spec.get("x0", cfg.x0))
        cfg.T = float(grid_spec.get("T", cfg.T))
        cfg.dt = float(grid_spec.get("dt", cfg.dt))
        cfg.n_paths = int(mc.get("n_paths", cfg.n_paths))
        cfg.seed = int(mc.get("seed", cfg.seed))
        p_list = raw.get("costs", {}).get("p_list", list(costs_mod.P_ORDERS))
        cfg.out_dir = out.get("directory", cfg.out_dir)
        cfg.formats = tuple(out.get("formats", cfg.formats))
        cfg.neuron = raw.get("neuron", {})
    # AttributeError: the config or one of its sections is not a JSON object
    except (AttributeError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad config value: {exc}") from exc

    if getattr(overrides, "seed", None) is not None:
        cfg.seed = overrides.seed
    if getattr(overrides, "paths", None) is not None:
        cfg.n_paths = overrides.paths
    if getattr(overrides, "out", None) is not None:
        cfg.out_dir = overrides.out
    if getattr(overrides, "threads", None) is not None:
        cfg.threads = overrides.threads
    if getattr(overrides, "format", None) is not None:
        cfg.formats = (overrides.format,)

    if cfg.theta <= 0:
        raise ConfigError(f"sde.theta must be positive, got {cfg.theta}")
    if cfg.sigma < 0:
        raise ConfigError(f"sde.sigma must be nonnegative, got {cfg.sigma}")
    if cfg.T <= 0 or cfg.dt <= 0:
        raise ConfigError("grid.T and grid.dt must be positive")
    if cfg.T / cfg.dt > 5e7:
        raise ConfigError("grid is unreasonably fine (T/dt > 5e7)")
    if round(cfg.T / cfg.dt) < 2:
        # the order-4 approximant's f = F' + theta F needs a three-node stencil
        raise ConfigError(f"grid needs at least 2 steps, got T/dt = {cfg.T / cfg.dt:g}")
    if cfg.n_paths < 1:
        raise ConfigError(f"mc.n_paths must be >= 1, got {cfg.n_paths}")
    if cfg.seed < 0:
        raise ConfigError(f"mc.seed must be nonnegative, got {cfg.seed}")
    if p_list != list(costs_mod.P_ORDERS):
        raise ConfigError(
            f"costs.p_list must be {list(costs_mod.P_ORDERS)}: only orders 2 and 4 "
            f"are computed, got {p_list!r}"
        )
    if cfg.threads < 1:
        raise ConfigError(f"--threads must be >= 1, got {cfg.threads}")

    grid = cfg.grid()
    cfg.model_spec = raw.get("model", cfg.model_spec)
    try:
        cfg.model = parse_model(cfg.model_spec, grid)
        drift_mod.validate_pairing(cfg.model, cfg.theta)
    except drift_mod.PairingError as exc:
        raise ConfigError(str(exc)) from exc
    return cfg


# ---------------------------------------------------------------------------
# output helpers

def _outpath(cfg: ExperimentConfig, name: str) -> str:
    os.makedirs(cfg.out_dir, exist_ok=True)
    return os.path.join(cfg.out_dir, name)


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_table(cfg: ExperimentConfig, report, stem: str) -> list[str]:
    written = []
    if "csv" in cfg.formats:
        p = _outpath(cfg, f"{stem}.csv")
        costs_mod.write_report_csv(report, p)
        written.append(p)
    if "json" in cfg.formats:
        p = _outpath(cfg, f"{stem}.json")
        costs_mod.write_report_json(report, p)
        written.append(p)
    return written


# ---------------------------------------------------------------------------
# subcommands

def cmd_simulate(cfg: ExperimentConfig, n_display_paths: int) -> int:
    """Emit sample paths of X, X2 and X4 sharing one noise realization.

    F2 and F4 are exact (from the cumulants of Z); mc.n_paths is not read.
    """
    grid = cfg.grid()
    sde = cfg.sde()
    F2 = approx_mod.F2_analytic(cfg.model, cfg.theta, grid)
    F4 = approx_mod.F4_from_moments(approx_mod.exact_moments(cfg.model, cfg.theta, grid), cfg.theta)

    t = grid.times()
    cols = ["t"]
    data = [t]
    for i in range(n_display_paths):
        stream = derive_stream(child_seed(cfg.seed, 1), i)
        y_stream, z_stream = stream.spawn(2)
        y = simulate_Y(sde, y_stream)
        z_acc = drift_mod.sample_Z_path(cfg.model, cfg.theta, grid, z_stream)
        x = y.values + z_acc.values
        data += [x, y.values + F2.F.values, y.values + F4.F.values]
        cols += [f"X_{i}", f"X2_{i}", f"X4_{i}"]
    path = _outpath(cfg, "paths.csv")
    write_csv_columns(path, cols, data)
    F2.F.to_csv(_outpath(cfg, "F2.csv"))
    F4.F.to_csv(_outpath(cfg, "F4.csv"))
    if "json" in cfg.formats:
        _write_json(_outpath(cfg, "simulate_config.json"), cfg.echo())
    print(f"wrote {path}, F2.csv, F4.csv ({n_display_paths} displayed paths)")
    return EXIT_OK


def cmd_approx(cfg: ExperimentConfig) -> int:
    """Emit the order-2 and order-4 approximants as t,F,f tables.

    Both are exact (from the cumulants of Z); nothing is sampled, so
    mc.n_paths and the seed are not read.
    """
    grid = cfg.grid()
    F2 = approx_mod.F2_analytic(cfg.model, cfg.theta, grid)
    F4 = approx_mod.F4_from_moments(approx_mod.exact_moments(cfg.model, cfg.theta, grid), cfg.theta)
    for appr, name in ((F2, "approx_p2.csv"), (F4, "approx_p4.csv")):
        path = _outpath(cfg, name)
        write_csv_columns(path, ["t", "F", "f"], [grid.times(), appr.F.values, appr.f.values])
        print(f"wrote {path}")
    if "json" in cfg.formats:
        _write_json(_outpath(cfg, "approx_config.json"), cfg.echo())
    return EXIT_OK


def cmd_bound(cfg: ExperimentConfig) -> int:
    """Emit t,mse,se,d2 and report the worst violation of mse <= d2 + 3 se."""
    grid = cfg.grid()
    F2 = approx_mod.F2_analytic(cfg.model, cfg.theta, grid)
    bound = bounds_mod.d2_generic(cfg.model, cfg.theta, grid)
    chunks = drift_mod.iter_Z_chunks(
        cfg.model, cfg.theta, grid, cfg.n_paths, child_seed(cfg.seed, 2), cfg.threads
    )
    mse, se = bounds_mod.pointwise_mse_streaming(chunks, F2.F, cfg.n_paths)
    path = _outpath(cfg, "bound.csv")
    write_csv_columns(
        path, ["t", "mse", "se", "d2"], [grid.times(), mse.values, se.values, bound.d2.values]
    )
    violation = mse.values - bound.d2.values - 3 * se.values
    print(f"wrote {path}; max violation (mse - d2 - 3 se) = {violation.max():.6g}")
    if "json" in cfg.formats:
        _write_json(
            _outpath(cfg, "bound_summary.json"),
            {
                "max_violation": float(violation.max()),
                "d2_l1_mass": bound.l1_mass,
                "config": cfg.echo(),
            },
        )
    return EXIT_OK


def cmd_costs(cfg: ExperimentConfig) -> int:
    """Cost matrix J_i[X_j] for the configured model."""
    grid = cfg.grid()
    values, se, _ = costs_mod.cost_block(
        cfg.model,
        cfg.theta,
        grid,
        cfg.n_paths,
        eval_seed=child_seed(cfg.seed, 0, 1),
        threads=cfg.threads,
    )
    echo = cfg.echo()
    echo["mc"]["n_paths"] = cfg.n_paths
    report = costs_mod.CostReport(
        labels=[cfg.model_spec.get("type", "model")],
        values=values[None, :, :],
        se=se[None, :, :],
        config_echo={"seed": cfg.seed, "n_paths": cfg.n_paths, "dt": cfg.dt, "T": cfg.T, "config": echo},
    )
    for p in _write_table(cfg, report, "costs"):
        print(f"wrote {p}")
    return EXIT_OK


def cmd_table1(cfg: ExperimentConfig) -> int:
    report = costs_mod.run_table1(cfg.seed, cfg.n_paths, cfg.threads)
    for p in _write_table(cfg, report, "table1"):
        print(f"wrote {p}")
    return EXIT_OK


def cmd_table2(cfg: ExperimentConfig) -> int:
    report = neuro_mod.run_table2(cfg.seed, cfg.n_paths, cfg.threads)
    for p in _write_table(cfg, report, "table2"):
        print(f"wrote {p}")
    return EXIT_OK


def cmd_neuron(cfg: ExperimentConfig) -> int:
    """Simulate the embedded-neuron scenario configured under 'neuron'."""
    spec = cfg.neuron or {}
    params = dict(neuro_mod.TABLE2_PARAMS)
    params.update({k: v for k, v in spec.items() if k in params})
    grid = TimeGrid.from_step(params["T"], params["dt"])
    models = dict((label, m) for label, m in neuro_mod.table2_models(params))
    kind = spec.get("scenario", "simulated_network")
    if kind not in models:
        raise ConfigError(f"neuron.scenario must be one of {sorted(models)}, got {kind!r}")
    model = models[kind]

    if isinstance(model.firing, neuro_mod.AnalyticFiring):
        sn = neuro_mod._as_shot_noise(model)
        moments = approx_mod.exact_moments(sn, model.theta, grid)
        if isinstance(model.firing.dist, drift_mod.Exponential):
            F2 = neuro_mod.v2_exponential(model, grid).F
        else:
            F2 = approx_mod.F2_analytic(sn, model.theta, grid).F
        censor_rate = 0.0
    else:
        cens = []
        moments = drift_mod.moments_from_chunks(
            neuro_mod._network_chunks(
                model, grid, cfg.n_paths, child_seed(cfg.seed, 0), cfg.threads, censored=cens
            ),
            grid,
            cfg.n_paths,
        )
        F2 = moments.m1
        censor_rate = sum(cens) / (cfg.n_paths * model.M)
        if censor_rate > 0.5:
            raise NumericalFailure(
                f"censoring rate {censor_rate:.2f} exceeds 0.5; raise horizon_cap"
            )
    F4 = approx_mod.F4_from_moments(moments, model.theta)
    F2.to_csv(_outpath(cfg, "neuron_F2.csv"))
    F4.F.to_csv(_outpath(cfg, "neuron_F4.csv"))
    if "json" in cfg.formats:
        _write_json(
            _outpath(cfg, "neuron_summary.json"),
            {
                "scenario": kind,
                "censor_rate": censor_rate,
                "params": params,
                "n_paths": cfg.n_paths,
                "seed": cfg.seed,
            },
        )
    print(f"wrote neuron_F2.csv, neuron_F4.csv (scenario {kind}, censor rate {censor_rate:.2e})")
    return EXIT_OK


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gmapprox",
        description="Simulate linear SDEs with stochastic drift and their "
        "optimal Gauss-Markov approximations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=None, help="JSON experiment configuration")
    common.add_argument("--seed", type=int, default=None, help="master seed (uint64)")
    common.add_argument("--paths", type=int, default=None, help="Monte Carlo path count")
    common.add_argument("--out", default=None, help="output directory")
    common.add_argument(
        "--threads", type=int, default=1, help="worker threads (results identical)"
    )
    common.add_argument("--format", choices=["csv", "json"], default=None)

    p = sub.add_parser(
        "simulate",
        parents=[common],
        help="sample paths of X, X2, X4 (F2 and F4 exact; mc.n_paths is not read)",
    )
    p.add_argument("--display-paths", type=int, default=1)
    sub.add_parser(
        "approx",
        parents=[common],
        help="export the exact F2/F4 approximants (nothing is sampled; mc.n_paths is not read)",
    )
    sub.add_parser("bound", parents=[common], help="pointwise MSE against d2")
    sub.add_parser("costs", parents=[common], help="cost matrix for the configured model")
    sub.add_parser("table1", parents=[common], help="five-scenario cost table")
    sub.add_parser("table2", parents=[common], help="embedded-neuron cost table")
    sub.add_parser("neuron", parents=[common], help="embedded-neuron approximants")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, args)
        if args.command == "simulate":
            code = cmd_simulate(cfg, args.display_paths)
        elif args.command == "approx":
            code = cmd_approx(cfg)
        elif args.command == "bound":
            code = cmd_bound(cfg)
        elif args.command == "costs":
            code = cmd_costs(cfg)
        elif args.command == "table1":
            code = cmd_table1(cfg)
        elif args.command == "table2":
            code = cmd_table2(cfg)
        elif args.command == "neuron":
            code = cmd_neuron(cfg)
        else:  # pragma: no cover
            raise ConfigError(f"unknown command {args.command!r}")
    except (ConfigError, drift_mod.PairingError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NumericalFailure, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    return code


if __name__ == "__main__":
    sys.exit(main())
