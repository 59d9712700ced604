"""Command-line entry point for simulations, approximants, bounds and tables.

Subcommands: simulate, approx, bound, costs, table1, table2, neuron.
All randomness flows from a single --seed; every emitted file carries enough
configuration echo to reproduce it exactly. Exit codes: 0 on success, 2 for
configuration errors, 3 for numerical failures.
"""

from __future__ import annotations

import argparse
import json
import math
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
from .timebase import Curve, TimeGrid, child_seed, derive_stream, write_csv_columns, write_json

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


class ConfigError(ValueError):
    """Invalid experiment configuration."""


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

def _object(spec, where: str, keys) -> dict:
    """``spec`` if it is a JSON object with no key outside ``keys``."""
    if not isinstance(spec, dict):
        raise ConfigError(f"{where}: expected an object, got {spec!r}")
    unknown = sorted(set(spec) - set(keys))
    if unknown:
        raise ConfigError(f"{where}: unknown keys {unknown}")
    return spec


def _tag(spec, where: str, kinds, what: str) -> str:
    """The "type" of a tagged object, which must be one of ``kinds``."""
    if not isinstance(spec, dict) or "type" not in spec:
        raise ConfigError(f"{where}: expected a tagged {what} object, got {spec!r}")
    if spec["type"] not in tuple(kinds):  # a tuple: the tag may be an unhashable JSON value
        raise ConfigError(f"{where}: unknown {what} type {spec['type']!r}")
    return spec["type"]


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
    tag = _tag(spec, where, _DIST_TAGS, "distribution")
    cls, fields = _DIST_TAGS[tag]
    _object(spec, where, ("type", *fields))
    missing = [f for f in fields if f not in spec]
    if missing:
        raise ConfigError(f"{where}: distribution {tag!r} is missing fields {missing}")
    for f in fields:
        _number(spec[f], f"{where}.{f}")
    try:
        return cls(**{f: spec[f] for f in fields})
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


# the fields each model type reads besides "type"
_MODEL_FIELDS = {
    "single_shot": ("rate",),
    "poisson": ("rate",),
    "compound_poisson": ("rate", "jump"),
    "shot_noise": ("count", "amplitude", "arrival", "response_rate"),
    "brownian": ("trend",),
    "ou": ("rate", "sigma_u", "u0"),
    "deterministic": ("values", "constant"),
}
# the model fields that hold an object or a list, not a number
_NESTED_FIELDS = ("jump", "count", "amplitude", "arrival", "values")


def parse_model(spec, grid: TimeGrid, where: str = "model") -> drift_mod.DriftModel:
    tag = _tag(spec, where, _MODEL_FIELDS, "model")
    _object(spec, where, ("type", *_MODEL_FIELDS[tag]))
    for key in sorted(set(spec) - {"type", *_NESTED_FIELDS}):
        _number(spec[key], f"{where}.{key}")
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
        # deterministic, the one type left
        if "values" in spec:
            values = spec["values"]
            if not isinstance(values, list):
                raise ConfigError(f"{where}.values must be a list of numbers, got {values!r}")
            vals = np.array([_number(v, f"{where}.values[{i}]") for i, v in enumerate(values)])
        elif "constant" in spec:
            vals = np.full(grid.n_nodes, float(spec["constant"]))
        else:
            raise ConfigError(f"{where}: deterministic model needs 'values' or 'constant'")
        return drift_mod.Deterministic(Curve(grid, vals))
    except ConfigError:
        raise
    except KeyError as exc:
        raise ConfigError(f"{where}: missing field {exc} for model {tag!r}") from exc
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _check_steps(where: str, T: float, dt: float, cap: float = 0.0) -> None:
    """Grid rules: positive T and dt, T a whole number (2 or more) of steps, at most 5e7 to T or ``cap``."""
    if T <= 0 or dt <= 0:
        raise ConfigError(f"{where}: T and dt must be positive")
    if max(T, cap) / dt > 5e7:
        raise ConfigError(f"{where}: unreasonably fine step (more than 5e7 steps)")
    n = round(T / dt)
    if n < 2:
        # the order-4 approximant's f = F' + theta F needs a three-node stencil
        raise ConfigError(f"{where}: grid needs at least 2 steps, got T/dt = {T / dt:g}")
    if abs(n * dt - T) > 1e-9 * T:
        # the grid would end at n dt, short of the T its outputs echo
        raise ConfigError(f"{where}: T = {T} is not a whole number of steps dt = {dt}")


def parse_neuron(spec) -> tuple[dict, str, drift_mod.ShotNoise]:
    """The 'neuron' section: Table 2 parameters with its overrides, the scenario and its drift."""
    _object(spec, "neuron", (*neuro_mod.TABLE2_PARAMS, "scenario"))
    for key in sorted(set(spec) - {"scenario"}):
        _number(spec[key], f"neuron.{key}")  # the summary echoes the value as given
    params = dict(neuro_mod.TABLE2_PARAMS)
    params.update({k: v for k, v in spec.items() if k != "scenario"})
    try:
        _check_steps("neuron", params["T"], params["dt"], params["horizon_cap"])
        models = dict(neuro_mod.table2_models(params))
        for model in models.values():
            drift_mod.validate_pairing(model, params["theta"])
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"neuron: {exc}") from exc
    kind = spec.get("scenario", "simulated_network")
    if kind not in models:
        raise ConfigError(f"neuron.scenario must be one of {sorted(models)}, got {kind!r}")
    return params, kind, models[kind]


_FORMATS = ("csv", "json")
# the keys of each config section; "model" and "neuron" are checked by their parsers
_SECTION_KEYS = {
    "sde": ("theta", "sigma", "x0"),
    "grid": ("T", "dt"),
    "mc": ("n_paths", "seed"),
    "output": ("directory", "formats"),
    "costs": ("p_list",),
}


def _integer(value, where: str) -> int:
    if type(value) is not int:  # not a bool, and not a float that int() would truncate
        raise ConfigError(f"{where} must be an integer, got {value!r}")
    return value


def _number(value, where: str) -> float:
    # a JSON number: not a bool or a string that float() would read, nor NaN or Infinity
    if type(value) not in (int, float) or not math.isfinite(value):
        raise ConfigError(f"{where} must be a finite number, got {value!r}")
    return float(value)


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
    _object(raw, "config", (*_SECTION_KEYS, "model", "neuron"))
    sde_spec, grid_spec, mc, out, costs = (
        _object(raw.get(name, {}), name, keys) for name, keys in _SECTION_KEYS.items()
    )
    cfg.theta = _number(sde_spec.get("theta", cfg.theta), "sde.theta")
    cfg.sigma = _number(sde_spec.get("sigma", cfg.sigma), "sde.sigma")
    cfg.x0 = _number(sde_spec.get("x0", cfg.x0), "sde.x0")
    cfg.T = _number(grid_spec.get("T", cfg.T), "grid.T")
    cfg.dt = _number(grid_spec.get("dt", cfg.dt), "grid.dt")
    cfg.n_paths = _integer(mc.get("n_paths", cfg.n_paths), "mc.n_paths")
    cfg.seed = _integer(mc.get("seed", cfg.seed), "mc.seed")
    p_list = costs.get("p_list", list(costs_mod.P_ORDERS))
    cfg.out_dir = out.get("directory", cfg.out_dir)
    if not isinstance(cfg.out_dir, str):
        raise ConfigError(f"output.directory must be a string, got {cfg.out_dir!r}")
    formats = out.get("formats", list(cfg.formats))
    cfg.neuron = raw.get("neuron", {})

    if getattr(overrides, "seed", None) is not None:
        cfg.seed = overrides.seed
    if getattr(overrides, "paths", None) is not None:
        cfg.n_paths = overrides.paths
    if getattr(overrides, "out", None) is not None:
        cfg.out_dir = overrides.out
    if getattr(overrides, "threads", None) is not None:
        cfg.threads = overrides.threads
    if getattr(overrides, "format", None) is not None:
        formats = [overrides.format]

    if cfg.theta <= 0:
        raise ConfigError(f"sde.theta must be positive, got {cfg.theta}")
    if cfg.sigma < 0:
        raise ConfigError(f"sde.sigma must be nonnegative, got {cfg.sigma}")
    _check_steps("grid", cfg.T, cfg.dt)
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
    if not (isinstance(formats, list) and formats and all(f in _FORMATS for f in formats)):
        raise ConfigError(
            f"output.formats must be a non-empty list drawn from {list(_FORMATS)}, got {formats!r}"
        )
    cfg.formats = tuple(formats)
    parse_neuron(cfg.neuron)

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


def _emit(cfg: ExperimentConfig, files) -> None:
    """Write each (format, name, write) whose format output.formats lists, and print its path."""
    for fmt, name, write in files:
        if fmt in cfg.formats:
            path = _outpath(cfg, name)
            write(path)
            print(f"wrote {path}")


def _write_table(cfg: ExperimentConfig, report, stem: str) -> None:
    _emit(cfg, [
        ("csv", f"{stem}.csv", lambda p: costs_mod.write_report_csv(report, p)),
        ("json", f"{stem}.json", lambda p: costs_mod.write_report_json(report, p)),
    ])


# ---------------------------------------------------------------------------
# subcommands

def cmd_simulate(cfg: ExperimentConfig, n_display_paths: int) -> int:
    """Emit sample paths of X, X2 and X4 sharing one noise realization.

    F2 and F4 are exact (from the cumulants of Z); mc.n_paths is not read.
    """
    if n_display_paths < 1:
        raise ConfigError(f"--display-paths must be >= 1, got {n_display_paths}")
    grid = cfg.grid()
    sde = cfg.sde()
    F2, F4 = approx_mod.fit(cfg.model, cfg.theta, grid)

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
    _emit(cfg, [
        ("csv", "paths.csv", lambda p: write_csv_columns(p, cols, data)),
        ("csv", "F2.csv", F2.F.to_csv),
        ("csv", "F4.csv", F4.F.to_csv),
        ("json", "simulate_config.json", lambda p: write_json(p, cfg.echo())),
    ])
    return EXIT_OK


def cmd_approx(cfg: ExperimentConfig) -> int:
    """Emit the order-2 and order-4 approximants as t,F,f tables.

    Both are exact (from the cumulants of Z); nothing is sampled, so
    mc.n_paths and the seed are not read.
    """
    grid = cfg.grid()
    F2, F4 = approx_mod.fit(cfg.model, cfg.theta, grid)
    columns = lambda appr: [grid.times(), appr.F.values, appr.f.values]
    _emit(cfg, [
        ("csv", "approx_p2.csv", lambda p: write_csv_columns(p, ["t", "F", "f"], columns(F2))),
        ("csv", "approx_p4.csv", lambda p: write_csv_columns(p, ["t", "F", "f"], columns(F4))),
        ("json", "approx_config.json", lambda p: write_json(p, cfg.echo())),
    ])
    return EXIT_OK


def _require_two_paths(cfg: ExperimentConfig, what: str) -> None:
    """Sample variances and SEs need two paths: reject fewer as a config error."""
    if cfg.n_paths < 2:
        raise ConfigError(f"mc.n_paths must be >= 2 for {what}, got {cfg.n_paths}")


def cmd_bound(cfg: ExperimentConfig) -> int:
    """Emit t,mse,se,d2 and report the worst violation of mse <= d2 + 3 se."""
    _require_two_paths(cfg, "the pointwise MSE and its SE")
    grid = cfg.grid()
    F2 = approx_mod.F2_analytic(cfg.model, cfg.theta, grid)
    bound = bounds_mod.d2_generic(cfg.model, cfg.theta, grid)
    chunks = drift_mod.iter_Z_chunks(
        cfg.model, cfg.theta, grid, cfg.n_paths, child_seed(cfg.seed, 2), cfg.threads
    )
    mse, se = bounds_mod.pointwise_mse_streaming(chunks, F2.F, cfg.n_paths)
    violation = mse.values - bound.d2.values - 3 * se.values
    summary = {
        "max_violation": float(violation.max()), "d2_l1_mass": bound.l1_mass, "config": cfg.echo()
    }
    columns = [grid.times(), mse.values, se.values, bound.d2.values]
    _emit(cfg, [
        ("csv", "bound.csv", lambda p: write_csv_columns(p, ["t", "mse", "se", "d2"], columns)),
        ("json", "bound_summary.json", lambda p: write_json(p, summary)),
    ])
    print(f"max violation (mse - d2 - 3 se) = {violation.max():.6g}")
    return EXIT_OK


def cmd_costs(cfg: ExperimentConfig) -> int:
    """Cost matrix J_i[X_j] for the configured model: a one-row :func:`costs.run_table`."""
    _require_two_paths(cfg, "the cost standard errors")
    params = {"theta": cfg.theta, "T": cfg.T, "dt": cfg.dt, "config": cfg.echo()}
    scenario = [(cfg.model_spec.get("type", "model"), cfg.model)]
    report = costs_mod.run_table(scenario, params, cfg.seed, cfg.n_paths, cfg.threads)
    _write_table(cfg, report, "costs")
    return EXIT_OK


def cmd_table1(cfg: ExperimentConfig) -> int:
    _require_two_paths(cfg, "the cost standard errors")
    _write_table(cfg, costs_mod.run_table1(cfg.seed, cfg.n_paths, cfg.threads), "table1")
    return EXIT_OK


def cmd_table2(cfg: ExperimentConfig) -> int:
    _require_two_paths(cfg, "the cost standard errors")
    _write_table(cfg, neuro_mod.run_table2(cfg.seed, cfg.n_paths, cfg.threads), "table2")
    return EXIT_OK


def cmd_neuron(cfg: ExperimentConfig) -> int:
    """Fit the approximants of the embedded-neuron scenario configured under 'neuron'.

    Every scenario is fitted on its exact law, the simulated network on the
    first-passage law of its inputs at the neuron grid's dt, so nothing is
    sampled: mc.n_paths and the seed are not read. The summary reports the
    censor rate 1 - G(horizon_cap) of that law (0 for the other scenarios).
    """
    params, kind, model = parse_neuron(cfg.neuron)
    grid = TimeGrid.from_step(params["T"], params["dt"])
    F2, F4 = approx_mod.fit(model, params["theta"], grid)
    censor_rate = model.arrival.censored
    summary = {"scenario": kind, "censor_rate": censor_rate, "params": params}
    _emit(cfg, [
        ("csv", "neuron_F2.csv", F2.F.to_csv),
        ("csv", "neuron_F4.csv", F4.F.to_csv),
        ("json", "neuron_summary.json", lambda p: write_json(p, summary)),
    ])
    print(f"scenario {kind}, censor rate {censor_rate:.2e}")
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
        "--threads",
        type=int,
        default=1,
        help="worker threads, each sampling and reducing whole 512-path blocks; every sample "
        "and every sum follows the blocks, so results are bit-identical for any count",
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
    except ArithmeticError as exc:  # drift.CensoringError among them
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    return code


if __name__ == "__main__":
    sys.exit(main())
