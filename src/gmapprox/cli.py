"""Command-line entry point for simulations, approximants, bounds and tables.

Subcommands: simulate, approx, bound, costs, table1, table2, neuron.
All randomness flows from a single --seed; every emitted file carries enough
configuration echo to reproduce it exactly. Config sections are read through
one table: ``_FIELDS`` (sde, grid, mc) drives load_config and echo(), and
``_OVERRIDES`` maps each command-line option to the attribute it sets.
bound, costs, table1 and table2 need mc.n_paths >= 2 for their standard
errors. Exit codes: 0 on success, 2 for configuration errors (an output
directory that cannot be made among them, refused before any work where it
is empty or its path runs through a file), 3 for numerical failures.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import MISSING, dataclass, field, fields

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
    """Validated experiment configuration with the standard protocol defaults.

    :func:`load_config` sets ``model`` and ``neuron``, which have no default.
    ``neuron`` is the parsed 'neuron' section, the triple (params, scenario,
    drift) of :func:`parse_neuron`.
    """

    theta: float = 1.5
    sigma: float = 1.0
    x0: float = 0.0
    T: float = 5.0
    dt: float = 1e-3
    model_spec: dict = field(default_factory=lambda: {"type": "single_shot", "rate": 2.0})
    n_paths: int = 10_000
    seed: int = 42
    out_dir: str = "out"
    formats: tuple = ("csv", "json")
    threads: int = 1
    display_paths: int = 1
    model: drift_mod.DriftModel = field(init=False)
    neuron: tuple = field(init=False)

    def grid(self) -> TimeGrid:
        return TimeGrid.from_step(self.T, self.dt)

    def sde(self) -> LinearSDE:
        return LinearSDE(theta=self.theta, sigma=self.sigma, x0=self.x0, grid=self.grid())

    def echo(self) -> dict:
        echo = {name: {key: getattr(self, key) for key in keys} for name, keys in _FIELDS.items()}
        echo["model"] = self.model_spec
        echo["output"] = {"directory": self.out_dir, "formats": list(self.formats)}
        return echo


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


# tag -> (class, number fields, law fields); an absent field takes the class's default
_DIST_TAGS = {
    "exponential": (drift_mod.Exponential, ("rate",), ()),
    "gamma": (drift_mod.Gamma, ("rate", "shape"), ()),
    "uniform": (drift_mod.Uniform, ("lo", "hi"), ()),
    "poisson_count": (drift_mod.PoissonCount, ("mean",), ()),
    "fixed": (drift_mod.FixedCount, ("value",), ()),
    "fixed_count": (drift_mod.FixedCount, ("value",), ()),
    "point_mass": (drift_mod.PointMass, ("value",), ()),
}
_MODEL_TAGS = {
    "single_shot": (drift_mod.SingleShot, ("rate",), ()),
    "poisson": (drift_mod.Poisson, ("rate",), ()),
    "compound_poisson": (drift_mod.CompoundPoisson, ("rate",), ("jump",)),
    "shot_noise": (drift_mod.ShotNoise, ("response_rate",), ("count", "amplitude", "arrival")),
    "brownian": (drift_mod.BrownianDrift, ("trend",), ()),
    "ou": (drift_mod.OUDrift, ("rate", "sigma_u", "u0"), ()),
}


def _parse_tagged(spec, where: str, tags: dict, what: str):
    """The object a tagged spec names: numbers checked, laws parsed, class errors as ConfigError."""
    tag = _tag(spec, where, tags, what)
    cls, numbers, laws = tags[tag]
    _object(spec, where, ("type", *numbers, *laws))
    missing = [f.name for f in fields(cls) if f.init and f.name not in spec
               and f.default is MISSING and f.default_factory is MISSING]
    if missing:
        raise ConfigError(f"{where}: {what} {tag!r} is missing fields {missing}")
    kwargs = {f: spec[f] for f in numbers if f in spec}
    for key, value in kwargs.items():
        _number(value, f"{where}.{key}")
    kwargs.update({f: parse_distribution(spec[f], f"{where}.{f}") for f in laws if f in spec})
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def parse_distribution(spec, where: str) -> drift_mod.Distribution:
    return _parse_tagged(spec, where, _DIST_TAGS, "distribution")


def parse_model(spec, grid: TimeGrid, where: str = "model") -> drift_mod.DriftModel:
    if _tag(spec, where, (*_MODEL_TAGS, "deterministic"), "model") == "deterministic":
        return _parse_deterministic(spec, grid, where)
    return _parse_tagged(spec, where, _MODEL_TAGS, "model")


def _parse_deterministic(spec, grid: TimeGrid, where: str) -> drift_mod.Deterministic:
    _object(spec, where, ("type", "values", "constant"))
    if "constant" in spec:
        _number(spec["constant"], f"{where}.constant")
    if "values" in spec:
        values = spec["values"]
        if not isinstance(values, list):
            raise ConfigError(f"{where}.values must be a list of numbers, got {values!r}")
        vals = np.array([_number(v, f"{where}.values[{i}]") for i, v in enumerate(values)])
    elif "constant" in spec:
        vals = np.full(grid.n_nodes, float(spec["constant"]))
    else:
        raise ConfigError(f"{where}: deterministic model needs 'values' or 'constant'")
    try:
        return drift_mod.Deterministic(Curve(grid, vals))
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
        drift_mod._check_theta(params["theta"])
        models = dict(neuro_mod.table2_models(params))
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"neuron: {exc}") from exc
    kind = spec.get("scenario", "simulated_network")
    if kind not in tuple(models):  # a tuple: the scenario may be an unhashable JSON value
        raise ConfigError(f"neuron.scenario must be one of {sorted(models)}, got {kind!r}")
    return params, kind, models[kind]


def _integer(value, where: str) -> int:
    if type(value) is not int:  # not a bool, and not a float that int() would truncate
        raise ConfigError(f"{where} must be an integer, got {value!r}")
    return value


def _number(value, where: str) -> float:
    # a JSON number: not a bool or a string that float() would read, nor NaN or Infinity,
    # nor an integer past the float range (isfinite raises OverflowError for it)
    try:
        if type(value) in (int, float) and math.isfinite(value):
            return float(value)
    except OverflowError:
        pass
    raise ConfigError(f"{where} must be a finite number, got {value!r}")


# section -> key -> reader; each key names the ExperimentConfig attribute it sets
_FIELDS = {
    "sde": {"theta": _number, "sigma": _number, "x0": _number},
    "grid": {"T": _number, "dt": _number},
    "mc": {"n_paths": _integer, "seed": _integer},
}
# the keys of each config section; "model" and "neuron" are checked by their parsers
_SECTION_KEYS = {
    **{name: tuple(keys) for name, keys in _FIELDS.items()},
    "output": ("directory", "formats"),
    "costs": ("p_list",),
}
# command-line option -> the ExperimentConfig attribute it overrides
_OVERRIDES = {"seed": "seed", "paths": "n_paths", "out": "out_dir", "threads": "threads",
              "display_paths": "display_paths"}
_FORMATS = ("csv", "json")


def load_config(path: str | None, overrides: argparse.Namespace) -> ExperimentConfig:
    raw = {}
    if path is not None:
        try:
            with open(path, encoding="utf-8") as fh:  # JSON text is UTF-8 (RFC 8259)
                raw = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except ValueError as exc:  # JSONDecodeError, an integer past int()'s digit limit, or not UTF-8
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    cfg = ExperimentConfig()
    _object(raw, "config", (*_SECTION_KEYS, "model", "neuron"))
    sections = {name: _object(raw.get(name, {}), name, keys) for name, keys in _SECTION_KEYS.items()}
    for name, readers in _FIELDS.items():
        for key, read in readers.items():
            setattr(cfg, key, read(sections[name].get(key, getattr(cfg, key)), f"{name}.{key}"))
    p_list = sections["costs"].get("p_list", list(costs_mod.P_ORDERS))
    cfg.out_dir = sections["output"].get("directory", cfg.out_dir)
    if not isinstance(cfg.out_dir, str):
        raise ConfigError(f"output.directory must be a string, got {cfg.out_dir!r}")
    formats = sections["output"].get("formats", list(cfg.formats))
    for option, attr in _OVERRIDES.items():
        if getattr(overrides, option, None) is not None:
            setattr(cfg, attr, getattr(overrides, option))
    if getattr(overrides, "format", None) is not None:
        formats = [overrides.format]

    if cfg.theta <= 0:
        raise ConfigError(f"sde.theta must be positive, got {cfg.theta}")
    if cfg.sigma < 0:
        raise ConfigError(f"sde.sigma must be nonnegative, got {cfg.sigma}")
    _check_steps("grid", cfg.T, cfg.dt)
    if cfg.n_paths < 1:
        raise ConfigError(f"mc.n_paths must be >= 1, got {cfg.n_paths}")
    if cfg.n_paths > 10**9:
        # the cost matrix alone holds 32 B per path
        raise ConfigError("mc.n_paths: unreasonably many paths (more than 1e9)")
    if cfg.seed < 0:
        raise ConfigError(f"mc.seed must be nonnegative, got {cfg.seed}")
    if p_list != list(costs_mod.P_ORDERS):
        raise ConfigError(
            f"costs.p_list must be {list(costs_mod.P_ORDERS)}: only orders 2 and 4 "
            f"are computed, got {p_list!r}"
        )
    if cfg.threads < 1:
        raise ConfigError(f"--threads must be >= 1, got {cfg.threads}")
    if cfg.display_paths < 1:
        raise ConfigError(f"--display-paths must be >= 1, got {cfg.display_paths}")
    if not (isinstance(formats, list) and formats and all(f in _FORMATS for f in formats)):
        raise ConfigError(
            f"output.formats must be a non-empty list drawn from {list(_FORMATS)}, got {formats!r}"
        )
    cfg.formats = tuple(formats)
    _check_out_dir(cfg.out_dir)
    cfg.neuron = parse_neuron(raw.get("neuron", {}))
    cfg.model_spec = raw.get("model", cfg.model_spec)
    cfg.model = parse_model(cfg.model_spec, cfg.grid())
    return cfg


# ---------------------------------------------------------------------------
# output helpers

def _check_out_dir(out_dir: str) -> None:
    """ConfigError if ``out_dir`` is empty or its nearest existing ancestor is not a directory; makes nothing."""
    if not out_dir:
        raise ConfigError("output.directory must not be empty")
    head = os.path.abspath(out_dir)
    while not os.path.exists(head):
        head = os.path.dirname(head)
    if not os.path.isdir(head):
        raise ConfigError(f"output.directory {out_dir!r} cannot be made: {head} is not a directory")


def _emit(cfg: ExperimentConfig, files) -> None:
    """Write each (format, name, write) whose format output.formats lists, and print its path."""
    try:
        os.makedirs(cfg.out_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot make output.directory {cfg.out_dir!r}: {exc}") from exc
    for fmt, name, write in files:
        if fmt in cfg.formats:
            path = os.path.join(cfg.out_dir, name)
            write(path)
            print(f"wrote {path}")


def _write_table(cfg: ExperimentConfig, report, stem: str) -> None:
    _emit(cfg, [
        ("csv", f"{stem}.csv", lambda p: costs_mod.write_report_csv(report, p)),
        ("json", f"{stem}.json", lambda p: costs_mod.write_report_json(report, p)),
    ])


# ---------------------------------------------------------------------------
# subcommands

def cmd_simulate(cfg: ExperimentConfig) -> None:
    """Emit --display-paths sample paths of X, X2 and X4 sharing one noise realization.

    F2 and F4 are exact (from the cumulants of Z); mc.n_paths is not read.
    """
    grid = cfg.grid()
    sde = cfg.sde()
    F2, F4 = approx_mod.fit(cfg.model, cfg.theta, grid)

    t = grid.times()
    cols = ["t"]
    data = [t]
    for i in range(cfg.display_paths):
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


def cmd_approx(cfg: ExperimentConfig) -> None:
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


def cmd_bound(cfg: ExperimentConfig) -> None:
    """Emit t,mse,se,d2 and report the worst violation of mse <= d2 + 3 se."""
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


def cmd_costs(cfg: ExperimentConfig) -> None:
    """Cost matrix J_i[X_j] for the configured model: a one-row :func:`costs.run_table`."""
    params = {"theta": cfg.theta, "T": cfg.T, "dt": cfg.dt, "config": cfg.echo()}
    scenario = [(cfg.model_spec.get("type", "model"), cfg.model)]
    report = costs_mod.run_table(scenario, params, cfg.seed, cfg.n_paths, cfg.threads)
    _write_table(cfg, report, "costs")


def cmd_table1(cfg: ExperimentConfig) -> None:
    _write_table(cfg, costs_mod.run_table1(cfg.seed, cfg.n_paths, cfg.threads), "table1")


def cmd_table2(cfg: ExperimentConfig) -> None:
    _write_table(cfg, neuro_mod.run_table2(cfg.seed, cfg.n_paths, cfg.threads), "table2")


def cmd_neuron(cfg: ExperimentConfig) -> None:
    """Fit the approximants of the embedded-neuron scenario configured under 'neuron'.

    Every scenario is fitted on its exact law, the simulated network on the
    first-passage law of its inputs at the neuron grid's dt, so nothing is
    sampled: mc.n_paths and the seed are not read. The summary reports the
    drift's censored share (``ShotNoise.censored``), 1 - G(horizon_cap) of
    the inputs' law (0 for the other scenarios): the ``censor_rate`` that
    ``table2`` echoes for its network row.
    """
    params, kind, model = cfg.neuron
    grid = TimeGrid.from_step(params["T"], params["dt"])
    F2, F4 = approx_mod.fit(model, params["theta"], grid)
    censor_rate = model.censored
    summary = {"scenario": kind, "censor_rate": censor_rate, "params": params}
    _emit(cfg, [
        ("csv", "neuron_F2.csv", F2.F.to_csv),
        ("csv", "neuron_F4.csv", F4.F.to_csv),
        ("json", "neuron_summary.json", lambda p: write_json(p, summary)),
    ])
    print(f"scenario {kind}, censor rate {censor_rate:.2e}")


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
    common.add_argument("--seed", type=int, default=None, help="master seed (a nonnegative integer)")
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
        if args.command in ("bound", "costs", "table1", "table2") and cfg.n_paths < 2:
            # sample variances and standard errors need two paths
            raise ConfigError(f"mc.n_paths must be >= 2 for the standard errors of {args.command}, "
                              f"got {cfg.n_paths}")
        globals()[f"cmd_{args.command}"](cfg)  # looked up now, so a rebound command is the one run
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ArithmeticError as exc:  # drift.CensoringError among them
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
