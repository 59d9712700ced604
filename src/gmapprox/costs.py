"""Monte Carlo estimation of the integrated power costs J_p and the cost table.

Costs are estimated directly on the drift accumulation,

    J_p[F] = int_0^T E[|Z(t) - F(t)|^p] dt,

because the Ornstein-Uhlenbeck part Y is common to the target process and
every approximant and cancels exactly from the error. A full-path estimator
that simulates X and X^f with a shared noise realization is kept as an
identity cross-check of that cancellation.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field

import numpy as np

from . import approx as approx_mod
from . import drift as drift_mod
from .sde import LinearSDE, simulate_Y
from .timebase import (
    Curve,
    TimeGrid,
    child_seed,
    derive_stream,
    iter_slabs,
    trapezoid_values,
    write_csv_columns,
)

__all__ = [
    "CostReport",
    "full_path_costs",
    "per_path_cost_matrix",
    "cost_block",
    "run_table",
    "run_table1",
    "TABLE1_PARAMS",
    "report_records",
    "write_report_json",
    "write_report_csv",
]

log = logging.getLogger(__name__)

# protocol for the five-scenario cost table
TABLE1_PARAMS = {
    "theta": 1.5,
    "sigma": 1.0,
    "x0": 0.0,
    "rate": 2.0,
    "u0": 1.0,
    "sigma_u": 1.0,
    "jump_rate": 2.0,
    "T": 5.0,
    "dt": 1e-3,
}

P_ORDERS = (2, 4)


@dataclass(frozen=True)
class CostReport:
    """Estimated costs J_i[X_j] for i, j in {2, 4}, one 2x2 block per scenario.

    values[s, a, b] estimates the order P_ORDERS[a] cost of the approximant
    fitted for order P_ORDERS[b] in scenario labels[s]; se holds matching
    standard errors. gap_se[s, a] is the standard error of the estimated
    optimality gap J_pa[F_other] - J_pa[F_pa]; the two costs share the
    evaluation ensemble, so the gap is measured far more precisely than the
    individual values.
    """

    labels: tuple
    values: np.ndarray
    se: np.ndarray
    gap_se: np.ndarray = None
    config_echo: dict = field(default_factory=dict)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        s = np.asarray(self.se, dtype=float)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "se", s)
        object.__setattr__(self, "labels", tuple(self.labels))
        expected = (len(self.labels), len(P_ORDERS), len(P_ORDERS))
        if v.shape != expected or s.shape != expected:
            raise ValueError(f"cost matrices must have shape {expected}")
        if np.any(v < 0) or np.any(s < 0):
            raise ValueError("costs and standard errors must be nonnegative")
        g = self.gap_se
        g = np.zeros(expected[:2]) if g is None else np.asarray(g, dtype=float)
        if g.shape != expected[:2]:
            raise ValueError(f"gap_se must have shape {expected[:2]}")
        object.__setattr__(self, "gap_se", g)

    def entry(self, label: str, p_eval: int, p_fit: int) -> tuple[float, float]:
        s = self.labels.index(label)
        a, b = P_ORDERS.index(p_eval), P_ORDERS.index(p_fit)
        return float(self.values[s, a, b]), float(self.se[s, a, b])

    def gap(self, label: str, p_eval: int) -> tuple[float, float]:
        """Optimality gap J_p[F_other] - J_p[F_p] and its standard error."""
        s = self.labels.index(label)
        a = P_ORDERS.index(p_eval)
        return float(self.values[s, a, 1 - a] - self.values[s, a, a]), float(self.gap_se[s, a])


def _mean_se(c: np.ndarray) -> tuple[float, float]:
    value = float(np.mean(c))
    se = float(np.std(c, ddof=1) / np.sqrt(len(c))) if len(c) > 1 else 0.0
    return value, se


def per_path_cost_matrix(chunks, curves, dt: float, n_paths: int):
    """Cost matrix, value SEs and diagonal-gap SEs from streamed Z chunks.

    ``curves`` are the node values of the candidate F curves (fit orders in
    P_ORDERS order); every cost of every candidate is evaluated on the same
    paths, so the per-path cost differences give tight standard errors for
    the optimality gaps. Chunks are evaluated a slab at a time
    (:func:`timebase.iter_slabs`; a default chunk of
    :func:`drift.iter_Z_chunks` is one slab) in one slab-sized work array;
    per-path costs are row-wise, so they do not depend on the slab or chunk
    size, and the means and SEs are taken over the per-path costs in row
    order.
    """
    per_path = {
        (p, j): np.empty(n_paths) for p in P_ORDERS for j in range(len(curves))
    }
    buf = None  # one (slab rows, nodes) work array for every slab: p is even, so no abs
    for start, slab in iter_slabs(chunks):
        rows = slab.shape[0]
        if buf is None or buf.shape[0] < rows:
            buf = np.empty_like(slab)
        err = buf[:rows]
        for j, fv in enumerate(curves):
            np.subtract(slab, fv, out=err)
            np.square(err, out=err)
            per_path[(2, j)][start : start + rows] = trapezoid_values(err, dt)
            np.square(err, out=err)
            per_path[(4, j)][start : start + rows] = trapezoid_values(err, dt)
    k = len(curves)
    values = np.empty((len(P_ORDERS), k))
    se = np.empty((len(P_ORDERS), k))
    gap_se = np.zeros(len(P_ORDERS))
    for a, p in enumerate(P_ORDERS):
        for j in range(k):
            values[a, j], se[a, j] = _mean_se(per_path[(p, j)])
        if k == 2:
            _, gap_se[a] = _mean_se(per_path[(p, 1 - a)] - per_path[(p, a)])
    return values, se, gap_se


def full_path_costs(
    sde: LinearSDE,
    model: drift_mod.DriftModel,
    F: Curve,
    p: int,
    n_paths: int,
    master_seed: int,
) -> np.ndarray:
    """Per-path costs from full trajectories of X and X^f with shared noise.

    Path i uses row i of the Z ensemble of ``master_seed`` (read from the
    same block streams as :func:`drift.iter_Z_chunks`) and an independent Y
    stream keyed by (master_seed, i, 1); Y is added to both X and X^f, so
    these costs agree with the Z-only estimator path by path up to
    floating-point roundoff.
    """
    if p < 2 or p % 2 != 0:
        raise ValueError(f"p must be an even integer >= 2, got {p}")
    out = np.empty(n_paths)
    for start, block in drift_mod.iter_Z_chunks(model, sde.theta, sde.grid, n_paths, master_seed):
        for i, z_acc in enumerate(block, start):
            y = simulate_Y(sde, derive_stream(master_seed, i, 1))
            x = y.values + z_acc
            xf = y.values + F.values
            out[i] = trapezoid_values(np.abs(x - xf) ** p, sde.grid.dt)
    return out


# ---------------------------------------------------------------------------
# the five-scenario experiment

def table1_scenarios(params: dict = TABLE1_PARAMS) -> list[tuple[str, drift_mod.DriftModel]]:
    lam = params["rate"]
    return [
        ("single_shot", drift_mod.SingleShot(rate=lam)),
        ("poisson", drift_mod.Poisson(rate=lam)),
        (
            "compound_poisson",
            drift_mod.CompoundPoisson(rate=lam, jump=drift_mod.Exponential(params["jump_rate"])),
        ),
        ("brownian", drift_mod.BrownianDrift(trend=lam)),
        (
            "ornstein_uhlenbeck",
            drift_mod.OUDrift(rate=lam, sigma_u=params["sigma_u"], u0=params["u0"]),
        ),
    ]


def cost_block(
    model: drift_mod.DriftModel,
    theta: float,
    grid: TimeGrid,
    n_paths: int,
    eval_seed: int,
    threads: int = 1,
) -> tuple[np.ndarray, np.ndarray, dict]:
    """One scenario's 2x2 cost matrix (orders 2 and 4 against F2 and F4).

    F2 and F4 come from :func:`approx.fit`, exact for every drift, so the
    reported SEs are complete. Every cost is evaluated on one ensemble of
    n_paths paths keyed by ``eval_seed``. ``extras`` holds the F2 and F4
    curves, the gap SEs and ``censored``, the (censored, drawn) event times
    of the ensemble; a law or an ensemble more than half censored raises
    :class:`drift.CensoringError`.
    """
    tally = []
    F2, F4 = approx_mod.fit(model, theta, grid)
    values, se, gap_se = per_path_cost_matrix(
        drift_mod.iter_Z_chunks(model, theta, grid, n_paths, eval_seed, threads, censored=tally),
        (F2.F.values, F4.F.values),
        grid.dt,
        n_paths,
    )
    return values, se, {"F2": F2.F, "F4": F4.F, "gap_se": gap_se, "censored": tally[0]}


def run_table(scenarios, params: dict, seed: int, n_paths: int, threads: int = 1) -> CostReport:
    """The cost table of (label, drift) scenarios at params' theta, T and dt.

    Scenario k is one :func:`cost_block`, evaluated on n_paths paths keyed
    by child_seed(seed, k, 1). The echo holds params,
    n_paths, seed, the censored input count and the largest censor rate of
    a row.
    """
    grid = TimeGrid.from_step(params["T"], params["dt"])
    values = np.empty((len(scenarios), 2, 2))
    se = np.empty((len(scenarios), 2, 2))
    gap_se = np.empty((len(scenarios), 2))
    censored, censor_rate = 0, 0.0
    for k, (label, model) in enumerate(scenarios):
        values[k], se[k], extras = cost_block(
            model,
            params["theta"],
            grid,
            n_paths,
            eval_seed=child_seed(seed, k, 1),
            threads=threads,
        )
        gap_se[k] = extras["gap_se"]
        lost, drawn = extras["censored"]
        if drawn:
            log.info("%s censor rate: %d/%d = %.2e", label, lost, drawn, lost / drawn)
            censored += lost
            censor_rate = max(censor_rate, lost / drawn)
    echo = dict(params, n_paths=n_paths, seed=seed, censored_inputs=censored, censor_rate=censor_rate)
    return CostReport(
        labels=[label for label, _ in scenarios],
        values=values,
        se=se,
        gap_se=gap_se,
        config_echo=echo,
    )


def run_table1(seed: int, n_paths: int = 10_000, threads: int = 1) -> CostReport:
    """The five-scenario cost table at the standard protocol parameters.

    For each drift scenario: F2 and F4 from the exact cumulants of Z, then
    J_2 and J_4 of both approximants estimated on an evaluation ensemble of
    n_paths paths keyed by child_seed(seed, scenario, 1) (:func:`run_table`).
    """
    return run_table(table1_scenarios(TABLE1_PARAMS), TABLE1_PARAMS, seed, n_paths, threads)


# ---------------------------------------------------------------------------
# serialization

def report_records(report: CostReport) -> list[dict]:
    echo = report.config_echo
    recs = []
    for s, label in enumerate(report.labels):
        for a, p_eval in enumerate(P_ORDERS):
            for b, p_fit in enumerate(P_ORDERS):
                recs.append(
                    {
                        "scenario": label,
                        "p_fit": p_fit,
                        "p_eval": p_eval,
                        "value": float(report.values[s, a, b]),
                        "se": float(report.se[s, a, b]),
                        "n_paths": echo.get("n_paths"),
                        "seed": echo.get("seed"),
                        "dt": echo.get("dt"),
                        "T": echo.get("T"),
                    }
                )
    return recs


def write_report_json(report: CostReport, path) -> None:
    payload = {"records": report_records(report), "config": report.config_echo}
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_report_csv(report: CostReport, path) -> None:
    cols = [(a, b) for a in range(2) for b in range(2)]
    head = [f"J{P_ORDERS[a]}[F{P_ORDERS[b]}]" for a, b in cols]
    write_csv_columns(
        path,
        ["scenario"] + head + [f"se_{h}" for h in head],
        [report.values[:, a, b] for a, b in cols] + [report.se[:, a, b] for a, b in cols],
        labels=report.labels,
    )
