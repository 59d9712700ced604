"""Correctness checks on one rep's outputs, against reference values and tolerances.

Every check is a rule that holds for any seed: a value within a tolerance of a
reference, an inequality within a multiple of its standard error, or an exact
property (finite, F(0) = 0, exit code 0). None compares against stored
bit-exact outputs, so a change that moves Monte Carlo values legitimately
still passes.
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np

N_REF = 10_000  # paths behind the reference tables

# columns J2[F2], J2[F4], J4[F2], J4[F4] of the reference cost tables
TABLE_REFERENCE = {
    "table1": {
        "single_shot": [0.04809342, 0.07091437, 0.005860227, 0.003705015],
        "poisson": [7.268493, 7.437058, 50.80439, 49.55527],
        "compound_poisson": [3.612515, 3.957901, 16.41228, 14.52411],
        "brownian": [3.619208, 3.619208, 12.40195, 12.40195],
        "ornstein_uhlenbeck": [0.1985489, 0.1985489, 0.02649128, 0.02649128],
    },
    "table2": {
        "exponential": [26.8471, 27.67105, 61.20081, 58.75134],
        "gamma": [26.4166, 27.65103, 52.46327, 49.15484],
        "simulated_network": [4.387099, 4.396086, 4.311031, 4.315560],
    },
}
CELLS = [(2, 2), (2, 4), (4, 2), (4, 4)]  # (p_eval, p_fit)
MC_F2 = {"simulated_network"}  # scenarios whose F2 is a Monte Carlo mean, not a closed form
# Standard deviation of one path's cost J2, J4 over its mean, for the F2 curve,
# measured on 10,000-20,000 paths (4,000 for the network) at the seed commit.
PATH_SPREAD = {
    "single_shot": (2.00, 4.69),
    "poisson": (1.32, 3.59),
    "compound_poisson": (1.59, 6.50),
    "brownian": (1.25, 2.79),
    "ornstein_uhlenbeck": (0.77, 1.83),
    "exponential": (0.66, 1.67),
    "gamma": (0.62, 1.75),
    "simulated_network": (1.21, 2.60),
}


def cell_tolerance(label: str, p_eval: int, p_fit: int, se: float, ref: float,
                   n_paths: int) -> float:
    """Acceptance criteria 1 and 5, |value - ref| <= max(rtol * ref, 4 SE), at n_paths.

    rtol (10%, 15% for the simulated network) is set for the 10k-path
    protocol. It covers the noise of curves fitted on a Monte Carlo ensemble,
    which the evaluation SE does not see and which shrinks as 1/sqrt(paths),
    so cells of fitted curves get rtol * sqrt(10000 / n_paths).

    Per-path costs are skewed (J4 of compound Poisson: skewness about 40), so
    a sample that misses the rare large paths has both a low mean and a low
    SE; at 1,000 paths the sample SE alone failed about 1% of seeds. The SE
    used is therefore the larger of the sample's and the one the measured
    per-path spread implies.
    """
    rtol = 0.15 if label == "simulated_network" else 0.10
    if p_fit == 4 or label in MC_F2:
        rtol *= math.sqrt(N_REF / n_paths)
    spread_se = PATH_SPREAD[label][p_eval // 2 - 1] * ref / math.sqrt(n_paths)
    return max(rtol * ref, 4.0 * max(se, spread_se))


class Checks:
    """Named pass/fail results; a check that raises counts as failed."""

    def __init__(self):
        self.results = []

    def add(self, name: str, fn) -> None:
        try:
            ok = bool(fn())
        except Exception:  # a missing output or a malformed value is a failed check
            ok = False
        self.results.append((name, ok))


def _try(fn, *args):
    """fn(*args), or None when the output it reads is missing or malformed."""
    try:
        return fn(*args)
    except Exception:
        return None


def _records(path: str) -> list:
    with open(path) as fh:
        return json.load(fh)["records"]


def _csv_columns(path: str) -> dict:
    with open(path, newline="") as fh:
        header = next(csv.reader(fh))
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return {name: data[:, k] for k, name in enumerate(header)}


def _table_csv_rows(path: str) -> list:
    with open(path, newline="") as fh:
        return [[float(x) for x in row[1:]] for row in list(csv.reader(fh))[1:]]


def _all_finite(records) -> bool:
    return all(math.isfinite(r["value"]) and math.isfinite(r["se"]) for r in records)


def _matches(records, values) -> bool:
    """The written records carry exactly the values the library returned."""
    got = {(r["scenario"], r["p_eval"], r["p_fit"]): r["value"] for r in records}
    return len(got) == len(values) and all(got[k] == v for k, v in values.items())


def check_rep(w, configs: dict, rep: dict, captured: dict) -> list:
    """All checks for one rep of workload ``w``; returns (name, passed) pairs."""
    c = Checks()
    for (label, cmd), code in rep["exits"].items():
        c.add(f"{label}.{cmd}.exit0", lambda: code == 0)
    for kind in ("F2_analytic", "F4_from_moments"):
        for k, appr in enumerate(captured.get(kind, [])):
            c.add(f"{kind}[{k}].F0", lambda: abs(appr.F.values[0]) <= 1e-12)
    if w.name in TABLE_REFERENCE:
        _check_table(c, w, configs, captured)
    elif w.name == "long_horizon":
        _check_long_horizon(c, w, configs, captured)
    elif w.name == "fine_grid":
        _check_fine_grid(c, configs, rep)
    return c.results


def _check_table(c: Checks, w, configs, captured) -> None:
    _, out_dir = configs[w.name]
    records = _try(_records, os.path.join(out_dir, f"{w.name}.json"))
    rows = _try(_table_csv_rows, os.path.join(out_dir, f"{w.name}.csv"))
    report = _try(lambda: captured[f"run_{w.name}"][-1])
    reference = TABLE_REFERENCE[w.name]
    c.add("output.finite", lambda: _all_finite(records))
    c.add("output.csv_finite", lambda: len(rows) == len(reference)
          and all(math.isfinite(x) for row in rows for x in row))
    c.add("output.matches_report", lambda: _matches(records, {
        (label, pe, pf): report.entry(label, pe, pf)[0] for label in reference for pe, pf in CELLS}))
    for label, refs in reference.items():
        for (pe, pf), ref in zip(CELLS, refs):
            def cell():
                value, se = report.entry(label, pe, pf)
                return abs(value - ref) <= cell_tolerance(label, pe, pf, se, ref, w.n_paths)
            c.add(f"{label}.J{pe}[F{pf}]", cell)
        for p in (2, 4):
            def gap():
                g, g_se = report.gap(label, p)
                return g >= -4.0 * g_se  # criterion 3
            c.add(f"{label}.gap{p}", gap)


def _check_long_horizon(c: Checks, w, configs, captured) -> None:
    for k, (label, (_, out_dir)) in enumerate(configs.items()):
        records = _try(_records, os.path.join(out_dir, "costs.json"))
        block = _try(lambda: captured["cost_block"][k])
        values, gap_se = (block[0], block[2]["gap_se"]) if block else (None, None)
        model = w.scenarios[label]["model"]["type"]
        c.add(f"{label}.output.finite", lambda: _all_finite(records))
        c.add(f"{label}.output.matches_report", lambda: _matches(records, {
            (model, pe, pf): values[a, b]
            for a, pe in enumerate((2, 4)) for b, pf in enumerate((2, 4))}))
        for a, p in enumerate((2, 4)):
            c.add(f"{label}.gap{p}", lambda: values[a, 1 - a] - values[a, a] >= -4.0 * gap_se[a])


def _check_fine_grid(c: Checks, configs, rep) -> None:
    for label, (_, out_dir) in configs.items():
        columns = {name: _try(_csv_columns, os.path.join(out_dir, name))
                   for name in ("approx_p2.csv", "approx_p4.csv", "bound.csv")}
        for name, cols in columns.items():
            c.add(f"{label}.{name}.finite", lambda: all(np.all(np.isfinite(v)) for v in cols.values()))
        bound, closed = columns["bound.csv"], rep["d2_closed"].get(label)
        # criterion 6: the generic d2 the CLI writes agrees with the closed form
        c.add(f"{label}.d2_generic_vs_closed", lambda: np.max(np.abs(bound["d2"] - closed)) <= 1e-5)
        if label == "single_shot":
            # criterion 4: pointwise mse <= d2 + 3 se at every node
            c.add(f"{label}.mse_le_d2", lambda: np.all(bound["mse"] <= closed + 3.0 * bound["se"]))
