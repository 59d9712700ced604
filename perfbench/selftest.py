"""Self-test of the benchmark's correctness checks.

    python3 perfbench/selftest.py

Runs each workload once at a tiny path count, then requires that its checks
pass on the real outputs and that each perturbation below (a cost cell x1.5,
a NaN, F(0) moved off zero, a d2 or mse curve scaled) makes at least one
check fail. Perturbed tables are written back to the output files, so the
check that catches them is the one on the values, not the one comparing file
and report. Exits 0 when every check behaves, 1 otherwise. Takes about a
minute.
"""

from __future__ import annotations

import copy
import dataclasses
import os
import shutil
import sys

import numpy as np

from checks import check_rep
from worker import import_package, install_capture
from workloads import WORKLOADS, config_paths, run_rep, write_configs

HERE = os.path.dirname(os.path.abspath(__file__))
TINY = {"table1": 200, "table2": 100, "fine_grid": 20, "long_horizon": 20}
SEED = 7


def _scale_csv(path: str, column: str, factor: float) -> None:
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    data[:, header.index(column)] *= factor
    np.savetxt(path, data, delimiter=",", header=",".join(header), comments="", fmt="%.17g")


def _table_cell(label: str, factor: float):
    """Scale J2[F2] of one scenario in the report and in the written table."""
    def apply(pkg, w, configs, captured):
        report = captured[f"run_{w.name}"][-1]
        report.values[report.labels.index(label), 0, 0] *= factor
        pkg.costs.write_report_json(report, os.path.join(configs[w.name][1], f"{w.name}.json"))
    return apply


def _costs_cell(factor: float):
    """Scale J2[F2] of the first long-horizon scenario in the block and in costs.json."""
    def apply(pkg, w, configs, captured):
        label, (_, out_dir) = next(iter(configs.items()))
        values, se, _ = captured["cost_block"][0]
        values[0, 0] *= factor
        report = pkg.costs.CostReport(labels=[w.scenarios[label]["model"]["type"]],
                                      values=values[None], se=se[None])
        pkg.costs.write_report_json(report, os.path.join(out_dir, "costs.json"))
    return apply


def _fine_csv(label: str, name: str, column: str, factor: float):
    def apply(pkg, w, configs, captured):
        _scale_csv(os.path.join(configs[label][1], name), column, factor)
    return apply


def _move_F0(pkg, w, configs, captured):
    captured["F4_from_moments"][0].F.values[0] = 1e-3


PERTURBATIONS = {
    "table1": [("poisson J2[F2] x1.5", _table_cell("poisson", 1.5)),
               ("single_shot J2[F2] = NaN", _table_cell("single_shot", float("nan")))],
    "table2": [("gamma J2[F2] x1.5", _table_cell("gamma", 1.5)),
               ("exponential J2[F2] = NaN", _table_cell("exponential", float("nan")))],
    "long_horizon": [("J2[F2] x1.5", _costs_cell(1.5)), ("J2[F2] = NaN", _costs_cell(float("nan"))),
                     ("F4(0) = 1e-3", _move_F0)],
    "fine_grid": [
        ("single_shot d2 x1.5", _fine_csv("single_shot", "bound.csv", "d2", 1.5)),
        ("single_shot mse x1e3", _fine_csv("single_shot", "bound.csv", "mse", 1e3)),
        ("poisson F4 = NaN", _fine_csv("poisson", "approx_p4.csv", "F", float("nan"))),
        ("F4(0) = 1e-3", _move_F0),
    ],
}


def main() -> int:
    pkg = import_package()
    captured = install_capture(pkg)
    ok = True
    for name, n in TINY.items():
        w = dataclasses.replace(WORKLOADS[name], n_paths=n)
        base = os.path.join(HERE, "out", "selftest", name)
        shutil.rmtree(base, ignore_errors=True)
        write_configs(w, SEED, base)
        configs = config_paths(w, base)
        for results in captured.values():
            results.clear()
        rep = run_rep(pkg, w, configs)
        failed = [c for c, passed in check_rep(w, configs, rep, captured) if not passed]
        print(f"{name} (n_paths={n}): real outputs fail {len(failed)} checks {failed}")
        ok &= not failed

        outputs = os.path.join(base, "outputs")
        pristine = os.path.join(base, "pristine")
        shutil.copytree(outputs, pristine)
        for desc, apply in PERTURBATIONS[name]:
            shutil.rmtree(outputs)
            shutil.copytree(pristine, outputs)
            perturbed = copy.deepcopy(captured)
            apply(pkg, w, configs, perturbed)
            failed = [c for c, passed in check_rep(w, configs, rep, perturbed) if not passed]
            print(f"{name}: {desc} is caught by {failed}")
            ok &= bool(failed)
    print("self-test", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
