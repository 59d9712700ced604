import json

import numpy as np
import pytest

from gmapprox import drift as dm
from gmapprox.approx import F2_analytic
from gmapprox.costs import (
    CostReport,
    cost_block,
    estimate_cost,
    full_path_costs,
    full_path_cross_check,
    report_records,
    run_table1,
    write_report_csv,
    write_report_json,
)
from gmapprox.sde import LinearSDE
from gmapprox.timebase import Curve, PathEnsemble, TimeGrid, child_seed, trapezoid_values

THETA = 1.5


def grid(T=1.0, dt=1e-2):
    return TimeGrid.from_step(T, dt)


class TestEstimateCost:
    def test_zero_when_paths_equal_F(self):
        g = grid()
        f = Curve.from_function(g, lambda t: np.sin(t))
        vals = np.tile(f.values, (8, 1))
        ens = PathEnsemble(g, 8, vals, master_seed=0)
        value, se = estimate_cost(2, ens, f)
        assert value == 0.0 and se == 0.0

    def test_constant_error_integrates_exactly(self):
        g = TimeGrid.from_step(5.0, 0.05)
        ens = PathEnsemble(g, 1, np.ones((1, g.n_nodes)), master_seed=0)
        value, se = estimate_cost(2, ens, Curve(g, np.zeros(g.n_nodes)))
        assert value == pytest.approx(5.0, rel=1e-12)
        assert se == 0.0

    def test_rejects_odd_order(self):
        g = grid()
        ens = PathEnsemble(g, 2, np.zeros((2, g.n_nodes)), master_seed=0)
        with pytest.raises(ValueError):
            estimate_cost(3, ens, Curve(g, np.zeros(g.n_nodes)))


class TestEstimatorEquivalence:
    @pytest.mark.parametrize("sigma", [1.0, 0.0])
    @pytest.mark.parametrize("p", [2, 4])
    def test_full_path_matches_Z_only_per_path(self, sigma, p):
        # Y is added to both X and X^f, so it cancels path by path
        g = TimeGrid.from_step(5.0, 1e-2)
        sde = LinearSDE(theta=THETA, sigma=sigma, x0=0.0, grid=g)
        model = dm.SingleShot(2.0)
        F2 = F2_analytic(model, THETA, g)
        n, seed = 10, 77
        full = full_path_costs(sde, model, F2.F, p, n, seed)
        ens = dm.Z_path_ensemble(model, THETA, g, n, master_seed=seed)
        direct = trapezoid_values(np.abs(ens.values - F2.F.values[None, :]) ** p, g.dt)
        assert np.max(np.abs(full - direct)) < 1e-10

    def test_cross_check_value_agrees(self):
        g = TimeGrid.from_step(1.0, 1e-2)
        sde = LinearSDE(theta=THETA, sigma=1.0, x0=0.0, grid=g)
        model = dm.SingleShot(2.0)
        appr = F2_analytic(model, THETA, g)
        n, seed = 50, 5
        v_full, se_full = full_path_cross_check(sde, model, appr, 2, n, seed)
        ens = dm.Z_path_ensemble(model, THETA, g, n, master_seed=seed)
        v_z, se_z = estimate_cost(2, ens, appr.F)
        assert v_full == pytest.approx(v_z, abs=1e-10)
        assert se_full == pytest.approx(se_z, abs=1e-10)


class TestSEConvergence:
    def test_se_scales_like_inverse_sqrt_n(self):
        g = grid(T=1.0, dt=0.02)
        model = dm.Poisson(2.0)
        F2 = F2_analytic(model, THETA, g).F
        ns = [100, 1000, 10_000]
        ses = []
        for n in ns:
            ens = dm.Z_path_ensemble(model, THETA, g, n, master_seed=3)
            ses.append(estimate_cost(2, ens, F2)[1])
        slope = np.polyfit(np.log(ns), np.log(ses), 1)[0]
        assert slope == pytest.approx(-0.5, abs=0.1)


class TestCostBlock:
    def test_optimality_within_noise(self):
        g = grid(T=1.0, dt=0.02)
        values, se, _ = cost_block(dm.SingleShot(2.0), THETA, g, 4000, eval_seed=child_seed(9, 1))
        for a in range(2):
            other = 1 - a
            assert values[a, a] <= values[a, other] + 4 * (se[a, a] + se[a, other])


class TestCostReport:
    def test_invariants(self):
        with pytest.raises(ValueError):
            CostReport(labels=("a",), values=-np.ones((1, 2, 2)), se=np.zeros((1, 2, 2)))
        with pytest.raises(ValueError):
            CostReport(labels=("a", "b"), values=np.zeros((1, 2, 2)), se=np.zeros((1, 2, 2)))

    def test_serialization_roundtrip(self, tmp_path):
        report = CostReport(
            labels=("alpha", "beta"),
            values=np.arange(8, dtype=float).reshape(2, 2, 2),
            se=np.full((2, 2, 2), 0.25),
            config_echo={"n_paths": 7, "seed": 1, "dt": 0.1, "T": 1.0},
        )
        jp = tmp_path / "r.json"
        cp = tmp_path / "r.csv"
        write_report_json(report, jp)
        write_report_csv(report, cp)
        payload = json.loads(jp.read_text())
        assert len(payload["records"]) == 8
        rec = payload["records"][0]
        assert set(rec) == {"scenario", "p_fit", "p_eval", "value", "se", "n_paths", "seed", "dt", "T"}
        got = report_records(report)
        assert payload["records"] == got
        lines = cp.read_text().splitlines()
        assert len(lines) == 3  # header + 2 scenarios
        assert lines[0].startswith("scenario,J2[F2],J2[F4],J4[F2],J4[F4]")

    def test_entry_lookup(self):
        report = CostReport(
            labels=("a",),
            values=np.array([[[1.0, 2.0], [3.0, 4.0]]]),
            se=np.zeros((1, 2, 2)),
        )
        assert report.entry("a", 2, 2) == (1.0, 0.0)
        assert report.entry("a", 4, 2) == (3.0, 0.0)
        assert report.entry("a", 2, 4) == (2.0, 0.0)


class TestRunTable1Smoke:
    def test_structure_and_determinism(self):
        a = run_table1(seed=11, n_paths=120)
        b = run_table1(seed=11, n_paths=120, threads=2)
        assert a.labels == (
            "single_shot",
            "poisson",
            "compound_poisson",
            "brownian",
            "ornstein_uhlenbeck",
        )
        assert a.values.shape == (5, 2, 2)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.se, b.se)
        assert np.all(a.values >= 0)
