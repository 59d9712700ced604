import numpy as np
import pytest

from gmapprox import drift as dm
from gmapprox.sde import (
    LinearSDE,
    apply_I,
    apply_I_inv,
    ou_drift_cov_kernel,
    simulate_Y,
    z_variance_quadrature,
)
from gmapprox.timebase import Curve, TimeGrid, derive_stream
from oracles import ou_mean_cov, solve_X, x_mean_analytic, y_path_ensemble

THETA = 1.5


def make_sde(T=1.0, dt=1e-2, theta=THETA, sigma=1.0, x0=1.0):
    return LinearSDE(theta=theta, sigma=sigma, x0=x0, grid=TimeGrid.from_step(T, dt))


class TestSimulateY:
    def test_zero_noise_decay(self):
        sde = make_sde(sigma=0.0)
        y = simulate_Y(sde, derive_stream(0, 0))
        np.testing.assert_allclose(y.values, np.exp(-THETA * sde.grid.times()), rtol=1e-12)

    def test_ensemble_mean(self):
        # E[Y(1)] = e^{-theta} x0
        sde = make_sde()
        ens = y_path_ensemble(sde, 10_000, master_seed=2)
        end = ens.values[:, -1]
        se = end.std(ddof=1) / np.sqrt(len(end))
        assert end.mean() == pytest.approx(0.22313016014842982, abs=4 * se)

    def test_ensemble_variance(self):
        sde = make_sde(x0=0.0)
        ens = y_path_ensemble(sde, 10_000, master_seed=3)
        t = sde.grid.times()
        exact = sde.sigma**2 * (1 - np.exp(-2 * THETA * t)) / (2 * THETA)
        for k in (20, 50, 100):
            col = ens.values[:, k]
            v = col.var(ddof=1)
            se = v * np.sqrt(2.0 / (len(col) - 1))
            assert v == pytest.approx(exact[k], abs=4 * se)

    def test_ensemble_cov_matches_closed_form(self):
        sde = make_sde(x0=0.5)
        ens = y_path_ensemble(sde, 10_000, master_seed=4)
        rng = np.random.default_rng(0)
        t = sde.grid.times()
        for _ in range(10):
            i, j = rng.integers(1, sde.grid.n_nodes, 2)
            a, b = ens.values[:, i], ens.values[:, j]
            prod = (a - a.mean()) * (b - b.mean())
            se = prod.std(ddof=1) / np.sqrt(len(prod))
            _, cov = ou_mean_cov(sde, t[i], t[j])
            assert prod.mean() == pytest.approx(cov, abs=4 * se)


class TestOUMeanCov:
    def test_origin(self):
        sde = make_sde()
        assert ou_mean_cov(sde, 0.0, 0.0) == (1.0, 0.0)

    def test_symmetry(self):
        sde = make_sde()
        rng = np.random.default_rng(1)
        for _ in range(20):
            t, s = rng.uniform(0, 1, 2)
            assert ou_mean_cov(sde, t, s)[1] == pytest.approx(ou_mean_cov(sde, s, t)[1], rel=1e-14)

    def test_stationary_variance(self):
        sde = make_sde(T=20.0, dt=0.1)
        _, v = ou_mean_cov(sde, 20.0, 20.0)
        assert v == pytest.approx(1.0 / 3.0, rel=1e-8)


class TestSolveX:
    def test_deterministic_noise_free(self):
        sde = make_sde(sigma=0.0, x0=0.0)
        f = Curve.from_function(sde.grid, lambda t: np.sin(t) + 1)
        x, z_acc, y = solve_X(sde, dm.Deterministic(f), derive_stream(0, 0))
        np.testing.assert_allclose(x.values, apply_I(f, THETA).values, rtol=1e-12)
        assert np.array_equal(y.values, np.zeros_like(y.values))

    def test_zero_drift(self):
        sde = make_sde(sigma=0.0, x0=2.0)
        f = Curve(sde.grid, np.zeros(sde.grid.n_nodes))
        x, _, _ = solve_X(sde, dm.Deterministic(f), derive_stream(0, 0))
        np.testing.assert_allclose(x.values, 2.0 * np.exp(-THETA * sde.grid.times()), rtol=1e-12)

    def test_split_consistency_exact(self):
        sde = make_sde()
        for model in (dm.SingleShot(2.0), dm.OUDrift(2.0, 1.0, 1.0)):
            x, z_acc, y = solve_X(sde, model, derive_stream(4, 7))
            assert np.array_equal(x.values, y.values + z_acc.values)

    def test_ensemble_mean_single_shot(self):
        # E[X(t)] = e^{-theta t} x0 + F2(t)
        sde = make_sde(T=1.0, dt=0.02)
        model = dm.SingleShot(2.0)
        n = 10_000
        acc = np.zeros(sde.grid.n_nodes)
        acc2 = np.zeros(sde.grid.n_nodes)
        for i in range(n):
            x, _, _ = solve_X(sde, model, derive_stream(100, i))
            acc += x.values
            acc2 += x.values**2
        mean = acc / n
        se = np.sqrt(np.maximum(acc2 - n * mean**2, 0) / (n - 1) / n)
        expected = x_mean_analytic(sde, model).values
        assert np.all(np.abs(mean - expected)[1:] <= 4 * se[1:])


class TestIMaps:
    def test_apply_I_zero(self):
        g = TimeGrid.from_step(1.0, 0.01)
        out = apply_I(Curve(g, np.zeros(g.n_nodes)), THETA)
        assert np.array_equal(out.values, np.zeros(g.n_nodes))

    def test_apply_I_constant(self):
        g = TimeGrid.from_step(1.0, 1e-3)
        F = apply_I(Curve(g, np.ones(g.n_nodes)), THETA)
        exact = -np.expm1(-THETA * g.times()) / THETA
        assert np.max(np.abs(F.values - exact)) < 1e-6
        assert F.values[-1] == pytest.approx(0.5179132265677134, abs=1e-6)

    def test_apply_I_single_shot_mean(self):
        g = TimeGrid.from_step(1.0, 1e-3)
        f = Curve.from_function(g, lambda t: -np.expm1(-2 * t))
        F = apply_I(f, THETA)
        assert F.values[-1] == pytest.approx(0.3423234727440792, abs=1e-6)

    def test_apply_I_inv_zero(self):
        g = TimeGrid.from_step(1.0, 0.01)
        out = apply_I_inv(Curve(g, np.zeros(g.n_nodes)), THETA)
        assert np.array_equal(out.values, np.zeros(g.n_nodes))

    def test_apply_I_inv_linear_exact(self):
        g = TimeGrid.from_step(1.0, 0.01)
        F = Curve.from_function(g, lambda t: t)
        f = apply_I_inv(F, 1.0)
        np.testing.assert_allclose(f.values, 1.0 + g.times(), rtol=1e-10)

    def test_apply_I_inv_requires_zero_start(self):
        g = TimeGrid.from_step(1.0, 0.01)
        with pytest.raises(ValueError):
            apply_I_inv(Curve(g, np.ones(g.n_nodes)), THETA)

    def test_apply_I_inv_rejects_one_step_grid(self):
        g = TimeGrid.from_step(1.0, 1.0)
        with pytest.raises(ValueError, match="at least 3 grid nodes"):
            apply_I_inv(Curve(g, np.array([0.0, 1.0])), THETA)

    def test_round_trip_I_then_inv(self):
        g = TimeGrid.from_step(1.0, 1e-3)
        f = Curve.from_function(g, lambda t: -np.expm1(-2 * t))
        back = apply_I_inv(apply_I(f, THETA), THETA)
        assert np.max(np.abs(back.values - f.values)) < 1e-4

    def test_round_trip_inv_then_I(self):
        g = TimeGrid.from_step(1.0, 1e-3)
        F = Curve.from_function(g, lambda t: t * np.exp(-t))
        back = apply_I(apply_I_inv(F, THETA), THETA)
        assert np.max(np.abs(back.values - F.values)) < 1e-6


class TestZVarianceQuadrature:
    def test_matches_mc_for_ou_drift(self):
        g = TimeGrid.from_step(1.0, 0.01)
        model = dm.OUDrift(rate=2.0, sigma_u=1.0, u0=1.0)
        var = z_variance_quadrature(ou_drift_cov_kernel(model), THETA, g).values
        ens = dm.Z_path_ensemble(model, THETA, g, 8000, master_seed=55)
        sample_var = ens.values.var(axis=0, ddof=1)
        se = sample_var * np.sqrt(2.0 / (ens.n_paths - 1))
        assert np.all(np.abs(sample_var - var)[1:] <= 5 * se[1:])
