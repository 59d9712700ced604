import numpy as np
import pytest

from gmapprox import drift as dm
from gmapprox.approx import F2_analytic
from gmapprox.bounds import BoundCurve, d2_closed, d2_generic, pointwise_mse_streaming
from gmapprox.timebase import Curve, TimeGrid, slab_rows

THETA = 1.5

TABLE1_MODELS = [
    dm.SingleShot(rate=2.0),
    dm.Poisson(rate=2.0),
    dm.CompoundPoisson(rate=2.0, jump=dm.Exponential(2.0)),
    dm.BrownianDrift(trend=2.0),
    dm.OUDrift(rate=2.0, sigma_u=1.0, u0=1.0),
]


def grid(T=1.0, dt=1e-3):
    return TimeGrid.from_step(T, dt)


class TestD2Generic:
    def test_deterministic_is_zero(self):
        g = grid(dt=0.01)
        f = Curve.from_function(g, lambda t: np.sin(t))
        b = d2_generic(dm.Deterministic(f), THETA, g)
        assert np.array_equal(b.d2.values, np.zeros(g.n_nodes))
        assert b.l1_mass == 0.0

    def test_brownian_value(self):
        # d2(t) = t/(2 theta) - (1 - e^{-2 theta t})/(4 theta^2)
        b = d2_generic(dm.BrownianDrift(0.0), THETA, grid())
        assert b.d2.values[-1] == pytest.approx(0.22775411870754042, abs=1e-6)

    @pytest.mark.parametrize("model", TABLE1_MODELS, ids=lambda m: type(m).__name__)
    def test_generic_matches_closed(self, model):
        g = grid(T=1.0, dt=1e-3)
        gen = d2_generic(model, THETA, g).d2.values
        clo = d2_closed(model, THETA, g).d2.values
        assert np.max(np.abs(gen - clo)) < 1e-5

    def test_generic_matches_closed_shot_noise(self):
        g = TimeGrid.from_step(10.0, 1e-3)
        model = dm.ShotNoise()  # embedded-neuron defaults, exponential arrivals
        gen = d2_generic(model, 0.1, g).d2.values
        clo = d2_closed(model, 0.1, g)
        assert clo.closed_form
        assert np.max(np.abs(gen - clo.d2.values)) < 1e-5


class TestD2Closed:
    def test_single_shot_zero_at_origin(self):
        b = d2_closed(dm.SingleShot(2.0), THETA, grid())
        assert b.d2.values[0] == 0.0

    def test_single_shot_tail(self):
        # e^{-10} - 2 e^{-15} + e^{-20}
        g = TimeGrid.from_step(5.0, 1e-2)
        b = d2_closed(dm.SingleShot(2.0), THETA, g)
        assert b.d2.values[-1] == pytest.approx(4.479018627510364e-05, rel=1e-10)

    def test_single_shot_rejects_coincidences(self):
        with pytest.raises(dm.PairingError):
            d2_closed(dm.SingleShot(rate=2 * THETA), THETA, grid())
        with pytest.raises(dm.PairingError):
            d2_closed(dm.SingleShot(rate=THETA), THETA, grid())

    def test_ou_saturation(self):
        # limit sigma_u^2/(4 lam theta) = 1/12
        g = TimeGrid.from_step(10.0, 1e-2)
        b = d2_closed(dm.OUDrift(2.0, 1.0, 1.0), THETA, g)
        assert b.d2.values[-1] == pytest.approx(1.0 / 12.0, rel=1e-9)

    def test_shot_noise_firing_rate_coincidence_rejected(self):
        model = dm.ShotNoise(arrival=dm.Exponential(1.0), response_rate=1.0)
        with pytest.raises(ValueError):
            d2_closed(model, 0.1, grid())

    def test_gamma_arrival_falls_back_to_quadrature(self):
        model = dm.ShotNoise(arrival=dm.Gamma(rate=1.0 / 15.0, shape=2.0))
        g = TimeGrid.from_step(10.0, 1e-2)
        b = d2_closed(model, 0.1, g)
        assert not b.closed_form
        gen = d2_generic(model, 0.1, g)
        np.testing.assert_allclose(b.d2.values, gen.d2.values, rtol=1e-12, atol=1e-15)

    def test_bound_curve_invariants(self):
        g = grid(dt=0.01)
        with pytest.raises(ValueError):
            BoundCurve(grid=g, d2=Curve(g, np.ones(g.n_nodes)), l1_mass=1.0, closed_form=True)


def pointwise_mse(Z_ensemble, F):
    """Oracle: per-node sample mean and SE of (Z_i(t) - F(t))^2 over a materialized ensemble."""
    w = (Z_ensemble.values - F.values[None, :]) ** 2
    n = Z_ensemble.n_paths
    return w.mean(axis=0), w.std(axis=0, ddof=1) / np.sqrt(n)


def mse_of(ens, F):
    """pointwise_mse_streaming over an ensemble handed over as one chunk."""
    return pointwise_mse_streaming([(0, ens.values)], F, ens.n_paths)


class TestPointwiseMSE:
    def test_zero_when_F_matches_paths(self):
        g = grid(dt=0.05)
        f = Curve.from_function(g, lambda t: 1 - np.exp(-2 * t))
        model = dm.Deterministic(f)
        ens = dm.Z_path_ensemble(model, THETA, g, 16, master_seed=0)
        mse, se = mse_of(ens, Curve(g, ens.values[0]))
        assert np.array_equal(mse.values, np.zeros(g.n_nodes))
        assert np.array_equal(se.values, np.zeros(g.n_nodes))

    def test_mean_curve_gives_sample_variance(self):
        g = grid(T=1.0, dt=0.05)
        ens = dm.Z_path_ensemble(dm.Poisson(2.0), THETA, g, 300, master_seed=1)
        mean_curve = Curve(g, ens.values.mean(axis=0))
        mse, se = mse_of(ens, mean_curve)
        np.testing.assert_allclose(mse.values, ens.values.var(axis=0), rtol=1e-12, atol=1e-15)
        ref_mse, ref_se = pointwise_mse(ens, mean_curve)
        np.testing.assert_allclose(mse.values, ref_mse, rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(se.values, ref_se, rtol=1e-9, atol=1e-15)

    def test_single_shot_dominated_by_d2(self):
        # the 3 se cushion absorbs the Monte Carlo fluctuation of the estimate
        g = TimeGrid.from_step(5.0, 1e-2)
        model = dm.SingleShot(2.0)
        ens = dm.Z_path_ensemble(model, THETA, g, 2000, master_seed=42)
        F2 = F2_analytic(model, THETA, g).F
        mse, se = mse_of(ens, F2)
        d2 = d2_closed(model, THETA, g).d2.values
        assert np.all(mse.values <= d2 + 3 * se.values)

    def test_ou_drift_dominated_by_d2(self):
        g = TimeGrid.from_step(5.0, 1e-2)
        model = dm.OUDrift(2.0, 1.0, 1.0)
        ens = dm.Z_path_ensemble(model, THETA, g, 2000, master_seed=7)
        F2 = F2_analytic(model, THETA, g).F
        mse, se = mse_of(ens, F2)
        d2 = d2_closed(model, THETA, g).d2.values
        assert np.all(mse.values <= d2 + 3 * se.values)

    def test_rejects_single_path(self):
        g = grid(dt=0.05)
        ens = dm.Z_path_ensemble(dm.Poisson(2.0), THETA, g, 1, master_seed=0)
        with pytest.raises(ValueError):
            mse_of(ens, Curve(g, np.zeros(g.n_nodes)))


def streaming_oracle(chunks, F, n_paths):
    """pointwise_mse_streaming by the former formulas: a fresh (Z - F)^2 and its square per chunk."""
    s1 = np.zeros(F.grid.n_nodes)
    s2 = np.zeros(F.grid.n_nodes)
    for _, block in chunks:
        w = (block - F.values[None, :]) ** 2
        s1 += w.sum(axis=0)
        s2 += (w * w).sum(axis=0)
    mse = s1 / n_paths
    var = np.maximum(s2 - n_paths * mse**2, 0.0) / (n_paths - 1)
    return mse, np.sqrt(var / n_paths)


def cut_slabs(chunks, rows):
    """Each (start, chunk) cut by hand into (start, slab) pieces of ``rows`` rows."""
    for start, block in chunks:
        for lo in range(0, len(block), rows):
            yield start + lo, block[lo : lo + rows]


class TestPointwiseMSEStreaming:
    @pytest.mark.parametrize("model", TABLE1_MODELS, ids=lambda m: type(m).__name__)
    def test_bit_identical_to_former_formulas(self, model):
        # chunks of 300 rows: the last chunk is shorter than the work array
        g = grid(T=1.0, dt=0.01)
        n = 700
        F = F2_analytic(model, THETA, g).F
        chunks = lambda: dm.iter_Z_chunks(model, THETA, g, n, 4, chunk=300)
        mse, se = pointwise_mse_streaming(chunks(), F, n)
        ref_mse, ref_se = streaming_oracle(chunks(), F, n)
        assert np.array_equal(mse.values, ref_mse)
        assert np.array_equal(se.values, ref_se)

    def test_fine_grid_sums_slabs_in_row_order(self):
        # 20,001 nodes: slabs of 4 rows, so each 300-row chunk is 75 slabs
        # and the 50-row last chunk ends in a slab of 2
        g = grid(T=2.0, dt=1e-4)
        assert slab_rows(g.n_nodes) == 4
        model = dm.Poisson(2.0)
        n = 650
        F = F2_analytic(model, THETA, g).F
        chunks = lambda: dm.iter_Z_chunks(model, THETA, g, n, 4, chunk=300)
        mse, se = pointwise_mse_streaming(chunks(), F, n)
        ref_mse, ref_se = streaming_oracle(cut_slabs(chunks(), 4), F, n)
        assert np.array_equal(mse.values, ref_mse)
        assert np.array_equal(se.values, ref_se)

    def test_identical_for_any_thread_count(self):
        # 600 paths at 20,001 nodes: two blocks, streamed as passes of four
        # rows by one thread and by two or four workers
        g = grid(T=2.0, dt=1e-4)
        model = dm.Poisson(2.0)
        F = F2_analytic(model, THETA, g).F
        runs = [
            pointwise_mse_streaming(dm.iter_Z_chunks(model, THETA, g, 600, 9, threads), F, 600)
            for threads in (1, 2, 4)
        ]
        for mse, se in runs[1:]:
            assert np.array_equal(mse.values, runs[0][0].values)
            assert np.array_equal(se.values, runs[0][1].values)


class TestGrowthClasses:
    def test_quadratic_growth_exponent(self):
        # integral of d2 over [0, T] grows at most like T^2; the exponent is
        # estimated from the largest doubling (lower-order terms bias the
        # small-T masses upward, 2.5 -> 5 measures ~2.19 while 5 -> 10
        # measures ~2.10 on its way to the true exponent 2)
        masses = {}
        for T in (2.5, 5.0, 10.0):
            g = TimeGrid.from_step(T, 1e-3)
            masses[T] = {
                type(m).__name__: d2_closed(m, THETA, g).l1_mass
                for m in (dm.Poisson(2.0), dm.CompoundPoisson(2.0, dm.Exponential(2.0)), dm.BrownianDrift(2.0))
            }
        for name in masses[2.5]:
            assert masses[2.5][name] < masses[5.0][name] < masses[10.0][name]
            expo = np.log(masses[10.0][name] / masses[5.0][name]) / np.log(2.0)
            assert expo <= 2.1, (name, expo)

    def test_single_shot_mass_converges(self):
        m5 = d2_closed(dm.SingleShot(2.0), THETA, TimeGrid.from_step(5.0, 1e-3)).l1_mass
        m10 = d2_closed(dm.SingleShot(2.0), THETA, TimeGrid.from_step(10.0, 1e-3)).l1_mass
        assert abs(m10 - m5) / m10 < 0.01
