import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

from gmapprox import drift as dm
from gmapprox.approx import F2_analytic
from gmapprox.bounds import BoundCurve, d2_closed, d2_generic, pointwise_mse_streaming
from gmapprox import timebase
from gmapprox.timebase import Curve, TimeGrid, child_seed, slab_rows
from oracles import cut_rows, matrix_blocks

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

    def test_deterministic_closed_form_is_zero(self):
        g = grid(dt=0.01)
        b = d2_closed(dm.Deterministic(Curve.from_function(g, np.sin)), THETA, g)
        assert b.closed_form
        assert np.array_equal(b.d2.values, np.zeros(g.n_nodes)) and b.l1_mass == 0.0

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
        # accepted: at rate theta and 2 theta, d2 = int_0^t (e^{-lam s} - e^{-2 lam s}) e^{-2 theta (t - s)} ds
        # has a term t e^{-2 theta t} in place of a damped difference
        t = grid().times()
        e1, e2, e4 = np.exp(-THETA * t), np.exp(-2 * THETA * t), np.exp(-4 * THETA * t)
        limits = {
            THETA: (e1 - e2) / THETA - t * e2,
            2 * THETA: t * e2 - (e2 - e4) / (2 * THETA),
        }
        for rate, ref in limits.items():
            b = d2_closed(dm.SingleShot(rate=rate), THETA, grid())
            assert b.closed_form
            assert np.max(np.abs(b.d2.values - ref)) <= 1e-12 * np.max(ref)

    def test_ou_saturation(self):
        # limit sigma_u^2/(4 lam theta) = 1/12
        g = TimeGrid.from_step(10.0, 1e-2)
        b = d2_closed(dm.OUDrift(2.0, 1.0, 1.0), THETA, g)
        assert b.d2.values[-1] == pytest.approx(1.0 / 12.0, rel=1e-9)

    def test_shot_noise_firing_rate_coincidence_rejected(self):
        # accepted: arrival rate equal to the response rate, the d2 integral of the exact D[z]
        # within its trapezoid error; only theta <= 0 is refused
        model = dm.ShotNoise(arrival=dm.Exponential(1.0), response_rate=1.0)
        b = d2_closed(model, 0.1, grid())
        assert b.closed_form
        gen = d2_generic(model, 0.1, grid())
        assert np.max(np.abs(b.d2.values - gen.d2.values)) <= 1e-5 * np.max(gen.d2.values)
        with pytest.raises(ValueError, match="theta must be positive"):
            d2_closed(model, 0.0, grid())

    def test_gamma_arrival_falls_back_to_quadrature(self):
        model = dm.ShotNoise(arrival=dm.Gamma(rate=1.0 / 15.0, shape=2.0))
        g = TimeGrid.from_step(10.0, 1e-2)
        b = d2_closed(model, 0.1, g)
        assert not b.closed_form
        gen = d2_generic(model, 0.1, g)
        np.testing.assert_allclose(b.d2.values, gen.d2.values, rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("rate", [1e-3, 0.75, 1.5, 2.0, 50.0])
    def test_single_shot_matches_quadrature(self, rate):
        # d2 = lam chain(lam, 2 lam, 2 theta) is a sum of nonnegative terms; the difference
        # of two damped exponential differences that it replaces cancels at small rates
        g = TimeGrid.from_step(5.0, 1e-3)
        d2 = d2_closed(dm.SingleShot(rate), THETA, g).d2.values
        for k in (1, 2, 5, 20, 100, 1000, 2500, 5000):
            t = g.times()[k]
            integrand = lambda s: -np.exp(-rate * s) * np.expm1(-rate * s) * np.exp(-2 * THETA * (t - s))
            ref = quad(integrand, 0.0, t, epsabs=0.0, epsrel=1e-13)[0]
            assert d2[k] == pytest.approx(ref, rel=1e-11, abs=0), (rate, k)

    def test_bound_curve_invariants(self):
        g = grid(dt=0.01)
        with pytest.raises(ValueError):
            BoundCurve(grid=g, d2=Curve(g, np.ones(g.n_nodes)), l1_mass=1.0, closed_form=True)


# every variant and law whose damped D[z] is exact; a trapezoid-damped one is not a bound
CAUCHY_SCHWARZ_MODELS = {
    "single_shot_2": dm.SingleShot(2.0),
    "single_shot_50": dm.SingleShot(50.0),
    "single_shot_at_theta": dm.SingleShot(THETA),
    "poisson": dm.Poisson(2.0),
    "compound_poisson_exponential": dm.CompoundPoisson(2.0, dm.Exponential(2.0)),
    "compound_poisson_gamma": dm.CompoundPoisson(2.0, dm.Gamma(rate=2.0, shape=0.7)),
    "brownian": dm.BrownianDrift(),
    "brownian_trend": dm.BrownianDrift(trend=2.0),
    "ou": dm.OUDrift(2.0, 1.0, 1.0),
    "ou_at_theta": dm.OUDrift(THETA, 0.5, -1.0),
    "deterministic": None,  # built on each grid
    "shot_noise_fixed_count": dm.ShotNoise(arrival=dm.Exponential(2.0)),
    "shot_noise_poisson_count": dm.ShotNoise(count=dm.PoissonCount(3.0), arrival=dm.Exponential(2.0)),
}


@pytest.mark.parametrize("T, dt", [(5.0, 1e-3), (5.0, 0.1), (250.0, 0.05)])
@pytest.mark.parametrize("name", list(CAUCHY_SCHWARZ_MODELS))
def test_kappa2_below_cauchy_schwarz_curve(name, T, dt):
    # Z(t) = int_0^t e^{-theta (t - s)} z(s) ds, so by Cauchy-Schwarz
    # D[Z(t)] <= K(t) int_0^t e^{-theta (t - s)} D[z(s)] ds, K(t) = (1 - e^{-theta t}) / theta:
    # D[z] damped at theta, the variance statement with the tail [theta]
    g = TimeGrid.from_step(T, dt)
    model = CAUCHY_SCHWARZ_MODELS[name] or dm.Deterministic(Curve.from_function(g, np.sin))
    damped, exact = model._var_z(g, [THETA])
    assert exact
    curve = -np.expm1(-THETA * g.times()) / THETA * damped
    kappa2 = dm.cumulant_curves(model, THETA, g, order=2)[1]
    assert np.all(kappa2 <= curve * (1 + 1e-12))


def arrival_means(arrival, t, rates):
    """E[e^{-r (t - T)} 1{T <= t}] for each rate r by scipy's quad of the arrival density (point masses exactly)."""
    if isinstance(arrival, dm.PointMass):
        return [math.exp(-r * (t - arrival.value)) if t >= arrival.value else 0.0 for r in rates]
    if isinstance(arrival, dm.Uniform):
        hi = min(t, arrival.hi)
        return [quad(lambda s: math.exp(-r * (t - s)), arrival.lo, hi, epsabs=0.0, epsrel=1e-13)[0]
                / (arrival.hi - arrival.lo) if hi > arrival.lo else 0.0 for r in rates]
    c = math.exp(arrival.shape * math.log(arrival.rate) - math.lgamma(arrival.shape))
    # the weight s^(shape - 1) is quad's algebraic one, so a shape below 1 is no singularity to it
    return [c * quad(lambda s: math.exp(-arrival.rate * s - r * (t - s)), 0.0, t, weight="alg",
                     wvar=(arrival.shape - 1.0, 0.0), epsabs=0.0, epsrel=1e-13, limit=200)[0] for r in rates]


@pytest.mark.parametrize("count", [dm.FixedCount(10), dm.PoissonCount(10.0)], ids=["fixed", "poisson"])
@pytest.mark.parametrize("arrival", [dm.Gamma(0.7, 0.5), dm.Gamma(1.0 / 15.0, 2.0), dm.Uniform(0.0, 3.0),
                                     dm.PointMass(0.0015)], ids=["gamma_0.5", "gamma_2", "uniform", "point_mass"])
def test_shot_noise_var_z_matches_quadrature(count, arrival):
    """D[z] = E[beta]^2 (D[M] - E[M]) phi^2 + E[M] E[beta^2] psi, phi and psi by quadrature."""
    g = TimeGrid.from_step(5.0, 1e-3)
    model = dm.ShotNoise(count=count, arrival=arrival)
    v = dm.var_z(model, g).values
    em = count.raw_moment(1)
    vm = count.raw_moment(2) - em**2
    eb, eb2 = model.amplitude.raw_moment(1), model.amplitude.raw_moment(2)
    for k in (1, 2, 100, g.n_steps):
        phi, psi = arrival_means(arrival, g.times()[k], (model.response_rate, 2.0 * model.response_rate))
        ref = eb**2 * (vm - em) * phi**2 + em * eb2 * psi
        assert v[k] == pytest.approx(ref, rel=1e-8, abs=0.0), k


def pointwise_mse(Z_ensemble, F):
    """Oracle: per-node sample mean and SE of (Z_i(t) - F(t))^2 over a materialized ensemble."""
    w = (Z_ensemble.values - F.values[None, :]) ** 2
    n = Z_ensemble.n_paths
    return w.mean(axis=0), w.std(axis=0, ddof=1) / np.sqrt(n)


def mse_of(ens, F):
    """pointwise_mse_streaming over a materialized ensemble."""
    return pointwise_mse_streaming(matrix_blocks(ens.values), F, ens.n_paths)


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


def streaming_oracle(Z, F, rows):
    """pointwise_mse_streaming by its formulas: power sums of (Z - F)^2 about each block's first row.

    The column sums of the passes of ``rows`` rows are added in row order
    within each block of _BLOCK rows, and each block's mean and central sum
    are pooled into the ensemble's in block order (Chan et al. 1979).
    """
    n_paths = len(Z)
    pooled = None
    for _, block in cut_rows(Z, timebase._BLOCK):
        K = (block[0] - F.values) ** 2
        s1 = np.zeros(F.grid.n_nodes)
        s2 = np.zeros(F.grid.n_nodes)
        for _, slab in cut_rows(block, rows):
            d = (slab - F.values[None, :]) ** 2 - K
            s1 += d.sum(axis=0)
            s2 += np.einsum("ij,ij->j", d, d)  # the rows' squares added in row order, as the fold adds them
        nb = len(block)
        e = s1 / nb
        stats = (nb, K, e, s2 - nb * e * e)
        if pooled is None:
            pooled = stats
            continue
        na, ca, ea, M2a = pooled
        delta = (K - ca) + (e - ea)
        n = na + nb
        pooled = (n, ca, ea + delta * (nb / n), M2a + stats[3] + delta * delta * (na * nb / n))
    n, c, e, M2 = pooled
    return c + e, np.sqrt(np.maximum(M2, 0.0) / (n_paths - 1) / n_paths)


class TestPointwiseMSEStreaming:
    @pytest.mark.parametrize("model", TABLE1_MODELS, ids=lambda m: type(m).__name__)
    def test_bit_identical_to_former_formulas(self, model):
        # 101 nodes: a block is one pass, and the 188-row last block is
        # shorter than the work array
        g = grid(T=1.0, dt=0.01)
        assert slab_rows(g.n_nodes) == 512
        n = 700
        F = F2_analytic(model, THETA, g).F
        Z = dm.Z_path_ensemble(model, THETA, g, n, 4).values
        mse, se = pointwise_mse_streaming(matrix_blocks(Z), F, n)
        ref_mse, ref_se = streaming_oracle(Z, F, 512)
        assert np.array_equal(mse.values, ref_mse)
        assert np.array_equal(se.values, ref_se)

    def test_fine_grid_sums_slabs_in_row_order(self):
        # 20,001 nodes: passes of 4 rows, so the full block is 128 passes
        # and the 138-row last block ends in a pass of 2
        g = grid(T=2.0, dt=1e-4)
        assert slab_rows(g.n_nodes) == 4
        model = dm.Poisson(2.0)
        n = 650
        F = F2_analytic(model, THETA, g).F
        Z = dm.Z_path_ensemble(model, THETA, g, n, 4).values
        mse, se = pointwise_mse_streaming(matrix_blocks(Z), F, n)
        ref_mse, ref_se = streaming_oracle(Z, F, 4)
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

    def test_two_paths_are_enough_and_one_is_not(self):
        g = grid(dt=0.01)
        model = dm.Poisson(2.0)
        F = F2_analytic(model, THETA, g).F
        chunks = dm.iter_Z_chunks(model, THETA, g, 2, 11)
        w = (chunks.matrix() - F.values) ** 2
        mse, se = pointwise_mse_streaming(chunks, F, 2)
        np.testing.assert_allclose(mse.values, w.mean(axis=0), rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(se.values, w.std(axis=0, ddof=1) / np.sqrt(2), rtol=1e-9, atol=1e-15)
        assert se.values.max() > 0
        with pytest.raises(ValueError, match="at least 2 paths"):
            pointwise_mse_streaming(dm.iter_Z_chunks(model, THETA, g, 1, 11), F, 1)

    def test_equal_squared_errors_have_zero_se(self):
        # before any path's first event every squared error is F2^2: raw sums read se up to 2e-21 there
        g = TimeGrid.from_step(5.0, 1e-3)
        model = dm.ShotNoise(arrival=dm.Gamma(1.0 / 15.0, 2.0))
        F = F2_analytic(model, THETA, g).F
        chunks = dm.iter_Z_chunks(model, THETA, g, 1000, child_seed(7, 2))
        w = (chunks.matrix() - F.values) ** 2
        mse, se = pointwise_mse_streaming(chunks, F, 1000)
        equal = np.ptp(w, axis=0) == 0
        assert 60 < equal.sum() < g.n_nodes
        assert np.all(se.values[equal] == 0)
        varied = np.flatnonzero(~equal)
        for k in [*varied[:5], *varied[:: len(varied) // 20]]:
            x = [Fraction(v) for v in w[:, k]]
            mean = sum(x) / len(x)
            var = sum((v - mean) ** 2 for v in x) / (len(x) - 1)
            assert mse.values[k] == pytest.approx(float(mean), rel=1e-14, abs=0.0), k
            assert se.values[k] == pytest.approx(math.sqrt(float(var / len(x))), rel=1e-12, abs=0.0), k


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
