"""Exact cumulant curves of Z against quadrature, sampling and the Table 1 reference."""

import csv
import math
import os

import numpy as np
import pytest
from scipy import stats
from scipy.integrate import quad
from scipy.special import roots_jacobi, roots_legendre

from gmapprox import cli
from gmapprox import drift as dm
from gmapprox.approx import F2_analytic, F4_from_moments, exact_moments, fit
from gmapprox.bounds import d2_closed
from gmapprox.costs import TABLE1_PARAMS, cost_block, table1_scenarios
from gmapprox.neuro import TABLE2_PARAMS, table2_models
from gmapprox.response import _LEGENDRE, _gauss_jacobi
from gmapprox.timebase import TimeGrid, child_seed, stable_exp_diff, trapezoid_values

from oracles import matrix_blocks
from test_acceptance import TABLE1_REFERENCE, CELLS
from test_cli import write_config


# ---------------------------------------------------------------------------
# a quadrature oracle, written from the definitions


def _quad(f, a, b, **kw):
    return quad(f, a, b, epsabs=0.0, epsrel=1e-13, limit=500, **kw)[0]


def _K(lam, theta, u):
    """Damped response (e^{-lam u} - e^{-theta u}) / (theta - lam); lam = 0 is the jump kernel.

    At lam = theta it is the limit u e^{-theta u}.
    """
    if lam == theta:
        return u * np.exp(-theta * u)
    return np.exp(-lam * u) * -np.expm1(-(theta - lam) * u) / (theta - lam)


def _raw(dist, n):
    if isinstance(dist, (dm.PointMass, dm.FixedCount)):
        return float(dist.value) ** n
    frozen = {
        dm.Exponential: lambda d: stats.expon(scale=1.0 / d.rate),
        dm.Gamma: lambda d: stats.gamma(a=d.shape, scale=1.0 / d.rate),
        dm.Uniform: lambda d: stats.uniform(loc=d.lo, scale=d.hi - d.lo),
        dm.PoissonCount: lambda d: stats.poisson(d.mean),
    }[type(dist)](dist)
    return float(frozen.moment(n))


def _cumulants_from_central(mean, mu):
    mu2, mu3, mu4 = mu
    return [mean, mu2, mu3, mu4 - 3.0 * mu2**2]


def _cumulants_from_raw(m):
    m1, m2, m3, m4 = m
    mu2 = m2 - m1 * m1
    mu3 = m3 - 3 * m1 * m2 + 2 * m1**3
    mu4 = m4 - 4 * m1 * m3 + 6 * m1 * m1 * m2 - 3 * m1**4
    return _cumulants_from_central(m1, (mu2, mu3, mu4))


def _arrival_mean(arrival, g, t):
    """E[g(t - T) 1{T <= t}] by quadrature over the arrival law."""
    if isinstance(arrival, dm.PointMass):
        return g(t - arrival.value) if t >= arrival.value else 0.0
    if isinstance(arrival, dm.Uniform):
        if t <= arrival.lo:
            return 0.0
        top = min(t, arrival.hi)
        return _quad(lambda s: g(t - s), arrival.lo, top) / (arrival.hi - arrival.lo)
    if isinstance(arrival, dm.Exponential):
        nu = arrival.rate
        return _quad(lambda s: nu * np.exp(-nu * s) * g(t - s), 0.0, t)
    nu, a = arrival.rate, arrival.shape
    c = math.exp(a * math.log(nu) - math.lgamma(a))
    # the s^(a - 1) factor of the density as a quadrature weight
    return _quad(lambda s: c * np.exp(-nu * s) * g(t - s), 0.0, t, weight="alg", wvar=(a - 1.0, 0.0))


def oracle_cumulants(model, theta, t):
    """kappa_1..kappa_4 of Z(t) by adaptive quadrature of each definition."""
    if t == 0.0:
        return [0.0] * 4
    jump = lambda u: _K(0.0, theta, u)
    if isinstance(model, (dm.Poisson, dm.CompoundPoisson)):
        EJ = (lambda n: 1.0) if isinstance(model, dm.Poisson) else (lambda n: _raw(model.jump, n))
        return [model.rate * EJ(n) * _quad(lambda u: jump(u) ** n, 0.0, t) for n in range(1, 5)]
    if isinstance(model, dm.BrownianDrift):
        return [model.trend * _quad(jump, 0.0, t), _quad(lambda u: jump(u) ** 2, 0.0, t), 0.0, 0.0]
    if isinstance(model, dm.OUDrift):
        lam = model.rate
        k1 = _quad(lambda s: np.exp(-theta * (t - s)) * model.u0 * np.exp(-lam * s), 0.0, t)
        return [k1, model.sigma_u**2 * _quad(lambda u: _K(lam, theta, u) ** 2, 0.0, t), 0.0, 0.0]
    if isinstance(model, dm.SingleShot):
        lam = model.rate
        shot = lambda s: lam * np.exp(-lam * s)
        k1 = _quad(lambda s: shot(s) * jump(t - s), 0.0, t)
        # central moments about the exact mean, so no raw-moment conversion
        mu = [
            math.exp(-lam * t) * (-k1) ** n + _quad(lambda s: shot(s) * (jump(t - s) - k1) ** n, 0.0, t)
            for n in (2, 3, 4)
        ]
        return _cumulants_from_central(k1, mu)
    assert isinstance(model, dm.ShotNoise)
    lam = model.response_rate
    raw = [
        _raw(model.amplitude, n) * _arrival_mean(model.arrival, lambda u: _K(lam, theta, u) ** n, t)
        for n in range(1, 5)
    ]
    if isinstance(model.count, dm.PoissonCount):
        return [model.count.mean * m for m in raw]
    return [model.count.value * k for k in _cumulants_from_raw(raw)]


CASES = {
    "single_shot": (dm.SingleShot(2.0), 1.5, 5.0, 1e-3),
    "single_shot_long": (dm.SingleShot(0.5), 1.5, 40.0, 1e-2),
    "poisson": (dm.Poisson(2.0), 1.5, 5.0, 1e-3),
    "compound_exponential": (dm.CompoundPoisson(2.0, dm.Exponential(2.0)), 1.5, 5.0, 1e-3),
    "compound_gamma": (dm.CompoundPoisson(1.0, dm.Gamma(rate=3.0, shape=2.5)), 0.7, 8.0, 1e-2),
    "compound_uniform": (dm.CompoundPoisson(3.0, dm.Uniform(-1.0, 2.0)), 1.5, 5.0, 1e-3),
    "compound_point_mass": (dm.CompoundPoisson(2.0, dm.PointMass(0.4)), 1.5, 5.0, 1e-3),
    "brownian": (dm.BrownianDrift(2.0), 1.5, 5.0, 1e-3),
    "ornstein_uhlenbeck": (dm.OUDrift(2.0, 1.0, 1.0), 1.5, 5.0, 1e-3),
    "ou_slow": (dm.OUDrift(0.3, 2.0, -0.5), 1.5, 10.0, 1e-2),
    "shot_exponential_fixed": (dm.ShotNoise(), 0.1, 50.0, 1e-2),
    "shot_exponential_fast": (
        dm.ShotNoise(dm.FixedCount(2), dm.Uniform(0.5, 1.5), dm.Exponential(3.0), 1.0), 1.5, 5.0, 1e-3),
    # Gamma arrivals slower (nu < r) and faster (nu > r) than the response decay
    "shot_gamma_slow": (
        dm.ShotNoise(arrival=dm.Gamma(rate=1.0 / 15.0, shape=2.0)), 0.1, 50.0, 1e-2),
    "shot_gamma_fast": (
        dm.ShotNoise(dm.PoissonCount(5.0), dm.Uniform(0.5, 1.5), dm.Gamma(rate=4.0, shape=2.5), 1.0),
        0.5, 5.0, 1e-3),
    "shot_gamma_singular": (
        dm.ShotNoise(dm.PoissonCount(3.0), dm.Exponential(2.0), dm.Gamma(rate=3.0, shape=0.7), 1.0),
        1.5, 5.0, 1e-3),
    "shot_uniform": (
        dm.ShotNoise(dm.PoissonCount(4.0), dm.PointMass(0.8), dm.Uniform(0.5, 2.0), 2.0), 1.5, 5.0, 1e-3),
    "shot_point_mass": (
        dm.ShotNoise(dm.FixedCount(3), dm.Gamma(rate=2.0, shape=3.0), dm.PointMass(1.2345), 0.7),
        1.5, 5.0, 1e-3),
    # response rate within 1e-7 of theta: the two-rate closed forms lose half their digits here
    "shot_near_coincident": (
        dm.ShotNoise(dm.FixedCount(5), dm.Uniform(0.5, 1.5), dm.Exponential(0.5), 1.5 * (1 + 1e-7)),
        1.5, 5.0, 1e-3),
    # exact coincidences: a rate equal to theta, to 2 theta, or an arrival rate to lam or 2 lam
    "single_shot_at_theta": (dm.SingleShot(1.5), 1.5, 5.0, 1e-3),
    "single_shot_at_2theta": (dm.SingleShot(3.0), 1.5, 5.0, 1e-3),
    "ou_at_theta": (dm.OUDrift(1.5, 1.0, 1.0), 1.5, 5.0, 1e-3),
    "shot_response_at_theta": (
        dm.ShotNoise(dm.FixedCount(5), dm.Uniform(0.5, 1.5), dm.Exponential(0.5), 1.5), 1.5, 5.0, 1e-3),
    "shot_arrival_at_lam": (
        dm.ShotNoise(dm.FixedCount(2), dm.Uniform(0.5, 1.5), dm.Exponential(1.0), 1.0), 1.5, 5.0, 1e-3),
    "shot_arrival_at_2lam": (
        dm.ShotNoise(dm.PoissonCount(4.0), dm.Uniform(0.5, 1.5), dm.Exponential(2.0), 1.0), 1.5, 5.0, 1e-3),
}


def _nodes(grid, model):
    n = grid.n_nodes
    ks = set(range(11)) | {50, 500, n // 3, n // 2, n - 1}
    arrival = getattr(model, "arrival", None)
    for edge in (getattr(arrival, "value", None), getattr(arrival, "lo", None), getattr(arrival, "hi", None)):
        if isinstance(edge, float):
            k = int(np.searchsorted(grid.times(), edge))
            ks |= {k - 1, k, k + 1}
    return sorted(k for k in ks if 0 <= k < n)


@pytest.mark.parametrize("name", sorted(CASES))
def test_cumulants_match_quadrature(name):
    model, theta, T, dt = CASES[name]
    grid = TimeGrid.from_step(T, dt)
    kappa = dm.cumulant_curves(model, theta, grid)
    t = grid.times()
    for k in _nodes(grid, model):
        ref = oracle_cumulants(model, theta, t[k])
        for n in range(4):
            # third and fourth cumulants on the natural scale kappa_2^(n/2), since they change sign
            scale = abs(ref[n]) + (ref[1] ** ((n + 1) / 2) if n >= 2 else 0.0)
            assert abs(kappa[n, k] - ref[n]) <= 1e-10 * scale, (name, k, n + 1, kappa[n, k], ref[n])


@pytest.mark.parametrize("order", [1, 2, 3])
def test_lower_orders_are_prefixes(order):
    grid = TimeGrid.from_step(2.0, 1e-2)
    for model, theta, _, _ in CASES.values():
        full = dm.cumulant_curves(model, theta, grid)
        assert np.array_equal(dm.cumulant_curves(model, theta, grid, order), full[:order])


def test_F2_is_kappa1():
    grid = TimeGrid.from_step(5.0, 1e-3)
    for model, theta, _, _ in CASES.values():
        F2 = F2_analytic(model, theta, grid).F.values
        assert np.array_equal(F2, dm.cumulant_curves(model, theta, grid)[0])
        assert np.array_equal(fit(model, theta, grid)[0].F.values, F2)


@pytest.mark.parametrize("theta", [1e-6, 1e-8, 1e-10])
def test_ramp_kappa1_keeps_its_relative_accuracy_at_small_theta(theta):
    """kappa_1 = w int_0^t K(u) du against its Taylor series, where t / theta + expm1(-theta t) / theta^2 cancels.

    w is rate E[J] for the Poisson and compound Poisson drifts and the trend for the Brownian one.
    """
    grid = TimeGrid.from_step(5.0, 1e-2)
    t = grid.times()
    series = t**2 / 2 - theta * t**3 / 6 + theta**2 * t**4 / 24
    for model, w in ((dm.Poisson(2.0), 2.0), (dm.CompoundPoisson(2.0, dm.Exponential(4.0)), 0.5),
                     (dm.BrownianDrift(0.5), 0.5)):
        kappa1 = dm.cumulant_curves(model, theta, grid, order=1)[0]
        np.testing.assert_allclose(kappa1, w * series, rtol=1e-12, atol=0, err_msg=type(model).__name__)


def test_ou_drift_builds_no_ramp_chain(monkeypatch):
    """An OU drift has no trend: its cumulants and its sampler skip the ramp chain, and kappa_1 starts at +0.0."""

    def refuse(*args):
        raise AssertionError("the ramp chain was built for a drift with no trend")

    monkeypatch.setattr(dm, "_ramp_chain", refuse)
    model, grid = dm.OUDrift(2.0, 1.0, -1.0), TimeGrid.from_step(1.0, 1e-2)
    kappa1 = dm.cumulant_curves(model, 1.5, grid)[0]
    assert kappa1[0] == 0.0 and math.copysign(1.0, kappa1[0]) == 1.0
    assert dm.Z_path_ensemble(model, 1.5, grid, 3, 7).values.shape == (3, grid.n_nodes)


@pytest.mark.parametrize("lam, T, dt", [(3e5, 5.0, 1e-3), (1e6, 1.0, 1e-2)])
def test_single_shot_at_large_rates_keeps_its_spread(lam, T, dt):
    """kappa_2 and kappa_3 against their tau -> 0 limits e^{-2 theta t} / lam^2 and -2 e^{-3 theta t} / lam^3.

    The shot comes within a few 1 / lam of t = 0, so K(t) - Z is about tau e^{-theta t};
    the next terms are O(theta / lam).
    """
    theta, grid = 1.5, TimeGrid.from_step(T, dt)
    t = grid.times()[1:]
    kappa = dm.cumulant_curves(dm.SingleShot(lam), theta, grid)[:, 1:]
    np.testing.assert_allclose(lam**2 * kappa[1] * np.exp(2 * theta * t), 1.0, rtol=0, atol=1e-3)
    np.testing.assert_allclose(-(lam**3) * kappa[2] * np.exp(3 * theta * t) / 2, 1.0, rtol=0, atol=1e-3)


@pytest.mark.parametrize("lam", [1e-6, 1e-8])
def test_single_shot_at_small_rates_keeps_its_mean(lam):
    """kappa_1 against (-expm1(-lam t) - lam stable_exp_diff(lam, theta, t)) / theta, which does not cancel here."""
    theta, grid = TABLE1_PARAMS["theta"], TimeGrid.from_step(TABLE1_PARAMS["T"], TABLE1_PARAMS["dt"])
    t = grid.times()
    ref = (-np.expm1(-lam * t) - lam * stable_exp_diff(lam, theta, t)) / theta
    kappa1 = dm.cumulant_curves(dm.SingleShot(lam), theta, grid, order=1)[0]
    np.testing.assert_allclose(kappa1, ref, rtol=1e-12, atol=0)


@pytest.mark.parametrize("command", ["approx", "costs"])
def test_single_shot_at_a_large_rate_runs_from_the_cli(tmp_path, command):
    out = tmp_path / "out"
    path = write_config(tmp_path, model={"type": "single_shot", "rate": 3e5},
                        output={"directory": str(out), "formats": ["csv"]})
    assert cli.main([command, "--config", str(path)]) == cli.EXIT_OK
    for name in os.listdir(out):
        with open(out / name, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        values = np.array([[float(v) for v in row if v != "single_shot"] for row in rows])
        assert values.size and np.all(np.isfinite(values)), name


def test_shot_noise_rate_coincidence_is_a_pairing_error():
    """Arrival rates equal to lam and 2 lam are accepted at theta = 0.1, and kappa_2 matches quadrature.

    Only a nonpositive theta is refused.
    """
    grid = TimeGrid.from_step(20.0, 1e-2)
    for nu in (1.0, 2.0):
        model = dm.ShotNoise(arrival=dm.Exponential(nu), response_rate=1.0)
        kappa = dm.cumulant_curves(model, 0.1, grid, order=2)
        for k in (1, 100, grid.n_nodes - 1):
            ref = oracle_cumulants(model, 0.1, grid.times()[k])[1]
            assert kappa[1, k] == pytest.approx(ref, rel=1e-10, abs=0), (nu, k)
        with pytest.raises(ValueError, match="theta must be positive"):
            dm.cumulant_curves(model, 0.0, grid)


# ---------------------------------------------------------------------------
# the closed-form d2 of exponential arrivals against a quadrature of D[z]


def oracle_d2(model, theta, t):
    """d2(t) = int_0^t D[z(s)] e^{-2 theta (t - s)} ds by nested quadrature.

    z(s) sums M i.i.d. terms beta R(s - T) with R(u) = e^{-lam u}, so by the
    law of total variance D[z] = E[M] D[beta R] + D[M] E[beta R]^2.
    """
    lam = model.response_rate
    em = _raw(model.count, 1)
    vm = _raw(model.count, 2) - em**2
    eb, eb2 = _raw(model.amplitude, 1), _raw(model.amplitude, 2)

    def var_z(s):
        phi = _arrival_mean(model.arrival, lambda u: np.exp(-lam * u), s)
        psi = _arrival_mean(model.arrival, lambda u: np.exp(-2 * lam * u), s)
        return em * (eb2 * psi - (eb * phi) ** 2) + vm * (eb * phi) ** 2

    return _quad(lambda s: var_z(s) * np.exp(-2 * theta * (t - s)), 0.0, t)


@pytest.mark.parametrize("eps", [0.0, 1e-10, 1e-8, 1e-6])
@pytest.mark.parametrize("multiple", [1, 2])
def test_d2_closed_matches_quadrature_near_coincidence(multiple, eps):
    # arrival rate nu = multiple * lam (1 + eps): the chain forms have no 1 / (nu - lam) or 1 / (nu - 2 lam)
    lam, theta = 1.0, 1.5
    model = dm.ShotNoise(arrival=dm.Exponential(multiple * lam * (1 + eps)), response_rate=lam)
    grid = TimeGrid.from_step(10.0, 1e-2)
    bound = d2_closed(model, theta, grid)
    assert bound.closed_form
    assert np.all(bound.d2.values >= 0.0)
    ks = [1, 10, 50, 100, 300, 600, grid.n_nodes - 1]
    ref = np.array([oracle_d2(model, theta, grid.times()[k]) for k in ks])
    assert np.max(np.abs(bound.d2.values[ks] - ref)) <= 1e-9 * np.max(np.abs(ref))


# ---------------------------------------------------------------------------
# the Gauss rules of the Gamma convolution, against scipy's


@pytest.mark.parametrize("b", [-0.3, 0.0, 1.0, 1.5, 4.0, 9.0])
def test_gauss_jacobi_matches_scipy(b):
    nodes, weights = _gauss_jacobi(16, b)
    ref_nodes, ref_weights = roots_jacobi(16, 0.0, b)
    np.testing.assert_allclose(nodes, ref_nodes, rtol=0, atol=1e-14)
    np.testing.assert_allclose(weights, ref_weights, rtol=1e-12, atol=0)


def test_gauss_legendre_matches_scipy():
    nodes, weights = _LEGENDRE
    ref_nodes, ref_weights = roots_legendre(16)
    np.testing.assert_allclose(nodes, ref_nodes, rtol=0, atol=1e-14)
    np.testing.assert_allclose(weights, ref_weights, rtol=1e-12, atol=0)


# ---------------------------------------------------------------------------
# sampling


@pytest.mark.parametrize(
    "model",
    [
        dm.SingleShot(2.0),
        dm.Poisson(2.0),
        dm.CompoundPoisson(2.0, dm.Exponential(2.0)),
        dm.ShotNoise(dm.FixedCount(3), dm.Uniform(0.5, 1.5), dm.Exponential(0.5), 3.0),
        dm.ShotNoise(dm.PoissonCount(4.0), dm.Uniform(0.5, 1.5), dm.Gamma(rate=2.0, shape=1.5), 3.0),
        dm.BrownianDrift(2.0),
        dm.OUDrift(2.0, 1.0, 1.0),
    ],
    ids=lambda m: f"{type(m).__name__}-{type(getattr(m, 'arrival', m)).__name__}",
)
def test_monte_carlo_moments_agree_with_exact(model):
    """moments_Z_mc at 1e5 paths against the exact moments, within 4 SE at every node.

    The SEs are the delta-method ones, from the influence functions of the
    mean, variance and third central moment on a separate 1e4-path ensemble.
    The Brownian and OU drifts check the mean alone: their sampler adds the
    exact mean of Z, but integrates the rest of z by the trapezoid rule, which
    biases Var Z at the first nodes (dt^3 / 4 against dt^3 / 3 at the first).
    """
    theta, n = 1.5, 100_000
    grid = TimeGrid.from_step(1.0, 0.1)
    kappa = dm.cumulant_curves(model, theta, grid)
    mom = dm.moments_Z_mc(model, theta, grid, n, master_seed=child_seed(5, 1))
    Z = dm.Z_path_ensemble(model, theta, grid, 10_000, master_seed=child_seed(5, 2)).values
    d = Z - kappa[0]
    se = [
        d.std(axis=0),
        (d * d).std(axis=0),
        (d**3 - 3.0 * kappa[1] * d).std(axis=0),
    ]
    orders = 1 if isinstance(model, (dm.BrownianDrift, dm.OUDrift)) else 3
    for est, exact, s in list(zip((mom.m1, mom.var, mom.mu3), kappa[:3], se))[:orders]:
        resid = np.abs(est.values - exact)[1:]
        assert np.all(resid <= 4.0 * s[1:] / math.sqrt(n) + 1e-12), resid / (s[1:] / math.sqrt(n))


def test_network_monte_carlo_moments_agree_with_exact():
    """The network's sampler and its cumulants read one first-passage law: 1e5 paths within 4 SE.

    The law is solved at the grid step 0.1 ms, so its cells are the grid's.
    """
    theta, n = 0.1, 100_000
    grid = TimeGrid.from_step(20.0, 0.1)
    lif = dict(table2_models())["simulated_network"].arrival.neuron
    model = dm.ShotNoise(dm.FixedCount(3), dm.Uniform(0.5, 1.5), dm.SimulatedFiring(lif, 0.1), 1.0)
    kappa = dm.cumulant_curves(model, theta, grid)
    mom = dm.moments_Z_mc(model, theta, grid, n, master_seed=child_seed(6, 1))
    Z = dm.Z_path_ensemble(model, theta, grid, 10_000, master_seed=child_seed(6, 2)).values
    d = Z - kappa[0]
    se = [d.std(axis=0), (d * d).std(axis=0), (d**3 - 3.0 * kappa[1] * d).std(axis=0)]
    # the delta-method SEs need the events in the sample: nodes where 1% of the paths have fired
    live = (Z != 0).mean(axis=0) >= 0.01
    assert live.sum() > 150
    for est, exact, s in zip((mom.m1, mom.var, mom.mu3), kappa[:3], se):
        resid = np.abs(est.values - exact)[live]
        assert np.all(resid <= 4.0 * s[live] / math.sqrt(n) + 1e-12), resid / (s[live] / math.sqrt(n))


def test_central_moments_of_offset_data():
    """Pairwise-merged central moments against a two-pass long-double reference, |mean| / sd = 1e4."""
    rng = np.random.default_rng(3)
    n = 5_000
    x = 1e4 + rng.exponential(1.0, size=(n, 7))
    x[:, 3] = -2e4 + rng.gamma(0.5, 2.0, size=n)
    grid = TimeGrid(horizon_T=6.0, dt=1.0, n_steps=6)
    x[:, 0] = 0.0  # Z starts at 0
    mom = dm.moments_from_chunks(matrix_blocks(x), grid, n)
    xl = x.astype(np.longdouble)
    mean = xl.mean(axis=0)
    d = xl - mean
    ref_var = (d * d).mean(axis=0)
    ref_mu3 = (d**3).mean(axis=0)
    np.testing.assert_allclose(mom.m1.values, mean.astype(float), rtol=1e-15)
    np.testing.assert_allclose(mom.var.values[1:], ref_var[1:].astype(float), rtol=1e-12)
    np.testing.assert_allclose(mom.mu3.values[1:], ref_mu3[1:].astype(float), rtol=1e-12)


# ---------------------------------------------------------------------------
# the fit


@pytest.mark.parametrize("model", [dm.BrownianDrift(2.0), dm.OUDrift(2.0, 1.0, 1.0)], ids=["brownian", "ou"])
def test_gaussian_rows_F4_is_F2_bit_for_bit(model):
    grid = TimeGrid.from_step(5.0, 1e-2)
    values, se, extras = cost_block(model, 1.5, grid, 64, eval_seed=child_seed(3, 1))
    assert np.array_equal(extras["F4"].values, extras["F2"].values)
    for a in range(2):
        assert values[a, 1 - a] - values[a, a] == 0.0
        assert extras["gap_se"][a] == 0.0


def exact_costs(model, theta, grid, F):
    """J2 and J4 of the curve F from the exact cumulants, by the protocol's trapezoid rule.

    E(Z - F)^2 = kappa2 + b^2 and
    E(Z - F)^4 = kappa4 + 3 kappa2^2 + 4 kappa3 b + 6 kappa2 b^2 + b^4, b = kappa1 - F.
    """
    k1, k2, k3, k4 = dm.cumulant_curves(model, theta, grid)
    b = k1 - F
    J2 = trapezoid_values(k2 + b * b, grid.dt)
    J4 = trapezoid_values(k4 + 3 * k2 * k2 + 4 * k3 * b + 6 * k2 * b * b + b**4, grid.dt)
    return J2, J4


def test_exact_table1_within_criterion_1():
    params = TABLE1_PARAMS
    grid = TimeGrid.from_step(params["T"], params["dt"])
    theta = params["theta"]
    for label, model in table1_scenarios(params):
        F2 = F2_analytic(model, theta, grid).F.values
        F4 = F4_from_moments(exact_moments(model, theta, grid), theta).F.values
        J = {}
        for p_fit, F in ((2, F2), (4, F4)):
            J[(2, p_fit)], J[(4, p_fit)] = exact_costs(model, theta, grid, F)
        for cell, ref in zip(CELLS, TABLE1_REFERENCE[label]):
            assert abs(J[cell] - ref) <= 0.10 * ref, (label, cell, J[cell], ref)
        # each curve is optimal for its own order
        assert J[(2, 2)] <= J[(2, 4)] and J[(4, 4)] <= J[(4, 2)]


def test_exact_network_row_against_the_seed_42_table():
    """The network row's four cells from its exact law lie within |z| <= 4 of the 10k-path, seed-42 row."""
    label, model = table2_models()[2]
    assert label == "simulated_network"
    theta = TABLE2_PARAMS["theta"]
    grid = TimeGrid.from_step(TABLE2_PARAMS["T"], TABLE2_PARAMS["dt"])
    values, se, extras = cost_block(model, theta, grid, 10_000, eval_seed=child_seed(42, 2, 1))
    for b, F in enumerate((extras["F2"], extras["F4"])):
        for a, J in enumerate(exact_costs(model, theta, grid, F.values)):
            z = (values[a, b] - J) / se[a, b]
            assert abs(z) <= 4.0, (CELLS[2 * a + b], values[a, b], J, z)
