from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmapprox import drift as dm
from gmapprox.approx import (
    Approximant,
    F2_analytic,
    F4_from_moments,
    MomentCurves,
    cubic_el_root,
    eta2,
)
from gmapprox.sde import apply_I, ou_drift_cov_kernel, z_variance_quadrature
from gmapprox.timebase import Curve, TimeGrid

from oracles import Fp_root, transversality_residual

THETA = 1.5


def grid(T=1.0, dt=1e-2):
    return TimeGrid.from_step(T, dt)


def bisection_central_root(var, mu3, tol=1e-13):
    """Root of d^3 + 3 var d - mu3 = 0 by bisection on an expanding bracket.

    The node-by-node solver F4 used before the closed form, kept as an oracle.
    """

    def h(d):
        return d * (d * d + 3.0 * var) - mu3

    lo, hi = -1.0, 1.0
    while h(lo) > 0.0:
        lo *= 2.0
    while h(hi) < 0.0:
        hi *= 2.0
    eps = max(tol, 8.0 * np.spacing(max(abs(lo), abs(hi))))
    while hi - lo > eps:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if h(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def gaussian_moments(g, m1, var):
    # exact moment structure of a Gaussian with mean m1(t), variance var(t)
    return MomentCurves(
        grid=g,
        m1=Curve(g, m1),
        m2=Curve(g, m1**2 + var),
        m3=Curve(g, m1**3 + 3 * m1 * var),
        se1=Curve(g, np.zeros_like(m1)),
    )


class TestF2Analytic:
    def test_deterministic(self):
        g = grid()
        f0 = Curve.from_function(g, lambda t: np.cos(t))
        appr = F2_analytic(dm.Deterministic(f0), THETA, g)
        assert np.array_equal(appr.f.values, f0.values)
        np.testing.assert_allclose(appr.F.values, apply_I(f0, THETA).values, rtol=1e-12)

    def test_single_shot_value(self):
        appr = F2_analytic(dm.SingleShot(2.0), THETA, grid())
        assert appr.F.values[-1] == pytest.approx(0.3423234727440792, rel=1e-12)

    def test_ou_value(self):
        appr = F2_analytic(dm.OUDrift(2.0, 1.0, 1.0), THETA, grid())
        assert appr.F.values[-1] == pytest.approx(0.17558975382363423, rel=1e-12)

    def test_closed_forms_match_quadrature(self):
        g = grid(dt=1e-3)
        models = [
            dm.SingleShot(2.0),
            dm.Poisson(2.0),
            dm.CompoundPoisson(2.0, dm.Exponential(2.0)),
            dm.BrownianDrift(2.0),
            dm.OUDrift(2.0, 1.0, 1.0),
            dm.ShotNoise(),
        ]
        for model in models:
            appr = F2_analytic(model, THETA, g)
            quad = apply_I(dm.mean_z(model, g), THETA)
            scale = max(1.0, np.max(np.abs(appr.F.values)))
            assert np.max(np.abs(appr.F.values - quad.values)) < 1e-5 * scale, type(model).__name__

    def test_pairing_rejected(self):
        # rates equal to theta or 2 theta are accepted, with the quadrature's F2; theta <= 0 is not
        g = grid(dt=1e-3)
        for model in (dm.SingleShot(THETA), dm.SingleShot(2 * THETA), dm.OUDrift(THETA, 1.0, 1.0),
                      dm.ShotNoise(response_rate=THETA)):
            appr = F2_analytic(model, THETA, g)
            quad = apply_I(dm.mean_z(model, g), THETA)
            scale = max(1.0, np.max(np.abs(appr.F.values)))
            assert np.max(np.abs(appr.F.values - quad.values)) < 1e-5 * scale, model
        with pytest.raises(ValueError, match="theta must be positive"):
            F2_analytic(dm.SingleShot(THETA), 0.0, g)


class TestCubicRoot:
    def test_odd_symmetry(self):
        assert cubic_el_root(0.0, 1.0, 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_gaussian_moments_return_mean(self):
        m1, var = 0.5, 1.0
        root = cubic_el_root(m1, m1**2 + var, m1**3 + 3 * m1 * var)
        assert root == pytest.approx(0.5, abs=1e-12)

    def test_known_root(self):
        # root of x^3 + 3x - 3 (independent bisection oracle to 1e-15)
        assert cubic_el_root(0.0, 1.0, 3.0) == pytest.approx(0.8177316738868236, abs=1e-12)

    def test_rejects_invalid_moments(self):
        with pytest.raises(ValueError):
            cubic_el_root(1.0, 0.5, 0.0)

    def test_point_mass_moments_return_mean_exactly(self):
        for m1 in (0.0, 0.3423, -2.7):
            assert cubic_el_root(m1, m1 * m1, m1**3) == m1

    @given(
        m1=st.floats(-10, 10),
        var=st.floats(1e-3, 100),
        m3_shift=st.floats(-50, 50),
    )
    @settings(max_examples=100, deadline=None)
    def test_residual_and_monotonicity(self, m1, var, m3_shift):
        m2 = m1**2 + var
        m3 = m1**3 + 3 * m1 * var + m3_shift
        root = cubic_el_root(m1, m2, m3)
        g = lambda x: (x - m1) ** 3 + 3 * var * (x - m1) - m3_shift
        # monotone around the root: g' >= 0 everywhere
        for dx in (1e-3, 0.1, 1.0):
            assert g(root - dx) <= g(root) + 1e-9 * max(1, abs(g(root)))
            assert g(root + dx) >= g(root) - 1e-9 * max(1, abs(g(root)))
        # residual consistent with the bracket tolerance and local slope
        slope = 3 * ((root - m1) ** 2 + var)
        assert abs(g(root)) <= 1e-10 * max(slope, 1.0) + 1e-9

    @given(
        m1=st.floats(-5, 5),
        var=st.floats(1e-2, 10),
        m3_shift=st.floats(-10, 10),
        c=st.floats(0.01, 100),
    )
    @settings(max_examples=100, deadline=None)
    def test_scale_equivariance(self, m1, var, m3_shift, c):
        # well-conditioned moments: the root map is smooth and homogeneous
        m2 = m1**2 + var
        m3 = m1**3 + 3 * m1 * var + m3_shift
        base = cubic_el_root(m1, m2, m3)
        scaled = cubic_el_root(c * m1, c**2 * m2, c**3 * m3)
        assert abs(scaled - c * base) <= 1e-10 * max(1.0, abs(c * base)) + c * 1e-12


class TestF4FromMoments:
    def test_deterministic_moments_reproduce_F2(self):
        g = grid()
        f0 = Curve.from_function(g, lambda t: 1 - np.exp(-2 * t))
        F = apply_I(f0, THETA).values
        mom = gaussian_moments(g, F, np.zeros_like(F))
        appr = F4_from_moments(mom, THETA)
        assert np.max(np.abs(appr.F.values - F)) < 1e-10

    def test_gaussian_moments_force_F4_equals_F2(self):
        # exact Gaussian moment structure for the OU drift
        g = grid(T=1.0, dt=0.01)
        model = dm.OUDrift(2.0, 1.0, 1.0)
        F2 = F2_analytic(model, THETA, g).F.values
        var = z_variance_quadrature(ou_drift_cov_kernel(model), THETA, g).values
        appr = F4_from_moments(gaussian_moments(g, F2, var), THETA)
        assert np.max(np.abs(appr.F.values - F2)) < 1e-10

    def test_single_shot_F4_differs_from_F2_stably(self):
        g = grid(T=1.0, dt=0.01)
        model = dm.SingleShot(2.0)
        F2 = F2_analytic(model, THETA, g).F.values
        mom_a = dm.moments_Z_mc(model, THETA, g, 10_000, master_seed=101)
        mom_b = dm.moments_Z_mc(model, THETA, g, 10_000, master_seed=202)
        F4_a = F4_from_moments(mom_a, THETA).F.values
        F4_b = F4_from_moments(mom_b, THETA).F.values
        gap = np.abs(F4_a - F2)
        k = int(np.argmax(gap))
        # the gap is systematic: far beyond the m1 noise scale and seed-stable
        assert gap[k] > 10 * mom_a.se1.values[k]
        assert abs(F4_a[k] - F4_b[k]) < 0.5 * gap[k]

    @given(
        nodes=st.lists(
            st.tuples(
                st.floats(-10, 8),  # log10 var
                st.floats(-20, 14),  # log10 |mu3|
                st.sampled_from([-1.0, 0.0, 1.0]),  # sign of mu3
            ),
            min_size=2,  # apply_I_inv needs three nodes
            max_size=20,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_closed_form_residual_no_worse_than_bisection(self, nodes):
        # with m1 = 0 the moments are the central ones and F4 is the root d itself
        var = np.array([0.0] + [10.0**lv for lv, _, _ in nodes])
        mu3 = np.array([0.0] + [sgn * 10.0**lm for _, lm, sgn in nodes])
        g = TimeGrid(horizon_T=float(len(nodes)), dt=1.0, n_steps=len(nodes))
        zero = Curve(g, np.zeros(g.n_nodes))
        mom = MomentCurves(grid=g, m1=zero, m2=Curve(g, var), m3=Curve(g, mu3), se1=zero)
        d = F4_from_moments(mom, THETA).F.values
        eps = np.finfo(float).eps
        for k in range(1, g.n_nodes):
            v, m = var[k], mu3[k]
            residual = abs(d[k] * (d[k] * d[k] + 3.0 * v) - m)
            b = bisection_central_root(v, m)
            bisection_residual = abs(b * (b * b + 3.0 * v) - m)
            floor = 4.0 * eps * (abs(d[k]) ** 3 + 3.0 * v * abs(d[k]) + abs(m))
            assert residual <= max(bisection_residual, floor), k

    def test_invalid_moments_name_first_bad_node(self):
        g = TimeGrid.from_step(2.0, 0.5)
        m1 = np.array([0.0, 1.0, 1.0, 1.0, 1.0])
        m2 = np.array([0.0, 2.0, 0.5, 2.0, 0.1])  # m2 < m1^2 at nodes 2 and 4
        # MomentCurves rejects these, so pass the curves without its validation
        mom = SimpleNamespace(
            grid=g, m1=Curve(g, m1), var=Curve(g, m2 - m1**2), mu3=Curve(g, np.zeros(5))
        )
        with pytest.raises(ValueError, match="invalid moments at node 2:"):
            F4_from_moments(mom, THETA)

    def test_moment_validation_names_node(self):
        g = TimeGrid.from_step(1.0, 0.5)
        m1 = np.array([0.0, 1.0, 1.0])
        with pytest.raises(ValueError):
            MomentCurves(
                grid=g,
                m1=Curve(g, m1),
                m2=Curve(g, np.array([0.0, 0.5, 2.0])),
                m3=Curve(g, np.zeros(3)),
                se1=Curve(g, np.zeros(3)),
            )


class TestFpRoot:
    def test_p2_is_sample_mean(self):
        z = np.array([0.3, -1.2, 4.0, 2.2])
        assert Fp_root(2, z) == pytest.approx(z.mean(), rel=1e-14)

    def test_p4_symmetry(self):
        assert Fp_root(4, np.array([-1.0, 1.0])) == pytest.approx(0.0, abs=1e-12)

    def test_p4_known_root(self):
        # 2x^3 + (x-3)^3 = 0  =>  x = 3 / (1 + 2^(1/3))
        assert Fp_root(4, np.array([0.0, 0.0, 3.0])) == pytest.approx(
            1.3274800020733262, abs=1e-12
        )

    def test_degenerate_samples(self):
        assert Fp_root(4, np.full(5, 2.5)) == 2.5

    @pytest.mark.parametrize("p", [1, 3, 0, -2])
    def test_rejects_bad_orders(self, p):
        with pytest.raises(ValueError):
            Fp_root(p, np.array([1.0, 2.0]))

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_mean_square_optimality(self, seed):
        rng = np.random.default_rng(seed)
        z = rng.standard_normal(50) * rng.uniform(0.5, 2) + rng.uniform(-2, 2)
        root = Fp_root(2, z)
        base = np.mean((z - root) ** 2)
        assert base <= np.mean((z - root - 0.1) ** 2) + 1e-12
        assert base <= np.mean((z - root + 0.1) ** 2) + 1e-12


class TestEta2:
    def test_deterministic(self):
        g = grid()
        f0 = Curve.from_function(g, lambda t: np.sin(t))
        e = eta2(dm.Deterministic(f0), THETA, g)
        expected = -THETA * apply_I(f0, THETA).values + f0.values
        np.testing.assert_allclose(e.values, expected, rtol=1e-12)

    def test_starts_at_mean_z_zero(self):
        g = grid()
        assert eta2(dm.SingleShot(2.0), THETA, g).values[0] == 0.0

    def test_matches_F2_derivative(self):
        # eta2 is the derivative of F2: check against central differences
        g = grid(T=1.0, dt=1e-3)
        for model in (dm.SingleShot(2.0), dm.OUDrift(2.0, 1.0, 1.0)):
            F = F2_analytic(model, THETA, g).F.values
            dF = np.gradient(F, g.dt, edge_order=2)
            assert np.max(np.abs(dF - eta2(model, THETA, g).values)) < 1e-4


class TestTransversality:
    def test_zero_at_mean(self):
        z = np.array([0.1, 0.5, -2.0, 1.1])
        assert transversality_residual(2, z, float(z.mean())) == pytest.approx(0.0, abs=1e-15)

    def test_zero_at_Fp_root(self):
        rng = np.random.default_rng(3)
        z = rng.exponential(1.0, 200)
        root = Fp_root(4, z)
        assert abs(transversality_residual(4, z, root)) < 1e-9

    def test_linear_shift(self):
        z = np.array([0.0, 2.0, 4.0])
        assert transversality_residual(2, z, z.mean() + 1.0) == pytest.approx(1.0, rel=1e-14)


class TestApproximantInvariants:
    def test_F_must_start_at_zero(self):
        g = grid()
        with pytest.raises(ValueError):
            Approximant(p=2, F=Curve(g, np.ones(g.n_nodes)), f=Curve(g, np.ones(g.n_nodes)), theta=THETA)

    def test_p_must_be_even(self):
        g = grid()
        zero = Curve(g, np.zeros(g.n_nodes))
        with pytest.raises(ValueError):
            Approximant(p=3, F=zero, f=zero, theta=THETA)
