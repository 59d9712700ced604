import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmapprox import approx as approx_mod
from gmapprox import drift as dm
from gmapprox import timebase
from gmapprox.bounds import d2_closed, d2_generic
from gmapprox.costs import per_path_cost_matrix
from gmapprox.timebase import (
    Curve,
    TimeGrid,
    block_stream,
    derive_stream,
    exp_weighted_values,
    stable_exp_diff,
)
from oracles import (
    convolution_oracle,
    event_kernel,
    exp_weighted_running_integral,
    matrix_blocks,
    stacked_chunks,
    z_path,
    z_path_ensemble,
)

THETA = 1.5


def grid(T=1.0, dt=1e-2):
    return TimeGrid.from_step(T, dt)


ALL_MODELS = [
    dm.SingleShot(rate=2.0),
    dm.Poisson(rate=2.0),
    dm.CompoundPoisson(rate=2.0, jump=dm.Exponential(2.0)),
    dm.ShotNoise(
        count=dm.FixedCount(10),
        amplitude=dm.Uniform(0.5, 1.5),
        arrival=dm.Exponential(1.0 / 15.0),
        response_rate=1.0,
    ),
    dm.BrownianDrift(trend=2.0),
    dm.OUDrift(rate=2.0, sigma_u=1.0, u0=1.0),
]


class TestDistributions:
    @pytest.mark.parametrize(
        "dist, mean, second",
        [
            (dm.Exponential(2.0), 0.5, 0.5),
            (dm.Gamma(rate=2.0, shape=3.0), 1.5, 3.0),
            (dm.Uniform(0.5, 1.5), 1.0, 1.0 + 1.0 / 12.0),
            (dm.PoissonCount(4.0), 4.0, 20.0),
            (dm.FixedCount(10), 10.0, 100.0),
            (dm.PointMass(0.5), 0.5, 0.25),
        ],
    )
    def test_moments(self, dist, mean, second):
        assert dist.raw_moment(1) == pytest.approx(mean)
        assert dist.raw_moment(2) == pytest.approx(second)

    def test_moments_match_sampling(self):
        stream = derive_stream(3, 0)
        for dist in (dm.Exponential(1.3), dm.Gamma(2.0, 1.7), dm.Uniform(-1, 2), dm.PoissonCount(3.0)):
            x = np.asarray(dist.sample(stream, 200_000), dtype=float)
            assert np.mean(x) == pytest.approx(dist.raw_moment(1), abs=5 * x.std() / np.sqrt(len(x)))
            m2 = np.mean(x**2)
            se2 = np.std(x**2) / np.sqrt(len(x))
            assert m2 == pytest.approx(dist.raw_moment(2), abs=5 * se2)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            dm.Exponential(0.0)
        with pytest.raises(ValueError):
            dm.Uniform(2.0, 1.0)
        with pytest.raises(ValueError):
            dm.FixedCount(0)
        with pytest.raises(ValueError, match="integer"):
            dm.FixedCount(2.5)

    def test_integral_fixed_count_is_an_int(self):
        count = dm.FixedCount(2.0)
        assert count.value == 2 and isinstance(count.value, int)
        assert count.raw_moment(3) == 8.0


class TestPairing:
    """A drift rate equal to theta, 2 theta or the response rate is an ordinary input."""

    @staticmethod
    def assert_mc_mean_is_F2(model, n=4_000):
        g = grid(T=1.0, dt=0.02)
        F2 = approx_mod.F2_analytic(model, THETA, g).F.values
        moments = dm.moments_Z_mc(model, THETA, g, n, master_seed=31)
        resid = np.abs(moments.m1.values - F2)
        assert np.all(resid[1:] <= 4 * np.maximum(moments.se1.values[1:], 1e-12))

    @staticmethod
    def assert_continuous(make, rate):
        # cumulants and d2 move by O(1e-7) under a 1e-7 change of the coinciding rate
        g = grid()
        at, near = make(rate), make(rate * (1 + 1e-7))
        for f in (dm.cumulant_curves, lambda m, th, g: d2_closed(m, th, g).d2.values[None]):
            a, b = f(at, THETA, g), f(near, THETA, g)
            assert np.all(np.max(np.abs(a - b), axis=1) <= 1e-6 * np.max(np.abs(a), axis=1))

    def test_single_shot_coincidences(self):
        g = grid(dt=1e-3)
        t = g.times()
        for rate in (THETA, 2 * THETA):
            z_acc = dm.sample_Z_path(dm.SingleShot(rate), THETA, g, derive_stream(17, 4)).values
            tau = derive_stream(17, 4).exponential(1.0 / rate)
            exact = np.where(t >= tau, -np.expm1(-THETA * np.maximum(t - tau, 0)) / THETA, 0.0)
            np.testing.assert_allclose(z_acc, exact, atol=1e-14)
            self.assert_mc_mean_is_F2(dm.SingleShot(rate))
            self.assert_continuous(dm.SingleShot, rate)

    def test_ou_coincidence(self):
        self.assert_mc_mean_is_F2(dm.OUDrift(THETA, 1.0, 1.0))
        self.assert_continuous(lambda rate: dm.OUDrift(rate, 1.0, 1.0), THETA)

    def test_shot_noise_response_coincidence(self):
        # the sampled Z is the quadrature of its own z path, as at any response rate
        g = grid(T=10.0, dt=1e-3)
        model = dm.ShotNoise(response_rate=THETA)
        z = z_path(model, g, derive_stream(23, 5))
        z_acc = dm.sample_Z_path(model, THETA, g, derive_stream(23, 5))
        quad = exp_weighted_running_integral(z, THETA)
        assert np.max(np.abs(z_acc.values - quad.values)) < 1e-3
        self.assert_mc_mean_is_F2(model)
        self.assert_continuous(lambda rate: dm.ShotNoise(response_rate=rate), THETA)

    def test_valid_pairings_pass(self):
        # every entry point that takes theta accepts THETA and refuses theta <= 0
        g = grid()
        entry_points = [
            lambda m, th: dm.sample_Z_path(m, th, g, derive_stream(0, 0)),
            lambda m, th: dm.cumulant_curves(m, th, g),
            lambda m, th: dm.iter_Z_chunks(m, th, g, 2, 0),
            lambda m, th: d2_generic(m, th, g),
            lambda m, th: d2_closed(m, th, g),
        ]
        for model in ALL_MODELS:
            for call in entry_points:
                call(model, THETA)
                for theta in (0.0, -THETA):
                    with pytest.raises(ValueError, match="theta must be positive"):
                        call(model, theta)


class TestZPaths:
    def test_deterministic_ignores_stream(self):
        g = grid()
        f = Curve.from_function(g, lambda t: np.sin(t))
        model = dm.Deterministic(f)
        a = dm.sample_Z_path(model, THETA, g, derive_stream(0, 0))
        b = dm.sample_Z_path(model, THETA, g, derive_stream(99, 1))
        acc = exp_weighted_values(f.values, g.dt, THETA)
        assert np.array_equal(a.values, acc)
        assert np.array_equal(b.values, acc)

    def test_poisson_ensemble_mean(self):
        # E[N(1)] = rate
        g = grid()
        ens = z_path_ensemble(dm.Poisson(2.0), g, 10_000, master_seed=21)
        end = ens.values[:, -1]
        se = end.std(ddof=1) / np.sqrt(len(end))
        assert end.mean() == pytest.approx(2.0, abs=4 * se)


class TestAccumulatedPaths:
    def test_zero_drift_zero_Z(self):
        g = grid()
        f = Curve(g, np.zeros(g.n_nodes))
        z_acc = dm.sample_Z_path(dm.Deterministic(f), THETA, g, derive_stream(0, 0))
        assert np.array_equal(z_acc.values, np.zeros(g.n_nodes))

    def test_single_shot_closed_form_value(self):
        # quadrature route through a deterministic step at tau = 0.5 matches
        # the closed form (1 - e^{-theta (t - tau)})/theta
        g = grid(dt=1e-3)
        t = g.times()
        step = Curve(g, (t >= 0.5).astype(float))
        z_acc = dm.sample_Z_path(dm.Deterministic(step), THETA, g, derive_stream(0, 0))
        assert z_acc.values[-1] == pytest.approx(0.3517556315059902, abs=1e-3)
        exact = np.where(t >= 0.5, -np.expm1(-THETA * np.maximum(t - 0.5, 0)) / THETA, 0.0)
        assert np.max(np.abs(z_acc.values - exact)) < 1.5e-3

    def test_single_shot_sampled_matches_kernel(self):
        g = grid(dt=1e-3)
        t = g.times()
        z_acc = dm.sample_Z_path(dm.SingleShot(2.0), THETA, g, derive_stream(17, 4)).values
        tau = derive_stream(17, 4).exponential(0.5)
        exact = np.where(t >= tau, -np.expm1(-THETA * np.maximum(t - tau, 0)) / THETA, 0.0)
        np.testing.assert_allclose(z_acc, exact, atol=1e-14)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_poisson_jump_sum_vs_quadrature(self, seed):
        # two independent constructions of the same realization
        g = grid(T=1.0, dt=1e-3)
        model = dm.Poisson(2.0)
        z = z_path(model, g, derive_stream(seed, 0))
        z_acc = dm.sample_Z_path(model, THETA, g, derive_stream(seed, 0))
        quad = exp_weighted_running_integral(z, THETA)
        assert np.max(np.abs(z_acc.values - quad.values)) < 1e-3

    def test_shot_noise_jump_sum_vs_quadrature(self):
        g = grid(T=10.0, dt=1e-3)
        model = dm.ShotNoise()
        z = z_path(model, g, derive_stream(23, 5))
        z_acc = dm.sample_Z_path(model, 0.1, g, derive_stream(23, 5))
        quad = exp_weighted_running_integral(z, 0.1)
        assert np.max(np.abs(z_acc.values - quad.values)) < 1e-3

    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: type(m).__name__)
    def test_mc_mean_matches_analytic_F2(self, model):
        g = grid(T=1.0, dt=0.02)
        n = 10_000
        F2 = approx_mod.F2_analytic(model, THETA, g).F.values
        moments = dm.moments_Z_mc(model, THETA, g, n, master_seed=31)
        resid = np.abs(moments.m1.values - F2)
        assert np.all(resid[1:] <= 4 * np.maximum(moments.se1.values[1:], 1e-12))


class TestAnalyticMoments:
    def test_mean_values(self):
        g = grid()
        assert dm.mean_z(dm.SingleShot(2.0), g).values[-1] == pytest.approx(0.8646647167633873)
        assert dm.mean_z(dm.Poisson(2.0), g).values[-1] == pytest.approx(2.0)
        assert dm.mean_z(dm.OUDrift(2.0, 1.0, 1.0), g).values[-1] == pytest.approx(
            0.1353352832366127
        )

    def test_variance_zero_at_origin(self):
        g = grid()
        for model in ALL_MODELS:
            assert dm.var_z(model, g).values[0] == 0.0

    def test_gaussian_variants_fix_the_fields_they_do_not_take(self):
        # one Gaussian family: Brownian is rate 0 plus a trend, OU has no trend; neither is the other
        b, ou = dm.BrownianDrift(2.0), dm.OUDrift(2.0, 1.0, 1.0)
        assert (b.rate, b.sigma_u, b.u0, b.trend) == (0.0, 1.0, 0.0, 2.0)
        assert ou.trend == 0.0
        assert not isinstance(b, dm.OUDrift) and not isinstance(ou, dm.BrownianDrift)
        with pytest.raises(TypeError):
            dm.BrownianDrift(trend=2.0, rate=1.0)
        with pytest.raises(TypeError):
            dm.OUDrift(2.0, trend=1.0)

    def test_brownian_variance_is_t(self):
        g = grid(T=2.0)
        assert dm.var_z(dm.BrownianDrift(2.0), g).values[-1] == pytest.approx(2.0)

    def test_ou_variance_saturates(self):
        g = grid(T=10.0, dt=0.01)
        v = dm.var_z(dm.OUDrift(2.0, 1.0, 1.0), g).values
        assert v[-1] == pytest.approx(0.25, rel=1e-8)

    def test_mean_variance_vs_sampling(self):
        g = grid(T=1.0, dt=0.05)
        for model in ALL_MODELS:
            ens = z_path_ensemble(model, g, 4000, master_seed=13)
            m = ens.values.mean(axis=0)
            se = ens.values.std(axis=0, ddof=1) / np.sqrt(ens.n_paths)
            resid = np.abs(m - dm.mean_z(model, g).values)
            assert np.all(resid <= 5 * np.maximum(se, 1e-12)), type(model).__name__

    def test_shot_noise_mean_matches_convolution(self):
        # E[z] = E[M] E[beta] (R * p_T), convolution evaluated independently
        g = grid(T=10.0, dt=1e-2)
        model = dm.ShotNoise()
        mz = dm.mean_z(model, g).values
        conv = convolution_oracle(model.arrival, model.response_rate, g).values
        scale = model.count.raw_moment(1) * model.amplitude.raw_moment(1)
        assert np.max(np.abs(mz - scale * conv)) < 1e-4 * max(1.0, np.max(np.abs(mz)))


class TestMomentCurves:
    def test_deterministic_moments_exact(self):
        g = grid()
        f = Curve.from_function(g, lambda t: 1 - np.exp(-2 * t))
        model = dm.Deterministic(f)
        mom = dm.moments_Z_mc(model, THETA, g, 16, master_seed=3)
        acc = dm.sample_Z_path(model, THETA, g, derive_stream(0, 0)).values
        np.testing.assert_allclose(mom.m1.values, acc, rtol=1e-12)
        np.testing.assert_allclose(mom.m2.values, acc**2, rtol=1e-12)
        np.testing.assert_allclose(mom.m3.values, acc**3, rtol=1e-12)
        # identical paths: se is pure accumulation roundoff
        assert np.all(mom.se1.values < 1e-8)

    def test_single_shot_m1_hits_closed_form(self):
        g = grid(T=1.0, dt=0.01)
        mom = dm.moments_Z_mc(dm.SingleShot(2.0), THETA, g, 10_000, master_seed=5)
        expected = 0.3423234727440792
        assert abs(mom.m1.values[-1] - expected) <= 4 * mom.se1.values[-1]

    def test_poisson_m1_matches_formula_pointwise(self):
        g = grid(T=1.0, dt=0.02)
        mom = dm.moments_Z_mc(dm.Poisson(2.0), THETA, g, 10_000, master_seed=6)
        t = g.times()
        expected = 2.0 * (t / THETA + np.expm1(-THETA * t) / THETA**2)
        resid = np.abs(mom.m1.values - expected)
        assert np.all(resid[1:] <= 4 * mom.se1.values[1:])

    def test_moment_consistency(self):
        g = grid(T=1.0, dt=0.05)
        for model in ALL_MODELS:
            mom = dm.moments_Z_mc(model, THETA, g, 500, master_seed=8)
            assert np.all(mom.m2.values - mom.m1.values**2 >= -1e-12)

    def test_rejects_single_path(self):
        with pytest.raises(ValueError):
            dm.moments_Z_mc(dm.Poisson(2.0), THETA, grid(), 1, master_seed=0)

    def test_identical_for_any_thread_count(self):
        # 600 paths at 20,001 nodes: two blocks, streamed as passes of four rows
        # by one thread and by two or four workers
        g = grid(T=2.0, dt=1e-4)
        assert timebase.slab_rows(g.n_nodes) == 4
        runs = [dm.moments_Z_mc(dm.Poisson(2.0), THETA, g, 600, 12, threads) for threads in (1, 2, 4)]
        for mom in runs[1:]:
            for name in ("m1", "var", "mu3", "se1"):
                assert np.array_equal(getattr(mom, name).values, getattr(runs[0], name).values), name


class TestEnsembles:
    def test_bit_identical_regeneration(self):
        # 1,100 paths: three blocks, so the threads share the work
        g = grid(T=1.0, dt=0.05)
        model = dm.CompoundPoisson(2.0, dm.Exponential(2.0))
        a = dm.Z_path_ensemble(model, THETA, g, 1100, master_seed=42, threads=1)
        b = dm.Z_path_ensemble(model, THETA, g, 1100, master_seed=42, threads=3)
        assert np.array_equal(a.values, b.values)

    def test_chunks_concatenate_to_ensemble(self):
        g = grid(T=1.0, dt=0.05)
        model = dm.OUDrift(2.0, 1.0, 1.0)
        full = dm.Z_path_ensemble(model, THETA, g, 100, master_seed=9).values
        _, parts = stacked_chunks(dm.iter_Z_chunks(model, THETA, g, 100, 9))
        assert np.array_equal(parts, full)

    # 20,001 nodes: a pass holds 4 rows
    @pytest.mark.parametrize(
        "model",
        [
            dm.Poisson(2.0),
            dm.CompoundPoisson(2.0, dm.Exponential(2.0)),
            dm.ShotNoise(arrival=dm.Gamma(rate=1.0, shape=2.0)),
        ],
        ids=lambda m: type(m).__name__,
    )
    def test_event_variants_reproducible(self, model):
        g = grid(T=2.0, dt=1e-4)
        n, seed = 40, 12
        full = dm.Z_path_ensemble(model, THETA, g, n, master_seed=seed).values
        _, parts = stacked_chunks(dm.iter_Z_chunks(model, THETA, g, n, seed))
        assert np.array_equal(parts, full)
        threaded = dm.Z_path_ensemble(model, THETA, g, n, master_seed=seed, threads=3).values
        assert np.array_equal(threaded, full)
        # the block's rows are the kernel of the block's draws, row by row
        times, weights, counts = model._draw_events(g, block_stream(seed, 0), n)
        edges = np.concatenate(([0], np.cumsum(counts)))
        for i in (0, 23, n - 1):
            events = [(times[edges[i] : edges[i + 1]], weights[edges[i] : edges[i + 1]])]
            row = event_kernel(events, getattr(model, "response_rate", 0.0), THETA, g)[0][0]
            assert np.array_equal(row, full[i])
        # a block of one row is sample_Z_path on the block's stream
        one = dm.Z_path_ensemble(model, THETA, g, 1, master_seed=seed).values[0]
        assert np.array_equal(dm.sample_Z_path(model, THETA, g, block_stream(seed, 0)).values, one)


BLOCK_MODELS = ALL_MODELS + [dm.Deterministic(Curve.from_function(grid(T=2.0, dt=0.05), np.sin))]


@pytest.mark.parametrize("model", BLOCK_MODELS, ids=lambda m: type(m).__name__)
def test_block_contract_reproducible(model):
    """Every variant: threads 1, 2, 4 agree, and the reducers read the materialized ensemble alike.

    1,025 paths make three blocks, the last holding one path, which is
    ``sample_Z_path`` on that block's stream. The materialized ensemble, in
    passes of 1, 17, 511, 512 and 513 rows (a pass ends with its block),
    gives the per-path costs of the streamed passes, and in the streamed
    passes also their moments.
    """
    g = grid(T=2.0, dt=0.05)
    n, seed = 1025, 7
    full = dm.Z_path_ensemble(model, THETA, g, n, master_seed=seed).values
    for threads in (2, 4):
        assert np.array_equal(dm.Z_path_ensemble(model, THETA, g, n, seed, threads=threads).values, full)
    # a chunk is one pass: slab_rows rows, counted from each block's start
    one_pass = timebase.slab_rows(g.n_nodes)
    for threads in (2, 4):
        starts, parts = stacked_chunks(dm.iter_Z_chunks(model, THETA, g, n, seed, threads=threads))
        assert starts == list(range(0, n, one_pass))
        assert np.array_equal(parts, full)
    curves = (np.zeros(g.n_nodes), np.linspace(0.0, 1.0, g.n_nodes))
    streamed = per_path_cost_matrix(dm.iter_Z_chunks(model, THETA, g, n, seed, threads=2), curves, g.dt, n)
    for size in (1, 17, 511, 512, 513):
        cut = per_path_cost_matrix(matrix_blocks(full, size), curves, g.dt, n)
        for a, b in zip(cut, streamed):
            assert np.array_equal(a, b), size
    mom = dm.moments_Z_mc(model, THETA, g, n, seed, threads=2)
    cut_mom = dm.moments_from_chunks(matrix_blocks(full), g, n)
    for name in ("m1", "var", "mu3", "se1"):
        assert np.array_equal(getattr(cut_mom, name).values, getattr(mom, name).values), name
    assert np.array_equal(dm.sample_Z_path(model, THETA, g, block_stream(seed, 2)).values, full[1024])
    # the rows of a partial block do not draw the block's missing rows
    if not isinstance(model, dm.Deterministic):
        assert not np.array_equal(full[1024], full[0]) and not np.array_equal(full[1024], full[512])


def test_poisson_is_compound_poisson_with_unit_jumps():
    """Poisson(r) and CompoundPoisson(r, PointMass(1)) give the same bits everywhere."""
    g = grid(T=2.0, dt=0.01)
    a, b = dm.Poisson(2.0), dm.CompoundPoisson(2.0, dm.PointMass(1.0))
    assert a.jump == dm.PointMass(1.0)
    with pytest.raises(TypeError):
        dm.Poisson(2.0, dm.Exponential(1.0))
    for threads in (1, 2):
        _, za = stacked_chunks(dm.iter_Z_chunks(a, THETA, g, 600, 7, threads))
        _, zb = stacked_chunks(dm.iter_Z_chunks(b, THETA, g, 600, 7, threads))
        assert np.array_equal(za, zb), threads
    assert np.array_equal(dm.cumulant_curves(a, THETA, g, 4), dm.cumulant_curves(b, THETA, g, 4))
    for curve in (dm.mean_z, dm.var_z):
        assert np.array_equal(curve(a, g).values, curve(b, g).values)
    assert np.array_equal(d2_closed(a, THETA, g).d2.values, d2_closed(b, THETA, g).d2.values)


def test_sampler_passes_stay_within_cell_budget(monkeypatch):
    """Every recurrence a sampler runs covers at most _KERNEL_CELLS cells, whatever the block."""
    sizes = []

    run = timebase.PoleRun.__call__

    def recording(self, x, out=None):
        sizes.append(x.size)
        return run(self, x, out)

    monkeypatch.setattr(timebase, "_KERNEL_CELLS", 4096)
    monkeypatch.setattr(timebase.PoleRun, "__call__", recording)
    g = grid(T=2.0, dt=1e-2)  # 201 nodes: 20 rows per pass
    for model in ALL_MODELS:
        sizes.clear()
        dm.Z_path_ensemble(model, THETA, g, 300, master_seed=2)
        assert max(sizes, default=0) <= 4096, type(model).__name__
        # the single shot is evaluated in place and runs no recurrence
        assert sizes or isinstance(model, dm.SingleShot)


# ---------------------------------------------------------------------------
# the batched event kernel against a dense O(events x nodes) oracle


def dense_oracle(times, weights, lam, theta, g):
    """Z and z summed event by event at every node, with K from stable_exp_diff."""
    u = g.times()[None, :] - np.asarray(times, dtype=float)[:, None]
    live = u >= 0
    u = np.maximum(u, 0.0)
    w = np.asarray(weights, dtype=float)[:, None]
    Z = np.sum(np.where(live, stable_exp_diff(lam, theta, u), 0.0) * w, axis=0)
    z = np.sum(np.where(live, np.exp(-lam * u), 0.0) * w, axis=0)
    return Z, z


def assert_matches_oracle(events, lam, theta, g, rtol=1e-12):
    Z, z = event_kernel(events, lam, theta, g)
    assert Z.shape == z.shape == (len(events), g.n_nodes)
    for r, (times, weights) in enumerate(events):
        Z_ref, z_ref = dense_oracle(times, weights, lam, theta, g)
        assert np.max(np.abs(Z[r] - Z_ref)) <= rtol * max(np.max(np.abs(Z_ref)), 1e-300)
        assert np.max(np.abs(z[r] - z_ref)) <= rtol * max(np.max(np.abs(z_ref)), 1e-300)


@st.composite
def event_case(draw, max_events=200, max_steps=2000):
    n_steps = draw(st.integers(2, max_steps))
    dt = draw(st.floats(1e-3, 0.1))
    g = TimeGrid(horizon_T=n_steps * dt, dt=dt, n_steps=n_steps)
    rows = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    events = []
    for _ in range(rows):
        k = draw(st.integers(0, max_events // rows))
        events.append((rng.uniform(0.0, g.horizon_T, k), rng.uniform(0.01, 10.0, k)))
    return g, events


class TestEventKernel:
    @given(
        case=event_case(),
        theta=st.floats(1e-2, 20.0),
        lam=st.one_of(st.just(0.0), st.floats(1e-2, 20.0)),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_dense_oracle(self, case, theta, lam):
        g, events = case
        assert_matches_oracle(events, lam, theta, g)

    @given(case=event_case(), lam=st.floats(1e-2, 20.0), sign=st.sampled_from([-1.0, 1.0]))
    @settings(max_examples=40, deadline=None)
    def test_near_coincident_rates(self, case, lam, sign):
        g, events = case
        assert_matches_oracle(events, lam, lam * (1.0 + sign * 1e-9), g)

    @given(
        theta_T=st.floats(1.0, 1e3),
        rate_T=st.floats(1.0, 1e5),
        n_steps=st.integers(2, 20_000),
        lam_T=st.one_of(st.just(0.0), st.floats(1.0, 1e5)),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=25, deadline=None)
    def test_long_horizons_and_high_rates_stay_finite(self, theta_T, rate_T, n_steps, lam_T, seed):
        T = 10.0
        g = TimeGrid(horizon_T=T, dt=T / n_steps, n_steps=n_steps)
        theta, lam = theta_T / T, lam_T / T
        rng = np.random.default_rng(seed)
        k = rng.poisson(rate_T)
        times, weights = rng.uniform(0.0, T, k), rng.exponential(1.0, k)
        Z, z = event_kernel([(times, weights)], lam, theta, g)
        assert np.all(np.isfinite(Z)) and np.all(np.isfinite(z))
        # the dense oracle at a few nodes only: O(events) each
        t = g.times()
        for node in (1, n_steps // 2, n_steps):
            u = t[node] - times
            live = u >= 0
            Z_ref = np.sum(weights[live] * stable_exp_diff(lam, theta, u[live]))
            z_ref = np.sum(weights[live] * np.exp(-lam * u[live]))
            scale = np.sum(weights) / min(theta, 1.0)
            assert abs(Z[0, node] - Z_ref) <= 1e-10 * scale
            assert abs(z[0, node] - z_ref) <= 1e-10 * np.sum(weights)

    @pytest.mark.parametrize("lam", [0.0, 0.7])
    def test_edge_cases(self, lam):
        # one-step-short horizon: t[-1] = 1.0 < T, so (t[-1], T] is not empty
        g = TimeGrid(horizon_T=1.0 + 1e-12, dt=0.1, n_steps=10)
        t = g.times()
        assert t[-1] < g.horizon_T
        events = [
            (np.empty(0), np.empty(0)),  # no events at all
            (t[[0, 3, 10]], np.array([1.0, 2.0, 3.0])),  # exactly on nodes, one at t = 0
            (np.array([0.35, g.horizon_T, np.inf]), np.array([1.0, 5.0, 7.0])),  # after t[-1]
        ]
        Z, z = event_kernel(events, lam, THETA, g)
        assert Z.dtype == z.dtype == np.float64
        assert np.array_equal(Z[0], np.zeros(g.n_nodes))
        assert np.array_equal(z[0], np.zeros(g.n_nodes))
        # an event at t = 0 contributes to z but not to Z at t = 0
        assert z[1, 0] == 1.0 and Z[1, 0] == 0.0
        assert_matches_oracle(events[:2] + [(events[2][0][:2], events[2][1][:2])], lam, THETA, g)
        assert np.array_equal(Z[2], event_kernel([events[2]], lam, THETA, g)[0][0])

    def test_no_event_before_T_in_any_row(self):
        g = grid(T=1.0, dt=1e-2)
        events = [(np.array([2.0, 3.0]), np.array([1.0, 1.0]))] * 3
        Z, z = event_kernel(events, 1.0, THETA, g)
        assert Z.dtype == np.float64
        assert not Z.any() and not z.any()
