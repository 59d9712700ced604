import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.special as sps
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from gmapprox import drift as dm
from gmapprox import cli, neuro, timebase
from gmapprox.approx import Approximant, F2_analytic, fit
from gmapprox.bounds import d2_closed, d2_generic
from gmapprox.costs import cost_block, per_path_cost_matrix
from gmapprox.neuro import (
    TABLE2_PARAMS,
    LIFNeuron,
    build_drift_from_network,
    first_passage_time,
    run_table2,
    table2_models,
)
from gmapprox.response import response_moment_curves, response_power_means
from gmapprox.sde import apply_I
from gmapprox.timebase import Curve, TimeGrid, derive_stream, stable_exp_diff
from oracles import (
    bridge_first_passages,
    convolution_oracle,
    convolve_response,
    event_kernel,
    exp_weighted_running_integral,
    gamma_pdf,
    matrix_blocks,
    stacked_chunks,
    stepwise_first_passage_law,
    traced_peak,
    z_path,
    z_path_ensemble,
)

TABLE2_LIF = LIFNeuron(theta_i=0.1, mu_i=6.0, sigma_i=1.0, v0_i=0.0, v_th=20.0)


def network(arrival, M=10, lam=1.0, amplitude=dm.Uniform(0.5, 1.5)):
    """The embedded neuron's drift: M inputs firing at i.i.d. times drawn from ``arrival``."""
    return dm.ShotNoise(count=dm.FixedCount(M), amplitude=amplitude, arrival=arrival, response_rate=lam)


def v2_exponential(model: dm.ShotNoise, theta: float, grid: TimeGrid) -> Approximant:
    """Closed-form mean-square approximant for exponential firing times (oracle).

    F2(t) = M E[beta] nu/(nu - lam) [ (e^{-lam t} - e^{-theta t})/(theta - lam)
                                      - (e^{-nu t} - e^{-theta t})/(theta - nu) ].
    """
    nu = model.arrival.rate
    lam, th = model.response_rate, theta
    t = grid.times()
    scale = model.count.value * model.amplitude.raw_moment(1)
    F = scale * nu / (nu - lam) * (stable_exp_diff(lam, th, t) - stable_exp_diff(nu, th, t))
    phi, _ = response_moment_curves(model.arrival, lam, grid)
    return Approximant(p=2, F=Curve(grid, F), f=Curve(grid, scale * phi.values), theta=th)


def lower_incomplete_gamma(alpha, x):
    """g(alpha, x) = int_0^x s^{alpha-1} e^{-s} ds from scipy's regularized gammainc."""
    return float(sps.gammainc(alpha, x) * sps.gamma(alpha))


def grid(T=10.0, dt=1e-2):
    return TimeGrid.from_step(T, dt)


class TestFirstPassage:
    def test_deterministic_crossing(self):
        # noiseless crossing solves v_th = (mu/theta)(1 - e^{-theta t})
        neuron = LIFNeuron(theta_i=0.1, mu_i=6.0, sigma_i=0.0, v0_i=0.0, v_th=20.0)
        dt = 1e-2
        t = first_passage_time(neuron, dt, 100.0, derive_stream(0, 0))
        assert abs(t - 4.054651081081644) <= 2 * dt

    def test_subthreshold_censored(self):
        # asymptote mu/theta = 15 below the threshold 20
        neuron = LIFNeuron(theta_i=0.1, mu_i=1.5, sigma_i=0.0, v0_i=0.0, v_th=20.0)
        assert first_passage_time(neuron, 1e-2, 50.0, derive_stream(0, 0)) == math.inf

    def test_noisy_crossings_sane(self):
        # the solve's mass deficit, 1.6e-5 at this step, is censored: as often as the law says
        law = neuro.first_passage_law(TABLE2_LIF, 1e-2, 100.0)
        times = law.sample(derive_stream(12, 0), 10_000)
        det = 4.054651081081644
        assert np.isinf(times).mean() <= law.censored + 4 * math.sqrt(law.censored / times.size)
        times = times[np.isfinite(times)]
        assert times.max() < 10 * det
        assert abs(times.mean() - det) < 0.25 * det

    def test_reproducible(self):
        a = first_passage_time(TABLE2_LIF, 1e-2, 100.0, derive_stream(3, 9))
        b = first_passage_time(TABLE2_LIF, 1e-2, 100.0, derive_stream(3, 9))
        assert a == b

    def test_validates_threshold(self):
        with pytest.raises(ValueError):
            LIFNeuron(theta_i=0.1, mu_i=6.0, sigma_i=1.0, v0_i=5.0, v_th=5.0)


def inverse_cdf(law, u):
    """Oracle: the time at which a law's CDF, linear between its nodes, reaches u; inf past its last node."""
    cdf = law.cdf.tolist()
    for k in range(1, len(cdf)):
        if u < cdf[k]:
            return (k - 1 + (u - cdf[k - 1]) / (cdf[k] - cdf[k - 1])) * law.dt
    return math.inf


class TestBatchedFirstPassage:
    """first_passage_time is one draw from the exact law; the law's draws in a batch."""

    @settings(max_examples=40, deadline=None)
    @given(
        theta_i=st.floats(0.01, 1.0),
        mu_i=st.floats(0.0, 20.0),
        sigma_i=st.one_of(st.just(0.0), st.floats(0.1, 4.0)),
        v_th=st.floats(1.0, 40.0),
        cap=st.floats(0.05, 30.0),
        dt=st.sampled_from([1e-2, 0.05]),
        seed=st.integers(0, 2**32),
    )
    def test_matches_scalar_oracle(self, theta_i, mu_i, sigma_i, v_th, cap, dt, seed):
        # a noisy input reads one uniform and inverts the CDF; a noiseless one reads none
        neuron = LIFNeuron(theta_i=theta_i, mu_i=mu_i, sigma_i=sigma_i, v0_i=0.0, v_th=v_th)
        got = first_passage_time(neuron, dt, cap, derive_stream(seed, 0))
        law = neuro.first_passage_law(neuron, dt, cap)
        if sigma_i == 0:
            assert got == law.value
        else:
            assert got == pytest.approx(inverse_cdf(law, derive_stream(seed, 0).random()), rel=1e-14)

    def test_noiseless_subthreshold_batch_censored(self):
        neuron = LIFNeuron(theta_i=0.1, mu_i=1.5, sigma_i=0.0, v0_i=0.0, v_th=20.0)
        law = neuro.first_passage_law(neuron, 1e-2, 37.3)
        assert np.array_equal(law.sample(derive_stream(0, 0), 4), np.full(4, math.inf))
        assert first_passage_time(neuron, 1e-2, 37.3, derive_stream(0, 0)) == math.inf

    @pytest.mark.parametrize("n", [1, 7, 300])
    @pytest.mark.parametrize("block", [1, 3, 2048])
    def test_independent_of_batch_and_block(self, n, block):
        """n draws from one stream are the same bits however they are cut into calls of ``block``.

        A 4.5 ms cap censors some inputs; a single draw is first_passage_time's.
        """
        law = neuro.first_passage_law(TABLE2_LIF, 1e-2, 4.5)
        ref = law.sample(derive_stream(4, 0), n)
        stream = derive_stream(4, 0)
        got = np.concatenate([law.sample(stream, min(block, n - lo)) for lo in range(0, n, block)])
        assert np.array_equal(got, ref)
        if n == 300:
            assert np.isinf(ref).any() and np.isfinite(ref).any()
        if n == 1:
            assert np.array_equal(ref, [first_passage_time(TABLE2_LIF, 1e-2, 4.5, derive_stream(4, 0))])

    def test_one_element_call(self):
        law = neuro.first_passage_law(TABLE2_LIF, 1e-2, 100.0)
        ref = [inverse_cdf(law, derive_stream(6, i).random()) for i in range(20)]
        got = [first_passage_time(TABLE2_LIF, 1e-2, 100.0, derive_stream(6, i)) for i in range(20)]
        np.testing.assert_allclose(got, ref, rtol=1e-14)

    def test_rejects_nonpositive_step(self):
        with pytest.raises(ValueError):
            first_passage_time(TABLE2_LIF, 0.0, 10.0, derive_stream(0, 0))
        with pytest.raises(ValueError):
            first_passage_time(TABLE2_LIF, 1e-2, 0.0, derive_stream(0, 0))

    def test_no_crossing_past_the_cap(self):
        # 2.47 / 0.01 is 247.00000000000003: the law ends at the cap's node, not one step past it
        neuron = LIFNeuron(theta_i=0.1, mu_i=9.0, sigma_i=1.0, v0_i=0.0, v_th=20.0)
        fired = neuro.first_passage_law(neuron, 1e-2, 2.47).sample(derive_stream(7, 0), 20_000)
        fired = fired[np.isfinite(fired)]
        assert fired.max() <= 2.47
        assert (fired > 2.46).any()  # the last step before the cap still fires

    def test_no_time_past_a_cap_between_nodes(self):
        # 2.475 lies between the nodes 2.47 and 2.48: the law ends at 2.47
        neuron = LIFNeuron(theta_i=0.1, mu_i=9.0, sigma_i=1.0, v0_i=0.0, v_th=20.0)
        law = neuro.first_passage_law(neuron, 1e-2, 2.475)
        assert (law.cdf.size - 1) * law.dt == pytest.approx(2.47, rel=1e-12)
        fired = law.sample(derive_stream(7, 1), 200_000)
        fired = fired[np.isfinite(fired)]
        assert fired.max() <= 2.475
        assert (fired > 2.46).any()  # the last step before the cap still fires

    def test_rejects_a_cap_below_one_step(self):
        with pytest.raises(ValueError, match="below one step"):
            first_passage_time(TABLE2_LIF, 1e-2, 0.005, derive_stream(0, 0))
        with pytest.raises(ValueError, match="below one step"):
            neuro.first_passage_law(TABLE2_LIF, 1e-2, 0.005)
        with pytest.raises(ValueError, match="below one step"):
            dm.SimulatedFiring(TABLE2_LIF, sim_dt=1e-2, horizon_cap=0.005)
        # one step is enough
        assert neuro.first_passage_law(TABLE2_LIF, 1e-2, 0.01).cdf.size == 2


def law_quantiles(law, probs):
    """Quantiles of a PiecewiseUniform law: its CDF is linear between the nodes."""
    return np.interp(probs, law.cdf, np.arange(law.cdf.size) * law.dt)


class TestFirstPassageLaw:
    def test_noiseless_crossing_is_a_point_mass(self):
        neuron = LIFNeuron(theta_i=0.1, mu_i=6.0, sigma_i=0.0, v0_i=0.0, v_th=20.0)
        law = neuro.first_passage_law(neuron, 1e-2, 100.0)
        assert law == dm.PointMass(math.log(6.0 / 4.0) / 0.1)
        assert np.all(dm.SimulatedFiring(neuron).sample(derive_stream(0, 0), 5) == law.value)
        # the fit reads the point mass
        g = grid(T=10.0)
        F2, _ = fit(network(dm.SimulatedFiring(neuron)), 0.1, g)
        F2_point, _ = fit(network(law), 0.1, g)
        assert np.array_equal(F2.F.values, F2_point.F.values)

    @pytest.mark.parametrize("mu_i, cap", [(2.0, 100.0), (1.0, 100.0), (6.0, 4.0)])
    def test_noiseless_input_that_never_fires_is_censored(self, mu_i, cap):
        # mu / theta = 20 sits on the threshold, 10 below it; t* = 4.05 lies past a 4 ms cap
        neuron = LIFNeuron(theta_i=0.1, mu_i=mu_i, sigma_i=0.0, v0_i=0.0, v_th=20.0)
        arrival = dm.SimulatedFiring(neuron, horizon_cap=cap)
        assert arrival.law == dm.PointMass(math.inf)
        assert arrival.censored == 1.0
        assert np.all(np.isinf(arrival.sample(derive_stream(0, 0), 4)))
        with pytest.raises(dm.CensoringError):
            fit(network(arrival), 0.1, grid(T=2.0))

    def test_subthreshold_noisy_input_raises_censoring(self):
        # mu / theta = 15 below the threshold 20: most inputs never fire within 50 ms
        neuron = LIFNeuron(theta_i=0.1, mu_i=1.5, sigma_i=1.0, v0_i=0.0, v_th=20.0)
        arrival = dm.SimulatedFiring(neuron, horizon_cap=50.0)
        assert arrival.censored > 0.5
        with pytest.raises(dm.CensoringError):
            fit(network(arrival), 0.1, grid(T=2.0))
        with pytest.raises(dm.CensoringError):
            cost_block(network(arrival), 0.1, grid(T=2.0), 3, eval_seed=1)

    def test_fit_needs_the_law_on_the_grid_step(self):
        arrival = dm.SimulatedFiring(TABLE2_LIF, sim_dt=1e-2)
        with pytest.raises(ValueError, match="sim_dt"):
            fit(network(arrival), 0.1, grid(T=10.0, dt=2e-2))
        assert "law" not in vars(arrival)  # rejected before the solve

    def test_solved_once_per_instance_and_never_by_parsing(self, monkeypatch):
        calls = []
        solve = neuro.first_passage_law
        monkeypatch.setattr(neuro, "first_passage_law", lambda *a: calls.append(a) or solve(*a))
        _, kind, model = cli.parse_neuron({})  # the default scenario: the simulated network
        assert kind == "simulated_network" and calls == []
        fit(model, TABLE2_PARAMS["theta"], grid(T=5.0))
        stacked_chunks(dm.iter_Z_chunks(model, TABLE2_PARAMS["theta"], grid(T=5.0), 20, 3))
        assert calls == [(TABLE2_LIF, 1e-2, 100.0)]

    def test_cdf_converges_in_the_step(self):
        coarse = neuro.first_passage_law(TABLE2_LIF, 1e-2, 100.0)
        fine = neuro.first_passage_law(TABLE2_LIF, 5e-3, 100.0)
        assert np.max(np.abs(coarse.cdf - fine.cdf[::2])) <= 1e-4
        assert 1.0 - coarse.cdf[-1] < 1e-4 and np.all(np.diff(coarse.cdf) >= 0)

    def test_matches_bridge_simulation(self):
        """Mean and nine deciles within 3 SE of 5e4 exact-transition + bridge first passages.

        The law's mean and quantiles are exact, so the SE is the sample's;
        a quantile's SE comes from the order statistics p +- sqrt(p (1 - p) / n).
        """
        n = 50_000
        law = neuro.first_passage_law(TABLE2_LIF, 1e-2, 100.0)
        ref = bridge_first_passages(TABLE2_LIF, 1e-2, 100.0, n, np.random.default_rng(2))
        assert np.all(np.isfinite(ref))
        t = np.arange(law.cdf.size) * law.dt
        mean = np.sum(np.diff(law.cdf) * 0.5 * (t[1:] + t[:-1])) / law.cdf[-1]
        assert abs(mean - ref.mean()) <= 3 * ref.std(ddof=1) / math.sqrt(n)
        for p in np.arange(1, 10) / 10:
            h = math.sqrt(p * (1 - p) / n)
            se_q = 0.5 * (np.quantile(ref, p + h) - np.quantile(ref, p - h))
            diff = law_quantiles(law, p * law.cdf[-1]) - np.quantile(ref, p)
            assert abs(diff) <= 3 * se_q, (p, diff, se_q)

    def test_solve_is_bounded_at_the_finest_admitted_step(self):
        # 5e7 sim_dt steps to the cap: the solve takes whole multiples of sim_dt
        law = neuro.first_passage_law(TABLE2_LIF, 100.0 / 5e7, 100.0)
        cells = round(law.dt / 2e-6)
        assert law.cdf.size <= neuro._SOLVE_STEPS + 1 and cells * 2e-6 == pytest.approx(law.dt, rel=1e-12)
        ref = neuro.first_passage_law(TABLE2_LIF, 1e-2, 100.0)
        probs = np.arange(1, 10) / 10
        np.testing.assert_allclose(law_quantiles(law, probs), law_quantiles(ref, probs), atol=1e-3)

    def test_coarse_solve_ends_at_or_before_the_cap(self):
        # 32,769 steps of 1e-3: cells of two steps, and the last solve node is 32.768, not 32.77
        law = neuro.first_passage_law(TABLE2_LIF, 1e-3, 32.769)
        assert law.dt == pytest.approx(2e-3, rel=1e-12)
        assert (law.cdf.size - 1) * law.dt == pytest.approx(32.768, rel=1e-12)

    def test_coarse_cells_are_the_solve_at_their_width(self, monkeypatch):
        monkeypatch.setattr(neuro, "_SOLVE_STEPS", 1000)
        law = neuro.first_passage_law(TABLE2_LIF, 1e-2, 100.0)
        assert law.dt == 10 * 1e-2 and law.cdf.size == 1001
        assert np.array_equal(law.cdf, neuro.first_passage_law(TABLE2_LIF, 10 * 1e-2, 100.0).cdf)
        # and the fit spreads each coarse cell's mass evenly over the grid's ten steps
        g = grid(T=20.0)
        ref = response_power_means(law, 1.0, 0.1, TimeGrid.from_step(20.0, law.dt), 4)
        got = response_power_means(dm.SimulatedFiring(TABLE2_LIF), 1.0, 0.1, g, 4)
        np.testing.assert_allclose(got[:, ::10], ref, rtol=1e-9, atol=0)

    def test_stops_once_the_mass_is_spent(self, monkeypatch):
        # with a resolution of 1e-3 the solve stops once G > 1 - 1e-3, about 6 ms in: G is flat after it
        monkeypatch.setattr(neuro, "_EPS", 1e-3)
        law = neuro.first_passage_law(TABLE2_LIF, 1e-2, 100.0)
        last = np.flatnonzero(np.diff(law.cdf))[-1] + 1
        assert law.cdf[last] > 1 - 1e-3 > law.cdf[last - 1]
        assert last * law.dt < 10.0 and np.all(law.cdf[last:] == law.cdf[last])

    def test_kernel_cut_changes_nothing(self, monkeypatch):
        # the cut keeps 496 of the 1e4 lags at Table 2's input; the full kernel gives the same CDF
        cut = neuro.first_passage_law(TABLE2_LIF, 1e-2, 100.0)
        monkeypatch.setattr(neuro, "_EPS", 0.0)
        full = neuro.first_passage_law(TABLE2_LIF, 1e-2, 100.0)
        np.testing.assert_allclose(cut.cdf, full.cdf, rtol=1e-14, atol=0)

    @pytest.mark.parametrize(
        "neuron, dt, cap, eps",
        [
            (TABLE2_LIF, 1e-2, 100.0, None),
            (TABLE2_LIF, 5e-3, 100.0, None),
            (replace(TABLE2_LIF, sigma_i=0.01), 1e-2, 100.0, None),
            (replace(TABLE2_LIF, sigma_i=0.1), 1e-2, 100.0, None),
            (replace(TABLE2_LIF, sigma_i=3.0), 1e-2, 100.0, None),  # the widest kernel
            (replace(TABLE2_LIF, mu_i=2.5, sigma_i=0.5), 1e-2, 100.0, None),
            (replace(TABLE2_LIF, mu_i=9.0), 1e-2, 2.475, None),  # 247 nodes: shorter than one block
            (TABLE2_LIF, 1e-2, 0.01, None),  # a single node
            (TABLE2_LIF, 100.0 / 5e7, 100.0, None),  # the finest admitted step: 32,765 nodes
            (TABLE2_LIF, 1e-2, 100.0, 0.0),  # no kernel cut: every lag of every node
            (TABLE2_LIF, 1e-2, 100.0, 1e-3),  # the mass is spent in the middle of a block
        ],
        ids=["table2", "table2_h5e-3", "sigma_i0.01", "sigma_i0.1", "sigma_i3", "mu_i2.5",
             "mu_i9_cap2.475", "one_node", "finest_step", "eps0", "eps1e-3"],
    )
    def test_blocked_solve_matches_the_stepwise_reference(self, monkeypatch, neuron, dt, cap, eps):
        if eps is not None:
            monkeypatch.setattr(neuro, "_EPS", eps)
        got = neuro.first_passage_law(neuron, dt, cap)
        ref = stepwise_first_passage_law(neuron, dt, cap)
        assert got.dt == ref.dt and got.cdf.size == ref.cdf.size
        assert np.max(np.abs(got.cdf - ref.cdf)) <= 1e-14
        last_rise = lambda cdf: np.flatnonzero(np.diff(cdf)).max(initial=-1) + 1
        assert last_rise(got.cdf) == last_rise(ref.cdf)

    def test_blocked_solve_holds_no_history_matrix(self, monkeypatch):
        """At _EPS = 0 the kernel keeps all 1e4 lags of Table 2's input, so a history
        matrix of 128 nodes by 1e4 lags would take 10 MiB; the solve stays under 2 MiB."""
        monkeypatch.setattr(neuro, "_EPS", 0.0)
        assert traced_peak(lambda: neuro.first_passage_law(TABLE2_LIF, 1e-2, 100.0)) < 2 * 2**20

    def test_inverse_cdf_sampling(self):
        law = dm.PiecewiseUniform(0.5, [0.0, 0.0, 0.25, 0.25, 0.75])
        stream = derive_stream(4, 0)
        u = derive_stream(4, 0).random(6)
        got = law.sample(stream, 6)
        # cell (0.5, 1] holds u < 0.25, cell (1.5, 2] holds 0.25 <= u < 0.75, u >= 0.75 never fires
        want = np.where(u < 0.25, 0.5 + 0.5 * u / 0.25, 1.5 + 0.5 * (u - 0.25) / 0.5)
        want[u >= 0.75] = np.inf
        np.testing.assert_allclose(got, want, rtol=1e-15)
        assert law.censored == 0.25

    @pytest.mark.parametrize("cdf", [[0.0, np.nan, 0.5], [0.0, 0.5, 0.25], [0.0, 1.5]])
    def test_rejects_a_cdf_that_is_no_cdf(self, cdf):
        with pytest.raises(ValueError, match="finite, nondecreasing and at most 1"):
            dm.PiecewiseUniform(0.5, cdf)

    def test_cell_convolution_is_a_mixture_of_uniforms(self):
        law = dm.PiecewiseUniform(1.0, [0.0, 0.25, 0.25, 1.0])
        g = TimeGrid.from_step(8.0, 0.25)
        got = response_power_means(law, 1.0, 0.1, g, 4)
        want = sum(w * response_power_means(dm.Uniform(lo, lo + 1.0), 1.0, 0.1, g, 4)
                   for w, lo in ((0.25, 0.0), (0.75, 2.0)))
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-300)
        curves = lambda dist: np.array([c.values for c in response_moment_curves(dist, 1.0, g)])
        mix = 0.25 * curves(dm.Uniform(0.0, 1.0)) + 0.75 * curves(dm.Uniform(2.0, 3.0))
        np.testing.assert_allclose(curves(law), mix, rtol=1e-12)


class TestLowerIncompleteGamma:
    def test_alpha_one(self):
        assert lower_incomplete_gamma(1.0, 1.0) == pytest.approx(0.6321205588285577, rel=1e-12)

    def test_alpha_two(self):
        assert lower_incomplete_gamma(2.0, 1.0) == pytest.approx(0.26424111765711533, rel=1e-12)

    def test_zero_argument(self):
        for alpha in (0.3, 1.0, 4.7):
            assert lower_incomplete_gamma(alpha, 0.0) == 0.0

    def test_rejects_negative(self):
        # outside the domain scipy returns nan, never a number
        assert math.isnan(lower_incomplete_gamma(1.0, -0.5))
        assert math.isnan(lower_incomplete_gamma(-1.0, 0.5))

    @pytest.mark.parametrize("alpha", [0.3, 1.0, 2.5, 7.0, 20.0])
    def test_matches_scipy(self, alpha):
        xs = [1e-6, 0.1, 0.9, alpha, alpha + 1.5, 5 * alpha + 10]
        for x in xs:
            ref = sps.gammainc(alpha, x) * math.exp(math.lgamma(alpha))
            assert lower_incomplete_gamma(alpha, x) == pytest.approx(ref, rel=1e-10)


class TestPhiPsi:
    def test_start_at_zero(self):
        g = grid()
        for dist in (dm.Exponential(1 / 15), dm.Gamma(rate=1 / 15, shape=2.0)):
            phi, psi = response_moment_curves(dist, 1.0, g)
            assert phi.values[0] == 0.0
            assert psi.values[0] == 0.0

    def test_exponential_value(self):
        g = TimeGrid.from_step(1.0, 1e-2)
        phi, _ = response_moment_curves(dm.Exponential(1 / 15), 1.0, g)
        assert phi.values[-1] == pytest.approx(0.0405448245614411, rel=1e-12)

    def test_exponential_vs_convolution(self):
        g = grid(T=10.0, dt=1e-3)
        dist = dm.Exponential(1 / 15)
        phi, psi = response_moment_curves(dist, 1.0, g)
        conv_phi = convolution_oracle(dist, 1.0, g).values
        conv_psi = convolution_oracle(dist, 1.0, g, squared=True).values
        assert np.max(np.abs(phi.values - conv_phi)) < 1e-4
        assert np.max(np.abs(psi.values - conv_psi)) < 1e-4

    def test_gamma_closed_form_vs_convolution(self):
        # nu > 2 lam: both closed forms valid
        g = grid(T=5.0, dt=1e-3)
        dist = dm.Gamma(rate=3.0, shape=2.0)
        phi, psi = response_moment_curves(dist, 1.0, g)
        assert np.max(np.abs(phi.values - convolution_oracle(dist, 1.0, g).values)) < 1e-4
        assert np.max(np.abs(psi.values - convolution_oracle(dist, 1.0, g, squared=True).values)) < 1e-4

    def test_gamma_fallback_matches_elementary_formula(self):
        # at the embedded-neuron rates nu < lam, the convolution fallback must
        # match the shape-2 elementary continuation
        # phi(t) = (nu/(nu-lam))^2 e^{-lam t} (1 - e^{-x}(1+x)), x = (nu-lam) t
        g = grid(T=10.0, dt=1e-3)
        nu, lam = 1 / 15, 1.0
        phi, _ = response_moment_curves(dm.Gamma(rate=nu, shape=2.0), lam, g)
        t = g.times()
        x = (nu - lam) * t
        exact = (nu / (nu - lam)) ** 2 * np.exp(-lam * t) * (1 - np.exp(-x) * (1 + x))
        assert np.max(np.abs(phi.values - exact)) < 1e-4

    @pytest.mark.parametrize(
        "nu, shape", [(1 / 15, 2.0), (1.5, 2.0), (3.0, 2.0), (1 / 15, 0.7), (3.0, 0.7)]
    )
    def test_gamma_matches_quadrature(self, nu, shape):
        # firing rate below, between and above the decay rates lam and 2 lam
        lam = 1.0
        g = TimeGrid.from_step(50.0, 1e-2)
        phi, psi = response_moment_curves(dm.Gamma(rate=nu, shape=shape), lam, g)
        c = math.exp(shape * math.log(nu) - math.lgamma(shape))
        for k in list(range(11)) + [100, 1000, 2500, 5000]:
            t = g.times()[k]
            for curve, decay in ((phi, lam), (psi, 2 * lam)):
                if k == 0:
                    assert curve.values[0] == 0.0
                    continue
                # the s^(shape - 1) factor of the density as a quadrature weight
                ref, _ = quad(
                    lambda s: c * np.exp(-nu * s - decay * (t - s)), 0.0, t,
                    weight="alg", wvar=(shape - 1.0, 0.0), epsabs=0, epsrel=1e-13, limit=500,
                )
                assert curve.values[k] == pytest.approx(ref, rel=1e-10, abs=0), (k, decay)

    def test_rejects_unsupported(self):
        # a count law is no firing-time law, and a simulated input's cells must be the grid's
        with pytest.raises(ValueError):
            response_moment_curves(dm.PoissonCount(2.0), 1.0, grid())
        with pytest.raises(ValueError):
            response_moment_curves(dm.SimulatedFiring(TABLE2_LIF, sim_dt=2e-2), 1.0, grid())

    def test_rate_coincidences(self):
        # phi at nu = lam and psi at nu = 2 lam are chains of equal rates, nu t e^{-nu t};
        # the closed-form shot-noise d2 is a chain too, the d2 integral of D[z] at these arrival
        # rates within that integral's trapezoid error
        g = grid()
        t = g.times()
        fine = grid(T=2.0, dt=1e-3)
        for nu, pick in ((1.0, 0), (2.0, 1)):
            curve = response_moment_curves(dm.Exponential(nu), 1.0, g)[pick]
            np.testing.assert_allclose(curve.values, nu * t * np.exp(-nu * t), rtol=1e-12, atol=0)
            model = dm.ShotNoise(arrival=dm.Exponential(nu), response_rate=1.0)
            closed, gen = d2_closed(model, 1.5, fine).d2.values, d2_generic(model, 1.5, fine).d2.values
            assert np.max(np.abs(closed - gen)) <= 1e-5 * np.max(gen)


class TestUniformArrival:
    @pytest.mark.parametrize(
        "lo, hi, lam", [(0.0, 250.0, 1.0), (10.0, 12.0, 0.3), (5.0, 5.000001, 2.0), (0.0, 1.0, 1e-4)]
    )
    def test_matches_quadrature(self, lo, hi, lam):
        g = TimeGrid.from_step(300.0, 0.5)
        phi, psi = response_moment_curves(dm.Uniform(lo, hi), lam, g)
        for k in (0, 5, 20, 23, 24, 100, 500, 600):
            t = g.times()[k]
            for curve, decay in ((phi, lam), (psi, 2 * lam)):
                top = min(t, hi)
                if top <= lo:
                    assert curve.values[k] == 0.0
                    continue
                ref, _ = quad(lambda s: np.exp(-decay * (t - s)) / (hi - lo), lo, top, epsabs=0, epsrel=1e-13)
                assert curve.values[k] == pytest.approx(ref, rel=1e-10, abs=0)

    def test_shot_noise_mean_matches_sampling(self):
        g = grid(T=20.0, dt=0.1)
        sn = dm.ShotNoise(arrival=dm.Uniform(2.0, 12.0))
        mean = dm.mean_z(sn, g).values
        zs = z_path_ensemble(sn, g, 4000, 3).values
        se = zs.std(axis=0, ddof=1) / np.sqrt(len(zs))
        assert np.all(np.abs(zs.mean(axis=0) - mean) <= 4 * np.maximum(se, 1e-12))


def direct_convolution(decay, pdf, g):
    """Trapezoid convolution of e^{-decay u} with pdf by the O(n^2) direct sum."""
    t = g.times()
    r, p = np.exp(-decay * t), pdf(t)
    full = np.convolve(r, p)[: g.n_nodes]
    vals = g.dt * (full - 0.5 * r * p[0] - 0.5 * r[0] * p)
    vals[0] = 0.0
    return vals


class TestConvolveResponse:
    @pytest.mark.parametrize("dt", [1e-2, 1e-3])
    @pytest.mark.parametrize("decay", [1.0, 2.0, 40.0])
    @pytest.mark.parametrize("shape", [1.0, 2.0])
    def test_recurrence_matches_direct_sum(self, dt, decay, shape):
        g = TimeGrid.from_step(5.0, dt)
        pdf = gamma_pdf(1 / 15, shape)  # shape 1 has p(0) > 0, shape 2 has p(0) = 0
        got = convolve_response(decay, pdf, g).values
        np.testing.assert_allclose(got, direct_convolution(decay, pdf, g), rtol=1e-12, atol=0)


class TestBuildDriftFromNetwork:
    def test_point_event_closed_form(self):
        # single unit event at time zero: Z(1) = (e^{-lam} - e^{-theta})/(theta - lam)
        g = TimeGrid.from_step(1.0, 1e-2)
        model = network(dm.PointMass(0.0), M=1, amplitude=dm.PointMass(1.0))
        Z = build_drift_from_network(model, 1.5, g, derive_stream(0, 0))
        assert Z.values[-1] == pytest.approx(0.28949856204602503, rel=1e-12)
        assert model.censored == 0.0

    def test_zero_amplitude(self):
        g = grid()
        model = network(dm.Exponential(1 / 15), amplitude=dm.PointMass(0.0))
        Z = build_drift_from_network(model, 0.1, g, derive_stream(1, 1))
        assert np.array_equal(Z.values, np.zeros(g.n_nodes))

    def test_exponential_mean_drive_matches_phi(self):
        # ensemble mean of z equals M E[beta] phi
        g = grid(T=10.0, dt=0.1)
        model = network(dm.Exponential(1 / 15))
        zs = z_path_ensemble(model, g, 4000, 77).values
        mean = zs.mean(axis=0)
        se = zs.std(axis=0, ddof=1) / np.sqrt(len(zs))
        phi, _ = response_moment_curves(dm.Exponential(1 / 15), 1.0, g)
        expected = model.count.value * model.amplitude.raw_moment(1) * phi.values
        assert np.all(np.abs(mean - expected)[1:] <= 4 * np.maximum(se[1:], 1e-12))

    def test_simulated_firing_uses_per_neuron_streams(self):
        arrival = dm.SimulatedFiring(TABLE2_LIF, sim_dt=1e-2, horizon_cap=100.0)
        a = arrival.sample(derive_stream(5, 0), 10)
        b = arrival.sample(derive_stream(5, 0), 10)
        assert np.array_equal(a, b)
        assert len(np.unique(np.round(a, 12))) == 10

    def test_network_chunks_reproducible(self):
        # 1,025 trials: three blocks, the last holding one trial, and worker
        # threads produce whole blocks. A 5 ms cap censors some inputs: the
        # share 1 - G(cap) of their law
        g = grid(T=10.0, dt=0.1)
        arrival = dm.SimulatedFiring(TABLE2_LIF, sim_dt=1e-2, horizon_cap=5.0)
        model = network(arrival, M=2)
        runs = [stacked_chunks(dm.iter_Z_chunks(model, 0.1, g, 1025, 8, threads))[1] for threads in (1, 2, 4)]
        ref = runs[0]
        for Z in runs[1:]:
            assert np.array_equal(Z, ref)
        law = neuro.first_passage_law(TABLE2_LIF, 1e-2, 5.0)
        assert model.censored == 1.0 - law.cdf[-1]
        assert model.censored > 0
        # a block of one trial: the firing times, then the amplitudes, through the event kernel
        stream = derive_stream(8, 2)
        times = law.sample(stream, 2)
        weights = stream.uniform(0.5, 1.5, 2)
        Z, _ = event_kernel([(times, weights)], 1.0, 0.1, g)
        assert np.array_equal(Z[0], ref[1024])
        assert np.array_equal(build_drift_from_network(model, 0.1, g, derive_stream(8, 2)).values, ref[1024])
        _, one = stacked_chunks(dm.iter_Z_chunks(model, 0.1, g, 1, 8))
        assert np.array_equal(build_drift_from_network(model, 0.1, g, derive_stream(8, 0)).values, one[0])

    def test_network_moments_identical_for_any_thread_count(self):
        # 600 trials at 20,001 nodes: two blocks, streamed as passes of four rows
        # by one thread and by two or four workers
        g = grid(T=10.0, dt=5e-4)
        assert timebase.slab_rows(g.n_nodes) == 4
        model = network(dm.SimulatedFiring(TABLE2_LIF, sim_dt=1e-2, horizon_cap=5.0), M=2)
        runs = [dm.moments_Z_mc(model, 0.1, g, 600, 8, threads) for threads in (1, 2, 4)]
        for mom in runs[1:]:
            for name in ("m1", "var", "mu3", "se1"):
                assert np.array_equal(getattr(mom, name).values, getattr(runs[0], name).values), name

    def test_network_chunks_of_one_trial(self):
        # the network's ensemble in passes of one trial gives the per-path costs of its passes
        g = grid(T=10.0, dt=0.1)
        model = network(dm.SimulatedFiring(TABLE2_LIF, sim_dt=1e-2, horizon_cap=5.0), M=2)
        curves = (np.zeros(g.n_nodes), np.linspace(0.0, 1.0, g.n_nodes))
        ref = per_path_cost_matrix(dm.iter_Z_chunks(model, 0.1, g, 40, 3), curves, g.dt, 40)
        one = per_path_cost_matrix(matrix_blocks(dm.Z_path_ensemble(model, 0.1, g, 40, 3).values, 1), curves, g.dt, 40)
        for a, b in zip(one, ref):
            assert np.array_equal(a, b)

    def test_rejects_response_equal_theta(self):
        # accepted: a response rate equal to theta gives the quadrature of the drawn z path;
        # only theta <= 0 is refused
        g = grid(dt=1e-3)
        model = network(dm.Exponential(1 / 15))
        z_acc = build_drift_from_network(model, 1.0, g, derive_stream(0, 0))
        quad = exp_weighted_running_integral(z_path(model, g, derive_stream(0, 0)), 1.0)
        assert np.max(np.abs(z_acc.values - quad.values)) < 1e-3
        with pytest.raises(ValueError, match="theta must be positive"):
            build_drift_from_network(model, 0.0, g, derive_stream(0, 0))

    def test_mostly_censored_inputs_raise(self):
        # subthreshold noiseless inputs never fire: every event time is censored
        silent = LIFNeuron(theta_i=0.1, mu_i=1.0, sigma_i=0.0, v0_i=0.0, v_th=20.0)
        model = network(dm.SimulatedFiring(silent, sim_dt=1e-2, horizon_cap=5.0), M=2)
        with pytest.raises(dm.CensoringError):
            cost_block(model, 0.1, grid(T=2.0), 3, eval_seed=1)
        with pytest.raises(dm.CensoringError):
            dm.Z_path_ensemble(model, 0.1, grid(T=2.0), 3, 0)

    def test_mostly_censored_ensemble_is_refused_at_the_call(self):
        # the law refuses the ensemble before map() draws any block
        silent = LIFNeuron(theta_i=0.1, mu_i=1.0, sigma_i=0.0, v0_i=0.0, v_th=20.0)
        model = network(dm.SimulatedFiring(silent, sim_dt=1e-2, horizon_cap=5.0), M=2)
        with pytest.raises(dm.CensoringError, match="100.00% of the firing times are censored"):
            dm.iter_Z_chunks(model, 0.1, grid(T=2.0), 1100, 0, threads=2)


class TestV2Exponential:
    def test_zero_mean_amplitude(self):
        g = grid()
        appr = F2_analytic(network(dm.Exponential(1 / 15), amplitude=dm.PointMass(0.0)), 0.1, g)
        assert np.array_equal(appr.F.values, np.zeros(g.n_nodes))

    def test_closed_form_matches_quadrature(self):
        g = TimeGrid.from_step(10.0, 1e-3)
        appr = F2_analytic(network(dm.Exponential(1 / 15)), 0.1, g)
        quad = apply_I(appr.f, 0.1)
        assert abs(appr.F.values[-1] - quad.values[-1]) < 1e-5
        assert np.max(np.abs(appr.F.values - quad.values)) < 1e-5

    def test_matches_generic_F2(self):
        # kappa_1, the fit's F2, against the two-rate closed form
        g = grid()
        model = network(dm.Exponential(1 / 15))
        generic = F2_analytic(model, 0.1, g)
        appr = v2_exponential(model, 0.1, g)
        np.testing.assert_allclose(generic.F.values, appr.F.values, rtol=1e-10, atol=1e-14)
        np.testing.assert_allclose(generic.f.values, appr.f.values, rtol=1e-10, atol=1e-14)

    def test_d2_vanishes_at_infinity(self):
        # shot-noise d2 is integrable here: far tail below 1e-3 of the peak
        g = TimeGrid.from_step(200.0, 1e-2)
        sn = dm.ShotNoise()
        b = d2_closed(sn, 0.1, g)
        assert b.closed_form
        assert b.d2.values[-1] < 1e-3 * b.d2.values.max()


class TestRunTable2Smoke:
    def test_structure_and_determinism(self):
        a = run_table2(seed=19, n_paths=60)
        b = run_table2(seed=19, n_paths=60, threads=2)
        assert a.labels == ("exponential", "gamma", "simulated_network")
        assert a.values.shape == (3, 2, 2)
        assert np.array_equal(a.values, b.values)
        assert a.config_echo["censor_rate"] < 1e-3

    def test_echo_is_the_network_law_censored_share(self):
        # the echoed rate is the network row's exact 1 - G(cap), not a count of the drawn inputs
        echo = run_table2(seed=42, n_paths=2000).config_echo
        p = TABLE2_PARAMS
        lif = LIFNeuron(p["theta_i"], p["mu_i"], p["sigma_i"], p["v0_i"], p["v_th"])
        arrival = dm.SimulatedFiring(lif, sim_dt=p["dt"], horizon_cap=p["horizon_cap"])
        assert echo["censor_rate"] == arrival.censored
        assert arrival.censored > 0
        assert "censored_inputs" not in echo

    def test_rows_are_shot_noise_by_arrival_law(self):
        rows = table2_models(TABLE2_PARAMS)
        assert [label for label, _ in rows] == ["exponential", "gamma", "simulated_network"]
        arrivals = [type(model.arrival) for _, model in rows]
        assert arrivals == [dm.Exponential, dm.Gamma, dm.SimulatedFiring]
        assert all(model.count == dm.FixedCount(TABLE2_PARAMS["M"]) for _, model in rows)
