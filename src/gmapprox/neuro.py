"""The embedded neuron's input layer: leaky integrate-and-fire neurons and their first passage.

The neuron of the paper's application is driven by M input neurons, each an
independent LIF diffusion whose first threshold crossing triggers an
exponentially decaying current. Its drift is therefore a shot noise
(:class:`drift.ShotNoise`) with a fixed count of M events, and the three
Table 2 rows differ only in the law of the event times: exponential, Gamma,
or the first passage of an LIF input (:class:`drift.SimulatedFiring`). Every
row goes through the drift ensembles, the one fit (:func:`approx.fit`) and
the table loop (:func:`costs.run_table`) that Table 1 uses.

An LIF input is an Ornstein-Uhlenbeck process with a constant threshold, so
its first-passage density g solves a second-kind Volterra equation whose
kernel vanishes on the diagonal (Buonocore, Nobile & Ricciardi 1987, Adv.
Appl. Prob. 19:784-800; Di Nardo, Nobile, Pirozzi & Ricciardi 2001, Adv.
Appl. Prob. 33:453-482). :func:`first_passage_law` solves it by the
trapezoid rule and tabulates the CDF: the exact law that the network row is
both sampled from (one uniform per input) and fitted on (its cumulants);
:func:`first_passage_time` is one draw from it.

Units are milliseconds and millivolts throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import drift as drift_mod
from .costs import CostReport, run_table
from .timebase import Curve, TimeGrid

__all__ = [
    "LIFNeuron",
    "CENSORED",
    "first_passage_time",
    "first_passage_law",
    "build_drift_from_network",
    "table2_models",
    "run_table2",
    "TABLE2_PARAMS",
]

CENSORED = math.inf  # distinguished outcome: no threshold crossing before the cap

# The cost horizon is five membrane time constants (T = 5/theta = 50 ms).
# A shorter horizon cannot produce the reference costs: for any error
# process, (int_0^T E e^2)^2 <= T int_0^T E e^4, and the reference pair
# (26.8471, 61.20081) forces T >= 11.8 ms; at 50 ms both the exponential
# and Gamma reference rows are reproduced to well within Monte Carlo noise.
TABLE2_PARAMS = {
    "theta": 0.1,  # ms^-1
    "sigma": 1.0,  # mV ms^-1/2
    "v0": 0.0,  # mV
    "response_rate": 1.0,  # ms^-1
    "firing_rate": 1.0 / 15.0,  # ms^-1
    "gamma_shape": 2.0,
    "M": 10,
    "beta_lo": 0.5,  # mV
    "beta_hi": 1.5,  # mV
    "mu_i": 6.0,  # mV ms^-1
    "sigma_i": 1.0,  # mV ms^-1/2
    "theta_i": 0.1,  # ms^-1
    "v0_i": 0.0,  # mV
    "v_th": 20.0,  # mV
    "T": 50.0,  # ms
    "dt": 1e-2,  # ms
    "horizon_cap": 100.0,  # ms
}

# Most steps a first-passage solve takes: a finer sim_dt grid is solved on
# cells of a whole number of its steps, so the solve costs at most
# _SOLVE_STEPS^2 / 2 multiply-adds and holds _SOLVE_STEPS + 1 CDF values.
_SOLVE_STEPS = 2**15
_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class LIFNeuron:
    """Leaky integrate-and-fire input neuron dV = (-theta_i V + mu_i) dt + sigma_i dW."""

    theta_i: float
    mu_i: float
    sigma_i: float
    v0_i: float
    v_th: float

    def __post_init__(self):
        if self.theta_i <= 0:
            raise ValueError(f"theta_i must be positive, got {self.theta_i}")
        if self.sigma_i < 0:
            raise ValueError(f"sigma_i must be nonnegative, got {self.sigma_i}")
        if not self.v_th > self.v0_i:
            raise ValueError("firing threshold must exceed the initial potential")


def first_passage_time(
    neuron: LIFNeuron, dt: float, horizon_cap: float, stream: np.random.Generator
) -> float:
    """One first threshold crossing of an LIF input: one draw from :func:`first_passage_law`.

    A noisy input reads one uniform from ``stream``, a noiseless one none;
    an input that does not cross by the cap gives CENSORED (= inf).
    """
    return float(first_passage_law(neuron, dt, horizon_cap).sample(stream, 1)[0])


def _cap_steps(dt: float, horizon_cap: float) -> int:
    """Steps of dt to the last node at or before horizon_cap (1e-9 steps of slack); ValueError below one."""
    steps = math.floor(horizon_cap / dt + 1e-9)
    if steps < 1:
        raise ValueError(f"horizon_cap = {horizon_cap} is below one step dt = {dt}")
    return steps


def first_passage_law(
    neuron: LIFNeuron, dt: float, horizon_cap: float
) -> drift_mod.PointMass | drift_mod.PiecewiseUniform:
    """The exact law of the first threshold crossing of one LIF input, up to horizon_cap.

    A noiseless input crosses at t* = ln((mu_i - theta_i v0_i) / (mu_i - theta_i v_th)) / theta_i,
    a point mass, or never (an infinite point mass) when mu_i / theta_i <= v_th
    or t* > horizon_cap. Otherwise the density g solves

        g(t) = -2 Psi(S, t | v0, 0) + 2 int_0^t g(tau) Psi(S, t | S, tau) dtau,
        Psi(S, t | y, tau) = f(S, t | y, tau) [(theta S - mu) / 2 - sigma^2 (S - m) / (2 v)],

    with S = v_th, f the OU transition density from y at tau, and m, v its
    mean and variance over t - tau. Psi(S, t | S, tau) vanishes as
    t - tau -> 0, and it depends on t - tau alone, so the trapezoid rule on
    the nodes t_n = n h is one sequential convolution,
    g_n = -2 Psi(S, t_n | v0, 0) + 2 h sum_{0<j<n} g_j Psi(S, t_n | S, t_j).
    The kernel is cut after its last lag above float64 resolution of its
    peak, and the solve stops once 1 - G is below float64 resolution.

    h is dt, or the smallest whole multiple of dt that reaches the last
    sim_dt node at or before horizon_cap in at most _SOLVE_STEPS steps, so
    the work is bounded for any dt, and no node lies past the cap. The CDF G
    at the nodes integrates max(g, 0) by the trapezoid rule, capped at 1; the
    law is linear in G between nodes, and the mass 1 - G beyond the last
    node never fires. A density that is not finite, as when sigma_i^2
    underflows, raises ArithmeticError.
    """
    if dt <= 0 or horizon_cap <= 0:
        raise ValueError("dt and horizon_cap must be positive")
    th, S = neuron.theta_i, neuron.v_th
    if neuron.sigma_i == 0:
        drive = neuron.mu_i - th * S  # the slope of v at the threshold
        t = math.log1p(th * (S - neuron.v0_i) / drive) / th if drive > 0 else math.inf
        return drift_mod.PointMass(t if t <= horizon_cap else math.inf)
    steps = _cap_steps(dt, horizon_cap)
    cells = math.ceil(steps / _SOLVE_STEPS)  # sim_dt steps per solve step
    n = steps // cells  # the last solve node lies at or before the cap
    h = cells * dt
    lags = h * np.arange(1, n + 1)
    with np.errstate(divide="ignore", invalid="ignore"):  # a variance that underflows: raised below
        free = -2.0 * _psi(neuron, neuron.v0_i, lags)
        kernel = 2.0 * h * _psi(neuron, S, lags)
    above = np.flatnonzero(np.abs(kernel) > _EPS * np.abs(kernel).max())
    width = int(above[-1]) + 1 if above.size else 0
    kernel = kernel[:width][::-1].copy()  # kernel[-d] weighs g_{n-d}
    g = np.zeros(n + 1)
    mass = 0.0
    for k in range(1, n + 1):
        lo = max(0, k - width)
        g[k] = free[k - 1] + np.dot(g[lo:k], kernel[width - (k - lo) :])
        mass += 0.5 * h * (g[k - 1] + g[k])
        if 1.0 - mass < _EPS:
            break
    if not np.all(np.isfinite(g)):
        raise ArithmeticError(f"the first-passage density of {neuron} is not finite at sim_dt = {dt}")
    np.maximum(g, 0.0, out=g)
    cdf = np.zeros(n + 1)
    np.cumsum(0.5 * h * (g[:k] + g[1 : k + 1]), out=cdf[1 : k + 1])
    cdf[k + 1 :] = cdf[k]  # flat after the last node solved
    np.minimum(cdf, 1.0, out=cdf)
    return drift_mod.PiecewiseUniform(h, cdf)


def _psi(neuron: LIFNeuron, y: float, lags: np.ndarray) -> np.ndarray:
    """Psi(S, t | y, tau) of :func:`first_passage_law` at the lags t - tau."""
    th, mu, s2, S = neuron.theta_i, neuron.mu_i, neuron.sigma_i**2, neuron.v_th
    m = y * np.exp(-th * lags) - (mu / th) * np.expm1(-th * lags)
    v = -s2 * np.expm1(-2.0 * th * lags) / (2.0 * th)
    d = S - m
    f = np.exp(-d * d / (2.0 * v)) / np.sqrt(2.0 * np.pi * v)
    return f * (0.5 * (th * S - mu) - s2 * d / (2.0 * v))


def build_drift_from_network(
    model: drift_mod.ShotNoise, theta: float, grid: TimeGrid, stream: np.random.Generator
) -> Curve:
    """One realization of Z for a network drift: a one-row block drawn from ``stream``.

    The same as :func:`drift.sample_Z_path`: the M firing times come first
    (one uniform per input through the first-passage law of a
    :class:`drift.SimulatedFiring` arrival; censored inputs never reach a
    node), then the amplitudes.
    """
    return drift_mod.sample_Z_path(model, theta, grid, stream)


def table2_models(params: dict = TABLE2_PARAMS) -> list[tuple[str, drift_mod.ShotNoise]]:
    """The three Table-2 scenarios as (label, shot noise) pairs; only the arrival law differs."""
    lif = LIFNeuron(
        theta_i=params["theta_i"],
        mu_i=params["mu_i"],
        sigma_i=params["sigma_i"],
        v0_i=params["v0_i"],
        v_th=params["v_th"],
    )
    arrivals = [
        ("exponential", drift_mod.Exponential(params["firing_rate"])),
        ("gamma", drift_mod.Gamma(rate=params["firing_rate"], shape=params["gamma_shape"])),
        ("simulated_network", drift_mod.SimulatedFiring(lif, params["dt"], params["horizon_cap"])),
    ]
    amplitude = drift_mod.Uniform(params["beta_lo"], params["beta_hi"])
    return [
        (
            label,
            drift_mod.ShotNoise(
                count=drift_mod.FixedCount(params["M"]),
                amplitude=amplitude,
                arrival=arrival,
                response_rate=params["response_rate"],
            ),
        )
        for label, arrival in arrivals
    ]


def run_table2(seed: int, n_paths: int = 10_000, threads: int = 1) -> CostReport:
    """The three-scenario embedded-neuron cost table (:func:`costs.run_table`).

    Every row has an exact law: exponential, Gamma, or the first-passage law
    of the LIF inputs (:func:`first_passage_law` at the table's dt), so F2
    is kappa_1 and F4 is fitted on the exact cumulants, the same bits for
    any seed, path count and thread count. Every row is evaluated on an
    ensemble keyed by child_seed(seed, row, 1); the network row samples the
    same law it was fitted on. The echo's ``censor_rate`` is the network
    row's exact censored share, 1 - G(horizon_cap) of its inputs' law
    (``ShotNoise.censored``); a law more than half censored raises
    :class:`drift.CensoringError`.
    """
    return run_table(table2_models(TABLE2_PARAMS), TABLE2_PARAMS, seed, n_paths, threads)
