"""A neuron embedded in a feed-forward layer of leaky integrate-and-fire inputs.

Each of the M input neurons evolves as an independent LIF diffusion; its
first threshold crossing triggers an exponentially decaying current into the
embedded neuron, whose membrane potential therefore solves a linear SDE with
a shot-noise drift. The module provides the first-passage simulation, the
response moment curves phi and psi for exponential and Gamma firing-time
laws, the closed-form mean-square approximant for the exponential case, and
the three-scenario cost table (exponential, Gamma, fully simulated network).

Trials follow the block-stream contract of :mod:`timebase`: the trials of
block b (trials b*_BLOCK onward) draw every variate from
``block_stream(seed, b)``. All M x rows input neurons of a block run one
first-passage simulation on that stream, which advances them together
_FPT_BLOCK steps at a time and draws each step block's normals with one call
for every neuron still live; the amplitudes are drawn after the firing
times. The draws therefore depend on the block, its trial count and
_FPT_BLOCK, never on threads or on how a caller chunks the trials.

Units are milliseconds and millivolts throughout.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np
from scipy.signal import lfilter

from . import approx as approx_mod
from . import drift as drift_mod
from .costs import P_ORDERS, CostReport, per_path_cost_matrix
from .response import lower_incomplete_gamma, response_moment_curves
from .timebase import (
    _BLOCK,
    Curve,
    TimeGrid,
    block_stream,
    child_seed,
    fill_row_blocks,
    pass_rows,
    stable_exp_diff,
)

__all__ = [
    "LIFNeuron",
    "EmbeddedNeuronModel",
    "AnalyticFiring",
    "SimulatedFiring",
    "NetworkRealization",
    "CENSORED",
    "first_passage_time",
    "first_passage_times",
    "phi_psi",
    "lower_incomplete_gamma",
    "build_drift_from_network",
    "v2_exponential",
    "run_table2",
    "TABLE2_PARAMS",
]

log = logging.getLogger(__name__)

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

_FPT_BLOCK = 512  # steps per block of the batched first-passage recurrence


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


@dataclass(frozen=True)
class AnalyticFiring:
    """Firing times drawn directly from a given positive distribution."""

    dist: drift_mod.Distribution


@dataclass(frozen=True)
class SimulatedFiring:
    """Firing times from first-passage simulation of identical LIF inputs."""

    neuron: LIFNeuron
    sim_dt: float = 1e-2
    horizon_cap: float = 100.0

    def __post_init__(self):
        if self.sim_dt <= 0 or self.horizon_cap <= 0:
            raise ValueError("sim_dt and horizon_cap must be positive")


@dataclass(frozen=True)
class EmbeddedNeuronModel:
    """The embedded neuron: shot-noise drift from M input firings."""

    theta: float
    sigma: float
    v0: float
    response_rate: float
    amplitude: drift_mod.Distribution
    M: int
    firing: Union[AnalyticFiring, SimulatedFiring]

    def __post_init__(self):
        if self.theta <= 0:
            raise ValueError(f"theta must be positive, got {self.theta}")
        if self.M < 1 or not float(self.M).is_integer():
            raise ValueError(f"M must be an integer >= 1, got {self.M}")
        if abs(self.response_rate - self.theta) <= 1e-12 * max(self.response_rate, self.theta):
            raise drift_mod.PairingError(
                f"response rate {self.response_rate} must differ from theta {self.theta}"
            )


def first_passage_time(
    neuron: LIFNeuron, dt: float, horizon_cap: float, stream: np.random.Generator
) -> float:
    """First time the Euler-Maruyama LIF path reaches the firing threshold.

    A one-neuron call of :func:`first_passage_times`, which reads one normal
    per step from ``stream`` in order: the crossing time is interpolated
    linearly inside the crossing step, and CENSORED (= inf) is returned if no
    crossing occurs before horizon_cap.
    """
    return float(first_passage_times(neuron, dt, horizon_cap, 1, stream)[0])


def first_passage_times(
    neuron: LIFNeuron, dt: float, horizon_cap: float, n: int, stream: np.random.Generator
) -> np.ndarray:
    """First threshold crossing of n Euler-Maruyama LIF paths drawn from one stream.

    Each path follows v_k = a v_{k-1} + mu_i dt + sigma_i sqrt(dt) n_k with
    a = 1 - theta_i dt from v_0 = v0_i. The crossing time is interpolated
    linearly inside the crossing step; paths that do not cross before
    horizon_cap give CENSORED (= inf). Paths run in sub-batches of at most
    ``_KERNEL_CELLS // _FPT_BLOCK`` rows (at least one), one sub-batch after
    the other, _FPT_BLOCK steps at a time: each step block draws the normals
    of the sub-batch's live paths, in path order, with one
    ``standard_normal((live, steps))`` call. The working set is bounded
    whatever n, and a single path reads its stream exactly as a sequential
    per-step loop would.
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    n_total = int(math.ceil(horizon_cap / dt))
    out = np.full(n, CENSORED)
    rows = pass_rows(_FPT_BLOCK)
    for lo in range(0, n, rows):
        _first_passage_batch(neuron, dt, n_total, stream, out[lo : lo + rows])
    return out


def _first_passage_batch(neuron: LIFNeuron, dt: float, n_total: int, stream, out) -> None:
    """Write the crossing times of one sub-batch of paths into ``out``."""
    a = 1.0 - neuron.theta_i * dt
    mu_dt = neuron.mu_i * dt
    s = neuron.sigma_i * math.sqrt(dt)
    live = np.arange(len(out))  # paths that have not fired yet
    v_prev = np.full(len(out), float(neuron.v0_i))
    done = 0
    while done < n_total and live.size:
        block = min(_FPT_BLOCK, n_total - done)
        if neuron.sigma_i > 0:
            x = stream.standard_normal((live.size, block))
            x *= s  # rounds exactly as mu_dt + s * n
            x += mu_dt
        else:
            x = np.full((live.size, block), mu_dt)
        path, _ = lfilter([1.0], [1.0, -a], x, axis=-1, zi=a * v_prev[:, None])
        hit = path >= neuron.v_th
        fired = hit.any(axis=1)
        r = np.flatnonzero(fired)
        k = hit[r].argmax(axis=1)
        # a crossing at the first step of a block interpolates from the last block's end
        v_before = np.where(k == 0, v_prev[r], path[r, k - 1])
        frac = (neuron.v_th - v_before) / (path[r, k] - v_before)
        out[live[r]] = (done + k + frac) * dt
        v_prev = path[~fired, -1]
        live = live[~fired]
        done += block


def phi_psi(
    dist: drift_mod.Distribution, lam: float, grid: TimeGrid
) -> tuple[Curve, Curve]:
    """Response moment curves phi = R * p_T and psi = R^2 * p_T.

    Exponential firing times use the two-rate closed forms; Gamma firing
    times use the exact one-rate chain convolution for any firing rate.
    """
    if not isinstance(dist, (drift_mod.Exponential, drift_mod.Gamma)):
        raise ValueError(f"unsupported firing-time distribution: {type(dist).__name__}")
    return response_moment_curves(dist, lam, grid)


@dataclass(frozen=True)
class NetworkRealization:
    """One trial of the input layer: events and the resulting drift curves."""

    firing_times: np.ndarray
    amplitudes: np.ndarray
    z: Curve
    Z: Curve
    n_censored: int


def _network_events(model: EmbeddedNeuronModel, stream, trials: int):
    """Firing times (inf for inputs censored at the cap), amplitudes and per-trial counts.

    The M inputs of each of ``trials`` trials draw from ``stream``: first
    all M x trials firing times (analytic draws, or one
    :func:`first_passage_times` call over every input neuron), then all
    amplitudes. Trial j owns entries j*M .. (j+1)*M - 1.
    """
    n = model.M * trials
    if isinstance(model.firing, AnalyticFiring):
        taus = np.asarray(drift_mod.sample_dist(model.firing.dist, stream, n), dtype=float)
    else:
        spec = model.firing
        taus = first_passage_times(spec.neuron, spec.sim_dt, spec.horizon_cap, n, stream)
    betas = np.asarray(drift_mod.sample_dist(model.amplitude, stream, n), dtype=float)
    return taus, betas, np.full(trials, model.M)


def build_drift_from_network(
    model: EmbeddedNeuronModel, grid: TimeGrid, stream: np.random.Generator
) -> NetworkRealization:
    """Draw one realization of the shot-noise drift the embedded neuron sees.

    A block of one trial drawn from ``stream``: firing times come from the
    analytic law or from M first-passage simulations on the stream;
    inputs that never fire before the cap are dropped from the trial and
    counted. z and Z are a one-row call of :func:`drift.event_kernel` with
    the response rate as the decay rate.
    """
    taus, betas, _ = _network_events(model, stream, 1)
    Z, z = drift_mod.event_kernel([(taus, betas)], model.response_rate, model.theta, grid)
    return NetworkRealization(
        firing_times=taus,
        amplitudes=betas,
        z=Curve(grid, z[0]),
        Z=Curve(grid, Z[0]),
        n_censored=int(np.isinf(taus).sum()),
    )


def v2_exponential(model: EmbeddedNeuronModel, grid: TimeGrid) -> approx_mod.Approximant:
    """Closed-form mean-square approximant for exponential firing times.

    F2(t) = M E[beta] nu/(nu - lam) [ (e^{-lam t} - e^{-theta t})/(theta - lam)
                                      - (e^{-nu t} - e^{-theta t})/(theta - nu) ].
    """
    if not isinstance(model.firing, AnalyticFiring) or not isinstance(
        model.firing.dist, drift_mod.Exponential
    ):
        raise ValueError("v2_exponential needs analytic exponential firing times")
    nu = model.firing.dist.rate
    lam, th = model.response_rate, model.theta
    for bad, nm in ((lam, "response rate"), (th, "theta")):
        if abs(nu - bad) <= 1e-12 * max(nu, bad):
            raise drift_mod.PairingError(f"firing rate {nu} coincides with {nm} {bad}")
    t = grid.times()
    scale = model.M * drift_mod.dist_mean(model.amplitude)
    F = scale * nu / (nu - lam) * (stable_exp_diff(lam, th, t) - stable_exp_diff(nu, th, t))
    phi, _ = response_moment_curves(model.firing.dist, lam, grid)
    f = scale * phi.values
    return approx_mod.Approximant(p=2, F=Curve(grid, F), f=Curve(grid, f), theta=th)


# ---------------------------------------------------------------------------
# the three-scenario experiment

def _network_chunks(model, grid, n_paths, master_seed, threads=1, chunk=None, censored=None):
    """Yield (start, Z block) for network trials; accumulate censor counts.

    Trials follow the block-stream contract: the trials of block b draw
    their inputs together from ``block_stream(master_seed, b)``
    (:func:`_network_events`), so a trial's row does not depend on the
    chunking or the threads. A chunk that is a multiple of _BLOCK, as the
    default is, simulates every input neuron once.
    """
    counts = np.zeros(n_paths, dtype=int)

    def fill(b, rows, lo, hi, out):
        taus, betas, per_trial = _network_events(model, block_stream(master_seed, b), rows)
        censored_inputs = np.isinf(taus).reshape(rows, model.M).sum(axis=1)
        counts[b * _BLOCK + lo : b * _BLOCK + hi] = censored_inputs[lo:hi]
        lam, theta = model.response_rate, model.theta
        drift_mod.event_rows(taus, betas, per_trial, lo, hi, lam, theta, grid, out)

    chunk = chunk or _BLOCK * max(1, threads)  # one block per thread
    for start in range(0, n_paths, chunk):
        stop = min(start + chunk, n_paths)
        yield start, fill_row_blocks(fill, n_paths, grid.n_nodes, threads, start, stop)
    if censored is not None:
        censored.append(int(counts.sum()))


def table2_models(params: dict = TABLE2_PARAMS):
    """The three Table-2 scenarios as (label, embedded model) pairs."""
    amplitude = drift_mod.Uniform(params["beta_lo"], params["beta_hi"])
    common = dict(
        theta=params["theta"],
        sigma=params["sigma"],
        v0=params["v0"],
        response_rate=params["response_rate"],
        amplitude=amplitude,
        M=params["M"],
    )
    lif = LIFNeuron(
        theta_i=params["theta_i"],
        mu_i=params["mu_i"],
        sigma_i=params["sigma_i"],
        v0_i=params["v0_i"],
        v_th=params["v_th"],
    )
    return [
        (
            "exponential",
            EmbeddedNeuronModel(firing=AnalyticFiring(drift_mod.Exponential(params["firing_rate"])), **common),
        ),
        (
            "gamma",
            EmbeddedNeuronModel(
                firing=AnalyticFiring(
                    drift_mod.Gamma(rate=params["firing_rate"], shape=params["gamma_shape"])
                ),
                **common,
            ),
        ),
        (
            "simulated_network",
            EmbeddedNeuronModel(
                firing=SimulatedFiring(lif, sim_dt=params["dt"], horizon_cap=params["horizon_cap"]),
                **common,
            ),
        ),
    ]


def _as_shot_noise(model: EmbeddedNeuronModel) -> drift_mod.ShotNoise:
    assert isinstance(model.firing, AnalyticFiring)
    return drift_mod.ShotNoise(
        count=drift_mod.FixedCount(model.M),
        amplitude=model.amplitude,
        arrival=model.firing.dist,
        response_rate=model.response_rate,
    )


def run_table2(seed: int, n_paths: int = 10_000, threads: int = 1) -> CostReport:
    """The three-scenario embedded-neuron cost table.

    The exponential and Gamma firing-time scenarios are shot-noise drifts
    with an exact law: F2 is the closed-form mean (``v2_exponential``) or
    kappa_1, and F4 is fitted on the exact cumulants. The simulated-network
    scenario draws firing times by first-passage simulation; its F2 is the
    Monte Carlo mean and its F4 the fit on the Monte Carlo moments of a
    fitting ensemble keyed by child_seed(seed, 2, 0). Every row is evaluated
    on an ensemble keyed by child_seed(seed, row, 1).
    """
    params = TABLE2_PARAMS
    grid = TimeGrid.from_step(params["T"], params["dt"])
    theta = params["theta"]
    scenarios = table2_models(params)
    values = np.empty((len(scenarios), 2, 2))
    se = np.empty((len(scenarios), 2, 2))
    gap_se = np.empty((len(scenarios), 2))
    censor_total = 0
    censor_trials = 0
    for k, (label, model) in enumerate(scenarios):
        e_seed = child_seed(seed, k, 1)
        if isinstance(model.firing, AnalyticFiring):
            sn = _as_shot_noise(model)
            moments = approx_mod.exact_moments(sn, theta, grid)
            if isinstance(model.firing.dist, drift_mod.Exponential):
                F2 = v2_exponential(model, grid).F
            else:
                F2 = approx_mod.F2_analytic(sn, theta, grid).F
            chunks = drift_mod.iter_Z_chunks(sn, theta, grid, n_paths, e_seed, threads)
        else:
            cens = []
            moments = drift_mod.moments_from_chunks(
                _network_chunks(model, grid, n_paths, child_seed(seed, k, 0), threads, censored=cens),
                grid,
                n_paths,
            )
            F2 = moments.m1
            chunks = _network_chunks(model, grid, n_paths, e_seed, threads, censored=cens)
            censor_trials += 2 * n_paths * model.M
        F4 = approx_mod.F4_from_moments(moments, theta).F
        values[k], se[k], gap_se[k] = per_path_cost_matrix(
            chunks, (F2.values, F4.values), grid.dt, n_paths
        )
        if isinstance(model.firing, SimulatedFiring):
            censor_total = sum(cens)
            rate = censor_total / censor_trials
            log.info("network censor rate: %d/%d = %.2e", censor_total, censor_trials, rate)
    echo = dict(params)
    echo.update(
        {
            "n_paths": n_paths,
            "seed": seed,
            "censored_inputs": censor_total,
            "censor_rate": censor_total / censor_trials if censor_trials else 0.0,
        }
    )
    return CostReport(
        labels=[label for label, _ in scenarios],
        values=values,
        se=se,
        gap_se=gap_se,
        config_echo=echo,
    )
