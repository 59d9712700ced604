"""The embedded neuron's input layer: leaky integrate-and-fire neurons and their first passage.

The neuron of the paper's application is driven by M input neurons, each an
independent LIF diffusion whose first threshold crossing triggers an
exponentially decaying current. Its drift is therefore a shot noise
(:class:`drift.ShotNoise`) with a fixed count of M events, and the three
Table 2 rows differ only in the law of the event times: exponential, Gamma,
or the simulated first passage of an LIF input (:class:`drift.SimulatedFiring`,
drawn by :func:`first_passage_times`). Every row goes through the drift
ensembles, the one fit (:func:`approx.fit`) and the table loop
(:func:`costs.run_table`) that Table 1 uses.

The first passage of n inputs reads one stream: it advances them together
_FPT_BLOCK steps at a time and draws each step block's normals with one call
for every input still live. A shot-noise block draws its M x rows firing
times this way, then the amplitudes, so the draws depend on the block, its
trial count and _FPT_BLOCK, never on threads or on how a caller chunks the
trials.

Units are milliseconds and millivolts throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import drift as drift_mod
from .costs import CostReport, run_table
from .timebase import Curve, TimeGrid, one_pole, pass_rows

__all__ = [
    "LIFNeuron",
    "CENSORED",
    "first_passage_time",
    "first_passage_times",
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


def first_passage_time(
    neuron: LIFNeuron, dt: float, horizon_cap: float, stream: np.random.Generator
) -> float:
    """First threshold crossing of one LIF path: a one-neuron :func:`first_passage_times`."""
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
        # the state enters as a leading column, so the block boundary is one more step
        x = np.empty((live.size, block + 1))
        x[:, 0] = v_prev
        if neuron.sigma_i > 0:
            normals = stream.standard_normal((live.size, block))
            normals *= s  # rounds exactly as mu_dt + s * n
            np.add(normals, mu_dt, out=x[:, 1:])
        else:
            x[:, 1:] = mu_dt
        path = one_pole(x, a)[:, 1:]
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


def build_drift_from_network(
    model: drift_mod.ShotNoise, theta: float, grid: TimeGrid, stream: np.random.Generator
) -> Curve:
    """One realization of Z for a network drift: a one-row block drawn from ``stream``.

    The same as :func:`drift.sample_Z_path`: the M firing times come first
    (first passages for a :class:`drift.SimulatedFiring` arrival, censored
    inputs never reach a node), then the amplitudes.
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

    The exponential and Gamma rows have an exact law, so F2 is kappa_1 and
    F4 is fitted on the exact cumulants. The simulated-network row fits F2
    (the sample mean) and F4 on the Monte Carlo moments of an ensemble keyed
    by child_seed(seed, 2, 0). Every row is evaluated on an ensemble keyed by
    child_seed(seed, row, 1). The echo reports the censored inputs and the
    network row's censor rate; a row with more than half of an ensemble's
    inputs censored raises :class:`drift.CensoringError`.
    """
    return run_table(table2_models(TABLE2_PARAMS), TABLE2_PARAMS, seed, n_paths, threads)
