"""The zoo of stochastic drift processes z(t) and their damped accumulations.

Each drift variant can produce three things: a sampled z path at the grid
nodes, a sampled path of the damped accumulation

    Z(t) = e^{-theta t} int_0^t z(s) e^{theta s} ds,

and exact mean/variance curves of z. The event-driven variants (Poisson,
compound Poisson, shot noise) draw their event times in continuous time, and
one batched kernel, :func:`event_kernel`, evaluates z and Z from the events
of many paths at once: each event's exact contribution inside its grid cell
is binned, then two exact exponential recurrences run along the time axis,
so the grid introduces no bias and the cost is O(events + nodes). The
single-shot drift keeps its one-event closed form; the two diffusion-driven
variants sample z with exact Gaussian transitions and pass it through the
shared exponential integrator.

Every variant has an exact law for Z: :func:`cumulant_curves` returns its
first four cumulants at the grid nodes, which is all the order-2 and order-4
approximants need. That includes a shot noise whose event times are the
first passages of LIF input neurons (:class:`SimulatedFiring`, the embedded
neuron's network): their law is solved once per instance on the sim_dt grid
(:func:`neuro.first_passage_law`), and sampling and the cumulants both read
that one tabulated law. An input that never fires before its cap has an
infinite (censored) event time, which never reaches a grid node.

Ensembles follow the block-stream contract of :mod:`timebase`: the rows of
block b = i // _BLOCK are sampled together from ``block_stream(seed, b)`` by
the variant's block sampler (:func:`_block_sampler`), a pass of at most
``timebase._KERNEL_CELLS`` cells at a time, and a single path is a block of
one row drawn from the stream it is given.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Union

import numpy as np

from .response import chain_states, response_moment_curves, response_power_means
from .timebase import (
    _BLOCK,
    Curve,
    PathEnsemble,
    TimeGrid,
    block_stream,
    exp_weighted_values,
    fill_row_blocks,
    iter_slabs,
    one_pole,
    pass_rows,
    stable_exp_diff,
)

__all__ = [
    "Exponential",
    "Gamma",
    "Uniform",
    "PoissonCount",
    "FixedCount",
    "PointMass",
    "PiecewiseUniform",
    "SimulatedFiring",
    "Distribution",
    "SingleShot",
    "Poisson",
    "CompoundPoisson",
    "ShotNoise",
    "BrownianDrift",
    "OUDrift",
    "Deterministic",
    "DriftModel",
    "PairingError",
    "CensoringError",
    "dist_mean",
    "dist_second_moment",
    "dist_variance",
    "dist_raw_moment",
    "censored_share",
    "sample_dist",
    "validate_pairing",
    "sample_z_path",
    "sample_Z_path",
    "mean_z",
    "var_z",
    "cumulant_curves",
    "moments_Z_mc",
    "moments_from_chunks",
    "z_path_ensemble",
    "Z_path_ensemble",
    "iter_Z_chunks",
    "event_kernel",
    "event_rows",
    "block_rows",
]


# ---------------------------------------------------------------------------
# distributions

@dataclass(frozen=True)
class Exponential:
    rate: float

    def __post_init__(self):
        if self.rate <= 0:
            raise ValueError(f"exponential rate must be positive, got {self.rate}")


@dataclass(frozen=True)
class Gamma:
    rate: float
    shape: float

    def __post_init__(self):
        if self.rate <= 0 or self.shape <= 0:
            raise ValueError("gamma rate and shape must be positive")


@dataclass(frozen=True)
class Uniform:
    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError(f"uniform needs lo < hi, got [{self.lo}, {self.hi}]")


@dataclass(frozen=True)
class PoissonCount:
    mean: float

    def __post_init__(self):
        if self.mean <= 0:
            raise ValueError(f"poisson count mean must be positive, got {self.mean}")


@dataclass(frozen=True)
class FixedCount:
    value: int

    def __post_init__(self):
        if self.value < 1:
            raise ValueError(f"fixed count must be >= 1, got {self.value}")
        # the sampler draws int(value) events, so the moments must use the same count
        if not float(self.value).is_integer():
            raise ValueError(f"fixed count must be an integer, got {self.value}")
        object.__setattr__(self, "value", int(self.value))


@dataclass(frozen=True)
class PointMass:
    value: float


@dataclass(frozen=True, eq=False)
class PiecewiseUniform:
    """A law with CDF ``cdf[k]`` at the nodes k dt, linear in between, and mass 1 - cdf[-1] at +inf.

    Inside each cell (k dt, (k + 1) dt] it is uniform; the mass beyond the
    last node is an event that never happens (a censored time).
    """

    dt: float
    cdf: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.cdf, dtype=float)
        object.__setattr__(self, "cdf", c)
        if not self.dt > 0:
            raise ValueError(f"cell width must be positive, got {self.dt}")
        if c.ndim != 1 or c.size < 2 or c[0] != 0.0:
            raise ValueError("cdf needs at least two nodes and cdf[0] = 0")
        if np.any(np.diff(c) < 0) or c[-1] > 1.0:
            raise ValueError("cdf must be nondecreasing and at most 1")


@dataclass(frozen=True)
class SimulatedFiring:
    """Firing times of a :class:`neuro.LIFNeuron` input: its exact first-passage law.

    :attr:`law` is :func:`neuro.first_passage_law` on the sim_dt grid up to
    horizon_cap, solved on first use and kept by this instance: a point mass
    for a noiseless input, else a :class:`PiecewiseUniform` law whose mass
    beyond the cap is censored (infinite times). Sampling and the cumulants
    read the same law, and a fit needs the cost grid's step to equal sim_dt.
    """

    neuron: object  # a neuro.LIFNeuron
    sim_dt: float = 1e-2
    horizon_cap: float = 100.0

    def __post_init__(self):
        if self.sim_dt <= 0 or self.horizon_cap <= 0:
            raise ValueError("sim_dt and horizon_cap must be positive")

    @cached_property
    def law(self) -> PointMass | PiecewiseUniform:
        from .neuro import first_passage_law  # local import: neuro imports this module

        return first_passage_law(self.neuron, self.sim_dt, self.horizon_cap)


Distribution = Union[
    Exponential, Gamma, Uniform, PoissonCount, FixedCount, PointMass, PiecewiseUniform, SimulatedFiring
]


def dist_mean(dist: Distribution) -> float:
    return dist_raw_moment(dist, 1)


def dist_second_moment(dist: Distribution) -> float:
    return dist_raw_moment(dist, 2)


def dist_variance(dist: Distribution) -> float:
    return dist_second_moment(dist) - dist_mean(dist) ** 2


def dist_raw_moment(dist: Distribution, n: int) -> float:
    """E[X^n] for n = 1..4."""
    if isinstance(dist, Exponential):
        return math.factorial(n) / dist.rate**n
    if isinstance(dist, Gamma):
        return math.prod(dist.shape + j for j in range(n)) / dist.rate**n
    if isinstance(dist, Uniform):
        # (hi^{n+1} - lo^{n+1}) / ((n + 1)(hi - lo)) without the subtraction
        return sum(dist.hi**j * dist.lo ** (n - j) for j in range(n + 1)) / (n + 1)
    if isinstance(dist, PoissonCount):
        # Touchard polynomial: sum over k of S(n, k) mean^k
        stirling = {1: (1,), 2: (1, 1), 3: (1, 3, 1), 4: (1, 7, 6, 1)}[n]
        return sum(c * dist.mean ** (k + 1) for k, c in enumerate(stirling))
    if isinstance(dist, (FixedCount, PointMass)):
        return float(dist.value) ** n
    raise TypeError(f"no closed-form moments for {dist!r}")


def sample_dist(dist: Distribution, stream: np.random.Generator, size: int):
    if isinstance(dist, Exponential):
        return stream.exponential(scale=1.0 / dist.rate, size=size)
    if isinstance(dist, Gamma):
        return stream.gamma(shape=dist.shape, scale=1.0 / dist.rate, size=size)
    if isinstance(dist, Uniform):
        return stream.uniform(dist.lo, dist.hi, size=size)
    if isinstance(dist, PoissonCount):
        return stream.poisson(dist.mean, size=size)
    if isinstance(dist, FixedCount):
        return np.full(size, dist.value, dtype=int)
    if isinstance(dist, PointMass):
        return np.full(size, dist.value, dtype=float)
    if isinstance(dist, PiecewiseUniform):
        # inverse CDF, one uniform per draw: cdf[k - 1] <= u < cdf[k] falls in cell k
        u = stream.random(size)
        k = np.searchsorted(dist.cdf, u, side="right")
        out = np.full(size, math.inf)
        hit = k < dist.cdf.size  # u >= cdf[-1]: never fires
        k, u = k[hit], u[hit]
        lo = dist.cdf[k - 1]
        out[hit] = (k - 1 + (u - lo) / (dist.cdf[k] - lo)) * dist.dt
        return out
    if isinstance(dist, SimulatedFiring):
        return sample_dist(dist.law, stream, size)
    raise TypeError(f"not a distribution: {dist!r}")


def censored_share(dist: Distribution) -> float:
    """The probability that an event time is infinite: 0 for every law but a censored one."""
    if isinstance(dist, SimulatedFiring):
        dist = dist.law
    if isinstance(dist, PiecewiseUniform):
        return 1.0 - float(dist.cdf[-1])
    if isinstance(dist, PointMass):
        return float(math.isinf(dist.value))
    return 0.0


# ---------------------------------------------------------------------------
# drift variants

@dataclass(frozen=True)
class SingleShot:
    """z jumps from 0 to 1 at a single exponential time with the given rate."""

    rate: float

    def __post_init__(self):
        if self.rate <= 0:
            raise ValueError(f"rate must be positive, got {self.rate}")


@dataclass(frozen=True)
class Poisson:
    """z(t) = N(t), a unit-jump Poisson counting process."""

    rate: float

    def __post_init__(self):
        if self.rate <= 0:
            raise ValueError(f"rate must be positive, got {self.rate}")


@dataclass(frozen=True)
class CompoundPoisson:
    """z(t) = sum of i.i.d. jump sizes at Poisson event times."""

    rate: float
    jump: Distribution = field(default_factory=lambda: Exponential(2.0))

    def __post_init__(self):
        if self.rate <= 0:
            raise ValueError(f"rate must be positive, got {self.rate}")


@dataclass(frozen=True)
class ShotNoise:
    """Sum of exponentially decaying responses at random times.

    z(t) = sum_{i<=M} beta_i e^{-response_rate (t - T_i)} on t >= T_i, with a
    random event count M, i.i.d. amplitudes beta_i and i.i.d. positive event
    times T_i, which may be LIF first passages (:class:`SimulatedFiring`).
    Defaults mirror the embedded-neuron experiment.
    """

    count: Distribution = field(default_factory=lambda: FixedCount(10))
    amplitude: Distribution = field(default_factory=lambda: Uniform(0.5, 1.5))
    arrival: Distribution = field(default_factory=lambda: Exponential(1.0 / 15.0))
    response_rate: float = 1.0

    def __post_init__(self):
        if self.response_rate <= 0:
            raise ValueError(f"response_rate must be positive, got {self.response_rate}")
        if not isinstance(self.count, (PoissonCount, FixedCount)):
            raise ValueError("count must be a PoissonCount or FixedCount distribution")
        if isinstance(self.arrival, (Exponential, Gamma, SimulatedFiring)):
            pass
        elif isinstance(self.arrival, PointMass) and self.arrival.value >= 0:
            pass
        elif isinstance(self.arrival, Uniform) and self.arrival.lo >= 0:
            pass
        else:
            raise ValueError("arrival must be a distribution over positive reals")


@dataclass(frozen=True)
class BrownianDrift:
    """z(t) = W~(t) + trend * t for an independent Brownian motion W~."""

    trend: float = 0.0

    def __post_init__(self):
        if self.trend < 0:
            raise ValueError(f"trend must be nonnegative, got {self.trend}")


@dataclass(frozen=True)
class OUDrift:
    """z(t) = U(t) with dU = -rate U dt + sigma_u dW~, U(0) = u0."""

    rate: float
    sigma_u: float = 1.0
    u0: float = 0.0

    def __post_init__(self):
        if self.rate <= 0:
            raise ValueError(f"rate must be positive, got {self.rate}")
        if self.sigma_u < 0:
            raise ValueError(f"sigma_u must be nonnegative, got {self.sigma_u}")


@dataclass(frozen=True)
class Deterministic:
    """Degenerate drift: z is a fixed curve, independent of the stream."""

    f: Curve


DriftModel = Union[
    SingleShot, Poisson, CompoundPoisson, ShotNoise, BrownianDrift, OUDrift, Deterministic
]


class PairingError(ValueError):
    """A drift parameter coincides with a damping rate it must differ from."""


class CensoringError(ArithmeticError):
    """More than half of an ensemble's event times are censored (never happened)."""


def _check_distinct(name: str, value: float, theta: float, what: str) -> None:
    if abs(value - theta) <= 1e-12 * max(abs(value), abs(theta)):
        raise PairingError(f"{name} = {value} coincides with {what} = {theta}")


def validate_pairing(model: DriftModel, theta: float) -> None:
    """Reject drift/damping parameter coincidences the closed forms exclude."""
    if theta <= 0:
        raise ValueError(f"theta must be positive, got {theta}")
    if isinstance(model, SingleShot):
        _check_distinct("single-shot rate", model.rate, theta, "theta")
        _check_distinct("single-shot rate", model.rate, 2 * theta, "2*theta")
    elif isinstance(model, OUDrift):
        _check_distinct("OU drift rate", model.rate, theta, "theta")
    elif isinstance(model, ShotNoise):
        _check_distinct("response rate", model.response_rate, theta, "theta")
        if isinstance(model.arrival, Exponential):
            # the response moment curves phi and psi divide by these differences
            lam = model.response_rate
            _check_distinct("arrival rate", model.arrival.rate, lam, "the response rate")
            _check_distinct("arrival rate", model.arrival.rate, 2 * lam, "twice the response rate")


# ---------------------------------------------------------------------------
# event machinery

_EVENT_MODELS = (Poisson, CompoundPoisson, ShotNoise)

def _draw_block_events(model, grid: TimeGrid, stream, rows: int):
    """Event times, weights and per-row counts of ``rows`` paths, drawn as whole vectors.

    Counts come first, then the times and the weights of all events, each
    with one call, so the draws depend on the stream and the row count only.
    """
    if isinstance(model, ShotNoise):
        counts = np.asarray(sample_dist(model.count, stream, rows), dtype=np.int64)
        times = sample_dist(model.arrival, stream, counts.sum())
        return times, sample_dist(model.amplitude, stream, counts.sum()), counts
    T = grid.horizon_T
    counts = stream.poisson(model.rate * T, size=rows)
    times = stream.uniform(0.0, T, counts.sum())
    if isinstance(model, Poisson):
        return times, np.ones_like(times), counts
    return times, sample_dist(model.jump, stream, counts.sum()), counts


def _decay(model) -> float:
    """Decay rate of one event's contribution to z: 0 for a lasting jump."""
    return model.response_rate if isinstance(model, ShotNoise) else 0.0


def event_kernel(events, lam: float, theta: float | None, grid: TimeGrid):
    """Z and z at the grid nodes for one path per (times, weights) pair in ``events``.

    A path with events (T_i, w_i) has z(t) = sum_{T_i <= t} w_i e^{-lam (t - T_i)}
    and Z(t) = sum_{T_i <= t} w_i K(t - T_i) with
    K(u) = (e^{-lam u} - e^{-theta u}) / (theta - lam), which is the jump
    kernel (1 - e^{-theta u}) / theta at lam = 0. Each event falls in the
    cell (t_{k-1}, t_k] of the first node t_k >= T_i; its exact contributions
    at that node, w e^{-lam u} and w K(u) with u = t_k - T_i, are binned per
    row and cell. Then, with e_k and c_k the binned sums,

        z_k = e^{-lam dt} z_{k-1} + e_k,
        Z_k = e^{-theta dt} Z_{k-1} + K(dt) z_{k-1} + c_k,

    which is exact because K(u + dt) = e^{-theta dt} K(u) + K(dt) e^{-lam u}.
    Time and memory are O(events + rows x nodes), and every factor is at most
    1, so the result stays finite for any theta T. Events after the last
    node, including infinite (censored) times, never reach a node and are
    dropped. A row's values do not depend on the other rows of the call.

    Returns (Z, z), each of shape (len(events), n_nodes); Z is None when
    ``theta`` is None.
    """
    times = np.concatenate([np.asarray(e[0], dtype=float) for e in events])
    weights = np.concatenate([np.asarray(e[1], dtype=float) for e in events])
    row = np.repeat(np.arange(len(events)), [len(e[0]) for e in events])
    return _kernel(times, weights, row, len(events), lam, theta, grid)


def _kernel(times, weights, row, m: int, lam: float, theta: float | None, grid: TimeGrid):
    """:func:`event_kernel` on flat event arrays; ``row`` maps each event to its row 0..m-1."""
    t = grid.times()
    n = grid.n_nodes
    cell = np.searchsorted(t, times)
    live = cell < n
    cell, times, weights = cell[live], times[live], weights[live]
    idx = row[live] * n + cell
    u = t[cell] - times

    def binned(values):
        # bincount gives int64 zeros when there are no events
        return np.bincount(idx, values, m * n).astype(float, copy=False).reshape(m, n)

    z = one_pole(binned(weights * np.exp(-lam * u)), np.exp(-lam * grid.dt))
    if theta is None:
        return None, z
    c = binned(weights * stable_exp_diff(lam, theta, u))
    c[:, 1:] += stable_exp_diff(lam, theta, grid.dt) * z[:, :-1]
    return one_pole(c, np.exp(-theta * grid.dt)), z


def event_rows(
    times, weights, counts, lo: int, hi: int, lam: float, theta, grid: TimeGrid, out
) -> None:
    """Write Z (z when ``theta`` is None) of rows lo..hi-1 of a drawn block into ``out``.

    The block's events are flat: row j owns ``counts[j]`` consecutive
    entries of ``times`` and ``weights``. Rows go through :func:`event_kernel`
    in passes of at most _KERNEL_CELLS cells.
    """
    edges = np.concatenate(([0], np.cumsum(counts)))
    times = np.asarray(times, dtype=float)
    weights = np.asarray(weights, dtype=float)
    step = pass_rows(grid.n_nodes)
    for a in range(lo, hi, step):
        b = min(a + step, hi)
        e0, e1 = edges[a], edges[b]
        row = np.repeat(np.arange(b - a), counts[a:b])
        Z, z = _kernel(times[e0:e1], weights[e0:e1], row, b - a, lam, theta, grid)
        out[a - lo : b - lo] = z if theta is None else Z


def _diffusion_z(model, grid: TimeGrid, noise: np.ndarray) -> np.ndarray:
    """z at the nodes, exact in distribution, of one path per row of (rows, n_steps) normals."""
    rows = noise.shape[0]
    z = np.zeros((rows, grid.n_nodes))
    if isinstance(model, BrownianDrift):
        noise *= np.sqrt(grid.dt)
        np.cumsum(noise, axis=1, out=z[:, 1:])
        z += model.trend * grid.times()
        return z
    lam, dt = model.rate, grid.dt
    a = np.exp(-lam * dt)
    z[:, 1:] = model.sigma_u * np.sqrt(-np.expm1(-2 * lam * dt) / (2 * lam)) * noise
    one_pole(z, a)
    z += model.u0 * a ** np.arange(grid.n_nodes)
    return z


def _block_sampler(model: DriftModel, theta: float | None, grid: TimeGrid, tally=None):
    """``sample(stream, rows, lo, hi, out)``: Z rows (z when theta is None) of one block.

    The block holds ``rows`` ensemble rows and draws all of them from
    ``stream``; ``sample`` writes its local rows lo..hi-1 into ``out``, in
    passes whose transients have at most _KERNEL_CELLS cells. The draws:

    - single shot: one exponential vector of the shot times of rows 0..hi-1;
    - Brownian and OU: a (pass rows, n_steps) matrix of normals per pass,
      row after row, including the rows before lo;
    - event variants: counts, times and weights of all ``rows`` rows, one
      call each (:func:`_draw_block_events`);
    - deterministic drifts draw nothing.

    An event sampler given a ``tally`` list appends (censored, drawn), the
    infinite and all event times of its rows lo..hi-1, at each call.
    """
    dt = grid.dt
    step = pass_rows(grid.n_nodes)
    if isinstance(model, Deterministic):
        _check_same_grid(model.f.grid, grid)
        curve = model.f.values if theta is None else exp_weighted_values(model.f.values, dt, theta)

        def sample(stream, rows, lo, hi, out):
            out[:] = curve

    elif isinstance(model, SingleShot):
        t = grid.times()

        def sample(stream, rows, lo, hi, out):
            tau = stream.exponential(1.0 / model.rate, size=hi)[lo:]
            for a in range(0, hi - lo, step):
                o = out[a : a + step]
                np.subtract(t, tau[a : a + step, None], out=o)
                if theta is None:
                    np.greater_equal(o, 0.0, out=o)
                    continue
                # Z = (1 - e^{-theta u}) / theta after the shot, u = t - tau
                np.maximum(o, 0.0, out=o)
                o *= -theta
                np.expm1(o, out=o)
                o /= -theta

    elif isinstance(model, _EVENT_MODELS):
        lam = _decay(model)

        def sample(stream, rows, lo, hi, out):
            times, weights, counts = _draw_block_events(model, grid, stream, rows)
            if tally is not None:  # only the rows written, so a block cut by chunks counts once
                own = times[counts[:lo].sum() : counts[:hi].sum()]
                tally.append((int(np.isinf(own).sum()), own.size))
            event_rows(times, weights, counts, lo, hi, lam, theta, grid, out)

    elif isinstance(model, (BrownianDrift, OUDrift)):

        def sample(stream, rows, lo, hi, out):
            for a in range(0, lo, step):  # keep the stream in step: rows before lo
                stream.standard_normal((min(step, lo - a), grid.n_steps))
            for a in range(lo, hi, step):
                b = min(a + step, hi)
                z = _diffusion_z(model, grid, stream.standard_normal((b - a, grid.n_steps)))
                out[a - lo : b - lo] = z if theta is None else exp_weighted_values(z, dt, theta)

    else:
        raise TypeError(f"not a drift model: {model!r}")
    return sample


def block_rows(
    sample, n_paths: int, master_seed: int, n_nodes: int, start: int = 0, stop=None, threads=1
):
    """Rows start..stop-1 of an n_paths-row ensemble drawn by ``sample`` from the block streams.

    ``sample(stream, rows, lo, hi, out)`` is a block sampler such as
    :func:`_block_sampler` returns; block b reads ``block_stream(master_seed, b)``.
    """

    def fill(b, rows, lo, hi, out):
        sample(block_stream(master_seed, b), rows, lo, hi, out)

    return fill_row_blocks(fill, n_paths, n_nodes, threads, start, stop)


# ---------------------------------------------------------------------------
# path sampling

def _one_row(model, theta, grid: TimeGrid, stream) -> Curve:
    out = np.empty((1, grid.n_nodes))
    _block_sampler(model, theta, grid)(stream, 1, 0, 1, out)
    return Curve(grid, out[0])


def sample_z_path(model: DriftModel, grid: TimeGrid, stream: np.random.Generator) -> Curve:
    """One realization of the drift z(t) evaluated at the grid nodes.

    A one-row block drawn from ``stream``: jump processes draw their event
    times in continuous time and evaluate the node values exactly (the
    event-driven ones through :func:`event_kernel`); diffusion drifts use
    exact Gaussian transitions between nodes.
    """
    if isinstance(model, Deterministic):
        _check_same_grid(model.f.grid, grid)
        return model.f
    return _one_row(model, None, grid, stream)


def sample_Z_path(
    model: DriftModel, theta: float, grid: TimeGrid, stream: np.random.Generator
) -> Curve:
    """One realization of Z(t) = e^{-theta t} int_0^t z(s) e^{theta s} ds.

    A one-row block drawn from ``stream``, so it equals the row of an
    ensemble whose block holds that row alone. Event-driven drifts go
    through :func:`event_kernel` (no grid bias), the single shot uses its
    closed form, and the two diffusion-driven drifts pass a sampled z path
    through the exponential integrator.
    """
    validate_pairing(model, theta)
    return _one_row(model, theta, grid, stream)


def _check_same_grid(a: TimeGrid, b: TimeGrid) -> None:
    if a != b:
        raise ValueError(f"grids differ: {a} vs {b}")


# ---------------------------------------------------------------------------
# exact low-order moments of z

def mean_z(model: DriftModel, grid: TimeGrid) -> Curve:
    """Exact E[z(t)] at the grid nodes."""
    t = grid.times()
    if isinstance(model, Deterministic):
        _check_same_grid(model.f.grid, grid)
        return model.f
    if isinstance(model, SingleShot):
        return Curve(grid, -np.expm1(-model.rate * t))
    if isinstance(model, Poisson):
        return Curve(grid, model.rate * t)
    if isinstance(model, CompoundPoisson):
        return Curve(grid, model.rate * dist_mean(model.jump) * t)
    if isinstance(model, ShotNoise):
        phi, _ = response_moment_curves(model.arrival, model.response_rate, grid)
        scale = dist_mean(model.count) * dist_mean(model.amplitude)
        return Curve(grid, scale * phi.values)
    if isinstance(model, BrownianDrift):
        return Curve(grid, model.trend * t)
    if isinstance(model, OUDrift):
        return Curve(grid, model.u0 * np.exp(-model.rate * t))
    raise TypeError(f"not a drift model: {model!r}")


def var_z(model: DriftModel, grid: TimeGrid) -> Curve:
    """Exact D[z(t)] at the grid nodes."""
    t = grid.times()
    if isinstance(model, Deterministic):
        return Curve(grid, np.zeros(grid.n_nodes))
    if isinstance(model, SingleShot):
        p = -np.expm1(-model.rate * t)
        return Curve(grid, p * (1.0 - p))
    if isinstance(model, Poisson):
        return Curve(grid, model.rate * t)
    if isinstance(model, CompoundPoisson):
        return Curve(grid, model.rate * dist_second_moment(model.jump) * t)
    if isinstance(model, ShotNoise):
        phi, psi = response_moment_curves(model.arrival, model.response_rate, grid)
        em = dist_mean(model.count)
        vm = dist_variance(model.count)
        eb = dist_mean(model.amplitude)
        eb2 = dist_second_moment(model.amplitude)
        vals = eb**2 * phi.values**2 * (vm - em) + em * eb2 * psi.values
        return Curve(grid, vals)
    if isinstance(model, BrownianDrift):
        return Curve(grid, t.copy())
    if isinstance(model, OUDrift):
        vals = model.sigma_u**2 / (2 * model.rate) * (-np.expm1(-2 * model.rate * t))
        return Curve(grid, vals)
    raise TypeError(f"not a drift model: {model!r}")


# ---------------------------------------------------------------------------
# exact cumulants of Z

def _cumulants_from_raw(r: np.ndarray) -> np.ndarray:
    """Cumulant rows kappa_1..kappa_n from raw moment rows r_1..r_n, n <= 4."""
    r1 = r[0]
    out = [r1]
    if len(r) > 1:
        out.append(r[1] - r1 * r1)
    if len(r) > 2:
        out.append(r[2] - 3.0 * r1 * r[1] + 2.0 * r1**3)
    if len(r) > 3:
        mu4 = r[3] - 4.0 * r1 * r[2] + 6.0 * r1 * r1 * r[1] - 3.0 * r1**4
        out.append(mu4 - 3.0 * out[1] ** 2)
    return np.array(out)


def cumulant_curves(model: DriftModel, theta: float, grid: TimeGrid, order: int = 4) -> np.ndarray:
    """Exact cumulants kappa_1..kappa_order of Z(t) at the grid nodes, as rows.

    - Poisson and compound Poisson: Campbell's theorem,
      kappa_n = rate E[J^n] int_0^t K(u)^n du with K(u) = (1 - e^{-theta u}) / theta.
    - Shot noise: Z is a fixed or Poisson count of i.i.d. terms
      X = beta K_lam(t - T), whose raw moments are E[beta^n] E[K_lam(t - T)^n]
      (:func:`response.response_power_means`); kappa_n = E[M] E[X^n] for a
      Poisson count and N kappa_n(X) for a fixed count N (Rice 1944).
    - Single shot: the same means with an exponential arrival, converted to
      cumulants about 0 or about the limit 1/theta, whichever lies nearer
      the mean, so the conversion never cancels.
    - Brownian and OU drifts: Z is Gaussian with kappa_2 = int_0^t G(u)^2 du
      for the drift's kernel G, and kappa_3 = kappa_4 = 0.
    - Deterministic drifts: kappa_1 = I f and no spread.

    The integrals are chains of exponential convolutions
    (:func:`response.chain_states`), which keep their relative accuracy at
    t -> 0. kappa_1 reuses the closed-form mean of each variant that has one.
    """
    validate_pairing(model, theta)
    if not 1 <= order <= 4:
        raise ValueError(f"order must be 1..4, got {order}")
    t = grid.times()
    th = theta
    kappa = np.zeros((order, grid.n_nodes))
    if isinstance(model, Deterministic):
        _check_same_grid(model.f.grid, grid)
        kappa[0] = exp_weighted_values(model.f.values, grid.dt, theta)
    elif isinstance(model, (Poisson, CompoundPoisson, BrownianDrift)):
        # kappa_n = w_n int_0^t K(u)^n du: w_n = rate E[J^n] by Campbell's
        # theorem, and w_2 = 1 (with no higher cumulant) for the Brownian drift
        if isinstance(model, BrownianDrift):
            w = [model.trend, 1.0]
        else:
            jump = model.jump if isinstance(model, CompoundPoisson) else PointMass(1.0)
            w = [model.rate * dist_raw_moment(jump, n) for n in range(1, order + 1)]
        kappa[0] = w[0] * (t / th + np.expm1(-th * t) / th**2)
        if order > 1:
            # row n + 1 is int_0^t K(u)^n du / n!; one chain for every order,
            # so a lower order gives the same rows bit for bit
            v = chain_states([0.0, 0.0, th, 2 * th, 3 * th, 4 * th], grid)
            for n in range(2, min(order, len(w)) + 1):
                kappa[n - 1] = w[n - 1] * math.factorial(n) * v[n + 1]
    elif isinstance(model, OUDrift):
        lam = model.rate
        kappa[0] = model.u0 * stable_exp_diff(lam, th, t)
        if order > 1:
            # G(u)^2 = 2 chain(2 lam, lam + theta, 2 theta), integrated once more
            v = chain_states([0.0, 2 * lam, lam + th, 2 * th], grid)
            kappa[1] = 2.0 * model.sigma_u**2 * v[3]
    elif isinstance(model, SingleShot):
        lam = model.rate
        kappa[0] = -np.expm1(-th * t) / th - stable_exp_diff(lam, th, t)
        if order > 1:
            near0 = response_power_means(Exponential(lam), 0.0, th, grid, order)
            # W = 1/theta - Z: 1/theta before the shot, e^{-theta (t - tau)} / theta after it
            near1 = np.array([
                (np.exp(-lam * t) + lam * stable_exp_diff(lam, n * th, t)) / th**n
                for n in range(1, order + 1)
            ])
            about0, about1 = _cumulants_from_raw(near0), _cumulants_from_raw(near1)
            about1[2:3] *= -1.0  # kappa_3 of Z is minus that of W
            kappa[1:] = np.where(kappa[0] > 0.5 / th, about1, about0)[1:]
    elif isinstance(model, ShotNoise):
        means = response_power_means(model.arrival, model.response_rate, th, grid, order)
        raw = np.array([dist_raw_moment(model.amplitude, n) for n in range(1, order + 1)])[:, None] * means
        if isinstance(model.count, PoissonCount):
            kappa[:] = model.count.mean * raw
        else:
            kappa[:] = model.count.value * _cumulants_from_raw(raw)
    else:
        raise TypeError(f"not a drift model: {model!r}")
    return kappa


# ---------------------------------------------------------------------------
# ensembles and Monte Carlo moments

def z_path_ensemble(
    model: DriftModel, grid: TimeGrid, n_paths: int, master_seed: int, threads: int = 1
) -> PathEnsemble:
    """n_paths independent z realizations, block b from block_stream(seed, b)."""
    sample = _block_sampler(model, None, grid)
    values = block_rows(sample, n_paths, master_seed, grid.n_nodes, threads=threads)
    return PathEnsemble(grid, n_paths, values, master_seed)


def Z_path_ensemble(
    model: DriftModel,
    theta: float,
    grid: TimeGrid,
    n_paths: int,
    master_seed: int,
    threads: int = 1,
) -> PathEnsemble:
    """n_paths independent Z realizations under the block-stream contract.

    Rows i of block b = i // _BLOCK are drawn together from
    ``block_stream(seed, b)`` by the variant's block sampler (one exponential
    vector for the single shot, normal matrices for the diffusions, one
    vector per event quantity for the event variants). The matrix does not
    depend on ``threads``; a block holding one row equals ``sample_Z_path``
    on the block's stream bit for bit. It is :func:`iter_Z_chunks` as one
    chunk, under the same censoring policy.
    """
    [(_, values)] = iter_Z_chunks(model, theta, grid, n_paths, master_seed, threads, chunk=n_paths)
    return PathEnsemble(grid, n_paths, values, master_seed)


def iter_Z_chunks(
    model: DriftModel,
    theta: float,
    grid: TimeGrid,
    n_paths: int,
    master_seed: int,
    threads: int = 1,
    chunk: int | None = None,
    censored: list | None = None,
):
    """Yield (start_index, chunk_matrix) blocks of the Z ensemble.

    Streaming form of :func:`Z_path_ensemble` for workloads where the full
    n_paths x n_nodes matrix would be wastefully large. Each chunk draws its
    rows from the block streams of the ensemble, so the concatenation of the
    chunks is bit-identical to the materialized ensemble for any chunk size
    and thread count. The default chunk holds one block per thread, which
    the threads fill side by side. A chunk that starts inside a block
    redraws that block's leading variates; chunks that are multiples of
    _BLOCK draw every variate once.

    The block samplers count the censored event times of the rows they
    write, so once the last chunk is out the ensemble's (censored, drawn)
    event count is the same for any chunk size and thread count. It is
    appended to ``censored`` when that is a list, and an ensemble with more
    than half of its event times censored raises :class:`CensoringError`.
    """
    validate_pairing(model, theta)
    tally = []
    sample = _block_sampler(model, theta, grid, tally)
    chunk = chunk or _BLOCK * max(1, threads)  # one block per thread
    for start in range(0, n_paths, chunk):
        stop = min(start + chunk, n_paths)
        yield start, block_rows(sample, n_paths, master_seed, grid.n_nodes, start, stop, threads)
    lost, drawn = sum(c for c, _ in tally), sum(n for _, n in tally)
    if censored is not None:
        censored.append((lost, drawn))
    if 2 * lost > drawn:
        raise CensoringError(f"{lost} of {drawn} event times are censored; raise horizon_cap")


def moments_Z_mc(
    model: DriftModel,
    theta: float,
    grid: TimeGrid,
    n_paths: int,
    master_seed: int,
    threads: int = 1,
    censored: list | None = None,
):
    """Sample mean, variance and third central moment of Z(t) at each node.

    Returns a MomentCurves (n-denominator convention, so the variance is
    nonnegative) plus the standard error of the mean; see
    :func:`moments_from_chunks`. ``censored`` is passed to :func:`iter_Z_chunks`.
    """
    chunks = iter_Z_chunks(model, theta, grid, n_paths, master_seed, threads, censored=censored)
    return moments_from_chunks(chunks, grid, n_paths)


def _chunk_stats(block: np.ndarray):
    """(n, c, e, M2, M3) of one slab of rows: mean c + e, central sums M2 and M3.

    c is the rounded slab mean and e the mean of the deviations from it, so
    c + e is the sample mean to far below one ulp of c and M2, M3 are
    central about it.
    """
    n = block.shape[0]
    c = block.mean(axis=0)
    d = block - c
    e = d.sum(axis=0) / n
    d2 = d * d
    s2 = d2.sum(axis=0)
    d2 *= d  # now d^3: no third (rows, nodes) temporary
    M2 = s2 - n * e * e
    # cubes as products: numpy's power(x, 3) costs about 50 times as much
    M3 = d2.sum(axis=0) - 3.0 * e * s2 + 2.0 * n * (e * e * e)
    return n, c, e, M2, M3


def _merge_stats(a, b):
    """Pooled (n, c, e, M2, M3) of two disjoint samples (Chan, Golub & LeVeque 1979; Pebay 2008)."""
    na, ca, ea, M2a, M3a = a
    nb, cb, eb, M2b, M3b = b
    n = na + nb
    delta = (cb - ca) + (eb - ea)
    M2 = M2a + M2b + delta * delta * (na * nb / n)
    M3 = (
        M3a
        + M3b
        + delta * delta * delta * (na * nb * (na - nb) / n**2)
        + 3.0 * delta * (na * M2b - nb * M2a) / n
    )
    return n, ca, ea + delta * (nb / n), M2, M3


def moments_from_chunks(chunks, grid: TimeGrid, n_paths: int):
    """Sample mean, variance, third central moment and the SE of the mean from (start, block) chunks.

    The chunks together hold the n_paths rows of one ensemble on ``grid``,
    as :func:`iter_Z_chunks` yields them. Each chunk is cut into slabs
    (:func:`timebase.iter_slabs`), each slab is reduced to its count, mean
    and central sums M2, M3, and the slabs are merged pairwise in row order,
    equal counts first, so no raw power sum is formed: the variance and the
    third central moment keep their relative accuracy however large the mean
    is against the spread. The slabs are the leaves of the merge tree, so
    chunks cut on block boundaries give the same bits for any chunk size and
    thread count. Only one chunk is held at a time.
    """
    from .approx import MomentCurves  # MomentCurves lives with its consumers

    if n_paths < 2:
        raise ValueError("need at least 2 paths for moment estimation")
    stack = []  # (level, stats), levels strictly decreasing: a binary merge tree
    for _, slab in iter_slabs(chunks):
        level, stats = 0, _chunk_stats(slab)
        while stack and stack[-1][0] == level:
            stats = _merge_stats(stack.pop()[1], stats)
            level += 1
        stack.append((level, stats))
    if not stack:
        raise ValueError(f"no chunks, expected {n_paths} rows")
    stats = stack.pop()[1]
    while stack:
        stats = _merge_stats(stack.pop()[1], stats)
    n, c, e, M2, M3 = stats
    if n != n_paths:
        raise ValueError(f"chunks hold {n} rows, expected {n_paths}")
    M2 = np.maximum(M2, 0.0)  # rounding of identical rows
    return MomentCurves.from_central(
        grid, m1=c + e, var=M2 / n, mu3=M3 / n, se1=np.sqrt(M2 / (n - 1) / n)
    )
