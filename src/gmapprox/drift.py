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
the variant's block sampler (:func:`_block_sampler`), a generator that hands
the block out pass by pass, one reducer slab of at most
``timebase._KERNEL_CELLS`` cells at a time, so no block is ever held whole;
a single path is a block of one row drawn from the stream it is given.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Union

import numpy as np

from .response import chain_states, response_moment_curves, response_power_means
from .timebase import (
    Curve,
    PathEnsemble,
    TimeGrid,
    block_stream,
    exp_weight_in_place,
    exp_weighted_values,
    iter_block_passes,
    iter_slabs,
    one_pole,
    pole_band,
    slab_rows,
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
    "Z_path_ensemble",
    "iter_Z_chunks",
    "event_kernel",
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
    shape = (len(events), grid.n_nodes)
    z_only = _EventKernel(lam, None, grid)
    z = z_only.rows(z_only.terms(times, weights, row), 0, np.empty(shape), None)
    if theta is None:
        return None, z
    kernel = _EventKernel(lam, theta, grid)
    Z = kernel.rows(kernel.terms(times, weights, row), 0, np.empty(shape), np.empty(shape[0] * shape[1]))
    return Z, z


class _EventKernel:
    """:func:`event_kernel` on one grid, pass by pass, in caller-owned arrays.

    The node times, the bands of the two recurrences and K(dt) are built
    once, for every pass of every block.
    """

    def __init__(self, lam: float, theta: float | None, grid: TimeGrid):
        self.t, self.n = grid.times(), grid.n_nodes
        self.lam, self.theta = lam, theta
        self.z_band = pole_band(np.exp(-lam * grid.dt), self.n)
        if theta is not None:
            self.Z_band = pole_band(np.exp(-theta * grid.dt), self.n)
            self.k_dt = stable_exp_diff(lam, theta, grid.dt)

    def terms(self, times, weights, row):
        """(row, cell, z term, Z term) of the events that reach a node; ``row`` is nondecreasing.

        The terms are an event's exact contributions at the node that closes
        its cell; the Z term is None when theta is None.
        """
        cell = np.searchsorted(self.t, times)
        live = cell < self.n
        row, cell, times, weights = row[live], cell[live], times[live], weights[live]
        u = self.t[cell] - times
        Z_term = None if self.theta is None else weights * stable_exp_diff(self.lam, self.theta, u)
        return row, cell, weights * np.exp(-self.lam * u), Z_term

    def rows(self, terms, lo: int, out, ws):
        """Z (z when theta is None) of rows lo.. into ``out``, a C-contiguous (rows, n) array.

        ``ws`` holds at least ``out.size`` cells for z; it is not read when
        theta is None. Events are binned by ``fill(0)`` and ``np.add.at``,
        which add each bin's terms in event order, as ``np.bincount`` does.
        """
        row, cell, z_term, Z_term = terms
        e0, e1 = np.searchsorted(row, (lo, lo + len(out)))
        idx = (row[e0:e1] - lo) * self.n + cell[e0:e1]
        z = out if Z_term is None else ws[: out.size].reshape(out.shape)
        z.fill(0.0)
        np.add.at(z.reshape(-1), idx, z_term[e0:e1])
        one_pole(z, self.z_band)
        if Z_term is None:
            return z
        out.fill(0.0)
        np.add.at(out.reshape(-1), idx, Z_term[e0:e1])
        z[:, :-1] *= self.k_dt  # z is spent: K(dt) z_{k-1} in place
        out[:, 1:] += z[:, :-1]
        return one_pole(out, self.Z_band)


def _block_sampler(model: DriftModel, theta: float | None, grid: TimeGrid, tally=None):
    """``passes(stream, rows, take, ws)``: the Z rows (z when theta is None) of one block, pass by pass.

    A generator over the block's ``rows`` ensemble rows, all drawn from
    ``stream``: each pass fills the first rows of the array ``take()``
    returns with the next :func:`timebase.slab_rows` rows of the block (or
    what is left of it) and yields them. The stream and the block's drawn
    events persist from pass to pass, and the pass-sized transients live in
    ``ws``, a flat scratch array of at least a pass's cells (see
    :func:`timebase.iter_block_passes`), so the pass loop allocates nothing
    of pass size. The draws, in stream order:

    - single shot: one exponential vector of the block's shot times;
    - Brownian and OU: a (pass rows, n_steps) matrix of normals per pass;
    - event variants: counts, times and weights of all ``rows`` rows, one
      call each (:func:`_draw_block_events`);
    - deterministic drifts draw nothing.

    A row's values are a function of its own draws, so they do not depend on
    the pass size. An event sampler given a ``tally`` list appends
    (censored, drawn), the infinite and all event times of the block, as the
    generator starts.
    """
    dt, n = grid.dt, grid.n_nodes
    step = slab_rows(n)

    def cuts(rows, take):
        for a in range(0, rows, step):
            yield a, take()[: min(step, rows - a)]

    if isinstance(model, Deterministic):
        _check_same_grid(model.f.grid, grid)
        curve = model.f.values if theta is None else exp_weighted_values(model.f.values, dt, theta)

        def passes(stream, rows, take, ws):
            for _, out in cuts(rows, take):
                out[:] = curve
                yield out

    elif isinstance(model, SingleShot):
        t = grid.times()

        def passes(stream, rows, take, ws):
            tau = stream.exponential(1.0 / model.rate, size=rows)
            for a, out in cuts(rows, take):
                np.subtract(t, tau[a : a + len(out), None], out=out)
                if theta is None:
                    np.greater_equal(out, 0.0, out=out)
                else:
                    # Z = (1 - e^{-theta u}) / theta after the shot, u = t - tau
                    np.maximum(out, 0.0, out=out)
                    out *= -theta
                    np.expm1(out, out=out)
                    out /= -theta
                yield out

    elif isinstance(model, _EVENT_MODELS):
        kernel = _EventKernel(_decay(model), theta, grid)

        def passes(stream, rows, take, ws):
            times, weights, counts = _draw_block_events(model, grid, stream, rows)
            if tally is not None:
                tally.append((int(np.isinf(times).sum()), times.size))
            terms = kernel.terms(times, weights, np.repeat(np.arange(rows), counts))
            for a, out in cuts(rows, take):
                yield kernel.rows(terms, a, out, ws)

    elif isinstance(model, (BrownianDrift, OUDrift)):
        # z at the nodes, exact in distribution, from one row of n_steps normals per path
        brownian = isinstance(model, BrownianDrift)
        if brownian:
            scale, mean = np.sqrt(dt), model.trend * grid.times()
        else:
            lam = model.rate
            a = np.exp(-lam * dt)
            scale = model.sigma_u * np.sqrt(-np.expm1(-2 * lam * dt) / (2 * lam))
            mean, band = model.u0 * a ** np.arange(n), pole_band(a, n)
        if theta is not None:
            w = np.exp(-theta * dt)
            w_band = pole_band(w, n)

        def passes(stream, rows, take, ws):
            for _, out in cuts(rows, take):
                noise = ws[: len(out) * grid.n_steps].reshape(len(out), grid.n_steps)
                stream.standard_normal(out=noise)
                out[:, 0] = 0.0
                if brownian:
                    noise *= scale
                    np.cumsum(noise, axis=1, out=out[:, 1:])
                else:
                    np.multiply(noise, scale, out=out[:, 1:])
                    one_pole(out, band)
                out += mean
                if theta is not None:  # the spent normals are its scratch
                    exp_weight_in_place(out, w, dt, noise, w_band)
                yield out

    else:
        raise TypeError(f"not a drift model: {model!r}")
    return passes


def _pass_stream(model, theta, grid: TimeGrid, n_paths: int, master_seed: int, threads=1, tally=None):
    """(start, pass) of the n_paths-row ensemble (z when theta is None), block b from block_stream(seed, b)."""
    passes = _block_sampler(model, theta, grid, tally)
    block = lambda b, rows, take, ws: passes(block_stream(master_seed, b), rows, take, ws)
    return iter_block_passes(block, n_paths, grid.n_nodes, threads)


# ---------------------------------------------------------------------------
# path sampling

def _one_row(model, theta, grid: TimeGrid, stream) -> Curve:
    out = np.empty((1, grid.n_nodes))
    for _ in _block_sampler(model, theta, grid)(stream, 1, lambda: out, np.empty(grid.n_nodes)):
        pass
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

def Z_path_ensemble(
    model: DriftModel,
    theta: float,
    grid: TimeGrid,
    n_paths: int,
    master_seed: int,
    threads: int = 1,
) -> PathEnsemble:
    """n_paths independent Z realizations under the block-stream contract, as one matrix.

    The passes of :func:`iter_Z_chunks`, under the same censoring policy,
    copied into an (n_paths, n_nodes) matrix: rows i of block b = i // _BLOCK
    are drawn together from ``block_stream(seed, b)`` by the variant's block
    sampler (one exponential vector for the single shot, a normal matrix per
    pass for the diffusions, one vector per event quantity for the event
    variants). The matrix does not depend on ``threads``; a block holding
    one row equals ``sample_Z_path`` on the block's stream bit for bit.
    """
    values = np.empty((n_paths, grid.n_nodes))
    for start, rows in iter_Z_chunks(model, theta, grid, n_paths, master_seed, threads):
        values[start : start + len(rows)] = rows
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
    """Yield (start_index, chunk) row ranges of the Z ensemble, in row order.

    Streaming form of :func:`Z_path_ensemble`: the block samplers produce
    each block pass by pass (:func:`timebase.iter_block_passes`), and by
    default each chunk is one pass, :func:`timebase.slab_rows` rows counted
    from its block's first row, so a reducer's slabs are the passes
    themselves. A ``chunk`` of rows gathers the passes into chunks of that
    many rows. Either way a chunk is a view of a reused buffer, valid until
    the next chunk is requested: copy it to keep it. No block is ever held
    whole, every variate is drawn once, and the concatenation of the chunks
    is bit-identical to the materialized ensemble for any chunk size and
    thread count. With ``threads`` > 1 worker threads produce whole blocks
    ahead of the caller.

    The block samplers count the censored event times of their blocks, so
    once the last chunk is out the ensemble's (censored, drawn) event count
    is the same for any chunk size and thread count. It is appended to
    ``censored`` when that is a list, and an ensemble with more than half of
    its event times censored raises :class:`CensoringError`.
    """
    validate_pairing(model, theta)
    tally = []
    passes = _pass_stream(model, theta, grid, n_paths, master_seed, threads, tally)
    yield from _gather(passes, chunk, n_paths, grid.n_nodes) if chunk else passes
    lost, drawn = sum(c for c, _ in tally), sum(n for _, n in tally)
    if censored is not None:
        censored.append((lost, drawn))
    if 2 * lost > drawn:
        raise CensoringError(f"{lost} of {drawn} event times are censored; raise horizon_cap")


def _gather(passes, chunk: int, n_paths: int, n_nodes: int):
    """The rows of (start, pass) pairs regrouped as (start, chunk) views of one chunk-sized buffer."""
    buf = np.empty((min(chunk, n_paths), n_nodes))
    start = held = 0
    for _, rows in passes:
        while len(rows):
            k = min(len(buf) - held, len(rows))
            buf[held : held + k] = rows[:k]
            held, rows = held + k, rows[k:]
            if held == len(buf):
                yield start, buf
                start, held = start + held, 0
    if held:
        yield start, buf[:held]


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


def _chunk_stats(block: np.ndarray, ws: np.ndarray):
    """(n, c, e, M2, M3) of one slab of rows: mean c + e, central sums M2 and M3.

    c is the rounded slab mean and e the mean of the deviations from it, so
    c + e is the sample mean to far below one ulp of c and M2, M3 are
    central about it. The deviations and their powers go to ``ws``, which
    holds at least twice the slab's cells.
    """
    n, size = block.shape[0], block.size
    c = block.mean(axis=0)
    d = np.subtract(block, c, out=ws[:size].reshape(block.shape))
    e = d.sum(axis=0) / n
    d2 = np.multiply(d, d, out=ws[size : 2 * size].reshape(block.shape))
    s2 = d2.sum(axis=0)
    d2 *= d  # now d^3
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
    thread count. The slab transients live in one work array, so besides the
    chunk being read only the merge stack's per-node sums are held: about
    log2 of the slab count of them.
    """
    from .approx import MomentCurves  # MomentCurves lives with its consumers

    if n_paths < 2:
        raise ValueError("need at least 2 paths for moment estimation")
    stack = []  # (level, stats), levels strictly decreasing: a binary merge tree
    ws = np.empty(0)  # deviations and their powers, for every slab
    for _, slab in iter_slabs(chunks):
        if ws.size < 2 * slab.size:
            ws = np.empty(2 * slab.size)
        level, stats = 0, _chunk_stats(slab, ws)
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
