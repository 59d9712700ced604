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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

import numpy as np
from scipy.signal import lfilter

from .response import response_moment_curves
from .timebase import (
    Curve,
    PathEnsemble,
    TimeGrid,
    derive_stream,
    exp_weighted_values,
    fill_row_blocks,
    fill_rows,
    stable_exp_diff,
)

__all__ = [
    "Exponential",
    "Gamma",
    "Uniform",
    "PoissonCount",
    "FixedCount",
    "PointMass",
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
    "dist_mean",
    "dist_second_moment",
    "dist_variance",
    "sample_dist",
    "validate_pairing",
    "sample_z_path",
    "sample_Z_path",
    "mean_z",
    "var_z",
    "moments_Z_mc",
    "moments_from_chunks",
    "z_path_ensemble",
    "Z_path_ensemble",
    "iter_Z_chunks",
    "event_kernel",
    "event_Z_rows",
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


@dataclass(frozen=True)
class PointMass:
    value: float


Distribution = Union[Exponential, Gamma, Uniform, PoissonCount, FixedCount, PointMass]


def dist_mean(dist: Distribution) -> float:
    if isinstance(dist, Exponential):
        return 1.0 / dist.rate
    if isinstance(dist, Gamma):
        return dist.shape / dist.rate
    if isinstance(dist, Uniform):
        return 0.5 * (dist.lo + dist.hi)
    if isinstance(dist, PoissonCount):
        return dist.mean
    if isinstance(dist, (FixedCount, PointMass)):
        return float(dist.value)
    raise TypeError(f"not a distribution: {dist!r}")


def dist_second_moment(dist: Distribution) -> float:
    if isinstance(dist, Exponential):
        return 2.0 / dist.rate**2
    if isinstance(dist, Gamma):
        return dist.shape * (dist.shape + 1) / dist.rate**2
    if isinstance(dist, Uniform):
        return (dist.lo**2 + dist.lo * dist.hi + dist.hi**2) / 3.0
    if isinstance(dist, PoissonCount):
        return dist.mean + dist.mean**2
    if isinstance(dist, (FixedCount, PointMass)):
        return float(dist.value) ** 2
    raise TypeError(f"not a distribution: {dist!r}")


def dist_variance(dist: Distribution) -> float:
    return dist_second_moment(dist) - dist_mean(dist) ** 2


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
    raise TypeError(f"not a distribution: {dist!r}")


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
    times T_i. Defaults mirror the embedded-neuron experiment.
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
        if isinstance(self.arrival, (Exponential, Gamma)):
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


# ---------------------------------------------------------------------------
# event machinery

_EVENT_MODELS = (Poisson, CompoundPoisson, ShotNoise)

# Cells (rows x nodes) evaluated per pass of the event kernel: bounds its
# transient arrays at a few MiB whatever the chunk size and node count.
_KERNEL_CELLS = 2**17


def _draw_events(model, grid: TimeGrid, stream) -> tuple[np.ndarray, np.ndarray]:
    """Event times and weights of one path of an event-driven drift."""
    if isinstance(model, ShotNoise):
        m = int(sample_dist(model.count, stream, 1)[0])
        betas = sample_dist(model.amplitude, stream, m)
        return sample_dist(model.arrival, stream, m), betas
    T = grid.horizon_T
    # sorted, because compound-Poisson jump sizes pair with the times in order
    times = np.sort(stream.uniform(0.0, T, stream.poisson(model.rate * T)))
    if isinstance(model, Poisson):
        return times, np.ones_like(times)
    return times, sample_dist(model.jump, stream, len(times))


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
    t = grid.times()
    n, m = grid.n_nodes, len(events)
    times = np.concatenate([np.asarray(e[0], dtype=float) for e in events])
    weights = np.concatenate([np.asarray(e[1], dtype=float) for e in events])
    row = np.repeat(np.arange(m), [len(e[0]) for e in events])
    cell = np.searchsorted(t, times)
    live = cell < n
    cell, times, weights = cell[live], times[live], weights[live]
    idx = row[live] * n + cell
    u = t[cell] - times

    def binned(values):
        # bincount gives int64 zeros when there are no events
        return np.bincount(idx, values, m * n).astype(float, copy=False).reshape(m, n)

    z = lfilter([1.0], [1.0, -np.exp(-lam * grid.dt)], binned(weights * np.exp(-lam * u)), axis=-1)
    if theta is None:
        return None, z
    c = binned(weights * stable_exp_diff(lam, theta, u))
    c[:, 1:] += stable_exp_diff(lam, theta, grid.dt) * z[:, :-1]
    return lfilter([1.0], [1.0, -np.exp(-theta * grid.dt)], c, axis=-1), z


def event_Z_rows(
    draw, start: int, stop: int, lam: float, theta: float, grid: TimeGrid, threads: int = 1
) -> np.ndarray:
    """Z rows of paths start..stop-1, where ``draw(lo, hi)`` lists the events of paths lo..hi-1.

    ``draw(lo, hi)`` returns one (times, weights) pair per path, and path i's
    pair must be a pure function of i. Rows go through :func:`event_kernel`
    in passes of at most _KERNEL_CELLS cells (at least one row), and each
    pass draws its paths with one ``draw`` call, so a caller can batch the
    work behind a pass. Each thread takes a contiguous range of rows, so
    memory stays bounded and a row's value does not depend on the thread
    count or on how the rows are chunked.
    """
    per_pass = max(1, _KERNEL_CELLS // grid.n_nodes)

    def fill_block(lo, hi, block):
        for a in range(lo, hi, per_pass):
            b = min(a + per_pass, hi)
            events = draw(start + a, start + b)
            block[a - lo : b - lo] = event_kernel(events, lam, theta, grid)[0]

    return fill_row_blocks(fill_block, stop - start, grid.n_nodes, threads)


def _brownian_z(model: BrownianDrift, grid: TimeGrid, stream) -> np.ndarray:
    t = grid.times()
    dW = stream.standard_normal(grid.n_steps) * np.sqrt(grid.dt)
    w = np.concatenate(([0.0], np.cumsum(dW)))
    return w + model.trend * t


def _ou_z(model: OUDrift, grid: TimeGrid, stream) -> np.ndarray:
    lam, dt = model.rate, grid.dt
    a = np.exp(-lam * dt)
    s = model.sigma_u * np.sqrt(-np.expm1(-2 * lam * dt) / (2 * lam))
    x = np.zeros(grid.n_nodes)
    x[1:] = s * stream.standard_normal(grid.n_steps)
    return lfilter([1.0], [1.0, -a], x) + model.u0 * a ** np.arange(grid.n_nodes)


# ---------------------------------------------------------------------------
# path sampling

def sample_z_path(model: DriftModel, grid: TimeGrid, stream: np.random.Generator) -> Curve:
    """One realization of the drift z(t) evaluated at the grid nodes.

    Jump processes draw their event times in continuous time and evaluate the
    node values exactly (the event-driven ones as a one-row call of
    :func:`event_kernel`); diffusion drifts use exact Gaussian transitions
    between nodes.
    """
    if isinstance(model, Deterministic):
        _check_same_grid(model.f.grid, grid)
        return model.f
    if isinstance(model, SingleShot):
        tau = stream.exponential(1.0 / model.rate)
        return Curve(grid, (grid.times() >= tau).astype(float))
    if isinstance(model, _EVENT_MODELS):
        _, z = event_kernel([_draw_events(model, grid, stream)], _decay(model), None, grid)
        return Curve(grid, z[0])
    if isinstance(model, BrownianDrift):
        return Curve(grid, _brownian_z(model, grid, stream))
    if isinstance(model, OUDrift):
        return Curve(grid, _ou_z(model, grid, stream))
    raise TypeError(f"not a drift model: {model!r}")


def sample_Z_path(
    model: DriftModel, theta: float, grid: TimeGrid, stream: np.random.Generator
) -> Curve:
    """One realization of Z(t) = e^{-theta t} int_0^t z(s) e^{theta s} ds.

    Event-driven drifts are a one-row call of :func:`event_kernel` (no grid
    bias), the single shot uses its closed form, and the two diffusion-driven
    drifts pass a sampled z path through the exponential integrator.
    """
    validate_pairing(model, theta)
    if isinstance(model, Deterministic):
        _check_same_grid(model.f.grid, grid)
        return Curve(grid, exp_weighted_values(model.f.values, grid.dt, theta))
    if isinstance(model, SingleShot):
        tau = stream.exponential(1.0 / model.rate)
        u = np.maximum(grid.times() - tau, 0.0)
        return Curve(grid, -np.expm1(-theta * u) / theta)
    if isinstance(model, _EVENT_MODELS):
        Z, _ = event_kernel([_draw_events(model, grid, stream)], _decay(model), theta, grid)
        return Curve(grid, Z[0])
    if isinstance(model, (BrownianDrift, OUDrift)):
        z = sample_z_path(model, grid, stream)
        return Curve(grid, exp_weighted_values(z.values, grid.dt, theta))
    raise TypeError(f"not a drift model: {model!r}")


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
# ensembles and Monte Carlo moments

_CHUNK = 512


def z_path_ensemble(
    model: DriftModel, grid: TimeGrid, n_paths: int, master_seed: int, threads: int = 1
) -> PathEnsemble:
    """n_paths independent z realizations, row i from derive_stream(seed, i)."""
    build = lambda i: sample_z_path(model, grid, derive_stream(master_seed, i)).values
    values = fill_rows(build, n_paths, grid.n_nodes, threads)
    return PathEnsemble(grid, n_paths, values, master_seed)


def _Z_rows(model, theta, grid, master_seed, start, stop, threads) -> np.ndarray:
    """Rows start..stop-1 of the Z ensemble, row i from derive_stream(master_seed, i)."""
    if isinstance(model, _EVENT_MODELS):
        draw = lambda lo, hi: [
            _draw_events(model, grid, derive_stream(master_seed, i)) for i in range(lo, hi)
        ]
        return event_Z_rows(draw, start, stop, _decay(model), theta, grid, threads)
    build = lambda j: sample_Z_path(model, theta, grid, derive_stream(master_seed, start + j)).values
    return fill_rows(build, stop - start, grid.n_nodes, threads)


def Z_path_ensemble(
    model: DriftModel,
    theta: float,
    grid: TimeGrid,
    n_paths: int,
    master_seed: int,
    threads: int = 1,
) -> PathEnsemble:
    """n_paths independent Z realizations, row i from derive_stream(seed, i).

    Event-driven drifts evaluate all rows through the batched
    :func:`event_Z_rows`; the other variants build row i with
    :func:`sample_Z_path`. Row i equals ``sample_Z_path`` on the same stream
    bit for bit, and the matrix does not depend on ``threads``.
    """
    validate_pairing(model, theta)
    values = _Z_rows(model, theta, grid, master_seed, 0, n_paths, threads)
    return PathEnsemble(grid, n_paths, values, master_seed)


def iter_Z_chunks(
    model: DriftModel,
    theta: float,
    grid: TimeGrid,
    n_paths: int,
    master_seed: int,
    threads: int = 1,
    chunk: int = _CHUNK,
):
    """Yield (start_index, chunk_matrix) blocks of the Z ensemble.

    Streaming form of :func:`Z_path_ensemble` for workloads where the full
    n_paths x n_nodes matrix would be wastefully large. Each block is built
    the same way as the ensemble (event-driven drifts in batched kernel
    passes), so the concatenation of the chunks is bit-identical to the
    materialized ensemble for any chunk size and thread count.
    """
    validate_pairing(model, theta)
    for start in range(0, n_paths, chunk):
        stop = min(start + chunk, n_paths)
        yield start, _Z_rows(model, theta, grid, master_seed, start, stop, threads)


def moments_Z_mc(
    model: DriftModel,
    theta: float,
    grid: TimeGrid,
    n_paths: int,
    master_seed: int,
    threads: int = 1,
):
    """Plain sample moments m1, m2, m3 of Z(t) at each node over n_paths paths.

    Returns a MomentCurves holding E[Z], E[Z^2], E[Z^3] estimates plus the
    standard error of m1. Moments use the n-denominator convention so the
    implied variance m2 - m1^2 is nonnegative by construction.
    """
    chunks = iter_Z_chunks(model, theta, grid, n_paths, master_seed, threads)
    return moments_from_chunks(chunks, grid, n_paths)


def moments_from_chunks(chunks, grid: TimeGrid, n_paths: int):
    """Plain sample moments m1, m2, m3 and the SE of m1 from (start, block) chunks.

    The chunks together hold the n_paths rows of one ensemble on ``grid``,
    as :func:`iter_Z_chunks` yields them. The power sums are accumulated
    chunk by chunk, so only one chunk is held at a time.
    """
    from .approx import MomentCurves  # MomentCurves lives with its consumers

    if n_paths < 2:
        raise ValueError("need at least 2 paths for moment estimation")
    s1 = np.zeros(grid.n_nodes)
    s2 = np.zeros(grid.n_nodes)
    s3 = np.zeros(grid.n_nodes)
    for _, block in chunks:
        s1 += block.sum(axis=0)
        b2 = block * block
        s2 += b2.sum(axis=0)
        s3 += (b2 * block).sum(axis=0)
    m1 = s1 / n_paths
    m2 = s2 / n_paths
    m3 = s3 / n_paths
    var1 = np.maximum(s2 - n_paths * m1**2, 0.0) / (n_paths - 1)
    se1 = np.sqrt(var1 / n_paths)
    return MomentCurves(
        grid=grid,
        m1=Curve(grid, m1),
        m2=Curve(grid, m2),
        m3=Curve(grid, m3),
        se1=Curve(grid, se1),
    )
