"""The zoo of stochastic drift processes z(t) and their damped accumulations.

Each drift variant can produce three things: a sampled z path at the grid
nodes, a sampled path of the damped accumulation

    Z(t) = e^{-theta t} int_0^t z(s) e^{theta s} ds,

and exact mean/variance curves of z. Jump-driven variants keep their event
times in continuous time and evaluate Z through the per-event closed form, so
the grid introduces no bias; the two diffusion-driven variants sample z with
exact Gaussian transitions and pass it through the shared exponential
integrator.
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
    "z_path_ensemble",
    "Z_path_ensemble",
    "iter_Z_chunks",
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

def _draw_poisson_times(rate: float, T: float, stream) -> np.ndarray:
    """Event times of a rate-`rate` Poisson process on [0, T], sorted."""
    n = stream.poisson(rate * T)
    return np.sort(stream.uniform(0.0, T, n))


def _jump_kernel_path(times, weights, theta, t) -> np.ndarray:
    """sum_i w_i (1 - e^{-theta (t - T_i)}) / theta over events with T_i <= t.

    Evaluated through prefix sums of w_i and w_i e^{theta T_i} over the sorted
    events plus one searchsorted per node, which keeps the per-path cost
    linear in the number of nodes.
    """
    if len(times) == 0:
        return np.zeros_like(t)
    if theta * times[-1] > 300.0:  # prefix-sum form would overflow; do it directly
        u = t[None, :] - times[:, None]
        return np.sum(np.where(u >= 0, -np.expm1(-theta * np.maximum(u, 0.0)), 0.0) * weights[:, None], axis=0) / theta
    idx = np.searchsorted(times, t, side="right")
    c1 = np.concatenate(([0.0], np.cumsum(weights)))
    c2 = np.concatenate(([0.0], np.cumsum(weights * np.exp(theta * times))))
    return (c1[idx] - np.exp(-theta * t) * c2[idx]) / theta


def _shot_kernel_path(times, betas, lam, theta, t) -> np.ndarray:
    """sum_i beta_i (e^{-lam (t-T_i)} - e^{-theta (t-T_i)}) / (theta - lam), T_i <= t."""
    if len(times) == 0:
        return np.zeros_like(t)
    if max(lam, theta) * times[-1] > 300.0:
        u = t[None, :] - times[:, None]
        live = u >= 0
        u = np.maximum(u, 0.0)
        resp = stable_exp_diff(lam, theta, u.ravel()).reshape(u.shape)
        return np.sum(np.where(live, resp, 0.0) * betas[:, None], axis=0)
    idx = np.searchsorted(times, t, side="right")
    a1 = np.concatenate(([0.0], np.cumsum(betas * np.exp(lam * times))))
    a2 = np.concatenate(([0.0], np.cumsum(betas * np.exp(theta * times))))
    return (np.exp(-lam * t) * a1[idx] - np.exp(-theta * t) * a2[idx]) / (theta - lam)


def _shot_z_path(times, betas, lam, t) -> np.ndarray:
    """sum_i beta_i e^{-lam (t - T_i)} over events with T_i <= t."""
    if len(times) == 0:
        return np.zeros_like(t)
    if lam * times[-1] > 300.0:
        u = t[None, :] - times[:, None]
        return np.sum(
            np.where(u >= 0, np.exp(-lam * np.maximum(u, 0.0)), 0.0) * betas[:, None], axis=0
        )
    idx = np.searchsorted(times, t, side="right")
    a1 = np.concatenate(([0.0], np.cumsum(betas * np.exp(lam * times))))
    return np.exp(-lam * t) * a1[idx]


def _shot_events(model: ShotNoise, stream) -> tuple[np.ndarray, np.ndarray]:
    m = int(sample_dist(model.count, stream, 1)[0])
    if m == 0:
        return np.empty(0), np.empty(0)
    betas = np.asarray(sample_dist(model.amplitude, stream, m), dtype=float)
    taus = np.asarray(sample_dist(model.arrival, stream, m), dtype=float)
    order = np.argsort(taus, kind="stable")
    return taus[order], betas[order]


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
    node values exactly; diffusion drifts use exact Gaussian transitions
    between nodes.
    """
    t = grid.times()
    T = grid.horizon_T
    if isinstance(model, Deterministic):
        _check_same_grid(model.f.grid, grid)
        return model.f
    if isinstance(model, SingleShot):
        tau = stream.exponential(1.0 / model.rate)
        return Curve(grid, (t >= tau).astype(float))
    if isinstance(model, Poisson):
        times = _draw_poisson_times(model.rate, T, stream)
        return Curve(grid, np.searchsorted(times, t, side="right").astype(float))
    if isinstance(model, CompoundPoisson):
        times = _draw_poisson_times(model.rate, T, stream)
        jumps = np.asarray(sample_dist(model.jump, stream, len(times)), dtype=float)
        csum = np.concatenate(([0.0], np.cumsum(jumps)))
        return Curve(grid, csum[np.searchsorted(times, t, side="right")])
    if isinstance(model, ShotNoise):
        taus, betas = _shot_events(model, stream)
        return Curve(grid, _shot_z_path(taus, betas, model.response_rate, t))
    if isinstance(model, BrownianDrift):
        return Curve(grid, _brownian_z(model, grid, stream))
    if isinstance(model, OUDrift):
        return Curve(grid, _ou_z(model, grid, stream))
    raise TypeError(f"not a drift model: {model!r}")


def sample_Z_path(
    model: DriftModel, theta: float, grid: TimeGrid, stream: np.random.Generator
) -> Curve:
    """One realization of Z(t) = e^{-theta t} int_0^t z(s) e^{theta s} ds.

    Uses the per-event closed form for jump-driven drifts (no grid bias) and
    the exponential integrator applied to a sampled z path for the two
    diffusion-driven drifts.
    """
    validate_pairing(model, theta)
    t = grid.times()
    T = grid.horizon_T
    if isinstance(model, Deterministic):
        _check_same_grid(model.f.grid, grid)
        return Curve(grid, exp_weighted_values(model.f.values, grid.dt, theta))
    if isinstance(model, SingleShot):
        tau = stream.exponential(1.0 / model.rate)
        u = np.maximum(t - tau, 0.0)
        return Curve(grid, -np.expm1(-theta * u) / theta)
    if isinstance(model, Poisson):
        times = _draw_poisson_times(model.rate, T, stream)
        return Curve(grid, _jump_kernel_path(times, np.ones_like(times), theta, t))
    if isinstance(model, CompoundPoisson):
        times = _draw_poisson_times(model.rate, T, stream)
        jumps = np.asarray(sample_dist(model.jump, stream, len(times)), dtype=float)
        return Curve(grid, _jump_kernel_path(times, jumps, theta, t))
    if isinstance(model, ShotNoise):
        taus, betas = _shot_events(model, stream)
        keep = taus <= T  # later events never influence [0, T]
        return Curve(
            grid, _shot_kernel_path(taus[keep], betas[keep], model.response_rate, theta, t)
        )
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


def Z_path_ensemble(
    model: DriftModel,
    theta: float,
    grid: TimeGrid,
    n_paths: int,
    master_seed: int,
    threads: int = 1,
) -> PathEnsemble:
    """n_paths independent Z realizations, row i from derive_stream(seed, i)."""
    validate_pairing(model, theta)
    build = lambda i: sample_Z_path(model, theta, grid, derive_stream(master_seed, i)).values
    values = fill_rows(build, n_paths, grid.n_nodes, threads)
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
    n_paths x n_nodes matrix would be wastefully large; the concatenation of
    the chunks is bit-identical to the materialized ensemble.
    """
    validate_pairing(model, theta)
    for start in range(0, n_paths, chunk):
        stop = min(start + chunk, n_paths)
        build = lambda j: sample_Z_path(
            model, theta, grid, derive_stream(master_seed, start + j)
        ).values
        yield start, fill_rows(build, stop - start, grid.n_nodes, threads)


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
    from .approx import MomentCurves  # MomentCurves lives with its consumers

    if n_paths < 2:
        raise ValueError("need at least 2 paths for moment estimation")
    s1 = np.zeros(grid.n_nodes)
    s2 = np.zeros(grid.n_nodes)
    s3 = np.zeros(grid.n_nodes)
    for _, block in iter_Z_chunks(model, theta, grid, n_paths, master_seed, threads):
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
