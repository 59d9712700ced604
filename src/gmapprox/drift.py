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

Every variant also has an exact law for Z: :func:`cumulant_curves` returns
its first four cumulants at the grid nodes, which is all the order-2 and
order-4 approximants need.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np
from scipy.signal import lfilter

from .response import chain_states, response_moment_curves, response_power_means
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
    "dist_raw_moment",
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
    raise TypeError(f"not a distribution: {dist!r}")


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
        if isinstance(model.arrival, Exponential):
            # the response moment curves phi and psi divide by these differences
            lam = model.response_rate
            _check_distinct("arrival rate", model.arrival.rate, lam, "the response rate")
            _check_distinct("arrival rate", model.arrival.rate, 2 * lam, "twice the response rate")


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
    """Sample mean, variance and third central moment of Z(t) at each node.

    Returns a MomentCurves (n-denominator convention, so the variance is
    nonnegative) plus the standard error of the mean; see
    :func:`moments_from_chunks`.
    """
    chunks = iter_Z_chunks(model, theta, grid, n_paths, master_seed, threads)
    return moments_from_chunks(chunks, grid, n_paths)


def _chunk_stats(block: np.ndarray):
    """(n, c, e, M2, M3) of one block: mean c + e, central sums M2 and M3.

    c is the rounded block mean and e the mean of the deviations from it, so
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
    M3 = d2.sum(axis=0) - 3.0 * e * s2 + 2.0 * n * e**3
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
        + delta**3 * (na * nb * (na - nb) / n**2)
        + 3.0 * delta * (na * M2b - nb * M2a) / n
    )
    return n, ca, ea + delta * (nb / n), M2, M3


def moments_from_chunks(chunks, grid: TimeGrid, n_paths: int):
    """Sample mean, variance, third central moment and the SE of the mean from (start, block) chunks.

    The chunks together hold the n_paths rows of one ensemble on ``grid``,
    as :func:`iter_Z_chunks` yields them. Each chunk is reduced to its count,
    mean and central sums M2, M3 and the chunks are merged pairwise, equal
    counts first, so no raw power sum is formed: the variance and the third
    central moment keep their relative accuracy however large the mean is
    against the spread. Only one chunk is held at a time.
    """
    from .approx import MomentCurves  # MomentCurves lives with its consumers

    if n_paths < 2:
        raise ValueError("need at least 2 paths for moment estimation")
    stack = []  # (level, stats), levels strictly decreasing: a binary merge tree
    for _, block in chunks:
        level, stats = 0, _chunk_stats(block)
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
