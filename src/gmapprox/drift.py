"""The zoo of stochastic drift processes z(t) and their damped accumulations.

The approximants, the costs and the d2 bound see the drift only through its
damped accumulation

    Z(t) = e^{-theta t} int_0^t z(s) e^{theta s} ds,

so each drift variant samples Z paths at the grid nodes and has exact
mean/variance curves of z. The event-driven variants (Poisson, compound
Poisson, shot noise) are one family of three laws: each path's event count,
the events' times in continuous time, and their weights. Each pass draws
its rows' counts, then their times, then their weights, one ``sample`` call
each; a compound Poisson drift's laws are PoissonCount(rate T),
Uniform(0, T) and its jump law. One batched kernel evaluates Z from the
events of a pass's paths at once: each event's exact contribution inside
its grid cell is binned, then two exact exponential recurrences run along
the time axis, so the grid introduces no bias and the cost is
O(events + nodes). The single shot keeps
a closed form for its sampler only. The Brownian and OU drifts are one
Gaussian family (Brownian is rate 0 plus a trend) with one sampler: z minus
its mean by its exact transition, the trapezoid exponential integrator,
then the exact mean of Z.

Every variant has an exact law for Z: :func:`cumulant_curves` returns its
first four cumulants at the grid nodes, which is all the order-2 and order-4
approximants need. That includes a shot noise whose event times are the
first passages of LIF input neurons (:class:`SimulatedFiring`, the embedded
neuron's network): their law is solved once per instance on the sim_dt grid
(:func:`neuro.first_passage_law`), and sampling and the cumulants both read
that one tabulated law. An input that never fires before its cap has an
infinite (censored) event time, which never reaches a grid node.

Each law and each variant carries its own behaviour as methods (listed
where their sections open); the public functions check their arguments and
call them.

Ensembles follow the block-stream contract of :mod:`timebase`: the rows of
block b = i // _BLOCK are sampled from ``derive_stream(seed, b)`` by the
variant's block sampler (its ``_block_sampler`` method, see
:func:`iter_Z_chunks`), a function that fills one pass of at most
``timebase._KERNEL_CELLS`` cells from where the block's stream stands, so
no block is ever held whole; the reducers fold each block's passes as they
come. A single path is a pass of one row drawn from the stream it is given.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, reduce
from typing import Union

import numpy as np

from .response import (
    _cell_convolution,
    _chain_expm,
    _gamma_convolution,
    chain_states,
    response_moment_curves,
    response_power_means,
)
from .timebase import (
    BlockStream,
    Curve,
    PathEnsemble,
    PoleRun,
    TimeGrid,
    derive_stream,
    exp_weight_in_place,
    exp_weighted_values,
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
    "CensoringError",
    "sample_Z_path",
    "mean_z",
    "var_z",
    "cumulant_curves",
    "moments_Z_mc",
    "moments_from_chunks",
    "Z_path_ensemble",
    "iter_Z_chunks",
]


class CensoringError(ArithmeticError):
    """More than half of a law's event times are censored (never happen before its cap)."""


# ---------------------------------------------------------------------------
# distributions
#
# A law has ``sample(stream, size)``, ``raw_moment(n)`` and ``censored``, the
# share of infinite draws. A law of event times T also has
# ``chain_mean(rates, grid)``: E[v(t - T) 1{T <= t}] at the nodes for the
# chain v of the list ``rates`` (:mod:`response`), all shot noise needs.

class _Law:
    """What a law has unless it says otherwise: no censored mass, no moments, no chain means."""

    censored = 0.0

    def raw_moment(self, n: int) -> float:
        """E[X^n] for n = 1..4."""
        raise TypeError(f"no closed-form moments for {self!r}")

    def chain_mean(self, rates: list, grid: TimeGrid) -> np.ndarray:
        raise ValueError(f"unsupported arrival distribution: {type(self).__name__}")


@dataclass(frozen=True)
class Exponential(_Law):
    rate: float

    def __post_init__(self):
        if self.rate <= 0:
            raise ValueError(f"exponential rate must be positive, got {self.rate}")

    def raw_moment(self, n: int) -> float:
        return math.factorial(n) / self.rate**n

    def sample(self, stream: np.random.Generator, size: int):
        return stream.exponential(scale=1.0 / self.rate, size=size)

    def chain_mean(self, rates: list, grid: TimeGrid) -> np.ndarray:
        # the density nu e^{-nu s} prepends its rate to the chain
        return self.rate * chain_states([self.rate] + rates, grid)[-1]


@dataclass(frozen=True)
class Gamma(_Law):
    rate: float
    shape: float

    def __post_init__(self):
        if self.rate <= 0 or self.shape <= 0:
            raise ValueError("gamma rate and shape must be positive")

    def raw_moment(self, n: int) -> float:
        return math.prod(self.shape + j for j in range(n)) / self.rate**n

    def sample(self, stream: np.random.Generator, size: int):
        return stream.gamma(shape=self.shape, scale=1.0 / self.rate, size=size)

    def chain_mean(self, rates: list, grid: TimeGrid) -> np.ndarray:
        return _gamma_convolution(rates, self.rate, self.shape, grid)[-1]


@dataclass(frozen=True)
class Uniform(_Law):
    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError(f"uniform needs lo < hi, got [{self.lo}, {self.hi}]")

    def raw_moment(self, n: int) -> float:
        # (hi^{n+1} - lo^{n+1}) / ((n + 1)(hi - lo)) without the subtraction
        return sum(self.hi**j * self.lo ** (n - j) for j in range(n + 1)) / (n + 1)

    def sample(self, stream: np.random.Generator, size: int):
        return stream.uniform(self.lo, self.hi, size=size)

    def chain_mean(self, rates: list, grid: TimeGrid) -> np.ndarray:
        """The chain averaged over the arrival window [lo, hi]."""
        lo, hi = self.lo, self.hi
        if lo < 0:
            raise ValueError("firing-time support must be nonnegative")
        aug = [0.0] + rates  # integrates the chain: row j + 1 is int_0^u v_j
        inside = chain_states(aug, grid, start=lo)[-1]
        window = _chain_expm(aug, hi - lo)[1:, 0]  # int_0^{hi - lo} v(x) dx
        after = chain_states(rates, grid, start=hi, v0=window)[-1]
        return np.where(grid.times() < hi, inside, after) / (hi - lo)


@dataclass(frozen=True)
class PoissonCount(_Law):
    mean: float

    def __post_init__(self):
        if self.mean <= 0:
            raise ValueError(f"poisson count mean must be positive, got {self.mean}")

    def raw_moment(self, n: int) -> float:
        # Touchard polynomial: sum over k of S(n, k) mean^k
        stirling = {1: (1,), 2: (1, 1), 3: (1, 3, 1), 4: (1, 7, 6, 1)}[n]
        return sum(c * self.mean ** (k + 1) for k, c in enumerate(stirling))

    def sample(self, stream: np.random.Generator, size: int):
        return stream.poisson(self.mean, size=size)

    def _sum_cumulants(self, raw: np.ndarray) -> np.ndarray:
        """Cumulants of a sum of this many i.i.d. terms with raw moments ``raw``: E[M] E[X^n]."""
        return self.mean * raw


@dataclass(frozen=True)
class FixedCount(_Law):
    value: int

    def __post_init__(self):
        if self.value < 1:
            raise ValueError(f"fixed count must be >= 1, got {self.value}")
        # the sampler draws int(value) events, so the moments must use the same count
        if not float(self.value).is_integer():
            raise ValueError(f"fixed count must be an integer, got {self.value}")
        object.__setattr__(self, "value", int(self.value))

    def raw_moment(self, n: int) -> float:
        return float(self.value) ** n

    def sample(self, stream: np.random.Generator, size: int):
        return np.full(size, self.value, dtype=int)

    def _sum_cumulants(self, raw: np.ndarray) -> np.ndarray:
        """Cumulants of a sum of this many i.i.d. terms with raw moments ``raw``: N kappa_n(X)."""
        return self.value * _cumulants_from_raw(raw)


@dataclass(frozen=True)
class PointMass(_Law):
    value: float

    def raw_moment(self, n: int) -> float:
        return float(self.value) ** n

    def sample(self, stream: np.random.Generator, size: int):
        return np.full(size, self.value, dtype=float)

    @property
    def censored(self) -> float:
        return float(math.isinf(self.value))

    def chain_mean(self, rates: list, grid: TimeGrid) -> np.ndarray:
        """The chain shifted to start at the point."""
        if self.value < 0:
            raise ValueError("firing time must be nonnegative")
        return chain_states(rates, grid, start=self.value)[-1]


@dataclass(frozen=True, eq=False)
class PiecewiseUniform(_Law):
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
        if not np.all(np.isfinite(c)) or np.any(np.diff(c) < 0) or c[-1] > 1.0:
            raise ValueError("cdf must be finite, nondecreasing and at most 1")

    def sample(self, stream: np.random.Generator, size: int):
        # inverse CDF, one uniform per draw: cdf[k - 1] <= u < cdf[k] falls in cell k
        u = stream.random(size)
        k = np.searchsorted(self.cdf, u, side="right")
        out = np.full(size, math.inf)
        hit = k < self.cdf.size  # u >= cdf[-1]: never fires
        k, u = k[hit], u[hit]
        lo = self.cdf[k - 1]
        out[hit] = (k - 1 + (u - lo) / (self.cdf[k] - lo)) * self.dt
        return out

    @property
    def censored(self) -> float:
        return 1.0 - float(self.cdf[-1])

    def chain_mean(self, rates: list, grid: TimeGrid) -> np.ndarray:
        return _cell_convolution(rates, self, grid)[-1]


def _refuse_censored(law) -> None:
    """Raise :class:`CensoringError` for a law with more than half of its times censored."""
    if 2 * law.censored > 1:
        raise CensoringError(
            f"{law.censored:.2%} of the firing times are censored; raise horizon_cap,"
            " or refine sim_dt for a nearly noiseless input"
        )


@dataclass(frozen=True)
class SimulatedFiring(_Law):
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
        from .neuro import _cap_steps  # local import: neuro imports this module

        if self.sim_dt <= 0 or self.horizon_cap <= 0:
            raise ValueError("sim_dt and horizon_cap must be positive")
        _cap_steps(self.sim_dt, self.horizon_cap)  # ValueError for a cap below one step

    @cached_property
    def law(self) -> PointMass | PiecewiseUniform:
        from .neuro import first_passage_law  # local import: neuro imports this module

        return first_passage_law(self.neuron, self.sim_dt, self.horizon_cap)

    def sample(self, stream: np.random.Generator, size: int):
        return self.law.sample(stream, size)

    @property
    def censored(self) -> float:
        return self.law.censored

    def chain_mean(self, rates: list, grid: TimeGrid) -> np.ndarray:
        """The chain mean of :attr:`law`; ValueError unless the grid step is sim_dt.

        A law with more than half of its times censored raises :class:`CensoringError`.
        """
        if self.sim_dt != grid.dt:
            raise ValueError(f"simulated firing has sim_dt = {self.sim_dt}, the grid dt = {grid.dt}")
        _refuse_censored(self)
        return self.law.chain_mean(rates, grid)


Distribution = Union[
    Exponential, Gamma, Uniform, PoissonCount, FixedCount, PointMass, PiecewiseUniform, SimulatedFiring
]


# ---------------------------------------------------------------------------
# block samplers
#
# A variant's ``_block_sampler(theta, grid)`` returns ``fill(stream, out,
# ws)``, which fills ``out``, one pass of Z rows, with rows drawn next from
# ``stream``; :class:`timebase.BlockStream` calls it for each pass of a block
# in row order, on the block's stream. The pass-sized transients live in
# ``ws``, the worker's scratch array, so a pass allocates nothing of pass
# size beyond its own draws. The fold spends ``ws`` after each pass, so a
# sampler rewrites what it reads of it on every pass. A row's values are a
# function of its own draws. The event variants share one sampler,
# :func:`_event_sampler`: the pass's counts from the count law, then its
# event times, then its weights, and the kernel.


def _event_sampler(count, time, weight, lam: float, theta: float, grid: TimeGrid):
    """An event variant's sampler: each pass's events from three laws, then the kernel.

    Each pass draws its per-row event counts from ``count``, then the times
    of all its events from ``time``, then their weights from ``weight``, one
    ``sample`` call each, so a pass holds only its own events and its draws
    depend on the stream and the pass size only. A time law more than half
    censored raises :class:`CensoringError` here, before any block is drawn.
    """
    _refuse_censored(time)
    kernel = _EventKernel(lam, theta, grid)

    def fill(stream, out, ws):
        counts = count.sample(stream, len(out))
        times = time.sample(stream, counts.sum())
        kernel.rows(times, weight.sample(stream, counts.sum()), counts, out, ws)

    return fill


class _EventKernel:
    """Z at the grid nodes of one pass of paths given by their events, in caller-owned arrays.

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
    dropped. A row's values do not depend on the other rows. The node times,
    the :class:`timebase.PoleRun` of each recurrence and K(dt) are built
    once, for every pass of every block.
    """

    def __init__(self, lam: float, theta: float, grid: TimeGrid):
        self.t, self.n, self.dt = grid.times(), grid.n_nodes, grid.dt
        self.lam, self.theta = lam, theta
        self.z_run = PoleRun(np.exp(-lam * grid.dt), self.n)
        self.Z_run = PoleRun(np.exp(-theta * grid.dt), self.n)
        self.k_dt = stable_exp_diff(lam, theta, grid.dt)

    def rows(self, times, weights, counts, out, ws):
        """Z into ``out``, a C-contiguous (rows, n) array, of rows with ``counts`` events each.

        ``times`` and ``weights`` hold the events in row order. An event's
        terms are its exact contributions at the node that closes its cell.
        ``ws`` holds at least ``out.size`` cells, for the binned terms of
        each recurrence; z runs into ``out`` before Z does. Events are binned
        by ``fill(0)`` and ``np.add.at``, which add each bin's terms in event
        order, as ``np.bincount`` does.
        """
        live = times <= self.t[-1]
        times, weights = times[live], weights[live]
        cell = self.cells(times)
        idx = np.repeat(np.arange(0, out.size, self.n), counts)[live] + cell
        u = self.t[cell] - times
        x = ws[: out.size].reshape(out.shape)
        x.fill(0.0)
        np.add.at(x.reshape(-1), idx, weights * np.exp(-self.lam * u))
        z = self.z_run(x, out)
        x.fill(0.0)
        np.add.at(x.reshape(-1), idx, weights * stable_exp_diff(self.lam, self.theta, u))
        z[:, :-1] *= self.k_dt  # z is spent: K(dt) z_{k-1} in place
        x[:, 1:] += z[:, :-1]
        return self.Z_run(x, out)

    def cells(self, times):
        """Index of the first node t_k >= each time up to t_n, as ``np.searchsorted`` finds it.

        The grid is uniform, so ceil(time / dt), kept within 1..n - 1, is that
        node or one beside it (the quotient and each node k dt are rounded
        once); one step each way corrects it.
        """
        cell = np.ceil(times / self.dt).astype(np.intp)
        np.minimum(cell, self.n - 1, out=cell)
        np.maximum(cell, 1, out=cell)  # so that t[cell - 1] exists; the step down reaches 0
        cell -= self.t.take(cell - 1) >= times
        cell += self.t.take(cell) < times
        return cell


# ---------------------------------------------------------------------------
# drift variants
#
# A variant has its _block_sampler; _mean_z(grid), exact E[z] at the nodes;
# _var_z(grid, tail=()), D[z] damped by the chain of rates ``tail`` (D[z]
# itself for no tail, d2 for the tail [2 theta]) and whether that is exact;
# and _cumulants(theta, grid, kappa), which fills the rows of kappa with the
# cumulants of Z (rows it leaves are 0). Every closed form is a chain
# (:func:`response.chain_states`) or a :func:`timebase.stable_exp_diff`,
# exact at equal rates, so no drift rate has to differ from theta or from
# another rate, and appending a rate to a chain keeps it exact.


def _ramp_chain(theta: float, grid: TimeGrid) -> np.ndarray:
    """Row n + 1 is int_0^t K(u)^n du / n! with K(u) = (1 - e^{-theta u}) / theta, for n up to 4.

    One chain for every order, so a lower order reads the same rows bit for
    bit; its sums of nonnegative terms keep their relative accuracy at small
    theta t, where the closed form t / theta + expm1(-theta t) / theta^2 cancels.
    """
    return chain_states([0.0, 0.0, theta, 2 * theta, 3 * theta, 4 * theta], grid)


def _ramp_cumulants(w, theta: float, grid: TimeGrid, kappa: np.ndarray) -> None:
    """kappa_n = w_n int_0^t K(u)^n du with K(u) = (1 - e^{-theta u}) / theta, for n up to len(w)."""
    v = _ramp_chain(theta, grid)
    for n in range(1, min(len(kappa), len(w)) + 1):
        kappa[n - 1] = w[n - 1] * math.factorial(n) * v[n + 1]


@dataclass(frozen=True)
class SingleShot:
    """z jumps from 0 to 1 at a single exponential time with the given rate."""

    rate: float

    def __post_init__(self):
        if self.rate <= 0:
            raise ValueError(f"rate must be positive, got {self.rate}")

    def _block_sampler(self, theta: float, grid: TimeGrid):
        """One exponential vector of the pass's shot times, then the closed form."""
        t = grid.times()

        def fill(stream, out, ws):
            tau = stream.exponential(1.0 / self.rate, size=len(out))
            # Z = (1 - e^{-theta u}) / theta after the shot, u = t - tau
            np.subtract(t, tau[:, None], out=out)
            np.maximum(out, 0.0, out=out)
            out *= -theta
            np.expm1(out, out=out)
            out /= -theta

        return fill

    def _mean_z(self, grid: TimeGrid) -> np.ndarray:
        return -np.expm1(-self.rate * grid.times())

    def _var_z(self, grid: TimeGrid, tail=()):
        # D[z] = e^{-lam s} - e^{-2 lam s} = lam chain(lam, 2 lam)(s)
        lam = self.rate
        return lam * chain_states([lam, 2 * lam, *tail], grid)[-1], True

    def _cumulants(self, theta: float, grid: TimeGrid, kappa: np.ndarray) -> None:
        """Chain moments about 0 and about K(t) = (1 - e^{-theta t}) / theta; each node takes the nearer.

        About 0 they are the chain means of an exponential arrival (:func:`response.response_power_means`);
        about K(t), Z for a shot at t = 0, those of D = K(t) - Z: K(t) before the shot and
        e^{-theta (t - tau)} K(tau) after it, so E[D^n] = e^{-lam t} K(t)^n + lam n! chain(lam + j theta,
        j = 0..n, then n theta)(t). Both are sums of nonnegative terms, and about the centre nearer the
        mean the spread is of the order of the mean's distance from it, so neither conversion cancels.
        """
        lam, th, t, order = self.rate, theta, grid.times(), len(kappa)
        about0 = _cumulants_from_raw(response_power_means(Exponential(lam), 0.0, th, grid, order))
        K = -np.expm1(-th * t) / th
        about_K = _cumulants_from_raw(np.array([
            lam * math.factorial(n) * chain_states([lam + j * th for j in range(n + 1)] + [n * th], grid)[-1]
            + np.exp(-lam * t) * K**n for n in range(1, order + 1)]))
        about_K[0] = K - about_K[0]
        about_K[2:3] *= -1.0  # kappa_3 of Z is minus that of D
        kappa[:] = np.where(about0[0] > 0.5 * K, about_K, about0)


@dataclass(frozen=True)
class CompoundPoisson:
    """z(t) = sum of i.i.d. jump sizes at Poisson event times."""

    rate: float
    jump: Distribution = field(default_factory=lambda: Exponential(2.0))

    def __post_init__(self):
        if self.rate <= 0:
            raise ValueError(f"rate must be positive, got {self.rate}")

    def _block_sampler(self, theta: float, grid: TimeGrid):
        """A PoissonCount(rate T) of events per path at Uniform(0, T) times, weighted by the jump law."""
        T = grid.horizon_T
        return _event_sampler(PoissonCount(self.rate * T), Uniform(0.0, T), self.jump, 0.0, theta, grid)

    def _mean_z(self, grid: TimeGrid) -> np.ndarray:
        return self.rate * self.jump.raw_moment(1) * grid.times()

    def _var_z(self, grid: TimeGrid, tail=()):
        # the ramp D[z(s)] = rate E[J^2] s = rate E[J^2] chain(0, 0)(s)
        return self.rate * self.jump.raw_moment(2) * chain_states([0.0, 0.0, *tail], grid)[-1], True

    def _cumulants(self, theta: float, grid: TimeGrid, kappa: np.ndarray) -> None:
        """Campbell's theorem: kappa_n = rate E[J^n] int_0^t K(u)^n du, K(u) = (1 - e^{-theta u}) / theta."""
        w = [self.rate * self.jump.raw_moment(n) for n in range(1, len(kappa) + 1)]
        _ramp_cumulants(w, theta, grid, kappa)


@dataclass(frozen=True)
class Poisson(CompoundPoisson):
    """z(t) = N(t), a unit-jump Poisson counting process: the compound Poisson with jumps of 1."""

    jump: Distribution = field(default=PointMass(1.0), init=False)


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

    @property
    def censored(self) -> float:
        """The share of event times that never happen: the arrival law's censored mass."""
        return self.arrival.censored

    def _block_sampler(self, theta: float, grid: TimeGrid):
        return _event_sampler(self.count, self.arrival, self.amplitude, self.response_rate, theta, grid)

    def _mean_z(self, grid: TimeGrid) -> np.ndarray:
        phi = self.arrival.chain_mean([self.response_rate], grid)
        return self.count.raw_moment(1) * self.amplitude.raw_moment(1) * phi

    def _var_z(self, grid: TimeGrid, tail=()):
        """D[z] = E[beta]^2 (D[M] - E[M]) phi^2 + E[M] E[beta^2] psi, damped by ``tail``.

        For exponential arrivals phi = nu chain(nu, lam) and psi = nu chain(nu, 2 lam),
        so phi^2 is 2 nu^2 chain(2 nu, nu + lam, 2 lam), and damping appends the
        tail to each chain. Other arrivals damp the curve by the trapezoid
        exponential integrator, one rate at a time: exact only for no tail.
        """
        lam, em, eb = self.response_rate, self.count.raw_moment(1), self.amplitude.raw_moment(1)
        vm, eb2 = self.count.raw_moment(2) - em**2, self.amplitude.raw_moment(2)
        if isinstance(self.arrival, Exponential):
            nu = self.arrival.rate
            phi2 = 2 * nu**2 * chain_states([2 * nu, nu + lam, 2 * lam, *tail], grid)[-1]
            psi = nu * chain_states([nu, 2 * lam, *tail], grid)[-1]
            return eb**2 * phi2 * (vm - em) + em * eb2 * psi, True
        phi, psi = response_moment_curves(self.arrival, lam, grid)
        v = eb**2 * phi.values**2 * (vm - em) + em * eb2 * psi.values
        for rate in tail:
            v = exp_weighted_values(v, grid.dt, rate)
        return v, not tail

    def _cumulants(self, theta: float, grid: TimeGrid, kappa: np.ndarray) -> None:
        """Z is a count of i.i.d. terms X = beta K_lam(t - T) (Rice 1944).

        Their raw moments are E[beta^n] E[K_lam(t - T)^n]
        (:func:`response.response_power_means`), summed by the count.
        """
        order = len(kappa)
        means = response_power_means(self.arrival, self.response_rate, theta, grid, order)
        raw = np.array([self.amplitude.raw_moment(n) for n in range(1, order + 1)])[:, None] * means
        kappa[:] = self.count._sum_cumulants(raw)


@dataclass(frozen=True)
class _GaussianDrift:
    """z(t) = U(t) + trend * t with dU = -rate U dt + sigma_u dW~, U(0) = u0: the Gaussian drifts.

    Rate 0 makes U a Brownian motion. Every closed form is a chain
    (:func:`response.chain_states`) that covers rate 0. The variants fix the
    fields they do not take.
    """

    rate: float
    sigma_u: float
    u0: float
    trend: float

    def _block_sampler(self, theta: float, grid: TimeGrid):
        """z - E z at the nodes through the exact transition, one normal per step, then the integrator.

        The exact mean of Z is added after the integration, so the
        trapezoid rule acts on the zero-mean part alone.
        """
        dt, steps = grid.dt, grid.n_steps
        scale = self.sigma_u * np.sqrt(stable_exp_diff(0.0, 2 * self.rate, dt))
        z_run = PoleRun(np.exp(-self.rate * dt), steps)
        Z_run = PoleRun(np.exp(-theta * dt), steps)
        mean = np.zeros((1, grid.n_nodes))
        self._cumulants(theta, grid, mean)

        def fill(stream, out, ws):
            noise = ws[: len(out) * steps].reshape(len(out), steps)
            stream.standard_normal(out=noise)
            noise *= scale
            out[:, 0] = 0.0
            z_run(noise, out[:, 1:])
            exp_weight_in_place(out, Z_run, dt, noise)  # the spent normals are its scratch
            out += mean

        return fill

    def _mean_z(self, grid: TimeGrid) -> np.ndarray:
        t = grid.times()
        return self.u0 * np.exp(-self.rate * t) + self.trend * t

    def _var_z(self, grid: TimeGrid, tail=()):
        # D[z(s)] = sigma_u^2 chain(0, 2 rate)(s)
        return self.sigma_u**2 * chain_states([0.0, 2 * self.rate, *tail], grid)[-1], True

    def _cumulants(self, theta: float, grid: TimeGrid, kappa: np.ndarray) -> None:
        """Z is Gaussian with kappa_2 = sigma_u^2 int_0^t G(u)^2 du for the drift's kernel G.

        G(u) = (e^{-rate u} - e^{-theta u}) / (theta - rate), the response of Z to z.
        """
        lam, th, t = self.rate, theta, grid.times()
        # no ramp chain for a trend of 0 (every OU); + 0.0 keeps the t = 0 node +0.0 when u0 < 0
        ramp = self.trend * _ramp_chain(th, grid)[2] if self.trend else 0.0
        kappa[0] = self.u0 * stable_exp_diff(lam, th, t) + ramp
        if len(kappa) > 1:
            # G(u)^2 = 2 chain(2 lam, lam + theta, 2 theta), integrated once more
            v = chain_states([0.0, 2 * lam, lam + th, 2 * th], grid)
            kappa[1] = 2.0 * self.sigma_u**2 * v[3]


@dataclass(frozen=True)
class BrownianDrift(_GaussianDrift):
    """z(t) = W~(t) + trend * t for an independent Brownian motion W~."""

    rate: float = field(default=0.0, init=False)
    sigma_u: float = field(default=1.0, init=False)
    u0: float = field(default=0.0, init=False)
    trend: float = 0.0

    def __post_init__(self):
        if self.trend < 0:
            raise ValueError(f"trend must be nonnegative, got {self.trend}")


@dataclass(frozen=True)
class OUDrift(_GaussianDrift):
    """z(t) = U(t) with dU = -rate U dt + sigma_u dW~, U(0) = u0."""

    rate: float
    sigma_u: float = 1.0
    u0: float = 0.0
    trend: float = field(default=0.0, init=False)

    def __post_init__(self):
        if self.rate <= 0:
            raise ValueError(f"rate must be positive, got {self.rate}")
        if self.sigma_u < 0:
            raise ValueError(f"sigma_u must be nonnegative, got {self.sigma_u}")


@dataclass(frozen=True)
class Deterministic:
    """Degenerate drift: z is a fixed curve, independent of the stream."""

    f: Curve

    def _block_sampler(self, theta: float, grid: TimeGrid):
        """Draws nothing: every row is I f."""
        _check_same_grid(self.f.grid, grid)
        curve = exp_weighted_values(self.f.values, grid.dt, theta)

        def fill(stream, out, ws):
            out[:] = curve

        return fill

    def _mean_z(self, grid: TimeGrid) -> np.ndarray:
        _check_same_grid(self.f.grid, grid)
        return self.f.values

    def _var_z(self, grid: TimeGrid, tail=()):
        return np.zeros(grid.n_nodes), True

    def _cumulants(self, theta: float, grid: TimeGrid, kappa: np.ndarray) -> None:
        """kappa_1 = I f and no spread."""
        _check_same_grid(self.f.grid, grid)
        kappa[0] = exp_weighted_values(self.f.values, grid.dt, theta)


DriftModel = Union[
    SingleShot, Poisson, CompoundPoisson, ShotNoise, BrownianDrift, OUDrift, Deterministic
]


def _check_same_grid(a: TimeGrid, b: TimeGrid) -> None:
    if a != b:
        raise ValueError(f"grids differ: {a} vs {b}")


# ---------------------------------------------------------------------------
# the public entry points: checks, then the variant's method

def _check_theta(theta: float) -> None:
    if theta <= 0:
        raise ValueError(f"theta must be positive, got {theta}")


def sample_Z_path(
    model: DriftModel, theta: float, grid: TimeGrid, stream: np.random.Generator
) -> Curve:
    """One realization of Z(t) = e^{-theta t} int_0^t z(s) e^{theta s} ds.

    A one-row pass drawn from ``stream``, so it equals the row of an
    ensemble whose block holds that row alone. Event-driven drifts go
    through the batched event kernel (no grid bias), the single shot uses
    its closed form, and the Gaussian drifts pass a sampled z path through
    the exponential integrator.
    """
    _check_theta(theta)
    out = np.empty((1, grid.n_nodes))
    model._block_sampler(theta, grid)(stream, out, np.empty(grid.n_nodes))
    return Curve(grid, out[0])


def mean_z(model: DriftModel, grid: TimeGrid) -> Curve:
    """Exact E[z(t)] at the grid nodes."""
    return Curve(grid, model._mean_z(grid))


def var_z(model: DriftModel, grid: TimeGrid) -> Curve:
    """Exact D[z(t)] at the grid nodes."""
    return Curve(grid, model._var_z(grid)[0])


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

    Each variant's ``_cumulants`` gives them. The integrals are chains of
    exponential convolutions (:func:`response.chain_states`), which keep
    their relative accuracy at t -> 0 and at small theta t; the ramp drifts
    (Poisson, compound Poisson, a Brownian trend) and the single shot take
    kappa_1 from theirs too, while the OU drift keeps a closed-form mean.
    """
    _check_theta(theta)
    if not 1 <= order <= 4:
        raise ValueError(f"order must be 1..4, got {order}")
    kappa = np.zeros((order, grid.n_nodes))
    model._cumulants(theta, grid, kappa)
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

    The ``matrix()`` of :func:`iter_Z_chunks`, so it does not depend on
    ``threads``; a block holding one row equals ``sample_Z_path`` on the
    block's stream bit for bit.
    """
    values = iter_Z_chunks(model, theta, grid, n_paths, master_seed, threads).matrix()
    return PathEnsemble(grid, n_paths, values, master_seed)


def iter_Z_chunks(
    model: DriftModel,
    theta: float,
    grid: TimeGrid,
    n_paths: int,
    master_seed: int,
    threads: int = 1,
) -> BlockStream:
    """The Z ensemble as a :class:`timebase.BlockStream`, for ``threads`` workers.

    Its ``map(fold)`` fills the passes of block b, one after the other, by
    the variant's block sampler from the one stream
    ``derive_stream(master_seed, b)``, and yields ``fold`` of its (start,
    pass) pairs, in block order. A pass is :func:`timebase.slab_rows` rows
    counted from its block's first row (the block's last pass takes what is
    left), in a reused buffer: copy it to keep it. The passes in row order
    are the materialized ensemble, bit for bit.

    A shot noise whose arrival law is more than half censored raises
    :class:`CensoringError` here, before any block is drawn; the censored
    share itself is the law's (``ShotNoise.censored``).
    """
    _check_theta(theta)
    fill = model._block_sampler(theta, grid)

    def block(b):
        stream = derive_stream(master_seed, b)
        return lambda a, out, ws: fill(stream, out, ws)

    return BlockStream(block, n_paths, grid.n_nodes, threads)


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


def _chunk_stats(block: np.ndarray, ws: np.ndarray):
    """(n, c, e, M2, M3) of one slab of rows: mean c + e, central sums M2 and M3.

    c is the rounded slab mean and e the mean of the deviations from it, so
    c + e is the sample mean to far below one ulp of c and M2, M3 are
    central about it. The deviations and their powers go to ``ws``, which
    holds at least twice the slab's cells, as a block's scratch does.
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
    """Pooled (n, c, e, M2, M3) of two disjoint samples (Chan, Golub & LeVeque 1979; Pebay 2008); c is a's."""
    na, ca, ea, M2a, M3a = a
    nb, cb, eb, M2b, M3b = b
    n = na + nb
    delta = (cb - ca) + (eb - ea)
    cross = (na * M2b - nb * M2a) * (3.0 * delta) / n
    cube = delta * delta * delta * (na * nb * (na - nb) / n**2)
    M3 = M3a + M3b + cube + cross
    M2 = M2a + M2b + delta * delta * (na * nb / n)
    return n, ca, ea + delta * (nb / n), M2, M3


def moments_from_chunks(chunks, grid: TimeGrid, n_paths: int):
    """Sample mean, variance, third central moment and the SE of the mean of a block stream.

    ``chunks`` is what :func:`iter_Z_chunks` returns for the n_paths rows of
    one ensemble on ``grid``. Each pass is reduced, in its block's scratch
    array, to its count, mean and central sums M2, M3, and merged into its
    block's in row order; the blocks' stats are merged into the ensemble's
    in block order. No raw power sum is formed, so the variance and the
    third central moment keep their relative accuracy however large the
    mean is against the spread, and the merges run in the same order, to
    the same bits, for any thread count.
    """
    from .approx import MomentCurves  # MomentCurves lives with its consumers

    if n_paths < 2:
        raise ValueError("need at least 2 paths for moment estimation")

    def fold(pairs, ws):
        return reduce(_merge_stats, (_chunk_stats(slab, ws) for _, slab in pairs))

    n, c, e, M2, M3 = reduce(_merge_stats, chunks.map(fold))
    if n != n_paths:
        raise ValueError(f"the blocks hold {n} rows, expected {n_paths}")
    M2 = np.maximum(M2, 0.0)  # rounding of identical rows
    return MomentCurves.from_central(
        grid, m1=c + e, var=M2 / n, mu3=M3 / n, se1=np.sqrt(M2 / (n - 1) / n)
    )
