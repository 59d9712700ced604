"""The zoo of stochastic drift processes z(t) and their damped accumulations.

The approximants, the costs and the d2 bound see the drift only through its
damped accumulation

    Z(t) = e^{-theta t} int_0^t z(s) e^{theta s} ds,

so each drift variant samples Z paths at the grid nodes and has exact
mean/variance curves of z. The event-driven variants (Poisson, compound
Poisson, shot noise) draw their event times in continuous time, and one
batched kernel evaluates Z from the events of many paths at once: each
event's exact contribution inside its grid cell is binned, then two exact
exponential recurrences run along the time axis, so the grid introduces no
bias and the cost is O(events + nodes). The single-shot drift keeps its
one-event closed form. The Brownian and OU drifts are one Gaussian family
(Brownian is rate 0 plus a trend) with one sampler: z minus its mean by its
exact transition, the trapezoid exponential integrator, then the exact mean
of Z.

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
block b = i // _BLOCK are sampled together from ``block_stream(seed, b)`` by
the variant's block sampler (its ``_block_sampler`` method, see
:func:`iter_Z_chunks`), a generator that fills one pass buffer of at most
``timebase._KERNEL_CELLS`` cells at a time, so no block is ever held whole;
the reducers fold each block's passes as they come. A single path is a
block of one row drawn from the stream it is given.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from functools import cached_property
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
    block_stream,
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
# A variant's ``_block_sampler(theta, grid)`` returns
# ``passes(stream, rows, buf, ws)``, a generator over the Z rows of one
# block of ``rows`` ensemble rows, all drawn from ``stream``: each pass fills
# the first rows of ``buf`` with the block's next ``len(buf)`` rows (or what
# is left of them) and yields them. The stream and the block's drawn events
# persist from pass to pass, and the pass-sized transients live in ``ws``, a
# flat scratch array of at least ``buf``'s cells (see
# :class:`timebase.BlockStream`), so the pass loop allocates nothing of pass
# size. A row's values are a function of its own draws, so they do not depend
# on the pass size.

def _cuts(rows: int, buf: np.ndarray):
    """(first row, pass array) of a block of ``rows`` rows, ``len(buf)`` rows a pass."""
    step = len(buf)
    for a in range(0, rows, step):
        yield a, buf[: min(step, rows - a)]


def _event_sampler(draw, lam: float, theta: float, grid: TimeGrid):
    """An event variant's sampler: ``draw(grid, stream, rows)`` the block's events, then the kernel.

    ``draw`` takes the counts first, then the times and the weights of all
    events, one call each, so the draws depend on the stream and the row
    count only.
    """
    kernel = _EventKernel(lam, theta, grid)

    def passes(stream, rows, buf, ws):
        times, weights, counts = draw(grid, stream, rows)
        terms = kernel.terms(times, weights, np.repeat(np.arange(rows), counts))
        for a, out in _cuts(rows, buf):
            yield kernel.rows(terms, a, out, ws)

    return passes


class _EventKernel:
    """Z at the grid nodes of paths given by their events, pass by pass, in caller-owned arrays.

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
        self.t, self.n = grid.times(), grid.n_nodes
        self.lam, self.theta = lam, theta
        self.z_run = PoleRun(np.exp(-lam * grid.dt), self.n)
        self.Z_run = PoleRun(np.exp(-theta * grid.dt), self.n)
        self.k_dt = stable_exp_diff(lam, theta, grid.dt)

    def terms(self, times, weights, row):
        """(row, cell, z term, Z term) of the events that reach a node; ``row`` is nondecreasing.

        The terms are an event's exact contributions at the node that closes
        its cell.
        """
        cell = np.searchsorted(self.t, times)
        live = cell < self.n
        row, cell, times, weights = row[live], cell[live], times[live], weights[live]
        u = self.t[cell] - times
        Z_term = weights * stable_exp_diff(self.lam, self.theta, u)
        return row, cell, weights * np.exp(-self.lam * u), Z_term

    def rows(self, terms, lo: int, out, ws):
        """Z of rows lo.. into ``out``, a C-contiguous (rows, n) array.

        ``ws`` holds at least ``out.size`` cells, for the binned terms of
        each recurrence; z runs into ``out`` before Z does. Events are binned
        by ``fill(0)`` and ``np.add.at``, which add each bin's terms in event
        order, as ``np.bincount`` does.
        """
        row, cell, z_term, Z_term = terms
        e0, e1 = np.searchsorted(row, (lo, lo + len(out)))
        idx = (row[e0:e1] - lo) * self.n + cell[e0:e1]
        x = ws[: out.size].reshape(out.shape)
        x.fill(0.0)
        np.add.at(x.reshape(-1), idx, z_term[e0:e1])
        z = self.z_run(x, out)
        x.fill(0.0)
        np.add.at(x.reshape(-1), idx, Z_term[e0:e1])
        z[:, :-1] *= self.k_dt  # z is spent: K(dt) z_{k-1} in place
        x[:, 1:] += z[:, :-1]
        return self.Z_run(x, out)


# ---------------------------------------------------------------------------
# drift variants
#
# A variant has its _block_sampler; _mean_z(grid) and _var_z(grid), exact
# E[z] and D[z] at the nodes; _cumulants(theta, grid, kappa), which fills the
# rows of kappa with the cumulants of Z (rows it leaves are 0); and
# _d2(theta, grid), the d2 curve and whether it is a closed form. Every
# closed form is a chain (:func:`response.chain_states`) or a
# :func:`timebase.stable_exp_diff`, exact at equal rates, so no drift rate
# has to differ from theta or from another rate.


def _ramp_mean(theta: float, t: np.ndarray) -> np.ndarray:
    """int_0^t K(u) du with K(u) = (1 - e^{-theta u}) / theta: the damped accumulation of s."""
    return t / theta + np.expm1(-theta * t) / theta**2


def _ramp_cumulants(w, theta: float, grid: TimeGrid, kappa: np.ndarray) -> None:
    """kappa_n = w_n int_0^t K(u)^n du with K(u) = (1 - e^{-theta u}) / theta, for n up to len(w)."""
    kappa[0] = w[0] * _ramp_mean(theta, grid.times())
    if len(kappa) > 1:
        # row n + 1 is int_0^t K(u)^n du / n!; one chain for every order,
        # so a lower order gives the same rows bit for bit
        v = chain_states([0.0, 0.0, theta, 2 * theta, 3 * theta, 4 * theta], grid)
        for n in range(2, min(len(kappa), len(w)) + 1):
            kappa[n - 1] = w[n - 1] * math.factorial(n) * v[n + 1]


@dataclass(frozen=True)
class SingleShot:
    """z jumps from 0 to 1 at a single exponential time with the given rate."""

    rate: float

    def __post_init__(self):
        if self.rate <= 0:
            raise ValueError(f"rate must be positive, got {self.rate}")

    def _block_sampler(self, theta: float, grid: TimeGrid):
        """One exponential vector of the block's shot times, then the closed form."""
        t = grid.times()

        def passes(stream, rows, buf, ws):
            tau = stream.exponential(1.0 / self.rate, size=rows)
            for a, out in _cuts(rows, buf):
                # Z = (1 - e^{-theta u}) / theta after the shot, u = t - tau
                np.subtract(t, tau[a : a + len(out), None], out=out)
                np.maximum(out, 0.0, out=out)
                out *= -theta
                np.expm1(out, out=out)
                out /= -theta
                yield out

        return passes

    def _mean_z(self, grid: TimeGrid) -> np.ndarray:
        return -np.expm1(-self.rate * grid.times())

    def _var_z(self, grid: TimeGrid) -> np.ndarray:
        p = -np.expm1(-self.rate * grid.times())
        return p * (1.0 - p)

    def _cumulants(self, theta: float, grid: TimeGrid, kappa: np.ndarray) -> None:
        """The chain means of an exponential arrival (:func:`response.response_power_means`).

        They are converted to cumulants about 0 or about the limit 1/theta,
        whichever lies nearer the mean, so the conversion never cancels.
        """
        lam, th, t, order = self.rate, theta, grid.times(), len(kappa)
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

    def _d2(self, theta: float, grid: TimeGrid):
        lam, t = self.rate, grid.times()
        return stable_exp_diff(lam, 2 * theta, t) - stable_exp_diff(2 * lam, 2 * theta, t), True


@dataclass(frozen=True)
class CompoundPoisson:
    """z(t) = sum of i.i.d. jump sizes at Poisson event times."""

    rate: float
    jump: Distribution = field(default_factory=lambda: Exponential(2.0))

    def __post_init__(self):
        if self.rate <= 0:
            raise ValueError(f"rate must be positive, got {self.rate}")

    def _draw_events(self, grid: TimeGrid, stream: np.random.Generator, rows: int):
        """(times, jump sizes, counts per row) of the events of ``rows`` paths."""
        T = grid.horizon_T
        counts = stream.poisson(self.rate * T, size=rows)
        times = stream.uniform(0.0, T, counts.sum())
        return times, self.jump.sample(stream, counts.sum()), counts

    def _block_sampler(self, theta: float, grid: TimeGrid):
        return _event_sampler(self._draw_events, 0.0, theta, grid)

    def _mean_z(self, grid: TimeGrid) -> np.ndarray:
        return self.rate * self.jump.raw_moment(1) * grid.times()

    def _var_z(self, grid: TimeGrid) -> np.ndarray:
        return self.rate * self.jump.raw_moment(2) * grid.times()

    def _cumulants(self, theta: float, grid: TimeGrid, kappa: np.ndarray) -> None:
        """Campbell's theorem: kappa_n = rate E[J^n] int_0^t K(u)^n du, K(u) = (1 - e^{-theta u}) / theta."""
        w = [self.rate * self.jump.raw_moment(n) for n in range(1, len(kappa) + 1)]
        _ramp_cumulants(w, theta, grid, kappa)

    def _d2(self, theta: float, grid: TimeGrid):
        ramp, _ = BrownianDrift()._d2(theta, grid)  # D[z] is a ramp, as a Brownian drift's
        return self.rate * self.jump.raw_moment(2) * ramp, True


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

    def _draw_events(self, grid: TimeGrid, stream: np.random.Generator, rows: int):
        """(times, amplitudes, counts per row) of the events of ``rows`` paths."""
        counts = np.asarray(self.count.sample(stream, rows), dtype=np.int64)
        times = self.arrival.sample(stream, counts.sum())
        return times, self.amplitude.sample(stream, counts.sum()), counts

    @property
    def censored(self) -> float:
        """The share of event times that never happen: the arrival law's censored mass."""
        return self.arrival.censored

    def _block_sampler(self, theta: float, grid: TimeGrid):
        """Refuses an arrival law more than half censored before any block is drawn."""
        _refuse_censored(self.arrival)
        return _event_sampler(self._draw_events, self.response_rate, theta, grid)

    def _moments(self):
        """E[M], D[M], E[beta] and E[beta^2] of the count M and the amplitude beta."""
        em, eb = self.count.raw_moment(1), self.amplitude.raw_moment(1)
        return em, self.count.raw_moment(2) - em**2, eb, self.amplitude.raw_moment(2)

    def _mean_z(self, grid: TimeGrid) -> np.ndarray:
        phi = self.arrival.chain_mean([self.response_rate], grid)
        return self.count.raw_moment(1) * self.amplitude.raw_moment(1) * phi

    def _var_z(self, grid: TimeGrid) -> np.ndarray:
        phi, psi = response_moment_curves(self.arrival, self.response_rate, grid)
        em, vm, eb, eb2 = self._moments()
        return eb**2 * phi.values**2 * (vm - em) + em * eb2 * psi.values

    def _cumulants(self, theta: float, grid: TimeGrid, kappa: np.ndarray) -> None:
        """Z is a count of i.i.d. terms X = beta K_lam(t - T) (Rice 1944).

        Their raw moments are E[beta^n] E[K_lam(t - T)^n]
        (:func:`response.response_power_means`), summed by the count.
        """
        order = len(kappa)
        means = response_power_means(self.arrival, self.response_rate, theta, grid, order)
        raw = np.array([self.amplitude.raw_moment(n) for n in range(1, order + 1)])[:, None] * means
        kappa[:] = self.count._sum_cumulants(raw)

    def _d2(self, theta: float, grid: TimeGrid):
        """Closed form for exponential arrivals; else the defining integral on D[z] (not closed form)."""
        if not isinstance(self.arrival, Exponential):
            return exp_weighted_values(var_z(self, grid).values, grid.dt, 2 * theta), False
        lam, nu = self.response_rate, self.arrival.rate
        em, vm, eb, eb2 = self._moments()
        # phi = nu chain(nu, lam) and psi = nu chain(nu, 2 lam), so phi^2 is
        # 2 nu^2 chain(2 nu, nu + lam, 2 lam); each damped accumulation
        # appends the rate 2 theta to its chain
        acc_phi2 = 2 * nu**2 * chain_states([2 * nu, nu + lam, 2 * lam, 2 * theta], grid)[3]
        acc_psi = nu * chain_states([nu, 2 * lam, 2 * theta], grid)[2]
        return eb**2 * (vm - em) * acc_phi2 + em * eb2 * acc_psi, True


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

        def passes(stream, rows, buf, ws):
            for _, out in _cuts(rows, buf):
                noise = ws[: len(out) * steps].reshape(len(out), steps)
                stream.standard_normal(out=noise)
                noise *= scale
                out[:, 0] = 0.0
                z_run(noise, out[:, 1:])
                exp_weight_in_place(out, Z_run, dt, noise)  # the spent normals are its scratch
                out += mean
                yield out

        return passes

    def _mean_z(self, grid: TimeGrid) -> np.ndarray:
        t = grid.times()
        return self.u0 * np.exp(-self.rate * t) + self.trend * t

    def _var_z(self, grid: TimeGrid) -> np.ndarray:
        return self.sigma_u**2 * stable_exp_diff(0.0, 2 * self.rate, grid.times())

    def _cumulants(self, theta: float, grid: TimeGrid, kappa: np.ndarray) -> None:
        """Z is Gaussian with kappa_2 = sigma_u^2 int_0^t G(u)^2 du for the drift's kernel G.

        G(u) = (e^{-rate u} - e^{-theta u}) / (theta - rate), the response of Z to z.
        """
        lam, th, t = self.rate, theta, grid.times()
        kappa[0] = self.u0 * stable_exp_diff(lam, th, t) + self.trend * _ramp_mean(th, t)
        if len(kappa) > 1:
            # G(u)^2 = 2 chain(2 lam, lam + theta, 2 theta), integrated once more
            v = chain_states([0.0, 2 * lam, lam + th, 2 * th], grid)
            kappa[1] = 2.0 * self.sigma_u**2 * v[3]

    def _d2(self, theta: float, grid: TimeGrid):
        # the damped accumulation of D[z(s)] = sigma_u^2 chain(0, 2 lam)(s)
        return self.sigma_u**2 * chain_states([0.0, 2 * self.rate, 2 * theta], grid)[2], True


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

        def passes(stream, rows, buf, ws):
            for _, out in _cuts(rows, buf):
                out[:] = curve
                yield out

        return passes

    def _mean_z(self, grid: TimeGrid) -> np.ndarray:
        _check_same_grid(self.f.grid, grid)
        return self.f.values

    def _var_z(self, grid: TimeGrid) -> np.ndarray:
        return np.zeros(grid.n_nodes)

    def _cumulants(self, theta: float, grid: TimeGrid, kappa: np.ndarray) -> None:
        """kappa_1 = I f and no spread."""
        _check_same_grid(self.f.grid, grid)
        kappa[0] = exp_weighted_values(self.f.values, grid.dt, theta)

    def _d2(self, theta: float, grid: TimeGrid):
        return np.zeros(grid.n_nodes), True


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

    A one-row block drawn from ``stream``, so it equals the row of an
    ensemble whose block holds that row alone. Event-driven drifts go
    through the batched event kernel (no grid bias), the single shot uses
    its closed form, and the Gaussian drifts pass a sampled z path through
    the exponential integrator.
    """
    _check_theta(theta)
    out = np.empty((1, grid.n_nodes))
    for _ in model._block_sampler(theta, grid)(stream, 1, out, np.empty(grid.n_nodes)):
        pass
    return Curve(grid, out[0])


def mean_z(model: DriftModel, grid: TimeGrid) -> Curve:
    """Exact E[z(t)] at the grid nodes."""
    return Curve(grid, model._mean_z(grid))


def var_z(model: DriftModel, grid: TimeGrid) -> Curve:
    """Exact D[z(t)] at the grid nodes."""
    return Curve(grid, model._var_z(grid))


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
    their relative accuracy at t -> 0. kappa_1 reuses the closed-form mean
    of each variant that has one.
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

    Each block of :func:`iter_Z_chunks` is copied in as it is sampled, so
    the matrix does not depend on ``threads``; a block holding one row
    equals ``sample_Z_path`` on the block's stream bit for bit.
    """
    values = np.empty((n_paths, grid.n_nodes))

    def copy(passes):
        for start, rows in passes:
            values[start : start + len(rows)] = rows

    for _ in iter_Z_chunks(model, theta, grid, n_paths, master_seed, threads).map(copy):
        pass
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

    Its ``map(fold)`` draws block b from ``block_stream(master_seed, b)`` by
    the variant's block sampler and yields ``fold`` of its (start, pass)
    pairs, in block order. A pass is :func:`timebase.slab_rows` rows counted
    from its block's first row, in a reused buffer: copy it to keep it. The
    passes in row order are the materialized ensemble, bit for bit.

    A shot noise whose arrival law is more than half censored raises
    :class:`CensoringError` here, before any block is drawn; the censored
    share itself is the law's (``ShotNoise.censored``).
    """
    _check_theta(theta)
    passes = model._block_sampler(theta, grid)
    block = lambda b, rows, buf, ws: passes(block_stream(master_seed, b), rows, buf, ws)
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
    """Pooled (n, c, e, M2, M3) of two disjoint samples (Chan, Golub & LeVeque 1979; Pebay 2008).

    The pooled e, M2 and M3 overwrite a's, which no one else may hold; c is a's.
    """
    na, ca, ea, M2a, M3a = a
    nb, cb, eb, M2b, M3b = b
    n = na + nb
    delta = cb - ca
    delta += eb - ea
    # M3 += M3b + delta^3 na nb (na - nb) / n^2 + 3 delta (na M2b - nb M2a) / n, from a's M2
    cross = na * M2b
    cross -= nb * M2a
    cross *= 3.0 * delta
    cross /= n
    cube = delta * delta
    cube *= delta
    cube *= na * nb * (na - nb) / n**2
    M3a += M3b
    M3a += cube
    M3a += cross
    # M2 += M2b + delta^2 na nb / n, and e += delta nb / n
    np.multiply(delta, delta, out=cube)
    cube *= na * nb / n
    M2a += M2b
    M2a += cube
    delta *= nb / n
    ea += delta
    return n, ca, ea, M2a, M3a


def moments_from_chunks(chunks, grid: TimeGrid, n_paths: int):
    """Sample mean, variance, third central moment and the SE of the mean of a block stream.

    ``chunks`` is what :func:`iter_Z_chunks` returns for the n_paths rows of
    one ensemble on ``grid``. Each pass is reduced to its count, mean and
    central sums M2, M3, and merged into its block's in row order; the
    blocks' stats are merged into the ensemble's in block order. No raw
    power sum is formed, so the variance and the third central moment keep
    their relative accuracy however large the mean is against the spread,
    and the merges run in the same order, to the same bits, for any thread
    count.
    """
    from .approx import MomentCurves  # MomentCurves lives with its consumers

    if n_paths < 2:
        raise ValueError("need at least 2 paths for moment estimation")

    local = threading.local()  # each worker's deviations and their powers, for the call

    def merged(stats, more):
        return more if stats is None else _merge_stats(stats, more)

    def fold(passes):
        stats = None
        for _, slab in passes:
            if getattr(local, "ws", np.empty(0)).size < 2 * slab.size:
                local.ws = np.empty(2 * slab.size)
            stats = merged(stats, _chunk_stats(slab, local.ws))
        return stats

    stats = None
    for block in chunks.map(fold):
        stats = merged(stats, block)
    if stats is None:
        raise ValueError(f"no rows, expected {n_paths}")
    n, c, e, M2, M3 = stats
    if n != n_paths:
        raise ValueError(f"the blocks hold {n} rows, expected {n_paths}")
    M2 = np.maximum(M2, 0.0)  # rounding of identical rows
    return MomentCurves.from_central(
        grid, m1=c + e, var=M2 / n, mu3=M3 / n, se1=np.sqrt(M2 / (n - 1) / n)
    )
