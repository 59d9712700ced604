"""Optimal curves F_p for power costs and recovery of the approximating drift.

For the integrated p-th power error the optimal accumulated curve solves, at
each time, the stationarity condition

    E[|x - Z(t)|^{p-2} (x - Z(t))] = 0.

For p = 2 this is the mean of Z, the first exact cumulant of every drift
variant. For p = 4 it is the unique real root of the cubic

    x^3 - 3 x^2 E[Z] + 3 x E[Z^2] - E[Z^3] = 0,

whose derivative 3((x - m1)^2 + var) is nonnegative for any valid moment
set. In the central variable d = x - E[Z] it reads d^3 + 3 var d - mu3 = 0,
so it needs only the mean, the variance and the third central moment: the
exact cumulants kappa_1..kappa_3 of :func:`drift.cumulant_curves`, or sample
moments (:meth:`MomentCurves.from_central`). It is solved at every node at once
by the hyperbolic closed form d = 2 sqrt(var) sinh(asinh(mu3 / (2 var^{3/2})) / 3)
and one Newton step. The drift of the approximating SDE is recovered as
f = I^{-1} F. :func:`fit`, the fit of every table row and command, uses the
exact cumulants: every drift variant has an exact law, the simulated
network's included.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import drift as drift_mod
from . import sde as sde_mod
from .timebase import Curve, TimeGrid

__all__ = [
    "MomentCurves",
    "exact_moments",
    "Approximant",
    "F2_analytic",
    "cubic_el_root",
    "F4_from_moments",
    "fit",
    "eta2",
]

_MOMENT_SLACK = 1e-12  # relative rounding slack allowed in m2 >= m1^2


@dataclass(frozen=True)
class MomentCurves:
    """Mean, raw moments and central moments of Z(t) on a grid, plus the SE of the mean.

    Built from raw moments (m1, m2, m3) the central ones follow by the
    raw-moment conversion; built with :meth:`from_central` or
    :meth:`from_cumulants` the variance and third central moment are kept
    as given and the raw moments are derived, so an exact or pairwise-merged
    fit never goes through the cancelling conversion.
    """

    grid: TimeGrid
    m1: Curve
    m2: Curve
    m3: Curve
    se1: Curve
    var: Curve = None
    mu3: Curve = None

    def __post_init__(self):
        for name in ("m1", "m2", "m3", "se1"):
            c = getattr(self, name)
            if c.grid != self.grid:
                raise ValueError(f"{name} grid does not match the moment grid")
        v1, v2, v3 = self.m1.values, self.m2.values, self.m3.values
        if self.var is None:
            object.__setattr__(self, "var", Curve(self.grid, v2 - v1**2))
            object.__setattr__(self, "mu3", Curve(self.grid, v3 - 3.0 * v1 * v2 + 2.0 * v1**3))
        scale = np.maximum(v1**2, 1.0)
        if np.any(self.var.values < -_MOMENT_SLACK * scale):
            raise ValueError("invalid moments: m2 < m1^2 at some node")
        if any(abs(getattr(self, n).values[0]) > 1e-12 for n in ("m1", "m2", "m3")):
            raise ValueError("moments must vanish at t = 0 (Z starts at 0)")

    @classmethod
    def from_central(cls, grid: TimeGrid, m1, var, mu3, se1) -> "MomentCurves":
        """Moment curves from node values of the mean, variance, third central moment and SE."""
        m1, var, mu3 = (np.asarray(v, dtype=float) for v in (m1, var, mu3))
        return cls(
            grid=grid,
            m1=Curve(grid, m1),
            m2=Curve(grid, var + m1 * m1),
            m3=Curve(grid, mu3 + 3.0 * m1 * var + m1**3),
            se1=Curve(grid, se1),
            var=Curve(grid, var),
            mu3=Curve(grid, mu3),
        )

    @classmethod
    def from_cumulants(cls, grid: TimeGrid, kappa) -> "MomentCurves":
        """Exact moment curves from cumulant rows kappa_1, kappa_2, kappa_3 (no sampling error)."""
        return cls.from_central(grid, kappa[0], kappa[1], kappa[2], np.zeros(grid.n_nodes))


def exact_moments(model: drift_mod.DriftModel, theta: float, grid: TimeGrid) -> MomentCurves:
    """The exact moment curves of Z(t) that F4 needs, from :func:`drift.cumulant_curves`.

    Cumulants that rounding leaves an invalid moment set, or whose raw moments
    overflow, raise ArithmeticError: a numerical failure, not a bad argument.
    """
    kappa = drift_mod.cumulant_curves(model, theta, grid, 3)
    try:
        with np.errstate(over="raise"):
            return MomentCurves.from_cumulants(grid, kappa)
    except (ValueError, FloatingPointError) as exc:
        raise ArithmeticError(f"exact moments of {type(model).__name__}: {exc}") from exc


@dataclass(frozen=True)
class Approximant:
    """Order p, the optimal curve F_p and the recovered drift f_p = I^{-1} F_p."""

    p: int
    F: Curve
    f: Curve
    theta: float

    def __post_init__(self):
        if self.p < 2 or self.p % 2 != 0:
            raise ValueError(f"p must be an even integer >= 2, got {self.p}")
        if abs(self.F.values[0]) > 1e-12:
            raise ValueError("F(0) must be 0")


def F2_analytic(model: drift_mod.DriftModel, theta: float, grid: TimeGrid) -> Approximant:
    """The mean-square-optimal approximant: F2 = E[Z] = kappa_1, f2 = E[z].

    kappa_1 comes from :func:`drift.cumulant_curves`.
    """
    F = Curve(grid, drift_mod.cumulant_curves(model, theta, grid, 1)[0])
    f2 = drift_mod.mean_z(model, grid)
    return Approximant(p=2, F=F, f=f2, theta=theta)


def _el_roots(m1: np.ndarray, var: np.ndarray, mu3: np.ndarray) -> np.ndarray:
    """Unique real roots of (x - m1)^3 + 3 var (x - m1) - mu3 = 0, elementwise.

    In the central variable d = x - m1 the single real root is
    d = 2 sqrt(var) sinh(asinh(mu3 / (2 var^{3/2})) / 3); one Newton step
    then removes the rounding of the hyperbolic functions. Degenerate nodes
    (var within rounding slack of 0, a point mass at m1) and nodes with
    mu3 = 0 return m1 exactly. Raises ValueError naming the first node with
    a negative variance.
    """
    scale = np.maximum(m1 * m1, 1.0)
    bad = np.flatnonzero(var < -_MOMENT_SLACK * scale)
    if bad.size:
        k = int(bad[0])
        raise ValueError(f"invalid moments at node {k}: variance {var[k]} < 0")
    degenerate = var <= _MOMENT_SLACK * scale
    var = np.where(degenerate, 1.0, var)
    mu3 = np.where(degenerate, 0.0, mu3)
    s = np.sqrt(var)
    d = 2.0 * s * np.sinh(np.arcsinh(mu3 / (2.0 * var * s)) / 3.0)
    d -= (d * (d * d + 3.0 * var) - mu3) / (3.0 * (d * d + var))
    return np.where(degenerate, m1, m1 + d)


def cubic_el_root(m1: float, m2: float, m3: float) -> float:
    """Unique real root of x^3 - 3 x^2 m1 + 3 x m2 - m3 = 0 for one raw moment triple.

    Requires m2 >= m1^2 (a valid moment pair), which makes the cubic
    nondecreasing and the root unique. Uses the closed form of
    ``F4_from_moments``; degenerate moments (a point mass) return m1 exactly.
    """
    v1, v2, v3 = (np.array([v], dtype=float) for v in (m1, m2, m3))
    return float(_el_roots(v1, v2 - v1 * v1, v3 - 3.0 * v1 * v2 + 2.0 * v1**3)[0])


def F4_from_moments(moments: MomentCurves, theta: float) -> Approximant:
    """Fourth-power-optimal curve: the cubic root at every node in one pass.

    Reads the mean, variance and third central moment of ``moments``.
    F4(0) = 0 follows from the vanishing moments at t = 0; the drift is
    recovered by finite-difference application of I^{-1}.
    """
    F = Curve(moments.grid, _el_roots(moments.m1.values, moments.var.values, moments.mu3.values))
    f = sde_mod.apply_I_inv(F, theta)
    return Approximant(p=4, F=F, f=f, theta=theta)


def fit(model: drift_mod.DriftModel, theta: float, grid: TimeGrid) -> tuple[Approximant, Approximant]:
    """The order-2 and order-4 approximants (F2, F4): the fit of every table row and command.

    One :func:`exact_moments` call gives both: F2 is its mean kappa_1, the
    bits :func:`F2_analytic` gives, and F4 the cubic root on kappa_1..kappa_3;
    nothing is sampled. A shot noise with a :class:`drift.SimulatedFiring`
    arrival is fitted on the first-passage law it is sampled from, which
    needs the grid step to equal its sim_dt (ValueError otherwise) and raises
    :class:`drift.CensoringError` when more than half of its firing times
    are censored.
    """
    moments = exact_moments(model, theta, grid)
    F2 = Approximant(p=2, F=moments.m1, f=drift_mod.mean_z(model, grid), theta=theta)
    return F2, F4_from_moments(moments, theta)


def eta2(model: drift_mod.DriftModel, theta: float, grid: TimeGrid) -> Curve:
    """The derivative of F2 in closed form: eta2(t) = -theta E[Z(t)] + E[z(t)]."""
    F2 = F2_analytic(model, theta, grid)
    return Curve(grid, -theta * F2.F.values + F2.f.values)
