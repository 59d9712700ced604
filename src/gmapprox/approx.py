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
moments (:func:`drift.moments_Z_mc`), which :class:`MomentCurves` holds as
they are; it forms the raw moments E[Z^2] and E[Z^3] only when they are
read. The root is taken at every node at once by the hyperbolic closed form
d = 2 sqrt(var) sinh(asinh(mu3 / (2 var^{3/2})) / 3) and one Newton step.
The drift of the approximating SDE is recovered as f = I^{-1} F. :func:`fit`, the fit of every table row and command, uses the
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

_MOMENT_SLACK = 1e-12  # relative rounding slack allowed in var >= 0


def _variance_slack(m1: np.ndarray, var: np.ndarray) -> np.ndarray:
    """Each node's rounding slack of the variance: _MOMENT_SLACK max(m1^2, 1), inf where m1^2 overflows.

    Raises ValueError naming the first node whose variance is below minus
    its slack.
    """
    with np.errstate(over="ignore"):
        slack = _MOMENT_SLACK * np.maximum(m1 * m1, 1.0)
    bad = np.flatnonzero(var < -slack)
    if bad.size:
        raise ValueError(f"invalid moments at node {bad[0]}: variance {var[bad[0]]} < 0")
    return slack


@dataclass(frozen=True, init=False)
class MomentCurves:
    """Mean, variance and third central moment of Z(t) on a grid, plus the SE of the mean.

    Built from the central moments ``var`` and ``mu3``, kept as given, or
    from the raw moments ``m2`` and ``m3``, converted once. The raw moments
    are formed from the central ones when read; no fit reads them, so a mean
    whose square overflows still fits.
    """

    grid: TimeGrid
    m1: Curve
    var: Curve
    mu3: Curve
    se1: Curve

    def __init__(self, grid: TimeGrid, *, m1: Curve, se1: Curve, var=None, mu3=None, m2=None, m3=None):
        for name, c in dict(m1=m1, se1=se1, var=var, mu3=mu3, m2=m2, m3=m3).items():
            if c is not None and c.grid != grid:
                raise ValueError(f"{name} grid does not match the moment grid")
        if var is None:  # the raw moments, converted once
            _, v, u = drift_mod._cumulants_from_raw(np.array([m1.values, m2.values, m3.values]))
            var, mu3 = Curve(grid, v), Curve(grid, u)
        for name, c in dict(grid=grid, m1=m1, var=var, mu3=mu3, se1=se1).items():
            object.__setattr__(self, name, c)
        _variance_slack(m1.values, var.values)
        if any(abs(c.values[0]) > 1e-12 for c in (m1, var, mu3)):
            raise ValueError("moments must vanish at t = 0 (Z starts at 0)")

    @property
    def m2(self) -> Curve:
        """E[Z^2] = var + m1^2."""
        m1 = self.m1.values
        return Curve(self.grid, self.var.values + m1 * m1)

    @property
    def m3(self) -> Curve:
        """E[Z^3] = mu3 + 3 m1 var + m1^3."""
        m1, var = self.m1.values, self.var.values
        return Curve(self.grid, self.mu3.values + 3.0 * m1 * var + m1**3)


def exact_moments(model: drift_mod.DriftModel, theta: float, grid: TimeGrid) -> MomentCurves:
    """The exact moment curves of Z(t) that F4 needs: kappa_1..kappa_3 of :func:`drift.cumulant_curves`, SE 0.

    Cumulants that rounding leaves an invalid moment set raise
    ArithmeticError: a numerical failure, not a bad argument.
    """
    m1, var, mu3 = (Curve(grid, k) for k in drift_mod.cumulant_curves(model, theta, grid, 3))
    try:
        return MomentCurves(grid, m1=m1, var=var, mu3=mu3, se1=Curve(grid, np.zeros(grid.n_nodes)))
    except ValueError as exc:
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
    (var within the rounding slack of :func:`_variance_slack` of 0, a point
    mass at m1; every node whose m1^2 overflows) and nodes with mu3 = 0
    return m1 exactly. Raises ValueError naming the first node with a
    negative variance.
    """
    degenerate = var <= _variance_slack(m1, var)
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
    raw = np.array([[m1], [m2], [m3]], dtype=float)
    return float(_el_roots(raw[0], *drift_mod._cumulants_from_raw(raw)[1:])[0])


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
    nothing is sampled, and no raw moment is formed, so a drift whose mean
    squared overflows fits, with F4 = F2 where its variance is within the
    rounding slack of 0. A shot noise with a :class:`drift.SimulatedFiring`
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
