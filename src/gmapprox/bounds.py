"""The L2 approximation-error curve d2(t) and the pointwise MSE it is held against.

d2 is the damped accumulation of the drift variance,

    d2(t) = e^{-2 theta t} int_0^t D[z(s)] e^{2 theta s} ds,

available generically through the exponential integrator and in closed form
from each drift variant: its variance statement ``_var_z`` with the rate
2 theta appended to its chain. The closed form is the curve ``gmapprox
bound`` writes; the generic one is its cross-check. The companion estimator
measures the pointwise mean square error E[(Z(t) - F(t))^2] from an
ensemble, with per-node standard errors, by the fold that gives the moments
of Z.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import drift as drift_mod
from .timebase import (
    Curve,
    TimeGrid,
    exp_weighted_values,
    trapezoid,
)

__all__ = ["BoundCurve", "d2_generic", "d2_closed", "pointwise_mse_streaming"]


@dataclass(frozen=True)
class BoundCurve:
    """d2 curve, its integral over [0, T], and whether a closed form was used."""

    grid: TimeGrid
    d2: Curve
    l1_mass: float
    closed_form: bool

    def __post_init__(self):
        if abs(self.d2.values[0]) > 1e-12:
            raise ValueError("d2(0) must be 0")
        if np.any(self.d2.values < -1e-12):
            raise ValueError("d2 must be nonnegative")


def d2_generic(model: drift_mod.DriftModel, theta: float, grid: TimeGrid) -> BoundCurve:
    """d2 from the exact variance curve of z via the exponential integrator."""
    drift_mod._check_theta(theta)
    v = drift_mod.var_z(model, grid)
    d2 = Curve(grid, exp_weighted_values(v.values, grid.dt, 2 * theta))
    return BoundCurve(grid=grid, d2=d2, l1_mass=float(trapezoid(d2)), closed_form=False)


def d2_closed(model: drift_mod.DriftModel, theta: float, grid: TimeGrid) -> BoundCurve:
    """Per-variant closed form of d2, exact at any rates, equal ones included.

    d2 is the variant's D[z] damped at 2 theta, ``_var_z(grid, [2 theta])``.
    Shot noise admits a fully closed form for exponential event times; for
    other arrival laws the defining integral is evaluated on the analytic
    variance curve (flagged as not closed form).
    """
    drift_mod._check_theta(theta)
    vals, closed = model._var_z(grid, [2 * theta])
    d2 = Curve(grid, vals)
    return BoundCurve(grid=grid, d2=d2, l1_mass=float(trapezoid(d2)), closed_form=closed)


def pointwise_mse_streaming(chunks, F: Curve, n_paths: int) -> tuple[Curve, Curve]:
    """Per-node sample mean and standard error of (Z_i(t) - F(t))^2 over a block stream.

    ``chunks`` is what drift.iter_Z_chunks returns, holding the n_paths rows
    of one ensemble. Each pass is overwritten by its squared errors, which
    are folded as the moments of Z are (``drift._fold_moments``, at order
    2): about each block's first row, blocks merged in block order. So the
    bits are the same for any thread count, and a node where every path has
    the same squared error has se exactly 0.
    """
    if n_paths < 2:
        raise ValueError("need at least 2 paths for a standard error")

    squared_errors = lambda z: np.square(np.subtract(z, F.values, out=z), out=z)
    n, c, e, M2, _ = drift_mod._fold_moments(chunks, n_paths, 2, squared_errors)
    se = np.sqrt(np.maximum(M2, 0.0) / (n - 1) / n)
    return Curve(F.grid, c + e), Curve(F.grid, se)
