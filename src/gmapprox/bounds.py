"""The L2 approximation-error curve d2(t) and the pointwise MSE it is held against.

d2 is the damped accumulation of the drift variance,

    d2(t) = e^{-2 theta t} int_0^t D[z(s)] e^{2 theta s} ds,

available generically through the exponential integrator and in closed form
from each drift variant (its ``_d2`` method). The companion estimator
measures the pointwise mean square error E[(Z(t) - F(t))^2] from an
ensemble, with per-node standard errors.
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

    Shot noise admits a fully closed form for exponential event times; for
    other arrival laws the defining integral is evaluated on the analytic
    variance curve (flagged as not closed form).
    """
    drift_mod._check_theta(theta)
    vals, closed = model._d2(theta, grid)
    d2 = Curve(grid, vals)
    return BoundCurve(grid=grid, d2=d2, l1_mass=float(trapezoid(d2)), closed_form=closed)


def pointwise_mse_streaming(chunks, F: Curve, n_paths: int) -> tuple[Curve, Curve]:
    """Per-node sample mean and standard error of (Z_i(t) - F(t))^2 over a block stream.

    ``chunks`` is what drift.iter_Z_chunks returns, holding the n_paths rows
    of one ensemble. Each block adds the column sums of its passes in row
    order, and the block sums are added in block order, so the bits are the
    same for any thread count. A block holds one pass-sized work array and
    its rows of column sums.
    """
    if n_paths < 2:
        raise ValueError("need at least 2 paths for a standard error")

    def fold(passes):
        s1 = np.zeros(F.grid.n_nodes)
        s2 = np.zeros(F.grid.n_nodes)
        col = np.empty(F.grid.n_nodes)
        buf = None  # one (pass rows, nodes) work array for the block
        for _, slab in passes:
            if buf is None:
                buf = np.empty_like(slab)
            w = buf[: slab.shape[0]]
            np.subtract(slab, F.values, out=w)
            np.square(w, out=w)
            s1 += w.sum(axis=0, out=col)
            np.square(w, out=w)
            s2 += w.sum(axis=0, out=col)
        return s1, s2

    s1 = np.zeros(F.grid.n_nodes)
    s2 = np.zeros(F.grid.n_nodes)
    for b1, b2 in chunks.map(fold):
        s1 += b1
        s2 += b2
    mse = s1 / n_paths
    var = np.maximum(s2 - n_paths * mse**2, 0.0) / (n_paths - 1)
    se = np.sqrt(var / n_paths)
    return Curve(F.grid, mse), Curve(F.grid, se)
