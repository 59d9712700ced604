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
    iter_slabs,
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
    drift_mod.validate_pairing(model, theta)
    v = drift_mod.var_z(model, grid)
    d2 = Curve(grid, exp_weighted_values(v.values, grid.dt, 2 * theta))
    return BoundCurve(grid=grid, d2=d2, l1_mass=float(trapezoid(d2)), closed_form=False)


def d2_closed(model: drift_mod.DriftModel, theta: float, grid: TimeGrid) -> BoundCurve:
    """Per-variant closed form of d2; rejects parameter coincidences.

    Shot noise admits a fully closed form for exponential event times; for
    other arrival laws the defining integral is evaluated on the analytic
    variance curve (flagged as not closed form).
    """
    drift_mod.validate_pairing(model, theta)
    vals, closed = model._d2(theta, grid)
    d2 = Curve(grid, vals)
    return BoundCurve(grid=grid, d2=d2, l1_mass=float(trapezoid(d2)), closed_form=closed)


def pointwise_mse_streaming(chunks, F: Curve, n_paths: int) -> tuple[Curve, Curve]:
    """Per-node sample mean and standard error of (Z_i(t) - F(t))^2 over streamed chunks.

    ``chunks`` yields (start, block) pairs as from drift.iter_Z_chunks and
    together hold the n_paths rows of one ensemble. Each chunk is cut into
    slabs (:func:`timebase.iter_slabs`; a chunk of iter_Z_chunks is one
    slab), and the per-slab column sums are added in row order, so
    chunks cut on block boundaries give the same bits for any chunk size and
    thread count. One slab-sized work array and one row of column sums are
    held.
    """
    if n_paths < 2:
        raise ValueError("need at least 2 paths for a standard error")
    s1 = np.zeros(F.grid.n_nodes)
    s2 = np.zeros(F.grid.n_nodes)
    col = np.empty(F.grid.n_nodes)
    buf = None  # one (slab rows, nodes) work array for every slab
    for _, slab in iter_slabs(chunks):
        rows = slab.shape[0]
        if buf is None or buf.shape[0] < rows:
            buf = np.empty_like(slab)
        w = buf[:rows]
        np.subtract(slab, F.values, out=w)
        np.square(w, out=w)
        s1 += w.sum(axis=0, out=col)
        np.square(w, out=w)
        s2 += w.sum(axis=0, out=col)
    mse = s1 / n_paths
    var = np.maximum(s2 - n_paths * mse**2, 0.0) / (n_paths - 1)
    se = np.sqrt(var / n_paths)
    return Curve(F.grid, mse), Curve(F.grid, se)
