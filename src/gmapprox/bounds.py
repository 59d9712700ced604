"""The L2 approximation-error curve d2(t) and the pointwise MSE it is held against.

d2 is the damped accumulation of the drift variance,

    d2(t) = e^{-2 theta t} int_0^t D[z(s)] e^{2 theta s} ds,

available generically through the exponential integrator and in closed form
for each drift variant. The companion estimator measures the pointwise mean
square error E[(Z(t) - F(t))^2] from an ensemble, with per-node standard
errors.
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
    stable_exp_diff,
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
    t = grid.times()
    th = theta
    closed = True
    if isinstance(model, drift_mod.Deterministic):
        vals = np.zeros(grid.n_nodes)
    elif isinstance(model, drift_mod.SingleShot):
        lam = model.rate
        vals = stable_exp_diff(lam, 2 * th, t) - stable_exp_diff(2 * lam, 2 * th, t)
    elif isinstance(model, drift_mod.Poisson):
        vals = model.rate * _ramp_d2(th, t)
    elif isinstance(model, drift_mod.CompoundPoisson):
        vals = model.rate * drift_mod.dist_second_moment(model.jump) * _ramp_d2(th, t)
    elif isinstance(model, drift_mod.BrownianDrift):
        vals = _ramp_d2(th, t)
    elif isinstance(model, drift_mod.OUDrift):
        lam, s2 = model.rate, model.sigma_u**2
        vals = s2 / (2 * lam) * (
            -np.expm1(-2 * th * t) / (2 * th) - stable_exp_diff(2 * lam, 2 * th, t)
        )
    elif isinstance(model, drift_mod.ShotNoise):
        vals, closed = _shot_noise_d2(model, th, grid)
    else:
        raise TypeError(f"not a drift model: {model!r}")
    d2 = Curve(grid, vals)
    return BoundCurve(grid=grid, d2=d2, l1_mass=float(trapezoid(d2)), closed_form=closed)


def _ramp_d2(th: float, t: np.ndarray) -> np.ndarray:
    # damped accumulation of D[z(s)] = s
    return t / (2 * th) + np.expm1(-2 * th * t) / (4 * th**2)


def _shot_noise_d2(model: drift_mod.ShotNoise, th: float, grid: TimeGrid):
    t = grid.times()
    lam = model.response_rate
    em = drift_mod.dist_mean(model.count)
    vm = drift_mod.dist_variance(model.count)
    eb = drift_mod.dist_mean(model.amplitude)
    eb2 = drift_mod.dist_second_moment(model.amplitude)
    arr = model.arrival
    if isinstance(arr, drift_mod.Exponential):
        nu = arr.rate
        # only the phi/psi prefactors are singular; decay-rate coincidences
        # inside the damped differences are handled by the stable kernel
        for bad, nm in ((lam, "response rate"), (2 * lam, "twice the response rate")):
            if abs(nu - bad) <= 1e-12 * max(nu, bad):
                raise drift_mod.PairingError(
                    f"shot-noise d2 closed form needs firing rate != {nm} ({bad})"
                )
        # damped accumulations of phi^2 and of psi
        acc_phi2 = (nu / (nu - lam)) ** 2 * (
            stable_exp_diff(2 * lam, 2 * th, t)
            - 2 * stable_exp_diff(lam + nu, 2 * th, t)
            + stable_exp_diff(2 * nu, 2 * th, t)
        )
        acc_psi = nu / (nu - 2 * lam) * (
            stable_exp_diff(2 * lam, 2 * th, t) - stable_exp_diff(nu, 2 * th, t)
        )
        return eb**2 * (vm - em) * acc_phi2 + em * eb2 * acc_psi, True
    # defining integral on the analytic variance curve
    v = drift_mod.var_z(model, grid)
    return exp_weighted_values(v.values, grid.dt, 2 * th), False


def pointwise_mse_streaming(chunks, F: Curve, n_paths: int) -> tuple[Curve, Curve]:
    """Per-node sample mean and standard error of (Z_i(t) - F(t))^2 over streamed chunks.

    ``chunks`` yields (start, block) pairs as from drift.iter_Z_chunks and
    together hold the n_paths rows of one ensemble. Each chunk is cut into
    slabs (:func:`timebase.iter_slabs`; a default chunk of iter_Z_chunks is
    one slab), and the per-slab column sums are added in row order, so
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
