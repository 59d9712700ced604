"""Optimal curves F_p for power costs and recovery of the approximating drift.

For the integrated p-th power error the optimal accumulated curve solves, at
each time, the stationarity condition

    E[|x - Z(t)|^{p-2} (x - Z(t))] = 0.

For p = 2 this is the mean of Z, available in closed form for every drift
variant. For p = 4 it is the unique real root of the cubic

    x^3 - 3 x^2 E[Z] + 3 x E[Z^2] - E[Z^3] = 0,

whose derivative 3((x - m1)^2 + (m2 - m1^2)) is nonnegative for any valid
moment pair. In the central variable d = x - E[Z] it reads
d^3 + 3 var d - mu3 = 0, solved at every node at once by the hyperbolic
closed form d = 2 sqrt(var) sinh(asinh(mu3 / (2 var^{3/2})) / 3) and one
Newton step. For empirical samples (``Fp_root``) the root is bracketed by the
sample range and found by bisection. The drift of the approximating SDE is
recovered as f = I^{-1} F.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import drift as drift_mod
from . import sde as sde_mod
from .timebase import Curve, TimeGrid, stable_exp_diff

__all__ = [
    "MomentCurves",
    "Approximant",
    "F2_analytic",
    "cubic_el_root",
    "F4_from_moments",
    "Fp_root",
    "eta2",
    "transversality_residual",
]

_MOMENT_SLACK = 1e-12  # relative rounding slack allowed in m2 >= m1^2


@dataclass(frozen=True)
class MomentCurves:
    """First three moments of Z(t) on a grid, plus the standard error of m1."""

    grid: TimeGrid
    m1: Curve
    m2: Curve
    m3: Curve
    se1: Curve

    def __post_init__(self):
        for name in ("m1", "m2", "m3", "se1"):
            c = getattr(self, name)
            if c.grid != self.grid:
                raise ValueError(f"{name} grid does not match the moment grid")
        v1, v2 = self.m1.values, self.m2.values
        scale = np.maximum(v1**2, 1.0)
        if np.any(v2 - v1**2 < -_MOMENT_SLACK * scale):
            raise ValueError("invalid moments: m2 < m1^2 at some node")
        if any(abs(getattr(self, n).values[0]) > 1e-12 for n in ("m1", "m2", "m3")):
            raise ValueError("moments must vanish at t = 0 (Z starts at 0)")


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
    """The mean-square-optimal approximant: F2 = E[Z], f2 = E[z].

    Uses the per-variant closed form of E[Z] where one exists and falls back
    to the exponential integrator applied to the exact mean of z otherwise
    (deterministic drifts and shot noise without a closed-form response
    moment).
    """
    drift_mod.validate_pairing(model, theta)
    f2 = drift_mod.mean_z(model, grid)
    F_vals = _mean_Z_closed(model, theta, grid)
    if F_vals is None:
        F = sde_mod.apply_I(f2, theta)
    else:
        F = Curve(grid, F_vals)
    return Approximant(p=2, F=F, f=f2, theta=theta)


def _mean_Z_closed(model, theta, grid):
    """Closed-form E[Z(t)] values, or None when no closed form is listed."""
    t = grid.times()
    th = theta
    if isinstance(model, drift_mod.SingleShot):
        lam = model.rate
        return -np.expm1(-th * t) / th - stable_exp_diff(lam, th, t)
    if isinstance(model, (drift_mod.Poisson, drift_mod.BrownianDrift, drift_mod.CompoundPoisson)):
        if isinstance(model, drift_mod.Poisson):
            slope = model.rate
        elif isinstance(model, drift_mod.BrownianDrift):
            slope = model.trend
        else:
            slope = model.rate * drift_mod.dist_mean(model.jump)
        return slope * (t / th + np.expm1(-th * t) / th**2)
    if isinstance(model, drift_mod.OUDrift):
        return model.u0 * stable_exp_diff(model.rate, th, t)
    if isinstance(model, drift_mod.ShotNoise):
        lam = model.response_rate
        scale = drift_mod.dist_mean(model.count) * drift_mod.dist_mean(model.amplitude)
        arr = model.arrival
        if isinstance(arr, drift_mod.Exponential) and not np.isclose(arr.rate, th):
            nu = arr.rate
            vals = nu / (nu - lam) * (stable_exp_diff(lam, th, t) - stable_exp_diff(nu, th, t))
            return scale * vals
        if isinstance(arr, drift_mod.PointMass):
            u = np.maximum(t - arr.value, 0.0)
            return scale * np.where(t >= arr.value, stable_exp_diff(lam, th, u), 0.0)
        return None
    return None


def _el_roots(m1: np.ndarray, m2: np.ndarray, m3: np.ndarray) -> np.ndarray:
    """Unique real roots of x^3 - 3 x^2 m1 + 3 x m2 - m3 = 0, elementwise.

    In central form the cubic is d^3 + 3 var d - mu3 = 0 with d = x - m1, whose
    single real root is d = 2 sqrt(var) sinh(asinh(mu3 / (2 var^{3/2})) / 3);
    one Newton step then removes the rounding of the hyperbolic functions.
    Degenerate nodes (var within rounding slack of 0, a point mass at m1)
    return m1 exactly. Raises ValueError naming the first node with m2 < m1^2.
    """
    scale = np.maximum(m1 * m1, 1.0)
    var = m2 - m1 * m1
    bad = np.flatnonzero(var < -_MOMENT_SLACK * scale)
    if bad.size:
        k = int(bad[0])
        raise ValueError(
            f"invalid moments at node {k}: m2 = {m2[k]} < m1^2 = {m1[k] * m1[k]}"
        )
    degenerate = var <= _MOMENT_SLACK * scale
    var = np.where(degenerate, 1.0, var)
    mu3 = np.where(degenerate, 0.0, m3 - 3.0 * m1 * m2 + 2.0 * m1**3)
    s = np.sqrt(var)
    d = 2.0 * s * np.sinh(np.arcsinh(mu3 / (2.0 * var * s)) / 3.0)
    d -= (d * (d * d + 3.0 * var) - mu3) / (3.0 * (d * d + var))
    return np.where(degenerate, m1, m1 + d)


def cubic_el_root(m1: float, m2: float, m3: float) -> float:
    """Unique real root of x^3 - 3 x^2 m1 + 3 x m2 - m3 = 0 for one moment triple.

    Requires m2 >= m1^2 (a valid moment pair), which makes the cubic
    nondecreasing and the root unique. Uses the closed form of
    ``F4_from_moments``; degenerate moments (a point mass) return m1 exactly.
    """
    return float(_el_roots(*(np.array([v], dtype=float) for v in (m1, m2, m3)))[0])


def F4_from_moments(moments: MomentCurves, theta: float) -> Approximant:
    """Fourth-power-optimal curve: the cubic root at every node in one pass.

    F4(0) = 0 follows from the vanishing moments at t = 0; the drift is
    recovered by finite-difference application of I^{-1}.
    """
    vals = _el_roots(moments.m1.values, moments.m2.values, moments.m3.values)
    F = Curve(moments.grid, vals)
    f = sde_mod.apply_I_inv(F, theta)
    return Approximant(p=4, F=F, f=f, theta=theta)


def Fp_root(p: int, samples: np.ndarray, tol: float = 1e-13) -> float:
    """Root of the empirical stationarity function for even power p.

    Solves mean(|x - Z_i|^{p-2} (x - Z_i)) = 0 over the sample; the function
    is continuous and nondecreasing, with the root bracketed by the sample
    range. p = 2 reduces to the sample mean.
    """
    if p < 2 or p % 2 != 0:
        raise ValueError(f"p must be an even integer >= 2, got {p}")
    z = np.asarray(samples, dtype=float)
    if z.size == 0:
        raise ValueError("samples must be nonempty")
    if p == 2:
        return float(np.mean(z))
    lo, hi = float(np.min(z)), float(np.max(z))
    if lo == hi:
        return lo

    def g(x):
        d = x - z
        return float(np.mean(np.abs(d) ** (p - 2) * d))

    eps = max(tol, 8.0 * np.spacing(max(abs(lo), abs(hi))))
    while hi - lo > eps:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if g(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def eta2(model: drift_mod.DriftModel, theta: float, grid: TimeGrid) -> Curve:
    """The derivative of F2 in closed form: eta2(t) = -theta E[Z(t)] + E[z(t)]."""
    F2 = F2_analytic(model, theta, grid)
    return Curve(grid, -theta * F2.F.values + F2.f.values)


def transversality_residual(p: int, Z_T_samples: np.ndarray, F_T: float) -> float:
    """Empirical terminal-time stationarity residual mean(|F_T - Z_i|^{p-2}(F_T - Z_i)).

    Zero (to sampling accuracy) exactly when F_T is the order-p optimal
    terminal value for the sampled Z(T).
    """
    if p < 2 or p % 2 != 0:
        raise ValueError(f"p must be an even integer >= 2, got {p}")
    z = np.asarray(Z_T_samples, dtype=float)
    d = F_T - z
    if p == 2:
        return float(np.mean(d))
    return float(np.mean(np.abs(d) ** (p - 2) * d))
