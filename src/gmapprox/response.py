"""Response-function moment curves for shot-noise drifts.

For an exponentially decaying response R(t) = e^{-lam t} on t >= 0 triggered
at a random time with density p, the drift moments need

    phi(t) = E[R(t - T)] = (R * p)(t),      psi(t) = E[R^2(t - T)] = (R^2 * p)(t).

Closed forms are used for exponential firing times (any rate), point masses,
uniform firing times, and Gamma firing times when the incomplete-gamma
argument nu - decay is positive; there the regularized incomplete gamma comes
from scipy, evaluated at all nodes at once. Otherwise both convolutions are
evaluated numerically on the grid by the trapezoid rule. Because the response
is exponential, the convolution sum is a first-order linear recurrence along
the grid, computed in O(n) by ``scipy.signal.lfilter``.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.signal import lfilter
from scipy.special import gammainc

from .timebase import Curve, TimeGrid, stable_exp_diff

__all__ = ["lower_incomplete_gamma", "response_moment_curves", "convolution_oracle"]


def lower_incomplete_gamma(alpha: float, x: float) -> float:
    """Lower incomplete gamma function g(alpha, x) = int_0^x s^{alpha-1} e^{-s} ds."""
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    if x < 0:
        raise ValueError(f"x must be nonnegative, got {x}")
    return float(gammainc(alpha, x)) * math.gamma(alpha)


def response_moment_curves(dist, lam: float, grid: TimeGrid) -> tuple[Curve, Curve]:
    """phi and psi curves for a firing-time distribution; see module docstring.

    Supports exponential, gamma, uniform and point-mass firing times (every
    arrival law ``ShotNoise`` accepts); gamma falls back to numerical
    convolution whenever a closed-form incomplete-gamma argument is
    nonpositive.
    """
    from . import drift  # local import: drift also imports this module

    if lam <= 0:
        raise ValueError(f"response rate must be positive, got {lam}")
    t = grid.times()
    if isinstance(dist, drift.Exponential):
        nu = dist.rate
        if nu == lam or nu == 2 * lam:
            raise ValueError(
                f"firing rate {nu} must differ from response rate {lam} and {2 * lam}"
            )
        phi = nu * stable_exp_diff(lam, nu, t)
        psi = nu * stable_exp_diff(2 * lam, nu, t)
        return Curve(grid, phi), Curve(grid, psi)
    if isinstance(dist, drift.Gamma):
        phi = _gamma_case(dist, lam, grid)
        psi = _gamma_case(dist, 2 * lam, grid)
        return phi, psi
    if isinstance(dist, drift.PointMass):
        tau = dist.value
        if tau < 0:
            raise ValueError("firing time must be nonnegative")
        u = t - tau
        phi = np.where(u >= 0, np.exp(-lam * np.maximum(u, 0.0)), 0.0)
        return Curve(grid, phi), Curve(grid, phi**2)
    if isinstance(dist, drift.Uniform):
        if dist.lo < 0:
            raise ValueError("firing-time support must be nonnegative")
        return _uniform_case(dist, lam, t, grid), _uniform_case(dist, 2 * lam, t, grid)
    raise ValueError(f"unsupported firing-time distribution: {type(dist).__name__}")


def _uniform_case(dist, decay: float, t: np.ndarray, grid: TimeGrid) -> Curve:
    # E[e^{-decay (t-T)} 1_{T<=t}] for T ~ Uniform(lo, hi):
    # (e^{-decay (t - m)} - e^{-decay (t - lo)}) / (decay (hi - lo)), m = clip(t, lo, hi),
    # with the difference written through expm1 (zero for t <= lo)
    m = np.clip(t, dist.lo, dist.hi)
    vals = np.exp(-decay * (t - m)) * -np.expm1(-decay * (m - dist.lo))
    return Curve(grid, vals / (decay * (dist.hi - dist.lo)))


def _gamma_case(dist, decay: float, grid: TimeGrid) -> Curve:
    # E[e^{-decay (t-T)} 1_{T<=t}] for T ~ Gamma(rate, shape)
    nu, alpha = dist.rate, dist.shape
    t = grid.times()
    arg = nu - decay
    if arg > 0:
        vals = (nu / arg) ** alpha * np.exp(-decay * t) * gammainc(alpha, arg * t)
        return Curve(grid, vals)
    return _convolve_response(decay, _gamma_pdf(nu, alpha), grid)


def _gamma_pdf(rate: float, shape: float):
    logc = shape * math.log(rate) - math.lgamma(shape)

    def pdf(s):
        s = np.asarray(s, dtype=float)
        out = np.zeros_like(s)
        pos = s > 0
        out[pos] = np.exp(logc + (shape - 1) * np.log(s[pos]) - rate * s[pos])
        if shape == 1:
            out[s == 0] = rate
        return out

    return pdf


def _convolve_response(decay: float, pdf, grid: TimeGrid) -> Curve:
    """Trapezoid convolution of e^{-decay u} with the density, at the grid nodes.

    The plain convolution sum full[k] = sum_j q^{k-j} p[j], q = e^{-decay dt},
    is the first-order recurrence full[k] = q full[k-1] + p[k], so it costs
    O(n) instead of the O(n^2) of a direct convolution.
    """
    t = grid.times()
    dt = grid.dt
    r = np.exp(-decay * t)
    p = pdf(t)
    full = lfilter([1.0], [1.0, -np.exp(-decay * dt)], p)
    # convert the plain convolution sum into trapezoid weights (r[0] = 1)
    vals = dt * (full - 0.5 * r * p[0] - 0.5 * p)
    vals[0] = 0.0
    return Curve(grid, vals)


def convolution_oracle(dist, lam: float, grid: TimeGrid, squared: bool = False) -> Curve:
    """Direct numerical convolution of R (or R^2) with the firing-time density.

    Exists as an independent check of the closed forms; not used on any
    production path for exponential firing times.
    """
    from . import drift

    decay = 2 * lam if squared else lam
    if isinstance(dist, drift.Exponential):
        pdf = lambda s: dist.rate * np.exp(-dist.rate * np.asarray(s, dtype=float))
    elif isinstance(dist, drift.Gamma):
        pdf = _gamma_pdf(dist.rate, dist.shape)
    elif isinstance(dist, drift.Uniform):
        if dist.lo < 0:
            raise ValueError("firing-time support must be nonnegative")
        width = dist.hi - dist.lo
        pdf = lambda s: np.where(
            (np.asarray(s) >= dist.lo) & (np.asarray(s) <= dist.hi), 1.0 / width, 0.0
        )
    else:
        raise ValueError(f"no density available for {type(dist).__name__}")
    return _convolve_response(decay, pdf, grid)
