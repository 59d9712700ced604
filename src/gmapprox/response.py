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

The exact cumulants of Z need every power E[K(t - T)^k] of the damped
response K, k = 1..4. Those come from chains of exponential convolutions
(:func:`chain_states`, :func:`response_power_means`), which are sums of
nonnegative terms and so keep their relative accuracy at every t.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.signal import lfilter
from scipy.special import gammainc, roots_jacobi, roots_legendre

from .timebase import Curve, TimeGrid, stable_exp_diff

__all__ = [
    "lower_incomplete_gamma",
    "response_moment_curves",
    "chain_states",
    "response_power_means",
    "convolution_oracle",
]


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


# ---------------------------------------------------------------------------
# chains of exponential convolutions
#
# The chain of rates r_0..r_m is the convolution e^{-r_0 .} * ... * e^{-r_m .};
# together with its prefixes it is the state v(u) = exp(u M) e_0 of the
# lower-bidiagonal generator M (diagonal -r_j, subdiagonal 1). Powers of a
# damped response are chains, (e^{-a .} * e^{-b .})^k = k! chain((k - j) a + j b,
# j = 0..k), and so are their integrals and their convolutions with an
# exponential density. M + max(r) I is nonnegative, so exp(u M) is a sum of
# nonnegative terms and so is every step v(u + dt) = exp(dt M) v(u): no
# alternating exponential sum is ever formed, the values keep their relative
# accuracy at t -> 0, and equal or nearly equal rates need no special case.

_GAUSS_NODES = 16  # quadrature nodes per grid cell for a convolution with a density


def _chain_expm(rates, u: float) -> np.ndarray:
    """exp(u M) for the chain generator of ``rates``, accurate entry by entry."""
    r = np.asarray(rates, dtype=float)
    m = r.size
    s = r.max()
    P = np.diag(s - r) + np.eye(m, k=-1)  # M + s I, nonnegative
    norm = u * (np.max(s - r) + 1.0)
    q = int(np.ceil(np.log2(norm / 0.5))) if norm > 0.5 else 0
    hP = (u / 2.0**q) * P
    term = np.eye(m)
    E = np.eye(m)
    for j in range(1, 100):
        term = term @ hP / j
        E += term
        if j >= m and np.all(term <= 1e-17 * E):
            break
    E *= math.exp(-s * u / 2.0**q)
    for _ in range(q):
        E = E @ E
    return E


def _chain_run(A: np.ndarray, x: np.ndarray) -> np.ndarray:
    """States v_k = A v_{k-1} + x_k along the last axis of ``x``, from v_{-1} = 0.

    A is a lower-triangular nonnegative step matrix, so each component is one
    first-order ``lfilter`` recurrence fed by the components before it. The
    states overwrite ``x``, which is returned.
    """
    for j in range(x.shape[0]):
        if j:
            x[j, 1:] += A[j, :j] @ x[:j, :-1]
        x[j] = lfilter([1.0], [1.0, -A[j, j]], x[j])
    return x


def chain_states(rates, grid: TimeGrid, start: float = 0.0, v0=None) -> np.ndarray:
    """Chain states v(t_k - start) at the grid nodes, zero at nodes before ``start``.

    Row j is the chain of rates r_0..r_j; v(0) is ``v0`` (default e_0, i.e.
    plain chains). Returns an array of shape (len(rates), n_nodes).
    """
    m, n = len(rates), grid.n_nodes
    if v0 is None:
        v0 = np.eye(m)[:, 0]
    t = grid.times()
    out = np.zeros((m, n))
    k0 = int(np.searchsorted(t, start))
    if k0 < n:
        out[:, k0] = _chain_expm(rates, t[k0] - start) @ v0
        _chain_run(_chain_expm(rates, grid.dt), out[:, k0:])
    return out


def _gamma_convolution(rates, nu: float, alpha: float, grid: TimeGrid) -> np.ndarray:
    """w(t_k) = int_0^{t_k} p(s) v(t_k - s) ds for the Gamma(nu, alpha) density p.

    Cell by cell, w_k = exp(dt M) w_{k-1} + int_{t_{k-1}}^{t_k} p(s) v(t_k - s) ds.
    The first cell carries the s^{alpha - 1} factor of p and uses Gauss-Jacobi
    nodes for it, the others Gauss-Legendre nodes; every weight is positive.
    """
    m, n, dt = len(rates), grid.n_nodes, grid.dt
    t = grid.times()
    logc = alpha * math.log(nu) - math.lgamma(alpha)
    states = lambda u: np.stack([_chain_expm(rates, x)[:, 0] for x in u], axis=1)
    x = np.zeros((m, n))
    xj, wj = roots_jacobi(_GAUSS_NODES, 0.0, alpha - 1.0)
    s = 0.5 * dt * (1.0 + xj)
    logw = np.log(wj) + logc + alpha * math.log(0.5 * dt) - nu * s
    x[:, 1] = states(dt - s) @ np.exp(logw)
    xl, wl = roots_legendre(_GAUSS_NODES)
    u = 0.5 * dt * (1.0 + xl)
    V = states(u)
    for q in range(_GAUSS_NODES):  # one node at a time: transients of one row each
        s = t[2:] - u[q]
        p = np.exp(logc + (alpha - 1.0) * np.log(s) - nu * s)
        x[:, 2:] += V[:, q : q + 1] * ((0.5 * dt * wl[q]) * p)
    return _chain_run(_chain_expm(rates, dt), x)


def response_power_means(arrival, lam: float, theta: float, grid: TimeGrid, order: int):
    """E[K(t - T)^k 1{T <= t}] at the grid nodes for k = 1..order, as rows.

    K(u) = (e^{-lam u} - e^{-theta u}) / (theta - lam) is the damped response
    to one event at time T, and lam = 0 gives the lasting jump
    (1 - e^{-theta u}) / theta. K^k is k! times the chain of rates
    (k - j) lam + j theta, j = 0..k, so each mean is a chain state:
    exponential arrivals prepend their rate, point masses shift the chain,
    uniform arrivals average it over the window, and Gamma arrivals are
    convolved cell by cell.
    """
    from . import drift  # local import: drift also imports this module

    out = np.empty((order, grid.n_nodes))
    for k in range(1, order + 1):
        rates = [(k - j) * lam + j * theta for j in range(k + 1)]
        if isinstance(arrival, drift.Exponential):
            nu = arrival.rate
            v = nu * chain_states([nu] + rates, grid)[-1]
        elif isinstance(arrival, drift.Gamma):
            v = _gamma_convolution(rates, arrival.rate, arrival.shape, grid)[-1]
        elif isinstance(arrival, drift.PointMass):
            v = chain_states(rates, grid, start=arrival.value)[-1]
        elif isinstance(arrival, drift.Uniform):
            lo, hi = arrival.lo, arrival.hi
            aug = [0.0] + rates  # integrates the chain: row j + 1 is int_0^u v_j
            inside = chain_states(aug, grid, start=lo)[-1]
            window = _chain_expm(aug, hi - lo)[1:, 0]  # int_0^{hi - lo} v(x) dx
            after = chain_states(rates, grid, start=hi, v0=window)[-1]
            v = np.where(grid.times() < hi, inside, after) / (hi - lo)
        else:
            raise ValueError(f"unsupported arrival distribution: {type(arrival).__name__}")
        out[k - 1] = math.factorial(k) * v
    return out


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
