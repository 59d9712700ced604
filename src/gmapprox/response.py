"""Response-function moment curves for shot-noise drifts.

For an exponentially decaying response R(t) = e^{-lam t} on t >= 0 triggered
at a random time with density p, the drift moments need

    phi(t) = E[R(t - T)] = (R * p)(t),      psi(t) = E[R^2(t - T)] = (R^2 * p)(t).

Closed forms are used for exponential firing times (any rate), point masses
and uniform firing times. Gamma firing times use the exact one-rate chain
convolution of :func:`_gamma_convolution`, whichever side of the decay rate
the firing rate lies on. Piecewise-uniform firing times, the first-passage
law of a simulated LIF input among them, are convolved cell by cell
(:func:`_cell_convolution`).

The exact cumulants of Z need every power E[K(t - T)^k] of the damped
response K, k = 1..4. Those come from chains of exponential convolutions
(:func:`chain_states`, :func:`response_power_means`), which are sums of
nonnegative terms and so keep their relative accuracy at every t.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial.legendre import leggauss

from .timebase import Curve, TimeGrid, one_pole, stable_exp_diff

__all__ = [
    "response_moment_curves",
    "chain_states",
    "response_power_means",
]


def response_moment_curves(dist, lam: float, grid: TimeGrid) -> tuple[Curve, Curve]:
    """phi and psi curves for a firing-time distribution; see module docstring.

    Supports exponential, gamma, uniform, point-mass and piecewise-uniform
    firing times, and the first-passage law of a simulated input
    (:func:`_arrival_law`), so every arrival law ``ShotNoise`` accepts; gamma
    uses the exact chain convolution for every pair of rates.
    """
    from . import drift  # local import: drift also imports this module

    if lam <= 0:
        raise ValueError(f"response rate must be positive, got {lam}")
    dist = _arrival_law(dist, grid)
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
        nu, alpha = dist.rate, dist.shape
        phi, psi = (_gamma_convolution([r], nu, alpha, grid)[-1] for r in (lam, 2 * lam))
        return Curve(grid, phi), Curve(grid, psi)
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
    if isinstance(dist, drift.PiecewiseUniform):
        return tuple(Curve(grid, _cell_convolution([r], dist, grid)[-1]) for r in (lam, 2 * lam))
    raise ValueError(f"unsupported firing-time distribution: {type(dist).__name__}")


def _uniform_case(dist, decay: float, t: np.ndarray, grid: TimeGrid) -> Curve:
    # E[e^{-decay (t-T)} 1_{T<=t}] for T ~ Uniform(lo, hi):
    # (e^{-decay (t - m)} - e^{-decay (t - lo)}) / (decay (hi - lo)), m = clip(t, lo, hi),
    # with the difference written through expm1 (zero for t <= lo)
    m = np.clip(t, dist.lo, dist.hi)
    vals = np.exp(-decay * (t - m)) * -np.expm1(-decay * (m - dist.lo))
    return Curve(grid, vals / (decay * (dist.hi - dist.lo)))


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
_LEGENDRE = leggauss(_GAUSS_NODES)  # Gauss-Legendre nodes and weights on [-1, 1]


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
    first-order recurrence (:func:`timebase.one_pole`) fed by the components
    before it. The states overwrite ``x``, whose rows must be contiguous, and
    ``x`` is returned.
    """
    for j in range(x.shape[0]):
        if j:
            x[j, 1:] += A[j, :j] @ x[:j, :-1]
        one_pole(x[j], A[j, j])
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
    nodes for it (:func:`_gauss_jacobi`), the others Gauss-Legendre nodes
    (numpy's ``leggauss``, computed once); every weight is positive.
    """
    m, n, dt = len(rates), grid.n_nodes, grid.dt
    t = grid.times()
    logc = alpha * math.log(nu) - math.lgamma(alpha)
    states = lambda u: np.stack([_chain_expm(rates, x)[:, 0] for x in u], axis=1)
    x = np.zeros((m, n))
    xj, wj = _gauss_jacobi(_GAUSS_NODES, alpha - 1.0)
    s = 0.5 * dt * (1.0 + xj)
    logw = np.log(wj) + logc + alpha * math.log(0.5 * dt) - nu * s
    x[:, 1] = states(dt - s) @ np.exp(logw)
    xl, wl = _LEGENDRE
    u = 0.5 * dt * (1.0 + xl)
    V = states(u)
    for q in range(_GAUSS_NODES):  # one node at a time: transients of one row each
        s = t[2:] - u[q]
        p = np.exp(logc + (alpha - 1.0) * np.log(s) - nu * s)
        x[:, 2:] += V[:, q : q + 1] * ((0.5 * dt * wl[q]) * p)
    return _chain_run(_chain_expm(rates, dt), x)


def _gauss_jacobi(n: int, b: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point Gauss rule for the weight (1 + x)^b on [-1, 1], b > -1.

    Golub-Welsch: the nodes are the eigenvalues of the Jacobi matrix of the
    orthonormal Jacobi polynomials p_j of P^(0, b). Each weight is the
    Christoffel number mu_0 / sum_j p_j(x)^2, mu_0 = 2^(b + 1) / (b + 1)
    being the total weight, with the p_j run by their three-term recurrence:
    a sum of squares, so the smallest weights keep their relative accuracy
    (an eigenvector's first component holds only its absolute accuracy).
    """
    k = np.arange(1.0, n)
    s = 2.0 * k + b  # 2k + a + b with a = 0
    diag = np.concatenate(([b / (b + 2.0)], b * b / (s * (s + 2.0))))
    off = 2.0 * k * (k + b) / (s * np.sqrt(s * s - 1.0))  # couples p_{k-1} and p_k
    x = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    off = np.concatenate(([0.0], off))
    p_prev, p, norm2 = np.zeros(n), np.ones(n), np.ones(n)
    for j in range(n - 1):
        p_prev, p = p, ((x - diag[j]) * p - off[j] * p_prev) / off[j + 1]
        norm2 += p * p
    return x, 2.0 ** (b + 1.0) / (b + 1.0) / norm2


def response_power_means(arrival, lam: float, theta: float, grid: TimeGrid, order: int):
    """E[K(t - T)^k 1{T <= t}] at the grid nodes for k = 1..order, as rows.

    K(u) = (e^{-lam u} - e^{-theta u}) / (theta - lam) is the damped response
    to one event at time T, and lam = 0 gives the lasting jump
    (1 - e^{-theta u}) / theta. K^k is k! times the chain of rates
    (k - j) lam + j theta, j = 0..k, so each mean is a chain state:
    exponential arrivals prepend their rate, point masses shift the chain,
    uniform arrivals average it over the window, and Gamma and
    piecewise-uniform arrivals (the first-passage law of a simulated input,
    :func:`_arrival_law`) are convolved cell by cell.
    """
    from . import drift  # local import: drift also imports this module

    arrival = _arrival_law(arrival, grid)
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
        elif isinstance(arrival, drift.PiecewiseUniform):
            v = _cell_convolution(rates, arrival, grid)[-1]
        else:
            raise ValueError(f"unsupported arrival distribution: {type(arrival).__name__}")
        out[k - 1] = math.factorial(k) * v
    return out


def _arrival_law(arrival, grid: TimeGrid):
    """The law whose moments a fit on ``grid`` integrates: a simulated input's first-passage law.

    A :class:`drift.SimulatedFiring` arrival must have sim_dt equal to the
    grid step (ValueError otherwise), and a law with more than half of its
    event times censored raises :class:`drift.CensoringError`. Every other
    law is returned as it is.
    """
    from . import drift  # local import: drift also imports this module

    if not isinstance(arrival, drift.SimulatedFiring):
        return arrival
    if arrival.sim_dt != grid.dt:
        raise ValueError(f"simulated firing has sim_dt = {arrival.sim_dt}, the grid dt = {grid.dt}")
    lost = drift.censored_share(arrival)
    if 2 * lost > 1:
        raise drift.CensoringError(f"{lost:.2%} of the firing times are censored; raise horizon_cap")
    return arrival.law


def _cell_convolution(rates, law, grid: TimeGrid) -> np.ndarray:
    """Chain states E[v(t_k - T) 1{T <= t_k}] at the grid nodes for a piecewise-uniform T.

    The law's cells hold a whole number of grid cells, each taking an equal
    share of its mass. The mass dG_k of grid cell (t_{k-1}, t_k] is uniform
    on it, so it adds dG_k w to the state at t_k, with w the mean of v over
    one step (the window integral of the uniform case), and the states
    follow v_k = exp(dt M) v_{k-1} + dG_k w.
    """
    n, dt = grid.n_nodes, grid.dt
    per = round(law.dt / dt)
    if per < 1 or abs(per * dt - law.dt) > 1e-9 * law.dt:
        raise ValueError(f"law cells of width {law.dt} are not whole grid steps of {dt}")
    masses = np.repeat(np.diff(law.cdf) / per, per)[: n - 1]
    x = np.zeros((len(rates), n))
    window = _chain_expm([0.0] + list(rates), dt)[1:, 0] / dt
    x[:, 1 : masses.size + 1] = window[:, None] * masses
    return _chain_run(_chain_expm(rates, dt), x)
