"""Chains of exponential convolutions and their means under an event-time law.

For an exponentially decaying response R(t) = e^{-lam t} on t >= 0 triggered
at a random time T with law p, the drift moments need

    phi(t) = E[R(t - T)] = (R * p)(t),      psi(t) = E[R^2(t - T)] = (R^2 * p)(t),

and the exact cumulants of Z need every power E[K(t - T)^k] of the damped
response K, k = 1..4. All of them are means E[v(t - T) 1{T <= t}] of chains
v of exponential convolutions (:func:`chain_states`): phi and psi are those
of the one-rate chains [lam] and [2 lam]. Each event-time law of
:mod:`drift` takes its mean with its ``chain_mean`` method, built from the
pieces here: exponential arrivals prepend their rate to the chain, point
masses shift it, uniform arrivals average it over the window, Gamma arrivals
are convolved cell by cell with Gauss rules (:func:`_gamma_convolution`)
and piecewise-uniform ones, the first-passage law of a simulated LIF input
among them, by their cell masses (:func:`_cell_convolution`). The chains
are sums of nonnegative terms and so keep their relative accuracy at every
t, whichever side of each other the rates lie on.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial.legendre import leggauss

from .timebase import Curve, PoleRun, TimeGrid

__all__ = [
    "response_moment_curves",
    "chain_states",
    "response_power_means",
]


def response_moment_curves(dist, lam: float, grid: TimeGrid) -> tuple[Curve, Curve]:
    """phi and psi curves for a firing-time law: its chain means of [lam] and [2 lam].

    ``dist`` is any law with a ``chain_mean``, so every arrival law
    ``ShotNoise`` accepts; see the module docstring.
    """
    if lam <= 0:
        raise ValueError(f"response rate must be positive, got {lam}")
    return tuple(Curve(grid, dist.chain_mean([r], grid)) for r in (lam, 2 * lam))


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


def _chain_expm(rates, u) -> np.ndarray:
    """exp(u M) for the chain generator of ``rates``, accurate entry by entry.

    ``u`` is one offset or an array of them, giving an array of shape
    u.shape + (m, m). The offsets share one scaling and squaring: the
    squaring count is set by the largest, and the Taylor series runs until
    its terms are negligible for all of them.
    """
    r = np.asarray(rates, dtype=float)
    u = np.asarray(u, dtype=float)
    m = r.size
    s = r.max()
    P = np.diag(s - r) + np.eye(m, k=-1)  # M + s I, nonnegative
    norm = u.max() * (np.max(s - r) + 1.0)
    q = int(np.ceil(np.log2(norm / 0.5))) if norm > 0.5 else 0
    hP = (u[..., None, None] / 2.0**q) * P
    term = np.eye(m)
    E = np.broadcast_to(term, hP.shape).copy()
    for j in range(1, 100):
        term = term @ hP / j
        E += term
        if j >= m and np.all(term <= 1e-17 * E):
            break
    E *= np.exp(-s * u / 2.0**q)[..., None, None]
    for _ in range(q):
        E = E @ E
    return E


def _chain_run(A: np.ndarray, x: np.ndarray) -> np.ndarray:
    """States v_k = A v_{k-1} + x_k along the last axis of ``x``, from v_{-1} = 0.

    A is a lower-triangular nonnegative step matrix, so each component is one
    first-order recurrence from rest with pole A[j, j] (a
    :class:`timebase.PoleRun`), fed by the components before it. The states
    overwrite ``x``, whose rows must be contiguous, and ``x`` is returned.
    """
    for j in range(x.shape[0]):
        if j:
            x[j, 1:] += A[j, :j] @ x[:j, :-1]
        PoleRun(A[j, j], x.shape[1])(x[j].copy(), x[j])
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
    states = lambda u: _chain_expm(rates, u)[:, :, 0].T  # v at each offset, as columns
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
    (k - j) lam + j theta, j = 0..k, so each mean is a chain mean of the
    arrival law (its ``chain_mean``).
    """
    out = np.empty((order, grid.n_nodes))
    for k in range(1, order + 1):
        rates = [(k - j) * lam + j * theta for j in range(k + 1)]
        out[k - 1] = math.factorial(k) * arrival.chain_mean(rates, grid)
    return out


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
