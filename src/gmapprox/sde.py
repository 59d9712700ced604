"""Linear SDE container, its Ornstein-Uhlenbeck part Y, and the f <-> F maps.

The target equation is dX = (-theta X + z) dt + sigma dW with constant
damping. Its strong solution splits into an Ornstein-Uhlenbeck part Y
(initial decay plus noise) and the damped drift accumulation Z, which are
independent because z is independent of W. The deterministic counterpart of
the split is the bijection between drift functions f and accumulated curves
F = I f solving F' = -theta F + f with F(0) = 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .timebase import Curve, PoleRun, TimeGrid, exp_weighted_values

__all__ = [
    "LinearSDE",
    "simulate_Y",
    "apply_I",
    "apply_I_inv",
    "z_variance_quadrature",
    "ou_drift_cov_kernel",
]


@dataclass(frozen=True)
class LinearSDE:
    """dX = (-theta X + z(t)) dt + sigma dW on the given grid, X(0) = x0."""

    theta: float
    sigma: float
    x0: float
    grid: TimeGrid

    def __post_init__(self):
        if self.theta <= 0:
            raise ValueError(f"theta must be positive, got {self.theta}")
        if self.sigma < 0:
            raise ValueError(f"sigma must be nonnegative, got {self.sigma}")


def _y_values(sde: LinearSDE, stream: np.random.Generator) -> np.ndarray:
    dt = sde.grid.dt
    a = np.exp(-sde.theta * dt)
    s = sde.sigma * np.sqrt(-np.expm1(-2 * sde.theta * dt) / (2 * sde.theta))
    x = np.zeros(sde.grid.n_nodes)
    if sde.sigma > 0:
        x[1:] = s * stream.standard_normal(sde.grid.n_steps)
    x = PoleRun(a, sde.grid.n_nodes)(x)
    x += sde.x0 * a ** np.arange(sde.grid.n_nodes)
    return x


def simulate_Y(sde: LinearSDE, stream: np.random.Generator) -> Curve:
    """One OU path through the exact transition density.

    Y(t_{k+1}) = e^{-theta dt} Y(t_k) + sigma sqrt((1 - e^{-2 theta dt}) / (2 theta)) xi_k,

    so the discretization is exact in distribution at the nodes.
    """
    return Curve(sde.grid, _y_values(sde, stream))


def apply_I(f: Curve, theta: float) -> Curve:
    """F = I f: the accumulated curve solving F' = -theta F + f, F(0) = 0."""
    return Curve(f.grid, exp_weighted_values(f.values, f.grid.dt, theta))


def apply_I_inv(F: Curve, theta: float) -> Curve:
    """f = I^{-1} F = F' + theta F, with F' by second-order finite differences.

    Central differences at interior nodes, one-sided second-order stencils at
    the endpoints. Requires F(0) = 0 and at least 3 nodes (the stencils'
    width).
    """
    if theta <= 0:
        raise ValueError(f"theta must be positive, got {theta}")
    v = F.values
    if len(v) < 3:
        raise ValueError(f"I^-1 needs at least 3 grid nodes, got {len(v)}")
    if abs(v[0]) > 1e-12:
        raise ValueError(f"I^-1 needs F(0) = 0, got F(0) = {v[0]}")
    dt = F.grid.dt
    d = np.empty_like(v)
    d[1:-1] = (v[2:] - v[:-2]) / (2 * dt)
    d[0] = (-3 * v[0] + 4 * v[1] - v[2]) / (2 * dt)
    d[-1] = (3 * v[-1] - 4 * v[-2] + v[-3]) / (2 * dt)
    return Curve(F.grid, d + theta * v)


def z_variance_quadrature(cov_kernel, theta: float, grid: TimeGrid) -> Curve:
    """Var[Z(t)] from a caller-supplied drift covariance kernel.

    Evaluates the double integral

        Var[Z(t)] = int_0^t int_0^t e^{-theta (2t - u - v)} Cov(z(u), z(v)) du dv

    by nested cumulative trapezoids on the grid. ``cov_kernel(u, v)`` must
    accept meshgrid arrays. Cost and memory are O(n^2) in the node count;
    intended for verification on moderate grids, not for inner loops.
    """
    from scipy.integrate import cumulative_trapezoid

    t = grid.times()
    uu, vv = np.meshgrid(t, t, indexing="ij")
    k = np.exp(theta * uu) * np.asarray(cov_kernel(uu, vv), dtype=float)
    inner = cumulative_trapezoid(k, dx=grid.dt, axis=0, initial=0.0)
    outer = cumulative_trapezoid(np.exp(theta * t)[None, :] * inner, dx=grid.dt, axis=1, initial=0.0)
    return Curve(grid, np.exp(-2 * theta * t) * np.diagonal(outer))


def ou_drift_cov_kernel(model):
    """Cov(z(u), z(v)) for the OU drift, for use with z_variance_quadrature."""
    lam, s2 = model.rate, model.sigma_u**2

    def kernel(u, v):
        return s2 / (2 * lam) * (np.exp(-lam * np.abs(u - v)) - np.exp(-lam * (u + v)))

    return kernel
