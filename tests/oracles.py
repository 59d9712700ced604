"""Independent numerical oracles and helpers shared by the tests (not part of the package)."""

import csv
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from scipy.signal import lfilter

import gmapprox
from gmapprox import drift as dm
from gmapprox.sde import LinearSDE, simulate_Y
from gmapprox.timebase import (
    _BLOCK,
    Curve,
    PathEnsemble,
    TimeGrid,
    block_stream,
    derive_stream,
    exp_weighted_values,
    fill_rows,
    split_stream,
)


def exp_weighted_running_integral(g: Curve, theta: float) -> Curve:
    """H(t) = e^{-theta t} int_0^t g(s) e^{theta s} ds by the per-step trapezoid recursion.

    H(t_{k+1}) = e^{-theta dt} H(t_k) + trapezoid of g(s) e^{theta (s - t_{k+1})}
    over [t_k, t_{k+1}], run with ``lfilter`` rather than the package's kernel.
    """
    if theta <= 0:
        raise ValueError(f"theta must be positive, got {theta}")
    a = np.exp(-theta * g.grid.dt)
    x = np.zeros(g.grid.n_nodes)
    x[1:] = 0.5 * g.grid.dt * (a * g.values[:-1] + g.values[1:])
    return Curve(g.grid, lfilter([1.0], [1.0, -a], x))


def z_rows(model, grid: TimeGrid, stream: np.random.Generator, rows: int) -> np.ndarray:
    """z at the nodes of ``rows`` paths, from the variates the block sampler draws from ``stream``.

    Brute force from the draws and the closed forms, with none of the
    package's kernels: an event variant sums every event's response
    w e^{-lam (t - T)} at every node it reaches (``model._draw_events``),
    the single shot is a step at its exponential time, the Brownian drift
    a running sum of sqrt(dt) normals plus the trend, the OU drift its
    exact transition run by ``lfilter``, and a deterministic drift its curve.
    """
    t = grid.times()
    if isinstance(model, (dm.CompoundPoisson, dm.ShotNoise)):
        times, weights, counts = model._draw_events(grid, stream, rows)
        lam = getattr(model, "response_rate", 0.0)
        edges = np.concatenate(([0], np.cumsum(counts)))
        out = np.empty((rows, grid.n_nodes))
        for r in range(rows):
            u = t - times[edges[r] : edges[r + 1], None]
            w = weights[edges[r] : edges[r + 1], None]
            out[r] = np.sum(np.where(u >= 0, w * np.exp(-lam * np.maximum(u, 0.0)), 0.0), axis=0)
        return out
    if isinstance(model, dm.SingleShot):
        tau = stream.exponential(1.0 / model.rate, size=rows)
        return (t >= tau[:, None]).astype(float)
    if isinstance(model, dm.Deterministic):
        return np.tile(model.f.values, (rows, 1))
    noise = stream.standard_normal((rows, grid.n_steps))
    if isinstance(model, dm.BrownianDrift):
        walk = np.cumsum(noise * np.sqrt(grid.dt), axis=1)
        return model.trend * t + np.hstack([np.zeros((rows, 1)), walk])
    lam = model.rate  # OUDrift: U_{k+1} = a U_k + scale * normal_k
    scale = model.sigma_u * np.sqrt(-np.expm1(-2 * lam * grid.dt) / (2 * lam))
    steps = np.hstack([np.full((rows, 1), float(model.u0)), scale * noise])
    return lfilter([1.0], [1.0, -np.exp(-lam * grid.dt)], steps, axis=1)


def z_path(model, grid: TimeGrid, stream: np.random.Generator) -> Curve:
    """One z path by :func:`z_rows`: the path whose Z ``drift.sample_Z_path`` draws from ``stream``."""
    return Curve(grid, z_rows(model, grid, stream, 1)[0])


def z_path_ensemble(model, grid: TimeGrid, n_paths: int, master_seed: int) -> PathEnsemble:
    """n_paths z paths by :func:`z_rows`, block b from ``block_stream(master_seed, b)`` as the Z ensemble's."""
    blocks = [
        z_rows(model, grid, block_stream(master_seed, b), min(_BLOCK, n_paths - lo))
        for b, lo in enumerate(range(0, n_paths, _BLOCK))
    ]
    return PathEnsemble(grid, n_paths, np.vstack(blocks), master_seed)


def event_kernel(events, lam: float, theta: float, grid: TimeGrid):
    """(Z, z) at the nodes, one row per (times, weights) pair in ``events``, through ``drift._EventKernel``.

    Z is the kernel's output. z, the state its Z recurrence reads, is binned
    from the kernel's own z terms and run by the sequential ``lfilter`` with
    the scalar pole, independently of the kernel's blocked run.
    """
    times = np.concatenate([np.asarray(e[0], dtype=float) for e in events])
    weights = np.concatenate([np.asarray(e[1], dtype=float) for e in events])
    row = np.repeat(np.arange(len(events)), [len(e[0]) for e in events])
    kernel = dm._EventKernel(lam, theta, grid)
    terms = kernel.terms(times, weights, row)
    shape = (len(events), grid.n_nodes)
    Z = kernel.rows(terms, 0, np.empty(shape), np.empty(shape[0] * shape[1]))
    live_row, cell, z_term, _ = terms
    z = np.zeros(shape)
    np.add.at(z.reshape(-1), live_row * grid.n_nodes + cell, z_term)
    return Z, lfilter([1.0], [1.0, -np.exp(-lam * grid.dt)], z, axis=-1)


def y_path_ensemble(sde: LinearSDE, n_paths: int, master_seed: int, threads: int = 1) -> PathEnsemble:
    """n_paths OU paths Y of ``sde``, row i from ``derive_stream(master_seed, i)``."""
    build = lambda i: simulate_Y(sde, derive_stream(master_seed, i)).values
    values = fill_rows(build, n_paths, sde.grid.n_nodes, threads)
    return PathEnsemble(sde.grid, n_paths, values, master_seed)


def ou_mean_cov(sde: LinearSDE, t: float, s: float) -> tuple[float, float]:
    """Closed-form mean E[Y(t)] and covariance Cov(Y(t), Y(s))."""
    th = sde.theta
    mean_t = sde.x0 * np.exp(-th * t)
    cov = sde.sigma**2 / (2 * th) * (np.exp(-th * abs(t - s)) - np.exp(-th * (t + s)))
    return float(mean_t), float(cov)


def solve_X(sde: LinearSDE, model, stream: np.random.Generator) -> tuple[Curve, Curve, Curve]:
    """One strong-solution path X = Y + Z, returning (X, Z, Y).

    Y and Z are built from two disjoint sub-streams of ``stream`` so they are
    independent, matching the standing assumption that z is independent of
    the driving Brownian motion.
    """
    y_stream, z_stream = split_stream(stream, 2)
    y = simulate_Y(sde, y_stream)
    z_acc = dm.sample_Z_path(model, sde.theta, sde.grid, z_stream)
    return Curve(sde.grid, y.values + z_acc.values), z_acc, y


def x_mean_analytic(sde: LinearSDE, model) -> Curve:
    """E[X(t)] = e^{-theta t} x0 + I(E[z])(t), exact up to the I quadrature."""
    t = sde.grid.times()
    acc = exp_weighted_values(dm.mean_z(model, sde.grid).values, sde.grid.dt, sde.theta)
    return Curve(sde.grid, sde.x0 * np.exp(-sde.theta * t) + acc)


def stacked_chunks(chunks):
    """(starts, matrix) of (start, chunk) pairs whose chunks are views of reused buffers."""
    starts, rows = [], []
    for start, chunk in chunks:
        starts.append(start)
        rows.append(chunk.copy())
    return starts, np.vstack(rows)


def cut_rows(values: np.ndarray, size: int):
    """(start, chunk) pairs of ``size`` rows of a materialized ensemble (the last may be shorter)."""
    return ((lo, values[lo : lo + size]) for lo in range(0, len(values), size))


def curve_from_csv(path) -> Curve:
    """Read back a curve written by ``Curve.to_csv``."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if rows[0] != ["t", "value"]:
        raise ValueError(f"unexpected curve CSV header: {rows[0]}")
    t = np.array([float(r[0]) for r in rows[1:]])
    v = np.array([float(r[1]) for r in rows[1:]])
    if len(t) < 2:
        raise ValueError("curve CSV needs at least two nodes")
    grid = TimeGrid(horizon_T=t[-1], dt=t[1] - t[0], n_steps=len(t) - 1)
    return Curve(grid, v)


def gamma_pdf(rate: float, shape: float):
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


def convolve_response(decay: float, pdf, grid: TimeGrid) -> Curve:
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
    """Direct numerical convolution of R (or R^2) with the firing-time density."""
    decay = 2 * lam if squared else lam
    if isinstance(dist, dm.Exponential):
        pdf = lambda s: dist.rate * np.exp(-dist.rate * np.asarray(s, dtype=float))
    elif isinstance(dist, dm.Gamma):
        pdf = gamma_pdf(dist.rate, dist.shape)
    elif isinstance(dist, dm.Uniform):
        width = dist.hi - dist.lo
        pdf = lambda s: np.where(
            (np.asarray(s) >= dist.lo) & (np.asarray(s) <= dist.hi), 1.0 / width, 0.0
        )
    else:
        raise ValueError(f"no density available for {type(dist).__name__}")
    return convolve_response(decay, pdf, grid)


def bridge_first_passages(neuron, dt: float, horizon_cap: float, n: int, rng) -> np.ndarray:
    """First threshold crossings of n LIF inputs by exact OU steps and a Brownian-bridge test.

    Each step draws the exact Gaussian transition v0 -> v1 over dt. A path
    that ends a step at or above the threshold b has crossed; one that ends
    below it crossed inside the step with the Brownian-bridge probability
    exp(-2 (b - v0)(b - v1) / (sigma^2 dt)). Given a crossing, the bridge's
    first hitting time tau has x = tau / (dt - tau) inverse Gaussian with mean
    (b - v0) / |b - v1| and shape (b - v0)^2 / (sigma^2 dt), so the crossing
    time is t + dt x / (1 + x). Paths that do not cross by horizon_cap are inf.
    """
    th, mu, s, b = neuron.theta_i, neuron.mu_i, neuron.sigma_i, neuron.v_th
    decay = math.exp(-th * dt)
    sd = s * math.sqrt(-math.expm1(-2.0 * th * dt) / (2.0 * th))
    v = np.full(n, float(neuron.v0_i))
    out = np.full(n, math.inf)
    live = np.arange(n)
    for k in range(int(math.ceil(horizon_cap / dt))):
        if not live.size:
            break
        v1 = v * decay + (mu / th) * (1.0 - decay) + sd * rng.standard_normal(live.size)
        a, c = b - v, b - v1
        crossed = (c <= 0) | (rng.random(live.size) < np.exp(-2.0 * a * np.maximum(c, 0.0) / (s * s * dt)))
        a, c = a[crossed], np.maximum(np.abs(c[crossed]), 1e-300)
        x = rng.wald(a / c, a * a / (s * s * dt))
        out[live[crossed]] = (k + x / (1.0 + x)) * dt
        v, live = v1[~crossed], live[~crossed]
    return out


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


def fresh_interpreter_stdout(code: str) -> str:
    """Stdout of ``python -c code`` in a fresh interpreter that imports the tests' gmapprox."""
    src = str(Path(gmapprox.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, check=True,
    )
    return done.stdout
