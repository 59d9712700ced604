"""Uniform time grids, sampled curves and reproducible random streams.

Everything downstream shares three conventions fixed here: curves hold node
values on a uniform grid, integrals between nodes are trapezoidal, and every
source of randomness is a counter-based Philox stream that is a pure function
of its key, so ensembles are reproducible under any execution schedule.

The block-stream contract: the rows of an ensemble fall into blocks of
``_BLOCK`` rows, and block b (rows b*_BLOCK onward) draws every variate of its
rows from the one stream ``block_stream(master_seed, b)``, in an order fixed
by the sampler, the grid and the number of ensemble rows in the block
(Salmon et al., "Parallel random numbers: as easy as 1, 2, 3", SC 2011).
A :class:`BlockStream` samples each block as passes of :func:`slab_rows`
rows, counted from its first row, into one reused buffer, so no block is
ever held whole. Its ``map(fold)`` folds each block whole, pass by pass, and
yields one value per block, in block order; the caller combines them left to
right, and nothing else crosses a block. Threads sample and fold whole
blocks, so every row and every reduction is the same bits for any thread
count.

Every first-order recurrence runs from rest through a :class:`PoleRun`,
built once per pole and row length: numpy matrix products on blocks of each
row, every factor a power of the pole.
"""

from __future__ import annotations

import csv
import io
import json
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "TimeGrid",
    "Curve",
    "PathEnsemble",
    "trapezoid",
    "PoleRun",
    "derive_stream",
    "split_stream",
    "child_seed",
    "block_stream",
    "fill_rows",
    "BlockStream",
    "slab_rows",
    "stable_exp_diff",
    "write_csv_columns",
    "write_json",
]

_CSV_FMT = "%.17g"  # full double precision round-trip
_CSV_BLOCK_CELLS = 4096  # cells formatted per write: about a thousand rows of a narrow table
_BLOCK = 512  # ensemble rows per random stream: part of the reproducibility contract
# Cells (rows x columns) of every transient array in one pass of a sampler and
# of every reducer slab: bounds the working set at about 1 MiB of float64.
_KERNEL_CELLS = 2**17
_RUN_BLOCK = 16  # columns per block of a PoleRun
_RUN_DENSE = 64  # a PoleRun over at most this many columns is one dense product
# Entry (j, i) is i - j, the index of a^{i-j} in a list of powers, on and above the
# diagonal, and -1 below it, which picks the 0 that ends the list.
_TOEPLITZ = np.subtract.outer(np.arange(_RUN_DENSE), np.arange(_RUN_DENSE)).T
_TOEPLITZ[_TOEPLITZ < 0] = -1


@dataclass(frozen=True)
class TimeGrid:
    """Uniform discretization of [0, T] with nodes t_k = k*dt, k = 0..n_steps."""

    horizon_T: float
    dt: float
    n_steps: int

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.n_steps < 1:
            raise ValueError(f"n_steps must be >= 1, got {self.n_steps}")
        if self.horizon_T <= 0:
            raise ValueError(f"horizon_T must be positive, got {self.horizon_T}")
        if abs(self.n_steps * self.dt - self.horizon_T) > 1e-9 * self.horizon_T:
            raise ValueError(
                f"inconsistent grid: n_steps*dt = {self.n_steps * self.dt} "
                f"!= horizon_T = {self.horizon_T}"
            )

    @classmethod
    def from_step(cls, horizon_T: float, dt: float) -> "TimeGrid":
        """Grid with the given step; T must be an integer multiple of dt (ValueError otherwise)."""
        n = int(round(horizon_T / dt))
        if abs(n * dt - horizon_T) > 1e-9 * horizon_T:
            raise ValueError(f"horizon_T = {horizon_T} is not a whole number of steps dt = {dt}")
        return cls(horizon_T=n * dt, dt=dt, n_steps=n)

    @property
    def n_nodes(self) -> int:
        return self.n_steps + 1

    def times(self) -> np.ndarray:
        return np.arange(self.n_nodes) * self.dt


@dataclass(frozen=True)
class Curve:
    """Real-valued function sampled at the nodes of a TimeGrid."""

    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        if v.shape != (self.grid.n_nodes,):
            raise ValueError(
                f"curve has {v.shape} values for a grid with {self.grid.n_nodes} nodes"
            )
        if not np.all(np.isfinite(v)):
            raise ValueError("curve values must be finite")

    @classmethod
    def from_function(cls, grid: TimeGrid, fn) -> "Curve":
        return cls(grid, np.asarray(fn(grid.times()), dtype=float))

    def to_csv(self, path) -> None:
        write_csv_columns(path, ["t", "value"], [self.grid.times(), self.values])


@dataclass(frozen=True)
class PathEnsemble:
    """Matrix of sample paths, one row per path, on a shared grid.

    Regenerating with the same ``master_seed`` reproduces the values
    bit-for-bit: the rows of block b = i // _BLOCK are drawn from
    ``block_stream(master_seed, b)`` (see the module docstring), whatever the
    order in which the blocks are filled.
    """

    grid: TimeGrid
    n_paths: int
    values: np.ndarray
    master_seed: int

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        if self.n_paths < 1:
            raise ValueError("n_paths must be >= 1")
        if v.shape != (self.n_paths, self.grid.n_nodes):
            raise ValueError(
                f"ensemble shape {v.shape} does not match "
                f"({self.n_paths}, {self.grid.n_nodes})"
            )
        if not np.all(np.isfinite(v)):
            raise ValueError("ensemble values must be finite")


def write_csv_columns(path, header, columns, labels=None) -> None:
    """Write float columns, optionally after a column of string labels, as CSV.

    Floats are formatted with "%.17g" (a lossless round trip) and rows end in
    CRLF: the file is byte-identical to what ``csv.writer`` writes for the
    same cells. Rows are formatted a block of ``_CSV_BLOCK_CELLS`` cells at a
    time with one format string, so the memory used does not grow with the
    table length.
    """
    columns = [np.asarray(c, dtype=float) for c in columns]
    row = ",".join([_CSV_FMT] * len(columns)) + "\r\n"
    if labels is not None:
        row = "%s," + row
        labels = np.array([_csv_field(label) for label in labels], dtype=object)
    n_rows = len(columns[0])
    block = max(1, _CSV_BLOCK_CELLS // len(columns))
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(header)
        for lo in range(0, n_rows, block):
            cells = [c[lo : lo + block] for c in columns]
            if labels is not None:
                cells.insert(0, labels[lo : lo + block])
            cells = np.column_stack(cells)
            fh.write(row * len(cells) % tuple(cells.ravel().tolist()))


def write_json(path, payload) -> None:
    """Write ``payload`` as JSON with sorted keys and two-space indents, ending in a newline."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _csv_field(text: str) -> str:
    """One CSV field as ``csv.writer`` renders it inside a row (quoted if needed)."""
    buf = io.StringIO()
    csv.writer(buf).writerow([text, ""])
    return buf.getvalue()[: -len(",\r\n")]


def trapezoid(curve: Curve) -> float:
    """Composite trapezoidal approximation of the integral of the curve over [0, T]."""
    return trapezoid_values(curve.values, curve.grid.dt)


def trapezoid_values(values: np.ndarray, dt: float) -> float | np.ndarray:
    """Trapezoid rule along the last axis of a node-value array."""
    v = np.asarray(values, dtype=float)
    return dt * (v.sum(axis=-1) - 0.5 * (v[..., 0] + v[..., -1]))


def exp_weighted_values(values: np.ndarray, dt: float, theta: float) -> np.ndarray:
    """Running integral H(t) = e^{-theta t} int_0^t g(s) e^{theta s} ds along the last axis.

    Computed by the per-step exact recursion

        H(t_{k+1}) = e^{-theta dt} H(t_k)
                     + trapezoid of g(s) e^{theta (s - t_{k+1})} over [t_k, t_{k+1}],

    so the exponential decay carries no discretization error and the only
    approximation is the per-step trapezoid of g.
    """
    if theta <= 0:
        raise ValueError(f"theta must be positive, got {theta}")
    h = np.array(values, dtype=float, order="C")
    scratch = np.empty(h.shape[:-1] + (h.shape[-1] - 1,))
    return exp_weight_in_place(h, PoleRun(np.exp(-theta * dt), h.shape[-1] - 1), dt, scratch)


def exp_weight_in_place(h: np.ndarray, run: PoleRun, dt: float, scratch: np.ndarray) -> np.ndarray:
    """Overwrite the node values g in ``h`` with :func:`exp_weighted_values` (g, dt, theta).

    ``run`` is the :class:`PoleRun` of the pole e^{-theta dt} over the
    steps, one column fewer than h's rows; a caller that weights many arrays
    builds it once. h's rows must be contiguous. ``scratch`` is a
    C-contiguous float64 array of h's shape less one column; its contents
    are spent. Nothing is allocated beyond the run's block ends.
    """
    # x_k = (dt / 2)(a g_{k-1} + g_k) for k >= 1; H_0 = 0, then H_k = a H_{k-1} + x_k
    np.multiply(h[..., :-1], run.a, out=scratch)
    scratch += h[..., 1:]
    scratch *= 0.5 * dt
    h[..., 0] = 0.0
    run(scratch, h[..., 1:])
    return h


class PoleRun:
    """y_k = a y_{k-1} + x_k from rest (y_{-1} = 0) along rows of n columns, 0 <= a <= 1.

    Built once per (a, n) and called on any number of rows. A row of at most
    ``_RUN_DENSE`` columns is one product with the n x n lower-triangular
    Toeplitz matrix T of a^{i-j}. A longer row is cut into blocks of
    L = ``_RUN_BLOCK`` columns and a tail of fewer:

    - the state c_b at the end of block b follows the same recurrence with
      pole a^L, fed by each block's end state from rest, so it is a PoleRun
      over the n // L blocks;
    - a c_{b-1} is added to block b's first input (the tail is the block
      after the last), and then each block is one product with T of L.

    Every factor is a power of a, at most 1, so no scale grows with the row
    length and a run stays finite at any theta T (a prefix-sum scan of
    a^{-k} x_k, as in Blelloch 1990, would have to be cut to keep a^{-k}
    finite). The products run on the (rows, blocks, L) view, so each row is
    a GEMM of its own whose shape depends only on n: a row's bits are the
    same for any row count, thread count and BLAS threading.
    """

    def __init__(self, a: float, n: int):
        self.a, self.n = float(a), n
        width = n if n <= _RUN_DENSE else _RUN_BLOCK
        powers = np.empty(width + 1)
        np.power(self.a, np.arange(width, dtype=float), out=powers[:width])
        powers[width] = 0.0  # what _TOEPLITZ's -1 entries pick
        # the transpose of T: a row times it runs the recurrence over `width` columns
        self.step = powers[_TOEPLITZ[:width, :width]]
        self.carry = None
        if n > _RUN_DENSE:
            self.end = np.ascontiguousarray(self.step[:, -1])  # a block's end state from rest
            self.carry = PoleRun(self.a**_RUN_BLOCK, n // _RUN_BLOCK)

    def __call__(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Run the recurrence along the last axis of ``x`` into ``out`` and return ``out``.

        ``x`` is a C-contiguous float64 array of rows of n columns; the
        carries are added into it, so its contents are spent. ``out`` is an
        array of x's shape with contiguous rows, a new one by default. An
        ``out`` that overlaps ``x`` gives the same values, but numpy copies
        the operands of every product for it.
        """
        if out is None:
            out = np.empty(x.shape)
        if x.size == 0:
            return out
        X = x.reshape(-1, self.n, copy=False)
        Y = out.reshape(-1, self.n, copy=False)
        if self.carry is None:
            np.matmul(X[:, None], self.step, out=Y[:, None])
            return out
        rows, split = len(X), self.n - self.n % _RUN_BLOCK
        body = X[:, :split].reshape(rows, -1, _RUN_BLOCK, copy=False)
        ends = self.carry(body @ self.end)
        body[:, 1:, 0] += self.a * ends[:, :-1]
        np.matmul(body, self.step, out=Y[:, :split].reshape(rows, -1, _RUN_BLOCK, copy=False))
        if split < self.n:
            r = self.n - split
            X[:, split] += self.a * ends[:, -1]
            np.matmul(X[:, None, split:], self.step[:r, :r], out=Y[:, None, split:])
        return out


def derive_stream(master_seed: int, *key: int) -> np.random.Generator:
    """Independent, reproducible random stream for a given (seed, index...) key.

    Counter-based derivation: the stream is a pure function of its arguments,
    so ensembles assembled in any order (or on any number of threads) are
    identical. Streams with distinct keys are statistically independent.
    """
    ss = np.random.SeedSequence(master_seed, spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(ss))


def split_stream(stream: np.random.Generator, n: int) -> list[np.random.Generator]:
    """Derive n independent sub-streams without consuming draws from the parent."""
    return stream.spawn(n)


def child_seed(master_seed: int, *key: int) -> int:
    """Deterministic 64-bit sub-seed, used to key derived ensembles."""
    ss = np.random.SeedSequence(master_seed, spawn_key=tuple(int(k) for k in key))
    return int(ss.generate_state(1, np.uint64)[0])


def block_stream(master_seed: int, block: int) -> np.random.Generator:
    """The stream that draws every variate of the ensemble rows in ``block``."""
    return derive_stream(master_seed, block)


@dataclass(frozen=True)
class BlockStream:
    """The rows of an n_paths-row ensemble, sampled and folded a whole block at a time.

    Block b holds the ``rows = min(_BLOCK, n_paths - b*_BLOCK)`` rows from
    b*_BLOCK on. ``passes(b, rows, buf, ws)`` generates them: each pass fills
    the first rows of ``buf``, a (min(slab_rows(n_nodes), n_paths), n_nodes)
    array, with the block's next rows, a pure function of (b, rows) and the
    row indices, and yields them. ``ws`` is a flat scratch array of ``buf``'s
    cells.
    """

    passes: Callable
    n_paths: int
    n_nodes: int
    threads: int = 1

    def map(self, fold):
        """Yield ``fold`` of each block's (start, pass) pairs, one value per block, in block order.

        A pass is a view of its worker's buffer, valid until the next pass.
        One thread folds the blocks in the caller; more sample and fold whole
        blocks, at most ``threads`` of them started and not yet yielded, so
        the folds held do not grow with n_paths. Each worker allocates its
        buffer and scratch once per call. A block's error is raised here and
        stops the blocks after it; no worker outlives the generator.
        """
        blocks = [(b, min(_BLOCK, self.n_paths - b * _BLOCK)) for b in range(-(-self.n_paths // _BLOCK))]
        width = min(slab_rows(self.n_nodes), self.n_paths)
        local = threading.local()  # each worker's pass buffer and scratch array

        def run(block):
            if not hasattr(local, "buf"):
                local.buf, local.ws = np.empty((width, self.n_nodes)), np.empty(width * self.n_nodes)
            b, rows = block
            return fold(self._pairs(b, rows, local.buf, local.ws))

        workers = min(self.threads or 1, len(blocks))
        if workers <= 1:
            for block in blocks:
                yield run(block)
        else:
            ex = ThreadPoolExecutor(max_workers=workers)
            try:
                ahead = deque()
                for block in blocks:
                    if len(ahead) == workers:
                        yield ahead.popleft().result()
                    ahead.append(ex.submit(run, block))
                while ahead:
                    yield ahead.popleft().result()
            finally:
                ex.shutdown(cancel_futures=True)

    def _pairs(self, b, rows, buf, ws):
        start = b * _BLOCK
        for rows_done in self.passes(b, rows, buf, ws):
            yield start, rows_done
            start += len(rows_done)


def slab_rows(n_nodes: int) -> int:
    """Rows per pass of a :class:`BlockStream`: a power of two, from 1 to _BLOCK.

    The largest whose pass holds at most _KERNEL_CELLS cells, or one row.
    _BLOCK is a power of two, so the pass size divides it and the passes of
    a full block are all the same size.
    """
    rows = max(1, _KERNEL_CELLS // n_nodes)
    return min(_BLOCK, 1 << (rows.bit_length() - 1))


def fill_rows(build_row, n_paths: int, n_nodes: int, threads: int = 1) -> np.ndarray:
    """Assemble a (n_paths, n_nodes) matrix with row i = build_row(i).

    ``build_row`` must be a pure function of the row index. The rows run as
    the passes of a :class:`BlockStream` on ``threads`` workers, so the
    matrix is the same for any number of threads.
    """
    out = np.empty((n_paths, n_nodes), dtype=float)

    def passes(b, rows, buf, ws):
        for lo in range(0, rows, len(buf)):
            rows_done = buf[: rows - lo]
            for i, row in enumerate(rows_done):
                row[:] = build_row(b * _BLOCK + lo + i)
            yield rows_done

    def copy(pairs):
        for start, rows in pairs:
            out[start : start + len(rows)] = rows

    for _ in BlockStream(passes, n_paths, n_nodes, threads).map(copy):
        pass
    return out


def stable_exp_diff(a: float, b: float, t: np.ndarray | float):
    """(e^{-a t} - e^{-b t}) / (b - a), stable for b close to a.

    Written as e^{-a t} * (1 - e^{-(b-a) t})/(b-a) with expm1, whose relative
    error stays small uniformly in |b - a|; the b == a limit is t e^{-a t}.
    The expression is symmetric in a and b, and a is taken as the smaller
    rate so that no factor exceeds 1: with a > b, 1 - e^{-(b-a) t} would
    overflow once (a - b) t passes about 709.
    """
    t = np.asarray(t, dtype=float)
    a, b = min(a, b), max(a, b)
    delta = b - a
    if delta == 0.0:
        return t * np.exp(-a * t)
    return np.exp(-a * t) * (-np.expm1(-delta * t)) / delta
