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
A block is produced as a sequence of passes of :func:`slab_rows` rows,
counted from its first row, and :func:`iter_block_passes` hands the passes
out in row order, one reused pass buffer at a time; threads produce whole
blocks, so a row's value depends on neither the thread count nor how a
caller cuts the rows, and no block is ever held whole.

The contract extends to reductions over the rows. A reducer reads each chunk
in slabs of :func:`slab_rows` rows, counted from the chunk's start
(:func:`iter_slabs`): a power of two that divides ``_BLOCK`` and keeps a slab
within ``_KERNEL_CELLS`` cells. A pass is one slab, and chunks that start on
block boundaries cut into the same sequence of slabs, so a reduction that
combines slab partials in row order gives the same bits for any thread count
and any such chunking.

Every first-order recurrence runs through :func:`one_pole`, one call of
LAPACK's ``dtbtrs``. The routine comes from scipy's Cython LAPACK table,
the extension module ``scipy.linalg.cython_lapack``, which is loaded on its
own: the ``scipy.linalg`` package and its Python modules are never imported.
"""

from __future__ import annotations

import csv
import ctypes
import importlib.machinery
import importlib.util
import io
import os
import queue
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

__all__ = [
    "TimeGrid",
    "Curve",
    "PathEnsemble",
    "trapezoid",
    "one_pole",
    "pole_band",
    "derive_stream",
    "split_stream",
    "child_seed",
    "block_stream",
    "fill_rows",
    "iter_block_passes",
    "pass_rows",
    "slab_rows",
    "iter_slabs",
    "stable_exp_diff",
    "write_csv_columns",
]

_CSV_FMT = "%.17g"  # full double precision round-trip
_CSV_BLOCK_CELLS = 4096  # cells formatted per write: about a thousand rows of a narrow table
_BLOCK = 512  # ensemble rows per random stream: part of the reproducibility contract
# Cells (rows x columns) of every transient array in one pass of a sampler and
# of every reducer slab: bounds the working set at about 1 MiB of float64.
_KERNEL_CELLS = 2**17


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
        """Grid with the given step; T must be an integer multiple of dt."""
        n = int(round(horizon_T / dt))
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

    def to_csv(self, path) -> None:
        header = ["t"] + [f"path_{i}" for i in range(self.n_paths)]
        write_csv_columns(path, header, [self.grid.times(), *self.values])


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
    return exp_weight_in_place(h, np.exp(-theta * dt), dt, scratch)


def exp_weight_in_place(h: np.ndarray, a: float, dt: float, scratch: np.ndarray, band=None) -> np.ndarray:
    """Overwrite the node values g in ``h`` with :func:`exp_weighted_values` (g, dt, theta), a = e^{-theta dt}.

    ``h`` is as :func:`one_pole` takes it, ``scratch`` any float64 array of
    h's shape less one column, and ``band`` the recurrence's :func:`pole_band`
    when the caller keeps one; nothing is allocated.
    """
    # x_k = (dt / 2)(a g_{k-1} + g_k), x_0 = 0; then H_k = a H_{k-1} + x_k
    np.multiply(h[..., :-1], a, out=scratch)
    scratch += h[..., 1:]
    scratch *= 0.5 * dt
    h[..., 0] = 0.0
    h[..., 1:] = scratch
    return one_pole(h, a if band is None else band)


def pole_band(a: float, n: int) -> np.ndarray:
    """The band of y_k = a y_{k-1} + x_k over n steps, as :func:`one_pole` hands it to ``dtbtrs``.

    A caller that runs one recurrence many times builds it once and passes
    it to :func:`one_pole` in place of ``a``.
    """
    ab = np.empty((n, 2))  # Fortran-ordered band: unit diagonal (not read), subdiagonal
    ab[:, 0] = 1.0
    ab[:, 1] = -a
    return ab


def one_pole(x: np.ndarray, a) -> np.ndarray:
    """Run y_k = a y_{k-1} + x_k, from y_{-1} = 0, in place along the last axis of ``x``.

    ``x`` must be a writeable C-contiguous float64 array; it is overwritten
    by y and returned. ``a`` is the pole or its :func:`pole_band` over the
    row length. The rows are one call of LAPACK's unit lower bidiagonal solve
    ``dtbtrs`` (subdiagonal -a) on their transpose, which is Fortran-ordered,
    so nothing is copied. The call goes through ctypes to the routine of
    scipy's Cython LAPACK table (:func:`_lapack_dtbtrs`), so the GIL is
    released while it runs (the f2py wrapper ``scipy.linalg.lapack.dtbtrs``
    holds it). A state carried over from an earlier run enters as a leading
    column: the run over [v, x_1..x_n] continues the one that ended at v.

    Each row is solved on its own, so a row's bits are the same for any
    thread count and any chunking of the rows. Across machines they follow
    the BLAS's per-CPU kernel: one fused multiply-add per step where it uses
    FMA, a rounded product and a rounded sum where it does not.
    """
    if x.dtype != np.float64 or not (x.flags.c_contiguous and x.flags.writeable):
        raise ValueError("one_pole needs a writeable C-contiguous float64 array")
    if x.size == 0:
        return x
    n = x.shape[-1]
    ab = a if np.ndim(a) == 2 else pole_band(a, n)
    if ab.shape != (n, 2):
        raise ValueError(f"band of shape {ab.shape} for rows of {n} steps")
    n_, kd, nrhs, ldab, info = (ctypes.c_int(v) for v in (n, 1, x.size // n, 2, 0))
    _DTBTRS(b"L", b"N", b"U", n_, kd, nrhs, ab.ctypes.data, ldab, x.ctypes.data, n_, info)
    if info.value != 0:
        raise ValueError(f"dtbtrs failed with info = {info.value}")
    return x


def _lapack_dtbtrs():
    """dtbtrs(uplo, trans, diag, n, kd, nrhs, ab, ldab, b, ldb, info) from scipy's Cython LAPACK table.

    The table is the ``__pyx_capi__`` of the extension module
    ``scipy.linalg.cython_lapack``. A module already imported is reused;
    otherwise the extension is found in the ``linalg`` directory of the
    scipy package (located without importing it) and executed by itself, so
    ``scipy/linalg/__init__.py`` never runs. The module enters itself in
    ``sys.modules`` as it runs; that entry is taken out again, so a later
    ``import scipy.linalg`` imports it as its own submodule (Cython returns
    the same module object) and binds ``scipy.linalg.cython_lapack``.
    ImportError names the directories searched when the extension is
    missing. Returned as a ctypes function, which releases the GIL for the
    length of each call.
    """
    name = "scipy.linalg.cython_lapack"
    module = sys.modules.get(name)
    if module is None:
        scipy = importlib.util.find_spec("scipy")
        if scipy is None:
            raise ImportError(f"no scipy package on sys.path to load {name} from")
        where = [os.path.join(d, "linalg") for d in scipy.submodule_search_locations]
        spec = importlib.machinery.PathFinder.find_spec(name, where)
        if spec is None:
            raise ImportError(f"no extension module {name} in {where}")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        sys.modules.pop(name, None)
    capsule = module.__pyx_capi__["dtbtrs"]
    api = ctypes.pythonapi
    get_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(("PyCapsule_GetName", api))
    get_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", api)
    )
    char, doubles, int_ = ctypes.c_char_p, ctypes.c_void_p, ctypes.POINTER(ctypes.c_int)
    prototype = ctypes.CFUNCTYPE(
        None, char, char, char, int_, int_, int_, doubles, int_, doubles, int_, int_
    )
    return prototype(get_pointer(capsule, get_name(capsule)))


_DTBTRS = _lapack_dtbtrs()


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


class _Stopped(Exception):
    """The consumer of :func:`iter_block_passes` stopped reading: a worker ends."""


def iter_block_passes(block_passes, n_paths: int, n_nodes: int, threads: int = 1):
    """Yield (start, pass) for the rows of an n_paths-row ensemble, in row order.

    Block b holds the ``rows = min(_BLOCK, n_paths - b*_BLOCK)`` ensemble rows
    from b*_BLOCK on. ``block_passes(b, rows, take, ws)`` is a generator of
    the block's passes: for each it fills the first rows of the array
    ``take()`` returns, a (min(slab_rows(n_nodes), n_paths), n_nodes) buffer,
    and yields those rows; it must make them a pure function of (b, rows)
    and the row indices, which drawing from ``block_stream(seed, b)`` does.
    ``ws`` is a flat float64 scratch array of as many cells as that buffer,
    which the generator may overwrite at will.

    A pass is a view of a reused buffer: it is valid until the next pass is
    requested. One thread runs the blocks in the caller, into one buffer.
    With more, worker w produces blocks w, w + threads, ... ahead of the
    caller into its own pool of two buffers, and the caller reads the
    workers' passes in row order and hands each buffer back when it asks for
    the next pass. Every buffer and scratch array is allocated once per
    call, so the rows are the same bits for any thread count, and the memory
    held is a few passes per thread, whatever n_paths.
    """
    blocks = [(b, min(_BLOCK, n_paths - b * _BLOCK)) for b in range(-(-n_paths // _BLOCK))]
    width = min(slab_rows(n_nodes), n_paths)
    if threads is None or threads <= 1 or len(blocks) < 2:
        buf, ws = np.empty((width, n_nodes)), np.empty(width * n_nodes)
        for b, rows in blocks:
            start = b * _BLOCK
            for rows_done in block_passes(b, rows, lambda: buf, ws):
                yield start, rows_done
                start += len(rows_done)
        return
    workers = min(threads, len(blocks))
    free = [queue.SimpleQueue() for _ in range(workers)]
    ready = [queue.SimpleQueue() for _ in range(workers)]

    def work(w):
        taken, ws = [], np.empty(width * n_nodes)

        def take():
            buf = free[w].get()
            if buf is None:
                raise _Stopped
            taken.append(buf)
            return buf

        try:
            for b, rows in blocks[w::workers]:
                for rows_done in block_passes(b, rows, take, ws):
                    ready[w].put((rows_done, taken.pop()))
        except _Stopped:
            pass
        except BaseException as exc:  # raised in the caller when it reaches this worker's pass
            ready[w].put((exc, None))

    for q in free:
        for _ in range(2):
            q.put(np.empty((width, n_nodes)))
    pool = [threading.Thread(target=work, args=(w,), daemon=True) for w in range(workers)]
    for t in pool:
        t.start()
    try:
        for i, (b, rows) in enumerate(blocks):
            start, stop = b * _BLOCK, b * _BLOCK + rows
            while start < stop:
                rows_done, buf = ready[i % workers].get()
                if buf is None:
                    raise rows_done
                yield start, rows_done
                start += len(rows_done)
                free[i % workers].put(buf)
    finally:
        for q in free:
            q.put(None)
        for t in pool:
            t.join()


def pass_rows(width: int) -> int:
    """Rows of ``width`` columns per pass: at most _KERNEL_CELLS cells, at least one row."""
    return max(1, _KERNEL_CELLS // width)


def slab_rows(n_nodes: int) -> int:
    """Rows per reducer slab: the largest power of two within :func:`pass_rows`, at most _BLOCK.

    _BLOCK is a power of two, so the slab size divides it and slabs counted
    from a block's first row never straddle two blocks.
    """
    rows = pass_rows(n_nodes)
    return min(_BLOCK, 1 << (rows.bit_length() - 1))


def iter_slabs(chunks):
    """Cut each (start, chunk) pair into (start, slab) views of :func:`slab_rows` rows.

    Slabs are counted from the chunk's start, and the last slab of a chunk
    may be shorter, so chunks that start on block boundaries give the same
    slabs whatever their size.
    """
    for start, chunk in chunks:
        step = slab_rows(chunk.shape[1])
        for lo in range(0, chunk.shape[0], step):
            yield start + lo, chunk[lo : lo + step]


def fill_rows(build_row, n_paths: int, n_nodes: int, threads: int = 1) -> np.ndarray:
    """Assemble a (n_paths, n_nodes) matrix with row i = build_row(i).

    ``build_row`` must be a pure function of the row index. ``threads``
    workers take whole blocks of _BLOCK rows, so the matrix is the same for
    any number of threads.
    """
    out = np.empty((n_paths, n_nodes), dtype=float)

    def fill_block(lo):
        for i in range(lo, min(lo + _BLOCK, n_paths)):
            out[i] = build_row(i)

    starts = range(0, n_paths, _BLOCK)
    if threads is None or threads <= 1 or len(starts) < 2:
        for lo in starts:
            fill_block(lo)
        return out
    with ThreadPoolExecutor(max_workers=min(threads, len(starts))) as ex:
        list(ex.map(fill_block, starts))
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
