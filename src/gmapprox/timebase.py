"""Uniform time grids, sampled curves and reproducible random streams.

Everything downstream shares three conventions fixed here: curves hold node
values on a uniform grid, integrals between nodes are trapezoidal, and every
source of randomness is an SFC64 generator seeded from a ``SeedSequence``
keyed by (master seed, key...), so each stream is a pure function of its key
and ensembles are reproducible under any execution schedule. Keying each
stream by its place in the work, not by the order it is drawn in, is the
scheme of Salmon et al., "Parallel random numbers: as easy as 1, 2, 3" (SC
2011); the generator behind the key need not be counter-based.

The block-stream contract: the rows of an ensemble fall into blocks of
``_BLOCK`` rows, and block b (rows b*_BLOCK onward) draws every variate of its
rows from the one stream ``derive_stream(master_seed, b)``. A
:class:`BlockStream` cuts each block into passes of :func:`slab_rows` rows,
counted from its first row (the last pass takes what is left), and fills
them in row order into one reused buffer, so no block is ever held whole.
A sampler fills one pass from where its block's stream stands, in an order
fixed by the sampler, the grid and the pass sizes. Its ``map(fold)`` folds
each block whole, pass by pass, and yields one value per block, in block
order; the caller combines them left to right, and nothing else crosses a
block. The map owns every pass-sized array: each worker's buffer, and one
scratch array that the worker's sampler and fold spend in turn. Threads
sample and fold whole blocks, so every row and every reduction is the same
bits for any thread count.

Every first-order recurrence runs from rest through a :class:`PoleRun`,
built once per pole and row length: numpy matrix products on blocks of each
row, every factor a power of the pole.
"""

from __future__ import annotations

import csv
import functools
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
    "fill_rows",
    "BlockStream",
    "slab_rows",
    "stable_exp_diff",
    "write_csv_columns",
    "write_json",
]

# Every CSV cell is written as exactly the bytes of this format (a lossless round
# trip). The kernel in write_csv_columns reproduces it; a cell it cannot certify
# (not finite, nonzero |x| outside _CSV_CERTIFIED, or within _CSV_TIE_MARGIN of a
# rounding tie) is formatted with it directly.
_CSV_FMT = "%.17g"
# Cells per kernel block: every transient array of the kernel holds at most this
# many cells (32 bytes each for the byte rows, 8 for the float and int steps).
_CSV_BLOCK_CELLS = 8192
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
    ``derive_stream(master_seed, b)`` (see the module docstring), whatever the
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

    The file is byte-identical to what ``csv.writer`` writes for the same
    cells, each float formatted with ``_CSV_FMT`` ("%.17g"), rows ending in
    CRLF. The floats are formatted by a numpy kernel a block of
    ``_CSV_BLOCK_CELLS`` cells at a time, so the memory used does not grow with
    the table length:

    1. Digits. For each cell a double-double product a 10^(16 - E) gives the
       17-digit integer N and decimal exponent E of |x| (:func:`_csv_digits`).
       N is certified only where the product's error cannot move its rounding.
    2. Digit strings. N's leading digit and four 4-digit groups come from a
       table of 10,000 four-byte strings; its count of significant digits
       from a companion table.
    3. Layout. (E, digit count) picks three 32-byte masks that place sign,
       digits, point, exponent and separator from the cell's source row
       (:func:`_csv_layout`, :func:`_csv_source_rows`); the bytes they leave
       0, a positive cell's sign among them, are dropped.
    4. Fallback. A cell not certified (non-finite, |x| outside
       ``_CSV_CERTIFIED``, or within ``_CSV_TIE_MARGIN`` of a tie at the 17th
       digit) is formatted with ``_CSV_FMT`` on its own.
    """
    columns = [np.asarray(c, dtype=float) for c in columns]
    if labels is not None:
        labels = [_csv_field(label) for label in labels]
    n_rows, n_cols = len(columns[0]), len(columns)
    block = max(1, _CSV_BLOCK_CELLS // n_cols)
    source = _csv_source_rows(min(block, n_rows) * n_cols, n_cols)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(header)
        for lo in range(0, n_rows, block):
            cells = np.column_stack([c[lo : lo + block] for c in columns]).ravel()
            text = _csv_cells(cells, source)
            if labels is not None:
                rows = text.split("\r\n")
                text = "".join(f"{label},{row}\r\n" for label, row in zip(labels[lo : lo + block], rows))
            fh.write(text)


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


# The CSV kernel. A cell's 17 significant digits are N = round(|x| 10^(16 - E))
# with 10^16 <= N < 10^17; "%.17g" prints them in fixed notation for
# -4 <= E <= 16 and as d.ddd...e+XX otherwise, trailing zeros dropped.
_CSV_CERTIFIED = (1e-280, 1e280)  # |x| the kernel formats: 10^(16 - E) and its split stay normal
_CSV_TIE_MARGIN = 2.0**-30  # certified: the scaled |x| is this far from a tie, its error below 10^17 2^-100 (1e-13)
_VELTKAMP = 134217729.0  # 2^27 + 1 splits a double into two 26-bit halves
_POW10_MIN, _POW10_MAX = -270, 300  # 10^s needed for 16 - E over the certified range
_CSV_E_MIN = -300  # first exponent of the layout class table
_CSV_ROW = 32  # bytes of one cell's source row and output row
_CSV_FIXED = 21 * 21  # fixed-notation layouts: E in -4..16 by 0..20 characters after the point
_CSV_LAYOUTS = _CSV_FIXED + 2 * 17  # and exponent layouts: three or two exponent digits by 0..16 after the point


@functools.cache
def _pow10() -> tuple:
    """10^s for s in [_POW10_MIN, _POW10_MAX] as double-doubles hi + lo, hi split in halves.

    hi is 10^s correctly rounded, lo the correctly rounded remainder, both from
    exact integers; the Veltkamp halves of hi serve the exact products.
    """
    hi, lo = [], []
    for k in range(_POW10_MIN, _POW10_MAX + 1):
        if k >= 0:
            h = float(10**k)
            hi.append(h)
            lo.append(float(10**k - int(h)))
        else:
            h = 1 / 10**-k  # int true division rounds correctly
            num, den = h.as_integer_ratio()
            hi.append(h)
            lo.append((den - num * 10**-k) / (den * 10**-k))
    hi = np.array(hi)
    c = _VELTKAMP * hi
    hi_hi = c - (c - hi)
    return _read_only(hi, hi_hi, hi - hi_hi, np.array(lo))


def _scale10(a: np.ndarray, s: np.ndarray) -> tuple:
    """a 10^s as a double-double (h, l), relative error below 2^-100.

    Dekker's exact product of a and hi(10^s), with Veltkamp splits since numpy
    has no fused multiply-add, plus a lo(10^s), then one exact two-sum.
    """
    hi, hi_hi, hi_lo, lo = _pow10()
    i = s - _POW10_MIN
    b, b_hi, b_lo = hi.take(i), hi_hi.take(i), hi_lo.take(i)
    c = _VELTKAMP * a
    a_hi = c - (c - a)
    a_lo = a - a_hi
    p = a * b
    e = ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    e += a * lo.take(i)
    h = p + e
    return h, e - (h - p)


def _csv_digits(a: np.ndarray) -> tuple:
    """N (int64), E and whether N is certified, for positive a inside ``_CSV_CERTIFIED``.

    E starts at floor(log10 a), which is one off only next to a power of ten;
    those cells are scaled again at the exponent the double-double says. N is
    the product rounded, certified when the product is not within
    ``_CSV_TIE_MARGIN`` of a tie. A product that rounds up to 10^17 is 10^16 at
    E + 1; N is never divided by 10, which would round twice.
    """
    E = np.floor(np.log10(a)).astype(np.int64)
    h, l = _scale10(a, 16 - E)
    over = (h - 1e17) + l >= 0  # h - 10^17 is exact, so this is the sign of (h + l) - 10^17
    under = (h - 1e16) + l < 0
    off = over | under
    if off.any():
        E[off] += over[off].astype(np.int64) - under[off]
        h[off], l[off] = _scale10(a[off], 16 - E[off])
    r = np.rint(l)  # h >= 2^53 is an integer; l holds the fraction
    ok = np.abs(l - r) < 0.5 - _CSV_TIE_MARGIN
    N = h.astype(np.int64)
    N += r.astype(np.int64)
    ok &= (N >= 10**16) & (N <= 10**17)
    carry = N == 10**17
    N[carry] = 10**16
    E += carry
    return N, E, ok


@functools.cache
def _csv_layout() -> tuple:
    """The kernel's lookup tables, built on first use.

    - ``quad``: the four ASCII digits of 0..9999 as one uint32, read with
      ``mode="wrap"`` so that group j's index j 10^4 + g finds g;
    - ``last``: for group j (0..3) of N's digits after the first, 4 j + 1 + the
      place of the group's last nonzero digit, 0 for a zero group, so the
      largest over the groups is N's count of significant digits;
    - ``expo``: the exponent's sign and three digits for each E - _CSV_E_MIN,
      as two uint16;
    - ``lead``, ``trail``, ``point``: the masks of each layout, see below;
    - ``layout``: the layout of each (E - _CSV_E_MIN, significant digits).
    """
    # small dtypes: the tables stay in memory for the life of the process
    v = np.arange(10000, dtype=np.int16)
    quad = np.empty((10000, 4), np.uint8)
    for j in range(4):
        quad[:, j] = v // 10 ** (3 - j) % 10 + 48
    place = sum((v % 10**p > 0).astype(np.uint8) for p in (1, 2, 3, 4))
    last = np.stack([np.where(v > 0, place + 1 + 4 * j, 0) for j in range(4)]).astype(np.uint8)
    e = np.arange(_CSV_E_MIN, 1 - _CSV_E_MIN, dtype=np.int16)
    expo = np.stack([np.where(e < 0, ord("-"), ord("+")), np.abs(e) // 100 + 48,
                     np.abs(e) // 10 % 10 + 48, np.abs(e) % 10 + 48], axis=1).astype(np.uint8)
    # Output column c is source column c + 2 where `lead` is set (the sign, the
    # characters before the point, the exponent, the separator), source column
    # c + 1 where `trail` is set (the characters after the point, moved one
    # column right to make room for it) and `point` elsewhere. Character i of
    # "0000" + N's digits is source column 3 + i; a layout puts the point after
    # character P - 1, with `before` characters before it and `after` after.
    lead, trail, point = np.zeros((3, _CSV_LAYOUTS, _CSV_ROW), np.uint8)
    lead[:, [0, 28, 29]] = 0xFF  # the sign ("-" or a dropped 0) and the separator
    for g in range(_CSV_LAYOUTS):
        if g < _CSV_FIXED:
            E, after = divmod(g, 21)
            E -= 4
            P, before = E + 5, max(E + 1, 1)  # E < 0: one "0" before the point
        else:
            short, after = divmod(g - _CSV_FIXED, 17)
            P, before = 5, 1
            lead[g, 23:25] = 0xFF  # "e" and the exponent's sign
            lead[g, 25 + short : 28] = 0xFF  # three or two exponent digits
        lead[g, 1 + P - before : 1 + P] = 0xFF
        trail[g, 2 + P : 2 + P + after] = 0xFF
        if after:
            point[g, 1 + P] = ord(".")
    E = e[:, None]
    k = np.maximum(np.arange(18, dtype=np.int16), 1)  # N = 0 (a zero cell) prints as one digit
    fixed = (E >= -4) & (E <= 16)
    after = np.where(fixed, np.maximum(k - E - 1, 0), k - 1)
    short = np.abs(E) < 100
    layout = np.where(fixed, (E + 4) * 21 + after, _CSV_FIXED + short * 17 + after).astype(np.int16)
    return _read_only(quad.view(np.uint32).ravel(), last.ravel(), expo.view(np.uint16), lead, trail, point,
                      layout.ravel())


def _read_only(*tables) -> tuple:
    """``tables``, each made read-only: a cached table is shared by every caller."""
    for table in tables:
        table.flags.writeable = False
    return tables


def _csv_source_rows(n_cells: int, n_cols: int) -> np.ndarray:
    """The kernel's source rows for blocks of up to ``n_cells`` cells, ``n_cols`` to a row.

    Row i (32 bytes) holds, by column: 2 cell i's sign ("-" or 0), 3..6
    "0000", 7..23 the 17 digits of N, 25 "e", 26 the exponent's sign, 27..29
    its three digits, 30..31 the separator after cell i ("," or CRLF). The
    constant columns are set here once; one spare row lets the shifted views
    run past the last.
    """
    rows = np.zeros((n_cells + 1, _CSV_ROW), np.uint8)
    rows[:, 3:7] = ord("0")
    rows[:, 25] = ord("e")
    sep = rows[:n_cells, 30:32].reshape(-1, n_cols, 2)
    sep[:, :-1, 0] = ord(",")
    sep[:, -1] = (ord("\r"), ord("\n"))
    return rows


def _csv_cells(cells: np.ndarray, source: np.ndarray) -> str:
    """The CSV text of whole rows of ``cells`` (row-major), each with its separator."""
    quad, last, expo, lead, trail, point, layout = _csv_layout()
    n = cells.size
    src = source[: n + 1]
    a = np.abs(cells)
    inside = (a >= _CSV_CERTIFIED[0]) & (a <= _CSV_CERTIFIED[1])
    if inside.all():  # the common case skips the zero and range fix-ups, 5% of the kernel
        N, E, ok = _csv_digits(a)
        slow = np.flatnonzero(~ok)
    else:
        N, E, ok = _csv_digits(np.where(inside, a, 1.0))
        zero = a == 0
        N[zero] = 0  # prints as "0" or "-0"
        E[zero] = 0
        slow = np.flatnonzero(~(ok & inside | zero))
    # N = d0 10^16 + groups . (10^12, 10^8, 10^4, 1). Group j's table entries start at
    # j 10^4, so one index serves its four digits and the significant-digit count.
    groups = np.empty((n, 4), np.int64)
    for j in (3, 2, 1, 0):
        q = N // 10000
        np.subtract(N, q * 10000 - 10000 * j, out=groups[:, j])
        N = q
    src[:n, 7] = N + 48
    src[:n].view(np.uint32)[:, 2:6] = quad.take(groups, mode="wrap")
    digits = last.take(groups, mode="wrap")  # wrap: an uncertified N may be out of range
    k = np.maximum(np.maximum(digits[:, 0], digits[:, 1]), np.maximum(digits[:, 2], digits[:, 3]))
    E -= _CSV_E_MIN
    cls = layout.take(E * 18 + k)
    if (cls >= _CSV_FIXED).any():
        src[:n].view(np.uint16)[:, 13:15] = expo.take(E, axis=0)
    src[:n, 2] = np.signbit(cells) * np.uint8(ord("-"))
    flat = src.reshape(-1)
    out = lead.take(cls, axis=0)
    out &= flat[2 : 2 + _CSV_ROW * n].reshape(n, _CSV_ROW)
    after = trail.take(cls, axis=0)
    after &= flat[1 : 1 + _CSV_ROW * n].reshape(n, _CSV_ROW)
    out |= after
    out |= point.take(cls, axis=0)
    for i in slow:
        text = (_CSV_FMT % cells[i]).encode()
        out[i, :28] = 0
        out[i, : len(text)] = np.frombuffer(text, np.uint8)
    return out.tobytes().translate(None, b"\0").decode("ascii")


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

    An SFC64 generator seeded from ``SeedSequence(master_seed,
    spawn_key=key)``: the stream is a pure function of its arguments, so
    ensembles assembled in any order (or on any number of threads) are
    identical. Streams with distinct keys are statistically independent.
    """
    ss = np.random.SeedSequence(master_seed, spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.SFC64(ss))


def split_stream(stream: np.random.Generator, n: int) -> list[np.random.Generator]:
    """Derive n independent sub-streams without consuming draws from the parent."""
    return stream.spawn(n)


def child_seed(master_seed: int, *key: int) -> int:
    """Deterministic 64-bit sub-seed, used to key derived ensembles."""
    ss = np.random.SeedSequence(master_seed, spawn_key=tuple(int(k) for k in key))
    return int(ss.generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class BlockStream:
    """The rows of an n_paths-row ensemble, sampled and folded a whole block at a time.

    Block b holds the ``min(_BLOCK, n_paths - b*_BLOCK)`` rows from b*_BLOCK
    on, cut into passes of ``min(slab_rows(n_nodes), n_paths)`` rows counted
    from its first row; the last pass takes what is left. ``block(b)`` is
    called once per block, in the worker that runs it, and returns
    ``fill(a, out, ws)``. ``fill`` is called for each pass in row order: it
    fills ``out``, a (pass size, n_nodes) view of the worker's buffer, with
    the block's rows a.., a pure function of b, the row indices and the
    pass sizes. ``ws`` is a flat scratch array of two passes' cells, which
    ``fill`` spends while it fills a pass and the block's fold after it, so
    ``fill`` rewrites what it reads of ``ws`` on every pass.
    """

    block: Callable
    n_paths: int
    n_nodes: int
    threads: int = 1

    def map(self, fold):
        """Yield ``fold(pairs, ws)`` of each block's (start, pass) pairs, one value per block, in block order.

        A pass is a view of its worker's buffer, valid until the next pass,
        and start its first row in the ensemble. ``ws`` is the scratch of two
        passes' cells that the block's ``fill`` was given, the fold's to
        spend between passes. Each worker allocates its buffer and scratch
        once per call. One thread folds the blocks in the caller: a pool of
        one worker measured 2-4 MiB more peak RSS on every benchmark
        workload. More threads sample and fold whole blocks, at most
        ``threads`` of them started and not yet yielded, so the folds held
        do not grow with n_paths. A block's error is raised here and stops
        the blocks after it; no worker outlives the generator.
        """
        n_blocks = -(-self.n_paths // _BLOCK)
        width = min(slab_rows(self.n_nodes), self.n_paths)
        local = threading.local()  # each worker's pass buffer and scratch array

        def run(b):
            if not hasattr(local, "buf"):
                local.buf, local.ws = np.empty((width, self.n_nodes)), np.empty(2 * width * self.n_nodes)
            fill, start, buf, ws = self.block(b), b * _BLOCK, local.buf, local.ws

            def pairs():
                for a, out in _cuts(min(_BLOCK, self.n_paths - start), buf):
                    fill(a, out, ws)
                    yield start + a, out

            return fold(pairs(), ws)

        workers = min(self.threads or 1, n_blocks)
        if workers <= 1:
            for b in range(n_blocks):
                yield run(b)
        else:
            ex = ThreadPoolExecutor(max_workers=workers)
            try:
                ahead = deque()
                for b in range(n_blocks):
                    if len(ahead) == workers:
                        yield ahead.popleft().result()
                    ahead.append(ex.submit(run, b))
                while ahead:
                    yield ahead.popleft().result()
            finally:
                ex.shutdown(cancel_futures=True)

    def matrix(self) -> np.ndarray:
        """The (n_paths, n_nodes) matrix of every row, each pass copied in as it is sampled."""
        out = np.empty((self.n_paths, self.n_nodes))

        def copy(pairs, ws):
            for start, rows in pairs:
                out[start : start + len(rows)] = rows

        for _ in self.map(copy):
            pass
        return out


def slab_rows(n_nodes: int) -> int:
    """Rows per pass of a :class:`BlockStream`: a power of two, from 1 to _BLOCK.

    The largest whose pass holds at most _KERNEL_CELLS cells, or one row.
    _BLOCK is a power of two, so the pass size divides it and the passes of
    a full block are all the same size.
    """
    rows = max(1, _KERNEL_CELLS // n_nodes)
    return min(_BLOCK, 1 << (rows.bit_length() - 1))


def _cuts(rows: int, buf: np.ndarray):
    """(first row, pass array) of a block of ``rows`` rows, ``len(buf)`` rows a pass."""
    step = len(buf)
    for a in range(0, rows, step):
        yield a, buf[: min(step, rows - a)]


def fill_rows(build_row, n_paths: int, n_nodes: int, threads: int = 1) -> np.ndarray:
    """Assemble a (n_paths, n_nodes) matrix with row i = build_row(i).

    ``build_row`` must be a pure function of the row index. The rows run as
    the passes of a :class:`BlockStream` on ``threads`` workers, so the
    matrix is the same for any number of threads.
    """

    def block(b):
        def fill(a, out, ws):
            for i, row in enumerate(out, b * _BLOCK + a):
                row[:] = build_row(i)

        return fill

    return BlockStream(block, n_paths, n_nodes, threads).matrix()


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
