import csv
import math
import threading
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import lfilter

from gmapprox import timebase
from gmapprox.timebase import (
    BlockStream,
    Curve,
    PoleRun,
    TimeGrid,
    child_seed,
    derive_stream,
    exp_weighted_values,
    fill_rows,
    slab_rows,
    split_stream,
    stable_exp_diff,
    trapezoid,
    write_csv_columns,
)
from oracles import curve_from_csv, exp_weighted_running_integral


def grid(T=1.0, dt=1e-3):
    return TimeGrid.from_step(T, dt)


class TestTimeGrid:
    def test_nodes(self):
        g = grid(1.0, 0.25)
        assert g.n_steps == 4
        np.testing.assert_allclose(g.times(), [0, 0.25, 0.5, 0.75, 1.0])

    def test_from_step_needs_a_whole_number_of_steps(self):
        # 1.0 is 3.33 steps of 0.3: the grid would end at 0.9
        with pytest.raises(ValueError, match="whole number of steps"):
            TimeGrid.from_step(1.0, 0.3)
        # within the grid's 1e-9 relative tolerance the horizon is n dt
        g = TimeGrid.from_step(0.3, 0.1)
        assert g.n_steps == 3 and g.horizon_T == 3 * 0.1

    @pytest.mark.parametrize("bad", [dict(horizon_T=1, dt=-0.1, n_steps=10),
                                     dict(horizon_T=1, dt=0.1, n_steps=0),
                                     dict(horizon_T=2, dt=0.1, n_steps=10)])
    def test_invalid(self, bad):
        with pytest.raises(ValueError):
            TimeGrid(**bad)


class TestWriteCsvColumns:
    # negative, subnormal, huge, with an integer part, signed zero, fractional
    SPECIMENS = [-1.5, 5e-324, 2.5e-310, -1.7976931348623157e308, 1e300, 3.0,
                 12345678.9, -0.0, 0.1, -2.0 / 3.0]

    @staticmethod
    def reference(path, header, rows):
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            for row in rows:
                w.writerow([v if isinstance(v, str) else "%.17g" % v for v in row])

    def test_bytes_equal_csv_writer(self, tmp_path):
        # enough rows to span several write blocks
        rng = np.random.default_rng(0)
        cols = [rng.permutation(np.resize(self.SPECIMENS, 12_001)) for _ in range(3)]
        write_csv_columns(tmp_path / "new.csv", ["t", "a", "b"], cols)
        self.reference(tmp_path / "ref.csv", ["t", "a", "b"], zip(*cols))
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_labelled_rows_bytes_equal_csv_writer(self, tmp_path):
        labels = ["single_shot", "with,comma", 'with "quote"']
        cols = [np.array(self.SPECIMENS[:3]), np.array(self.SPECIMENS[3:6])]
        write_csv_columns(tmp_path / "new.csv", ["scenario", "x", "y"], cols, labels=labels)
        rows = [[label, *vals] for label, vals in zip(labels, zip(*cols))]
        self.reference(tmp_path / "ref.csv", ["scenario", "x", "y"], rows)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def _decimal_digits(x: float) -> int:
    """Significant digits of the exact decimal expansion of a finite nonzero double."""
    return len(Decimal(x).as_tuple().digits)


def _near_ties(E: int) -> list:
    """Doubles a in [10^E, 10^(E + 1)) with a 10^(16 - E) within 2^-48 of a half-integer, not on it.

    Those are the cells whose 17th digit a double-double product may round the
    wrong way. For a = m 2^q (2^52 <= m < 2^53) and 2^q 10^(16 - E) = c / M in
    lowest terms, they ask for 2 m c mod 2M near M: the lattice of
    (w m, 2 m c - 2 M k) is Gauss-reduced and rounded to its point nearest
    (w m0, M) for seven m0 across the binade (Babai).
    """
    found = []
    for q in range(math.frexp(10.0**E)[1] - 53, math.frexp(10.0 ** (E + 1))[1] - 52):
        c, M = (Fraction(2) ** q * Fraction(10) ** (16 - E)).as_integer_ratio()
        w = max(1, M >> 99)  # weighs m's range of 2^52 against the residue's 2M
        b1, b2 = (w, 2 * c), (0, 2 * M)
        while True:
            if b1[0] ** 2 + b1[1] ** 2 > b2[0] ** 2 + b2[1] ** 2:
                b1, b2 = b2, b1
            mu = round(Fraction(b1[0] * b2[0] + b1[1] * b2[1], b1[0] ** 2 + b1[1] ** 2))
            if mu == 0:
                break
            b2 = (b2[0] - mu * b1[0], b2[1] - mu * b1[1])
        det = b1[0] * b2[1] - b1[1] * b2[0]
        for m0 in range(2**52 + 2**49, 2**53, 2**50):
            x = round(Fraction(w * m0 * b2[1] - M * b2[0], det))
            y = round(Fraction(b1[0] * M - b1[1] * w * m0, det))
            m = (x * b1[0] + y * b2[0]) // w
            if 2**52 <= m < 2**53:
                a = math.ldexp(m, q)
                d = Fraction(a) * Fraction(10) ** (16 - E) % 1 - Fraction(1, 2)
                if 0 < abs(d) < Fraction(1, 2**48) and 10**E <= a < 10 ** (E + 1):
                    found.append(a)
    return found


class TestCsvKernel:
    """The vectorised writer against csv.writer with "%.17g" cell by cell."""

    @staticmethod
    def assert_matches_reference(tmp_path, columns, labels=None):
        header = ["label"] * (labels is not None) + [f"c{j}" for j in range(len(columns))]
        write_csv_columns(tmp_path / "new.csv", header, columns, labels=labels)
        rows = zip(*columns) if labels is None else ([lab, *vals] for lab, vals in zip(labels, zip(*columns)))
        TestWriteCsvColumns.reference(tmp_path / "ref.csv", header, rows)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    @given(cells=st.lists(st.floats(), min_size=1, max_size=60), n_cols=st.integers(1, 4))
    @settings(max_examples=300, deadline=None)
    def test_any_double_matches(self, tmp_path_factory, cells, n_cols):
        cells = np.resize(np.array(cells, dtype=float), -(-len(cells) // n_cols) * n_cols)
        self.assert_matches_reference(tmp_path_factory.mktemp("csv"), list(cells.reshape(-1, n_cols).T))

    def test_adversarial_cells_match(self, tmp_path):
        powers = np.array([float(f"1e{k}") for k in range(-320, 309)])
        powers = np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)])
        twos = np.ldexp(1.0, np.arange(-1074, 1024))
        below_1e17 = 1e17 - 16.0 * np.arange(1, 40)  # 16 is the spacing of doubles below 1e17
        subnormal = np.array([5e-324, 1e-310, 2.2250738585072009e-308, np.nextafter(2.2250738585072014e-308, 0)])
        # F / 2^j with F odd and F 5^j of 18 digits: the exact expansion has 18 significant
        # digits, the last a 5, so "%.17g" rounds at a tie, half to even. Over j = 2..25
        # they span E = -8..15, scaled by 10^s up to s = 24, past the powers a double holds.
        rng = np.random.default_rng(1)
        ties = []
        for j in range(2, 26):
            lo, hi = -(-(10**17) // 5**j), min(10**18 // 5**j, 2**53)
            F = rng.integers(lo // 2, hi // 2, 150) * 2 + 1
            ties.append(F / 2.0**j)
        ties = np.concatenate(ties)
        assert all(_decimal_digits(x) == 18 for x in ties)
        # within 2^-48 of a tie, where the double-double's error may round either way
        near = np.array([a for E in range(-280, 281, 7) for a in _near_ties(E)])
        assert near.size > 500
        inside = near[(near >= 1e-280) & (near <= 1e280)]  # also in a block with no other fallback
        self.assert_matches_reference(tmp_path, [inside, -inside])
        specials = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1.7976931348623157e308, 1e16, 1e17])
        cells = np.concatenate([powers, twos, below_1e17, subnormal, ties, near, specials])
        cells = np.concatenate([cells, -cells])
        cells = np.resize(cells, -(-cells.size // 3) * 3)
        self.assert_matches_reference(tmp_path, list(cells.reshape(-1, 3).T))

    def test_quoted_labels_across_blocks(self, tmp_path):
        n_rows = 3 * timebase._CSV_BLOCK_CELLS // 2 + 7  # four blocks of two-column rows
        names = ["plain", "with,comma", 'with "quote"', "line\nbreak", " padded ", ""]
        labels = [names[i % len(names)] + str(i) for i in range(n_rows)]
        rng = np.random.default_rng(3)
        columns = [rng.standard_normal(n_rows) * 10.0 ** rng.integers(-30, 30, n_rows), np.arange(n_rows) * 1e-4]
        self.assert_matches_reference(tmp_path, columns, labels=labels)


class TestCurve:
    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            Curve(grid(1, 0.5), np.zeros(5))

    def test_nonfinite_rejected(self):
        v = np.zeros(3)
        v[1] = np.nan
        with pytest.raises(ValueError):
            Curve(grid(1, 0.5), v)

    def test_csv_roundtrip_exact(self, tmp_path):
        g = grid(1.0, 0.125)
        c = Curve.from_function(g, lambda t: np.sin(3 * t) / 7)
        p = tmp_path / "c.csv"
        c.to_csv(p)
        back = curve_from_csv(p)
        assert np.array_equal(back.values, c.values)


class TestTrapezoid:
    def test_constant_exact(self):
        g = grid(5.0, 0.05)
        assert trapezoid(Curve(g, np.full(g.n_nodes, 2.0))) == pytest.approx(10.0, abs=1e-12)

    def test_linear_exact(self):
        g = grid(1.0, 0.02)
        assert trapezoid(Curve.from_function(g, lambda t: t)) == pytest.approx(0.5, abs=1e-14)

    def test_quadratic(self):
        # analytic integral of t^2 over [0,1] is 1/3
        c = Curve.from_function(grid(1.0, 1e-3), lambda t: t**2)
        assert trapezoid(c) == pytest.approx(1.0 / 3.0, abs=1e-6)

    @given(
        a=st.floats(-5, 5), b=st.floats(-5, 5),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=25, deadline=None)
    def test_linearity(self, a, b, seed):
        g = grid(1.0, 0.01)
        rng = np.random.default_rng(seed)
        f = rng.standard_normal(g.n_nodes)
        h = rng.standard_normal(g.n_nodes)
        lhs = trapezoid(Curve(g, a * f + b * h))
        rhs = a * trapezoid(Curve(g, f)) + b * trapezoid(Curve(g, h))
        assert lhs == pytest.approx(rhs, abs=1e-10)


class TestExpWeightedIntegral:
    def test_zero(self):
        g = grid()
        h = exp_weighted_values(np.zeros(g.n_nodes), g.dt, 2.0)
        assert np.array_equal(h, np.zeros(g.n_nodes))

    def test_constant_one(self):
        # H(t) = (1 - e^{-t}) for g = 1, theta = 1
        g = grid(1.0, 1e-3)
        h = exp_weighted_values(np.ones(g.n_nodes), g.dt, 1.0)
        exact = 1.0 - np.exp(-g.times())
        assert np.max(np.abs(h - exact)) < 1e-6
        assert h[-1] == pytest.approx(0.6321205588285577, abs=1e-6)

    def test_exponential_input(self):
        # g = e^{-2t}, theta = 1.5: H(t) = (e^{-1.5 t} - e^{-2 t}) / 0.5
        g = grid(1.0, 1e-3)
        t = g.times()
        h = exp_weighted_values(np.exp(-2 * t), g.dt, 1.5)
        exact = (np.exp(-1.5 * t) - np.exp(-2 * t)) / 0.5
        assert np.max(np.abs(h - exact)) < 1e-6
        assert h[-1] == pytest.approx(0.17558975382363423, abs=1e-6)

    def test_rejects_nonpositive_theta(self):
        g = grid(1.0, 0.1)
        with pytest.raises(ValueError):
            exp_weighted_values(np.ones(g.n_nodes), g.dt, 0.0)
        with pytest.raises(ValueError):
            exp_weighted_running_integral(Curve(g, np.ones(g.n_nodes)), 0.0)

    def test_discrete_ode_residual(self):
        # H' = -theta H + g, so the per-step midpoint residual is O(dt^2)
        theta = 1.3
        for dt in (2e-2, 1e-2):
            g = grid(1.0, dt)
            t = g.times()
            gv = np.sin(t) + 2.0
            h = exp_weighted_values(gv, dt, theta)
            h_mid = 0.5 * (h[:-1] + h[1:])
            g_mid = np.sin(t[:-1] + dt / 2) + 2.0
            resid = np.abs(h[1:] - h[:-1] - dt * (-theta * h_mid + g_mid))
            assert resid.max() < 2.0 * dt**2

    def test_rows_match_the_oracle(self):
        g = grid(1.0, 1e-3)
        gv = np.sin(np.outer([1.0, 3.0, 7.0], g.times())) + 1.5
        h = exp_weighted_values(gv, g.dt, 1.5)
        for row, got in zip(gv, h):
            ref = exp_weighted_running_integral(Curve(g, row), 1.5).values
            np.testing.assert_allclose(got, ref, rtol=1e-13)


class TestPoleRun:
    POLES = [1.0, np.exp(-1.5e-4), np.exp(-0.075), 0.0]

    @pytest.mark.parametrize("a", POLES)
    @pytest.mark.parametrize(
        "shape",
        # below one block, below two, the dense limit and one past it, whole blocks under
        # one carry level and under two, a tail, tails at two levels, 1-D rows
        [(3, 1), (4, 7), (4, 31), (2, 64), (2, 65), (3, 160), (2, 1280), (2, 1283), (16, 5001), (50_001,), (5001,)],
    )
    def test_matches_lfilter(self, shape, a):
        x = derive_stream(15, len(shape), shape[-1]).standard_normal(shape)
        ref = lfilter([1.0], [1.0, -a], x, axis=-1)
        got = PoleRun(a, shape[-1])(x)
        np.testing.assert_allclose(got, ref, rtol=1e-13, atol=1e-13 * np.abs(ref).max())

    @pytest.mark.parametrize("n", [40, 160, 5001])
    def test_rows_equal_one_row_calls(self, n):
        run = PoleRun(np.exp(-0.075), n)
        x = derive_stream(16, n).standard_normal((37, n))
        full = run(x.copy())
        for r in range(37):
            assert np.array_equal(run(x[r].copy()), full[r]), r
        for rows in (1, 5, 16, 37):
            for lo in range(0, 37, rows):
                assert np.array_equal(run(x[lo : lo + rows].copy()), full[lo : lo + rows]), (rows, lo)

    def test_writes_into_out(self):
        run = PoleRun(0.9, 200)
        x = derive_stream(17, 0).standard_normal((3, 200))
        ref = lfilter([1.0], [1.0, -0.9], x, axis=-1)
        out = np.empty((3, 201))
        view = out[:, 1:]  # rows contiguous, the array not
        assert run(x.copy(), view) is view
        np.testing.assert_allclose(view, ref, rtol=1e-13, atol=1e-13 * np.abs(ref).max())
        same = x.copy()
        assert run(same, same) is same  # an out that overlaps x gives the same values
        assert np.array_equal(same, view)

    @pytest.mark.parametrize("n", [7, 500, 5001])
    def test_first_column_passes_through(self, n):
        x = derive_stream(18, n).standard_normal((4, n))
        for a in self.POLES:
            assert np.array_equal(PoleRun(a, n)(x.copy())[:, 0], x[:, 0]), a

    def test_long_horizon_stays_finite(self):
        # theta T = 375 on the long-horizon grid: a^{-k} reaches e^{375}
        n, a = 5001, np.exp(-1.5 * 0.05)
        x = derive_stream(19, 0).standard_normal((2, n))
        got = PoleRun(a, n)(x.copy())
        assert np.all(np.isfinite(got))
        ref = lfilter([1.0], [1.0, -a], x, axis=-1)
        np.testing.assert_allclose(got, ref, rtol=1e-13, atol=1e-13 * np.abs(ref).max())

    def test_empty(self):
        assert PoleRun(0.5, 5)(np.zeros((0, 5))).shape == (0, 5)


class TestStreams:
    @pytest.mark.parametrize("seed, key", [(0, ()), (42, (3,)), (7, (1, 0)), (2**64 + 5, (511, 2, 9))])
    def test_stream_is_sfc64_seeded_from_its_key(self, seed, key):
        expected = np.random.Generator(np.random.SFC64(np.random.SeedSequence(seed, spawn_key=key)))
        s = derive_stream(seed, *key)
        assert np.array_equal(s.standard_normal(257), expected.standard_normal(257))
        assert np.array_equal(s.exponential(size=33), expected.exponential(size=33))
        assert np.array_equal(s.poisson(4.5, size=33), expected.poisson(4.5, size=33))
        assert np.array_equal(s.bit_generator.random_raw(9), expected.bit_generator.random_raw(9))

    def test_block_keys_start_apart(self):
        firsts = {int(derive_stream(s, b).bit_generator.random_raw()) for s in range(32) for b in range(32)}
        assert len(firsts) == 32 * 32

    def test_same_key_same_draws(self):
        a = derive_stream(123, 5).standard_normal(100)
        b = derive_stream(123, 5).standard_normal(100)
        assert np.array_equal(a, b)

    def test_adjacent_streams_uncorrelated(self):
        x = derive_stream(9, 0).standard_normal(10_000)
        y = derive_stream(9, 1).standard_normal(10_000)
        assert abs(np.corrcoef(x, y)[0, 1]) < 0.05

    def test_split_stream_children_independent_of_parent_draws(self):
        s = derive_stream(4, 2)
        c1, c2 = split_stream(s, 2)
        a, b = c1.standard_normal(4), c2.standard_normal(4)
        assert not np.array_equal(a, b)
        # same children regardless of how the parent is used afterwards
        s2 = derive_stream(4, 2)
        d1, d2 = split_stream(s2, 2)
        assert np.array_equal(a, d1.standard_normal(4))
        assert np.array_equal(b, d2.standard_normal(4))

    def test_child_seed_deterministic_and_distinct(self):
        assert child_seed(7, 1, 0) == child_seed(7, 1, 0)
        assert child_seed(7, 1, 0) != child_seed(7, 1, 1)

    def test_fill_rows_thread_count_invariance(self):
        def row(i):
            return derive_stream(11, i).standard_normal(64)

        # three blocks, the last partial: the threaded map runs
        a = fill_rows(row, 1100, 64, threads=1)
        b = fill_rows(row, 1100, 64, threads=4)
        assert np.array_equal(a, b)
        assert np.array_equal(a, [row(i) for i in range(1100)])


class TestSlabs:
    @pytest.mark.parametrize(
        "n_nodes, rows",
        [(1, 512), (101, 512), (201, 512), (501, 256), (5001, 16), (20_001, 4), (2**17, 1), (10**6, 1)],
    )
    def test_slab_rows(self, n_nodes, rows):
        assert slab_rows(n_nodes) == rows
        assert timebase._BLOCK % rows == 0
        assert rows * n_nodes <= timebase._KERNEL_CELLS or rows == 1


def index_block(b):
    """A block whose rows hold their ensemble row index in every column."""

    def fill(a, out, ws):
        out[:] = (b * timebase._BLOCK + a + np.arange(len(out)))[:, None]

    return fill


def copied(pairs, ws):
    """A fold that keeps a copy of each (start, pass) pair of its block."""
    return [(start, rows.copy()) for start, rows in pairs]


class TestBlockPasses:
    # 1,100 rows of 1,025 nodes: passes of 64 rows from each block's start,
    # so the 76-row last block ends in a pass of 12
    def test_passes_in_row_order_for_any_thread_count(self):
        assert slab_rows(1025) == 64
        blocks = ((0, 512), (512, 512), (1024, 76))
        starts = [[b0 + a for a in range(0, rows, 64)] for b0, rows in blocks]
        for threads in (1, 2, 3):
            folds = list(BlockStream(index_block, 1100, 1025, threads).map(copied))
            assert [[s for s, _ in fold] for fold in folds] == starts
            assert len(folds[-1][-1][1]) == 12
            for s, p in (pair for fold in folds for pair in fold):
                assert np.array_equal(p, np.broadcast_to((s + np.arange(len(p)))[:, None], p.shape))

    def test_one_thread_reuses_one_buffer(self):
        passes = [p for fold in BlockStream(index_block, 1100, 1025).map(lambda pairs, ws: list(pairs)) for _, p in fold]
        assert len(passes) == 18 and all(np.shares_memory(p, passes[0]) for p in passes)

    @pytest.mark.parametrize("threads", [2, 3])
    def test_one_buffer_per_worker(self, threads):
        # 12 blocks: every worker runs several, each into the buffer it allocated first
        fold = lambda pairs, ws: [(threading.get_ident(), p) for _, p in pairs]
        runs = {}
        for fold_passes in BlockStream(index_block, 12 * 512, 1025, threads).map(fold):
            for worker, p in fold_passes:
                runs.setdefault(worker, []).append(p)
        assert 1 < len(runs) <= threads
        for worker, passes in runs.items():
            assert all(np.shares_memory(p, passes[0]) for p in passes)
            others = [q[0] for w, q in runs.items() if w != worker]
            assert not any(np.shares_memory(passes[0], q) for q in others)

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_fold_spends_its_blocks_scratch(self, threads):
        # each fold gets the scratch array its block's sampler was given, of two passes' cells
        given = {}

        def recording(b):
            def fill(a, out, ws):
                given.setdefault(b, (ws, out.size))
                index_block(b)(a, out, ws)

            return fill

        def fold(pairs, ws):
            starts = [start for start, _ in pairs]
            return starts[0] // timebase._BLOCK, ws

        folds = list(BlockStream(recording, 6 * 512 + 76, 1025, threads).map(fold))
        assert [b for b, _ in folds] == list(range(7))
        for b, ws in folds:
            sampled, pass_cells = given[b]
            assert ws is sampled and ws.ndim == 1 and ws.size >= 2 * pass_cells

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_folds_held_are_one_per_worker(self, threads):
        started = []

        def recording(b):
            started.append(b)
            return index_block(b)

        for b, _ in enumerate(BlockStream(recording, 40 * 512, 1025, threads).map(copied)):
            assert max(started) <= b + threads - 1
        assert sorted(started) == list(range(40))

    def test_worker_error_reaches_the_caller(self):
        started = []

        def failing(b):
            started.append(b)
            if b == 1:
                raise ArithmeticError("block 1")
            return index_block(b)

        before = threading.active_count()
        for threads in (1, 2, 3):
            started.clear()
            with pytest.raises(ArithmeticError, match="block 1"):
                list(BlockStream(failing, 40 * 512, 1025, threads).map(copied))
            assert threading.active_count() == before
            # the blocks after the error never start: 40 blocks, and at most one per worker ahead
            assert max(started) <= threads

    def test_first_fold_holds_no_list_of_blocks(self):
        # 200,000 blocks of 5-node rows: a list of (block, rows) pairs alone traces about 18 MiB
        tracemalloc.start()
        try:
            folds = BlockStream(index_block, 512 * 200_000, 5).map(lambda pairs, ws: sum(1 for _ in pairs))
            assert next(folds) == timebase._BLOCK // slab_rows(5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, peak

    def test_closing_early_ends_the_workers(self):
        before = threading.active_count()
        list(BlockStream(index_block, 1100, 1025, threads=3).map(copied))
        assert threading.active_count() == before
        folds = BlockStream(index_block, 1100, 1025, threads=3).map(copied)
        next(folds)
        folds.close()
        assert threading.active_count() == before
        folds = BlockStream(index_block, 1100, 1025, threads=3).map(copied)
        next(folds)
        del folds  # an abandoned generator is closed as it is collected
        assert threading.active_count() == before


class TestStableExpDiff:
    @given(
        a=st.floats(0.01, 20), b=st.floats(0.01, 20),
        t=st.floats(0, 10),
    )
    @settings(max_examples=50, deadline=None)
    def test_matches_direct_formula(self, a, b, t):
        if abs(b - a) < 1e-6 * max(a, b):
            return
        # the direct difference itself loses ~eps/(b-a) absolute accuracy
        direct = (np.exp(-a * t) - np.exp(-b * t)) / (b - a)
        tol = 1e-10 * abs(direct) + 1e-15 / abs(b - a)
        assert abs(stable_exp_diff(a, b, t) - direct) <= tol

    def test_symmetric_and_finite_for_far_apart_rates(self):
        t = np.array([0.0, 0.5, 2.0, 50.0])
        np.testing.assert_array_equal(stable_exp_diff(1e3, 1.0, t), stable_exp_diff(1.0, 1e3, t))
        # (a - b) t = 5e4: the unordered form overflows to inf * 0
        assert np.all(np.isfinite(stable_exp_diff(1e3, 1.0, t)))
        assert stable_exp_diff(1e3, 1.0, 50.0) == pytest.approx(np.exp(-50.0) / 999.0, rel=1e-14)

    def test_coincidence_limit(self):
        t = np.linspace(0, 3, 7)
        np.testing.assert_allclose(stable_exp_diff(2.0, 2.0, t), t * np.exp(-2 * t), rtol=1e-14)
        # near-coincidence stays close to the limit
        near = stable_exp_diff(2.0, 2.0 + 1e-12, t)
        np.testing.assert_allclose(near, t * np.exp(-2 * t), rtol=1e-9)
