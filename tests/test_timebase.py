import csv
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import lfilter

from gmapprox import timebase
from gmapprox.timebase import (
    Curve,
    PathEnsemble,
    TimeGrid,
    child_seed,
    derive_stream,
    exp_weighted_values,
    fill_rows,
    iter_block_passes,
    iter_slabs,
    one_pole,
    pole_band,
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

    def test_ensemble_csv_header(self, tmp_path):
        g = grid(1.0, 0.5)
        e = PathEnsemble(g, 2, np.arange(6, dtype=float).reshape(2, 3), master_seed=7)
        p = tmp_path / "e.csv"
        e.to_csv(p)
        head = p.read_text().splitlines()[0]
        assert head == "t,path_0,path_1"


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


class TestOnePole:
    @pytest.mark.parametrize("a", [np.exp(-1.5e-4), np.exp(-0.075)])
    @pytest.mark.parametrize("shape", [(1, 5001), (26, 5001), (256, 513), (50_001,)])
    def test_matches_lfilter(self, shape, a):
        x = derive_stream(5, len(shape), shape[-1]).standard_normal(shape)
        ref = lfilter([1.0], [1.0, -a], x, axis=-1)
        # the scale keeps the comparison relative where the signed sums cross zero
        np.testing.assert_allclose(one_pole(x, a), ref, rtol=1e-13, atol=1e-13 * np.abs(ref).max())

    def test_rows_equal_one_row_calls(self):
        a = np.exp(-0.075)
        x = derive_stream(6, 0).standard_normal((37, 501))
        rows = [one_pole(r.copy(), a) for r in x]
        got = one_pole(x.copy(), a)
        for r, ref in zip(got, rows):
            assert np.array_equal(r, ref)
        for lo, hi in ((0, 5), (5, 36), (36, 37)):
            assert np.array_equal(one_pole(x[lo:hi].copy(), a), got[lo:hi])

    def test_runs_in_place(self):
        x = derive_stream(7, 0).standard_normal((3, 100))
        x0 = x.copy()
        y = one_pole(x, 0.9)
        assert y is x and not np.array_equal(x, x0)
        ref = lfilter([1.0], [1.0, -0.9], x0, axis=-1)
        np.testing.assert_allclose(x, ref, rtol=1e-13, atol=1e-13 * np.abs(ref).max())

    def test_state_carried_as_a_leading_column(self):
        a = 1.0 - 0.1 * 1e-2
        x = derive_stream(8, 0).standard_normal(41)  # x[0] is the carried state v
        full = one_pole(x.copy(), a)
        for k in range(1, 40):
            head = one_pole(x[: k + 1].copy(), a)
            tail = x[k:].copy()
            tail[0] = head[-1]
            tail = one_pole(tail, a)
            assert np.array_equal(np.concatenate([head, tail[1:]]), full), k

    def test_rejects_layouts_it_cannot_overwrite(self):
        x = np.zeros((4, 6))
        frozen = x.copy()
        frozen.flags.writeable = False
        for bad in (x.T, x[:, ::2], x.astype(np.float32), frozen):
            with pytest.raises(ValueError):
                one_pole(bad, 0.5)

    def test_empty(self):
        for shape in ((0, 5), (3, 0)):
            assert one_pole(np.zeros(shape), 0.5).shape == shape

    def test_band_built_once_gives_the_same_bits(self):
        a = np.exp(-0.075)
        x = derive_stream(9, 0).standard_normal((5, 301))
        band = pole_band(a, 301)
        assert np.array_equal(one_pole(x.copy(), band), one_pole(x.copy(), a))
        with pytest.raises(ValueError):
            one_pole(x.copy(), pole_band(a, 300))


class TestStreams:
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

        a = fill_rows(row, 40, 64, threads=1)
        b = fill_rows(row, 40, 64, threads=4)
        assert np.array_equal(a, b)


class TestSlabs:
    @pytest.mark.parametrize(
        "n_nodes, rows",
        [(1, 512), (101, 512), (201, 512), (501, 256), (5001, 16), (20_001, 4), (2**17, 1), (10**6, 1)],
    )
    def test_slab_rows(self, n_nodes, rows):
        assert slab_rows(n_nodes) == rows
        assert timebase._BLOCK % rows == 0
        assert rows * n_nodes <= timebase._KERNEL_CELLS or rows == 1

    def test_cuts_from_each_chunk_start(self):
        # 5,001 nodes: slabs of 16 rows; a 40-row chunk ends in a slab of 8
        x = np.arange(72 * 5001, dtype=float).reshape(72, 5001)
        got = list(iter_slabs([(0, x[:32]), (32, x[32:])]))
        assert [(s, len(b)) for s, b in got] == [(0, 16), (16, 16), (32, 16), (48, 16), (64, 8)]
        for s, b in got:
            assert np.shares_memory(b, x) and np.array_equal(b, x[s : s + len(b)])

    def test_same_slabs_for_any_whole_block_chunking(self):
        # every chunking into whole blocks gives the same slabs
        x = np.zeros((1100, 5001))
        cuts = lambda size: [(lo, x[lo : lo + size]) for lo in range(0, 1100, size)]
        ref = [(s, len(b)) for s, b in iter_slabs(cuts(512))]
        for size in (1024, 2048):
            assert [(s, len(b)) for s, b in iter_slabs(cuts(size))] == ref


def index_passes(b, rows, take, ws):
    """A block generator whose rows hold their ensemble row index in every column."""
    step = slab_rows(1025)
    for a in range(0, rows, step):
        out = take()[: min(step, rows - a)]
        out[:] = (b * timebase._BLOCK + a + np.arange(len(out)))[:, None]
        yield out


class TestBlockPasses:
    # 1,100 rows of 1,025 nodes: passes of 64 rows from each block's start,
    # so the 76-row last block ends in a pass of 12
    def test_passes_in_row_order_for_any_thread_count(self):
        assert slab_rows(1025) == 64
        blocks = ((0, 512), (512, 512), (1024, 76))
        starts = [b0 + a for b0, rows in blocks for a in range(0, rows, 64)]
        for threads in (1, 2, 3):
            got = [(s, p.copy()) for s, p in iter_block_passes(index_passes, 1100, 1025, threads)]
            assert [s for s, _ in got] == starts
            assert len(got[-1][1]) == 12
            for s, p in got:
                assert np.array_equal(p, np.broadcast_to((s + np.arange(len(p)))[:, None], p.shape))

    def test_one_thread_reuses_one_buffer(self):
        passes = iter_block_passes(index_passes, 1100, 1025)
        _, first = next(passes)
        assert all(np.shares_memory(p, first) for _, p in passes)

    def test_worker_error_reaches_the_caller(self):
        def failing(b, rows, take, ws):
            yield from index_passes(b, 1 if b == 1 else rows, take, ws)
            if b == 1:
                raise ArithmeticError("block 1")

        with pytest.raises(ArithmeticError, match="block 1"):
            list(iter_block_passes(failing, 1100, 1025, threads=2))

    def test_closing_early_ends_the_workers(self):
        before = threading.active_count()
        passes = iter_block_passes(index_passes, 1100, 1025, threads=3)
        next(passes)
        passes.close()
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
