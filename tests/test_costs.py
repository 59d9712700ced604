import csv
import json

import numpy as np
import pytest

from gmapprox import drift as dm
from gmapprox import timebase
from gmapprox.approx import F2_analytic
from gmapprox.bounds import pointwise_mse_streaming
from gmapprox.costs import (
    CostReport,
    cost_block,
    full_path_costs,
    per_path_cost_matrix,
    report_records,
    run_table1,
    write_report_csv,
    write_report_json,
)
from gmapprox.sde import LinearSDE
from gmapprox.timebase import Curve, PathEnsemble, TimeGrid, child_seed, slab_rows, trapezoid_values
from oracles import cut_rows, matrix_blocks, traced_peak

THETA = 1.5


def grid(T=1.0, dt=1e-2):
    return TimeGrid.from_step(T, dt)


def estimate_cost(p, Z_ensemble, F):
    """Oracle: J_p[F] and its SE as the mean and SE of per-path costs of a materialized ensemble."""
    c = trapezoid_values(np.abs(Z_ensemble.values - F.values[None, :]) ** p, F.grid.dt)
    se = np.std(c, ddof=1) / np.sqrt(len(c)) if len(c) > 1 else 0.0
    return float(np.mean(c)), float(se)


def ensemble_costs(ens, curves):
    """per_path_cost_matrix over a materialized ensemble."""
    return per_path_cost_matrix(matrix_blocks(ens.values), curves, ens.grid.dt, ens.n_paths)


class TestEstimateCost:
    def test_zero_when_paths_equal_F(self):
        g = grid()
        f = Curve.from_function(g, lambda t: np.sin(t))
        vals = np.tile(f.values, (8, 1))
        ens = PathEnsemble(g, 8, vals, master_seed=0)
        values, se, _ = ensemble_costs(ens, (f.values,))
        assert np.all(values == 0.0) and np.all(se == 0.0)

    def test_constant_error_integrates_exactly(self):
        g = TimeGrid.from_step(5.0, 0.05)
        ens = PathEnsemble(g, 1, np.ones((1, g.n_nodes)), master_seed=0)
        values, se, _ = ensemble_costs(ens, (np.zeros(g.n_nodes),))
        assert values[0, 0] == pytest.approx(5.0, rel=1e-12)
        assert se[0, 0] == 0.0

    def test_rejects_odd_order(self):
        g = grid()
        sde = LinearSDE(theta=THETA, sigma=1.0, x0=0.0, grid=g)
        with pytest.raises(ValueError):
            full_path_costs(sde, dm.SingleShot(2.0), Curve(g, np.zeros(g.n_nodes)), 3, 2, 0)


class TestEstimatorEquivalence:
    @pytest.mark.parametrize("sigma", [1.0, 0.0])
    @pytest.mark.parametrize("p", [2, 4])
    def test_full_path_matches_Z_only_per_path(self, sigma, p):
        # Y is added to both X and X^f, so it cancels path by path
        g = TimeGrid.from_step(5.0, 1e-2)
        sde = LinearSDE(theta=THETA, sigma=sigma, x0=0.0, grid=g)
        model = dm.SingleShot(2.0)
        F2 = F2_analytic(model, THETA, g)
        n, seed = 10, 77
        full = full_path_costs(sde, model, F2.F, p, n, seed)
        ens = dm.Z_path_ensemble(model, THETA, g, n, master_seed=seed)
        direct = trapezoid_values(np.abs(ens.values - F2.F.values[None, :]) ** p, g.dt)
        assert np.max(np.abs(full - direct)) < 1e-10

    def test_cross_check_value_agrees(self):
        g = TimeGrid.from_step(1.0, 1e-2)
        sde = LinearSDE(theta=THETA, sigma=1.0, x0=0.0, grid=g)
        model = dm.SingleShot(2.0)
        appr = F2_analytic(model, THETA, g)
        n, seed = 50, 5
        full = full_path_costs(sde, model, appr.F, 2, n, seed)
        v_full, se_full = full.mean(), full.std(ddof=1) / np.sqrt(n)
        ens = dm.Z_path_ensemble(model, THETA, g, n, master_seed=seed)
        values, se, _ = ensemble_costs(ens, (appr.F.values,))
        v_z, se_z = values[0, 0], se[0, 0]
        assert v_full == pytest.approx(v_z, abs=1e-10)
        assert se_full == pytest.approx(se_z, abs=1e-10)
        assert (v_z, se_z) == estimate_cost(2, ens, appr.F)


class TestSEConvergence:
    def test_se_scales_like_inverse_sqrt_n(self):
        g = grid(T=1.0, dt=0.02)
        model = dm.Poisson(2.0)
        F2 = F2_analytic(model, THETA, g).F
        ns = [100, 1000, 10_000]
        ses = []
        for n in ns:
            ens = dm.Z_path_ensemble(model, THETA, g, n, master_seed=3)
            ses.append(ensemble_costs(ens, (F2.values,))[1][0, 0])
        slope = np.polyfit(np.log(ns), np.log(ses), 1)[0]
        assert slope == pytest.approx(-0.5, abs=0.1)


def cost_matrix_oracle(chunks, curves, dt, n_paths):
    """The cost matrix's per-path costs by the former formulas: |Z - F| and its powers."""
    per_path = {(p, j): np.empty(n_paths) for p in (2, 4) for j in range(len(curves))}
    for start, block in chunks:
        stop = start + block.shape[0]
        for j, fv in enumerate(curves):
            err = np.abs(block - fv[None, :])
            e2 = err * err
            per_path[(2, j)][start:stop] = trapezoid_values(e2, dt)
            per_path[(4, j)][start:stop] = trapezoid_values(e2 * e2, dt)
    return per_path


class TestPerPathCostMatrix:
    @pytest.mark.parametrize("model", [dm.SingleShot(2.0), dm.Poisson(2.0), dm.BrownianDrift(2.0)],
                             ids=lambda m: type(m).__name__)
    def test_bit_identical_to_former_formulas(self, model):
        # 201 nodes: a block is one pass, and the 188-row last block is
        # shorter than the work array
        g = grid(T=2.0, dt=0.01)
        assert slab_rows(g.n_nodes) == 512
        n = 700
        curves = (F2_analytic(model, THETA, g).F.values, np.linspace(0.0, 1.0, g.n_nodes))
        Z = dm.Z_path_ensemble(model, THETA, g, n, 5).values
        values, se, gap_se = per_path_cost_matrix(matrix_blocks(Z), curves, g.dt, n)
        ref = cost_matrix_oracle(cut_rows(Z, 512), curves, g.dt, n)
        for a, p in enumerate((2, 4)):
            for j in range(2):
                c = ref[(p, j)]
                assert values[a, j] == np.mean(c)
                assert se[a, j] == np.std(c, ddof=1) / np.sqrt(n)
            assert gap_se[a] == np.std(ref[(p, 1 - a)] - ref[(p, a)], ddof=1) / np.sqrt(n)


    def test_fine_grid_slabs_keep_per_path_costs(self):
        # 20,001 nodes: passes of 4 rows, so the full block is 128 passes
        # and the 138-row last block ends in a pass of 2
        g = grid(T=2.0, dt=1e-4)
        assert slab_rows(g.n_nodes) == 4
        model = dm.Poisson(2.0)
        n = 650
        curves = (F2_analytic(model, THETA, g).F.values, np.linspace(0.0, 1.0, g.n_nodes))
        Z = dm.Z_path_ensemble(model, THETA, g, n, 5).values
        values, se, gap_se = per_path_cost_matrix(matrix_blocks(Z), curves, g.dt, n)
        ref = cost_matrix_oracle(cut_rows(Z, 4), curves, g.dt, n)
        whole = cost_matrix_oracle(cut_rows(Z, 512), curves, g.dt, n)
        for a, p in enumerate((2, 4)):
            for j in range(2):
                c = ref[(p, j)]
                assert np.array_equal(c, whole[(p, j)])
                assert values[a, j] == np.mean(c)
                assert se[a, j] == np.std(c, ddof=1) / np.sqrt(n)
            assert gap_se[a] == np.std(ref[(p, 1 - a)] - ref[(p, a)], ddof=1) / np.sqrt(n)


class TestCostBlock:
    def test_optimality_within_noise(self):
        g = grid(T=1.0, dt=0.02)
        values, se, _ = cost_block(dm.SingleShot(2.0), THETA, g, 4000, eval_seed=child_seed(9, 1))
        for a in range(2):
            other = 1 - a
            assert values[a, a] <= values[a, other] + 4 * (se[a, a] + se[a, other])


class TestWorkingSet:
    @pytest.mark.parametrize("threads", [1, 2])
    def test_reducers_hold_a_few_passes(self, threads):
        """cost_block and the streamed pointwise MSE on Table 1's 5,001-node grid.

        Both peak below 8 x _KERNEL_CELLS float64 cells (8 MiB), and the peak
        does not grow with the path count: 600 paths (a full and a partial
        block) and 3,000 (six blocks) peak within 1 MiB of each other. One
        (block x nodes) chunk matrix would be 20.5 MB here. The event
        kernel's workspace is exercised by cost_block, the diffusion's by
        the MSE.
        """
        g = TimeGrid.from_step(5.0, 1e-3)
        limit = 8 * timebase._KERNEL_CELLS * 8
        poisson, ou = dm.Poisson(2.0), dm.OUDrift(2.0, 1.0, 1.0)
        F = F2_analytic(ou, THETA, g).F
        peaks = {}
        for n in (600, 3000):
            peaks["cost_block", n] = traced_peak(lambda: cost_block(poisson, THETA, g, n, 5, threads))
            chunks = lambda: dm.iter_Z_chunks(ou, THETA, g, n, 5, threads)
            peaks["mse", n] = traced_peak(lambda: pointwise_mse_streaming(chunks(), F, n))
        for (what, n), peak in peaks.items():
            assert peak < limit, (what, n, peak)
        for what in ("cost_block", "mse"):
            assert abs(peaks[what, 3000] - peaks[what, 600]) < 2**20, (what, peaks)

    def test_holds_one_pass_of_events_at_a_high_rate(self):
        """cost_block of a rate-200 Poisson drift (10,000 events per path) holds one pass's events.

        On 5,001 nodes a pass is 16 rows, about 160,000 events; drawing the
        200-row block's 2 million events at once traces about 157 MiB.
        """
        g = TimeGrid.from_step(50.0, 0.01)
        peak = traced_peak(lambda: cost_block(dm.Poisson(200.0), THETA, g, 200, 5))
        assert peak < 32 * 2**20, peak

    @pytest.mark.parametrize("threads", [1, 2])
    def test_moments_combine_the_blocks_as_they_come(self, threads):
        """moments_Z_mc on Table 1's 5,001-node grid holds a few block folds, not one per block.

        A block's fold is one stats tuple of four 5,001-node curves (160 kB),
        merged into the running total as it comes, so twelve held at once
        would add about 1.9 MB; 6,000 paths (twelve blocks) peak within 1 MiB
        of 600 (a full and a partial block).
        """
        g = TimeGrid.from_step(5.0, 1e-3)
        ou = dm.OUDrift(2.0, 1.0, 1.0)
        peaks = {n: traced_peak(lambda: dm.moments_Z_mc(ou, THETA, g, n, 5, threads)) for n in (600, 6000)}
        assert peaks[6000] < 8 * timebase._KERNEL_CELLS * 8, peaks
        assert abs(peaks[6000] - peaks[600]) < 2**20, peaks


class TestCostReport:
    def test_invariants(self):
        with pytest.raises(ValueError):
            CostReport(labels=("a",), values=-np.ones((1, 2, 2)), se=np.zeros((1, 2, 2)))
        with pytest.raises(ValueError):
            CostReport(labels=("a", "b"), values=np.zeros((1, 2, 2)), se=np.zeros((1, 2, 2)))

    def test_serialization_roundtrip(self, tmp_path):
        report = CostReport(
            labels=("alpha", "beta"),
            values=np.arange(8, dtype=float).reshape(2, 2, 2),
            se=np.full((2, 2, 2), 0.25),
            config_echo={"n_paths": 7, "seed": 1, "dt": 0.1, "T": 1.0},
        )
        jp = tmp_path / "r.json"
        cp = tmp_path / "r.csv"
        write_report_json(report, jp)
        write_report_csv(report, cp)
        payload = json.loads(jp.read_text())
        assert len(payload["records"]) == 8
        rec = payload["records"][0]
        assert set(rec) == {"scenario", "p_fit", "p_eval", "value", "se", "n_paths", "seed", "dt", "T"}
        got = report_records(report)
        assert payload["records"] == got
        lines = cp.read_text().splitlines()
        assert len(lines) == 3  # header + 2 scenarios
        assert lines[0].startswith("scenario,J2[F2],J2[F4],J4[F2],J4[F4]")

    @staticmethod
    def assert_report_csv_is_csv_writer(tmp_path, report):
        """write_report_csv against csv.writer with "%.17g" cells, byte for byte."""
        write_report_csv(report, tmp_path / "new.csv")
        head = ["J2[F2]", "J2[F4]", "J4[F2]", "J4[F4]"]
        with open(tmp_path / "ref.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["scenario"] + head + [f"se_{h}" for h in head])
            for s, label in enumerate(report.labels):
                cells = [report.values[s, a, b] for a in range(2) for b in range(2)]
                cells += [report.se[s, a, b] for a in range(2) for b in range(2)]
                w.writerow([label] + ["%.17g" % v for v in cells])
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_labelled_rows_bytes_equal_csv_writer(self, tmp_path):
        # positive, subnormal, huge, with an integer part, zero, fractional
        specimens = [1.5, 5e-324, 2.5e-310, 1.7976931348623157e308, 1e300, 3.0, 12345678.9, 0.0, 0.1, 2.0 / 3.0]
        cells = np.resize(specimens, 3 * 8)
        report = CostReport(
            labels=("single_shot", "with,comma", 'with "quote"'),
            values=cells[:12].reshape(3, 2, 2),
            se=cells[12:].reshape(3, 2, 2),
        )
        self.assert_report_csv_is_csv_writer(tmp_path, report)

    def test_quoted_labels_bytes_equal_csv_writer(self, tmp_path):
        names = ["plain", "with,comma", 'with "quote"', "line\nbreak", " padded ", ""]
        rng = np.random.default_rng(3)
        report = CostReport(
            labels=tuple(names),
            values=rng.exponential(1.0, (6, 2, 2)) * 10.0 ** rng.integers(-30, 30, (6, 2, 2)),
            se=rng.exponential(1.0, (6, 2, 2)) * 1e-4,
        )
        self.assert_report_csv_is_csv_writer(tmp_path, report)

    def test_entry_lookup(self):
        report = CostReport(
            labels=("a",),
            values=np.array([[[1.0, 2.0], [3.0, 4.0]]]),
            se=np.zeros((1, 2, 2)),
        )
        assert report.entry("a", 2, 2) == (1.0, 0.0)
        assert report.entry("a", 4, 2) == (3.0, 0.0)
        assert report.entry("a", 2, 4) == (2.0, 0.0)


class TestRunTable1Smoke:
    def test_structure_and_determinism(self):
        a = run_table1(seed=11, n_paths=120)
        b = run_table1(seed=11, n_paths=120, threads=2)
        assert a.labels == (
            "single_shot",
            "poisson",
            "compound_poisson",
            "brownian",
            "ornstein_uhlenbeck",
        )
        assert a.values.shape == (5, 2, 2)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.se, b.se)
        assert np.all(a.values >= 0)
