import csv
import json
import os

import numpy as np
import pytest

from gmapprox.cli import EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, build_parser, main

from oracles import fresh_interpreter_stdout


def write_config(tmp_path, **kw):
    cfg = {
        "sde": {"theta": 1.5, "sigma": 1.0, "x0": 0.0},
        "grid": {"T": 1.0, "dt": 0.01},
        "model": {"type": "single_shot", "rate": 2.0},
        "mc": {"n_paths": 300, "seed": 7},
        "output": {"directory": str(tmp_path / "out"), "formats": ["csv", "json"]},
    }
    for key, val in kw.items():
        cfg[key] = val
    p = tmp_path / "config.json"
    p.write_text(json.dumps(cfg))
    return p


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    head = rows[0]
    data = np.array([[float(v) for v in r] for r in rows[1:]])
    return head, data


class TestConfigValidation:
    def test_missing_file(self, tmp_path, capsys):
        assert main(["table1", "--config", str(tmp_path / "nope.json")]) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_bad_json(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        assert main(["table1", "--config", str(p)]) == EXIT_CONFIG

    def test_unknown_model(self, tmp_path, capsys):
        p = write_config(tmp_path, model={"type": "levy"})
        assert main(["simulate", "--config", str(p)]) == EXIT_CONFIG
        assert "levy" in capsys.readouterr().err

    def test_pairing_conflict(self, tmp_path, capsys):
        # a single shot at rate theta runs; a nonpositive theta is the config error
        p = write_config(tmp_path, model={"type": "single_shot", "rate": 1.5})
        assert main(["simulate", "--config", str(p)]) == EXIT_OK
        _, data = read_csv(tmp_path / "out" / "paths.csv")
        assert np.all(np.isfinite(data))
        for theta in (0.0, -1.5):
            p = write_config(tmp_path, sde={"theta": theta, "sigma": 1.0, "x0": 0.0})
            assert main(["simulate", "--config", str(p)]) == EXIT_CONFIG
            assert "sde.theta must be positive" in capsys.readouterr().err

    def test_bad_field_value(self, tmp_path, capsys):
        p = write_config(tmp_path, grid={"T": -1.0, "dt": 0.01})
        assert main(["simulate", "--config", str(p)]) == EXIT_CONFIG

    @pytest.mark.parametrize("grid", [{"T": 1.0, "dt": 1.0}, {"T": 1.0, "dt": 4.0}])
    def test_grid_needs_two_steps(self, tmp_path, capsys, grid):
        p = write_config(tmp_path, grid=grid)
        assert main(["approx", "--config", str(p)]) == EXIT_CONFIG
        assert "at least 2 steps" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["approx", "costs"])
    def test_grid_needs_a_whole_number_of_steps(self, tmp_path, capsys, command):
        # T = 1 is 3.33 steps of 0.3: the grid would end at 0.9, short of the echoed T
        p = write_config(tmp_path, grid={"T": 1.0, "dt": 0.3})
        assert main([command, "--config", str(p)]) == EXIT_CONFIG
        assert "whole number of steps" in capsys.readouterr().err

    def test_odd_cost_order(self, tmp_path):
        p = write_config(tmp_path, costs={"p_list": [3]})
        assert main(["simulate", "--config", str(p)]) == EXIT_CONFIG

    def test_uncomputed_cost_order_rejected(self, tmp_path, capsys):
        # only orders 2 and 4 are computed, so an even order 6 is refused too
        p = write_config(tmp_path, costs={"p_list": [2, 6]})
        assert main(["simulate", "--config", str(p)]) == EXIT_CONFIG
        assert "only orders 2 and 4" in capsys.readouterr().err

    @pytest.mark.parametrize("section", ["costs", "sde", "mc"])
    def test_section_must_be_an_object(self, tmp_path, section):
        p = write_config(tmp_path, **{section: [2, 4]})
        assert main(["simulate", "--config", str(p)]) == EXIT_CONFIG

    EXP = {"type": "exponential", "rate": 2.0}
    MC = {"n_paths": 300, "seed": 7}

    @pytest.mark.parametrize(
        "section, message",
        [
            # an unknown key would be echoed as if it had been honoured
            ({"model": {"type": "ou", "rate": 2, "sigma": 5.0}}, "model: unknown keys ['sigma']"),
            ({"model": {"type": "poisson", "rate": 2.0, "jump": EXP}}, "model: unknown keys ['jump']"),
            ({"model": {"type": "compound_poisson", "rate": 2.0, "jump": dict(EXP, shape=3.0)}},
             "model.jump: unknown keys ['shape']"),
            ({"model": {"type": "shot_noise", "arrival": dict(EXP, lo=0.0)}}, "model.arrival: unknown keys ['lo']"),
            ({"solver": {"order": 4}}, "config: unknown keys ['solver']"),
            ({"sde": {"theta": 1.5, "sigma_u": 2.0}}, "sde: unknown keys ['sigma_u']"),
            ({"grid": {"T": 1.0, "dt": 0.01, "n": 100}}, "grid: unknown keys ['n']"),
            ({"mc": dict(MC, threads=2)}, "mc: unknown keys ['threads']"),
            ({"output": {"formats": ["csv"], "dir": "elsewhere"}}, "output: unknown keys ['dir']"),
            ({"costs": {"p_list": [2, 4], "p": 4}}, "costs: unknown keys ['p']"),
            # int() would truncate a float and read a bool or a string
            ({"mc": dict(MC, n_paths=2.9)}, "mc.n_paths must be an integer"),
            ({"mc": dict(MC, n_paths=300.0)}, "mc.n_paths must be an integer"),
            ({"mc": dict(MC, n_paths="300")}, "mc.n_paths must be an integer"),
            ({"mc": dict(MC, seed=True)}, "mc.seed must be an integer"),
            ({"mc": dict(MC, seed=1.5)}, "mc.seed must be an integer"),
            ({"mc": dict(MC, seed=None)}, "mc.seed must be an integer"),
            # a field of the wrong JSON type would end in a TypeError traceback
            ({"model": {"type": "single_shot", "rate": "2"}}, "model.rate must be a finite number"),
            ({"model": {"type": "compound_poisson", "rate": 2.0, "jump": dict(EXP, rate="2")}},
             "model.jump.rate must be a finite number"),
            # a bool would run as the number 0 or 1
            ({"model": {"type": "poisson", "rate": True}}, "model.rate must be a finite number"),
            ({"neuron": {"M": True}}, "neuron.M must be a finite number"),
            ({"model": {"type": "shot_noise", "count": {"type": "fixed", "value": True}}},
             "model.count.value must be a finite number"),
            ({"output": {"directory": 5}}, "output.directory must be a string"),
            # float() would read a string or a bool
            ({"sde": {"theta": "1.5"}}, "sde.theta must be a finite number"),
            ({"sde": {"theta": True}}, "sde.theta must be a finite number"),
            ({"grid": {"T": 1.0, "dt": "0.01"}}, "grid.dt must be a finite number"),
            ({"sde": {"sigma": float("nan")}}, "sde.sigma must be a finite number"),
            # no first-passage node lies at or before the cap
            ({"neuron": {"horizon_cap": 0.005}}, "horizon_cap = 0.005 is below one step dt = 0.01"),
        ],
        ids=["model_key", "poisson_jump", "distribution_key", "arrival_key", "top_level_key", "sde_key",
             "grid_key", "mc_key", "output_key", "costs_key", "fractional_paths", "float_paths",
             "string_paths", "bool_seed", "fractional_seed", "null_seed", "string_model_rate",
             "string_jump_rate", "bool_model_rate", "bool_neuron_inputs", "bool_fixed_count", "numeric_directory", "string_theta", "bool_theta", "string_dt",
             "nan_sigma", "cap_below_one_step"],
    )
    def test_bad_config_is_a_config_error(self, tmp_path, capsys, section, message):
        p = write_config(tmp_path, **section)
        assert main(["costs", "--config", str(p)]) == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_threads_default_is_one(self):
        for command in ("simulate", "approx", "bound", "costs", "table1", "table2", "neuron"):
            assert build_parser().parse_args([command]).threads == 1


class TestSimulate:
    def test_outputs_and_shared_noise(self, tmp_path):
        p = write_config(tmp_path)
        assert main(["simulate", "--config", str(p), "--display-paths", "2"]) == EXIT_OK
        out = tmp_path / "out"
        head, data = read_csv(out / "paths.csv")
        assert head == ["t", "X_0", "X2_0", "X4_0", "X_1", "X2_1", "X4_1"]
        assert data.shape == (101, 7)
        _, f2 = read_csv(out / "F2.csv")
        _, f4 = read_csv(out / "F4.csv")
        # the three columns of one path share the same noise realization:
        # X2 - X4 = F2 - F4 exactly
        np.testing.assert_allclose(
            data[:, 2] - data[:, 3], f2[:, 1] - f4[:, 1], atol=1e-12
        )

    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_display_paths_below_one_is_a_config_error(self, tmp_path, capsys, n):
        p = write_config(tmp_path)
        assert main(["simulate", "--config", str(p), "--display-paths", n]) == EXIT_CONFIG
        assert "--display-paths must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_deterministic_noise_free_columns_coincide(self, tmp_path):
        p = write_config(
            tmp_path,
            sde={"theta": 1.5, "sigma": 0.0, "x0": 0.0},
            model={"type": "deterministic", "constant": 1.0},
            mc={"n_paths": 50, "seed": 3},
        )
        assert main(["simulate", "--config", str(p)]) == EXIT_OK
        _, data = read_csv(tmp_path / "out" / "paths.csv")
        np.testing.assert_allclose(data[:, 1], data[:, 2], atol=1e-9)
        np.testing.assert_allclose(data[:, 1], data[:, 3], atol=1e-9)

    def test_default_grid_row_count(self, tmp_path):
        # default protocol grid: T/dt + 1 = 5001 rows
        out = tmp_path / "out"
        code = main([
            "simulate", "--seed", "1", "--paths", "40", "--out", str(out), "--display-paths", "1",
        ])
        assert code == EXIT_OK
        _, data = read_csv(out / "paths.csv")
        assert data.shape[0] == 5001


class TestBound:
    def test_single_shot_no_violation(self, tmp_path, capsys):
        p = write_config(tmp_path, mc={"n_paths": 500, "seed": 11})
        assert main(["bound", "--config", str(p)]) == EXIT_OK
        head, data = read_csv(tmp_path / "out" / "bound.csv")
        assert head == ["t", "mse", "se", "d2"]
        viol = data[:, 1] - data[:, 3] - 3 * data[:, 2]
        assert viol.max() <= 0
        assert "max violation" in capsys.readouterr().out

    def test_deterministic_zero_curves(self, tmp_path):
        p = write_config(
            tmp_path, model={"type": "deterministic", "constant": 2.0}, mc={"n_paths": 20, "seed": 1}
        )
        assert main(["bound", "--config", str(p)]) == EXIT_OK
        _, data = read_csv(tmp_path / "out" / "bound.csv")
        assert np.all(data[:, 1] == 0)
        assert np.all(data[:, 3] == 0)

    def test_brownian_d2_spot_values(self, tmp_path):
        # dt = 0.01 here, so the generic quadrature carries O(dt^2) error
        p = write_config(tmp_path, model={"type": "brownian", "trend": 2.0}, mc={"n_paths": 50, "seed": 2})
        assert main(["bound", "--config", str(p)]) == EXIT_OK
        _, data = read_csv(tmp_path / "out" / "bound.csv")
        th = 1.5
        t = data[:, 0]
        exact = t / (2 * th) + np.expm1(-2 * th * t) / (4 * th**2)
        for k in np.linspace(0, len(t) - 1, 10).astype(int):
            assert data[k, 3] == pytest.approx(exact[k], abs=5e-5)


class TestTables:
    def test_table1_deterministic_outputs(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        args = ["table1", "--seed", "42", "--paths", "50"]
        assert main(args + ["--out", str(out1)]) == EXIT_OK
        assert main(args + ["--out", str(out2)]) == EXIT_OK
        assert (out1 / "table1.csv").read_bytes() == (out2 / "table1.csv").read_bytes()
        assert (out1 / "table1.json").read_bytes() == (out2 / "table1.json").read_bytes()

    def test_table1_layout(self, tmp_path):
        out = tmp_path / "t1"
        assert main(["table1", "--seed", "1", "--paths", "40", "--out", str(out)]) == EXIT_OK
        with open(out / "table1.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 6  # header + 5 scenarios
        assert len(rows[1]) == 9  # scenario + 4 values + 4 SEs
        payload = json.loads((out / "table1.json").read_text())
        assert len(payload["records"]) == 20

    def test_table2_layout(self, tmp_path):
        out = tmp_path / "t2"
        assert main(["table2", "--seed", "1", "--paths", "30", "--out", str(out)]) == EXIT_OK
        with open(out / "table2.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 4  # header + 3 scenarios
        payload = json.loads((out / "table2.json").read_text())
        assert len(payload["records"]) == 12

    def test_costs_single_model(self, tmp_path):
        p = write_config(tmp_path, mc={"n_paths": 200, "seed": 5})
        assert main(["costs", "--config", str(p)]) == EXIT_OK
        payload = json.loads((tmp_path / "out" / "costs.json").read_text())
        assert len(payload["records"]) == 4

    def test_costs_uniform_arrivals(self, tmp_path):
        model = {"type": "shot_noise", "arrival": {"type": "uniform", "lo": 0, "hi": 250}}
        p = write_config(tmp_path, sde={"theta": 0.1, "sigma": 1.0, "x0": 0.0}, model=model,
                         grid={"T": 20.0, "dt": 0.05}, mc={"n_paths": 50, "seed": 3})
        assert main(["costs", "--config", str(p)]) == EXIT_OK
        payload = json.loads((tmp_path / "out" / "costs.json").read_text())
        assert len(payload["records"]) == 4

    def test_fractional_fixed_count_is_a_config_error(self, tmp_path, capsys):
        # 2.5 events cannot be drawn: the sampler would draw 2 while the moments use 2.5
        model = {"type": "shot_noise", "count": {"type": "fixed", "value": 2.5}}
        p = write_config(tmp_path, sde={"theta": 0.1, "sigma": 1.0, "x0": 0.0}, model=model,
                         grid={"T": 5.0, "dt": 0.05}, mc={"n_paths": 20, "seed": 3})
        assert main(["costs", "--config", str(p)]) == EXIT_CONFIG
        assert "integer" in capsys.readouterr().err

    def test_integral_float_fixed_count_accepted(self, tmp_path):
        model = {"type": "shot_noise", "count": {"type": "fixed", "value": 2.0}}
        p = write_config(tmp_path, sde={"theta": 0.1, "sigma": 1.0, "x0": 0.0}, model=model,
                         grid={"T": 5.0, "dt": 0.05}, mc={"n_paths": 20, "seed": 3})
        assert main(["costs", "--config", str(p)]) == EXIT_OK
        ref = tmp_path / "int"
        model["count"]["value"] = 2
        p = write_config(tmp_path, sde={"theta": 0.1, "sigma": 1.0, "x0": 0.0}, model=model,
                         grid={"T": 5.0, "dt": 0.05}, mc={"n_paths": 20, "seed": 3},
                         output={"directory": str(ref), "formats": ["csv"]})
        assert main(["costs", "--config", str(p)]) == EXIT_OK
        assert (ref / "costs.csv").read_bytes() == (tmp_path / "out" / "costs.csv").read_bytes()

    @pytest.mark.parametrize("command", ["costs", "approx"])
    @pytest.mark.parametrize("arrival_rate", [1.0, 2.0])
    def test_shot_noise_rate_coincidence_is_a_config_error(self, tmp_path, capsys, command, arrival_rate):
        # accepted: an arrival rate equal to the response rate or to twice it runs, and its
        # outputs are within 1e-6 of those at an arrival rate 1e-7 away
        outs = []
        for k, rate in enumerate((arrival_rate, arrival_rate * (1 + 1e-7))):
            model = {"type": "shot_noise", "response_rate": 1.0,
                     "arrival": {"type": "exponential", "rate": rate}}
            out = tmp_path / f"o{k}"
            p = write_config(tmp_path, sde={"theta": 0.1, "sigma": 1.0, "x0": 0.0}, model=model,
                             grid={"T": 5.0, "dt": 0.05}, mc={"n_paths": 20, "seed": 3},
                             output={"directory": str(out), "formats": ["csv", "json"]})
            assert main([command, "--config", str(p)]) == EXIT_OK
            if command == "costs":
                records = json.loads((out / "costs.json").read_text())["records"]
                outs.append(np.array([r["value"] for r in records]))
            else:
                outs.append(read_csv(out / "approx_p4.csv")[1])
        assert np.all(np.isfinite(outs[0]))
        assert np.max(np.abs(outs[0] - outs[1])) <= 1e-6 * np.max(np.abs(outs[0]))

    def test_approx_reads_no_paths(self, tmp_path):
        # F2 and F4 are exact: the path count and the seed do not change them
        outs = []
        for k, mc in enumerate(({"n_paths": 5, "seed": 1}, {"n_paths": 900, "seed": 2})):
            p = write_config(tmp_path, mc=mc, output={"directory": str(tmp_path / f"o{k}")})
            assert main(["approx", "--config", str(p)]) == EXIT_OK
            outs.append((tmp_path / f"o{k}" / "approx_p4.csv").read_bytes())
        assert outs[0] == outs[1]


class TestNeuron:
    def test_analytic_scenario(self, tmp_path):
        p = write_config(
            tmp_path, neuron={"scenario": "exponential", "T": 10.0}, mc={"n_paths": 50, "seed": 2}
        )
        assert main(["neuron", "--config", str(p)]) == EXIT_OK
        _, f2 = read_csv(tmp_path / "out" / "neuron_F2.csv")
        assert f2.shape == (1001, 2)
        summary = json.loads((tmp_path / "out" / "neuron_summary.json").read_text())
        assert summary["scenario"] == "exponential"

    def test_simulated_scenario_small(self, tmp_path):
        p = write_config(tmp_path, neuron={"scenario": "simulated_network", "T": 2.0}, mc={"n_paths": 20, "seed": 2})
        assert main(["neuron", "--config", str(p)]) == EXIT_OK
        summary = json.loads((tmp_path / "out" / "neuron_summary.json").read_text())
        assert summary["censor_rate"] < 1e-3

    @pytest.mark.parametrize(
        "section",
        [
            {"dt": -1},
            {"M": 0},
            {"M": 2.5},
            {"scenario": "gamma", "gamma_shape": -2},
            {"scenario": "exponential", "T": 0.01},
            {"dt": 0},
            {"T": 1e6},
            {"sigma_i": 0, "mu_i": 1, "horizon_cap": 1e9},
            {"mu": 3},
            {"theta": 0.0},
            {"T": 1.0, "dt": 0.3},
        ],
        ids=[
            "negative_dt",
            "no_inputs",
            "fractional_inputs",
            "negative_gamma_shape",
            "one_step",
            "zero_dt",
            "too_many_steps",
            "unbounded_horizon_cap",
            "unknown_key",
            "nonpositive_theta",
            "fractional_steps",
        ],
    )
    def test_bad_section_is_a_config_error(self, tmp_path, capsys, section):
        p = write_config(tmp_path, neuron=section, mc={"n_paths": 3, "seed": 2})
        assert main(["neuron", "--config", str(p)]) == EXIT_CONFIG
        assert "config error: neuron:" in capsys.readouterr().err

    def test_response_rate_equal_to_theta_is_accepted(self, tmp_path):
        # the inputs' response rate is 1.0: theta = 1.0 is an ordinary fit
        p = write_config(tmp_path, neuron={"scenario": "exponential", "theta": 1.0, "T": 10.0},
                         mc={"n_paths": 3, "seed": 2})
        assert main(["neuron", "--config", str(p)]) == EXIT_OK
        _, f2 = read_csv(tmp_path / "out" / "neuron_F2.csv")
        assert np.all(np.isfinite(f2)) and f2[-1, 1] > 0

    def test_subthreshold_noisy_inputs_exit_code(self, tmp_path, capsys):
        # mu / theta = 15 below the threshold: most inputs never fire before the cap, exit 3
        p = write_config(
            tmp_path,
            neuron={"scenario": "simulated_network", "mu_i": 1.5, "horizon_cap": 50.0, "T": 2.0},
            mc={"n_paths": 3, "seed": 2},
        )
        assert main(["neuron", "--config", str(p)]) == EXIT_NUMERICAL
        assert "censored" in capsys.readouterr().err

    def test_censoring_failure_exit_code(self, tmp_path):
        # subthreshold noiseless inputs never fire: numerical failure, exit 3
        p = write_config(
            tmp_path,
            neuron={
                "scenario": "simulated_network",
                "mu_i": 1.0,
                "sigma_i": 0.0,
                "horizon_cap": 5.0,
                "T": 2.0,
            },
            mc={"n_paths": 3, "seed": 2},
        )
        assert main(["neuron", "--config", str(p)]) == EXIT_NUMERICAL

    @pytest.mark.parametrize("sigma_i, cause", [(1e-200, "not finite"), (1e-3, "sim_dt")])
    def test_nearly_noiseless_inputs_exit_code(self, tmp_path, capsys, sigma_i, cause):
        # sigma_i^2 underflows to 0, so the density is NaN; at 1e-3 the 0.01 ms solve misses the
        # narrow density of a sure crossing at 4.05 ms and censors nearly all of it: both exit 3
        p = write_config(tmp_path, neuron={"sigma_i": sigma_i, "T": 2.0}, mc={"n_paths": 3, "seed": 2})
        assert main(["neuron", "--config", str(p)]) == EXIT_NUMERICAL
        assert cause in capsys.readouterr().err


class TestOnePath:
    @pytest.mark.parametrize("command", ["bound", "costs", "table1", "table2"])
    def test_one_path_is_a_config_error(self, tmp_path, capsys, command):
        # a sample variance needs two paths: exit 2, not a traceback
        p = write_config(tmp_path, mc={"n_paths": 1, "seed": 2})
        assert main([command, "--config", str(p)]) == EXIT_CONFIG
        assert "mc.n_paths must be >= 2" in capsys.readouterr().err

    def test_analytic_neuron_reads_no_paths(self, tmp_path):
        p = write_config(
            tmp_path, neuron={"scenario": "exponential", "T": 10.0}, mc={"n_paths": 1, "seed": 2}
        )
        assert main(["neuron", "--config", str(p)]) == EXIT_OK

    def test_simulated_neuron_reads_no_paths(self, tmp_path):
        # the network is fitted on its exact first-passage law: any seed and path count, the same bits
        outs = []
        for k, mc in enumerate(({"n_paths": 1, "seed": 2}, {"n_paths": 300, "seed": 7})):
            p = write_config(tmp_path, neuron={"T": 10.0}, mc=mc, output={
                "directory": str(tmp_path / f"o{k}"), "formats": ["csv", "json"]})
            assert main(["neuron", "--config", str(p), "--threads", str(k + 1)]) == EXIT_OK
            outs.append([(tmp_path / f"o{k}" / f"neuron_F{order}.csv").read_bytes() for order in (2, 4)])
        assert outs[0] == outs[1]
        summary = json.loads((tmp_path / "o0" / "neuron_summary.json").read_text())
        assert summary["scenario"] == "simulated_network"
        assert 0 < summary["censor_rate"] < 1e-4


class TestFormats:
    # every file a command writes, by format, for the write_config defaults
    FILES = {
        "simulate": {"csv": ["paths.csv", "F2.csv", "F4.csv"], "json": ["simulate_config.json"]},
        "approx": {"csv": ["approx_p2.csv", "approx_p4.csv"], "json": ["approx_config.json"]},
        "bound": {"csv": ["bound.csv"], "json": ["bound_summary.json"]},
        "costs": {"csv": ["costs.csv"], "json": ["costs.json"]},
        "table1": {"csv": ["table1.csv"], "json": ["table1.json"]},
        "table2": {"csv": ["table2.csv"], "json": ["table2.json"]},
        "neuron": {"csv": ["neuron_F2.csv", "neuron_F4.csv"], "json": ["neuron_summary.json"]},
    }

    @pytest.mark.parametrize("formats", [["xml"], [], "csv", ["csv", "xml"], [["csv"]], None])
    def test_invalid_formats_are_a_config_error(self, tmp_path, capsys, formats):
        p = write_config(tmp_path, output={"directory": str(tmp_path / "out"), "formats": formats})
        assert main(["costs", "--config", str(p)]) == EXIT_CONFIG
        assert "output.formats" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", sorted(FILES))
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_every_command_writes_only_the_listed_format(self, tmp_path, command, fmt):
        out = tmp_path / "out"
        p = write_config(tmp_path, mc={"n_paths": 20, "seed": 1}, neuron={"T": 2.0},
                         output={"directory": str(out), "formats": [fmt]})
        assert main([command, "--config", str(p)]) == EXIT_OK
        assert sorted(os.listdir(out)) == sorted(self.FILES[command][fmt])

    def test_format_flag_overrides_the_config(self, tmp_path):
        out = tmp_path / "out"
        p = write_config(tmp_path, output={"directory": str(out), "formats": ["csv"]})
        assert main(["approx", "--config", str(p), "--format", "json"]) == EXIT_OK
        assert os.listdir(out) == ["approx_config.json"]


class TestConfigEcho:
    def test_rerun_from_echo_reproduces(self, tmp_path):
        p = write_config(tmp_path)
        assert main(["simulate", "--config", str(p)]) == EXIT_OK
        first = (tmp_path / "out" / "paths.csv").read_bytes()
        echo = tmp_path / "out" / "simulate_config.json"
        assert main(["simulate", "--config", str(echo)]) == EXIT_OK
        assert (tmp_path / "out" / "paths.csv").read_bytes() == first


def test_import_loads_no_heavy_scipy_modules(tmp_path):
    """Every command needs numpy alone: none of the seven, approx on a Gamma arrival, loads a scipy module."""
    gamma_arrival = {"type": "shot_noise", "arrival": {"type": "gamma", "rate": 3.0, "shape": 2.5}}
    p = write_config(tmp_path, model=gamma_arrival, mc={"n_paths": 20, "seed": 7})
    code = (
        "import sys, gmapprox.cli\n"
        "for argv in (['simulate'], ['approx'], ['bound'], ['costs'], ['table1'], ['table2'], ['neuron']):\n"
        f"    assert gmapprox.cli.main([*argv, '--config', {str(p)!r}]) == 0\n"
        "print(*[m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')])"
    )
    assert fresh_interpreter_stdout(code).splitlines()[-1].split() == []
