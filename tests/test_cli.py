import csv
import json
import os

import numpy as np
import pytest

from gmapprox import bounds as bounds_mod
from gmapprox import cli
from gmapprox import costs as costs_mod
from gmapprox import neuro as neuro_mod
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

    @pytest.mark.parametrize(
        "text",
        [b'{"sde": {"theta": ' + b"1" * 4301 + b"}}", b"\xff\xfe{}"],
        ids=["int_past_digit_limit", "not_utf8"],
    )
    def test_unreadable_json_is_a_config_error(self, tmp_path, capsys, text):
        p = tmp_path / "config.json"
        p.write_bytes(text)
        assert main(["costs", "--config", str(p), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        assert "is not valid JSON" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

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
            # the neuron's own noise and start cancel from every cost, and no command simulates V
            ({"neuron": {"sigma": 1.0}}, "neuron: unknown keys ['sigma']"),
            ({"neuron": {"v0": 0.0}}, "neuron: unknown keys ['v0']"),
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
            # an integer past the float range: float() and isfinite() raise OverflowError
            ({"sde": {"theta": 10**400}}, "sde.theta must be a finite number"),
            ({"model": {"type": "single_shot", "rate": 10**400}}, "model.rate must be a finite number"),
            ({"model": {"type": "compound_poisson", "rate": 2.0, "jump": dict(EXP, rate=10**400)}},
             "model.jump.rate must be a finite number"),
            ({"neuron": {"M": 10**400}}, "neuron.M must be a finite number"),
            # a count no array could hold: numpy's shape check would raise ValueError
            ({"mc": dict(MC, n_paths=10**400)}, "mc.n_paths: unreasonably many paths"),
            # no first-passage node lies at or before the cap
            ({"neuron": {"horizon_cap": 0.005}}, "horizon_cap = 0.005 is below one step dt = 0.01"),
            # a law, a model or a field that its class or the section refuses
            ({"model": {"type": "compound_poisson", "rate": 2.0, "jump": 3}},
             "model.jump: expected a tagged distribution object"),
            ({"model": {"type": "ou"}}, "model 'ou' is missing fields ['rate']"),
            ({"model": {"type": "deterministic", "values": 3}}, "model.values must be a list of numbers"),
            ({"model": {"type": "deterministic"}}, "needs 'values' or 'constant'"),
            ({"sde": {"theta": 1.5, "sigma": -1.0}}, "sde.sigma must be nonnegative"),
            ({"mc": dict(MC, n_paths=0)}, "mc.n_paths must be >= 1"),
            ({"mc": dict(MC, seed=-1)}, "mc.seed must be nonnegative"),
            ({"model": {"type": "shot_noise", "count": EXP}},
             "count must be a PoissonCount or FixedCount distribution"),
            ({"model": {"type": "shot_noise", "arrival": {"type": "poisson_count", "mean": 2.0}}},
             "arrival must be a distribution over positive reals"),
            ({"model": {"type": "shot_noise", "arrival": {"type": "uniform", "lo": -1.0, "hi": 1.0}}},
             "arrival must be a distribution over positive reals"),
            ({"model": {"type": "shot_noise", "count": {"type": "poisson_count", "mean": 0.0}}},
             "poisson count mean must be positive"),
            ({"model": {"type": "shot_noise", "response_rate": 0.0}}, "response_rate must be positive"),
            ({"model": {"type": "brownian", "trend": -1.0}}, "trend must be nonnegative"),
            ({"neuron": {"theta_i": 0.0}}, "theta_i must be positive"),
        ],
        ids=["model_key", "poisson_jump", "distribution_key", "arrival_key", "top_level_key", "sde_key",
             "grid_key", "mc_key", "output_key", "costs_key", "neuron_sigma", "neuron_v0", "fractional_paths", "float_paths",
             "string_paths", "bool_seed", "fractional_seed", "null_seed", "string_model_rate",
             "string_jump_rate", "bool_model_rate", "bool_neuron_inputs", "bool_fixed_count", "numeric_directory", "string_theta", "bool_theta", "string_dt",
             "nan_sigma", "huge_theta", "huge_model_rate", "huge_jump_rate", "huge_neuron_inputs",
             "huge_paths",
             "cap_below_one_step", "untagged_jump", "missing_model_field",
             "values_not_a_list", "deterministic_without_values", "negative_sigma", "zero_paths",
             "negative_seed", "exponential_count", "count_law_arrival", "negative_arrival",
             "zero_poisson_count", "zero_response_rate", "negative_trend", "zero_theta_i"],
    )
    def test_bad_config_is_a_config_error(self, tmp_path, capsys, section, message):
        p = write_config(tmp_path, **section)
        assert main(["costs", "--config", str(p)]) == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_zero_threads_is_a_config_error(self, tmp_path, capsys):
        p = write_config(tmp_path)
        assert main(["costs", "--config", str(p), "--threads", "0"]) == EXIT_CONFIG
        assert "--threads must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["approx", "costs"])
    @pytest.mark.parametrize(
        "model",
        [
            # the fixed count's kappa_2 cancels in a sum of nearly equal terms: m2 < m1^2 after rounding
            {"type": "shot_noise", "count": {"type": "fixed", "value": 10},
             "amplitude": {"type": "point_mass", "value": 1.0}, "arrival": {"type": "exponential", "rate": 3e5}},
        ],
        ids=["fixed_count_shot_noise"],
    )
    def test_invalid_exact_moments_are_a_numerical_failure(self, tmp_path, capsys, command, model):
        p = write_config(tmp_path, model=model)
        assert main([command, "--config", str(p)]) == EXIT_NUMERICAL
        assert "numerical failure" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_too_many_paths_on_the_command_line_is_a_config_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(costs_mod, "run_table", lambda *args: pytest.fail("the costs were computed"))
        p = write_config(tmp_path)
        assert main(["costs", "--config", str(p), "--paths", str(10**9 + 1)]) == EXIT_CONFIG
        assert "unreasonably many paths (more than 1e9)" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
        assert main(["approx", "--config", str(p), "--paths", str(10**9)]) == 0

    def test_too_many_threads_is_a_config_error(self, tmp_path, capsys):
        # approx starts no thread, so neither count below is ever run
        p = write_config(tmp_path)
        limit = cli._MAX_THREADS
        assert main(["approx", "--config", str(p), "--threads", str(limit + 1)]) == EXIT_CONFIG
        assert f"unreasonably many threads (more than {limit})" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
        assert main(["approx", "--config", str(p), "--threads", str(limit)]) == EXIT_OK

    def test_threads_default_is_one(self):
        for command in ("simulate", "approx", "bound", "costs", "table1", "table2", "neuron"):
            assert build_parser().parse_args([command]).threads == 1

    def test_defaults_are_the_table1_protocol(self):
        cfg, params = cli.ExperimentConfig(), costs_mod.TABLE1_PARAMS
        for key in ("theta", "sigma", "x0", "T", "dt"):
            assert getattr(cfg, key) == params[key], key
        assert cfg.model_spec == {"type": "single_shot", "rate": params["rate"]}

    def test_output_directory_through_a_file_exits_before_any_work(self, tmp_path, capsys, monkeypatch):
        blocker = tmp_path / "not_a_dir"
        blocker.write_text("kept")
        monkeypatch.setattr(costs_mod, "run_table1", lambda *args: pytest.fail("table1 was computed"))
        assert main(["table1", "--out", str(blocker)]) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err
        p = write_config(tmp_path)
        assert main(["approx", "--config", str(p), "--out", str(blocker / "sub")]) == EXIT_CONFIG
        assert "is not a directory" in capsys.readouterr().err
        assert blocker.read_text() == "kept"

    def test_empty_output_directory_exits_before_any_work(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(costs_mod, "run_table1", lambda *args: pytest.fail("table1 was computed"))
        assert main(["table1", "--out", ""]) == EXIT_CONFIG
        assert "output.directory must not be empty" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    def test_output_directory_that_cannot_be_made_is_a_config_error(self, tmp_path, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise PermissionError("permission denied")

        monkeypatch.setattr(os, "makedirs", refuse)
        assert main(["approx", "--config", str(write_config(tmp_path))]) == EXIT_CONFIG
        assert "cannot make output.directory" in capsys.readouterr().err


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
        # bound.csv's d2 is d2_closed, exact up to rounding at any dt
        p = write_config(tmp_path, model={"type": "brownian", "trend": 2.0}, mc={"n_paths": 50, "seed": 2})
        assert main(["bound", "--config", str(p)]) == EXIT_OK
        _, data = read_csv(tmp_path / "out" / "bound.csv")
        th = 1.5
        t = data[:, 0]
        exact = t / (2 * th) + np.expm1(-2 * th * t) / (4 * th**2)
        for k in np.linspace(0, len(t) - 1, 10).astype(int):
            assert data[k, 3] == pytest.approx(exact[k], rel=1e-12)

    @pytest.mark.parametrize("model, closed", [
        ({"type": "poisson", "rate": 2.0}, True),
        ({"type": "shot_noise", "arrival": {"type": "gamma", "rate": 0.7, "shape": 0.5}}, False),
    ], ids=["poisson", "gamma_arrival"])
    def test_d2_is_the_closed_form_bit_for_bit(self, tmp_path, model, closed):
        p = write_config(tmp_path, model=model, mc={"n_paths": 20, "seed": 1})
        assert main(["bound", "--config", str(p)]) == EXIT_OK
        _, data = read_csv(tmp_path / "out" / "bound.csv")
        cfg = cli.load_config(str(p), build_parser().parse_args(["bound"]))
        bound = bounds_mod.d2_closed(cfg.model, cfg.theta, cfg.grid())
        assert np.array_equal(data[:, 3], bound.d2.values)
        summary = json.loads((tmp_path / "out" / "bound_summary.json").read_text())
        assert summary["closed_form"] is bound.closed_form is closed
        assert summary["d2_l1_mass"] == bound.l1_mass


class TestDeterministicValues:
    """A deterministic drift given as a list of node values, one per node of T = 1, dt = 0.01."""

    VALUES = [float(v) for v in np.sin(3.0 * np.arange(101) * 0.01) + 0.25]

    def test_approx_bound_and_costs_run(self, tmp_path):
        p = write_config(tmp_path, model={"type": "deterministic", "values": self.VALUES})
        for command in ("approx", "bound", "costs"):
            assert main([command, "--config", str(p)]) == EXIT_OK, command
        out = tmp_path / "out"
        head, p2 = read_csv(out / "approx_p2.csv")
        _, p4 = read_csv(out / "approx_p4.csv")
        assert head == ["t", "F", "f"]
        assert p2[:, 2].tolist() == self.VALUES
        assert np.array_equal(p2[:, 1], p4[:, 1])
        head, bound = read_csv(out / "bound.csv")
        assert head == ["t", "mse", "se", "d2"]
        assert np.all(bound[:, 1:] == 0)

    def test_a_mean_whose_square_overflows_fits(self, tmp_path):
        # F4 reads only the central moments, so a mean of order 1e200 (m1^2 = inf) fits: F4 = F2
        p = write_config(tmp_path, model={"type": "deterministic", "constant": 1e200})
        for command in ("approx", "costs", "simulate", "bound"):
            assert main([command, "--config", str(p)]) == EXIT_OK, command
        out = tmp_path / "out"
        _, p2 = read_csv(out / "approx_p2.csv")
        _, p4 = read_csv(out / "approx_p4.csv")
        assert p2[-1, 1] > 1e199 and np.array_equal(p2[:, 1], p4[:, 1])
        assert (out / "F2.csv").read_bytes() == (out / "F4.csv").read_bytes()
        with open(out / "costs.csv", newline="") as fh:
            (row,) = list(csv.reader(fh))[1:]
        assert row[0] == "deterministic" and all(float(v) == 0 for v in row[1:])

    @pytest.mark.parametrize("values", [VALUES[:-1], VALUES[:50] + ["0.5"] + VALUES[51:]],
                             ids=["one_short", "string_entry"])
    def test_bad_values_exit_2(self, tmp_path, capsys, values):
        p = write_config(tmp_path, model={"type": "deterministic", "values": values})
        for command in ("approx", "bound", "costs"):
            assert main([command, "--config", str(p)]) == EXIT_CONFIG, command
        assert "model" in capsys.readouterr().err


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

    @pytest.mark.parametrize("scenario", [["gamma"], {"type": "gamma"}], ids=["list", "object"])
    def test_scenario_that_is_not_a_name_is_a_config_error(self, tmp_path, capsys, scenario):
        p = write_config(tmp_path, neuron={"scenario": scenario})
        assert main(["approx", "--config", str(p)]) == EXIT_CONFIG
        assert "neuron.scenario must be one of" in capsys.readouterr().err

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


class TestDispatch:
    def test_neuron_section_is_parsed_once(self, tmp_path, monkeypatch):
        calls = []
        table2_models = neuro_mod.table2_models
        monkeypatch.setattr(neuro_mod, "table2_models", lambda params: calls.append(params) or table2_models(params))
        p = write_config(tmp_path, neuron={"scenario": "exponential", "T": 2.0})
        assert main(["neuron", "--config", str(p)]) == EXIT_OK
        assert len(calls) == 1

    def test_command_is_looked_up_when_called(self, tmp_path, monkeypatch):
        # a tracer rebinds cli.cmd_* after import: main must run the rebound function
        seen = []
        monkeypatch.setattr(cli, "cmd_approx", seen.append)
        assert main(["approx", "--config", str(write_config(tmp_path))]) == EXIT_OK
        assert [type(cfg) for cfg in seen] == [cli.ExperimentConfig]
        assert not (tmp_path / "out").exists()


class TestParser:
    COMMANDS = ("simulate", "approx", "bound", "costs", "table1", "table2", "neuron")

    def test_every_command_is_a_cmd_function(self):
        functions = {name.removeprefix("cmd_") for name in vars(cli) if name.startswith("cmd_")}
        assert set(cli._COMMANDS) == functions == set(self.COMMANDS)

    @pytest.mark.parametrize("command", [c for c in COMMANDS if c != "simulate"])
    def test_display_paths_is_an_option_of_simulate_alone(self, tmp_path, capsys, command):
        with pytest.raises(SystemExit) as exit_:
            main([command, "--display-paths", "2", "--out", str(tmp_path / "out")])
        assert exit_.value.code == EXIT_CONFIG
        assert "--display-paths" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["simulate", "costs"])
    def test_options_before_the_command_parse_as_after_it(self, command):
        options = ["--config", "c.json", "--seed", "3", "--paths", "5", "--out", "o", "--threads", "2",
                   "--format", "csv"] + (["--display-paths", "4"] if command == "simulate" else [])
        after = build_parser().parse_args([command, *options])
        assert build_parser().parse_args([*options, command]) == after
        assert after.command == command and after.seed == 3 and after.paths == 5

    def test_help_names_every_command(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["--help"])
        assert exit_.value.code == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        for command in self.COMMANDS:
            assert any(line.startswith(f"  {command} ") for line in lines), command


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
        if (command, fmt) in (("approx", "json"), ("simulate", "json")):
            # their results are CSV files alone: refused before any work, no directory made
            assert main([command, "--config", str(p)]) == EXIT_CONFIG
            assert not out.exists()
            return
        assert main([command, "--config", str(p)]) == EXIT_OK
        assert sorted(os.listdir(out)) == sorted(self.FILES[command][fmt])

    def test_format_flag_overrides_the_config(self, tmp_path):
        out = tmp_path / "out"
        p = write_config(tmp_path, output={"directory": str(out), "formats": ["csv"]})
        assert main(["costs", "--config", str(p), "--format", "json"]) == EXIT_OK
        assert os.listdir(out) == ["costs.json"]


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
