import json
import math

import numpy as np
import pytest

import darklind.analysis as analysis
import darklind.cli as cli
from darklind.analysis import bloch_of, dark_state_from_bloch, purity, trace_distance
from darklind.checks import CriterionResult
from darklind.effective import dark_space, embed_dark, evolve_effective, lab_generator, project_dark
from darklind.engine import StepSizeUnderflowError, integrate
from darklind.linalg import dagger
from darklind.protocols import linear_path, path_from_descriptor, spin32_protocol


def run_cli(args, monkeypatch=None, env=None):
    return cli.main(args)


def read_json(path):
    with open(path) as handle:
        return json.load(handle)


class TestValidation:
    def test_unknown_experiment_flag(self, tmp_path, capsys):
        rc = cli.main(["run", "--outdir", str(tmp_path)])
        assert rc == 1
        assert "experiment" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_bad_tolerance(self, tmp_path, capsys):
        rc = cli.main([
            "run", "spin32-purity", "--gammaT", "50", "--rtol=-1e-9",
            "--outdir", str(tmp_path),
        ])
        assert rc == 1
        assert list(tmp_path.iterdir()) == []

    def test_bad_bloch_vector(self, tmp_path):
        rc = cli.main([
            "run", "spin32-purity", "--gammaT", "50", "--n0", "2,0,0",
            "--outdir", str(tmp_path),
        ])
        assert rc == 1
        assert list(tmp_path.iterdir()) == []

    def test_bad_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "broken.json"
        cfg.write_text("{not json")
        rc = cli.main(["run", "sweep", "--config", str(cfg), "--outdir", str(tmp_path)])
        assert rc == 1

    def test_rejects_removed_kernel_tol(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "experiment": "spin32-purity",
            "tolerances": {"kernel_tol": 1e-8},
        }))
        out = tmp_path / "out"
        rc = cli.main(["run", "--config", str(cfg), "--outdir", str(out)])
        assert rc == 1
        assert "kernel_tol" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("section", ["tolerances", "initial", "protocol", "gauge"])
    def test_rejects_non_object_section(self, tmp_path, capsys, section):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"experiment": "spin32-purity", section: 5}))
        out = tmp_path / "out"
        rc = cli.main(["run", "--config", str(cfg), "--outdir", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "invalid configuration" in err and f"{section} must be an object" in err
        assert not out.exists()

    @pytest.mark.parametrize("config, key", [
        ({"gammaTT": 50}, "gammaTT"),
        ({"gauge": {"dark_phse": 0.1}}, "dark_phse"),
        ({"initial": {"bloch": [0, 0, 1], "blch": [0, 1, 0]}}, "blch"),
        ({"initial": {"density_matrix": {"re": [[1.0]], "img": [[0.0]]}}}, "img"),
        ({"protocol": {"family": "spin32", "genrators": ["sx"]}}, "genrators"),
        ({"protocol": {"family": "spin32", "path": {"m_thta": 3}}}, "m_thta"),
        ({"protocol": {"family": "custom", "genrators": ["sz"]}}, "genrators"),
        ({"protocol": {"family": "custom", "generators": ["sz"],
                       "angles": [{"family": "linear", "turns": 1}]}}, "turns"),
    ])
    def test_rejects_unknown_key(self, tmp_path, capsys, config, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"experiment": "spin32-purity", **config}))
        out = tmp_path / "out"
        rc = cli.main(["run", "--config", str(cfg), "--outdir", str(out)])
        assert rc == 1
        assert key in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("args, config, name", [
        (["spin32-purity", "--gammaT", "50"], {"tolerances": {"rtol": math.nan}}, "rtol"),
        (["spin32-purity", "--gammaT", "50"], {"tolerances": {"atol": math.inf}}, "atol"),
        (["gauge-check", "--gammaT", "40", "--gauge-phase", "nan"], {}, "dark_phase"),
        (["spin32-purity", "--gammaT", "nan"], {}, "gammaT"),
        (["spin32-purity", "--gammaT", "50,inf"], {}, "gammaT"),
    ])
    def test_rejects_non_finite_numbers(self, tmp_path, capsys, args, config, name):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))  # json writes NaN and Infinity literals
        out = tmp_path / "out"
        rc = cli.main(["run", *args, "--config", str(cfg), "--outdir", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "invalid configuration" in err and name in err and "finite" in err
        assert not out.exists()

    @pytest.mark.parametrize("config, message", [
        ({"gammaT": "77"}, "gammaT must be a number or a list of numbers"),
        ({"gammaT": True}, "gammaT must be a number or a list of numbers"),
        ({"gammaT": [[100]]}, "gammaT must be a number or a list of numbers"),
        ({"gammaT": [50, "77"]}, "gammaT must be a number or a list of numbers"),
        ({"seed": True}, "seed must be an integer"),
        ({"checkpoints": True}, "checkpoints must be a positive integer"),
        ({"tolerances": {"rtol": True}}, "tolerance rtol must be finite and positive"),
        ({"gauge": {"dark_phase": False}}, "gauge.dark_phase must be a finite number"),
    ])
    def test_rejects_strings_bools_and_nested_lists(self, tmp_path, capsys, config, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"experiment": "spin32-purity", **config}))
        out = tmp_path / "out"
        rc = cli.main(["run", "--config", str(cfg), "--outdir", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "invalid configuration" in err and message in err
        assert not out.exists()

    @pytest.mark.parametrize("experiment, gammaT, message", [
        ("spin32-purity", [20, 40], "spin32-purity takes at most 1 gammaT, got 2"),
        ("custom", [20, 40], "custom takes at most 1 gammaT, got 2"),
        ("gauge-check", [20, 40, 80], "gauge-check takes at most 2 gammaT, got 3"),
        ("sweep", [10, 10], "gammaT values must be distinct"),
        ("effective-vs-full", [10, 10], "gammaT values must be distinct"),
        ("sweep", 60, "sweep takes at least 2 gammaT, got 1"),
    ])
    def test_rejects_gammaT_list_the_experiment_cannot_use(
        self, tmp_path, capsys, monkeypatch, experiment, gammaT, message
    ):
        def never(*args, **kwargs):
            raise AssertionError("a rejected configuration started work")

        monkeypatch.setattr(cli, "build_protocol", never)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"experiment": experiment, "gammaT": gammaT}))
        out = tmp_path / "out"
        rc = cli.main(["run", "--config", str(cfg), "--outdir", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "invalid configuration" in err and message in err
        assert not out.exists()

    @pytest.mark.parametrize("protocol, message", [
        ({"path": {"m_theta": 1.7}}, "protocol.path.m_theta must be an integer"),
        ({"path": {"m_phi": True}}, "protocol.path.m_phi must be an integer"),
        ({"path": {"theta0": "0.5"}}, "protocol.path.theta0 must be a finite number"),
        ({"path": {"phi0": math.nan}}, "protocol.path.phi0 must be a finite number"),
        ({"path": {"family": "fourier", "theta_knots": [0.1, True]}},
         "protocol.path.theta_knots must be a list of finite numbers"),
        ({"path": {"family": "fourier", "phi_knots": 0.2}},
         "protocol.path.phi_knots must be a list of finite numbers"),
        ({"family": "custom", "two_j": 1.9}, "protocol.two_j must be an integer >= 1"),
        ({"family": "custom", "two_j": True}, "protocol.two_j must be an integer >= 1"),
        ({"family": "custom", "two_j": 0}, "protocol.two_j must be an integer >= 1"),
        ({"family": "custom", "generators": ["sz"], "angles": [{"m": True}]},
         "protocol.angles entry.m must be a finite number"),
        ({"family": "custom", "generators": ["sz"], "angles": [{"m": "1"}]},
         "protocol.angles entry.m must be a finite number"),
        ({"family": "custom", "generators": ["sz"], "angles": [{"a0": math.inf}]},
         "protocol.angles entry.a0 must be a finite number"),
    ])
    def test_rejects_protocol_numbers_of_the_wrong_kind(self, tmp_path, capsys, protocol, message):
        # path windings and two_j are integers, the other numbers finite; none is
        # coerced, so a run never differs from the config its report echoes
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"experiment": "spin32-purity", "protocol": protocol}))
        out = tmp_path / "out"
        rc = cli.main(["run", "--config", str(cfg), "--outdir", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "invalid configuration" in err and message in err
        assert not out.exists()

    @pytest.mark.parametrize("experiment", ["custom", "sweep", "effective-vs-full", "gauge-check"])
    def test_bloch_start_needs_a_two_dimensional_dark_space(self, tmp_path, capsys, experiment):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "experiment": experiment,
            "protocol": {"family": "custom", "two_j": 1, "generators": ["sz"],
                         "angles": [{"family": "linear", "m": 1}]},
            "gammaT": [40.0, 80.0] if experiment == "sweep" else 40.0,
            "initial": {"bloch": [0.0, 0.0, 1.0]},
        }))
        out = tmp_path / "out"
        rc = cli.main(["run", "--config", str(cfg), "--outdir", str(out)])
        assert rc == 1
        assert "two-dimensional dark space" in capsys.readouterr().err
        assert not out.exists()

    def test_rejects_non_string_output_dir(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("DARKLIND_OUTDIR", raising=False)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"experiment": "spin32-purity", "output_dir": 5}))
        rc = cli.main(["run", "--config", str(cfg)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "invalid configuration" in err and "output_dir must be a string" in err
        assert list(tmp_path.iterdir()) == [cfg]

    def test_rejects_bloch_and_density_matrix_together(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"experiment": "spin32-purity", "initial": {
            "bloch": [0.0, 0.0, 1.0],
            "density_matrix": {"re": [[1.0, 0.0], [0.0, 0.0]], "im": [[0.0, 0.0], [0.0, 0.0]]},
        }}))
        out = tmp_path / "out"
        rc = cli.main(["run", "--config", str(cfg), "--outdir", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "invalid configuration" in err and "not both" in err
        assert not out.exists()

    def test_rejects_nan_density_matrix(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"experiment": "spin32-purity", "gammaT": 50.0, "initial": {
            "density_matrix": {"re": [[0.5, float("nan")], [float("nan"), 0.5]],
                               "im": [[0.0, 0.0], [0.0, 0.0]]},
        }}))
        assert "NaN" in cfg.read_text()  # the JSON literal json.load accepts
        out = tmp_path / "out"
        rc = cli.main(["run", "--config", str(cfg), "--outdir", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "invalid configuration" in err and "NaN" in err
        assert not out.exists()

    @pytest.mark.parametrize("initial, field", [
        ({"bloch": ["0", "0", "1"]}, "initial.bloch"),
        ({"bloch": [True, False, False]}, "initial.bloch"),
        ({"density_matrix": {"re": [["1", 0], [0, 0]]}}, "initial.density_matrix.re"),
        ({"density_matrix": {"re": [[1, 0], [0, 0]], "im": [["0", 0], [0, 0]]}},
         "initial.density_matrix.im"),
    ])
    def test_rejects_initial_state_numbers_of_the_wrong_kind(
        self, tmp_path, capsys, monkeypatch, initial, field
    ):
        # strings and bools are not coerced to numbers, so a run never differs
        # from the initial state its report echoes
        def never(*args, **kwargs):
            raise AssertionError("a rejected configuration started work")

        monkeypatch.setattr(cli, "build_protocol", never)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"experiment": "spin32-purity", "initial": initial}))
        out = tmp_path / "out"
        rc = cli.main(["run", "--config", str(cfg), "--outdir", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "invalid configuration" in err and f"{field} entries must be finite numbers" in err
        assert not out.exists()

    def test_fourier_path_knots_are_known_keys(self):
        path = {"family": "fourier", "theta_knots": [0.1], "phi_knots": [0.2]}
        proto = cli.build_protocol({"protocol": {"family": "spin32", "path": path}}, 100.0)
        assert proto.descriptor["path"]["theta_knots"] == [0.1]

    def test_path_section_without_family_is_linear(self):
        cfg = {"protocol": {"family": "spin32", "path": {"m_phi": 1}}}
        proto = cli.build_protocol(cfg, 100.0)
        assert proto.descriptor["path"] == linear_path(1, 1).descriptor

    def test_low_gammaT_warns_but_runs(self, tmp_path, capsys):
        rc = cli.main([
            "run", "spin32-purity", "--gammaT", "8", "--checkpoints", "4",
            "--rtol", "1e-7", "--outdir", str(tmp_path),
        ])
        assert rc == 0
        assert "expansion unreliable" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["run", "sweep", "--gammaT", "abc"],
        ["run", "nosuch"],
        ["run", "spin32-purity", "--n0", "1,2"],
        ["run", "spin32-purity", "--seed", "1.5"],
        ["run", "spin32-purity", "--bogus"],
        ["check", "--bogus"],
        [],
    ])
    def test_usage_errors_exit_1(self, tmp_path, capsys, monkeypatch, argv):
        # a usage error is a validation failure (exit 1); 2 means a numerical failure
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("DARKLIND_OUTDIR", raising=False)
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 1
        assert "usage: darklind" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [["--help"], ["--version"], ["run", "--help"]])
    def test_help_and_version_exit_0(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 0

    @pytest.mark.parametrize("gnuplot", ["false", "true", 0, 1])
    def test_rejects_a_gnuplot_that_is_not_a_bool(self, tmp_path, capsys, gnuplot):
        # a string or a number would switch the script on by its truth value
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"experiment": "spin32-purity", "gnuplot": gnuplot}))
        out = tmp_path / "out"
        rc = cli.main(["run", "--config", str(cfg), "--outdir", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "invalid configuration" in err and "gnuplot must be true or false" in err
        assert not out.exists()

    @pytest.mark.parametrize("protocol, message", [
        ({"generators": {"sy": "anything"}, "angles": [{"m": 1}]},
         "protocol.generators must be a list of generator names"),
        ({"generators": "sy", "angles": [{"m": 1}, {"m": 1}]},
         "protocol.generators must be a list of generator names"),
        ({"generators": [["sy"]], "angles": [{"m": 1}]},
         "protocol.generators must be a list of generator names"),
        ({"generators": ["sy"], "angles": {"sy": {"m": 1}}},
         "protocol.angles must be a list of objects"),
        ({"generators": ["sy"], "angles": "m"}, "protocol.angles must be a list of objects"),
        ({"generators": ["sy"], "angles": [1]}, "protocol.angles entry must be an object"),
    ])
    def test_rejects_custom_lists_of_the_wrong_kind(
        self, tmp_path, capsys, monkeypatch, protocol, message
    ):
        def never(*args, **kwargs):
            raise AssertionError("a rejected configuration built a protocol")

        monkeypatch.setattr(cli, "custom_protocol", never)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"experiment": "custom", "gammaT": 50.0, "protocol": {
            "family": "custom", "two_j": 3, "jump": "spin32", **protocol}}))
        out = tmp_path / "out"
        rc = cli.main(["run", "--config", str(cfg), "--outdir", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "invalid configuration" in err and message in err
        assert not out.exists()


class TestTrajectoryExperiment:
    def test_artifacts_and_schema(self, tmp_path):
        out = tmp_path / "run1"
        rc = cli.main([
            "run", "spin32-purity", "--gammaT", "50", "--n0", "0,0,1",
            "--checkpoints", "8", "--rtol", "1e-8", "--outdir", str(out),
        ])
        assert rc == 0
        csv_lines = (out / "spin32_purity.csv").read_text().splitlines()
        assert csv_lines[0] == "tau,purity,trace,min_eig,nx,ny,nz,td_effective"
        assert len(csv_lines) == 10  # header + checkpoints + 1
        report = read_json(out / "spin32_purity_report.json")
        assert report["schema_version"] == 4
        assert report["gammaT"] == 50.0
        assert 0.0 < report["purity_loss_exact"] < 1.0
        assert report["csv_columns"] == csv_lines[0].split(",")
        assert len(report["csv_rows"]) == 9
        # no files outside the output directory
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run1"]

    @pytest.mark.parametrize("gammaT, in_unit_interval", [("50", True), ("20", False)])
    def test_flags_predictions_outside_unit_interval(self, tmp_path, gammaT, in_unit_interval):
        rc = cli.main([
            "run", "spin32-purity", "--gammaT", gammaT, "--n0", "0,0,1",
            "--checkpoints", "4", "--rtol", "1e-8", "--outdir", str(tmp_path),
        ])
        assert rc == 0
        report = read_json(tmp_path / "spin32_purity_report.json")
        assert report["flags"] == {"predictions_in_unit_interval": in_unit_interval}

    def test_density_matrix_start_matches_bloch_start(self, tmp_path):
        args = ["run", "spin32-purity", "--gammaT", "50", "--checkpoints", "4", "--rtol", "1e-8"]
        assert cli.main(args + ["--n0", "0,0,1", "--outdir", str(tmp_path / "bloch")]) == 0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"initial": {"density_matrix": {"re": [[1.0, 0.0], [0.0, 0.0]]}}}))
        assert cli.main(args + ["--config", str(cfg), "--outdir", str(tmp_path / "matrix")]) == 0
        reports = [read_json(tmp_path / d / "spin32_purity_report.json") for d in ("bloch", "matrix")]
        assert reports[1]["purity_loss_eq21"] == reports[0]["purity_loss_eq21"]
        assert reports[1]["csv_rows"] == reports[0]["csv_rows"]

    def test_step_stats_count_generator_calls(self, tmp_path):
        out = tmp_path / "run"
        rc = cli.main([
            "run", "spin32-purity", "--gammaT", "50", "--checkpoints", "4",
            "--rtol", "1e-8", "--outdir", str(out),
        ])
        assert rc == 0
        stats = read_json(out / "spin32_purity_report.json")["step_stats"]
        attempts = stats["accepted"] + stats["rejected"]
        assert attempts > 0
        assert stats["generator_calls"] == attempts + 1
        assert stats["rhs_evaluations"] == 12 * attempts + 1

    @pytest.mark.parametrize("path, n0", [
        ({"family": "linear", "m_theta": 1, "m_phi": 0, "theta0": 0.0, "phi0": 0.0},
         [0.0, 1.0, 0.0]),
        ({"family": "smoothstep", "m_theta": 1, "m_phi": 1, "theta0": 0.0, "phi0": 0.0},
         [0.6, 0.0, 0.8]),
    ])
    def test_columns_match_a_lab_frame_run(self, tmp_path, path, n0):
        # the rotating-frame run gives every column of a lab-frame run of the
        # same config, whose dark block is rotated back by U(tau / gammaT)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"protocol": {"family": "spin32", "path": path},
                                   "initial": {"bloch": n0}}))
        assert cli.main(["run", "spin32-purity", "--config", str(cfg), "--gammaT", "50",
                         "--checkpoints", "8", "--outdir", str(tmp_path)]) == 0
        rows = np.array(read_json(tmp_path / "spin32_purity_report.json")["csv_rows"])

        proto = spin32_protocol(path_from_descriptor(path), 50.0)
        ds = dark_space(proto.L_rot)
        rho_d = dark_state_from_bloch(n0)
        taus = np.linspace(0.0, 50.0, 9)
        traj = integrate(lab_generator(proto), embed_dark(ds, rho_d), (0.0, 50.0),
                         rtol=1e-9, atol=1e-12, checkpoints=taus)
        u = proto.U(np.clip(traj.times / 50.0, 0.0, 1.0))
        lab = []
        for tau, state, u_k, rho_eff in zip(
            traj.times, traj.states, u, evolve_effective(rho_d, proto, ds, taus)
        ):
            dd = project_dark(ds, u_k @ state @ dagger(u_k))
            lab.append((tau, purity(state), np.trace(state).real,
                        np.linalg.eigvalsh(state).min(), *bloch_of(dd), trace_distance(dd, rho_eff)))
        assert rows.shape == (9, 8)
        assert np.abs(rows - np.array(lab)).max() <= 1e-9

    def test_report_carries_the_run_margins(self, tmp_path):
        assert cli.main(["run", "spin32-purity", "--gammaT", "50", "--n0", "0,1,0",
                         "--checkpoints", "4", "--outdir", str(tmp_path)]) == 0
        report = read_json(tmp_path / "spin32_purity_report.json")
        traj = analysis.compare_effective_vs_full(
            spin32_protocol(linear_path(1, 0), 50.0), (0.0, 1.0, 0.0), n_checkpoints=4
        ).trajectory
        assert report["brute_force_frame"] == "rotating"
        assert (report["worst_hermiticity"], report["worst_trace_deviation"],
                report["least_eigenvalue"]) == (traj.worst_hermiticity,
                                                traj.worst_trace_deviation, traj.least_eigenvalue)
        assert report["step_stats"]["accepted"] == traj.step_stats.accepted

    def test_determinism(self, tmp_path):
        args = [
            "run", "spin32-purity", "--gammaT", "50", "--n0", "0,1,0",
            "--checkpoints", "6", "--rtol", "1e-8", "--seed", "42",
        ]
        assert cli.main(args + ["--outdir", str(tmp_path / "a")]) == 0
        assert cli.main(args + ["--outdir", str(tmp_path / "b")]) == 0
        csv_a = (tmp_path / "a" / "spin32_purity.csv").read_bytes()
        csv_b = (tmp_path / "b" / "spin32_purity.csv").read_bytes()
        assert csv_a == csv_b

    def test_gnuplot_emission(self, tmp_path):
        rc = cli.main([
            "run", "spin32-purity", "--gammaT", "50", "--checkpoints", "4",
            "--rtol", "1e-7", "--outdir", str(tmp_path), "--gnuplot",
        ])
        assert rc == 0
        script = (tmp_path / "spin32_purity.gnuplot").read_text()
        assert "plot" in script and "spin32_purity.csv" in script

    def test_env_var_output_dir(self, tmp_path, monkeypatch):
        target = tmp_path / "from_env"
        monkeypatch.setenv("DARKLIND_OUTDIR", str(target))
        rc = cli.main([
            "run", "spin32-purity", "--gammaT", "50", "--checkpoints", "4",
            "--rtol", "1e-7", "--outdir", str(tmp_path / "ignored"),
        ])
        assert rc == 0
        assert (target / "spin32_purity.csv").exists()
        assert not (tmp_path / "ignored").exists()


class TestSweepExperiment:
    def test_schema_and_flags(self, tmp_path):
        rc = cli.main([
            "run", "sweep", "--gammaT", "50,100", "--n0", "0,0,1",
            "--rtol", "1e-8", "--outdir", str(tmp_path),
        ])
        assert rc == 0
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert lines[0] == ("gammaT,purity_loss_exact,purity_loss_eq12,purity_loss_eq21,"
                            "purity_loss_reduced,trace_distance_final")
        assert len(lines) == 3
        report = read_json(tmp_path / "sweep_report.json")
        assert set(report["flags"]) == {
            "slope_in_window", "fit_r2_ok", "effective_order_in_window",
            "first_order_in_window", "predictions_in_unit_interval",
        }
        assert report["flags"]["predictions_in_unit_interval"] is True
        assert len(report["purity_loss_exact"]) == 2

    def test_report_names_the_brute_force_frame(self, tmp_path):
        assert cli.main(["run", "sweep", "--gammaT", "20,40", "--rtol", "1e-7",
                         "--outdir", str(tmp_path)]) == 0
        assert read_json(tmp_path / "sweep_report.json")["brute_force_frame"] == "rotating"

    def test_flags_predicted_losses_above_one(self, tmp_path):
        # at gammaT 20 both first-order predictions exceed a loss of 1
        rc = cli.main([
            "run", "sweep", "--gammaT", "20,40", "--n0", "0,0,1",
            "--rtol", "1e-8", "--outdir", str(tmp_path),
        ])
        assert rc == 0
        report = read_json(tmp_path / "sweep_report.json")
        assert report["purity_loss_eq12"][0] > 1.0
        assert report["flags"]["predictions_in_unit_interval"] is False

    def test_sweep_left_without_two_points_exits_2(self, tmp_path, monkeypatch, capsys):
        def failing(*args, **kwargs):
            raise StepSizeUnderflowError(12.5, 1e-16)

        monkeypatch.setattr(analysis, "integrate", failing)
        rc = cli.main(["run", "sweep", "--gammaT", "50,100", "--outdir", str(tmp_path)])
        assert rc == 2
        assert "numerical failure" in capsys.readouterr().err
        diagnostic = read_json(tmp_path / "sweep_diagnostic.json")
        assert diagnostic["error"] == "StepSizeUnderflowError"
        assert diagnostic["tau"] == 12.5
        assert not (tmp_path / "sweep.csv").exists()

    @pytest.mark.parametrize("config, args, expected", [
        (None, [], cli.SWEEP_GAMMATS),
        ({"experiment": "sweep"}, [], cli.SWEEP_GAMMATS),
        ({"experiment": "sweep", "gammaT": [60, 120]}, [], [60.0, 120.0]),
        (None, ["--gammaT", "70,140"], [70.0, 140.0]),
    ])
    def test_bare_sweep_passes_validation(self, tmp_path, monkeypatch, config, args, expected):
        # with no gammaT from the config or the flag a sweep runs its own
        # default list, not the single default gammaT of the other experiments
        seen = []

        def record(run):
            seen.append(list(run.gammaTs))
            return [], {}, ["gammaT"]

        monkeypatch.setitem(cli._RUNNERS, "sweep", record)
        argv = ["run", "sweep", "--outdir", str(tmp_path), *args]
        if config is not None:
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(config))
            argv = ["run", "--config", str(path), "--outdir", str(tmp_path), *args]
        assert cli.main(argv) == 0
        assert seen == [expected]
        assert read_json(tmp_path / "sweep_report.json")["config"]["gammaT"] == expected

    def test_flag_overrides_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "experiment": "sweep",
            "gammaT": [50.0, 100.0],
            "tolerances": {"rtol": 1e-8},
            "output_dir": str(tmp_path / "cfg_dir"),
        }))
        rc = cli.main([
            "run", "--config", str(cfg), "--gammaT", "60,120",
            "--outdir", str(tmp_path / "flag_dir"),
        ])
        assert rc == 0
        report = read_json(tmp_path / "flag_dir" / "sweep_report.json")
        assert report["gammaT"] == [60.0, 120.0]
        assert not (tmp_path / "cfg_dir").exists()


class TestOtherExperiments:
    def test_effective_vs_full_single(self, tmp_path):
        rc = cli.main([
            "run", "effective-vs-full", "--gammaT", "50", "--checkpoints", "5",
            "--rtol", "1e-8", "--outdir", str(tmp_path),
        ])
        assert rc == 0
        lines = (tmp_path / "effective_vs_full.csv").read_text().splitlines()
        assert lines[0] == "tau,trace_distance,purity_exact,purity_effective"
        report = read_json(tmp_path / "effective_vs_full_report.json")
        assert report["max_distance"] >= report["final_distance"] * 0.0
        assert report["max_distance"] < 0.1

    def test_effective_vs_full_sweep_uses_checkpoints(self, tmp_path, monkeypatch):
        seen = []

        def comparison(protocol, init, n_checkpoints, rtol, atol):
            seen.append(n_checkpoints)
            return analysis.EffectiveComparison((), (), 0.0, 1.0 / protocol.gammaT**2, (), ())

        monkeypatch.setattr(cli, "compare_effective_vs_full", comparison)
        rc = cli.main([
            "run", "effective-vs-full", "--gammaT", "50,100", "--checkpoints", "5",
            "--outdir", str(tmp_path),
        ])
        assert rc == 0
        assert seen == [5, 5]
        report = read_json(tmp_path / "effective_vs_full_report.json")
        assert report["distance_slope"] == pytest.approx(-2.0)

    @pytest.mark.parametrize("experiment", ["sweep", "effective-vs-full"])
    def test_two_gammaT_run_builds_one_protocol(self, tmp_path, monkeypatch, experiment):
        # the other cycle durations come from Protocol.with_gammaT
        built, build = [], cli.build_protocol

        def counting(cfg, gammaT):
            built.append(gammaT)
            return build(cfg, gammaT)

        monkeypatch.setattr(cli, "build_protocol", counting)
        rc = cli.main([
            "run", experiment, "--gammaT", "20,40", "--checkpoints", "2",
            "--rtol", "1e-7", "--outdir", str(tmp_path),
        ])
        assert rc == 0
        assert built == [20.0]

    def test_gauge_check(self, tmp_path):
        rc = cli.main([
            "run", "gauge-check", "--gammaT", "40,80", "--seed", "7",
            "--outdir", str(tmp_path),
        ])
        assert rc == 0
        report = read_json(tmp_path / "gauge_check_report.json")
        assert report["defect_ratio"] < 0.75
        assert report["flags"]["purity_gauge_invariant"] is True

    def test_custom_two_level(self, tmp_path):
        cfg = tmp_path / "custom.json"
        cfg.write_text(json.dumps({
            "experiment": "custom",
            "protocol": {
                "family": "custom",
                "two_j": 1,
                "generators": ["sz"],
                "angles": [{"family": "linear", "m": 1}],
                "jump": "lowering",
            },
            "gammaT": 40.0,
            "initial": {"density_matrix": {"re": [[1.0]], "im": [[0.0]]}},
            "checkpoints": 4,
            "tolerances": {"rtol": 1e-8},
            "output_dir": str(tmp_path),
        }))
        rc = cli.main(["run", "--config", str(cfg)])
        assert rc == 0
        report = read_json(tmp_path / "custom_report.json")
        # single dark state: nothing to dephase
        assert report["purity_loss_exact"] <= 1e-8
        assert report["dark_dimension"] == 1
        rows = np.array(report["csv_rows"], dtype=float)
        assert np.all(np.isnan(rows[:, 4]))  # no Bloch columns for d != 2


class TestNumericalFailure:
    def test_exit_two_with_diagnostic(self, tmp_path, monkeypatch):
        from darklind.engine import StepSizeUnderflowError

        def exploding(run):
            raise StepSizeUnderflowError(3.5, 1e-16)

        monkeypatch.setitem(cli._RUNNERS, "spin32-purity", exploding)
        rc = cli.main([
            "run", "spin32-purity", "--gammaT", "50", "--outdir", str(tmp_path),
        ])
        assert rc == 2
        diag = read_json(tmp_path / "spin32_purity_diagnostic.json")
        assert diag["error"] == "StepSizeUnderflowError"
        assert diag["tau"] == 3.5
        assert not (tmp_path / "spin32_purity.csv").exists()


class TestCheckCommand:
    def _fake_results(self, all_pass):
        return [
            CriterionResult(1, "alpha", "x <= 1", "x = 0.5", True, 0.01, {}),
            CriterionResult(2, "beta", "y <= 2", "y = 3", all_pass, 0.01, {"y": 3}),
        ]

    def test_exit_zero_when_all_pass(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "run_battery", lambda: self._fake_results(True))
        assert cli.main(["check"]) == 0
        out = capsys.readouterr().out
        assert "alpha" in out and "pass" in out

    def test_exit_three_on_failure_with_table(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "run_battery", lambda: self._fake_results(False))
        assert cli.main(["check"]) == 3
        assert "FAIL" in capsys.readouterr().out

    def test_json_output(self, monkeypatch, capsys, tmp_path):
        monkeypatch.setattr(cli, "run_battery", lambda: self._fake_results(True))
        target = tmp_path / "results.json"
        assert cli.main(["check", "--json", "--output", str(target)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["all_passed"] is True
        assert len(payload["criteria"]) == 2
        assert set(payload["criteria"][1]) == {
            "number", "name", "expected", "observed", "passed", "runtime_s", "detail"}
        assert payload["criteria"][1]["detail"] == {"y": 3}
        saved = read_json(target)
        assert saved["criteria"][0]["name"] == "alpha"
