import os
import re
from dataclasses import fields, replace

import numpy as np
import pytest

import elapsednet
from elapsednet import cli
from elapsednet.cli import main
from elapsednet.config import (
    ConfigError,
    ExperimentConfig,
    build_experiment,
    parse_config,
    serialize_config,
    with_overrides,
)
from elapsednet.fixedpoint import PicardError
from elapsednet.models import ModelError
from elapsednet.output import fmt
from elapsednet.presets import PRESETS, get_preset, list_presets
from elapsednet.renewal import PicardOptions
from elapsednet.stationary import StationaryProblem


class TestParseConfig:
    def test_empty_gives_documented_defaults(self):
        cfg = parse_config("")
        assert cfg.nx == 64 and cfg.ns == 800 and cfg.s_max == 20.0
        assert cfg.dt is None
        assert cfg.resolved_dt() == pytest.approx((20.0 / 800) / 2)

    def test_round_trip_identity(self):
        for preset in list_presets():
            assert parse_config(serialize_config(preset.config)) == preset.config
        custom = with_overrides(parse_config(""), gamma=3.5, input="sin_squared",
                                picard="iterate", epsilon=0.5)
        assert parse_config(serialize_config(custom)) == custom

    def test_comments_and_blank_lines(self):
        cfg = parse_config("# a comment\n\ngamma = 2.0  # trailing\n")
        assert cfg.gamma == 2.0

    def test_unknown_key_reports_line(self):
        with pytest.raises(ConfigError) as err:
            parse_config("gamma = 1.0\nnot_a_key = 3\n")
        assert err.value.line == 2
        assert err.value.key == "not_a_key"

    @pytest.mark.parametrize("key, value", [("system", "limit"), ("cfl_guard", "false"),
                                            ("picard_damping", "0.5")])
    def test_removed_keys_are_unknown(self, key, value, tmp_path, capsys):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(f"{key} = {value}\n")
        assert run_cli("run", "--config", str(cfg_path), "--out", str(tmp_path / "out")) == 2
        assert f"key {key!r}: unknown key" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_bad_value_reports_line_and_key(self):
        with pytest.raises(ConfigError) as err:
            parse_config("ns = lots\n")
        assert err.value.line == 1 and err.value.key == "ns"

    @pytest.mark.parametrize("text, key", [
        ("t_end = nan\n", "t_end"),
        ("nx = 8\ngamma = inf\n", "gamma"),
        ("epsilon_list = 0.4, -inf\n", "epsilon_list"),
    ], ids=["nan", "inf", "tuple"])
    def test_non_finite_float_reports_line_and_key(self, text, key):
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert err.value.key == key and err.value.line == text.count("\n")
        assert "finite" in str(err.value)

    def test_cfl_violation_names_values(self):
        with pytest.raises(ConfigError) as err:
            parse_config("dt = 0.25\n")  # ds = 0.025 with the default grid
        msg = str(err.value)
        assert "0.25" in msg and "0.025" in msg

    def test_missing_required_table(self):
        with pytest.raises(ConfigError) as err:
            parse_config("input = table\n")
        assert err.value.key == "input_table"

    def test_duplicate_key(self):
        with pytest.raises(ConfigError):
            parse_config("gamma = 1\ngamma = 2\n")

    def test_bad_choice(self):
        with pytest.raises(ConfigError):
            parse_config("rule = oja\n")

    def test_scaled_input_is_refused(self, tmp_path, capsys):
        # 'scaled' was 'constant' with input_scale; the kind is gone
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text("input = scaled\ninput_scale = 5.0\n")
        assert run_cli("run", "--config", str(cfg_path), "--out", str(tmp_path / "out")) == 2
        assert "key 'input'" in capsys.readouterr().err

    def test_dt_auto_scales_with_epsilon(self):
        cfg = parse_config("epsilon = 0.1\n")
        assert cfg.resolved_dt() == pytest.approx(0.1 * 0.025 / 2)


class TestPresets:
    def test_twelve_presets(self):
        assert len(PRESETS) == 12
        full = {n for n in PRESETS if not n.startswith("L")}
        assert full == {"g1i1c", "g15i1c", "g35i5c", "g1i1v", "g10i1v", "g20i5v"}
        assert {n for n in PRESETS if n.startswith("L")} == {"L" + n for n in full}

    def test_preset_round_trip(self):
        preset = get_preset("g1i1c")
        assert parse_config(serialize_config(preset.config)) == preset.config

    def test_preset_contents(self):
        c = get_preset("g1i1c").config
        assert c.rule == "hebbian" and c.gamma == 1.0
        assert c.input == "constant" and c.input_amplitude == 1.0
        v = get_preset("g20i5v").config
        assert v.rule == "gaussian_sigmoid" and v.gamma == 20.0
        assert v.input == "sin_squared" and v.input_amplitude == 5.0
        assert v.t_end == 75.0
        # an L preset is its base's parameter set; only Lg20i5v stops earlier
        for name in ("g1i1c", "g20i5v"):
            twin, base = get_preset("L" + name).config, get_preset(name).config
            assert replace(base, preset="L" + name, t_end=twin.t_end) == twin
        assert get_preset("Lg1i1c").config.t_end == 25.0
        assert get_preset("Lg20i5v").config.t_end == 25.0

    def test_unknown_preset(self):
        with pytest.raises(KeyError):
            get_preset("g2i2c")

    def test_presets_build(self):
        for preset in list_presets():
            exp = build_experiment(preset.config)
            assert exp.n0.values.min() >= 0.0
            assert exp.w0.values.min() >= 0.0
            # initial mass profile matches the analytic g exactly
            if preset.config.density == "homogeneous":
                np.testing.assert_allclose(exp.g, 1.0, atol=1e-13)
            else:
                assert abs(exp.space.integrate(exp.g) - 1.0) < 1e-4

    def test_age_domain_must_cover_thresholds(self):
        cfg = with_overrides(get_preset("g35i5c").config)
        with pytest.raises(ConfigError):
            build_experiment(with_overrides(cfg, s_max=20.0, ns=800))


def run_cli(*argv):
    return main(list(argv))


# each command's own CSV; a command without one (doeblin) is checked by its MANIFEST alone
COMMAND_CSVS = {"run": "N.csv", "limit": "N.csv", "stationary": "stationary.csv",
                "epsilon-study": "epsilon_distances.csv",
                "large-input": "large_input_distances.csv"}


class TestCLI:
    def test_presets_lists_twelve(self, capsys):
        assert run_cli("presets") == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 12

    def test_version(self, capsys):
        assert run_cli("version") == 0
        assert "elapsednet" in capsys.readouterr().out

    def test_run_writes_outputs_and_manifest(self, tmp_path):
        out = tmp_path / "run"
        assert run_cli("run", "--preset", "g1i1c", "--t-end", "0.5",
                       "--out", str(out)) == 0
        manifest = (out / "MANIFEST").read_text()
        assert "status = complete" in manifest
        listed = [line.split("= ", 1)[1] for line in manifest.splitlines()
                  if line.startswith("file = ")]
        for name in listed:
            assert (out / name).exists(), name
        on_disk = {p.name for p in out.iterdir()} - {"MANIFEST"}
        assert on_disk == set(listed)

    def test_csv_floats_round_trip(self, tmp_path):
        out = tmp_path / "run"
        run_cli("run", "--preset", "g1i1c", "--t-end", "0.25", "--out", str(out))
        lines = (out / "N.csv").read_text().splitlines()
        header = lines[0].split(",")
        assert header[0] == "t" and len(header) == 65
        row = [float(v) for v in lines[-1].split(",")]
        assert row[0] == 0.25
        # 17 significant digits re-parse to the identical double
        refmt = f"{row[1]:.17g}"
        assert lines[-1].split(",")[1] == refmt

    def test_deterministic_outputs(self, tmp_path):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            assert run_cli("run", "--preset", "g1i1v", "--t-end", "0.5",
                           "--out", str(out)) == 0
            outs.append(out)
        names = sorted(p.name for p in outs[0].iterdir())
        assert names == sorted(p.name for p in outs[1].iterdir())
        for name in names:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name

    def test_stationary_subcommand(self, tmp_path):
        out = tmp_path / "st"
        assert run_cli("stationary", "--preset", "g1i1v", "--out", str(out)) == 0
        summary = (out / "summary.txt").read_text()
        res = [line for line in summary.splitlines() if line.startswith("residual")]
        assert float(res[0].split("=")[1]) < 1e-10
        assert (out / "stationary.csv").exists()
        assert (out / "w_star.csv").exists()

    @pytest.mark.parametrize("command", ["run", "limit", "stationary"])
    @pytest.mark.parametrize("source", ["g1i1v", "negative_input"])
    def test_one_stationary_contraction_line_from_the_stationary_problem(
            self, command, source, tmp_path):
        if source == "negative_input":
            # a kernel of 10 lifts the initial band to S > 0, where sigma rises, but a
            # stationary band stays below 0, where sigma is flat: F' = 0 there exactly
            cfg_path = tmp_path / "exp.cfg"
            cfg_path.write_text("nx = 4\nns = 400\ns_max = 20\nt_end = 0.25\ngamma = 0.1\n"
                                "input = table\ninput_table = -0.5, -0.5, -1, -1\n")
            args, cfg = ("--config", str(cfg_path)), parse_config(cfg_path.read_text())
        else:
            args = ("--preset", source, "--t-end", "0.25")
            cfg = with_overrides(get_preset(source).config, t_end=0.25)
        out = tmp_path / "out"
        assert run_cli(command, *args, "--out", str(out)) == 0
        block = (out / "summary.txt").read_text().split("[certificates]\n")[1]
        lines = re.findall(r"^stationary_contraction: lhs = (\S+) ", block, re.M)
        exp = build_experiment(cfg)
        problem = StationaryProblem(exp.space, exp.age, exp.g, exp.model, exp.rule,
                                    exp.input_model.evaluate(exp.space))
        assert lines == [fmt(problem.certificate().lhs)]
        if source == "negative_input":
            assert lines == ["0"]

    def test_doeblin_subcommand(self, tmp_path):
        out = tmp_path / "db"
        assert run_cli("doeblin", "--preset", "g1i1c", "--out", str(out)) == 0
        text = (out / "summary.txt").read_text()
        assert "alpha" in text and "minorization margin" in text

    def test_limit_subcommand(self, tmp_path):
        out = tmp_path / "lm"
        assert run_cli("limit", "--preset", "Lg1i1c", "--t-end", "5",
                       "--out", str(out)) == 0
        assert "status = complete" in (out / "MANIFEST").read_text()

    @pytest.mark.filterwarnings("ignore:absorbing-node mass")
    @pytest.mark.filterwarnings("ignore:initial density carries")
    def test_config_file_input(self, tmp_path):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text("gamma = 0.0\nkernel = zero\nns = 200\ns_max = 10.0\n"
                            "t_end = 0.5\nsave_every = 0.25\n")
        out = tmp_path / "out"
        assert run_cli("run", "--config", str(cfg_path), "--out", str(out)) == 0

    def test_config_error_exit_code(self, tmp_path):
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text("dt = 99.0\n")
        assert run_cli("run", "--config", str(cfg_path)) == 2

    def test_unknown_preset_exit_code(self):
        assert run_cli("run", "--preset", "nope") == 2

    def test_incomplete_manifest_on_failure(self, tmp_path):
        # one Picard iteration cannot reach the tolerance: the initial coupling solve
        # fails after the sink exists
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text("t_end = 0.5\npicard_max_iters = 1\npicard_tol = 1e-300\n")
        out = tmp_path / "out"
        code = run_cli("run", "--config", str(cfg_path), "--out", str(out))
        assert code == 1
        assert "status = incomplete" in (out / "MANIFEST").read_text()

    def test_limit_honours_picard_max_iters(self, tmp_path, capsys):
        # one iteration cannot solve the inner fixed point of g1i1c at t = 0
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(serialize_config(with_overrides(get_preset("g1i1c").config,
                                                            picard_max_iters=1)))
        out = tmp_path / "out"
        assert run_cli("limit", "--config", str(cfg_path), "--out", str(out)) == 1
        assert "inner stimulation fixed point stalled" in capsys.readouterr().err
        assert "status = incomplete" in (out / "MANIFEST").read_text()

    @pytest.mark.parametrize("command", ["run", "limit"])
    def test_off_grid_t_end_is_refused(self, command, tmp_path, capsys):
        # dt = 0.0125 on g1i1c; the refusal names t_end before any output exists
        out = tmp_path / "out"
        code = run_cli(command, "--preset", "g1i1c", "--t-end", "0.3333", "--out", str(out))
        err = capsys.readouterr().err
        assert code == 2 and "key 't_end'" in err and "not a multiple of dt" in err
        assert not out.exists()

    def test_single_epsilon_order_is_not_fitted(self, tmp_path):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text("nx = 4\nns = 200\ns_max = 20\nkernel_amplitude = 2\n"
                            "t_end = 0.25\nepsilon_list = 0.25\n")
        out = tmp_path / "out"
        assert run_cli("epsilon-study", "--config", str(cfg_path), "--out", str(out)) == 0
        assert "fitted order in epsilon = not fitted\n" in (out / "summary.txt").read_text()

    def test_nan_run_is_incomplete(self, tmp_path, monkeypatch):
        # a NaN in a config file is refused by the parser and a NaN gain by
        # LearningRule, so the NaN is put into the built experiment's initial
        # kernel; the initial coupling solve then cannot converge, and the run
        # must not report success
        build = cli.build_experiment

        def build_with_nan_kernel(cfg):
            exp = build(cfg)
            exp.w0.values[0, 0] = float("nan")
            return exp

        monkeypatch.setattr(cli, "build_experiment", build_with_nan_kernel)
        out = tmp_path / "out"
        code = run_cli("run", "--preset", "g1i1c", "--t-end", "0.5", "--out", str(out))
        assert code == 1
        manifest = (out / "MANIFEST").read_text()
        assert "status = incomplete" in manifest and "nan" in manifest

    @pytest.mark.parametrize("flags, text, key", [
        (("--preset", "g1i1c", "--tol", "0"), None, "picard_tol"),
        (("--preset", "g1i1c", "--tol", "-1"), None, "picard_tol"),
        ((), "input_amplitude = -1\n", "input_amplitude"),
        ((), "p_star = 2.0\n", "p_star"),
        ((), "sigma = bounded\nsigma_max = -1\n", "sigma_max"),
        ((), "p_inf = -1\n", "p_inf"),
        ((), "dt = -0.001\n", "dt"),
        ((), "input = table\ninput_table = 1, 2\n", "input_table"),
        (("--preset", "nope"), None, "preset"),
        ((), "picard_max_iters = 0\n", "picard_max_iters"),
        ((), "picard = iterate\npicard_max_iters = -3\n", "picard_max_iters"),
        (("--config", "/nonexistent.cfg"), None, "config"),
        (("--config", "."), None, "config"),
        ((), "p_inf = 0\nt_end = 0.25\nnx = 4\n", "p_inf"),
        # finite keys whose product, the input, is not finite
        ((), "nx = 1\ninput = table\ninput_table = 1e300\ninput_scale = 1e10\n", "input_scale"),
        ((), "input_amplitude = 1e300\ninput_scale = 1e10\n", "input_scale"),
        # the study lists, refused for every command
        ((), "epsilon_list = 2, 1\nt_end = 0.25\nnx = 4\n", "epsilon_list"),
        ((), "epsilon_list = 0.1, 0.2\nt_end = 0.25\nnx = 4\n", "epsilon_list"),
        ((), "large_input_k = -1, 10\nt_end = 0.25\nnx = 4\n", "large_input_k"),
        ((), "large_input_k = 10, 1\nt_end = 0.25\nnx = 4\n", "large_input_k"),
        # ds * p_inf = 3 > 2 while both dt rules hold
        ((), "ns = 10\ns_max = 20\np_inf = 1.5\ndt = 0.5\nt_end = 1\nnx = 2\n", "ns"),
    ], ids=["tol0", "tol-1", "amplitude", "p_star", "sigma_max", "p_inf", "dt", "table",
            "preset", "max_iters0", "max_iters-3",
            "missing-config", "config-directory", "p_inf0", "table-overflow",
            "amplitude-overflow", "eps-above-1", "eps-increasing", "k-negative",
            "k-decreasing", "coarse-ds"])
    def test_model_rejections_are_config_errors(self, flags, text, key, tmp_path, capsys):
        if text is not None:
            cfg_path = tmp_path / "exp.cfg"
            cfg_path.write_text(text)
            flags = ("--config", str(cfg_path))
        out = tmp_path / "out"
        code = run_cli("run", *flags, "--out", str(out))
        err = capsys.readouterr().err
        assert code == 2
        assert f"key {key!r}" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.filterwarnings("ignore:absorbing-node mass")
    @pytest.mark.filterwarnings("ignore:initial density carries")
    def test_only_a_fit_error_leaves_the_decay_rate_unfitted(self, tmp_path, monkeypatch):
        # three recorded samples are too few for a decay fit
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text("gamma = 0.0\nkernel = zero\nns = 200\ns_max = 10.0\nnx = 4\n"
                            "t_end = 0.5\nsave_every = 0.25\n")
        out = tmp_path / "out"
        assert run_cli("run", "--config", str(cfg_path), "--out", str(out)) == 0
        assert "activity decay rate = not fitted" in (out / "summary.txt").read_text()

        def broken_fit(times, distances):
            raise RuntimeError("bug")

        monkeypatch.setattr(cli, "fit_decay", broken_fit)
        with pytest.raises(RuntimeError, match="bug"):
            run_cli("run", "--config", str(cfg_path), "--out", str(tmp_path / "again"))

    @pytest.mark.parametrize("below", ["", "sub"])
    def test_uncreatable_output_directory_is_a_config_error(self, below, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory\n")
        out = blocker / below if below else blocker
        code = run_cli("run", "--preset", "g1i1c", "--t-end", "0.25", "--out", str(out))
        err = capsys.readouterr().err
        assert code == 2 and "key 'out'" in err and "Traceback" not in err
        assert sorted(tmp_path.iterdir()) == [blocker]
        assert blocker.read_text() == "not a directory\n"

    def test_solver_errors_are_the_packages_own_and_exported(self):
        for cls in cli.SOLVER_ERRORS:
            assert cls.__module__.startswith("elapsednet."), cls
            assert getattr(elapsednet, cls.__name__, None) is cls, cls

    def test_key_error_from_a_bug_is_not_a_config_error(self, monkeypatch):
        def broken_build(cfg):
            raise KeyError("bug")

        monkeypatch.setattr(cli, "build_experiment", broken_build)
        with pytest.raises(KeyError):
            run_cli("run", "--preset", "g1i1c")

    def test_runtime_error_from_a_bug_is_not_a_solver_error(self, monkeypatch, tmp_path):
        def broken_solve(*args, **kwargs):
            raise RuntimeError("bug")

        monkeypatch.setattr(cli, "nonlinear_run", broken_solve)
        with pytest.raises(RuntimeError, match="bug"):
            run_cli("run", "--preset", "g1i1c", "--out", str(tmp_path / "out"))

    @pytest.mark.filterwarnings("ignore:absorbing-node mass")
    @pytest.mark.filterwarnings("ignore:initial density carries")
    def test_report_stage_model_error_is_incomplete(self, monkeypatch, tmp_path, capsys):
        def refusing_certificates(*args, **kwargs):
            raise ModelError("survival_F undefined for a vanishing rate p_inf")

        monkeypatch.setattr(cli, "regime_certificates", refusing_certificates)
        out = tmp_path / "out"
        code = run_cli("run", "--preset", "g1i1c", "--t-end", "0.25", "--out", str(out))
        assert code == 1 and "Traceback" not in capsys.readouterr().err
        manifest = (out / "MANIFEST").read_text()
        assert "status = incomplete" in manifest and "vanishing rate" in manifest
        assert not (out / "summary.txt").exists()

    @pytest.mark.filterwarnings("ignore:absorbing-node mass")
    @pytest.mark.filterwarnings("ignore:initial density carries")
    @pytest.mark.parametrize("command, csv", [(name, COMMAND_CSVS.get(name))
                                              for name in cli.COMMANDS])
    def test_study_subcommands(self, command, csv, tmp_path):
        """Every command completes on one tiny config and lists each file it wrote."""
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text("nx = 8\nns = 200\ns_max = 10\nkernel_amplitude = 2\n"
                            "t_end = 0.25\nepsilon_list = 0.4, 0.2\nlarge_input_k = 1, 10\n")
        out = tmp_path / "out"
        assert run_cli(command, "--config", str(cfg_path), "--out", str(out)) == 0
        manifest = (out / "MANIFEST").read_text()
        assert "status = complete" in manifest
        listed = re.findall(r"^file = (.+)$", manifest, flags=re.M)
        assert sorted(listed) == sorted(p.name for p in out.iterdir() if p.name != "MANIFEST")
        assert "summary.txt" in listed and (csv is None or csv in listed)
        assert (out / "summary.txt").read_text().startswith(f"[{command}]\n")

    def test_large_input_with_an_odd_step_count_is_refused(self, tmp_path, capsys):
        # the study samples at t_end / 2, which falls between two of an odd number of steps
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text("nx = 8\nns = 200\ns_max = 10\nkernel_amplitude = 2\n"
                            "t_end = 0.075\nlarge_input_k = 1, 10\n")  # 3 steps of 0.025
        out = tmp_path / "out"
        assert run_cli("large-input", "--config", str(cfg_path), "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert "key 't_end'" in err and "odd number of steps" in err and "sample_times" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "limit", "epsilon-study", "large-input"])
    def test_t_end_below_half_a_step_is_refused(self, command, tmp_path, capsys):
        # 1e-12 rounds to 0 steps of dt = 0.0125; it is no whole number of them
        out = tmp_path / "out"
        code = run_cli(command, "--preset", "g1i1c", "--t-end", "1e-12", "--out", str(out))
        err = capsys.readouterr().err
        assert code == 2 and "key 't_end'" in err and "not a multiple of dt" in err
        assert not out.exists()

    def test_epsilon_of_too_many_steps_is_incomplete(self, tmp_path, capsys):
        # a subnormal epsilon's step divides t_end into an infinite number of steps
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text("nx = 4\nt_end = 0.5\nepsilon_list = 1e-310\n")
        out = tmp_path / "out"
        assert run_cli("epsilon-study", "--config", str(cfg_path), "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert "epsilon 1e-310" in err and "finite number of steps" in err
        assert "Traceback" not in err
        assert "status = incomplete" in (out / "MANIFEST").read_text()

    def test_epsilon_study_takes_the_picard_flags(self, monkeypatch, tmp_path):
        seen = {}

        def capture(*args, picard=None, **kwargs):
            seen["picard"] = picard
            raise PicardError("captured", 0.0)

        monkeypatch.setattr(cli, "epsilon_study", capture)
        assert run_cli("epsilon-study", "--preset", "g1i1c", "--picard", "iterate",
                       "--tol", "1e-9", "--out", str(tmp_path / "out")) == 1
        assert seen["picard"] == PicardOptions(mode="iterate", tol=1e-9)

    @pytest.mark.parametrize("picard", ["lagged", "iterate"])
    def test_unconverged_initial_coupling_is_incomplete(self, picard, tmp_path, capsys):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(f"picard = {picard}\npicard_max_iters = 1\nt_end = 0.25\n")
        out = tmp_path / "out"
        assert run_cli("run", "--config", str(cfg_path), "--out", str(out)) == 1
        assert "stalled at t = 0 " in capsys.readouterr().err
        assert "status = incomplete" in (out / "MANIFEST").read_text()

    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_flag_is_a_config_error(self, value, tmp_path, capsys):
        out = tmp_path / "out"
        code = run_cli("run", "--preset", "g1i1c", "--t-end", value, "--out", str(out))
        err = capsys.readouterr().err
        assert code == 2
        assert "key 't_end'" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", list(COMMAND_CSVS) + ["doeblin", "run --config"])
    def test_t_end_of_too_many_steps_is_refused(self, command, tmp_path, capsys):
        # 1e308 / dt overflows to inf, which has no whole number of steps
        if command == "run --config":
            cfg_path = tmp_path / "exp.cfg"
            cfg_path.write_text("t_end = 1e308\n")
            flags = ("run", "--config", str(cfg_path))
        else:
            flags = (command, "--preset", "g1i1c", "--t-end", "1e308")
        out = tmp_path / "out"
        code = run_cli(*flags, "--out", str(out))
        err = capsys.readouterr().err
        assert code == 2 and "key 't_end'" in err and "finite number of steps" in err
        assert "Traceback" not in err and not out.exists()

    @pytest.mark.parametrize("command", ["run", "limit"])
    def test_save_every_past_t_end_records_as_t_end_does(self, command, tmp_path):
        # a stride of 1e308 / dt overflows; any save_every from t_end on records the
        # rows of save_every = t_end: step 0, t_end and the snapshot times
        outs = [tmp_path / "huge", tmp_path / "t_end"]
        for every, out in zip(("1e308", "0.25"), outs):
            assert run_cli(command, "--preset", "g1i1c", "--t-end", "0.25", "--save-every",
                           every, "--out", str(out)) == 0
        files = sorted(p.name for p in outs[0].iterdir())
        assert files == sorted(p.name for p in outs[1].iterdir()) and "N.csv" in files
        for name in files:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


@pytest.mark.parametrize("overrides, key", [
    ({"t_end": float("inf")}, "t_end"),
    ({"gamma": float("nan")}, "gamma"),
    ({"theta": float("-inf")}, "theta"),
    ({"large_input_k": (1.0, float("inf"))}, "large_input_k"),
], ids=["inf", "nan", "optional", "tuple"])
def test_overrides_reject_non_finite_values(overrides, key):
    with pytest.raises(ConfigError) as err:
        with_overrides(parse_config(""), **overrides)
    assert err.value.key == key and "finite" in str(err.value)


@pytest.mark.parametrize("key", ["epsilon_list", "input_table"])
def test_empty_tuple_is_refused(key):
    with pytest.raises(ConfigError) as err:
        with_overrides(parse_config("input = table\ninput_table = 1\n"), **{key: ()})
    assert err.value.key == key


def test_readme_table_names_every_config_key():
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        section = fh.read().split("## Configuration", 1)[1].split("\n#", 1)[0]
    first_cells = [row.split("|")[1] for row in section.splitlines() if row.startswith("| `")]
    named = [key for cell in first_cells for key in re.findall(r"`(\w+)`", cell)]
    assert len(named) == len(set(named))
    assert set(named) == {f.name for f in fields(ExperimentConfig)}


@pytest.mark.parametrize("value", ["runs/a#1", " x", "x ", "none", "auto", "", "a\nb",
                                   "a\x0bb", "a\x1cb", "a\x85b", "a\u2028b", "a\x00b"])
@pytest.mark.parametrize("key", ["out", "preset"])
def test_names_that_do_not_read_back_are_refused(key, value):
    with pytest.raises(ConfigError) as err:
        with_overrides(parse_config(""), **{key: value})
    assert err.value.key == key
