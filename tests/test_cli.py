"""Command-line interface: subcommands, exit codes, file outputs."""

import argparse
import re
import zipfile
from dataclasses import replace
from pathlib import Path

import pytest

from qfclab.channels import ConditioningError, control_unitary
from qfclab.controllers import basic_policy
from qfclab.dynamics import EnvConfig
from qfclab.harness import cli
from qfclab.harness import evaluate as evaluate_module
from qfclab.harness.cli import (
    EXIT_CONFIG,
    EXIT_MISSING_CHECKPOINT,
    EXIT_OK,
    EXIT_RUNTIME,
    main,
)
from qfclab.harness.evaluate import evaluate
from qfclab.harness.report import emit_report, parse_csv, read_results_dir, render_results_csv
from qfclab.qcore import DimensionError, StateValidityError
from qfclab.rl.checkpoint import load_policy, save_policy
from qfclab.rl.nets import MlpActorCritic


def write_sweep_config(path: Path, out_dir: Path, ckpt_dir: Path, **extra) -> Path:
    lines = [
        "[sweep]",
        "scenarios = basic",
        "noises = depolarizing",
        "alphas = 0, 1",
        "epsilons = 0.1",
        "episodes = 10",
        "horizon = 6",
        "master_seed = 3",
        "[checkpoints]",
        f"dir = {ckpt_dir}",
        "[output]",
        f"dir = {out_dir}",
    ]
    for key, value in extra.items():
        lines.append(f"{key} = {value}")
    cfg = path / "sweep.cfg"
    cfg.write_text("\n".join(lines) + "\n")
    return cfg


@pytest.fixture
def no_work(monkeypatch):
    """Make any training or evaluation fail the test (exit 3 instead of 1)."""
    def fail(*args, **kwargs):
        raise AssertionError("the command trained or evaluated before refusing")
    monkeypatch.setattr(evaluate_module, "train", fail)
    monkeypatch.setattr(evaluate_module, "evaluate", fail)


class TestEvalCommand:
    def test_basic_policy_prints_results_row(self, capsys):
        code = main([
            "eval", "--policy", "basic", "--noise", "depolarizing",
            "--alpha", "0", "--epsilon", "0", "--episodes", "20", "--seed", "1",
        ])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert out.splitlines()[0].startswith("scenario,noise,alpha")
        assert out.splitlines()[1].startswith("basic,depolarizing,")

    def test_prints_the_row_evaluate_returns_for_its_cell(self, capsys):
        code = main([
            "eval", "--policy", "basic", "--noise", "amplitude_damping", "--alpha", "0.3",
            "--epsilon", "0.2", "--episodes", "30", "--seed", "9", "--horizon", "7",
            "--f-star", "0.8",
        ])
        cfg = EnvConfig(noise_kind="amplitude_damping", alpha=0.3, epsilon=0.2, horizon=7)
        cells = evaluate(basic_policy(), cfg, 30, [(0.3, 9)], f_star=0.8)
        assert code == EXIT_OK
        assert capsys.readouterr().out == render_results_csv(cells)

    def test_resume_refuses_results_of_another_training_budget(self, tmp_path, capsys):
        # every row resumes, so no checkpoint is loaded: only the manifest can
        # tell that the agents behind the rows had another budget
        cfg = write_sweep_config(tmp_path, tmp_path / "out", tmp_path / "ck")
        text = cfg.read_text().replace("scenarios = basic", "scenarios = mbs")
        cfg.write_text(text.replace("[output]", "train_on_demand = true\n"
                                    "train_timesteps = 512\n[output]"))
        assert main(["sweep", "--config", str(cfg)]) == EXIT_OK
        manifest = (tmp_path / "out" / "manifest.txt").read_text()
        assert "train_timesteps = 512\n" in manifest and "src_sha256 = " in manifest
        results = (tmp_path / "out" / "results.csv").read_bytes()
        assert main(["sweep", "--config", str(cfg), "--resume"]) == EXIT_OK
        assert (tmp_path / "out" / "results.csv").read_bytes() == results
        capsys.readouterr()

        cfg.write_text(cfg.read_text().replace("train_timesteps = 512", "train_timesteps = 1024"))
        assert main(["sweep", "--config", str(cfg), "--resume"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "reads 'train_timesteps = 512', but this sweep's is 'train_timesteps = 1024'" in err
        assert (tmp_path / "out" / "results.csv").read_bytes() == results

    def test_resume_refuses_results_without_a_manifest(self, tmp_path, capsys):
        cfg = write_sweep_config(tmp_path, tmp_path / "out", tmp_path / "ck")
        assert main(["sweep", "--config", str(cfg)]) == EXIT_OK
        (tmp_path / "out" / "manifest.txt").unlink()
        assert main(["sweep", "--config", str(cfg), "--resume"]) == EXIT_CONFIG
        assert "manifest.txt is missing" in capsys.readouterr().err

    def test_missing_checkpoint_exit_code(self, tmp_path, capsys):
        code = main(["eval", "--policy", str(tmp_path / "nope.ckpt"), "--episodes", "1"])
        assert code == EXIT_MISSING_CHECKPOINT

    def test_directory_as_checkpoint_is_config_error(self, tmp_path, capsys):
        code = main(["eval", "--policy", str(tmp_path), "--episodes", "1"])
        assert code == EXIT_CONFIG
        assert str(tmp_path) in capsys.readouterr().err

    def test_bad_parameter_exit_code(self, capsys):
        code = main([
            "eval", "--policy", "basic", "--alpha", "2.0", "--episodes", "1",
        ])
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("episodes", ["0", "-3"])
    def test_episode_count_below_one_is_config_error(self, capsys, episodes):
        code = main(["eval", "--policy", "basic", "--episodes", episodes])
        captured = capsys.readouterr()
        assert code == EXIT_CONFIG
        assert "episode count" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("error",[StateValidityError, ConditioningError, DimensionError])
    def test_numerical_failure_is_a_runtime_error(self, monkeypatch, capsys, error):
        def fail(*args, **kwargs):
            raise error("state went bad mid-run")

        monkeypatch.setattr(cli, "evaluate", fail)
        code = main(["eval", "--policy", "basic", "--episodes", "1"])
        assert code == EXIT_RUNTIME
        assert error.__name__ in capsys.readouterr().err

    def test_parameter_error_mid_run_is_a_runtime_error(self, monkeypatch, capsys):
        # the cell was built; a control out of range is a failure of the running job
        monkeypatch.setattr(cli, "evaluate", lambda *args, **kwargs: control_unitary(1.5))
        code = main(["eval", "--policy", "basic", "--episodes", "1"])
        assert code == EXIT_RUNTIME
        assert "ParameterError" in capsys.readouterr().err

    def test_unknown_noise_is_config_error(self, capsys):
        code = main(["eval", "--policy", "basic", "--noise", "bogus", "--episodes", "1"])
        captured = capsys.readouterr()
        assert code == EXIT_CONFIG
        assert "bogus" in captured.err
        assert captured.out == ""

    def test_checkpoint_missing_header_field_is_config_error(self, tmp_path, capsys):
        ckpt = tmp_path / "p.ckpt"
        save_policy(ckpt, MlpActorCritic(obs_dim=9), "mbs", {})
        with zipfile.ZipFile(ckpt) as archive:
            kept = [(name, archive.read(name)) for name in archive.namelist()
                    if name != "obs_dim.npy"]
        with zipfile.ZipFile(ckpt, "w") as archive:
            for name, data in kept:
                archive.writestr(name, data)
        code = main(["eval", "--policy", str(ckpt), "--episodes", "1"])
        assert code == EXIT_CONFIG
        assert "obs_dim" in capsys.readouterr().err


class TestTrainEvalRoundTrip:
    def test_train_then_eval_checkpoint(self, tmp_path, capsys):
        ckpt = tmp_path / "mbs.ckpt"
        code = main([
            "train", "--scenario", "mbs", "--epsilon", "0.1", "--seed", "5",
            "--timesteps", "1024", "--horizon", "6", "--out", str(ckpt),
        ])
        assert code == EXIT_OK
        assert ckpt.exists()
        curve = Path(str(ckpt) + ".curve.csv")
        assert curve.exists()
        rows = parse_csv(curve.read_text(), dict.fromkeys(cli.TRAIN_CURVE_COLUMNS, float))
        assert len(rows) == 2
        for row in rows:
            health = dict(zip(cli.TRAIN_CURVE_COLUMNS, row))
            assert health["grad_norm"] > 0.0
            assert health["approx_kl"] >= 0.0
            assert 0.0 <= health["clip_fraction"] <= 1.0

        code = main([
            "eval", "--policy", str(ckpt), "--alpha", "0", "--epsilon", "0.1",
            "--episodes", "5", "--seed", "2", "--horizon", "6",
        ])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert out.splitlines()[-1].startswith("mbs,")

    def test_noise_free_agent_records_alpha_zero(self, tmp_path, capsys):
        ckpt = tmp_path / "mbs.ckpt"
        code = main([
            "train", "--scenario", "mbs", "--alpha", "0.3", "--timesteps", "0",
            "--out", str(ckpt),
        ])
        assert code == EXIT_OK
        assert load_policy(ckpt)[1]["alpha"] == "0.0"
        assert Path(str(ckpt) + ".curve.csv").read_text() == (
            "update_index,timesteps,mean_episode_reward,policy_loss,value_loss,entropy,"
            "grad_norm,approx_kl,clip_fraction\n"
        )

    @pytest.mark.parametrize("case", ["directory", "under_a_file", "curve_is_a_directory"])
    def test_unwritable_out_is_config_error_before_training(
        self, tmp_path, capsys, no_work, case
    ):
        out = tmp_path / "taken"
        if case == "under_a_file":
            out.write_text("")
            out = out / "mbs.ckpt"
            message = f"checkpoint directory {out.parent} is not a directory"
        elif case == "directory":
            out.mkdir()
            message = f"checkpoint path {out} is a directory"
        else:
            curve = tmp_path / "taken.curve.csv"
            curve.mkdir()
            message = f"curve path {curve} is a directory"
        code = main(["train", "--scenario", "mbs", "--timesteps", "512", "--out", str(out)])
        assert code == EXIT_CONFIG
        assert message in capsys.readouterr().err
        if case == "curve_is_a_directory":
            assert not out.exists()  # no checkpoint written

    def test_negative_timesteps_is_config_error(self, tmp_path, capsys):
        ckpt = tmp_path / "mbs.ckpt"
        code = main([
            "train", "--scenario", "mbs", "--timesteps", "-5", "--out", str(ckpt),
        ])
        assert code == EXIT_CONFIG
        assert "total_timesteps" in capsys.readouterr().err
        assert not ckpt.exists()

    @pytest.mark.parametrize("flag, value, message", [
        ("--epsilon", "0.5", "epsilon"), ("--alpha", "2", "alpha"),
        ("--noise", "thermal", "unknown noise kind"),
    ])
    def test_cell_parameter_out_of_range_is_config_error(self, tmp_path, capsys, flag, value,
                                                         message):
        ckpt = tmp_path / "mbs.ckpt"
        code = main([
            "train", "--scenario", "mbs", flag, value, "--timesteps", "0", "--out", str(ckpt),
        ])
        assert code == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not ckpt.exists()

    def test_budget_below_one_rollout_is_config_error(self, tmp_path, capsys):
        ckpt = tmp_path / "mbs.ckpt"
        code = main([
            "train", "--scenario", "mbs", "--timesteps", "100", "--out", str(ckpt),
        ])
        assert code == EXIT_CONFIG
        assert "total_timesteps" in capsys.readouterr().err
        assert not ckpt.exists()


class TestSweepCommand:
    def test_sweep_writes_report_files(self, tmp_path, capsys):
        cfg = write_sweep_config(tmp_path, tmp_path / "out", tmp_path / "ck")
        assert main(["sweep", "--config", str(cfg)]) == EXIT_OK
        out_dir = tmp_path / "out"
        for name in ("results.csv", "curves.csv", "thresholds.csv",
                     "depolarizing_fidelity.svg", "depolarizing_steps.svg"):
            assert (out_dir / name).exists(), name
        assert len((out_dir / "results.csv").read_text().splitlines()) == 3

    def test_sweep_determinism_and_resume_reproduce_bytes(self, tmp_path):
        cfg = write_sweep_config(tmp_path, tmp_path / "out", tmp_path / "ck")
        assert main(["sweep", "--config", str(cfg)]) == EXIT_OK
        results = (tmp_path / "out" / "results.csv").read_bytes()
        curves = (tmp_path / "out" / "curves.csv").read_bytes()

        # full rerun with the same master seed: byte-identical
        assert main(["sweep", "--config", str(cfg)]) == EXIT_OK
        assert (tmp_path / "out" / "results.csv").read_bytes() == results

        # delete one cell row and resume: the row recomputes exactly
        text = (tmp_path / "out" / "results.csv").read_text().splitlines()
        (tmp_path / "out" / "results.csv").write_text("\n".join(text[:-1]) + "\n")
        assert main(["sweep", "--config", str(cfg), "--resume"]) == EXIT_OK
        assert (tmp_path / "out" / "results.csv").read_bytes() == results
        assert (tmp_path / "out" / "curves.csv").read_bytes() == curves

    def test_resume_refuses_results_of_another_training_budget(self, tmp_path, capsys):
        # every row resumes, so no checkpoint is loaded: only the manifest can
        # tell that the agents behind the rows had another budget
        cfg = write_sweep_config(tmp_path, tmp_path / "out", tmp_path / "ck")
        text = cfg.read_text().replace("scenarios = basic", "scenarios = mbs")
        cfg.write_text(text.replace("[output]", "train_on_demand = true\n"
                                    "train_timesteps = 512\n[output]"))
        assert main(["sweep", "--config", str(cfg)]) == EXIT_OK
        manifest = (tmp_path / "out" / "manifest.txt").read_text()
        assert "train_timesteps = 512\n" in manifest and "src_sha256 = " in manifest
        results = (tmp_path / "out" / "results.csv").read_bytes()
        assert main(["sweep", "--config", str(cfg), "--resume"]) == EXIT_OK
        assert (tmp_path / "out" / "results.csv").read_bytes() == results
        capsys.readouterr()

        cfg.write_text(cfg.read_text().replace("train_timesteps = 512", "train_timesteps = 1024"))
        assert main(["sweep", "--config", str(cfg), "--resume"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "reads 'train_timesteps = 512', but this sweep's is 'train_timesteps = 1024'" in err
        assert (tmp_path / "out" / "results.csv").read_bytes() == results

    def test_resume_refuses_results_without_a_manifest(self, tmp_path, capsys):
        cfg = write_sweep_config(tmp_path, tmp_path / "out", tmp_path / "ck")
        assert main(["sweep", "--config", str(cfg)]) == EXIT_OK
        (tmp_path / "out" / "manifest.txt").unlink()
        assert main(["sweep", "--config", str(cfg), "--resume"]) == EXIT_CONFIG
        assert "manifest.txt is missing" in capsys.readouterr().err

    def test_resume_refuses_rows_whose_curves_are_missing(self, tmp_path, capsys):
        cfg = write_sweep_config(tmp_path, tmp_path / "out", tmp_path / "ck")
        assert main(["sweep", "--config", str(cfg)]) == EXIT_OK
        (tmp_path / "out" / "curves.csv").unlink()
        capsys.readouterr()
        assert main(["sweep", "--config", str(cfg), "--resume"]) == EXIT_CONFIG
        assert "has curve points 0, but this sweep's is 7" in capsys.readouterr().err
        assert not (tmp_path / "out" / "curves.csv").exists()

    def test_missing_checkpoint_exit_code(self, tmp_path, capsys):
        cfg = write_sweep_config(tmp_path, tmp_path / "out", tmp_path / "ck")
        text = cfg.read_text().replace("scenarios = basic", "scenarios = qomdp")
        cfg.write_text(text)
        assert main(["sweep", "--config", str(cfg)]) == EXIT_MISSING_CHECKPOINT

    def test_bad_config_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[sweep]\nscenarios = q_learning\n")
        assert main(["sweep", "--config", str(cfg)]) == EXIT_CONFIG

    @pytest.mark.parametrize("missing", [True, False])
    def test_unreadable_config_is_config_error(self, tmp_path, capsys, missing):
        path = tmp_path / "missing.cfg" if missing else tmp_path  # or a directory
        assert main(["sweep", "--config", str(path)]) == EXIT_CONFIG
        assert f"cannot read config file {path}" in capsys.readouterr().err

    def test_negative_training_budget_is_config_error(self, tmp_path, capsys):
        cfg = write_sweep_config(tmp_path, tmp_path / "out", tmp_path / "ck")
        text = cfg.read_text().replace("[output]", "train_timesteps = -5\n[output]")
        cfg.write_text(text)
        assert main(["sweep", "--config", str(cfg)]) == EXIT_CONFIG
        assert "train_timesteps" in capsys.readouterr().err

    def test_training_budget_below_one_rollout_is_config_error(self, tmp_path, capsys):
        cfg = write_sweep_config(tmp_path, tmp_path / "out", tmp_path / "ck")
        text = cfg.read_text().replace("[output]", "train_timesteps = 100\n[output]")
        cfg.write_text(text)
        assert main(["sweep", "--config", str(cfg)]) == EXIT_CONFIG
        assert "train_timesteps" in capsys.readouterr().err

    def test_malformed_thread_count_is_config_error(self, tmp_path, capsys, monkeypatch):
        cfg = write_sweep_config(tmp_path, tmp_path / "out", tmp_path / "ck")
        monkeypatch.setenv("QFC_THREADS", "abc")
        assert main(["sweep", "--config", str(cfg)]) == EXIT_CONFIG
        assert "QFC_THREADS" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_sweep_logs_each_trained_agent_to_stderr(self, tmp_path, capfd, monkeypatch):
        cfg = write_sweep_config(tmp_path, tmp_path / "out", tmp_path / "ck")
        text = cfg.read_text().replace("scenarios = basic", "scenarios = mbs").replace(
            "[output]", "train_on_demand = true\ntrain_timesteps = 512\n[output]"
        )
        cfg.write_text(text)
        monkeypatch.setenv("QFC_THREADS", "1")
        assert main(["sweep", "--config", str(cfg)]) == EXIT_OK
        err = capfd.readouterr().err
        assert "INFO:qfclab.harness.evaluate:trained mbs_eps0.1.ckpt: 512 timesteps" in err

    def test_stale_checkpoint_is_config_error(self, tmp_path, capsys):
        cfg = write_sweep_config(tmp_path, tmp_path / "out", tmp_path / "ck")
        text = cfg.read_text().replace("scenarios = basic", "scenarios = mbs").replace(
            "[output]", "train_on_demand = true\ntrain_timesteps = 512\n[output]"
        )
        cfg.write_text(text)
        assert main(["sweep", "--config", str(cfg)]) == EXIT_OK
        cfg.write_text(text.replace("train_timesteps = 512", "train_timesteps = 1024"))
        assert main(["sweep", "--config", str(cfg)]) == EXIT_CONFIG
        assert "mbs_eps0.1.ckpt records meta timesteps '512'" in capsys.readouterr().err

    def test_corrupt_checkpoint_fails_before_any_training(self, tmp_path, capsys):
        cfg = write_sweep_config(tmp_path, tmp_path / "out", tmp_path / "ck")
        text = cfg.read_text().replace("scenarios = basic", "scenarios = mbs").replace(
            "[output]", "train_on_demand = true\ntrain_timesteps = 512\n[output]"
        )
        cfg.write_text(text)
        assert main(["sweep", "--config", str(cfg)]) == EXIT_OK
        # one flipped bit in the first weight of the agent now on disk, stored
        # in the array's own memory order
        ckpt = tmp_path / "ck" / "mbs_eps0.1.ckpt"
        raw = bytearray(ckpt.read_bytes())
        offset = raw.find(load_policy(ckpt)[0].params["pi.w0"].tobytes(order="A"))
        assert offset > 0
        raw[offset] ^= 0x01
        ckpt.write_bytes(bytes(raw))
        # a re-run that also needs one more agent
        cfg.write_text(text.replace("epsilons = 0.1", "epsilons = 0.1, 0.2"))
        assert main(["sweep", "--config", str(cfg)]) == EXIT_CONFIG
        assert "mbs_eps0.1.ckpt: BadZipFile: Bad CRC-32" in capsys.readouterr().err
        assert sorted(p.name for p in (tmp_path / "ck").iterdir()) == ["mbs_eps0.1.ckpt"]

    def test_output_file_as_directory_is_config_error_before_evaluating(
        self, tmp_path, capsys, no_work
    ):
        out = tmp_path / "out"
        out.write_text("")
        cfg = write_sweep_config(tmp_path, out, tmp_path / "ck")
        assert main(["sweep", "--config", str(cfg)]) == EXIT_CONFIG
        assert f"output directory {out} is not a directory" in capsys.readouterr().err

    def test_checkpoint_file_as_directory_is_config_error_before_training(
        self, tmp_path, capsys, no_work
    ):
        ckpt_dir = tmp_path / "ck"
        ckpt_dir.write_text("")
        cfg = write_sweep_config(tmp_path, tmp_path / "out", ckpt_dir)
        text = cfg.read_text().replace("scenarios = basic", "scenarios = basic, mbs").replace(
            "[output]", "train_on_demand = true\ntrain_timesteps = 512\n[output]"
        )
        cfg.write_text(text)
        assert main(["sweep", "--config", str(cfg)]) == EXIT_CONFIG
        assert f"checkpoint directory {ckpt_dir} is not a directory" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_repeated_grid_value_is_config_error_before_evaluating(
        self, tmp_path, capsys, no_work
    ):
        cfg = write_sweep_config(tmp_path, tmp_path / "out", tmp_path / "ck")
        cfg.write_text(cfg.read_text().replace("alphas = 0, 1", "alphas = 0.2, 0.2"))
        assert main(["sweep", "--config", str(cfg)]) == EXIT_CONFIG
        assert "alphas lists 0.2 more than once" in capsys.readouterr().err

    def test_desk_scale_flag_shrinks_grid(self, tmp_path, capsys):
        cfg = write_sweep_config(tmp_path, tmp_path / "out", tmp_path / "ck")
        # desk preset: 4 alphas x 2 epsilons x 1 noise x 1 scenario = 8 rows
        assert main(["sweep", "--config", str(cfg), "--desk-scale"]) == EXIT_OK
        rows = (tmp_path / "out" / "results.csv").read_text().splitlines()
        assert len(rows) == 9


class TestReportCommand:
    def test_report_from_results_dir(self, tmp_path, capsys):
        cfg = write_sweep_config(tmp_path, tmp_path / "out", tmp_path / "ck")
        assert main(["sweep", "--config", str(cfg)]) == EXIT_OK
        assert main([
            "report", "--results", str(tmp_path / "out"), "--out", str(tmp_path / "rep"),
        ]) == EXIT_OK
        assert (tmp_path / "rep" / "results.csv").read_bytes() == (
            tmp_path / "out" / "results.csv"
        ).read_bytes()

    @pytest.mark.parametrize("damage, message", [
        ("delete", "alpha=0.0, epsilon=0.1) has 10 completed episodes and 0 curve points, "
                   "but needs a curve"),
        ("cut", "alpha=1.0, epsilon=0.1) has 10 completed episodes and 6 curve points, "
                "but needs 7"),
    ])
    def test_report_refuses_cells_whose_curves_are_missing_or_cut(
        self, tmp_path, capsys, damage, message
    ):
        cfg = write_sweep_config(tmp_path, tmp_path / "out", tmp_path / "ck")
        assert main(["sweep", "--config", str(cfg)]) == EXIT_OK
        curves = tmp_path / "out" / "curves.csv"
        if damage == "delete":
            curves.unlink()
        else:  # the last cell loses its last point
            curves.write_text("".join(curves.read_text().splitlines(keepends=True)[:-1]))
        capsys.readouterr()
        assert main([
            "report", "--results", str(tmp_path / "out"), "--out", str(tmp_path / "rep"),
        ]) == EXIT_CONFIG
        assert f"cell (basic, depolarizing, {message}" in capsys.readouterr().err
        assert not (tmp_path / "rep").exists()

    def test_report_loads_a_cell_whose_episodes_all_aborted_without_a_curve(
        self, tmp_path, capsys
    ):
        cfg = write_sweep_config(tmp_path, tmp_path / "out", tmp_path / "ck")
        assert main(["sweep", "--config", str(cfg)]) == EXIT_OK
        out = tmp_path / "out"
        cells = read_results_dir(out)
        cells[0] = replace(cells[0], episodes=0, aborted=10, fidelity_curve=())
        emit_report(cells, {}, out)
        assert main(["report", "--results", str(out), "--out", str(tmp_path / "rep")]) == EXIT_OK
        for name in ("results.csv", "curves.csv"):
            assert (tmp_path / "rep" / name).read_bytes() == (out / name).read_bytes()

    def test_missing_results_dir_is_config_error(self, tmp_path, capsys):
        assert main([
            "report", "--results", str(tmp_path / "void"), "--out", str(tmp_path / "rep"),
        ]) == EXIT_CONFIG


@pytest.mark.parametrize("command", ["eval", "report"])
@pytest.mark.parametrize("f_star", ["0", "1.5", "-1", "nan"])
def test_f_star_outside_the_sweep_range_is_config_error(tmp_path, capsys, command, f_star):
    # the range a sweep config accepts, (0, 1], holds for eval and report too
    if command == "eval":
        argv = ["eval", "--policy", "basic", "--episodes", "5"]
    else:
        cfg = write_sweep_config(tmp_path, tmp_path / "out", tmp_path / "ck")
        assert main(["sweep", "--config", str(cfg)]) == EXIT_OK
        argv = ["report", "--results", str(tmp_path / "out"), "--out", str(tmp_path / "rep")]
    capsys.readouterr()
    assert main(argv + ["--f-star", f_star]) == EXIT_CONFIG
    out, err = capsys.readouterr()
    assert out == ""
    assert f"f_star must lie in (0, 1], got {float(f_star)!r}" in err
    assert not (tmp_path / "rep").exists()


def test_readme_synopsis_lists_every_option():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```")[1]
    synopses = {}  # subcommand -> its synopsis lines, continuation lines included
    for line in block.strip().splitlines():
        if line.startswith("qfclab "):
            command = line.split()[1]
        synopses[command] = synopses.get(command, "") + line
    (subcommands,) = [action for action in cli._build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction)]
    assert set(synopses) == set(subcommands.choices)
    for command, parser in subcommands.choices.items():
        for action in parser._actions:
            for option in action.option_strings:
                if option not in ("-h", "--help"):
                    assert re.search(rf"{re.escape(option)}(?![\w-])", synopses[command]), (
                        command, option)
