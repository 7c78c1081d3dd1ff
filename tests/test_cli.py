"""Command-line interface: subcommands, exit codes, file outputs."""

import argparse
import re
import zipfile
from pathlib import Path

import pytest

from qfclab.channels import ConditioningError, control_unitary
from qfclab.harness import cli
from qfclab.harness.cli import (
    EXIT_CONFIG,
    EXIT_MISSING_CHECKPOINT,
    EXIT_OK,
    EXIT_RUNTIME,
    main,
)
from qfclab.harness.report import parse_csv
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

    def test_negative_timesteps_is_config_error(self, tmp_path, capsys):
        ckpt = tmp_path / "mbs.ckpt"
        code = main([
            "train", "--scenario", "mbs", "--timesteps", "-5", "--out", str(ckpt),
        ])
        assert code == EXIT_CONFIG
        assert "total_timesteps" in capsys.readouterr().err
        assert not ckpt.exists()

    def test_epsilon_out_of_range_is_config_error(self, tmp_path, capsys):
        ckpt = tmp_path / "mbs.ckpt"
        code = main([
            "train", "--scenario", "mbs", "--epsilon", "0.5", "--timesteps", "0",
            "--out", str(ckpt),
        ])
        assert code == EXIT_CONFIG
        assert "epsilon" in capsys.readouterr().err
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
