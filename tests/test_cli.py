"""Command-line interface: subcommands, exit codes, file outputs."""

from pathlib import Path

import pytest

from qfclab.channels import ConditioningError
from qfclab.harness import cli
from qfclab.harness.cli import (
    EXIT_CONFIG,
    EXIT_MISSING_CHECKPOINT,
    EXIT_OK,
    EXIT_RUNTIME,
    main,
)
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

    def test_checkpoint_missing_header_field_is_config_error(self, tmp_path, capsys):
        ckpt = tmp_path / "p.ckpt"
        save_policy(ckpt, MlpActorCritic(obs_dim=9), "mbs", {})
        ckpt.write_bytes(ckpt.read_bytes().replace(b"\nobs_dim 9\n", b"\n", 1))
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
        assert curve.read_text().splitlines()[0].startswith("update_index,timesteps")

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
            "update_index,timesteps,mean_episode_reward,policy_loss,value_loss,entropy\n"
        )

    def test_negative_timesteps_is_config_error(self, tmp_path, capsys):
        ckpt = tmp_path / "mbs.ckpt"
        code = main([
            "train", "--scenario", "mbs", "--timesteps", "-5", "--out", str(ckpt),
        ])
        assert code == EXIT_CONFIG
        assert "total_timesteps" in capsys.readouterr().err
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
