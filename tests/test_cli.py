"""Command-line interface: subcommands, exit codes, file outputs."""

import argparse
import re
import shutil
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
from qfclab.harness.evaluate import TRAIN_CURVE_COLUMNS, evaluate
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
        rows = parse_csv(curve.read_text(), dict.fromkeys(TRAIN_CURVE_COLUMNS, float))
        assert len(rows) == 2
        for row in rows:
            health = dict(zip(TRAIN_CURVE_COLUMNS, row))
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

    def test_dbs_at_epsilon_zero_is_config_error_before_training(self, tmp_path, capsys,
                                                                 no_work):
        # its filter can give a real outcome probability zero, which training cannot survive
        ckpt = tmp_path / "dbs.ckpt"
        code = main(["train", "--scenario", "dbs", "--alpha", "0.9", "--epsilon", "0",
                     "--timesteps", "512", "--out", str(ckpt)])
        assert code == EXIT_CONFIG
        assert ("cell (dbs, depolarizing, alpha=0.9, epsilon=0.0): a dbs agent cannot train "
                "at epsilon 0") in capsys.readouterr().err
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

    def test_sweep_determinism_reproduces_bytes(self, tmp_path):
        cfg = write_sweep_config(tmp_path, tmp_path / "out", tmp_path / "ck")
        assert main(["sweep", "--config", str(cfg)]) == EXIT_OK
        results = (tmp_path / "out" / "results.csv").read_bytes()
        curves = (tmp_path / "out" / "curves.csv").read_bytes()

        # full rerun with the same master seed: byte-identical
        assert main(["sweep", "--config", str(cfg)]) == EXIT_OK
        assert (tmp_path / "out" / "results.csv").read_bytes() == results
        assert (tmp_path / "out" / "curves.csv").read_bytes() == curves

    def test_every_sweep_writes_its_manifest(self, tmp_path, capsys):
        cfg = write_sweep_config(tmp_path, tmp_path / "out", tmp_path / "ck")
        manifest = tmp_path / "out" / "manifest.txt"
        assert main(["sweep", "--config", str(cfg)]) == EXIT_OK
        assert f"wrote {manifest}" in capsys.readouterr().out
        text = manifest.read_text()
        config, provenance = text.split("\n[provenance]\n")
        assert "master_seed = 3" in config
        assert re.search(r"^src_sha256 = [0-9a-f]{64}$", provenance, re.MULTILINE)

        # a re-run writes it again, unchanged; another config writes its own
        assert main(["sweep", "--config", str(cfg)]) == EXIT_OK
        assert manifest.read_text() == text
        cfg.write_text(cfg.read_text().replace("master_seed = 3", "master_seed = 4"))
        assert main(["sweep", "--config", str(cfg)]) == EXIT_OK
        assert manifest.read_text() == text.replace("master_seed = 3", "master_seed = 4")

    def test_a_killed_sweep_is_finished_by_a_rerun(self, tmp_path, capfd):
        cfg = write_sweep_config(tmp_path, tmp_path / "out", tmp_path / "ck")
        text = cfg.read_text().replace("scenarios = basic", "scenarios = mbs, dbs").replace(
            "alphas = 0, 1", "alphas = 0, 0.5, 1").replace(
            "[output]", "train_on_demand = true\ntrain_timesteps = 512\n[output]")
        cfg.write_text(text)
        assert main(["sweep", "--config", str(cfg)]) == EXIT_OK
        outputs = {name: (tmp_path / "out" / name).read_bytes()
                   for name in ("results.csv", "curves.csv")}
        agents = ["dbs_depolarizing_alpha0.5_eps0.1.ckpt", "dbs_depolarizing_alpha1_eps0.1.ckpt",
                  "mbs_eps0.1.ckpt"]
        assert sorted(p.name for p in (tmp_path / "ck").iterdir()) == sorted(
            [*agents, *(f"{name}.curve.csv" for name in agents)])
        last_curve = (tmp_path / "ck" / f"{agents[1]}.curve.csv").read_bytes()
        capfd.readouterr()

        # killed while training its last agent, before any output was written
        (tmp_path / "ck" / agents[1]).unlink()
        (tmp_path / "ck" / f"{agents[1]}.curve.csv").unlink()
        shutil.rmtree(tmp_path / "out")
        assert main(["sweep", "--config", str(cfg)]) == EXIT_OK
        trained = [line for line in capfd.readouterr().err.splitlines() if ":trained " in line]
        assert len(trained) == 1
        assert "trained dbs_depolarizing_alpha1_eps0.1.ckpt: 512 timesteps" in trained[0]
        for name, content in outputs.items():
            assert (tmp_path / "out" / name).read_bytes() == content, name
        assert (tmp_path / "ck" / f"{agents[1]}.curve.csv").read_bytes() == last_curve

    def test_an_output_directory_holds_only_its_own_sweeps_charts(self, tmp_path, capsys):
        cfg = write_sweep_config(tmp_path, tmp_path / "out", tmp_path / "ck")
        text = cfg.read_text()
        cfg.write_text(text.replace("noises = depolarizing",
                                    "noises = depolarizing, amplitude_damping"))
        assert main(["sweep", "--config", str(cfg)]) == EXIT_OK
        assert len(list((tmp_path / "out").glob("*.svg"))) == 4
        cfg.write_text(text)
        assert main(["sweep", "--config", str(cfg)]) == EXIT_OK
        assert sorted(p.name for p in (tmp_path / "out").glob("*.svg")) == [
            "depolarizing_fidelity.svg", "depolarizing_steps.svg"]

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
        assert sorted(p.name for p in (tmp_path / "ck").iterdir()) == [
            "mbs_eps0.1.ckpt", "mbs_eps0.1.ckpt.curve.csv"]

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

    def test_dbs_agent_at_epsilon_zero_is_config_error_before_any_job(
        self, tmp_path, capsys, no_work
    ):
        # the mbs agent serving the dbs cell at alpha 0 trains at epsilon 0 unrefused
        cfg = write_sweep_config(tmp_path, tmp_path / "out", tmp_path / "ck")
        text = cfg.read_text().replace("scenarios = basic", "scenarios = basic, dbs").replace(
            "epsilons = 0.1", "epsilons = 0.1, 0.0").replace(
            "[output]", "train_on_demand = true\ntrain_timesteps = 512\n[output]")
        cfg.write_text(text)
        assert main(["sweep", "--config", str(cfg)]) == EXIT_CONFIG
        assert "cell (dbs, depolarizing, alpha=1.0, epsilon=0.0)" in capsys.readouterr().err
        assert not (tmp_path / "ck").exists()
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

    def test_report_thresholds_at_the_sweeps_f_star_and_copies_its_manifest(
        self, tmp_path, capsys
    ):
        cfg = write_sweep_config(tmp_path, tmp_path / "out", tmp_path / "ck")
        cfg.write_text(cfg.read_text().replace("master_seed = 3", "master_seed = 3\nf_star = 0.5"))
        assert main(["sweep", "--config", str(cfg)]) == EXIT_OK
        thresholds = (tmp_path / "out" / "thresholds.csv").read_text()
        assert thresholds.splitlines()[1] == "basic,depolarizing,0.10000000000000001,0"
        assert main([
            "report", "--results", str(tmp_path / "out"), "--out", str(tmp_path / "rep"),
        ]) == EXIT_OK
        for name in ("thresholds.csv", "manifest.txt"):
            assert (tmp_path / "rep" / name).read_bytes() == (
                tmp_path / "out" / name).read_bytes(), name

    def test_report_refuses_curves_cut_short_uniformly(self, tmp_path, capsys):
        cfg = write_sweep_config(tmp_path, tmp_path / "out", tmp_path / "ck")
        assert main(["sweep", "--config", str(cfg)]) == EXIT_OK
        curves = tmp_path / "out" / "curves.csv"
        # every cell loses its t = 6 point, so the longest curve is cut as well
        curves.write_text("".join(line for line in curves.read_text().splitlines(keepends=True)
                                  if line.split(",")[4] != "6"))
        capsys.readouterr()
        assert main([
            "report", "--results", str(tmp_path / "out"), "--out", str(tmp_path / "rep"),
        ]) == EXIT_CONFIG
        assert ("alpha=0.0, epsilon=0.1) has 10 completed episodes and 6 curve points, "
                "but needs 7") in capsys.readouterr().err
        assert not (tmp_path / "rep").exists()

    def test_results_without_a_manifest_are_config_error(self, tmp_path, capsys):
        cfg = write_sweep_config(tmp_path, tmp_path / "out", tmp_path / "ck")
        assert main(["sweep", "--config", str(cfg)]) == EXIT_OK
        (tmp_path / "out" / "manifest.txt").unlink()
        capsys.readouterr()
        assert main([
            "report", "--results", str(tmp_path / "out"), "--out", str(tmp_path / "rep"),
        ]) == EXIT_CONFIG
        assert f"no manifest.txt under {tmp_path / 'out'}" in capsys.readouterr().err
        assert not (tmp_path / "rep").exists()

    def test_a_manifest_that_does_not_parse_is_named(self, tmp_path, capsys):
        cfg = write_sweep_config(tmp_path, tmp_path / "out", tmp_path / "ck")
        assert main(["sweep", "--config", str(cfg)]) == EXIT_OK
        manifest = tmp_path / "out" / "manifest.txt"
        manifest.write_text(manifest.read_text().replace("episodes = 10", "episodes = many"))
        capsys.readouterr()
        assert main([
            "report", "--results", str(tmp_path / "out"), "--out", str(tmp_path / "rep"),
        ]) == EXIT_CONFIG
        assert (f"manifest {manifest}: line 6: bad value for 'episodes': 'many'"
                in capsys.readouterr().err)
        assert not (tmp_path / "rep").exists()

    def test_missing_results_dir_is_config_error(self, tmp_path, capsys):
        assert main([
            "report", "--results", str(tmp_path / "void"), "--out", str(tmp_path / "rep"),
        ]) == EXIT_CONFIG

    @pytest.mark.parametrize("case", ["file", "under_a_file"])
    def test_out_that_is_or_lies_under_a_file_is_config_error(self, tmp_path, capsys, case):
        cfg = write_sweep_config(tmp_path, tmp_path / "out", tmp_path / "ck")
        assert main(["sweep", "--config", str(cfg)]) == EXIT_OK
        taken = tmp_path / "taken"
        taken.write_text("kept")
        out = taken if case == "file" else taken / "rep"
        message = (f"output directory {out} is not a directory" if case == "file" else
                   f"output directory {out} lies under {taken}, which is not a directory")
        capsys.readouterr()
        assert main(["report", "--results", str(tmp_path / "out"), "--out", str(out)]) == (
            EXIT_CONFIG)
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""
        assert taken.read_text() == "kept"


@pytest.mark.parametrize("f_star", ["0", "1.5", "-1", "nan"])
def test_f_star_outside_the_sweep_range_is_config_error(capsys, f_star):
    # the range a sweep config accepts, (0, 1], holds for eval too
    argv = ["eval", "--policy", "basic", "--episodes", "5"]
    assert main(argv + ["--f-star", f_star]) == EXIT_CONFIG
    out, err = capsys.readouterr()
    assert out == ""
    assert f"f_star must lie in (0, 1], got {float(f_star)!r}" in err


@pytest.mark.parametrize("argv, message", [
    (["sweep", "--config", "f", "--resume"], "qfclab: unrecognized arguments: --resume"),
    (["eval", "--policy", "basic", "--episodes", "abc"],
     "qfclab eval: argument --episodes: invalid int value: 'abc'"),
    (["sweep"], "qfclab sweep: the following arguments are required: --config"),
    ([], "qfclab: the following arguments are required: command"),
    (["eval", "--policy", "basic", "--alpha", "x"],
     "qfclab eval: argument --alpha: invalid float value: 'x'"),
], ids=["unknown-flag", "bad-int", "missing-required", "no-command", "bad-float"])
def test_malformed_command_line_is_config_error(capsys, no_work, argv, message):
    # exit 2 is reserved for a missing checkpoint
    assert main(argv) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["sweep", "--help"])
    assert exit_info.value.code == 0
    assert "--config" in capsys.readouterr().out


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
