"""Harness: config grammar, evaluation statistics, thresholds, report files."""

import argparse
import hashlib
import importlib
import itertools
import logging
import multiprocessing
import os
import re
import shutil
import subprocess
import sys
import tempfile
from dataclasses import astuple, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import PACKAGE
from qfclab.channels import NOISE_KINDS
from qfclab.controllers import BasicTable, basic_policy
from qfclab.dynamics import BATCH_EPISODES, EnvConfig
from qfclab.harness import cli
from qfclab.harness.config import (
    KEYS,
    TABLE_ALPHAS,
    TABLE_EPSILONS,
    ConfigError,
    SweepConfig,
    desk_scale,
    format_config,
    parse_config_file,
)
from qfclab.harness.evaluate import (
    CellResult,
    MissingCheckpointError,
    cell_seed,
    checkpoint_name,
    evaluate,
    sweep,
    threshold_alpha,
    train_checkpoint,
    worker_count,
)
from qfclab.harness.report import (
    emit_report,
    parse_results_csv,
    render_curves_csv,
    render_results_csv,
    render_thresholds_csv,
)
from qfclab.rl.checkpoint import load_policy, save_policy
from qfclab.rl.envs import LOOP_KINDS, TRAINED_KINDS, training_config
from qfclab.rl.nets import MlpActorCritic, RecurrentActorCritic
from qfclab.rl.ppo import TrainingDiverged, default_ppo_config, train
from qfclab.rngstream import RngStream, hash_label, mix64

from oracles import basic_controller_chain, table_average

# the module, which the package's ``evaluate`` function shadows as an attribute
evaluate_module = importlib.import_module("qfclab.harness.evaluate")

SCENARIOS = tuple(LOOP_KINDS)  # every scenario, in the table's order

README = Path(__file__).resolve().parent.parent / "README.md"

# text the config grammar can carry: no '#', no line break, no outer whitespace
config_text = st.text(
    st.characters(whitelist_categories=("L", "N", "P", "S", "Zs"), blacklist_characters="#"),
    max_size=12,
).filter(lambda t: t == t.strip())


sweep_configs = st.builds(
    SweepConfig,
    scenarios=st.lists(st.sampled_from(SCENARIOS), min_size=1, max_size=4,
                       unique=True).map(tuple),
    noises=st.lists(st.sampled_from(NOISE_KINDS), min_size=1, max_size=3, unique=True).map(tuple),
    alphas=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=5, unique=True).map(tuple),
    epsilons=st.lists(st.floats(0.0, 0.3), min_size=1, max_size=5, unique=True).map(tuple),
    episodes=st.integers(1, 10**9),
    horizon=st.integers(1, 10**4),
    master_seed=st.integers(-(2**63), 2**64),
    f_star=st.floats(0.0, 1.0, exclude_min=True),
    checkpoint_dir=config_text,
    train_on_demand=st.booleans(),
    train_timesteps=st.integers(512, 10**12),
    output_dir=config_text,
)


class TestSweepConfig:
    def test_table_defaults_match_published_grids(self):
        cfg = SweepConfig()
        assert len(cfg.alphas) == 11
        assert cfg.epsilons == (0.1, 0.15, 0.175, 0.2, 0.25, 0.3)
        assert cfg.episodes == 1000

    def test_desk_scale_preset(self):
        cfg = desk_scale()
        assert cfg.alphas == (0.0, 0.2, 0.4, 0.6)
        assert cfg.epsilons == (0.1, 0.2)
        assert cfg.episodes == 200

    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(cfg=sweep_configs)
    def test_config_file_round_trip(self, tmp_path, cfg):
        path = tmp_path / "sweep.cfg"
        path.write_text(format_config(cfg))
        assert parse_config_file(path) == cfg

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text(
            "# full line comment\n[sweep]\n\nscenarios = basic  # trailing\nepisodes = 5\n"
        )
        cfg = parse_config_file(path)
        assert cfg.scenarios == ("basic",)
        assert cfg.episodes == 5

    def test_empty_scenarios_rejected(self):
        with pytest.raises(ConfigError, match="scenario"):
            SweepConfig(scenarios=())

    @pytest.mark.parametrize("key, values", [
        ("scenarios", ("basic", "mbs", "basic")), ("noises", ("depolarizing",) * 2),
        ("alphas", (0.2, 0.0, 0.2)), ("epsilons", (0.1, 0.1)),
    ])
    def test_repeated_grid_value_rejected(self, key, values):
        with pytest.raises(ConfigError, match=f"{key} lists {values[0]!r} more than once"):
            SweepConfig(**{key: values})

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("[sweep]\nwarp_factor = 9\n")
        with pytest.raises(ConfigError, match="warp_factor"):
            parse_config_file(path)

    def test_bad_training_budget_names_the_key(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("[checkpoints]\ntrain_timesteps = abc\n")
        with pytest.raises(ConfigError, match="bad value for 'train_timesteps': 'abc'"):
            parse_config_file(path)

    def test_bad_boolean_names_the_key(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("[checkpoints]\ntrain_on_demand = maybe\n")
        with pytest.raises(ConfigError, match="bad value for 'train_on_demand': 'maybe'"):
            parse_config_file(path)

    @pytest.mark.parametrize("raw, value", [("TRUE", True), ("yes", True), ("0", False), ("No", False)])
    def test_boolean_spellings(self, tmp_path, raw, value):
        path = tmp_path / "c.cfg"
        path.write_text(f"[checkpoints]\ntrain_on_demand = {raw}\n")
        assert parse_config_file(path).train_on_demand is value

    def test_repeated_key_rejected(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("[sweep]\nepisodes = 5\n[output]\ndir = o\n[sweep]\nepisodes = 6\n")
        with pytest.raises(ConfigError, match=r"line 6: key 'episodes' in \[sweep\] repeats line 2"):
            parse_config_file(path)

    def test_readme_example_parses_and_names_every_key(self, tmp_path):
        section = README.read_text().split("### Sweep config grammar", 1)[1]
        example = section.split("```", 2)[1]
        path = tmp_path / "readme.cfg"
        path.write_text(example)
        parse_config_file(path)
        named, current = set(), None
        for line in example.splitlines():
            line = line.split("#", 1)[0].strip()
            if line.startswith("["):
                current = line.strip("[]")
            elif "=" in line:
                named.add((current, line.partition("=")[0].strip()))
        assert named == set(KEYS)

    def test_key_outside_section_rejected(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("episodes = 5\n")
        with pytest.raises(ConfigError, match="section"):
            parse_config_file(path)

    def test_out_of_domain_grid_rejected(self):
        with pytest.raises(ConfigError, match="alpha"):
            SweepConfig(alphas=(1.5,))

    def test_negative_training_budget_rejected(self):
        with pytest.raises(ConfigError, match="train_timesteps"):
            SweepConfig(train_timesteps=-5)

    @pytest.mark.parametrize("budget", [0, 100, 511])
    def test_training_budget_below_one_rollout_rejected(self, budget):
        with pytest.raises(ConfigError, match="train_timesteps"):
            SweepConfig(train_timesteps=budget)
        assert SweepConfig(train_timesteps=512).train_timesteps == 512


class TestCellSeed:
    def test_distinct_cells_get_distinct_seeds(self):
        seeds = {
            cell_seed(7, s, n, a, e)
            for s in ("basic", "mbs")
            for n in ("depolarizing", "random_permutation")
            for a in (0.0, 0.1)
            for e in (0.1, 0.2)
        }
        assert len(seeds) == 16

    def test_seed_depends_only_on_identity(self):
        assert cell_seed(7, "basic", "depolarizing", 0.1, 0.2) == cell_seed(
            7, "basic", "depolarizing", 0.1, 0.2
        )
        assert cell_seed(7, "basic", "depolarizing", 0.1, 0.2) != cell_seed(
            8, "basic", "depolarizing", 0.1, 0.2
        )


class TestEvaluate:
    def test_noiseless_basic_controller_beats_099(self):
        cfg = EnvConfig(noise_kind="depolarizing", alpha=0.0, epsilon=0.0, horizon=20)
        (cell,) = evaluate(basic_policy(), cfg, 1000, [(cfg.alpha, 5)])
        assert cell.mean_fidelity >= 0.99
        assert cell.aborted == 0

    def test_steps_to_threshold_matches_chain_oracle(self):
        expected_steps, _ = basic_controller_chain(20)
        cfg = EnvConfig(noise_kind="depolarizing", alpha=0.0, epsilon=0.0, horizon=20)
        (cell,) = evaluate(basic_policy(), cfg, 1000, [(cfg.alpha, 6)])
        se = cell.std_steps_to_threshold / np.sqrt(cell.episodes - cell.unreached_count)
        assert cell.mean_steps_to_threshold == pytest.approx(expected_steps, abs=3 * se)

    def test_fully_depolarized_mean_is_one_third(self):
        cfg = EnvConfig(noise_kind="depolarizing", alpha=1.0, epsilon=0.1, horizon=10)
        (cell,) = evaluate(basic_policy(), cfg, 1000, [(cfg.alpha, 7)])
        assert cell.mean_fidelity == pytest.approx(1 / 3, abs=0.02)

    def test_seeded_reproducibility(self):
        cfg = EnvConfig(noise_kind="random_permutation", alpha=0.4, epsilon=0.2, horizon=10)
        a = evaluate(basic_policy(), cfg, 1, [(cfg.alpha, 11)])
        b = evaluate(basic_policy(), cfg, 1, [(cfg.alpha, 11)])
        assert a == b

    def test_zero_policy_never_reaches_threshold(self):
        cfg = EnvConfig(noise_kind="depolarizing", alpha=0.0, epsilon=0.1, horizon=10)
        zero = BasicTable(beta_by_outcome=(0.0, 0.0, 0.0))
        (cell,) = evaluate(zero, cfg, 20, [(cfg.alpha, 8)])
        assert cell.unreached_count == 20
        assert np.isnan(cell.mean_steps_to_threshold)

    @pytest.mark.parametrize("scenario, timesteps", [("mbs", 512), ("qomdp", 0)])
    def test_checkpoint_evaluates_like_the_net_it_holds(self, tmp_path, scenario, timesteps):
        # the first layer's weights are Fortran-ordered: a C-ordered copy makes BLAS
        # sum in another order and moves the results in the last digits
        cfg = EnvConfig(noise_kind="depolarizing", alpha=0.3, epsilon=0.1, horizon=8)
        net, _ = train(scenario, training_config(scenario, cfg),
                       default_ppo_config(scenario, total_timesteps=timesteps), 5)
        save_policy(tmp_path / "agent.ckpt", net, scenario, {})
        loaded = load_policy(tmp_path / "agent.ckpt")[0]
        (direct,), (from_file,) = (evaluate(policy, cfg, 50, [(cfg.alpha, 12)], scenario=scenario)
                                   for policy in (net, loaded))
        # NaN-valued fields defeat dataclass equality; assert_equal takes NaN as equal
        np.testing.assert_equal(astuple(from_file), astuple(direct))

    @pytest.mark.parametrize("noise", NOISE_KINDS)
    def test_basic_cells_match_the_exact_average(self, noise):
        # 2,000 episodes per cell against the exact outcome-averaged dynamics: the
        # terminal mean within 4 standard errors, and each curve point within 4
        # times sqrt(mu (1 - mu) / n), an upper bound on the SD of a mean of values in [0, 1]
        n, horizon, policy = 2000, 20, basic_policy()
        for alpha, epsilon in itertools.product((0.0, 0.3, 0.6), (0.1, 0.3)):
            cfg = EnvConfig(noise_kind=noise, epsilon=epsilon, horizon=horizon)
            seed = cell_seed(0, "basic", noise, alpha, epsilon)
            (cell,) = evaluate(policy, cfg, n, [(alpha, seed)])
            exact = table_average(policy.beta_by_outcome, noise, alpha, epsilon, horizon)
            assert cell.episodes == n
            assert abs(cell.mean_fidelity - exact[-1]) <= 4 * cell.std_fidelity / np.sqrt(n)
            bound = 4 * np.sqrt(exact * (1 - exact) / n) + 1e-12
            assert np.all(np.abs(np.array(cell.fidelity_curve) - exact) <= bound), (alpha, epsilon)

    def test_curve_has_horizon_plus_one_points(self):
        cfg = EnvConfig(noise_kind="depolarizing", alpha=0.2, epsilon=0.1, horizon=15)
        (cell,) = evaluate(basic_policy(), cfg, 10, [(cfg.alpha, 10)])
        assert len(cell.fidelity_curve) == 16


def _untrained(kind, seed, scale=1.0):
    """A seeded untrained net with its control head ``pi.wh`` scaled."""
    gen = np.random.default_rng(seed)
    net = (MlpActorCritic(obs_dim=9, gen=gen) if kind == "mlp"
           else RecurrentActorCritic(obs_dim=2, n_action_outputs=2, gen=gen))
    net.params["pi.wh"] *= scale
    return net


NOISES = ("depolarizing", "amplitude_damping", "random_permutation")
# (scenario label, policy factory, EnvConfig fields, episodes) of each pinned
# evaluation case: the untrained MLP skips the filter at alpha 0 and runs it at
# 0.3; the LSTM's scaled head stops 52 of its 300 episodes; the zeroed MLP head
# pins beta at 0, so at epsilon 0 the filter diverges in 201 of 300 episodes;
# 1,100 episodes span two batches of BATCH_EPISODES.
EVALUATION_CASES = {
    "basic": [("basic", basic_policy, {"noise_kind": noise, "alpha": 0.3}, 300)
              for noise in NOISES],
    "mlp": [("dbs", lambda: _untrained("mlp", 4), {"alpha": alpha}, 300)
            for alpha in (0.0, 0.3)],
    "lstm-stops": [("qomdp", lambda: _untrained("lstm", 2, 30.0),
                    {"noise_kind": "amplitude_damping", "alpha": 0.3}, 300)],
    "mlp-aborts": [("dbs", lambda: _untrained("mlp", 4, 0.0),
                    {"alpha": 0.3, "epsilon": 0.0, "horizon": 5}, 300)],
    "two-batches": [("basic", basic_policy,
                     {"noise_kind": "random_permutation", "alpha": 0.5, "epsilon": 0.2}, 1100)],
}
# SHA-256 of render_results_csv + render_curves_csv of each case's cells,
# recorded at b1ec8ea on numpy 2.4.6 with OpenBLAS 0.3.31; another numpy or BLAS
# build may round the network products differently and would need its own
# record: ``PYTHONPATH=src python tests/test_harness.py`` prints this table for
# the code and build at hand.
EVALUATION_DIGESTS = {
    "basic": "924917958d1a266413bd098f457feedb7e480ff6c4eb2fa8c82205d150e0c932",
    "mlp": "2b01485f59ad17eb7dcdd75d599677ea6eeaddcfc45b1f429b75e67920d1ed21",
    "lstm-stops": "04f1d91d0f2770fcd701064c30ca7d5e984318262c539d8a31ca4e2ce9e52b0d",
    "mlp-aborts": "c41189dc4b210fb123a4b835930218d3b05d113c6efff256c56ee912b7e9fb15",
    "two-batches": "2a55332b50462229b074344a8951a77df5e2c01fac9476a8e368bfc82f58f08d",
}


def evaluation_digest(case: str) -> str:
    cells = []
    for i, (scenario, make, fields, n) in enumerate(EVALUATION_CASES[case]):
        cfg = EnvConfig(**fields)
        cells += evaluate(make(), cfg, n, [(cfg.alpha, 31 + i)], scenario=scenario)
    text = render_results_csv(cells) + render_curves_csv(cells)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("case", list(EVALUATION_CASES))
def test_evaluation_is_pinned(case):
    assert evaluation_digest(case) == EVALUATION_DIGESTS[case]


@pytest.mark.parametrize("scenario, make", [("basic", basic_policy),
                                            ("dbs", lambda: _untrained("mlp", 4))])
def test_each_of_several_cells_evaluates_as_it_does_alone(scenario, make):
    # 3 x 400 episodes span two stacks of BATCH_EPISODES (1,024), and the third
    # cell straddles their boundary; the shared config's alpha is never read
    policy, n = make(), 400
    cells = [(0.3, 41), (0.0, 42), (0.6, 43)]
    assert 2 * n < BATCH_EPISODES < len(cells) * n
    fields = {"noise_kind": "random_permutation", "epsilon": 0.1, "horizon": 8}
    together = evaluate(policy, EnvConfig(alpha=1.0, **fields), n, cells, scenario)
    assert [cell.alpha for cell in together] == [alpha for alpha, _ in cells]
    for cell, (alpha, seed) in zip(together, cells):
        alone = evaluate(policy, EnvConfig(alpha=alpha, **fields), n, [(alpha, seed)], scenario)
        assert (render_results_csv([cell]) + render_curves_csv([cell])
                == render_results_csv(alone) + render_curves_csv(alone))


# Each pinned sweep: its SweepConfig fields and the untrained agents saved for
# it (scenario, net kind, net seed, control-head scale) before it runs.  basic
# spans the three noises at alpha 0 and 0.3 and epsilon 0 and 0.1; mbs and
# qomdp share their noise-free agents across noises and alphas, the MLP
# filtering at 0.3 only and the LSTM's scaled head stopping; dbs's zeroed head
# pins beta at 0, so at epsilon 0 its filter diverges and aborts are counted;
# the last evaluates 1,200 episodes of one agent, more than BATCH_EPISODES.
SWEEP_CASES = {
    "basic": ({"scenarios": ("basic",), "noises": NOISES, "alphas": (0.0, 0.3),
               "epsilons": (0.0, 0.1)}, ()),
    "mbs-qomdp": ({"scenarios": ("mbs", "qomdp"), "noises": NOISES, "alphas": (0.0, 0.3),
                   "epsilons": (0.1,)}, (("mbs", "mlp", 4, 1.0), ("qomdp", "lstm", 5, 30.0))),
    "dbs-aborts": ({"scenarios": ("dbs",), "noises": ("depolarizing",), "alphas": (0.0, 0.3),
                    "epsilons": (0.0,)}, (("dbs", "mlp", 4, 0.0),)),
    "over-1024": ({"scenarios": ("basic",), "noises": ("random_permutation",),
                   "alphas": (0.0, 0.2, 0.5), "epsilons": (0.2,), "episodes": 400}, ()),
}
# SHA-256 of results.csv + curves.csv of each sweep, recorded at e8888f7 on the
# build EVALUATION_DIGESTS names
SWEEP_DIGESTS = {
    "basic": "319a61272375eb54e8b97569be05bc8242c7562b149b766e088056b7a1366902",
    "mbs-qomdp": "5aafc3670351e00e9f6f048201526a2c9bde8332f892d42dbfbd46ed38b272c8",
    "dbs-aborts": "e46d189ca4ddc740cfe5b92ff0152962021f815800e0ba3726a4238bceb91f03",
    "over-1024": "6e2027ecfcac45e4b8e363f51cb8ac734e46e5f038c37e55ec864a678fc588a6",
}


def sweep_digest(case: str, directory: Path) -> str:
    fields, agents = SWEEP_CASES[case]
    cfg = SweepConfig(**{"episodes": 150, "horizon": 10, "master_seed": 41,
                         "checkpoint_dir": str(directory), **fields})
    for scenario, kind, seed, scale in agents:
        for noise, alpha, epsilon in itertools.product(cfg.noises, cfg.alphas, cfg.epsilons):
            path = directory / checkpoint_name(scenario, noise, alpha, epsilon)
            if not path.exists():
                save_policy(path, _untrained(kind, seed, scale), scenario, {})
    results = sweep(cfg)
    text = render_results_csv(results) + render_curves_csv(results)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("case", list(SWEEP_CASES))
def test_sweep_is_pinned(case, tmp_path):
    assert sweep_digest(case, tmp_path) == SWEEP_DIGESTS[case]


def make_cell(scenario="basic", noise="depolarizing", alpha=0.0, epsilon=0.1,
              mean=0.95, steps=3.0, unreached=0, curve=(0.0, 0.5, 0.95)):
    return CellResult(
        scenario=scenario, noise=noise, alpha=alpha, epsilon=epsilon, seed=1,
        episodes=100, aborted=0, mean_fidelity=mean, std_fidelity=0.05,
        mean_steps_to_threshold=steps, std_steps_to_threshold=1.0,
        unreached_count=unreached, fidelity_curve=curve,
    )


# text a CSV field can carry: no ',' and no line break
csv_text = st.text(
    st.characters(whitelist_categories=("L", "N", "P", "S", "Zs"), blacklist_characters=","),
    max_size=8,
)
cell_results = st.builds(
    CellResult,
    scenario=csv_text,
    noise=csv_text,
    alpha=st.floats(allow_nan=False),
    epsilon=st.floats(allow_nan=False),
    seed=st.integers(0, 2**64),
    episodes=st.integers(0, 10**6),
    aborted=st.integers(0, 10**6),
    mean_fidelity=st.floats(),
    std_fidelity=st.floats(),
    mean_steps_to_threshold=st.floats(),
    std_steps_to_threshold=st.floats(),
    unreached_count=st.integers(0, 10**6),
    fidelity_curve=st.lists(st.floats(), max_size=4).map(tuple),
)


class TestThresholdAlpha:
    def test_definition_on_descending_curve(self):
        cells = [
            make_cell(alpha=0.0, mean=0.95),
            make_cell(alpha=0.1, mean=0.92),
            make_cell(alpha=0.2, mean=0.80),
        ]
        summary = threshold_alpha(cells, 0.9)
        assert summary[("basic", "depolarizing", 0.1)] == 0.1

    def test_absent_when_all_below(self):
        cells = [make_cell(alpha=0.0, mean=0.5), make_cell(alpha=0.1, mean=0.4)]
        summary = threshold_alpha(cells, 0.9)
        assert summary[("basic", "depolarizing", 0.1)] is None

    def test_monotone_in_f_star(self):
        gen = np.random.default_rng(0)
        cells = [
            make_cell(alpha=round(0.1 * k, 1), mean=float(gen.random()))
            for k in range(11)
        ]
        last = 2.0
        for f_star in (0.2, 0.5, 0.8, 0.95):
            value = threshold_alpha(cells, f_star)[("basic", "depolarizing", 0.1)]
            numeric = -1.0 if value is None else value
            assert numeric <= last
            last = numeric


class TestCsvRoundTrip:
    @given(cells=st.lists(cell_results, max_size=4, unique_by=lambda c: c.key()))
    def test_every_field_reconstructs_exactly(self, cells):
        parsed = parse_results_csv(render_results_csv(cells), render_curves_csv(cells))
        # repr tells NaN, -0.0, ints and floats apart
        assert repr(parsed) == repr(sorted(cells, key=lambda c: c.key()))

    def test_header_mandatory(self):
        with pytest.raises(ValueError, match="header"):
            parse_results_csv("no,header,here\n")

    def test_thresholds_csv_absent_rendering(self):
        text = render_thresholds_csv({("basic", "depolarizing", 0.1): None})
        assert text.splitlines()[1] == "basic,depolarizing,0.10000000000000001,"


class TestEmitReport:
    def test_cardinality_and_determinism(self, tmp_path):
        cells = [
            make_cell(alpha=a, epsilon=e, mean=0.9 - a)
            for a in (0.0, 0.2)
            for e in (0.1, 0.2)
        ]
        summary = threshold_alpha(cells, 0.5)
        written = emit_report(cells, summary, tmp_path / "r1")
        assert len(written) == 3 + 2  # three CSVs + (fidelity, steps) SVG per noise
        first = {p: Path(p).read_bytes() for p in written}
        emit_report(cells, summary, tmp_path / "r1")
        for path, blob in first.items():
            assert Path(path).read_bytes() == blob

    def test_results_csv_row_count(self, tmp_path):
        cells = [make_cell(alpha=round(0.1 * k, 1)) for k in range(5)]
        emit_report(cells, {}, tmp_path)
        lines = (tmp_path / "results.csv").read_text().splitlines()
        assert len(lines) == 6

    def test_empty_results_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="no results"):
            emit_report([], {}, tmp_path)

    def test_empty_threshold_summary_gives_header_only(self, tmp_path):
        emit_report([make_cell()], {}, tmp_path)
        assert (tmp_path / "thresholds.csv").read_text() == "scenario,noise,epsilon,threshold_alpha\n"


def test_the_published_grid_plans_192_agents():
    # one agent per training problem: 6 mbs, 6 qomdp, and 180 dbs, since a dbs
    # cell at alpha 0 is served by the mbs agent of its epsilon
    names = {checkpoint_name(*cell) for cell in itertools.product(
        ("mbs", "dbs", "qomdp"), NOISE_KINDS, TABLE_ALPHAS, TABLE_EPSILONS)}
    assert len(names) == 192
    assert sum(name.startswith("dbs_") for name in names) == 180
    assert "thus trains 192 agents: 6 mbs, 6 qomdp and 180 dbs" in " ".join(
        README.read_text().split())


def test_the_published_grid_runs_one_job_per_agent(tmp_path, monkeypatch):
    # 192 agent jobs plus one basic job per (noise, epsilon), all in one phase
    jobs = []

    def plan_only(args):
        jobs.append(args)
        path, training, groups, *_ = args
        return None, [([], 1.0) for _ in groups]

    monkeypatch.setattr(evaluate_module, "_agent_job", plan_only)
    monkeypatch.delenv("QFC_THREADS", raising=False)
    cfg = SweepConfig(scenarios=SCENARIOS, checkpoint_dir=str(tmp_path / "ckpts"),
                      train_on_demand=True)
    assert sweep(cfg) == []
    assert len(jobs) == 210
    names = [path.name for path, *_ in jobs if path is not None]
    assert len(names) == len(set(names)) == 192
    assert set(names) == {checkpoint_name(*cell) for cell in itertools.product(
        ("mbs", "dbs", "qomdp"), NOISE_KINDS, TABLE_ALPHAS, TABLE_EPSILONS)}
    assert all((path is None) == (training is None) for path, training, *_ in jobs)
    cells = [(scenario, noise, alpha, epsilon) for _, _, groups, *_ in jobs
             for scenario, noise, epsilon, alphas in groups for alpha, _ in alphas]
    assert sorted(cells) == sorted(itertools.product(
        SCENARIOS, NOISE_KINDS, TABLE_ALPHAS, TABLE_EPSILONS))
    assert not (tmp_path / "ckpts").exists()


def test_config_cli_and_sweep_take_their_scenarios_from_the_table(tmp_path, monkeypatch):
    for scenario in SCENARIOS:
        assert SweepConfig(scenarios=(scenario,)).scenarios == (scenario,)
    with pytest.raises(ConfigError, match=re.escape(f"choose from {SCENARIOS}")):
        SweepConfig(scenarios=("sarsa",))
    (subcommands,) = [action for action in cli._build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction)]
    (option,) = [action for action in subcommands.choices["train"]._actions
                 if "--scenario" in action.option_strings]
    assert tuple(option.choices) == TRAINED_KINDS
    readme = " ".join(README.read_text().split())
    assert f"qfclab train --scenario {{{'|'.join(TRAINED_KINDS)}}} " in readme
    assert f"# subset of {', '.join(SCENARIOS)} " in readme

    # a sweep gives a checkpoint to exactly the cells of the scenarios that train
    jobs = []

    def plan_only(args):
        jobs.append(args)
        return None, [([], 1.0) for _ in args[2]]

    monkeypatch.setattr(evaluate_module, "_agent_job", plan_only)
    monkeypatch.delenv("QFC_THREADS", raising=False)
    sweep(SweepConfig(scenarios=SCENARIOS, noises=("depolarizing",), alphas=(0.0, 0.5),
                      epsilons=(0.1,), checkpoint_dir=str(tmp_path), train_on_demand=True))
    served = {(scenario, path is not None) for path, _, groups, *_ in jobs
              for scenario, *_ in groups}
    assert served == {(scenario, scenario in TRAINED_KINDS) for scenario in SCENARIOS}


class TestSweep:
    def small_cfg(self, tmp_path, **kw):
        defaults = dict(
            scenarios=("basic",),
            noises=("depolarizing",),
            alphas=(0.0, 1.0),
            epsilons=(0.1,),
            episodes=20,
            horizon=8,
            master_seed=13,
            checkpoint_dir=str(tmp_path / "ckpts"),
            output_dir=str(tmp_path / "out"),
        )
        defaults.update(kw)
        return SweepConfig(**defaults)

    def test_basic_grid_cardinality(self, tmp_path):
        results = sweep(self.small_cfg(tmp_path, noises=("depolarizing", "random_permutation")))
        assert len(results) == 1 * 2 * 2 * 1

    def test_single_cell_sweep_equals_direct_evaluate(self, tmp_path):
        cfg = self.small_cfg(tmp_path, alphas=(0.3,))
        direct = evaluate(
            basic_policy(),
            EnvConfig(noise_kind="depolarizing", alpha=0.3, epsilon=0.1, horizon=8),
            cfg.episodes,
            [(0.3, cell_seed(13, "basic", "depolarizing", 0.3, 0.1))],
            scenario="basic",
            f_star=cfg.f_star,
        )
        assert sweep(cfg) == direct

    @pytest.mark.parametrize("scenario, noise, alphas, epsilons, name", [
        ("dbs", "depolarizing", (0.1234561, 0.1234562), (0.1,),
         r"dbs_depolarizing_alpha0\.123456_eps0\.1\.ckpt"),
        ("mbs", "depolarizing", (0.0,), (0.1, 0.1000001), r"mbs_eps0\.1\.ckpt"),
    ], ids=["dbs-alphas", "mbs-epsilons"])
    def test_cells_sharing_a_checkpoint_name_are_refused(
        self, tmp_path, monkeypatch, scenario, noise, alphas, epsilons, name
    ):
        monkeypatch.setattr(evaluate_module, "train", None)  # planning fails before training
        cfg = self.small_cfg(tmp_path, scenarios=(scenario,), noises=(noise,), alphas=alphas,
                             epsilons=epsilons, train_on_demand=True, train_timesteps=512)
        with pytest.raises(ConfigError, match=rf"cells \({scenario}, .*\) and "
                                              rf"\({scenario}, .*\) .* {name}"):
            sweep(cfg)
        assert not (tmp_path / "ckpts").exists()

    def test_an_mbs_cell_and_a_dbs_cell_at_alpha_zero_share_their_agent(self, tmp_path):
        cfg = self.small_cfg(tmp_path, scenarios=("mbs", "dbs"), alphas=(0.0,),
                             train_on_demand=False)
        (tmp_path / "ckpts").mkdir()
        save_policy(tmp_path / "ckpts" / "mbs_eps0.1.ckpt", _untrained("mlp", 4), "mbs", {})
        assert [cell.scenario for cell in sweep(cfg)] == ["dbs", "mbs"]

    @pytest.mark.parametrize("scenario", ["mbs", "dbs"])
    def test_missing_checkpoint_is_actionable(self, tmp_path, scenario):
        # a dbs cell at alpha 0 needs the mbs agent of its epsilon
        cfg = self.small_cfg(tmp_path, scenarios=(scenario,), train_on_demand=False)
        with pytest.raises(MissingCheckpointError,
                           match=rf"\({scenario}, depolarizing, alpha=0, .*mbs_eps0\.1\.ckpt"):
            sweep(cfg)

    def test_a_missing_agent_trains_once_then_is_reused(self, tmp_path, monkeypatch, caplog):
        """A missing checkpoint is trained once by the sweep, then reused."""
        caplog.set_level(logging.INFO, logger="qfclab.harness.evaluate")
        cfg = self.small_cfg(
            tmp_path, scenarios=("mbs",), train_on_demand=True, train_timesteps=512,
        )
        path = tmp_path / "ckpts" / checkpoint_name("mbs", "depolarizing", 0.0, 0.1)
        assert path.name == "mbs_eps0.1.ckpt"
        assert not path.exists()
        first = sweep(cfg)
        assert sorted(p.name for p in (tmp_path / "ckpts").iterdir()) == [
            "mbs_eps0.1.ckpt", "mbs_eps0.1.ckpt.curve.csv"]
        # the second sweep reuses the trained file
        monkeypatch.setattr(evaluate_module, "train", None)
        assert render_results_csv(sweep(cfg)) == render_results_csv(first)
        assert checkpoint_name("mbs", "depolarizing", 0.2, 0.1) == path.name
        assert checkpoint_name("dbs", "amplitude_damping", 0.0, 0.1) == path.name
        # and so does a dbs cell at alpha 0 on another noise
        caplog.clear()
        sweep(replace(cfg, scenarios=("dbs",), noises=("amplitude_damping",), alphas=(0.0,)))
        assert [r.getMessage().rsplit(" with ", 1)[1] for r in caplog.records] == [path.name]

    @pytest.mark.parametrize("raw", ["abc", "0", "-4"])
    def test_malformed_thread_count_fails_before_training(self, tmp_path, monkeypatch, raw):
        cfg = self.small_cfg(tmp_path, scenarios=("mbs",), train_on_demand=True,
                             train_timesteps=512)
        monkeypatch.setenv("QFC_THREADS", raw)
        with pytest.raises(ConfigError, match="QFC_THREADS"):
            sweep(cfg)
        assert not (tmp_path / "ckpts").exists()

    def test_unset_thread_count_runs_inline(self, monkeypatch):
        monkeypatch.delenv("QFC_THREADS", raising=False)
        assert worker_count() == 1

    def test_each_evaluation_job_logs_what_it_evaluated(self, tmp_path, caplog):
        caplog.set_level(logging.INFO, logger="qfclab.harness.evaluate")
        cfg = self.small_cfg(tmp_path, noises=("depolarizing", "random_permutation"),
                             alphas=(0.0, 0.4, 0.8), epsilons=(0.1, 0.2))
        sweep(cfg)
        lines = [record.getMessage() for record in caplog.records]
        assert [line.split(": ")[0] for line in lines] == [
            f"evaluated basic on {noise} at epsilon {epsilon}"
            for noise in cfg.noises for epsilon in cfg.epsilons]
        assert all(": 3 alphas, 60 episodes in " in line for line in lines)
        assert all(line.endswith(" episodes/s)") for line in lines)

    def test_evaluation_builds_no_generator_per_episode(self, tmp_path, monkeypatch):
        def refuse(stream):
            raise AssertionError(f"generator() of {stream}")

        monkeypatch.setattr(RngStream, "generator", refuse)
        assert len(sweep(self.small_cfg(tmp_path))) == 2

    @pytest.mark.parametrize("openblas, expected", [(None, "1 1 1"), ("3", "3 1 1")])
    def test_import_gives_each_worker_one_blas_thread_unless_set(self, openblas, expected):
        # workers are the parallelism; BLAS threads in each would oversubscribe the cores
        env = {"PYTHONPATH": str(PACKAGE.parent)}  # no BLAS variable set
        if openblas is not None:
            env["OPENBLAS_NUM_THREADS"] = openblas
        probe = ("import os, qfclab; print(*(os.environ[v] for v in "
                 "('OPENBLAS_NUM_THREADS', 'OMP_NUM_THREADS', 'MKL_NUM_THREADS')))")
        out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                             check=True, env=env)
        assert out.stdout.strip() == expected

    def test_parallel_workers_reproduce_serial_results(self, tmp_path, monkeypatch):
        # one evaluation job per noise and epsilon: four jobs for the pool
        cfg = self.small_cfg(tmp_path, noises=("depolarizing", "random_permutation"),
                             alphas=(0.0, 0.4, 0.8), epsilons=(0.1, 0.2))
        serial = sweep(cfg)
        monkeypatch.setenv("QFC_THREADS", "3")
        parallel = sweep(cfg)
        # NaN-valued fields defeat dataclass equality; compare the rendering
        assert render_results_csv(parallel) == render_results_csv(serial)
        assert render_curves_csv(parallel) == render_curves_csv(serial)


def _digests(directory: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in directory.iterdir()}


class TestTrainOnDemand:
    """Missing agents train in the QFC_THREADS pool before the cells evaluate."""

    def cfg(self, tmp_path, label, **kw):
        defaults = dict(
            scenarios=("mbs", "dbs"),
            noises=("depolarizing", "amplitude_damping"),
            alphas=(0.0, 0.5),
            epsilons=(0.1,),
            episodes=10,
            horizon=6,
            master_seed=21,
            checkpoint_dir=str(tmp_path / label),
            train_on_demand=True,
            train_timesteps=512,
        )
        defaults.update(kw)
        return SweepConfig(**defaults)

    @staticmethod
    def count_saves(monkeypatch, log_path: Path):
        """Record every checkpoint write in a file, which forked workers share."""
        def save(path, *args, **kwargs):
            with open(log_path, "a") as log:
                log.write(Path(path).name + "\n")
            return save_policy(path, *args, **kwargs)

        monkeypatch.setattr(evaluate_module, "save_policy", save)

    def test_each_agent_trains_once_and_identically_at_any_worker_count(
        self, tmp_path, monkeypatch, caplog
    ):
        caplog.set_level(logging.INFO, logger="qfclab.harness.evaluate")
        runs = {}
        for threads in ("1", "2"):
            monkeypatch.setenv("QFC_THREADS", threads)
            saves = tmp_path / f"saves{threads}.txt"
            self.count_saves(monkeypatch, saves)
            results = sweep(self.cfg(tmp_path, f"ckpts{threads}"))
            digests = _digests(tmp_path / f"ckpts{threads}")
            # one mbs agent for the epsilon, shared by its four mbs cells and by
            # the two dbs cells at alpha 0, whose real data are the nominal
            # model; one dbs agent per noise at alpha 0.5; each beside its curve
            agents = sorted(name for name in digests if name.endswith(".ckpt"))
            assert len(agents) == 3
            assert set(digests) == {*agents, *(f"{name}.curve.csv" for name in agents)}
            assert sorted(saves.read_text().splitlines()) == agents
            runs[threads] = (digests, render_results_csv(results), render_curves_csv(results))
        assert runs["2"] == runs["1"]
        trained = [r.getMessage() for r in caplog.records]
        trained = [m for m in trained if m.startswith("trained ")]
        assert len(trained) == 6
        assert all("512 timesteps in" in m and "timesteps/s" in m for m in trained)

    def test_each_agent_logs_its_training_then_its_evaluations(
        self, tmp_path, monkeypatch, caplog
    ):
        cfg = self.cfg(tmp_path, "ckpts")
        sweep(replace(cfg, scenarios=("dbs",), noises=("depolarizing",), alphas=(0.5,)))
        caplog.set_level(logging.INFO, logger="qfclab.harness.evaluate")
        caplog.clear()
        monkeypatch.setenv("QFC_THREADS", "2")
        sweep(cfg)
        lines = [r.getMessage() for r in caplog.records]
        agents = [line.split(":")[0].split()[1] if line.startswith("trained ")
                  else line.rsplit(" with ", 1)[1] for line in lines]
        assert [agent for agent, line in zip(agents, lines) if line.startswith("trained ")] == [
            "mbs_eps0.1.ckpt", "dbs_amplitude_damping_alpha0.5_eps0.1.ckpt"]
        # one block per agent, led by its training line unless it was reused
        blocks = [agent for i, agent in enumerate(agents) if i == 0 or agents[i - 1] != agent]
        assert blocks == ["mbs_eps0.1.ckpt", "dbs_depolarizing_alpha0.5_eps0.1.ckpt",
                          "dbs_amplitude_damping_alpha0.5_eps0.1.ckpt"]
        for name in blocks:
            first = lines[agents.index(name)]
            assert first.startswith(f"trained {name}: ") == ("depolarizing" not in name)

    def test_a_dbs_row_at_alpha_zero_evaluates_the_mbs_agent(self, tmp_path, caplog):
        caplog.set_level(logging.INFO, logger="qfclab.harness.evaluate")
        cfg = self.cfg(tmp_path, "ckpts")
        results = {cell.key(): cell for cell in sweep(cfg)}
        net, meta = load_policy(tmp_path / "ckpts" / "mbs_eps0.1.ckpt")
        assert meta["scenario"] == "mbs"
        for noise in cfg.noises:
            seed = cell_seed(cfg.master_seed, "dbs", noise, 0.0, 0.1)
            direct = evaluate(net, EnvConfig(noise_kind=noise, epsilon=0.1, horizon=cfg.horizon),
                              cfg.episodes, [(0.0, seed)], "dbs", cfg.f_star)
            row = [results[("dbs", noise, 0.0, 0.1)]]
            assert (render_results_csv(row) + render_curves_csv(row)
                    == render_results_csv(direct) + render_curves_csv(direct))
        evaluated = [r.getMessage() for r in caplog.records
                     if r.getMessage().startswith("evaluated dbs ")]
        assert sorted(line.rsplit(" with ", 1)[1] for line in evaluated) == [
            "dbs_amplitude_damping_alpha0.5_eps0.1.ckpt", "dbs_depolarizing_alpha0.5_eps0.1.ckpt",
            "mbs_eps0.1.ckpt", "mbs_eps0.1.ckpt"]

    def test_the_shared_agent_is_the_same_whichever_scenario_comes_first(self, tmp_path):
        runs = []
        for order in (("dbs", "mbs"), ("mbs", "dbs")):
            label = "-".join(order)
            results = sweep(self.cfg(tmp_path, label, scenarios=order))
            runs.append((_digests(tmp_path / label), render_results_csv(results),
                         render_curves_csv(results)))
        assert runs[0] == runs[1]
        # a dbs-only grid at alpha 0 trains the mbs agent, as mbs
        sweep(self.cfg(tmp_path, "dbs-only", scenarios=("dbs",), alphas=(0.0,)))
        assert _digests(tmp_path / "dbs-only") == {
            name: runs[0][0][name] for name in ("mbs_eps0.1.ckpt", "mbs_eps0.1.ckpt.curve.csv")}
        assert load_policy(tmp_path / "dbs-only" / "mbs_eps0.1.ckpt")[1]["scenario"] == "mbs"

    def test_training_failure_in_a_worker_surfaces(self, tmp_path, monkeypatch):
        if multiprocessing.get_start_method() != "fork":
            pytest.skip("the patched train() reaches workers only by fork")
        parent = os.getpid()

        def diverge(*args, **kwargs):
            where = "parent" if os.getpid() == parent else "worker"
            raise TrainingDiverged(f"update 0 (timestep 0): non-finite loss nan in {where}")

        monkeypatch.setattr(evaluate_module, "train", diverge)
        monkeypatch.setenv("QFC_THREADS", "2")
        with pytest.raises(TrainingDiverged, match="non-finite loss nan in worker"):
            sweep(self.cfg(tmp_path, "ckpts", scenarios=("dbs",)))
        assert not (tmp_path / "ckpts").exists()

    def test_noise_free_agents_record_alpha_zero(self, tmp_path):
        cfg = self.cfg(tmp_path, "ckpts", scenarios=("mbs",),
                       noises=("amplitude_damping", "depolarizing"), alphas=(0.4, 0.6))
        sweep(cfg)
        _, meta = load_policy(tmp_path / "ckpts" / "mbs_eps0.1.ckpt")
        assert (meta["noise"], meta["alpha"]) == ("none", "0.0")

    @pytest.mark.parametrize("scenario", ["mbs", "qomdp"])
    def test_noise_free_checkpoint_ignores_the_cell_alpha(self, tmp_path, scenario):
        blobs = []
        for noise, alpha in (("depolarizing", 0.0), ("depolarizing", 0.7),
                             ("random_permutation", 0.7)):
            env_cfg = EnvConfig(noise_kind=noise, alpha=alpha, epsilon=0.1, horizon=6)
            path = tmp_path / f"{noise}{alpha}.ckpt"
            train_checkpoint(scenario, env_cfg, 512, 5, path)
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1] == blobs[2]

    @pytest.mark.parametrize("field, change", [
        ("timesteps", {"train_timesteps": 1024}),
        ("seed", {"master_seed": 22}),
    ])
    def test_stale_checkpoint_fails_before_any_training(self, tmp_path, field, change):
        cfg = self.cfg(tmp_path, "ckpts", scenarios=("mbs",), noises=("depolarizing",))
        sweep(cfg)
        trained = _digests(tmp_path / "ckpts")
        # a re-run that would train the same file differently, and one more agent
        rerun = replace(cfg, epsilons=(0.1, 0.2), **change)
        with pytest.raises(ConfigError, match=rf"mbs_eps0\.1\.ckpt records meta {field} "):
            sweep(rerun)
        assert _digests(tmp_path / "ckpts") == trained  # nothing trained, nothing rewritten

    def test_a_rerun_reuses_every_finished_agent(self, tmp_path, monkeypatch):
        cfg = self.cfg(tmp_path, "ckpts", scenarios=("dbs",))
        first = sweep(cfg)
        trained = _digests(tmp_path / "ckpts")

        def fail(*args, **kwargs):
            raise AssertionError("a re-run trained an agent whose checkpoint was finished")

        monkeypatch.setattr(evaluate_module, "train", fail)
        rerun = sweep(cfg)
        assert _digests(tmp_path / "ckpts") == trained
        assert (render_results_csv(rerun) + render_curves_csv(rerun)
                == render_results_csv(first) + render_curves_csv(first))

    def test_each_trained_agent_keeps_the_curve_its_training_command_writes(
        self, tmp_path, monkeypatch
    ):
        cfg = desk_scale(self.cfg(tmp_path, "ckpts", noises=("depolarizing",)))
        sweep(cfg)
        written = _digests(tmp_path / "ckpts")
        agents = sorted(name for name in written if name.endswith(".ckpt"))
        # mbs per epsilon, dbs per epsilon and alpha > 0
        assert len(agents) == len(cfg.epsilons) * len(cfg.alphas)
        assert set(written) == {*agents, *(f"{name}.curve.csv" for name in agents)}
        for name in agents:
            meta = load_policy(tmp_path / "ckpts" / name)[1]
            seed = mix64(cfg.master_seed, hash_label(f"train|{name}"))
            assert meta["seed"] == str(seed)
            out = tmp_path / "cli" / name
            assert cli.main(["train", "--scenario", meta["scenario"], "--alpha", meta["alpha"],
                             "--epsilon", meta["epsilon"], "--seed", str(seed),
                             "--timesteps", str(cfg.train_timesteps),
                             "--horizon", str(cfg.horizon), "--out", str(out)]) == cli.EXIT_OK
            assert _digests(out.parent) == {name: written[name],
                                            f"{name}.curve.csv": written[f"{name}.curve.csv"]}
            shutil.rmtree(out.parent)

        def fail(*args, **kwargs):
            raise AssertionError("a re-run trained an agent whose checkpoint was finished")

        monkeypatch.setattr(evaluate_module, "train", fail)
        sweep(cfg)
        assert _digests(tmp_path / "ckpts") == written

    def test_hand_trained_checkpoint_is_used_without_training_on_demand(self, tmp_path):
        cfg = self.cfg(tmp_path, "ckpts", scenarios=("mbs",), noises=("depolarizing",),
                       train_on_demand=False)
        env_cfg = EnvConfig(epsilon=0.1, horizon=6)
        train_checkpoint("mbs", env_cfg, 512, 99, tmp_path / "ckpts" / "mbs_eps0.1.ckpt")
        assert len(sweep(cfg)) == 2

    def test_missing_checkpoints_raise_before_any_write(self, tmp_path, monkeypatch):
        monkeypatch.setenv("QFC_THREADS", "2")
        cfg = self.cfg(tmp_path, "ckpts", train_on_demand=False)
        with pytest.raises(MissingCheckpointError,
                           match=r"\(mbs, depolarizing, alpha=0, epsilon=0.1\).*mbs_eps0.1.ckpt"):
            sweep(cfg)
        assert not (tmp_path / "ckpts").exists()


if __name__ == "__main__":
    # print EVALUATION_DIGESTS and SWEEP_DIGESTS for the code and the numpy/BLAS build at hand
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    print(f"# numpy {np.__version__}, {blas['name']} {blas['version']}")
    print("EVALUATION_DIGESTS = {")
    for case in EVALUATION_CASES:
        print(f'    "{case}": "{evaluation_digest(case)}",')
    print("}")
    print("SWEEP_DIGESTS = {")
    for case in SWEEP_CASES:
        with tempfile.TemporaryDirectory() as directory:
            print(f'    "{case}": "{sweep_digest(case, Path(directory))}",')
    print("}")
