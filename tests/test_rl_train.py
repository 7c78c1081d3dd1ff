"""End-to-end training smokes for the three scenarios (reduced budgets).

The full-budget model-based run lives in the acceptance suite; these verify
that each scenario's training loop actually learns on its own environment,
and that training replays to pinned digests.
"""

import hashlib
import json

import numpy as np
import pytest

from qfclab.dynamics import TARGET_INDEX, EnvConfig, run_episodes
from qfclab.rl import nets, ppo
from qfclab.rl.ppo import default_ppo_config, train
from qfclab.rngstream import RngStream

from oracles import (
    DictAdam,
    mlp_backward,
    mlp_forward,
    packed_sequence_backward,
    packed_sequence_forward,
    reference_episode,
    shuffled_ppo_update,
    two_cell_step,
)


def reward_trend(curve):
    rewards = [r["mean_episode_reward"] for r in curve if np.isfinite(r["mean_episode_reward"])]
    quarter = max(1, len(rewards) // 4)
    return float(np.mean(rewards[:quarter])), float(np.mean(rewards[-quarter:]))


# SHA-256 of the parameters and curve after 1,024 steps (seed 100 + noise index,
# alpha 0.6, epsilon 0.1, appendix hyperparameters), each epoch over the window in
# buffer order, recorded at 2adfee0 on numpy 2.4.6 with OpenBLAS 0.3.31; another
# numpy or BLAS build may round the products differently and would need its own
# record: ``PYTHONPATH=src python tests/test_rl_train.py`` prints this table for
# the code and build at hand.  The qomdp case pins the recurrent rollout step and
# the packed-sequence update.
TRAINING_DIGESTS = {
    ("mbs", "depolarizing"): "177f5369963894e7ba448293a885a2efac2c78314d71414290c3e416e922935b",
    ("mbs", "amplitude_damping"): "c91ae93f9f59cd2f4b211105c0d42c2735de13969c8b6dfc2030480c7fc5fd6f",
    ("mbs", "random_permutation"): "4361c08a08c9e096824fdb70b0ab6b7dab2a4ebde3b1ed441bfe363016964bdb",
    ("dbs", "depolarizing"): "bef7ab2cff4edbf1e1dce4ed14f15d86e9f5b7778d0d96ac650abac77f1b0b05",
    ("dbs", "amplitude_damping"): "09977931d4ab052d3b2fcf35cbccb164a0e94fe492a1289dc7d3314b34333ff5",
    ("dbs", "random_permutation"): "f733b0b6bc758a8341167bc1233a5d05eef28b3c66f2af56d68be8b66c32c7ef",
    ("qomdp", "depolarizing"): "8d64bd077633f02e34beb68bc33448d871f83a2e83cbb413292fd04063493e1a",
}
# The same runs with each epoch over the window in a fresh random order, drawn
# from the seed's "shuffle" substream (oracles.shuffled_ppo_update): the digests
# training pinned up to 0de86f8, on the same build.
SHUFFLED_DIGESTS = {
    ("mbs", "depolarizing"): "3b9fc2778914190cc987e076df4b96fc3daf1f74c1c8d487074ad1b7b102580b",
    ("mbs", "amplitude_damping"): "189833e30bd1a08bec3a5f67c1b5b9bc4d9948d4c86e7dea9171d195ed1e5e7b",
    ("mbs", "random_permutation"): "ca95b0eae81f61c340cf6c6f1b44e3610294dba7174147bb263539b9797bd269",
    ("dbs", "depolarizing"): "e9b9591f90feb4ba42a405f4267bf7b08058699325bdd74f1dc5847e32ebb5c9",
    ("dbs", "amplitude_damping"): "19115f0710ac0770d731987f023334e3c9ed3ef4dfcc91d6b41ed04bd3f147b5",
    ("dbs", "random_permutation"): "35c7e46b7437742ecfbd2872150d32bb69fa775add5347c7fd4c49bc2eabcb2d",
    ("qomdp", "depolarizing"): "69365f38003fc592ab8d8ecf19120e83992d32be68bba01c8e7c727f05ef3236",
}
NOISES = ("depolarizing", "amplitude_damping", "random_permutation")


def training_digest(net, curve) -> str:
    digest = hashlib.sha256()
    for name in sorted(net.params):
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(net.params[name]).tobytes())
    digest.update(json.dumps(curve, sort_keys=True).encode())
    return digest.hexdigest()


def pinned_run(scenario, noise, timesteps=1024):
    """Train one digest-table case: (net, curve)."""
    env_cfg = EnvConfig(noise_kind=noise, alpha=0.6, epsilon=0.1)
    ppo_cfg = default_ppo_config(scenario, total_timesteps=timesteps)
    return train(scenario, env_cfg, ppo_cfg, seed=100 + NOISES.index(noise))


def patch_shuffled_update(monkeypatch, noise):
    seed = 100 + NOISES.index(noise)
    gen = RngStream(seed).substream("shuffle").generator()
    monkeypatch.setattr(ppo, "ppo_update", shuffled_ppo_update(gen))


@pytest.mark.parametrize("scenario,noise", list(TRAINING_DIGESTS))
def test_training_streams_are_pinned(scenario, noise):
    assert training_digest(*pinned_run(scenario, noise)) == TRAINING_DIGESTS[scenario, noise]


@pytest.mark.parametrize("scenario,noise", list(SHUFFLED_DIGESTS))
def test_shuffled_oracle_replays_the_shuffled_digests(scenario, noise, monkeypatch):
    patch_shuffled_update(monkeypatch, noise)
    assert training_digest(*pinned_run(scenario, noise)) == SHUFFLED_DIGESTS[scenario, noise]


@pytest.mark.parametrize("scenario,noise", list(TRAINING_DIGESTS))
def test_buffer_order_training_is_near_the_shuffled_oracle(scenario, noise, monkeypatch):
    # the epoch order changes only the order of the sums inside each update
    net, curve = pinned_run(scenario, noise, timesteps=10 * 512)
    patch_shuffled_update(monkeypatch, noise)
    oracle, oracle_curve = pinned_run(scenario, noise, timesteps=10 * 512)
    for name, value in oracle.params.items():
        deviation = np.max(np.abs(net.params[name] - value)) / np.max(np.abs(value))
        assert deviation <= 1e-11, name
    assert len(curve) == len(oracle_curve) == 10
    for row, oracle_row in zip(curve, oracle_curve):
        assert row.keys() == oracle_row.keys()
        for key, value in oracle_row.items():
            np.testing.assert_allclose(row[key], value, rtol=1e-10, atol=0, err_msg=key)


@pytest.mark.parametrize("scenario,noise", list(TRAINING_DIGESTS))
def test_training_equals_the_dict_oracle(scenario, noise, monkeypatch):
    # the flat parameters, reused buffers and in-place Adam against dict-based
    # trunks and a per-array Adam, over 3 updates; unlike the digests, this
    # holds on any numpy or BLAS build
    env_cfg = EnvConfig(noise_kind=noise, alpha=0.6, epsilon=0.1)
    ppo_cfg = default_ppo_config(scenario, total_timesteps=3 * 512)
    seed = 100 + NOISES.index(noise)
    net, curve = train(scenario, env_cfg, ppo_cfg, seed)
    # the oracle trunks take no buffers and always return dL/dx
    monkeypatch.setattr(nets, "_mlp_forward", lambda *args, **_: mlp_forward(*args[:4]))
    monkeypatch.setattr(nets, "_mlp_backward", lambda *args, **_: mlp_backward(*args[:6]))
    monkeypatch.setattr(ppo, "Adam", DictAdam)
    oracle, oracle_curve = train(scenario, env_cfg, ppo_cfg, seed)
    assert len(curve) == 3
    assert json.dumps(curve) == json.dumps(oracle_curve)
    for name, value in oracle.params.items():
        assert net.params[name].tobytes() == value.tobytes(), name


def test_recurrent_training_equals_the_allocating_oracle(monkeypatch):
    # the stacked rollout step and the in-place packed LSTM against the two-cell
    # step and the allocating packed passes, over 3 updates; unlike the digest,
    # this holds on any numpy or BLAS build
    env_cfg = EnvConfig(noise_kind="depolarizing", alpha=0.6, epsilon=0.1)
    ppo_cfg = default_ppo_config("qomdp", total_timesteps=3 * 512)
    net, curve = train("qomdp", env_cfg, ppo_cfg, seed=100)
    monkeypatch.setattr(nets.RecurrentActorCritic, "step", two_cell_step)
    monkeypatch.setattr(nets.RecurrentActorCritic, "sequence_forward", packed_sequence_forward)
    monkeypatch.setattr(nets.RecurrentActorCritic, "sequence_backward", packed_sequence_backward)
    oracle, oracle_curve = train("qomdp", env_cfg, ppo_cfg, seed=100)
    assert len(curve) == 3
    assert json.dumps(curve) == json.dumps(oracle_curve)
    for name, value in oracle.params.items():
        assert net.params[name].tobytes() == value.tobytes(), name


class TestMbsTraining:
    def test_reward_improves(self):
        cfg = default_ppo_config("mbs", total_timesteps=30 * 512)
        _, curve = train(
            "mbs", EnvConfig(noise_kind="depolarizing", alpha=0.0, epsilon=0.1), cfg, seed=3,
        )
        early, late = reward_trend(curve)
        assert late > early + 1.0  # sum of per-step fidelities over a 20-step episode

    def test_learning_rate_default(self):
        assert default_ppo_config("mbs").learning_rate == 1e-4
        assert default_ppo_config("qomdp").learning_rate == 3e-4


class TestDbsTraining:
    def test_reward_improves_under_noise(self):
        cfg = default_ppo_config("dbs", total_timesteps=60 * 512)
        env_cfg = EnvConfig(noise_kind="depolarizing", alpha=0.2, epsilon=0.1)
        _, curve = train("dbs", env_cfg, cfg, seed=5)
        early, late = reward_trend(curve)
        assert late > early + 1.0

    def test_validation_episodes_run_on_true_dynamics(self):
        cfg = default_ppo_config("dbs", total_timesteps=10 * 512)
        env_cfg = EnvConfig(noise_kind="random_permutation", alpha=0.3, epsilon=0.1)
        net, _ = train("dbs", env_cfg, cfg, seed=6)
        (batch,) = run_episodes(net, env_cfg, [RngStream(1, 0)])
        assert not batch.aborted[0]
        assert np.isfinite(batch.fidelity[0]).all()


class TestQomdpTraining:
    def test_trained_agent_stops_on_target(self):
        # noiseless validation: the agent should stop with the terminal
        # measurement reading the target level in at least 80% of episodes
        env_cfg = EnvConfig(noise_kind="depolarizing", alpha=0.0, epsilon=0.1, horizon=20)
        cfg = default_ppo_config("qomdp", total_timesteps=120 * 512)
        policy, curve = train("qomdp", env_cfg, cfg, seed=777)
        episodes = [reference_episode(policy, env_cfg, RngStream(555, i)) for i in range(200)]
        stopped = sum(episode.stop_step is not None for episode in episodes)
        on_target = sum(episode.terminal_outcome == TARGET_INDEX for episode in episodes)
        assert on_target / 200 >= 0.80
        assert stopped > 0


if __name__ == "__main__":
    # print TRAINING_DIGESTS for the code and the numpy/BLAS build at hand
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    print(f"# numpy {np.__version__}, {blas['name']} {blas['version']}")
    print("TRAINING_DIGESTS = {")
    for scenario, noise in TRAINING_DIGESTS:
        digest = training_digest(*pinned_run(scenario, noise))
        print(f'    ("{scenario}", "{noise}"): "{digest}",')
    print("}")
