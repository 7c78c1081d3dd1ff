"""Scenario-environment semantics: observations, rewards, noise wiring."""

import numpy as np
import pytest

from qfclab.controllers import ControlAction
from qfclab.dynamics import EnvConfig
from qfclab.qcore import basis_state, maximally_mixed
from qfclab.rl.encoding import decode_state_observation, encode_state_observation
from qfclab.rl.envs import ScenarioEnv, mb_db_reward, qomdp_reward
from qfclab.rngstream import RngStream

from oracles import random_density


def make_cfg(**kw):
    defaults = dict(noise_kind="depolarizing", alpha=0.0, epsilon=0.1, horizon=10)
    defaults.update(kw)
    return EnvConfig(**defaults)


class TestEncoding:
    def test_target_state_encoding(self):
        np.testing.assert_allclose(
            encode_state_observation(basis_state(2)), [0, 0, 1, 0, 0, 0, 0, 0, 0]
        )

    def test_mixed_state_encoding(self):
        vec = encode_state_observation(maximally_mixed())
        np.testing.assert_allclose(vec, [1 / 3, 1 / 3, 1 / 3, 0, 0, 0, 0, 0, 0])

    def test_round_trip_on_random_states(self):
        gen = np.random.default_rng(5)
        for _ in range(20):
            rho = random_density(gen)
            np.testing.assert_allclose(
                decode_state_observation(encode_state_observation(rho)), rho, atol=1e-12
            )


class TestRewards:
    def test_mb_db_reward_values(self):
        cfg = make_cfg()
        assert mb_db_reward(basis_state(2), cfg) == 1.0
        assert mb_db_reward(basis_state(0), cfg) == 0.0
        assert mb_db_reward(maximally_mixed(), cfg) == pytest.approx(1 / 3)

    def test_qomdp_reward_cases(self):
        assert qomdp_reward(False, None, False, 2) == 0.0
        assert qomdp_reward(False, None, True, 2) == -1.0
        assert qomdp_reward(True, 2, True, 2) == 1.0
        assert qomdp_reward(True, 0, True, 2) == -1.0

    def test_qomdp_reward_requires_terminal_outcome(self):
        with pytest.raises(ValueError, match="terminal"):
            qomdp_reward(True, None, True, 2)


class TestMbsTrainEnv:
    def test_noise_is_excluded_from_the_model(self):
        # identical trajectories regardless of the configured alpha
        runs = []
        for alpha in (0.0, 0.5):
            env = ScenarioEnv("mbs_train", make_cfg(alpha=alpha), RngStream(9))
            obs = env.reset()
            history = [obs.copy()]
            done = False
            while not done:
                obs, reward, done, info = env.step(ControlAction(beta=0.9))
                history.append(obs.copy())
            runs.append(np.concatenate(history))
        np.testing.assert_array_equal(runs[0], runs[1])

    def test_reward_is_observed_state_fidelity(self):
        env = ScenarioEnv("mbs_train", make_cfg(), RngStream(10))
        env.reset()
        obs, reward, _, _ = env.step(ControlAction(beta=1.0))
        assert reward == pytest.approx(obs[2])

    def test_episode_length_is_horizon(self):
        env = ScenarioEnv("mbs_train", make_cfg(horizon=7), RngStream(12))
        env.reset()
        steps = 0
        done = False
        while not done:
            _, _, done, _ = env.step(ControlAction(beta=0.1))
            steps += 1
        assert steps == 7
        with pytest.raises(RuntimeError, match="reset"):
            env.step(ControlAction(beta=0.0))


class TestDbsTrainEnv:
    def test_filtered_equals_true_without_noise(self):
        env = ScenarioEnv("dbs_train", make_cfg(alpha=0.0), RngStream(13))
        env.reset()
        done = False
        while not done:
            obs, _, done, info = env.step(ControlAction(beta=0.7))
            filtered = decode_state_observation(obs)
            assert info["true_fidelity"] == pytest.approx(filtered[2, 2].real, abs=1e-10)

    def test_noise_uses_configured_alpha(self):
        # with alpha=1 depolarizing, observed filtered state diverges from a
        # noiseless model run under the same seed
        noiseless = ScenarioEnv("dbs_train", make_cfg(alpha=0.0), RngStream(14))
        noisy = ScenarioEnv("dbs_train", make_cfg(alpha=1.0), RngStream(14))
        obs0, obs1 = noiseless.reset(), noisy.reset()
        fid0, fid1 = [], []
        for _ in range(10):
            o0, r0, _, _ = noiseless.step(ControlAction(beta=1.0))
            o1, r1, _, _ = noisy.step(ControlAction(beta=1.0))
            fid0.append(r0)
            fid1.append(r1)
        assert fid0 != fid1


class TestQomdpTrainEnv:
    def test_reset_gives_outcome_and_zero_beta(self):
        env = ScenarioEnv("qomdp_train", make_cfg(), RngStream(15))
        obs = env.reset()
        assert obs.shape == (2,)
        assert obs[0] in (0.0, 1.0, 2.0)
        assert obs[1] == 0.0

    def test_noise_forced_off_in_training(self):
        env = ScenarioEnv("qomdp_train", make_cfg(alpha=0.9), RngStream(16))
        assert env.cfg.alpha == 0.0

    def test_running_reward_is_zero_then_timeout_penalty(self):
        env = ScenarioEnv("qomdp_train", make_cfg(horizon=5), RngStream(17))
        env.reset()
        rewards = []
        done = False
        while not done:
            _, r, done, _ = env.step(ControlAction(beta=0.3, stop=False))
            rewards.append(r)
        assert rewards[:-1] == [0.0] * (len(rewards) - 1)
        assert rewards[-1] == -1.0

    def test_stop_on_target_earns_plus_one(self):
        # drive deterministically: from |0>, outcome 2 given epsilon=0.1 is
        # reachable; instead start at the target to make the check exact
        env = ScenarioEnv(
            "qomdp_train", make_cfg(initial_state=basis_state(2)), RngStream(18)
        )
        env.reset()
        _, reward, done, info = env.step(ControlAction(beta=0.0, stop=True))
        assert done and reward == 1.0 and info["l_last"] == 2

    def test_stop_off_target_earns_minus_one(self):
        env = ScenarioEnv(
            "qomdp_train", make_cfg(initial_state=basis_state(0)), RngStream(19)
        )
        env.reset()
        _, reward, done, info = env.step(ControlAction(beta=0.0, stop=True))
        assert done and reward == -1.0 and info["l_last"] == 0

    def test_observation_carries_last_action(self):
        env = ScenarioEnv("qomdp_train", make_cfg(), RngStream(20))
        env.reset()
        obs, _, _, info = env.step(ControlAction(beta=0.625, stop=False))
        assert obs[1] == 0.625
        assert obs[0] == float(info["outcome"])


class TestValidationEnv:
    def test_reward_tracks_true_state_not_filtered(self):
        env = ScenarioEnv("validation", make_cfg(alpha=0.8, noise_kind="depolarizing"), RngStream(21))
        env.reset()
        _, reward, _, info = env.step(ControlAction(beta=1.0))
        assert reward == pytest.approx(info["true_fidelity"])

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="scenario kind"):
            ScenarioEnv("q_learning", make_cfg(), RngStream(22))
