"""Scenario-environment semantics: observations, rewards, noise wiring."""

import numpy as np
import pytest

from qfclab import dynamics
from qfclab.channels import imprecise_measurement, make_channel
from qfclab.controllers import ControlAction
from qfclab.dynamics import TARGET_INDEX, EnvConfig, encode_state_observation, step_true
from qfclab.qcore import basis_state
from qfclab.rl.envs import ScenarioEnv
from qfclab.rngstream import RngStream

from oracles import (
    TrainingEpisodeReplay,
    decode_state_observation,
    maximally_mixed,
    random_densities,
    random_density,
)


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

    @pytest.mark.parametrize("n", [None, 1, 6])
    def test_real_state_encodes_as_its_complex_cast(self, n):
        # the imaginary slots read exact +0.0, so networks and checkpoints see the same bytes
        rho = random_densities(8, n, real=True)
        rho[..., 0, 1] = rho[..., 1, 0] = -0.0
        encoded = encode_state_observation(rho)
        assert encoded.dtype == np.float64
        assert encoded.tobytes() == encode_state_observation(rho.astype(complex)).tobytes()
        assert not np.signbit(encoded[..., [4, 6, 8]]).any()

    def test_round_trip_on_random_states(self):
        gen = np.random.default_rng(5)
        for _ in range(20):
            rho = random_density(gen)
            np.testing.assert_allclose(
                decode_state_observation(encode_state_observation(rho)), rho, atol=1e-12
            )


def assert_matches_oracle(kind, got, want):
    """A qomdp observation or reward bit for bit; a state observation, and the
    fidelity reward read from it, to 1e-12 relative to its largest entry: the
    oracle applies complex Kraus sums, the environment real closed forms."""
    if kind == "qomdp":
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
    else:
        scale = np.abs(want).max() if np.ndim(want) else 1.0  # a fidelity's scale is 1
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * scale)


def replay_against_oracle(kind, cfg, seed, episodes=4):
    """Step ScenarioEnv and the scalar oracle side by side on random actions
    (random stops for qomdp); every observation and reward must match (see
    :func:`assert_matches_oracle`), and every outcome and done exactly."""
    stream = RngStream(seed)
    env = ScenarioEnv(kind, cfg, stream)
    actions = np.random.default_rng(seed)
    noise = make_channel(cfg.noise_kind, cfg.alpha).kraus_ops
    measurement = imprecise_measurement(cfg.epsilon).ops
    steps = stops = 0
    for episode in range(episodes):
        oracle = TrainingEpisodeReplay(
            kind, noise, measurement, dynamics.INITIAL_STATE, TARGET_INDEX, cfg.horizon,
            stream.substream("episode", episode).generator(),
        )
        assert_matches_oracle(kind, env.reset(), oracle.observation())
        done = False
        while not done:
            beta = float(actions.uniform(-1.0, 1.0))
            stop = kind == "qomdp" and bool(actions.random() < 0.15)
            loop = env._loop  # the env lets go of it when the episode ends
            obs, reward, done = env.step(ControlAction(beta=beta, stop=stop))
            want_obs, want_reward, want_done = oracle.step(beta, stop)
            assert loop.outcome == oracle.outcome
            assert_matches_oracle(kind, obs, want_obs)
            assert_matches_oracle(kind, reward, want_reward)
            assert done == want_done
            steps += 1
            stops += stop
    return steps, stops


class TestOracleReplay:
    @pytest.mark.parametrize("seed", [30, 31, 32])
    def test_mbs_steps_the_nominal_model(self, seed):
        steps, _ = replay_against_oracle("mbs", make_cfg(alpha=0.5, epsilon=0.1), seed)
        assert steps == 4 * 10

    @pytest.mark.parametrize("seed", [33, 34])
    @pytest.mark.parametrize("alpha", [0.0, 0.5])
    @pytest.mark.parametrize("noise", ["depolarizing", "amplitude_damping", "random_permutation"])
    def test_dbs_steps_truth_and_filter(self, noise, alpha, seed):
        cfg = make_cfg(noise_kind=noise, alpha=alpha, epsilon=0.15)
        replay_against_oracle("dbs", cfg, seed)

    @pytest.mark.parametrize("seed", [35, 36, 37])
    def test_qomdp_steps_stops_and_timeouts(self, seed):
        # a stop's outcome is nearly certain on a well-measured state, so it takes
        # many stops to tell which uniform the terminal measurement drew
        _, stops = replay_against_oracle("qomdp", make_cfg(alpha=0.5), seed, episodes=40)
        assert 0 < stops < 40  # both stopped and timed-out episodes occur


@pytest.mark.parametrize("kind", ["mbs", "qomdp"])
def test_noiseless_training_kinds_never_apply_a_channel(monkeypatch, kind):
    def fail(*args, **kwargs):
        raise AssertionError("noise map applied")

    monkeypatch.setattr(dynamics.ch, "apply_channel", fail)
    env = ScenarioEnv(kind, make_cfg(alpha=0.7), RngStream(8))
    env.reset()
    done = False
    while not done:
        _, _, done = env.step(ControlAction(beta=0.4))


class TestMbsTrainEnv:
    def test_noise_is_excluded_from_the_model(self):
        # identical trajectories regardless of the configured alpha
        runs = []
        for alpha in (0.0, 0.5):
            env = ScenarioEnv("mbs", make_cfg(alpha=alpha), RngStream(9))
            obs = env.reset()
            history = [obs.copy()]
            done = False
            while not done:
                obs, reward, done = env.step(ControlAction(beta=0.9))
                history.append(obs.copy())
            runs.append(np.concatenate(history))
        np.testing.assert_array_equal(runs[0], runs[1])

    def test_reward_is_observed_state_fidelity(self):
        env = ScenarioEnv("mbs", make_cfg(), RngStream(10))
        env.reset()
        obs, reward, _ = env.step(ControlAction(beta=1.0))
        assert reward == pytest.approx(obs[2])

    def test_episode_length_is_horizon(self):
        env = ScenarioEnv("mbs", make_cfg(horizon=7), RngStream(12))
        env.reset()
        steps = 0
        done = False
        while not done:
            _, _, done = env.step(ControlAction(beta=0.1))
            steps += 1
        assert steps == 7
        with pytest.raises(RuntimeError, match="reset"):
            env.step(ControlAction(beta=0.0))


class TestDbsTrainEnv:
    def test_filtered_equals_true_without_noise(self):
        # at alpha = 0 the filter follows the truth, which replays from the episode's draws
        cfg = make_cfg(alpha=0.0)
        env = ScenarioEnv("dbs", cfg, RngStream(13))
        env.reset()
        draws = RngStream(13).substream("episode", 0).generator()
        rho = dynamics.INITIAL_STATE
        done = False
        while not done:
            obs, reward, done = env.step(ControlAction(beta=0.7))
            rho, _ = step_true(rho, 0.7, cfg, draws.random())
            np.testing.assert_allclose(decode_state_observation(obs), rho, atol=1e-12)
            assert reward == pytest.approx(rho[2, 2].real, abs=1e-12)

    def test_noise_uses_configured_alpha(self):
        # with alpha=1 depolarizing, observed filtered state diverges from a
        # noiseless model run under the same seed
        noiseless = ScenarioEnv("dbs", make_cfg(alpha=0.0), RngStream(14))
        noisy = ScenarioEnv("dbs", make_cfg(alpha=1.0), RngStream(14))
        obs0, obs1 = noiseless.reset(), noisy.reset()
        fid0, fid1 = [], []
        for _ in range(10):
            o0, r0, _ = noiseless.step(ControlAction(beta=1.0))
            o1, r1, _ = noisy.step(ControlAction(beta=1.0))
            fid0.append(r0)
            fid1.append(r1)
        assert fid0 != fid1


class TestQomdpTrainEnv:
    def test_reset_gives_outcome_and_zero_beta(self):
        env = ScenarioEnv("qomdp", make_cfg(), RngStream(15))
        obs = env.reset()
        assert obs.shape == (2,)
        assert obs[0] in (0.0, 1.0, 2.0)
        assert obs[1] == 0.0

    def test_noise_forced_off_in_training(self):
        env = ScenarioEnv("qomdp", make_cfg(alpha=0.9), RngStream(16))
        assert env.cfg.alpha == 0.0

    def test_running_reward_is_zero_then_timeout_penalty(self):
        env = ScenarioEnv("qomdp", make_cfg(horizon=5), RngStream(17))
        env.reset()
        rewards = []
        done = False
        while not done:
            _, r, done = env.step(ControlAction(beta=0.3, stop=False))
            rewards.append(r)
        assert rewards[:-1] == [0.0] * (len(rewards) - 1)
        assert rewards[-1] == -1.0

    def test_stop_on_target_earns_plus_one(self):
        # at epsilon = 0 an outcome of 2 leaves exactly |2>: pulse until it reads
        env = ScenarioEnv("qomdp", make_cfg(epsilon=0.0, horizon=20), RngStream(18))
        obs = env.reset()
        while obs[0] != TARGET_INDEX:
            obs, _, done = env.step(ControlAction(beta=1.0))
            assert not done
        assert np.array_equal(env._loop.rho, basis_state(2))
        _, reward, done = env.step(ControlAction(beta=0.0, stop=True))
        # the target level measures as the target: +1 whatever the draw
        assert done and reward == 1.0
        with pytest.raises(RuntimeError, match="reset"):
            env.step(ControlAction(beta=0.0))

    def test_stop_off_target_earns_minus_one(self):
        env = ScenarioEnv("qomdp", make_cfg(), RngStream(19))
        env.reset()
        _, reward, done = env.step(ControlAction(beta=0.0, stop=True))
        # level 0 never measures as the target: -1 whatever the draw
        assert done and reward == -1.0

    def test_observation_carries_last_action(self):
        env = ScenarioEnv("qomdp", make_cfg(), RngStream(20))
        env.reset()
        obs, _, _ = env.step(ControlAction(beta=0.625, stop=False))
        assert obs[1] == 0.625
        # the outcome half is the second step's outcome, replayed from the episode's draws
        cfg = env.cfg
        draws = RngStream(20).substream("episode", 0).generator()
        rho, _ = step_true(dynamics.INITIAL_STATE, 0.0, cfg, draws.random())
        _, outcome = step_true(rho, 0.625, cfg, draws.random())
        assert obs[0] == float(outcome)


class TestValidationEnv:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="scenario kind"):
            ScenarioEnv("q_learning", make_cfg(), RngStream(22))
