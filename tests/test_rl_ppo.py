"""PPO machinery: ratio identity, surrogate-gradient equivalence, toy convergence."""

import numpy as np
import pytest

from qfclab.controllers import ControlAction
from qfclab.dynamics import EnvConfig
from qfclab.rl import distributions as dist
from qfclab.rl.buffer import compute_gae
from qfclab.rl.config import PpoConfig
from qfclab.rl.nets import Adam, MlpActorCritic, RecurrentActorCritic, zero_grads_like
from qfclab.rl.ppo import (
    TrainingDiverged,
    _EnvRunner,
    _policy_grad_coeff,
    _update_mlp_minibatch,
    collect_rollout,
    ppo_update,
    sample_action,
    train,
)
from qfclab.rngstream import RngStream


class BanditEnv:
    """One constant observation; positive control earns 1, negative earns 0."""

    obs_dim = 1

    def __init__(self, stream: RngStream):
        self.stream = stream

    def reset(self):
        return np.ones(1)

    def step(self, action: ControlAction):
        reward = 1.0 if action.beta > 0 else 0.0
        return np.ones(1), reward, True, {}


class ParityEnv:
    """Two-step memory task: the rewarded sign at step two is shown at step one."""

    obs_dim = 1

    def __init__(self, stream: RngStream):
        self.gen = stream.generator()
        self.bit = 0.0
        self.t = 0

    def reset(self):
        self.bit = 1.0 if self.gen.random() < 0.5 else -1.0
        self.t = 0
        return np.array([self.bit])

    def step(self, action: ControlAction):
        self.t += 1
        if self.t == 1:
            return np.zeros(1), 0.0, False, {}
        reward = 1.0 if action.beta * self.bit > 0 else 0.0
        return np.zeros(1), reward, True, {}


def small_mlp(seed=0, obs_dim=1):
    return MlpActorCritic(obs_dim=obs_dim, n_action_outputs=1, hidden=(16, 16),
                          gen=RngStream(seed).substream("init").generator())


def collect_one(net, env_stream_seed, n_steps=64, obs_dim=1, env_cls=BanditEnv):
    cfg = PpoConfig(n_steps=n_steps, batch_size=n_steps, total_timesteps=n_steps)
    env = env_cls(RngStream(env_stream_seed).substream("env", 0))
    runner = _EnvRunner(env, net)
    gen = RngStream(env_stream_seed).substream("actions").generator()
    buffer = collect_rollout([runner], net, cfg, gen, obs_dim)
    compute_gae(buffer, cfg.gamma, cfg.gae_lambda)
    return buffer, cfg


class TestRatioIdentity:
    def test_ratios_are_one_right_after_collection(self):
        net = small_mlp()
        buffer, _ = collect_one(net, 3)
        heads, _, _ = net.forward(buffer.observations)
        lp_new = dist.squashed_log_prob(buffer.pre_squash, heads[:, 0], net.log_std)
        ratios = np.exp(lp_new - buffer.log_probs)
        np.testing.assert_allclose(ratios, 1.0, atol=1e-12)

    def test_recurrent_ratios_are_one(self):
        net = RecurrentActorCritic(obs_dim=1, n_action_outputs=2, hidden=(8,),
                                   lstm_hidden=8, gen=RngStream(1).generator())
        buffer, _ = collect_one(net, 4, env_cls=ParityEnv)
        for seg in buffer.segments:
            obs = buffer.observations[seg.start:seg.end][None, :, :]
            init = (
                tuple(part for part in seg.init_state)
                if seg.init_state is not None
                else tuple(np.zeros((1, 8)) for _ in range(4))
            )
            heads, _, _ = net.sequence_forward(obs, init)
            pre = buffer.pre_squash[seg.start:seg.end]
            stops = buffer.stops[seg.start:seg.end]
            lp = dist.squashed_log_prob(pre, heads[0, :, 0], net.log_std)
            lp = lp + dist.bernoulli_log_prob(stops, heads[0, :, 1])
            np.testing.assert_allclose(
                np.exp(lp - buffer.log_probs[seg.start:seg.end]), 1.0, atol=1e-12
            )


class TestSurrogateGradient:
    def test_matches_vanilla_policy_gradient_at_ratio_one(self):
        # with old == new parameters the clipped surrogate's gradient must equal
        # the plain policy-gradient estimator grad mean(A * log pi); the oracle
        # here is a finite difference of that objective
        net = small_mlp(seed=5)
        buffer, cfg = collect_one(net, 6)
        adv = buffer.advantages
        adv_norm = (adv - adv.mean()) / max(float(adv.std()), 1e-8)

        heads, _, cache = net.forward(buffer.observations)
        mean = heads[:, 0]
        lp_new = dist.squashed_log_prob(buffer.pre_squash, mean, net.log_std)
        ratio = np.exp(lp_new - buffer.log_probs)
        n = buffer.size
        dlp, _, _ = _policy_grad_coeff(ratio, adv_norm, cfg.clip_range, n)
        dmean, dlogstd_per = dist.squashed_log_prob_grads(
            buffer.pre_squash, mean, net.log_std
        )
        grads = zero_grads_like(net.params)
        net.backward(cache, (dlp * dmean)[:, None], np.zeros(n), grads)
        grads["log_std"] += np.sum(dlp * dlogstd_per)

        step = 1e-6
        for name in ("pi.w0", "pi.wh", "log_std"):
            value = net.params[name]
            it = np.nditer(value, flags=["multi_index"])
            while not it.finished:
                idx = it.multi_index
                orig = float(value[idx])

                def vanilla_loss():
                    h, _, _ = net.forward(buffer.observations)
                    lp = dist.squashed_log_prob(buffer.pre_squash, h[:, 0], net.log_std)
                    return -float(np.mean(adv_norm * lp))

                value[idx] = orig + step
                up = vanilla_loss()
                value[idx] = orig - step
                down = vanilla_loss()
                value[idx] = orig
                fd = (up - down) / (2 * step)
                assert grads[name][idx] == pytest.approx(fd, rel=1e-4, abs=1e-9)
                it.iternext()

    def test_zero_advantages_freeze_the_policy_trunk(self):
        net = small_mlp(seed=7)
        buffer, cfg = collect_one(net, 8)
        buffer.advantages = np.zeros(buffer.size)
        before = {k: v.copy() for k, v in net.params.items()}
        adam = Adam(learning_rate=0.05)
        _update_mlp_minibatch(net, buffer, np.arange(buffer.size), cfg, adam)
        for name in net.params:
            if name.startswith("pi.") or name == "log_std":
                np.testing.assert_array_equal(net.params[name], before[name])
            elif name.startswith("vf.w"):
                assert not np.array_equal(net.params[name], before[name])

    def test_clipped_samples_contribute_no_gradient(self):
        ratio = np.array([0.5, 1.0, 2.0])
        adv = np.array([1.0, 1.0, 1.0])
        dlp, _, _ = _policy_grad_coeff(ratio, adv, 0.2, 3)
        # ratio 2 with positive advantage is clipped at 1.2: no gradient
        assert dlp[2] == 0.0
        assert dlp[0] != 0.0  # ratio below 1-c with positive advantage still active


class TestSampleAction:
    def test_deterministic_uses_tanh_mean(self):
        action, _, pre, stop = sample_action(np.array([0.7]), 0.0, None, True, False)
        assert action.beta == pytest.approx(np.tanh(0.7))
        assert pre == 0.7 and stop is False

    def test_stop_sampling_rate(self):
        gen = np.random.default_rng(0)
        stops = [
            sample_action(np.array([0.0, 0.0]), 0.0, gen, False, True)[3]
            for _ in range(10_000)
        ]
        assert abs(np.mean(stops) - 0.5) <= 3 * 0.5 / 100

    def test_log_prob_is_joint(self):
        action, lp, pre, stop = sample_action(
            np.array([0.2, 1.5]), -0.3, np.random.default_rng(1), False, True
        )
        expected = dist.squashed_log_prob(pre, 0.2, -0.3) + dist.bernoulli_log_prob(
            1.0 if stop else 0.0, 1.5
        )
        assert lp == pytest.approx(float(expected), abs=1e-12)


class TestBanditConvergence:
    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_action_a_probability_reaches_095(self, seed):
        cfg = PpoConfig(
            n_steps=256, batch_size=256, learning_rate=0.01, total_timesteps=5000 // 256 * 256,
        )
        net = small_mlp(seed=seed)
        net, curve = train(
            "bandit", EnvConfig(), cfg, seed,
            env_factory=lambda stream: BanditEnv(stream), net=net,
        )
        assert cfg.total_timesteps <= 5000
        gen = np.random.default_rng(99)
        heads = net.step(np.ones(1), None)[0]
        wins = sum(
            sample_action(heads, net.log_std, gen, False, False)[0].beta > 0
            for _ in range(2000)
        )
        assert wins / 2000 >= 0.95


class TestTrainMechanics:
    def test_zero_timesteps_returns_initial_policy(self):
        cfg = PpoConfig(total_timesteps=0)
        net, curve = train("mbs", EnvConfig(epsilon=0.1), cfg, seed=4)
        reference = MlpActorCritic(
            obs_dim=9, hidden=cfg.hidden,
            gen=RngStream(4).substream("init").generator(),
        )
        assert curve == []
        for name in net.params:
            np.testing.assert_array_equal(net.params[name], reference.params[name])

    def test_identical_seeds_identical_checksums(self):
        cfg = PpoConfig(n_steps=128, batch_size=128, total_timesteps=512)
        sums = []
        for _ in range(2):
            net, _ = train("mbs", EnvConfig(epsilon=0.1, horizon=8), cfg, seed=21)
            sums.append(
                {k: float(np.sum(v)) for k, v in sorted(net.params.items())}
            )
        assert sums[0] == sums[1]

    def test_different_seeds_differ(self):
        cfg = PpoConfig(n_steps=128, batch_size=128, total_timesteps=512)
        a, _ = train("mbs", EnvConfig(epsilon=0.1, horizon=8), cfg, seed=1)
        b, _ = train("mbs", EnvConfig(epsilon=0.1, horizon=8), cfg, seed=2)
        assert any(
            not np.array_equal(a.params[k], b.params[k]) for k in a.params
        )

    def test_nan_loss_aborts_with_diagnostic(self):
        net = small_mlp(seed=9)
        buffer, cfg = collect_one(net, 10)
        buffer.advantages[0] = np.nan
        with pytest.raises(TrainingDiverged, match="non-finite"):
            ppo_update(net, buffer, cfg, Adam(learning_rate=0.01),
                       RngStream(9).substream("shuffle").generator())

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError, match="scenario"):
            train("sarsa", EnvConfig(), PpoConfig(total_timesteps=0), 0)

    def test_batch_size_cannot_exceed_rollout(self):
        with pytest.raises(ValueError, match="batch_size"):
            PpoConfig(n_steps=256, batch_size=512)

    def test_rates_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            PpoConfig(learning_rate=0.0)


class TestRecurrentMemory:
    def test_parity_task_beats_best_memoryless_policy(self):
        # best memoryless expected reward is exactly 0.5: the step-two
        # observation is constant, so any fixed action wins half the time
        best_memoryless = 0.5
        cfg = PpoConfig(
            n_steps=256, batch_size=256, learning_rate=0.01,
            total_timesteps=20 * 256, gamma=1.0,
        )
        net = RecurrentActorCritic(
            obs_dim=1, n_action_outputs=1, hidden=(16,), lstm_hidden=8,
            gen=RngStream(31).substream("init").generator(),
        )
        net, curve = train(
            "parity", EnvConfig(), cfg, 31,
            env_factory=lambda stream: ParityEnv(stream), net=net,
        )
        env = ParityEnv(RngStream(77))
        total = 0.0
        n = 1000
        for _ in range(n):
            obs = env.reset()
            state = net.initial_state()
            done = False
            while not done:
                heads, _, state = net.step(obs, state)
                action = sample_action(heads, net.log_std, None, True, False)[0]
                obs, reward, done, _ = env.step(action)
            total += reward
        assert total / n >= best_memoryless * 1.2
