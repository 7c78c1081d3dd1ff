"""PPO machinery: ratio identity, surrogate and update gradients, toy convergence."""

import logging
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qfclab.dynamics import EnvConfig
from qfclab.rl import distributions as dist
from qfclab.rl import nets, ppo
from qfclab.rl.buffer import compute_gae
from qfclab.rl.config import (
    CLIP_RANGE, GAE_LAMBDA, GAMMA, RECURRENT_LEARNING_RATE, VALUE_COEFF, PpoConfig,
)
from qfclab.rl.envs import ScenarioEnv
from qfclab.rl.nets import Adam, MlpActorCritic, RecurrentActorCritic, zero_grads_like
from qfclab.rl.ppo import (
    TrainingDiverged,
    _collect_stepwise,
    _EnvRunner,
    _policy_grad_coeff,
    _update_step,
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

    def step(self, beta: float, stop: bool):
        reward = 1.0 if beta > 0 else 0.0
        return np.ones(1), reward, True


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

    def step(self, beta: float, stop: bool):
        self.t += 1
        if self.t == 1:
            return np.zeros(1), 0.0, False
        reward = 1.0 if beta * self.bit > 0 else 0.0
        return np.zeros(1), reward, True


def small_mlp(seed=0, obs_dim=1):
    return MlpActorCritic(obs_dim=obs_dim, n_action_outputs=1, hidden=(16, 16),
                          gen=RngStream(seed).substream("init").generator())


def collect_one(net, env_stream_seed, n_steps=64, env_cls=BanditEnv):
    cfg = PpoConfig(n_steps=n_steps, total_timesteps=n_steps)
    env = env_cls(RngStream(env_stream_seed).substream("env", 0))
    runner = _EnvRunner(env, net)
    gen = RngStream(env_stream_seed).substream("actions").generator()
    return collect_rollout(runner, net, cfg, gen)


def segments(buffer):
    """The (start, end, start state) of each of the window's segments; the state is
    the segment's column of ``init_state``, as one recurrent step takes it."""
    ends = np.cumsum(buffer.lengths)
    return [(end - length, end, tuple(part[:, i:i + 1] for part in buffer.init_state))
            for i, (end, length) in enumerate(zip(ends, buffer.lengths))]


class TestRatioIdentity:
    def test_ratios_are_one_right_after_collection(self):
        net = small_mlp()
        buffer = collect_one(net, 3)
        heads, _, _ = net.forward(buffer.observations)
        lp_new = dist.squashed_log_prob(buffer.pre_squash, heads[:, 0], net.log_std)
        ratios = np.exp(lp_new - buffer.log_probs)
        np.testing.assert_allclose(ratios, 1.0, atol=1e-12)

    def test_recurrent_ratios_are_one(self):
        net = RecurrentActorCritic(obs_dim=1, n_action_outputs=2, hidden=(8,),
                                   lstm_hidden=8, gen=RngStream(1).generator())
        buffer = collect_one(net, 4, env_cls=ParityEnv)
        for start, end, state in segments(buffer):
            obs = buffer.observations[start:end]
            heads, _, _ = net.sequence_forward(obs, (len(obs),), state)
            pre = buffer.pre_squash[start:end]
            stops = buffer.stops[start:end]
            lp = dist.squashed_log_prob(pre, heads[:, 0], net.log_std)
            lp = lp + dist.bernoulli_log_prob(stops, heads[:, 1])
            np.testing.assert_allclose(
                np.exp(lp - buffer.log_probs[start:end]), 1.0, atol=1e-12
            )


class TestSurrogateGradient:
    def test_matches_vanilla_policy_gradient_at_ratio_one(self):
        # with old == new parameters the clipped surrogate's gradient must equal
        # the plain policy-gradient estimator grad mean(A * log pi); the oracle
        # here is a finite difference of that objective
        net = small_mlp(seed=5)
        buffer = collect_one(net, 6)
        adv = buffer.advantages
        adv_norm = (adv - adv.mean()) / max(float(adv.std()), 1e-8)

        heads, _, cache = net.forward(buffer.observations)
        mean = heads[:, 0]
        lp_new = dist.squashed_log_prob(buffer.pre_squash, mean, net.log_std)
        ratio = np.exp(lp_new - buffer.log_probs)
        n = buffer.size
        dlp, _, _ = _policy_grad_coeff(ratio, adv_norm, CLIP_RANGE, n)
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
        buffer = collect_one(net, 8)
        buffer = replace(buffer, advantages=np.zeros(buffer.size))
        before = {k: v.copy() for k, v in net.params.items()}
        adam = Adam(learning_rate=0.05)
        _update_step(net, buffer, adam)
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


class RecordingOptimizer:
    """Stands in for Adam: records the gradients and leaves the parameters alone."""

    def __init__(self):
        self.grads = None

    def step(self, params, grads):
        self.grads = {name: g.copy() for name, g in grads.items()}
        return 0.0


def reference_update_loss(net, buffer, batch):
    """policy_loss + c_v*value_loss, with the net stepped one row at a time.

    ``batch`` is buffer rows for an MLP and :func:`segments` for an LSTM; each
    segment replays from its recorded start state, so no padding is involved.
    """
    heads, values, rows = [], [], []
    if net.kind == "lstm":
        for start, end, state in batch:
            for t in range(start, end):
                h, v, state = net.step(buffer.observations[t], state)
                heads.append(h)
                values.append(v)
                rows.append(t)
    else:
        for t in batch:
            h, v, _ = net.step(buffer.observations[t], None)
            heads.append(h)
            values.append(v)
            rows.append(t)
    heads, values, rows = np.array(heads), np.array(values), np.array(rows)
    log_std = float(net.params["log_std"])
    lp = dist.squashed_log_prob(buffer.pre_squash[rows], heads[:, 0], log_std)
    if net.n_action_outputs == 2:
        p_stop = 1.0 / (1.0 + np.exp(-heads[:, 1]))
        stops = buffer.stops[rows]
        lp = lp + stops * np.log(p_stop) + (1.0 - stops) * np.log(1.0 - p_stop)
    adv = buffer.advantages[rows]
    adv = (adv - adv.mean()) / max(float(adv.std()), 1e-8)
    ratio = np.exp(lp - buffer.log_probs[rows])
    clipped = np.clip(ratio, 1.0 - CLIP_RANGE, 1.0 + CLIP_RANGE)
    policy_loss = -np.mean(np.minimum(ratio * adv, clipped * adv))
    value_loss = np.mean((values - buffer.returns[rows]) ** 2)
    return float(policy_loss + VALUE_COEFF * value_loss)


class TestUpdateGradient:
    """The gradients the real update step hands its optimizer, at ratio one."""

    @staticmethod
    def second_window(net, kind, seed):
        # the second rollout window of one runner: its first segment starts
        # from a carried recurrent state, not from zeros
        cfg = PpoConfig(n_steps=32, total_timesteps=64)
        env = ScenarioEnv(kind, EnvConfig(epsilon=0.1, horizon=6), RngStream(seed))
        runner = _EnvRunner(env, net)
        gen = RngStream(seed).substream("actions").generator()
        collect_rollout(runner, net, cfg, gen)
        return collect_rollout(runner, net, cfg, gen)

    @pytest.mark.parametrize("case", ["mlp", "mlp_stop", "lstm_stop"])
    def test_matches_central_differences_of_the_loss(self, case):
        gen = RngStream(50).substream(case).generator()
        if case == "lstm_stop":
            net = RecurrentActorCritic(obs_dim=2, n_action_outputs=2, hidden=(4,),
                                       lstm_hidden=3, gen=gen)
            kind = "qomdp"
        else:
            net = MlpActorCritic(obs_dim=9, n_action_outputs=1 if case == "mlp" else 2,
                                 hidden=(4, 4), gen=gen)
            kind = "mbs"
        net.params["pi.wh"] *= 30.0  # heads away from zero: stops of both kinds
        buffer = self.second_window(net, kind, 51)
        if net.kind == "lstm":
            batch = segments(buffer)
            assert np.any(buffer.init_state[0][:, 0] != 0.0)
        else:
            batch = np.arange(buffer.size)
        if net.n_action_outputs == 2:
            assert 0.0 < buffer.stops.mean() < 1.0

        before = {name: v.copy() for name, v in net.params.items()}
        optimizer = RecordingOptimizer()
        _update_step(net, buffer, optimizer)
        for name in net.params:
            np.testing.assert_array_equal(net.params[name], before[name])

        step = 1e-6
        worst = 0.0
        for name, value in net.params.items():
            it = np.nditer(value, flags=["multi_index"])
            while not it.finished:
                idx = it.multi_index
                orig = float(value[idx])
                value[idx] = orig + step
                up = reference_update_loss(net, buffer, batch)
                value[idx] = orig - step
                down = reference_update_loss(net, buffer, batch)
                value[idx] = orig
                fd = (up - down) / (2 * step)
                grad = float(optimizer.grads[name][idx])
                worst = max(worst, abs(grad - fd) / (1e-6 + abs(fd)))
                it.iternext()
        assert worst <= 1e-4


class TestPackedWork:
    def test_recurrent_update_computes_only_live_rows(self, monkeypatch):
        # a padded (n_seq x max length) grid would step and run the trunks on
        # more rows than the segments hold
        net = RecurrentActorCritic(obs_dim=2, n_action_outputs=2, hidden=(4,), lstm_hidden=3,
                                   gen=RngStream(60).generator())
        buffer = TestUpdateGradient.second_window(net, "qomdp", 61)
        lengths = buffer.lengths
        assert len(set(lengths)) > 1

        trunk_rows, caches = [], []
        mlp_forward = nets._mlp_forward
        sequence_forward = RecurrentActorCritic.sequence_forward

        def counting_mlp_forward(params, prefix, n_hidden, x, *scratch):
            trunk_rows.append(len(x))
            return mlp_forward(params, prefix, n_hidden, x, *scratch)

        def recording_sequence_forward(self, *args):
            out = sequence_forward(self, *args)
            caches.append(out[2])
            return out

        monkeypatch.setattr(nets, "_mlp_forward", counting_mlp_forward)
        monkeypatch.setattr(RecurrentActorCritic, "sequence_forward", recording_sequence_forward)
        _update_step(net, buffer, RecordingOptimizer())
        assert trunk_rows == [sum(lengths), sum(lengths)]  # policy and value trunks
        (cache,) = caches
        assert sum(cache.alive) == cache.gates.shape[1] == sum(lengths)  # LSTM row-steps


class TestRecurrentStateIsOnlyRead:
    def test_rollouts_and_updates_leave_every_state_array_as_handed_out(self, monkeypatch):
        # the packed update writes into reused buffers: a start state taken in
        # as one of them would change under the segment that holds it
        net = RecurrentActorCritic(obs_dim=2, n_action_outputs=2,
                                   gen=RngStream(70).substream("init").generator())
        handed_out = []  # every state array handed out, with its bytes at that moment
        initial_state, step = net.initial_state, net.step

        def recording_initial_state():
            state = initial_state()
            handed_out.extend((a, a.tobytes()) for a in state)
            return state

        def recording_step(obs, state):
            heads, value, new_state = step(obs, state)
            handed_out.extend((a, a.tobytes()) for a in new_state)
            return heads, value, new_state

        monkeypatch.setattr(net, "initial_state", recording_initial_state)
        monkeypatch.setattr(net, "step", recording_step)
        cfg = PpoConfig(n_steps=128, total_timesteps=256)
        runner = _EnvRunner(ScenarioEnv("qomdp", EnvConfig(epsilon=0.1), RngStream(71)), net)
        sample_gen = RngStream(72).substream("actions").generator()
        adam = Adam(RECURRENT_LEARNING_RATE)
        for _ in range(2):  # the second window starts from a carried state
            buffer = collect_rollout(runner, net, cfg, sample_gen)
            held = [(a, a.tobytes()) for a in buffer.init_state]
            ppo_update(net, buffer, adam)
            assert all(a.tobytes() == before for a, before in held)
        assert np.any(buffer.init_state[0][:, 0] != 0.0)
        assert len(handed_out) > 2 * 256
        assert all(a.tobytes() == before for a, before in handed_out)


class TestWindowRecord:
    def test_a_carried_over_qomdp_window_is_complete(self):
        # the second window of one runner continues the first one's last episode
        net = RecurrentActorCritic(obs_dim=2, n_action_outputs=2, hidden=(4,), lstm_hidden=3,
                                   gen=RngStream(82).generator())
        cfg = PpoConfig(n_steps=32, total_timesteps=64)
        runner = _EnvRunner(ScenarioEnv("qomdp", EnvConfig(epsilon=0.1, horizon=6),
                                        RngStream(83)), net)
        gen = RngStream(83).substream("actions").generator()
        collect_rollout(runner, net, cfg, gen)
        carried = runner.state
        buffer = collect_rollout(runner, net, cfg, gen)
        assert np.any(carried[0] != 0.0)
        assert buffer.lengths.sum() == buffer.size == cfg.n_steps
        assert all(part.shape == (2, len(buffer.lengths), 3) for part in buffer.init_state)
        for part, carried_part in zip(buffer.init_state, carried):
            assert part[:, :1].tobytes() == carried_part.tobytes()
        bootstrap = net.step(runner.obs, runner.state)[1]
        advantages, returns = compute_gae(buffer.rewards, buffer.values, buffer.dones,
                                          bootstrap, GAMMA, GAE_LAMBDA)
        assert buffer.advantages.tobytes() == advantages.tobytes()
        assert buffer.returns.tobytes() == returns.tobytes()


BUFFER_ARRAYS = ("observations", "pre_squash", "stops", "log_probs", "rewards", "values",
                 "dones", "advantages", "returns", "lengths")


class TestStackedRollout:
    """An mbs or dbs window stepped as one stack against the stepwise loop, its oracle."""

    @given(seed=st.integers(0, 2**64 - 1), n=st.integers(0, 600))
    def test_one_normal_array_equals_the_scalar_draws(self, seed, n):
        # the stacked window draws its action normals at once; the stepwise
        # loop draws them one per step
        whole, single = RngStream(seed).generator(), RngStream(seed).generator()
        draws = whole.standard_normal(n)
        assert draws.tobytes() == np.array([single.standard_normal() for _ in range(n)]).tobytes()
        assert whole.bit_generator.state == single.bit_generator.state

    @pytest.mark.parametrize("horizon", [1, 20])
    @pytest.mark.parametrize("n_steps", [1, 7, 20, 33, 512])
    @pytest.mark.parametrize("noise", ["depolarizing", "amplitude_damping", "random_permutation"])
    @pytest.mark.parametrize("kind", ["mbs", "dbs"])
    def test_three_windows_match_the_stepwise_loop(self, kind, noise, n_steps, horizon):
        # 7 steps cut a 20-step episode, 20 end on one, 33 carry 13 steps over
        env_cfg = EnvConfig(noise_kind=noise, alpha=0.4, epsilon=0.1, horizon=horizon)
        cfg = PpoConfig(n_steps=n_steps, total_timesteps=n_steps)
        net = MlpActorCritic(obs_dim=9, gen=RngStream(60).substream(kind).generator())
        stacked, stepwise = (
            _EnvRunner(ScenarioEnv(kind, env_cfg, RngStream(61)), net) for _ in range(2)
        )
        stacked.env.step = None  # the stacked path never steps one transition
        stacked_gen, stepwise_gen = (RngStream(62).generator() for _ in range(2))
        for _ in range(3):
            got = collect_rollout(stacked, net, cfg, stacked_gen)
            want = _collect_stepwise(stepwise, net, stepwise_gen, n_steps)
            assert got.size == want.size == n_steps
            for name in BUFFER_ARRAYS:
                assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
            assert got.init_state is want.init_state is None
            assert stacked.env.episode_index == stepwise.env.episode_index
            assert stacked.obs.tobytes() == stepwise.obs.tobytes()
            assert stacked.env._loop.t == stepwise.env._loop.t
            assert stacked.env._loop.rho.tobytes() == stepwise.env._loop.rho.tobytes()
            assert stacked_gen.bit_generator.state == stepwise_gen.bit_generator.state

    def test_a_qomdp_window_is_refused(self):
        env = ScenarioEnv("qomdp", EnvConfig(), RngStream(63))
        env.reset()
        with pytest.raises(ValueError, match="qomdp"):
            env.step_window(8, lambda positions, obs: np.zeros(len(positions)))


class TestSampleAction:
    def test_stop_sampling_rate(self):
        gen = np.random.default_rng(0)
        stops = [
            sample_action(np.array([0.0, 0.0]), 0.0, gen, True)[1]
            for _ in range(10_000)
        ]
        assert abs(np.mean(stops) - 0.5) <= 3 * 0.5 / 100

    def test_log_prob_is_joint(self):
        _, stop, lp, pre = sample_action(
            np.array([0.2, 1.5]), -0.3, np.random.default_rng(1), True
        )
        expected = dist.squashed_log_prob(pre, 0.2, -0.3) + dist.bernoulli_log_prob(
            1.0 if stop else 0.0, 1.5
        )
        assert lp == pytest.approx(float(expected), abs=1e-12)


class TestBanditConvergence:
    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_action_a_probability_reaches_095(self, seed):
        cfg = PpoConfig(
            n_steps=256, learning_rate=0.01, total_timesteps=5000 // 256 * 256,
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
            sample_action(heads, net.log_std, gen, False)[0] > 0
            for _ in range(2000)
        )
        assert wins / 2000 >= 0.95


class TestTrainMechanics:
    def test_zero_timesteps_returns_initial_policy(self):
        cfg = PpoConfig(total_timesteps=0)
        net, curve = train("mbs", EnvConfig(epsilon=0.1), cfg, seed=4)
        reference = MlpActorCritic(obs_dim=9, gen=RngStream(4).substream("init").generator())
        assert curve == []
        for name in net.params:
            np.testing.assert_array_equal(net.params[name], reference.params[name])

    def test_identical_seeds_identical_checksums(self):
        cfg = PpoConfig(n_steps=128, total_timesteps=512)
        sums = []
        for _ in range(2):
            net, _ = train("mbs", EnvConfig(epsilon=0.1, horizon=8), cfg, seed=21)
            sums.append(
                {k: float(np.sum(v)) for k, v in sorted(net.params.items())}
            )
        assert sums[0] == sums[1]

    def test_different_seeds_differ(self):
        cfg = PpoConfig(n_steps=128, total_timesteps=512)
        a, _ = train("mbs", EnvConfig(epsilon=0.1, horizon=8), cfg, seed=1)
        b, _ = train("mbs", EnvConfig(epsilon=0.1, horizon=8), cfg, seed=2)
        assert any(
            not np.array_equal(a.params[k], b.params[k]) for k in a.params
        )

    def test_nan_loss_aborts_with_diagnostic(self):
        net = small_mlp(seed=9)
        buffer = collect_one(net, 10)
        advantages = buffer.advantages.copy()
        advantages[0] = np.nan
        buffer = replace(buffer, advantages=advantages)
        with pytest.raises(TrainingDiverged, match="non-finite"):
            ppo_update(net, buffer, Adam(learning_rate=0.01))

    def test_each_update_logs_its_time_split(self, caplog):
        cfg = PpoConfig(n_steps=128, total_timesteps=384)
        with caplog.at_level(logging.DEBUG, logger="qfclab.rl.ppo"):
            train("mbs", EnvConfig(epsilon=0.1, horizon=8), cfg, seed=3)
        lines = [r.getMessage() for r in caplog.records
                 if r.name == "qfclab.rl.ppo" and r.levelno == logging.DEBUG]
        assert len(lines) == 3
        for update, line in enumerate(lines):
            assert re.fullmatch(rf"update {update}: rollout \d+\.\d{{3}} s, "
                                rf"update \d+\.\d{{3}} s, \d+ timesteps/s", line), line

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError, match="scenario"):
            train("sarsa", EnvConfig(), PpoConfig(total_timesteps=0), 0)

    @pytest.mark.parametrize("scenario, message", [
        ("basic", "scenario 'basic' is a fixed controller, with no agent to train"),
        ("sarsa", "unknown scenario kind 'sarsa'"),
    ])
    def test_scenario_without_agent_refused_before_a_net_is_built(self, monkeypatch, scenario,
                                                                   message):
        def fail(*args):
            raise AssertionError("a net was built")

        monkeypatch.setattr(ppo, "_make_net", fail)
        with pytest.raises(ValueError, match=message):
            train(scenario, EnvConfig(), PpoConfig(total_timesteps=0), 0)

    @pytest.mark.parametrize(
        "field, value",
        [("total_timesteps", -5), ("n_steps", 0), ("total_timesteps", 1),
         ("total_timesteps", 511)],
    )
    def test_out_of_range_counts_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            PpoConfig(**{field: value})

    def test_rates_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            PpoConfig(learning_rate=0.0)


class TestRecurrentMemory:
    def test_parity_task_beats_best_memoryless_policy(self):
        # best memoryless expected reward is exactly 0.5: the step-two
        # observation is constant, so any fixed action wins half the time
        best_memoryless = 0.5
        cfg = PpoConfig(
            n_steps=256, learning_rate=0.01, total_timesteps=20 * 256,
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
                obs, reward, done = env.step(float(np.tanh(heads[0])), False)
            total += reward
        assert total / n >= best_memoryless * 1.2
