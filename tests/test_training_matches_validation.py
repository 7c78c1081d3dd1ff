"""Training and validation step the same closed loop.

A training environment driven by a policy's deterministic actions, on the
uniforms a validation episode draws, must observe exactly what that episode
records: the filtered (or, noise-free, the true) states of an MLP, the
outcomes and controls of an LSTM, and the step at which a stop ends it.
"""

import numpy as np
import pytest

from qfclab.controllers import policy_act
from qfclab.dynamics import (
    TARGET_INDEX,
    EnvConfig,
    encode_outcome_observation,
    encode_state_observation,
    run_episodes,
)
from qfclab.qcore import fidelity_pure_target
from qfclab.rl.envs import ScenarioEnv
from qfclab.rl.nets import MlpActorCritic, RecurrentActorCritic
from qfclab.rngstream import RngStream

EPISODES = 12


def episode_pairs(kind, policy, cfg, seed):
    """The training environment and the validation batch of the same episodes:
    episode k of both draws from the environment stream's ("episode", k)."""
    stream = RngStream(seed)
    env = ScenarioEnv(kind, cfg, stream)
    streams = [stream.substream("episode", k) for k in range(EPISODES)]
    (batch,) = run_episodes(policy, env.cfg, streams)
    return env, batch


@pytest.mark.parametrize("kind, alpha", [("dbs", 0.0), ("dbs", 0.3), ("mbs", 0.0)])
@pytest.mark.parametrize("noise", ["depolarizing", "amplitude_damping", "random_permutation"])
def test_mlp_training_sees_the_validation_filter(kind, alpha, noise):
    cfg = EnvConfig(noise_kind=noise, alpha=alpha, epsilon=0.15, horizon=8)
    net = MlpActorCritic(obs_dim=9, hidden=(16, 16), gen=np.random.default_rng(4))
    net.params["pi.wh"] *= 30.0  # actions well inside (-1, 1), far from 0
    env, batch = episode_pairs(kind, net, cfg, seed=41)
    assert not batch.aborted.any() and (batch.stop_step == -1).all()
    # at alpha = 0 the validation filter equals the truth, which mbs shows unfiltered
    seen = batch.aux_states if kind == "dbs" else batch.true_states
    for k in range(EPISODES):
        obs = env.reset()
        assert obs.tobytes() == encode_state_observation(cfg.initial_state).tobytes()
        for t in range(cfg.horizon):
            action, _ = policy_act(net, obs)
            assert action.beta == batch.betas[k, t]
            obs, reward, done = env.step(action)
            assert obs.tobytes() == encode_state_observation(seen[k, t]).tobytes()
            assert reward == fidelity_pure_target(seen[k, t], TARGET_INDEX)
            assert done == (t + 1 == cfg.horizon)


def test_qomdp_training_sees_the_validation_outcomes_and_stops():
    cfg = EnvConfig(alpha=0.0, epsilon=0.1, horizon=8)
    net = RecurrentActorCritic(obs_dim=2, n_action_outputs=2, hidden=(16,), lstm_hidden=8,
                               gen=np.random.default_rng(7))
    net.params["pi.wh"] *= 30.0  # makes the stop head fire in some episodes
    env, batch = episode_pairs("qomdp", net, cfg, seed=43)
    stops = 0
    for k in range(EPISODES):
        # the forced beta = 0 first step: the first observation is a real outcome
        obs = env.reset()
        assert obs.tobytes() == encode_outcome_observation(batch.outcomes[k, 0], 0.0).tobytes()
        t, state, done = 1, None, False
        while not done:
            action, state = policy_act(net, obs, state)
            obs, reward, done = env.step(action)
            if action.stop:
                assert done and batch.stop_step[k] == t
                assert reward == (1.0 if batch.terminal_outcome[k] == TARGET_INDEX else -1.0)
                stops += 1
                break
            assert action.beta == batch.betas[k, t]
            want = encode_outcome_observation(batch.outcomes[k, t], batch.betas[k, t])
            assert obs.tobytes() == want.tobytes()
            t += 1
            assert reward == (-1.0 if done else 0.0)
        else:
            assert batch.stop_step[k] == -1 and t == cfg.horizon
    assert 0 < stops < EPISODES  # both stopped and timed-out episodes occur
