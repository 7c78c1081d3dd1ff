"""End-to-end training smokes for the three scenarios (reduced budgets).

The full-budget model-based run lives in the acceptance suite; these verify
that each scenario's training loop actually learns on its own environment.
"""

import numpy as np

from qfclab.dynamics import EnvConfig, run_episode
from qfclab.rl.ppo import default_ppo_config, train
from qfclab.rngstream import RngStream


def reward_trend(curve):
    rewards = [r["mean_episode_reward"] for r in curve if np.isfinite(r["mean_episode_reward"])]
    quarter = max(1, len(rewards) // 4)
    return float(np.mean(rewards[:quarter])), float(np.mean(rewards[-quarter:]))


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
        trace = run_episode(net, env_cfg, RngStream(1, 0), "filtered_state")
        assert len(trace.records) == env_cfg.horizon


class TestQomdpTraining:
    def test_trained_agent_stops_on_target(self):
        # noiseless validation: the agent should stop with the terminal
        # measurement reading the target level in at least 80% of episodes
        env_cfg = EnvConfig(noise_kind="depolarizing", alpha=0.0, epsilon=0.1, horizon=20)
        cfg = default_ppo_config("qomdp", total_timesteps=120 * 512)
        policy, curve = train("qomdp", env_cfg, cfg, seed=777)
        on_target = 0
        stopped = 0
        for i in range(200):
            trace = run_episode(policy, env_cfg, RngStream(555, i), "outcome_history")
            if trace.stop_step is not None:
                stopped += 1
                on_target += trace.terminal_outcome == 2
        assert on_target / 200 >= 0.80
        # the trace records where the stop happened and what the terminal read
        assert stopped > 0
