"""Unit tests for the policy interface and the analytic basic controller."""

import numpy as np
import pytest

from qfclab.channels import ParameterError
from qfclab.controllers import (
    BasicTable,
    basic_policy,
    policy_act,
)
from qfclab.dynamics import (
    ClosedLoop,
    EnvConfig,
    encode_outcome_observation,
    encode_state_observation,
)
from qfclab.rl.envs import ScenarioEnv
from qfclab.rl.nets import MlpActorCritic
from qfclab.rngstream import RngStream

from oracles import derive_basic_gains, maximally_mixed, transfer_probability


class TestBasicPolicy:
    def test_outcome_two_holds_still(self):
        beta, stop, _ = policy_act(basic_policy(), 2)
        assert beta == 0.0
        assert stop is False

    def test_outcome_zero_drives_full_pulse(self):
        beta, _, _ = policy_act(basic_policy(), 0)
        assert beta == 1.0

    def test_outcome_one_drives_full_pulse(self):
        beta, _, _ = policy_act(basic_policy(), 1)
        assert beta == 1.0

    def test_memoryless_in_history(self):
        # a table observes the most recent outcome alone, whatever control preceded it
        p = basic_policy()
        cfg = EnvConfig(epsilon=0.3, horizon=4)
        for seed, last_beta in enumerate((-1.0, 0.0, 0.5)):
            loop = ClosedLoop("table", cfg, RngStream(seed).generator().random(cfg.horizon),
                              cfg.alpha)
            assert loop.observation() == 0  # the believed outcome of |0> before any step
            loop.step(last_beta)
            assert loop.observation() == loop.outcome
            beta, _, _ = policy_act(p, loop.observation())
            assert beta == p.beta_by_outcome[loop.outcome]


class TestDeriveBasicGains:
    def test_argmax_is_one_one(self):
        assert derive_basic_gains(201) == (1.0, 1.0)

    def test_argmax_stable_across_grid_densities(self):
        for points in (21, 41, 101, 501):
            assert derive_basic_gains(points) == (1.0, 1.0)

    def test_objective_values_at_optimum(self):
        # ((1 - cos sqrt(2))/2)^2 and (sin(sqrt 2)/sqrt 2)^2 from the Taylor oracle
        s = np.sqrt(2.0)
        assert transfer_probability(1.0, 0) == pytest.approx(((1 - np.cos(s)) / 2) ** 2, abs=1e-9)
        assert transfer_probability(1.0, 0) == pytest.approx(0.17811, abs=1e-5)
        assert transfer_probability(1.0, 1) == pytest.approx(np.sin(s) ** 2 / 2.0, abs=1e-9)
        assert transfer_probability(1.0, 1) == pytest.approx(0.48784, abs=1e-5)

    def test_degenerate_grid_raises(self):
        with pytest.raises(ValueError, match="grid"):
            derive_basic_gains(2)


class TestControlRange:
    """A control is plain (beta, stop); the loop refuses a beta outside [-1, 1] as it applies it."""

    def test_an_environment_step_refuses_it(self):
        env = ScenarioEnv("dbs", EnvConfig(alpha=0.3), RngStream(5))
        env.reset()
        with pytest.raises(ParameterError, match="beta"):
            env.step(1.0001, False)

    def test_a_stack_row_refuses_it(self):
        cfg = EnvConfig(horizon=4)
        loop = ClosedLoop("table", cfg, RngStream(6).generator().random((3, cfg.horizon)), 0.0)
        with pytest.raises(ParameterError, match="beta"):
            loop.step(np.array([0.5, 1.0001, -1.0]))

    def test_a_table_refuses_it(self):
        with pytest.raises(ValueError, match="outside"):
            BasicTable(beta_by_outcome=(1.0, 1.0001, 0.0))


class TestNetworkPolicies:
    def test_mlp_reads_the_filtered_state_not_the_outcome_pair(self):
        net = MlpActorCritic(obs_dim=9, gen=np.random.default_rng(3))
        cfg = EnvConfig()
        actions = []
        for outcome, beta in ((0, 0.0), (2, -1.0)):
            loop = ClosedLoop("mlp", cfg, np.zeros(cfg.horizon), cfg.alpha)
            loop.seen, loop.outcome, loop.beta = maximally_mixed(), outcome, beta
            obs = loop.observation()
            assert obs.tobytes() == encode_state_observation(maximally_mixed()).tobytes()
            actions.append(policy_act(net, obs)[0])
        assert actions[0] == actions[1]

    def test_mlp_without_filtered_state_rejected(self):
        net = MlpActorCritic(obs_dim=9, gen=np.random.default_rng(3))
        with pytest.raises(ValueError):  # the outcome pair is no 9-entry state
            policy_act(net, encode_outcome_observation(0, 0.0))
