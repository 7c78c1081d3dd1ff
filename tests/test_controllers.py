"""Unit tests for the policy interface and the analytic basic controller."""

import numpy as np
import pytest

from qfclab.controllers import (
    ControlAction,
    basic_policy,
    believed_outcome,
    derive_basic_gains,
    policy_act,
    transfer_probability,
)
from qfclab.dynamics import ClosedLoop, EnvConfig
from qfclab.qcore import basis_state, maximally_mixed
from qfclab.rl.encoding import encode_outcome_observation, encode_state_observation
from qfclab.rl.nets import MlpActorCritic
from qfclab.rngstream import RngStream


class TestBasicPolicy:
    def test_outcome_two_holds_still(self):
        action, _ = policy_act(basic_policy(), 2)
        assert action.beta == 0.0
        assert action.stop is False

    def test_outcome_zero_drives_full_pulse(self):
        action, _ = policy_act(basic_policy(), 0)
        assert action.beta == 1.0

    def test_outcome_one_drives_full_pulse(self):
        action, _ = policy_act(basic_policy(), 1)
        assert action.beta == 1.0

    def test_memoryless_in_history(self):
        # a table observes the most recent outcome alone, whatever control preceded it
        p = basic_policy()
        cfg = EnvConfig(epsilon=0.3, horizon=4)
        for seed, last_beta in enumerate((-1.0, 0.0, 0.5)):
            loop = ClosedLoop("table", cfg, RngStream(seed).generator().random(cfg.horizon))
            assert loop.observation() == 0  # the believed outcome of |0> before any step
            loop.step(last_beta)
            assert loop.observation() == loop.outcome
            action, _ = policy_act(p, loop.observation())
            assert action.beta == p.beta_by_outcome[loop.outcome]


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


class TestControlAction:
    def test_out_of_range_beta_rejected(self):
        with pytest.raises(ValueError, match="beta"):
            ControlAction(beta=1.0001)

    def test_stop_defaults_false(self):
        assert ControlAction(beta=0.3).stop is False


class TestNetworkPolicies:
    def test_mlp_reads_the_filtered_state_not_the_outcome_pair(self):
        net = MlpActorCritic(obs_dim=9, gen=np.random.default_rng(3))
        cfg = EnvConfig()
        actions = []
        for outcome, beta in ((0, 0.0), (2, -1.0)):
            loop = ClosedLoop("mlp", cfg, np.zeros(cfg.horizon))
            loop.seen, loop.outcome, loop.beta = maximally_mixed(), outcome, beta
            obs = loop.observation()
            assert obs.tobytes() == encode_state_observation(maximally_mixed()).tobytes()
            actions.append(policy_act(net, obs)[0])
        assert actions[0].beta == actions[1].beta

    def test_mlp_without_filtered_state_rejected(self):
        net = MlpActorCritic(obs_dim=9, gen=np.random.default_rng(3))
        with pytest.raises(ValueError):  # the outcome pair is no 9-entry state
            policy_act(net, encode_outcome_observation(0, 0.0))


class TestBelievedOutcome:
    def test_basis_states(self):
        for k in range(3):
            assert believed_outcome(basis_state(k)) == k

    def test_dominant_level_of_mixture(self):
        assert believed_outcome(np.diag([0.2, 0.7, 0.1]).astype(complex)) == 1
