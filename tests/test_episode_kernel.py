"""Batch invariance of the episode kernel, against a one-state-at-a-time reference.

The fidelity curve and abort flag of every episode of a :func:`run_episodes`
stack must equal, bit for bit, those of the same episode run alone, and those
of :func:`oracles.reference_episode` (the scalar loop the kernel replaced,
with its linear-scan sampler and scalar policy step).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfclab.controllers import BasicTable, basic_policy
from qfclab.dynamics import EnvConfig, filter_update, run_episodes, step_true
from qfclab.rl.nets import MlpActorCritic, RecurrentActorCritic
from qfclab.rngstream import RngStream

from oracles import random_densities, reference_episode


def _random_policy(kind, seed, scale):
    gen = np.random.default_rng(seed)
    if kind == "basic":
        return basic_policy()
    if kind == "table":
        return BasicTable(beta_by_outcome=tuple(gen.uniform(-1.0, 1.0, 3)))
    if kind == "mlp":
        net = MlpActorCritic(obs_dim=9, hidden=(16, 16), gen=gen)
        net.params["pi.wh"] *= scale  # 0 pins beta at exactly 0: filter divergence at epsilon 0
        return net
    net = RecurrentActorCritic(obs_dim=2, n_action_outputs=2, hidden=(16,), lstm_hidden=8, gen=gen)
    net.params["pi.wh"] *= scale  # large scales make the stop head fire
    return net


episodes = st.fixed_dictionaries({
    "policy_seed": st.integers(0, 2**16),
    "scale": st.sampled_from([0.0, 1.0, 30.0, 300.0]),
    "noise": st.sampled_from(["depolarizing", "amplitude_damping", "random_permutation"]),
    "alpha": st.one_of(st.sampled_from([0.3, 0.05, 1.0]), st.floats(0.0, 1.0)),
    "epsilon": st.sampled_from([0.0, 0.1, 0.3]),
    "horizon": st.integers(1, 8),
    "seed": st.integers(0, 2**32),
    "n": st.integers(1, 12),
})


@pytest.mark.parametrize("kind", ["basic", "table", "mlp", "lstm"])
@settings(max_examples=150)
@given(case=episodes)
def test_each_batched_episode_equals_it_run_alone_and_the_reference_loop(kind, case):
    policy = _random_policy(kind, case["policy_seed"], case["scale"])
    cfg = EnvConfig(
        noise_kind=case["noise"], alpha=case["alpha"], epsilon=case["epsilon"],
        horizon=case["horizon"],
    )
    fidelity, aborted = run_episodes(policy, cfg, case["seed"], range(case["n"]), cfg.alpha)
    for i in range(case["n"]):
        alone_fidelity, alone_aborted = run_episodes(policy, cfg, case["seed"], [i], cfg.alpha)
        assert np.array_equal(fidelity[i], alone_fidelity[0], equal_nan=True)
        assert aborted[i] == alone_aborted[0]

        reference = reference_episode(policy, cfg, RngStream(case["seed"], i))
        assert aborted[i] == reference.aborted
        if reference.aborted:
            continue
        assert fidelity[i].tobytes() == reference.fidelity.tobytes()


@pytest.mark.parametrize("kind", ["basic", "mlp", "lstm"])
@settings(max_examples=60)
@given(case=episodes,
       alphas=st.lists(st.one_of(st.sampled_from([0.0, 0.3]), st.floats(0.0, 1.0)),
                       min_size=1, max_size=12))
def test_each_episode_of_a_mixed_alpha_batch_equals_it_run_alone_at_its_alpha(kind, case, alphas):
    # an mlp batch with any alpha > 0 filters its alpha-0 rows too
    policy = _random_policy(kind, case["policy_seed"], case["scale"])
    cfg = EnvConfig(
        noise_kind=case["noise"], alpha=case["alpha"], epsilon=case["epsilon"],
        horizon=case["horizon"],
    )
    fidelity, aborted = run_episodes(policy, cfg, case["seed"], range(len(alphas)), alphas)
    for i, alpha in enumerate(alphas):
        alone_fidelity, alone_aborted = run_episodes(
            policy, cfg, case["seed"], [i], alpha)
        assert aborted[i] == alone_aborted[0]
        if not alone_aborted[0]:
            assert fidelity[i].tobytes() == alone_fidelity[0].tobytes()


@settings(max_examples=60)
@given(case=episodes,
       rows=st.lists(st.tuples(st.one_of(st.sampled_from([0.0, -0.0, 0.5]), st.floats(-1.0, 1.0)),
                               st.one_of(st.sampled_from([0.0, 0.3]), st.floats(0.0, 1.0)),
                               st.floats(0.0, 1.0, exclude_max=True)),
                     min_size=1, max_size=12))
def test_each_state_of_a_mixed_beta_stack_steps_as_it_does_alone(case, rows):
    # a row at beta 0 skips the control (U_0 = I) while the others rotate
    cfg = EnvConfig(noise_kind=case["noise"], alpha=case["alpha"], epsilon=case["epsilon"])
    betas, alphas, draws = (np.array(column) for column in zip(*rows))
    states = random_densities(case["seed"], len(rows))
    stepped, outcomes = step_true(states, betas, cfg, draws, alphas)
    filtered = filter_update(states, betas, outcomes, cfg)
    for i, (beta, alpha, u) in enumerate(rows):
        alone, outcome = step_true(states[i], beta, cfg, u, alpha)
        assert outcome == outcomes[i]
        assert stepped[i].tobytes() == alone.tobytes()
        assert filtered[i].tobytes() == filter_update(states[i], beta, outcome, cfg).tobytes()
