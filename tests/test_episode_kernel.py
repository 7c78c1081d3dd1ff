"""Batch invariance of the episode kernel, against a one-state-at-a-time reference.

The fidelity curve and abort flag of every episode of a :func:`run_episodes`
batch must equal, bit for bit, those of the same episode run alone, and those
of :func:`oracles.reference_episode` (the scalar loop the kernel replaced,
with its linear-scan sampler and scalar policy step).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfclab.controllers import BasicTable, basic_policy
from qfclab.dynamics import EnvConfig, run_episodes
from qfclab.rl.nets import MlpActorCritic, RecurrentActorCritic
from qfclab.rngstream import RngStream

from oracles import reference_episode


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
    streams = [RngStream(case["seed"], i) for i in range(case["n"])]
    (batch,) = run_episodes(policy, cfg, streams)
    for i, stream in enumerate(streams):
        (alone,) = run_episodes(policy, cfg, [stream])
        assert np.array_equal(batch.fidelity[i], alone.fidelity[0], equal_nan=True)
        assert batch.aborted[i] == alone.aborted[0]

        reference = reference_episode(policy, cfg, stream)
        assert batch.aborted[i] == reference.aborted
        if reference.aborted:
            continue
        assert batch.fidelity[i].tobytes() == reference.fidelity.tobytes()
