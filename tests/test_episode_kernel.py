"""Batch invariance of the episode kernel, against a one-state-at-a-time reference.

Every episode of a :func:`run_episodes` batch must equal, bit for bit, the same
episode run alone, and the per-episode loop below (the scalar loop the
kernel replaced, with its linear-scan sampler and scalar policy step).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfclab.channels import (
    ConditioningError,
    apply_channel,
    condition_on_outcome,
    control_unitary,
    imprecise_measurement,
    make_channel,
    outcome_probabilities,
    terminal_measurement,
)
from qfclab.controllers import BasicTable, basic_policy, believed_outcome
from qfclab.dynamics import TARGET_INDEX, EnvConfig, encode_state_observation, run_episodes
from qfclab.qcore import fidelity_pure_target
from qfclab.rl.nets import MlpActorCritic, RecurrentActorCritic
from qfclab.rngstream import RngStream


def _scan_outcome(probs, gen):
    r = gen.random()
    acc = 0.0
    for l in range(len(probs) - 1):
        acc += probs[l]
        if r < acc:
            return l
    return len(probs) - 1


def _reference_act(policy, rho_obs, last_outcome, last_beta, state):
    if isinstance(policy, BasicTable):
        return policy.beta_by_outcome[last_outcome], False, None
    if policy.kind == "mlp":
        vec = encode_state_observation(rho_obs)
    else:
        vec = np.array([float(last_outcome), float(last_beta)])
    heads, _, state = policy.step(vec, state)
    stop = policy.n_action_outputs == 2 and bool(heads[1] > 0.0)
    return float(np.tanh(heads[0])), stop, state


def reference_episode(policy, cfg, stream):
    """(curve held after a stop, outcomes, stop step, terminal outcome, aborted).

    An MLP observes the filtered state, the other policies the last outcome
    and control, an LSTM after a forced beta=0 first step.
    """
    filtered = policy.kind == "mlp"
    forced_reset = policy.kind == "lstm"
    gen = stream.generator()
    channel = make_channel(cfg.noise_kind, cfg.alpha)
    m = imprecise_measurement(cfg.epsilon)
    rho = cfg.initial_state
    aux = rho
    curve = [fidelity_pure_target(rho, TARGET_INDEX)]
    outcomes = []
    stop_step = terminal_outcome = None
    state = policy.initial_state() if hasattr(policy, "initial_state") else None
    last_outcome, last_beta = believed_outcome(rho), 0.0
    t = 0
    while t < cfg.horizon:
        if forced_reset and t == 0:
            beta, stop = 0.0, False
        else:
            beta, stop, state = _reference_act(policy, aux, last_outcome, last_beta, state)
        if stop:
            stop_step = t
            terminal_outcome = _scan_outcome(
                outcome_probabilities(terminal_measurement(), rho), gen
            )
            break
        t += 1
        u = control_unitary(beta)
        post = u @ apply_channel(channel, rho) @ u.conj().T
        outcome = _scan_outcome(outcome_probabilities(m, post), gen)
        rho = condition_on_outcome(m, post, outcome)
        if filtered:
            try:
                aux = condition_on_outcome(m, u @ aux @ u.conj().T, outcome)
            except ConditioningError:
                return None, None, None, None, True
        curve.append(fidelity_pure_target(rho, TARGET_INDEX))
        outcomes.append(outcome)
        last_outcome, last_beta = outcome, beta
    curve += [curve[-1]] * (cfg.horizon + 1 - len(curve))
    return np.array(curve), outcomes, stop_step, terminal_outcome, False


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
        assert np.array_equal(batch.outcomes[i], alone.outcomes[0])
        assert batch.stop_step[i] == alone.stop_step[0]
        assert batch.terminal_outcome[i] == alone.terminal_outcome[0]
        assert batch.aborted[i] == alone.aborted[0]

        curve, outcomes, stop_step, terminal_outcome, aborted = reference_episode(
            policy, cfg, stream
        )
        assert batch.aborted[i] == aborted
        if aborted:
            continue
        assert batch.fidelity[i].tobytes() == curve.tobytes()
        assert batch.outcomes[i, :len(outcomes)].tolist() == outcomes
        assert batch.stop_step[i] == (-1 if stop_step is None else stop_step)
        assert batch.terminal_outcome[i] == (-1 if terminal_outcome is None else terminal_outcome)
