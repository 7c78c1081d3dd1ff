"""Independent reference computations used to freeze expected test values,
and the Kraus sets that define the noise channels.

Everything here deliberately avoids the library's own code paths: plain
Taylor series, brute-force sums, linear solves, and explicit map iteration.
The certifiers from ``choi_matrix`` on are the exception: they check its values.
So are ``shuffled_ppo_update``, which only reorders the window the library's
update step takes, ``reference_episode``, the scalar episode loop built from the
library's channel operations, and ``drive_closed_loop``, which steps the
library's closed loop without the validation kernel around it, and
``validate_by_cholesky`` and ``sample_outcome_by_cumsum``, the library's own
former validation and sampler, which its cheaper forms must reproduce.

The three noise families are defined here by their Kraus sets
(:func:`make_channel`), as in Nielsen and Chuang, ch. 8: the tests certify
each set CPTP through its Choi matrix once, and check the library's closed
forms (:func:`qfclab.channels.apply_channel`, which names a family by its
kind) against its Kraus sum.  The library itself carries no Kraus set.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from qfclab.channels import (
    ConditioningError,
    ParameterError,
    apply_channel,
    condition_on_outcome,
    control_unitary,
    imprecise_measurement,
    outcome_probabilities,
    terminal_measurement,
)
from qfclab.controllers import BasicTable, policy_act
from qfclab.dynamics import INITIAL_STATE, TARGET_INDEX, ClosedLoop, encode_state_observation
from qfclab.qcore import DEFAULT_TOL, ValidationReport, fidelity_pure_target
from qfclab.rl import ppo
from qfclab.rl.config import N_EPOCHS
from qfclab.rl.nets import (
    ADAM_BETA1, ADAM_BETA2, ADAM_EPS, LOG_STD_MAX, LOG_STD_MIN, MAX_GRAD_NORM, validate_params,
)

CONTROL_GEN = np.array(
    [[0.0, 1.0, 0.0], [-1.0, 0.0, 1.0], [0.0, -1.0, 0.0]], dtype=complex
)

#: cyclic permutation |0> -> |1> -> |2> -> |0>
CYCLE = np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]], dtype=float)


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not 0.0 <= alpha <= 1.0:
        raise ParameterError(f"alpha must lie in [0, 1], got {alpha}")
    return alpha


@dataclass(frozen=True)
class QuantumChannel:
    """A CPTP map: the Kraus operators that define it, and the family ``kind``
    and ``alpha`` that :func:`apply_channel` applies in closed form."""

    kraus_ops: tuple[np.ndarray, ...]
    kind: str
    alpha: float

    @property
    def dim(self) -> int:
        return self.kraus_ops[0].shape[0]


def depolarizing(alpha: float) -> QuantumChannel:
    """Isotropic noise: rho -> alpha*I/3 + (1 - alpha)*rho.

    Stored as an explicit Kraus set built from the nine Weyl (shift/clock)
    operators: identity with weight 1 - 8*alpha/9 and the eight non-trivial
    X^j Z^k with weight alpha/9 each.
    """
    alpha = _check_alpha(alpha)
    omega = np.exp(2j * np.pi / 3.0)
    clock = np.diag([1.0, omega, omega**2])
    shift = CYCLE
    ops = []
    for j in range(3):
        for k in range(3):
            w = np.linalg.matrix_power(shift, j) @ np.linalg.matrix_power(clock, k)
            if j == 0 and k == 0:
                ops.append(np.sqrt(1.0 - 8.0 * alpha / 9.0) * w)
            else:
                ops.append(np.sqrt(alpha / 9.0) * w)
    return QuantumChannel(kraus_ops=tuple(ops), kind="depolarizing", alpha=alpha)


def amplitude_damping(alpha: float) -> QuantumChannel:
    """Energy relaxation with rates tied to one parameter: gamma1 = 0, gamma2 = gamma3 = alpha/2.

    Kraus set {N_0, N_01, N_12, N_03}: N_0 damps the diagonal, N_01 routes
    1 -> 0 (inactive here since gamma1 = 0), N_12 routes 2 -> 1, and N_03
    routes 2 -> 0.
    """
    alpha = _check_alpha(alpha)
    gamma1 = 0.0
    gamma2 = alpha / 2.0
    gamma3 = alpha / 2.0
    n0 = np.diag([1.0, np.sqrt(1.0 - gamma1), np.sqrt(1.0 - gamma2 - gamma3)])
    n01 = np.zeros((3, 3))
    n01[0, 1] = np.sqrt(gamma1)
    n12 = np.zeros((3, 3))
    n12[1, 2] = np.sqrt(gamma2)
    n03 = np.zeros((3, 3))
    n03[0, 2] = np.sqrt(gamma3)
    return QuantumChannel(
        kraus_ops=(n0, n01, n12, n03), kind="amplitude_damping", alpha=alpha
    )


def random_permutation(alpha: float) -> QuantumChannel:
    """Random cycling between basis states: identity, cycle and cycle^2 mixed by alpha."""
    alpha = _check_alpha(alpha)
    ops = (
        np.sqrt(1.0 - 2.0 * alpha / 3.0) * np.eye(3),
        np.sqrt(alpha / 3.0) * CYCLE,
        np.sqrt(alpha / 3.0) * (CYCLE @ CYCLE),
    )
    return QuantumChannel(kraus_ops=ops, kind="random_permutation", alpha=alpha)


CHANNEL_KINDS = {
    "depolarizing": depolarizing,
    "amplitude_damping": amplitude_damping,
    "random_permutation": random_permutation,
}


def measurement_ops(m) -> tuple[np.ndarray, ...]:
    """The Kraus operators M_l = diag(m_l) of a measurement as full matrices."""
    return tuple(np.diag(d) for d in m.diagonals)


def make_channel(kind: str, alpha: float) -> QuantumChannel:
    """Construct a noise channel by its config-file name."""
    try:
        ctor = CHANNEL_KINDS[kind]
    except KeyError:
        raise ParameterError(
            f"unknown noise kind {kind!r}; choose from {sorted(CHANNEL_KINDS)}"
        ) from None
    return ctor(alpha)


def expm_taylor(m: np.ndarray, terms: int = 50) -> np.ndarray:
    """Truncated Taylor series for exp(m); accurate to ~1e-14 for ||m|| <= 3."""
    result = np.eye(m.shape[0], dtype=complex)
    term = np.eye(m.shape[0], dtype=complex)
    for k in range(1, terms + 1):
        term = term @ m / k
        result = result + term
    return result


def control_unitary_closed_form(beta: float) -> np.ndarray:
    """exp(beta*A) via the closed form valid because A^3 = -2A."""
    s = np.sqrt(2.0) * beta
    a = CONTROL_GEN
    return (
        np.eye(3, dtype=complex)
        + (np.sin(s) / np.sqrt(2.0)) * a
        + ((1.0 - np.cos(s)) / 2.0) * (a @ a)
    )


def _psd_sqrt(m: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(m)
    return v @ np.diag(np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T


def fidelity_by_spectral(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Full Uhlmann fidelity (tr|sqrt(rho) sqrt(sigma)|)^2 through explicit
    eigendecompositions and the singular values of sqrt(rho) sqrt(sigma).

    Unlike the square roots of the eigenvalues of sqrt(rho) sigma sqrt(rho),
    which turn roundoff eigenvalues of a rank-deficient product into errors
    near 1e-8, this form stays near machine precision in either argument order.
    """
    singular = np.linalg.svd(_psd_sqrt(rho) @ _psd_sqrt(sigma), compute_uv=False)
    return float(np.sum(singular) ** 2)


def measurement_average(measurement_ops, rho: np.ndarray) -> np.ndarray:
    """Outcome-averaged (non-selective) measurement map: sum_l M_l rho M_l^dag."""
    out = np.zeros_like(rho)
    for m in measurement_ops:
        out += m @ rho @ m.conj().T
    return out


def random_density(gen: np.random.Generator) -> np.ndarray:
    """Random full-rank real 3x3 density operator via a real Ginibre matrix."""
    g = gen.standard_normal((3, 3))
    rho = g @ g.T
    return rho / np.trace(rho)


def random_densities(seed: int, n: int | None) -> np.ndarray:
    """A random full-rank real density operator (n None) or a stack of n, via
    real Ginibre matrices."""
    g = np.random.default_rng(seed).standard_normal((3, 3) if n is None else (n, 3, 3))
    rho = g @ g.swapaxes(-1, -2)
    return rho / np.trace(rho, axis1=-2, axis2=-1)[..., None, None]


def kraus_sum(kraus_ops, rho: np.ndarray) -> np.ndarray:
    """sum_k K_k rho K_k^dag, term by term, for one state or a stack."""
    return sum(k @ rho @ k.conj().T for k in kraus_ops)


def density_violations_by_eigenvalues(m: np.ndarray, tol: float) -> dict[str, float]:
    """The density-operator check written out in complex arithmetic, with the
    eigenvalues of every state's Hermitian part as the positivity test."""
    m = np.asarray(m, dtype=complex)
    m_dag = m.conj().swapaxes(-1, -2)
    violations = {}
    herm_dev = float(np.max(np.abs(m - m_dag)))
    if herm_dev > tol:
        violations["hermitian"] = herm_dev
    trace_dev = float(np.max(np.abs(np.trace(m, axis1=-2, axis2=-1) - 1.0)))
    if trace_dev > tol:
        violations["unit_trace"] = trace_dev
    min_eig = float(np.min(np.linalg.eigvalsh(0.5 * (m + m_dag))))
    if min_eig < -tol:
        violations["positive_semidefinite"] = -min_eig
    return violations


def validate_by_cholesky(m: np.ndarray, tol: float) -> ValidationReport:
    """The density-operator check as the library made it on every state before its
    closed-form acceptance: a Cholesky factor of herm_part + tol*I decides
    positivity, and only a refused stack pays for the eigenvalues."""
    m = np.asarray(m)
    m_dag = m.swapaxes(-1, -2).conj() if np.iscomplexobj(m) else m.swapaxes(-1, -2)
    violations: dict[str, float] = {}

    herm_dev = float(np.max(np.abs(m - m_dag)))
    if herm_dev > tol:
        violations["hermitian"] = herm_dev

    trace_dev = float(np.max(np.abs(np.trace(m, axis1=-2, axis2=-1) - 1.0)))
    if trace_dev > tol:
        violations["unit_trace"] = trace_dev

    herm_part = 0.5 * (m + m_dag)
    try:
        np.linalg.cholesky(herm_part + tol * np.eye(m.shape[-1]))
    except np.linalg.LinAlgError:
        min_eig = float(np.min(np.linalg.eigvalsh(herm_part)[..., 0]))
        if min_eig < -tol:
            violations["positive_semidefinite"] = -min_eig

    return ValidationReport(ok=not violations, violations=violations)


def sample_outcome_by_cumsum(probs: np.ndarray, u):
    """The library's former inverse-CDF draw: how many cumulative probabilities
    (the last left out) are at or below u."""
    cumulative = probs[..., :-1].cumsum(axis=-1)
    return np.add.reduce(cumulative <= np.asarray(u)[..., None], axis=-1)


def random_diagonal_density(gen: np.random.Generator, dim: int = 3) -> np.ndarray:
    p = gen.random(dim)
    p /= p.sum()
    return np.diag(p)


def basic_controller_chain(horizon: int) -> tuple[float, np.ndarray]:
    """Absorbing-chain oracle for the basic controller at alpha = epsilon = 0.

    With projective measurements and basis-state dynamics, the closed loop is
    a Markov chain on levels {0, 1, 2} with rows given by squared columns of
    U_{beta(level)}.  Returns (expected steps to absorption from level 0,
    probability of absorption by each step 0..horizon from level 0).
    """
    u1 = control_unitary_closed_form(1.0)
    p = np.zeros((3, 3))
    for src, beta in ((0, 1.0), (1, 1.0)):
        u = u1 if beta == 1.0 else np.eye(3)
        p[src] = np.abs(u[:, src]) ** 2
    p[2] = [0.0, 0.0, 1.0]
    q = p[:2, :2]
    expected_steps = float(np.linalg.solve(np.eye(2) - q, np.ones(2))[0])
    absorbed = np.zeros(horizon + 1)
    dist = np.array([1.0, 0.0, 0.0])
    absorbed[0] = dist[2]
    for t in range(1, horizon + 1):
        dist = dist @ p
        absorbed[t] = dist[2]
    return expected_steps, absorbed


def averaged_map_iteration(
    rho0: np.ndarray,
    betas,
    kraus_noise,
    measurement_ops,
) -> np.ndarray:
    """Deterministic outcome-averaged iteration: sum_l M_l U N(rho) U^dag M_l^dag per step."""
    rho = np.asarray(rho0, dtype=complex)
    for beta in betas:
        noisy = np.zeros_like(rho)
        for k in kraus_noise:
            noisy += k @ rho @ k.conj().T
        u = control_unitary_closed_form(beta)
        rho = measurement_average(measurement_ops, u @ noisy @ u.conj().T)
    return rho


def gae_brute_force(rewards, values, bootstrap, dones, gamma: float, lam: float) -> np.ndarray:
    """Brute-force double-sum GAE: A_t = sum_k (gamma*lam)^k delta_{t+k} within the episode."""
    n = len(rewards)
    values_ext = list(values) + [bootstrap]
    deltas = [
        rewards[t] + gamma * values_ext[t + 1] * (1.0 - dones[t]) - values_ext[t]
        for t in range(n)
    ]
    adv = np.zeros(n)
    for t in range(n):
        coeff = 1.0
        for k in range(t, n):
            adv[t] += coeff * deltas[k]
            if dones[k]:
                break
            coeff *= gamma * lam
    return adv


class TrainingEpisodeReplay:
    """Scalar replay of one training scenario's episode laws, one state at a time.

    The laws are those of the model-based (mbs), data-based (dbs) and
    measurement-only (qomdp) training environments, written out step by step:

    - mbs steps the nominal model: control, then an outcome sampled from the
      nominal state's own statistics, then conditioning; it observes that state.
    - dbs applies every Kraus operator of the noise (even an identity set),
      then the same control and measurement to the true state, and observes a
      filter that applies the control and conditions on the true outcome.
    - qomdp starts with a forced beta = 0 nominal step and observes the pair
      (last outcome, last beta).  A stop measures the state projectively and
      earns +1 on the target, -1 elsewhere.  A timeout earns -1, any other
      step 0.

    Every step, and every stop, takes the next ``gen.random()``.  An outcome
    is the first whose running probability sum exceeds the draw.
    """

    def __init__(self, kind, noise_kraus, measurement_ops, initial_state, target, horizon, gen):
        self.kind = kind
        self.noise = list(noise_kraus) if kind == "dbs" else []
        self.ops = list(measurement_ops)
        self.target, self.horizon, self.gen = target, horizon, gen
        self.rho = self.seen = np.array(initial_state, dtype=complex)
        self.t, self.outcome, self.beta = 0, None, 0.0
        if kind == "qomdp":
            self._step(0.0)

    @staticmethod
    def _first_above(probs, u):
        running = 0.0
        for outcome, p in enumerate(probs[:-1]):
            running += p
            if running > u:
                return outcome
        return len(probs) - 1

    @staticmethod
    def _condition(op, rho):
        post = op @ rho @ op.conj().T
        return post / np.trace(post).real

    def _step(self, beta):
        u = control_unitary_closed_form(beta)
        rho = self.rho
        if self.noise:
            terms = [k @ rho @ k.conj().T for k in self.noise]
            rho = terms[0]
            for term in terms[1:]:
                rho = rho + term
        rho = u @ rho @ u.conj().T
        probs = np.array([np.trace(m.conj().T @ m @ rho).real for m in self.ops])
        self.outcome = self._first_above(probs / probs.sum(), self.gen.random())
        self.rho = self._condition(self.ops[self.outcome], rho)
        if self.kind == "dbs":
            self.seen = self._condition(self.ops[self.outcome], u @ self.seen @ u.conj().T)
        else:
            self.seen = self.rho
        self.beta = beta
        self.t += 1

    def observation(self) -> np.ndarray:
        if self.kind == "qomdp":
            return np.array([float(self.outcome), float(self.beta)])
        s = self.seen
        return np.array([s[0, 0].real, s[1, 1].real, s[2, 2].real,
                         s[0, 1].real, s[0, 1].imag, s[0, 2].real, s[0, 2].imag,
                         s[1, 2].real, s[1, 2].imag])

    def step(self, beta: float, stop: bool = False):
        """Returns (observation, reward, done)."""
        if self.kind == "qomdp" and stop:
            populations = np.diag(self.rho).real
            hit = self._first_above(populations / populations.sum(), self.gen.random())
            return self.observation(), 1.0 if hit == self.target else -1.0, True
        self._step(beta)
        done = self.t >= self.horizon
        if self.kind == "qomdp":
            return self.observation(), -1.0 if done else 0.0, done
        return self.observation(), min(max(self.seen[self.target, self.target].real, 0.0), 1.0), done


class ReferenceEpisode(NamedTuple):
    """One episode of :func:`reference_episode`.

    Step t is entry t - 1 of each per-step list.  An aborted episode's lists
    end with the last step before its filter diverged.
    """

    fidelity: np.ndarray | None  # (horizon + 1,), held after a stop; None when aborted
    true_states: list
    seen_states: list  # the filtered state of an MLP, the true state otherwise
    betas: list
    outcomes: list
    stop_step: int | None
    terminal_outcome: int | None
    aborted: bool


def _scan_outcome(probs, gen):
    r = gen.random()
    acc = 0.0
    for l in range(len(probs) - 1):
        acc += probs[l]
        if r < acc:
            return l
    return len(probs) - 1


def _reference_act(policy, seen, last_outcome, last_beta, state):
    if isinstance(policy, BasicTable):
        return policy.beta_by_outcome[last_outcome], False, None
    if policy.kind == "mlp":
        vec = encode_state_observation(seen)
    else:
        vec = np.array([float(last_outcome), float(last_beta)])
    heads, _, state = policy.step(vec, state)
    stop = policy.n_action_outputs == 2 and bool(heads[1] > 0.0)
    return float(np.tanh(heads[0])), stop, state


def reference_episode(policy, cfg, stream) -> ReferenceEpisode:
    """One validation episode on ``stream``'s draws, one state at a time.

    The scalar loop the batched episode kernel replaced, with its linear-scan
    sampler and scalar policy step: it applies the noise map at every alpha
    and runs an MLP's filter at every alpha.  An MLP observes the filtered
    state, the other policies the last outcome and control, an LSTM after a
    forced beta = 0 first step.  A stop decided at step t measures the state
    projectively on draw t.
    """
    filtered = policy.kind == "mlp"
    forced_reset = policy.kind == "lstm"
    gen = stream.generator()
    m = imprecise_measurement(cfg.epsilon)
    rho = seen = INITIAL_STATE
    curve = [fidelity_pure_target(rho, TARGET_INDEX)]
    true_states, seen_states, betas, outcomes = [], [], [], []
    stop_step = terminal_outcome = None
    state = policy.initial_state() if hasattr(policy, "initial_state") else None
    # a table's first observation stands in for an outcome: the most populated level
    last_outcome, last_beta = int(np.argmax(np.diag(rho).real)), 0.0
    t = 0
    while t < cfg.horizon:
        if forced_reset and t == 0:
            beta, stop = 0.0, False
        else:
            beta, stop, state = _reference_act(policy, seen, last_outcome, last_beta, state)
        if stop:
            stop_step = t
            terminal_outcome = _scan_outcome(
                outcome_probabilities(terminal_measurement(), rho), gen
            )
            break
        t += 1
        u = control_unitary(beta)
        post = u @ apply_channel(cfg.noise_kind, rho, cfg.alpha) @ u.conj().T
        outcome = _scan_outcome(outcome_probabilities(m, post), gen)
        rho = condition_on_outcome(m, post, outcome)
        if filtered:
            try:
                seen = condition_on_outcome(m, u @ seen @ u.conj().T, outcome)
            except ConditioningError:
                return ReferenceEpisode(None, true_states, seen_states, betas, outcomes,
                                        None, None, True)
        else:
            seen = rho
        curve.append(fidelity_pure_target(rho, TARGET_INDEX))
        true_states.append(rho)
        seen_states.append(seen)
        betas.append(beta)
        outcomes.append(outcome)
        last_outcome, last_beta = outcome, beta
    curve += [curve[-1]] * (cfg.horizon + 1 - len(curve))
    return ReferenceEpisode(np.array(curve), true_states, seen_states, betas, outcomes,
                            stop_step, terminal_outcome, False)


def drive_closed_loop(policy, cfg, streams):
    """Step one :class:`qfclab.dynamics.ClosedLoop` stack, one episode per stream,
    under :func:`qfclab.controllers.policy_act`; yields the loop after each step.

    Each episode draws its uniforms from its stream's generator, as a
    validation episode does.  Every row runs to the horizon, so the policy
    must never stop and the filter never diverge.
    """
    draws = np.array([stream.generator().random(cfg.horizon) for stream in streams])
    loop = ClosedLoop(policy.kind, cfg, draws, cfg.alpha)
    state = None
    while loop.t < cfg.horizon:
        if not loop.forced_step():
            action, state = policy_act(policy, loop.observation(), state)
            assert not np.any(action.stop), "drive_closed_loop takes no stops"
            loop.step(action.beta)
        yield loop


def mlp_forward(params, prefix, n_hidden, x):
    """The tanh trunk and linear head on a dict of parameters, one new array per result."""
    acts = [x]
    for i in range(n_hidden):
        acts.append(np.tanh(acts[-1] @ params[f"{prefix}.w{i}"] + params[f"{prefix}.b{i}"]))
    return acts[-1] @ params[f"{prefix}.wh"] + params[f"{prefix}.bh"], acts


def mlp_backward(params, prefix, n_hidden, acts, dout, grads):
    """Backprop of :func:`mlp_forward`: adds to ``grads`` and returns dL/dx, through
    full matrix products and new arrays."""
    grads[f"{prefix}.wh"] += acts[-1].T @ dout
    grads[f"{prefix}.bh"] += dout.sum(axis=0)
    dh = dout @ params[f"{prefix}.wh"].T
    for i in reversed(range(n_hidden)):
        dz = dh * (1.0 - acts[i + 1] ** 2)
        grads[f"{prefix}.w{i}"] += acts[i].T @ dz
        grads[f"{prefix}.b{i}"] += dz.sum(axis=0)
        dh = dz @ params[f"{prefix}.w{i}"].T
    return dh


class DictAdam:
    """Adam with global gradient-norm clipping, one parameter array at a time,
    with moments kept per name in dicts."""

    def __init__(self, learning_rate: float):
        self.learning_rate = learning_rate
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}
        self.t = 0

    def step(self, params, grads) -> float:
        total = float(np.sqrt(sum(float(np.sum(g * g)) for g in grads.values())))
        scale = 1.0
        if total > MAX_GRAD_NORM:
            scale = MAX_GRAD_NORM / (total + 1e-12)
        self.t += 1
        for name, g in grads.items():
            g = g * scale
            if name not in self.m:
                self.m[name] = np.zeros_like(g)
                self.v[name] = np.zeros_like(g)
            self.m[name] = ADAM_BETA1 * self.m[name] + (1 - ADAM_BETA1) * g
            self.v[name] = ADAM_BETA2 * self.v[name] + (1 - ADAM_BETA2) * g * g
            m_hat = self.m[name] / (1 - ADAM_BETA1**self.t)
            v_hat = self.v[name] / (1 - ADAM_BETA2**self.t)
            params[name] -= self.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
        if "log_std" in params:
            params["log_std"][...] = np.clip(params["log_std"], LOG_STD_MIN, LOG_STD_MAX)
        return total


def shuffled_ppo_update(shuffle_gen: np.random.Generator):
    """``ppo_update(net, buffer, adam)`` with each epoch over the window in a fresh
    random order: one permutation per epoch from ``shuffle_gen``, of the rows (mlp)
    or of the episode segments (lstm), then one ``_update_step`` over a copy of the
    buffer whose rows and segments are in that order.

    With ``RngStream(seed).substream("shuffle").generator()`` patched in, ``train``
    replays the training of the code that drew these permutations.
    """

    def update(net, buffer, adam):
        if buffer.advantages is None:
            raise ValueError("advantages not computed; call compute_gae first")
        segments = buffer.segments
        if net.kind == "lstm":
            h, c = (np.concatenate([seg.init_state[j] for seg in segments], axis=1)
                    for j in range(2))
        diags = []
        for _ in range(N_EPOCHS):
            window = copy.copy(buffer)
            if net.kind == "lstm":
                order = shuffle_gen.permutation(len(segments))
                rows = np.concatenate([np.arange(segments[i].start, segments[i].end)
                                       for i in order])
                lengths = np.array([segments[i].end - segments[i].start for i in order])
                starts = (lengths, (h[:, order], c[:, order]))
            else:
                rows, starts = shuffle_gen.permutation(buffer.size), None
            for name in ("observations", "pre_squash", "stops", "log_probs", "advantages",
                         "returns"):
                setattr(window, name, getattr(buffer, name)[rows])
            diags.append(ppo._update_step(net, window, adam, starts))
        validate_params(net.params)
        return {name: float(np.mean([d[name] for d in diags])) for name in diags[0]}

    return update


def lstm_cell(pre, c):
    """The LSTM cell on pre-activations pre (..., 4H) and cell state c (..., H), its
    sigmoids written as 0.5 + 0.5*tanh(0.5*x), one new array per result.

    Returns the gate activations i, f, g, o (..., 4H), c', tanh c' and h'.
    """
    hid = c.shape[-1]
    scale = np.repeat([0.5, 0.5, 1.0, 0.5], hid)
    gates = scale * np.tanh(scale * pre) + (1.0 - scale)
    i, f = gates[..., :hid], gates[..., hid:2 * hid]
    g, o = gates[..., 2 * hid:3 * hid], gates[..., 3 * hid:]
    c_new = f * c + i * g
    tanh_c = np.tanh(c_new)
    return gates, c_new, tanh_c, o * tanh_c


def _lstm_step(params, prefix, x, h, c):
    pre = x @ params[f"{prefix}.wx"] + h @ params[f"{prefix}.wh"] + params[f"{prefix}.b"]
    _, c_new, _, h_new = lstm_cell(pre, c)
    return h_new, c_new


def two_cell_step(net, obs, state):
    """The recurrent rollout step as two separate LSTM cells and two one-row trunks.

    ``state`` is the stacked pair (h, c), each (2, 1, H), policy row first; returns
    (head outputs (k,), value, next state) like ``RecurrentActorCritic.step``.
    """
    params, n_hidden = net.params, len(net.hidden)
    (h_pi, h_vf), (c_pi, c_vf) = state
    h_pi, c_pi = _lstm_step(params, "pi_lstm", obs[None, :], h_pi, c_pi)
    h_vf, c_vf = _lstm_step(params, "vf_lstm", obs[None, :], h_vf, c_vf)
    heads, _ = mlp_forward(params, "pi", n_hidden, h_pi)
    value, _ = mlp_forward(params, "vf", n_hidden, h_vf)
    return heads[0], float(value[0, 0]), (np.stack([h_pi, h_vf]), np.stack([c_pi, c_vf]))


def _stacked(params, name):
    return np.stack([params[f"pi_lstm.{name}"], params[f"vf_lstm.{name}"]])


def packed_sequence_forward(net, obs, lengths, init_state):
    """``RecurrentActorCritic.sequence_forward`` with one new array per result and the
    two LSTMs' weights stacked by copy; ``init_state`` is the stacked pair (h, c),
    each (2, n_seq, H).  Returns heads, values and a cache for
    :func:`packed_sequence_backward`.
    """
    params, hid, n_hidden = net.params, net.lstm_hidden, len(net.hidden)
    lengths = np.asarray(lengths)
    order = np.argsort(-lengths, kind="stable")
    alive = (lengths[:, None] > np.arange(lengths.max())).sum(axis=0)
    starts = np.cumsum(lengths) - lengths
    perm = np.concatenate([starts[order[:k]] + t for t, k in enumerate(alive)])
    x = obs[perm]
    wx, wh, b = (_stacked(params, name) for name in ("wx", "wh", "b"))
    xw = x @ wx
    n = len(perm)
    gates = np.empty((2, n, 4 * hid))
    h_prev, c_prev, tanh_c, h_rows = (np.empty((2, n, hid)) for _ in range(4))
    h, c = init_state[0][:, order], init_state[1][:, order]
    off = 0
    for k in alive:
        rows = slice(off, off + k)
        h, c = h[:, :k], c[:, :k]
        h_prev[:, rows], c_prev[:, rows] = h, c
        pre = xw[:, rows] + h @ wh + b[:, None, :]
        gates[:, rows], c, tanh_c[:, rows], h = lstm_cell(pre, c)
        h_rows[:, perm[rows]] = h
        off += k
    heads, pi_acts = mlp_forward(params, "pi", n_hidden, h_rows[0])
    values, vf_acts = mlp_forward(params, "vf", n_hidden, h_rows[1])
    return heads, values[:, 0], (perm, alive, x, gates, h_prev, c_prev, tanh_c, pi_acts, vf_acts)


def packed_sequence_backward(net, cache, dheads, dvalues, grads):
    """Backprop of :func:`packed_sequence_forward`, adding to ``grads``: the dh/dc
    recursion per packed step, one new array per result."""
    params, hid, n_hidden = net.params, net.lstm_hidden, len(net.hidden)
    perm, alive, x, gates, h_prev, c_prev, tanh_c_rows, pi_acts, vf_acts = cache
    dh_pi = mlp_backward(params, "pi", n_hidden, pi_acts, dheads, grads)
    dh_vf = mlp_backward(params, "vf", n_hidden, vf_acts, dvalues[:, None], grads)
    dh_out = np.stack([dh_pi, dh_vf])[:, perm]
    wh_t = _stacked(params, "wh").transpose(0, 2, 1)
    dpre = np.empty_like(gates)
    dh_next = dc_next = np.zeros((2, 0, hid))
    end = len(perm)
    for k in reversed(alive):
        rows = slice(end - k, end)
        live = dh_next.shape[1]
        i, f, g, o = np.split(gates[:, rows], 4, axis=2)
        tanh_c = tanh_c_rows[:, rows]
        dh = dh_out[:, rows]
        dh[:, :live] += dh_next
        dc = dh * o * (1.0 - tanh_c**2)
        dc[:, :live] += dc_next
        dpre[:, rows, :hid] = dc * g * i * (1.0 - i)
        dpre[:, rows, hid:2 * hid] = dc * c_prev[:, rows] * f * (1.0 - f)
        dpre[:, rows, 2 * hid:3 * hid] = dc * i * (1.0 - g**2)
        dpre[:, rows, 3 * hid:] = dh * tanh_c * o * (1.0 - o)
        dh_next = dpre[:, rows] @ wh_t
        dc_next = dc * f
        end -= k
    for l, prefix in enumerate(("pi_lstm", "vf_lstm")):
        grads[f"{prefix}.wx"] += x.T @ dpre[l]
        grads[f"{prefix}.wh"] += h_prev[l].T @ dpre[l]
        grads[f"{prefix}.b"] += dpre[l].sum(axis=0)


def _padded_lstm(params, prefix, hidden, x_seq, h, c):
    """Forward over (T, n_seq, in); returns h (T, n_seq, hidden) and per-step caches."""
    sig = lambda z: 1.0 / (1.0 + np.exp(-z))  # noqa: E731
    hs, caches = [], []
    for x in x_seq:
        pre = x @ params[f"{prefix}.wx"] + h @ params[f"{prefix}.wh"] + params[f"{prefix}.b"]
        i, f = sig(pre[:, :hidden]), sig(pre[:, hidden:2 * hidden])
        g, o = np.tanh(pre[:, 2 * hidden:3 * hidden]), sig(pre[:, 3 * hidden:])
        c_new = f * c + i * g
        tanh_c = np.tanh(c_new)
        caches.append((x, h, c, i, f, g, o, tanh_c))
        h, c = o * tanh_c, c_new
        hs.append(h)
    return np.array(hs), caches


def _padded_lstm_backward(params, prefix, caches, dh_seq, grads):
    """BPTT through every padded step; dh_seq (T, n_seq, hidden)."""
    dh_next = np.zeros_like(dh_seq[0])
    dc_next = np.zeros_like(dh_seq[0])
    for t in reversed(range(len(caches))):
        x, h_prev, c_prev, i, f, g, o, tanh_c = caches[t]
        dh = dh_seq[t] + dh_next
        dc = dh * o * (1.0 - tanh_c**2) + dc_next
        dpre = np.concatenate(
            [dc * g * i * (1.0 - i), dc * c_prev * f * (1.0 - f),
             dc * i * (1.0 - g**2), dh * tanh_c * o * (1.0 - o)],
            axis=1,
        )
        grads[f"{prefix}.wx"] += x.T @ dpre
        grads[f"{prefix}.wh"] += h_prev.T @ dpre
        grads[f"{prefix}.b"] += dpre.sum(axis=0)
        dh_next = dpre @ params[f"{prefix}.wh"].T
        dc_next = dc * f


def padded_recurrent_pass(net, obs, lengths, init_state, dheads, dvalues):
    """Recurrent actor-critic forward and backward on the zero-padded (n_seq, T) grid.

    ``obs`` holds the sequences' rows back to back, as the packed training
    path takes them.  Every sequence runs all ``T = max(lengths)`` steps from
    its start state (``init_state``, the stacked pair (h, c), each (2, n_seq, H)),
    the trunks run on every grid row, and the gradients of
    the padded rows are zero.  Returns heads (n, k), values (n,) and the
    parameter gradients for the upstream ``dheads`` (n, k) and ``dvalues`` (n,).
    """
    params, hid, n_hidden = net.params, net.lstm_hidden, len(net.hidden)
    n_seq, t_max = len(lengths), max(lengths)
    obs_seq = np.zeros((n_seq, t_max, obs.shape[1]))
    mask = np.zeros((n_seq, t_max), dtype=bool)
    start = 0
    for s, length in enumerate(lengths):
        obs_seq[s, :length] = obs[start:start + length]
        mask[s, :length] = True
        start += length
    x_seq = obs_seq.transpose(1, 0, 2)
    (h_pi, h_vf), (c_pi, c_vf) = init_state
    pi_hs, pi_caches = _padded_lstm(params, "pi_lstm", hid, x_seq, h_pi, c_pi)
    vf_hs, vf_caches = _padded_lstm(params, "vf_lstm", hid, x_seq, h_vf, c_vf)
    flat = lambda a: a.transpose(1, 0, 2).reshape(n_seq * t_max, -1)  # noqa: E731
    heads, pi_acts = mlp_forward(params, "pi", n_hidden, flat(pi_hs))
    values, vf_acts = mlp_forward(params, "vf", n_hidden, flat(vf_hs))
    rows = mask.reshape(-1)

    grads = {name: np.zeros_like(v) for name, v in params.items()}
    dheads_grid = np.zeros_like(heads)
    dheads_grid[rows] = dheads
    dvalues_grid = np.zeros((n_seq * t_max, 1))
    dvalues_grid[rows, 0] = dvalues
    unflat = lambda a: a.reshape(n_seq, t_max, hid).transpose(1, 0, 2)  # noqa: E731
    dh_pi = mlp_backward(params, "pi", n_hidden, pi_acts, dheads_grid, grads)
    dh_vf = mlp_backward(params, "vf", n_hidden, vf_acts, dvalues_grid, grads)
    _padded_lstm_backward(params, "pi_lstm", pi_caches, unflat(dh_pi), grads)
    _padded_lstm_backward(params, "vf_lstm", vf_caches, unflat(dh_vf), grads)
    return heads[rows], values[rows, 0], grads


def maximally_mixed(dim: int = 3) -> np.ndarray:
    return np.eye(dim) / dim


def decode_state_observation(vec: np.ndarray) -> np.ndarray:
    """Inverse of :func:`qfclab.dynamics.encode_state_observation`."""
    if vec.shape != (9,):
        raise ValueError(f"expected 9 entries, got shape {vec.shape}")
    rho = np.zeros((3, 3), dtype=complex)
    rho[0, 0], rho[1, 1], rho[2, 2] = vec[0], vec[1], vec[2]
    rho[0, 1] = vec[3] + 1j * vec[4]
    rho[0, 2] = vec[5] + 1j * vec[6]
    rho[1, 2] = vec[7] + 1j * vec[8]
    rho[1, 0] = rho[0, 1].conjugate()
    rho[2, 0] = rho[0, 2].conjugate()
    rho[2, 1] = rho[1, 2].conjugate()
    return rho


def choi_matrix(kraus_ops) -> np.ndarray:
    """Unnormalized Choi matrix C = sum_ij |i><j| (x) E(|i><j|) of the Kraus map.

    C is positive semidefinite iff the map is completely positive, and its
    partial trace over the output factor equals I iff it is trace-preserving.
    """
    ops = np.asarray([np.asarray(k, dtype=complex) for k in kraus_ops])
    d = ops.shape[1]
    choi = np.einsum("kai,kbj->iajb", ops, ops.conj()).reshape(d * d, d * d)
    return choi


def kraus_completeness_defect(kraus_ops) -> float:
    """Max-entry deviation of sum_k K_k^dag K_k from the identity."""
    ops = [np.asarray(k, dtype=complex) for k in kraus_ops]
    total = sum(k.conj().T @ k for k in ops)
    return float(np.max(np.abs(total - np.eye(ops[0].shape[0]))))


def is_cptp(kraus_ops, completeness_tol: float = DEFAULT_TOL, choi_tol: float = 1e-9) -> bool:
    """Certify complete positivity and trace preservation of a Kraus set."""
    if kraus_completeness_defect(kraus_ops) > completeness_tol:
        return False
    choi = choi_matrix(kraus_ops)
    if float(np.linalg.eigvalsh(choi)[0]) < -choi_tol:
        return False
    d = int(np.sqrt(choi.shape[0]))
    partial = np.trace(choi.reshape(d, d, d, d), axis1=1, axis2=3)
    return float(np.max(np.abs(partial - np.eye(d)))) <= choi_tol


def validate_measurement(m, tol: float = DEFAULT_TOL) -> None:
    """Raise if the measurement violates completeness (or projectivity for terminal sets)."""
    defect = kraus_completeness_defect(measurement_ops(m))
    if defect > tol:
        raise ParameterError(f"measurement completeness defect {defect:.3e} > {tol}")
    if m.kind == "terminal_projective":
        for l, op in enumerate(measurement_ops(m)):
            if float(np.max(np.abs(op @ op - op))) > tol or float(
                np.max(np.abs(op - op.conj().T))
            ) > tol:
                raise ParameterError(f"terminal operator {l} is not an orthogonal projector")


def transfer_probability(beta: float, source_level: int, target_level: int = 2) -> float:
    """|<target| U_beta |source>|^2 for the library's control unitary."""
    u = control_unitary(beta)
    return float(np.abs(u[target_level, source_level]) ** 2)


def derive_basic_gains(grid_points: int = 201) -> tuple[float, float]:
    """Grid-search argmax of the level-k -> level-2 transfer probability over beta in [-1, 1].

    Doubles as an independent derivation of the table gains: both objectives
    are increasing on [0, 1], so any grid containing the endpoint returns (1, 1).
    """
    if grid_points < 3:
        raise ValueError(f"grid must have at least 3 points, got {grid_points}")
    grid = np.linspace(-1.0, 1.0, grid_points)
    gains = []
    for source in (0, 1):
        # the objective is even in beta, so +-1 tie; break toward the larger beta
        best_beta, best_value = grid[0], -1.0
        for b in grid:
            value = transfer_probability(float(b), source)
            if value >= best_value:
                best_beta, best_value = float(b), value
        gains.append(best_beta)
    return gains[0], gains[1]


def estimate_average_state(policy, cfg, n: int, rng) -> np.ndarray:
    """Monte-Carlo mean of the final true state over n independent episodes.

    The episodes run through :func:`drive_closed_loop` and draw from the
    substreams ("avg", i) of ``rng``.  For outcome-independent control
    sequences this converges at O(1/sqrt(n)) to the deterministic
    outcome-averaged (CPTP) iteration of the dynamics.
    """
    if n < 1:
        raise ValueError(f"episode count must be >= 1, got {n}")
    for loop in drive_closed_loop(policy, cfg, [rng.substream("avg", i) for i in range(n)]):
        pass
    return loop.rho.sum(axis=0) / n
