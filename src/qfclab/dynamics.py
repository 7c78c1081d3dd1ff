"""True, nominal, and filtering dynamics of the feedback loop, plus episode execution.

One step of the true system is noise, then the control unitary, then a
sampled generalized measurement with conditioning:

    rho(t+1) = M_l  U_beta  N_alpha(rho(t)) U_beta^dag  M_l^dag / p(l)

The nominal law drops the noise map and samples outcomes from its own
statistics; the filtering law drops the noise map but conditions on the real
system's outcomes (control first, then conditioning, matching the true
dynamics' operator ordering).  Episodes with identical (config, policy,
seed, stream) are bit-identical regardless of thread scheduling, because
every draw comes from one per-episode generator.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import channels as ch
from .controllers import FullState, OutcomePair, Policy, believed_outcome, policy_act
from .qcore import basis_state, fidelity_pure_target, require_density
from .rngstream import RngStream

OBSERVATION_MODES = ("nominal_state", "filtered_state", "outcome_history")


class FilterDivergenceError(RuntimeError):
    """The filtered state assigns (numerically) zero probability to a real outcome."""


@dataclass(frozen=True, eq=False)
class EnvConfig:
    """Everything one episode needs: noise, measurement, start, target, and length.

    The initial state is held as a read-only copy, so configs compare and
    hash by value.
    """

    noise_kind: str = "depolarizing"
    alpha: float = 0.0
    epsilon: float = 0.1
    initial_state: np.ndarray = field(default_factory=lambda: basis_state(0))
    target_index: int = 2
    horizon: int = 20

    def __post_init__(self):
        state = require_density(self.initial_state, name="initial_state").copy()
        state.flags.writeable = False
        object.__setattr__(self, "initial_state", state)
        if self.horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {self.horizon}")
        if not 0 <= self.target_index < 3:
            raise ValueError(f"target index {self.target_index} out of range")

    def _key(self) -> tuple:
        return (self.noise_kind, self.alpha, self.epsilon,
                tuple(self.initial_state.ravel().tolist()), self.target_index, self.horizon)

    def __eq__(self, other):
        if not isinstance(other, EnvConfig):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def with_alpha(self, alpha: float) -> "EnvConfig":
        return replace(self, alpha=alpha)


_channel_cache: dict[tuple[str, float], ch.QuantumChannel] = {}
_measurement_cache: dict[float, ch.MeasurementModel] = {}


def noise_channel(cfg: EnvConfig) -> ch.QuantumChannel:
    key = (cfg.noise_kind, cfg.alpha)
    if key not in _channel_cache:
        _channel_cache[key] = ch.make_channel(cfg.noise_kind, cfg.alpha)
    return _channel_cache[key]


def measurement_model(cfg: EnvConfig) -> ch.MeasurementModel:
    if cfg.epsilon not in _measurement_cache:
        _measurement_cache[cfg.epsilon] = ch.imprecise_measurement(cfg.epsilon)
    return _measurement_cache[cfg.epsilon]


def _controlled(rho: np.ndarray, beta: float) -> np.ndarray:
    u = ch.control_unitary(beta)
    return u @ rho @ u.conj().T


def _sample_outcome(probs: np.ndarray, gen: np.random.Generator) -> int:
    if float(probs.max()) < ch.ZERO_PROBABILITY_THRESHOLD:
        raise RuntimeError("degenerate outcome distribution")
    r = gen.random()
    acc = 0.0
    for l in range(len(probs) - 1):
        acc += probs[l]
        if r < acc:
            return l
    return len(probs) - 1


def step_true(
    rho: np.ndarray, beta: float, cfg: EnvConfig, gen: np.random.Generator
) -> tuple[np.ndarray, int]:
    """One step of the noisy closed loop; returns the conditioned state and the outcome."""
    post_control = _controlled(ch.apply_channel(noise_channel(cfg), rho), beta)
    m = measurement_model(cfg)
    probs = ch.outcome_probabilities(m, post_control)
    outcome = _sample_outcome(probs, gen)
    return ch.condition_on_outcome(m, post_control, outcome), outcome


def step_nominal(
    rho_bar: np.ndarray, beta: float, cfg: EnvConfig, gen: np.random.Generator
) -> tuple[np.ndarray, int]:
    """One noiseless model step, outcomes sampled from the nominal state's own statistics."""
    post_control = _controlled(rho_bar, beta)
    m = measurement_model(cfg)
    probs = ch.outcome_probabilities(m, post_control)
    outcome = _sample_outcome(probs, gen)
    return ch.condition_on_outcome(m, post_control, outcome), outcome


def filter_update(
    rho_hat: np.ndarray, beta: float, outcome: int, cfg: EnvConfig
) -> np.ndarray:
    """Deterministic filter step: noiseless control, then conditioning on the real outcome.

    Raises :class:`FilterDivergenceError` when the filter assigns the outcome
    probability at or below the zero threshold; callers abort and flag the
    episode rather than renormalizing a broken estimate.
    """
    post_control = _controlled(rho_hat, beta)
    m = measurement_model(cfg)
    try:
        return ch.condition_on_outcome(m, post_control, outcome)
    except ch.ConditioningError as exc:
        raise FilterDivergenceError(
            f"filter assigns zero probability to outcome {outcome}: {exc}"
        ) from exc


@dataclass(frozen=True)
class StepRecord:
    """Per-step snapshot of one episode; built through :func:`_make_record`."""

    t: int
    beta: float
    outcome: int
    true_state: np.ndarray
    aux_state: np.ndarray | None
    fidelity_true: float


def _make_record(
    t: int, beta: float, outcome: int, true_state, aux_state, target: int
) -> StepRecord:
    # every recorded state must still be a physical density operator
    require_density(true_state, tol=1e-9, name=f"true state at step {t}")
    fid = fidelity_pure_target(true_state, target)
    return StepRecord(
        t=t,
        beta=beta,
        outcome=outcome,
        true_state=true_state,
        aux_state=aux_state,
        fidelity_true=fid,
    )


@dataclass(frozen=True)
class EpisodeTrace:
    """Ordered per-step records plus episode-level outcomes."""

    config: EnvConfig
    records: tuple[StepRecord, ...]
    initial_fidelity: float
    terminal_fidelity: float
    stop_step: int | None = None
    terminal_outcome: int | None = None

    def fidelity_curve(self) -> np.ndarray:
        """Running true-state fidelity, index 0 = initial state."""
        return np.array([self.initial_fidelity] + [r.fidelity_true for r in self.records])


def run_episode(
    policy: Policy,
    cfg: EnvConfig,
    rng: RngStream,
    observation_mode: str = "outcome_history",
    deterministic_policy: bool = True,
) -> EpisodeTrace:
    """Validate a policy for one episode of the true noisy dynamics.

    The auxiliary state demanded by ``observation_mode`` is maintained
    alongside the true state: a nominal state evolved on its own sampled
    outcomes (training-style observations), a filtered state conditioned on
    the real outcomes, or no state at all for outcome-history policies.
    Per-step fidelity is always that of the TRUE state.  A stop action ends
    the episode early and triggers the terminal projective measurement,
    recorded separately from the pre-measurement fidelity.
    """
    if observation_mode not in OBSERVATION_MODES:
        raise ValueError(f"unknown observation mode {observation_mode!r}")
    gen = rng.generator()
    rho = cfg.initial_state
    aux = rho if observation_mode != "outcome_history" else None
    target = cfg.target_index

    records: list[StepRecord] = []
    initial_fidelity = fidelity_pure_target(rho, target)
    stop_step: int | None = None
    terminal_outcome: int | None = None
    policy_state = None

    t = 0
    last_outcome = believed_outcome(rho)
    last_beta = 0.0
    if observation_mode == "outcome_history" and policy.kind == "lstm":
        # forced beta=0 first step: the agent's first observation is a real outcome
        t = 1
        rho, last_outcome = step_true(rho, 0.0, cfg, gen)
        records.append(_make_record(t, 0.0, last_outcome, rho, None, target))

    while t < cfg.horizon:
        if observation_mode == "outcome_history":
            obs = OutcomePair(last_outcome=last_outcome, last_beta=last_beta)
        else:
            obs = FullState(state=aux)
        action, policy_state = policy_act(
            policy, obs, gen, step=t, state=policy_state, deterministic=deterministic_policy
        )
        if action.stop:
            stop_step = t
            terminal = ch.terminal_measurement()
            probs = ch.outcome_probabilities(terminal, rho)
            terminal_outcome = _sample_outcome(probs, gen)
            break
        t += 1
        rho, outcome = step_true(rho, action.beta, cfg, gen)
        if observation_mode == "nominal_state":
            aux, _ = step_nominal(aux, action.beta, cfg, gen)
        elif observation_mode == "filtered_state":
            aux = filter_update(aux, action.beta, outcome, cfg)
        records.append(_make_record(t, action.beta, outcome, rho, aux, target))
        last_outcome, last_beta = outcome, action.beta

    terminal_fidelity = records[-1].fidelity_true if records else initial_fidelity
    return EpisodeTrace(
        config=cfg,
        records=tuple(records),
        initial_fidelity=initial_fidelity,
        terminal_fidelity=terminal_fidelity,
        stop_step=stop_step,
        terminal_outcome=terminal_outcome,
    )


def estimate_average_state(
    policy: Policy, cfg: EnvConfig, n: int, rng: RngStream
) -> np.ndarray:
    """Monte-Carlo mean of the final true state over n independent episodes.

    For outcome-independent control sequences this converges at O(1/sqrt(n))
    to the deterministic outcome-averaged (CPTP) iteration of the dynamics.
    """
    if n < 1:
        raise ValueError(f"episode count must be >= 1, got {n}")
    total = np.zeros((3, 3), dtype=complex)
    for i in range(n):
        gen = rng.substream("avg", i).generator()
        rho = cfg.initial_state
        policy_state = None
        last_outcome = believed_outcome(rho)
        last_beta = 0.0
        for t in range(cfg.horizon):
            obs = OutcomePair(last_outcome=last_outcome, last_beta=last_beta)
            action, policy_state = policy_act(
                policy, obs, gen, step=t, state=policy_state, deterministic=True
            )
            if action.stop:
                break
            rho, last_outcome = step_true(rho, action.beta, cfg, gen)
            last_beta = action.beta
        total += rho
    return total / n
