"""True and filtering dynamics of the feedback loop, plus the episode kernel.

One step of the true system is noise, then the control unitary, then a
sampled generalized measurement with conditioning:

    rho(t+1) = M_l  U_beta  N_alpha(rho(t)) U_beta^dag  M_l^dag / p(l)

At alpha = 0 every noise family is the identity and the map is skipped, so
the noise-free (nominal) law that model-based and measurement-only training
run is :func:`step_true` at alpha = 0.  The filtering law drops the noise map
but conditions on the real system's outcomes (control first, then
conditioning, matching the true dynamics' operator ordering).  Each step law
takes one state or a stack of states, and the outcome samplers take one
uniform draw per state.

:func:`run_episodes` validates a policy, advancing all episodes of a batch
together on stacks of states; the policy's kind decides what it observes
(see :mod:`qfclab.controllers`).  Every episode draws from its own
generator, one uniform per step in the order a lone run draws them, so an
episode with identical (config, policy, seed, stream) is bit-identical
whatever batch or thread runs it.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field, replace

import numpy as np

from . import channels as ch
from .controllers import Policy, believed_outcome, policy_act
from .qcore import basis_state, every, fidelity_pure_target, require_density
from .rngstream import RngStream

#: most episodes :func:`run_episodes` steps together; bounds the n x 9 x 3 x 3
#: Kraus temporary of the depolarizing channel and the per-step records
BATCH_EPISODES = 1024


class FilterDivergenceError(RuntimeError):
    """The filtered state assigns (numerically) zero probability to a real outcome.

    ``rows`` holds the flat indices of the diverged states of a stack.
    """

    def __init__(self, message: str, rows: np.ndarray | None = None):
        super().__init__(message)
        self.rows = rows


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
        noise_channel(self)  # an unknown noise kind or alpha fails here, even at alpha = 0

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

#: the projective measurement that ends a stopped episode
TERMINAL_MEASUREMENT = ch.terminal_measurement()


def noise_channel(cfg: EnvConfig) -> ch.QuantumChannel:
    key = (cfg.noise_kind, cfg.alpha)
    if key not in _channel_cache:
        _channel_cache[key] = ch.make_channel(cfg.noise_kind, cfg.alpha)
    return _channel_cache[key]


def measurement_model(cfg: EnvConfig) -> ch.MeasurementModel:
    if cfg.epsilon not in _measurement_cache:
        _measurement_cache[cfg.epsilon] = ch.imprecise_measurement(cfg.epsilon)
    return _measurement_cache[cfg.epsilon]


def _controlled(rho: np.ndarray, beta: float | np.ndarray) -> np.ndarray:
    u = ch.control_unitary(beta)
    return u @ rho @ u.conj().swapaxes(-1, -2)


def _sample_outcome(probs: np.ndarray, u: float | np.ndarray):
    """Inverse-CDF draw: the first outcome whose cumulative probability exceeds u."""
    if not every(probs.max(axis=-1) >= ch.ZERO_PROBABILITY_THRESHOLD):
        raise RuntimeError("degenerate outcome distribution")
    cumulative = probs[..., :-1].cumsum(axis=-1)
    return np.add.reduce(cumulative <= np.asarray(u)[..., None], axis=-1)


def step_true(
    rho: np.ndarray, beta: float | np.ndarray, cfg: EnvConfig, u: float | np.ndarray
) -> tuple[np.ndarray, int | np.ndarray]:
    """One step of the noisy closed loop; returns the conditioned state and the outcome.

    ``u`` is the step's uniform draw in [0, 1), one per state of a stack.
    """
    if cfg.alpha > 0.0:  # at alpha = 0 every noise family is the identity
        rho = ch.apply_channel(noise_channel(cfg), rho)
    post_control = _controlled(rho, beta)
    m = measurement_model(cfg)
    outcome = _sample_outcome(ch.outcome_probabilities(m, post_control), u)
    return ch.condition_on_outcome(m, post_control, outcome), outcome


def stop_outcome(rho: np.ndarray, u: float | np.ndarray) -> int | np.ndarray:
    """Outcome of a stop's terminal projective measurement of ``rho`` (one per state)."""
    return _sample_outcome(ch.outcome_probabilities(TERMINAL_MEASUREMENT, rho), u)


def filter_update(
    rho_hat: np.ndarray, beta: float | np.ndarray, outcome: int | np.ndarray, cfg: EnvConfig
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
            f"filter assigns zero probability to a real outcome: {exc}", rows=exc.rows
        ) from exc


@dataclass(frozen=True)
class EpisodeBatch:
    """Results of consecutive episodes, one row each.

    ``fidelity[:, t]`` is the true-state fidelity after step t (column 0 is
    the initial state), held at its last value after a stop.  ``stop_step``
    and ``terminal_outcome`` read -1 for an episode that never stopped.  Step
    t is recorded in column t - 1 of ``betas``, ``outcomes``, ``true_states``
    and ``aux_states`` (the filtered state of an MLP policy, None for the
    others): a stopped episode has ``stop_step`` records, any other
    ``horizon``.  An aborted episode (filter divergence) is frozen where it
    diverged, and its other entries mean nothing.
    """

    fidelity: np.ndarray  # (n, horizon + 1)
    stop_step: np.ndarray  # (n,)
    terminal_outcome: np.ndarray  # (n,)
    aborted: np.ndarray  # (n,) bool
    final_states: np.ndarray  # (n, 3, 3)
    betas: np.ndarray  # (n, horizon)
    outcomes: np.ndarray  # (n, horizon)
    true_states: np.ndarray  # (n, horizon, 3, 3)
    aux_states: np.ndarray | None


def _rows(policy_state, keep: np.ndarray):
    """The recurrent state of the kept rows (None stays None)."""
    return None if policy_state is None else tuple(part[keep] for part in policy_state)


def run_episodes(
    policy: Policy, cfg: EnvConfig, streams: Sequence[RngStream]
) -> Iterator[EpisodeBatch]:
    """Validate a policy on one episode of the true noisy dynamics per stream.

    Yields one :class:`EpisodeBatch` per run of at most ``BATCH_EPISODES``
    consecutive streams, in stream order.  An MLP policy sees a filtered
    state conditioned on the real outcomes; the others see the last outcome
    and control, and an LSTM starts with a forced beta=0 step, so its first
    observation is a real outcome.  Fidelity is always that of the TRUE state,
    and every true state is checked to be a density operator.  A stop action
    ends its episode and triggers the terminal projective measurement,
    recorded apart from the fidelity.
    """
    for start in range(0, len(streams), BATCH_EPISODES):
        yield _run_batch(policy, cfg, streams[start:start + BATCH_EPISODES])


def _run_batch(policy, cfg: EnvConfig, streams) -> EpisodeBatch:
    """One :class:`EpisodeBatch` of :func:`run_episodes`, all episodes in lockstep."""
    n, horizon, target = len(streams), cfg.horizon, cfg.target_index
    filtered = policy.kind == "mlp"
    forced_reset = policy.kind == "lstm"
    # a step, or a stop's terminal measurement, takes the episode's next uniform:
    # the one at index t for a decision taken at step t
    draws = np.array([stream.generator().random(horizon) for stream in streams])
    rho = np.repeat(cfg.initial_state[None], n, axis=0)
    aux = rho.copy() if filtered else None
    fidelity = np.full((n, horizon + 1), np.nan)
    fidelity[:, 0] = fidelity_pure_target(rho, target)
    stop_step = np.full(n, -1)
    terminal_outcome = np.full(n, -1)
    aborted = np.zeros(n, dtype=bool)
    betas = np.zeros((n, horizon))
    outcomes = np.zeros((n, horizon), dtype=int)
    true_states = np.zeros((n, horizon, 3, 3), dtype=complex)
    aux_states = np.zeros_like(true_states) if filtered else None
    last_outcome = np.full(n, believed_outcome(cfg.initial_state))
    last_beta = np.zeros(n)

    live = np.arange(n)
    policy_state = None
    t = 0
    while t < horizon and live.size:
        if forced_reset and t == 0:
            # forced beta=0 first step: the agent's first observation is a real outcome
            beta = np.zeros(live.size)
        else:
            action, policy_state = policy_act(
                policy, last_outcome[live], last_beta[live],
                filtered=aux[live] if filtered else None, state=policy_state,
            )
            beta = np.broadcast_to(action.beta, live.shape)
            stop = np.broadcast_to(action.stop, live.shape)
            if stop.any():
                ended = live[stop]
                terminal_outcome[ended] = stop_outcome(rho[ended], draws[ended, t])
                stop_step[ended] = t
                fidelity[ended, t + 1:] = fidelity[ended, t, None]
                live, beta, policy_state = live[~stop], beta[~stop], _rows(policy_state, ~stop)
                if not live.size:
                    break
        t += 1
        rho_t, outcome = step_true(rho[live], beta, cfg, draws[live, t - 1])
        if filtered:
            try:
                aux_t = filter_update(aux[live], beta, outcome, cfg)
            except FilterDivergenceError as exc:
                keep = np.ones(live.size, dtype=bool)
                keep[exc.rows] = False
                aborted[live[~keep]] = True
                live, beta, rho_t, outcome = live[keep], beta[keep], rho_t[keep], outcome[keep]
                policy_state = _rows(policy_state, keep)
                if not live.size:
                    break
                aux_t = filter_update(aux[live], beta, outcome, cfg)
            aux[live] = aux_states[live, t - 1] = aux_t
        # every recorded state must still be a physical density operator
        require_density(rho_t, tol=1e-9, name=f"true state at step {t}")
        rho[live] = true_states[live, t - 1] = rho_t
        fidelity[live, t] = fidelity_pure_target(rho_t, target)
        betas[live, t - 1] = last_beta[live] = beta
        outcomes[live, t - 1] = last_outcome[live] = outcome
    return EpisodeBatch(
        fidelity=fidelity,
        stop_step=stop_step,
        terminal_outcome=terminal_outcome,
        aborted=aborted,
        final_states=rho,
        betas=betas,
        outcomes=outcomes,
        true_states=true_states,
        aux_states=aux_states,
    )


def estimate_average_state(
    policy: Policy, cfg: EnvConfig, n: int, rng: RngStream
) -> np.ndarray:
    """Monte-Carlo mean of the final true state over n independent episodes.

    The episodes run through :func:`run_episodes` and draw from the
    substreams ("avg", i) of ``rng``.  For outcome-independent control
    sequences this converges at O(1/sqrt(n)) to the deterministic
    outcome-averaged (CPTP) iteration of the dynamics.
    """
    if n < 1:
        raise ValueError(f"episode count must be >= 1, got {n}")
    streams = [rng.substream("avg", i) for i in range(n)]
    finals = np.concatenate([batch.final_states for batch in run_episodes(policy, cfg, streams)])
    return finals.sum(axis=0) / n
