"""True and filtering dynamics of the feedback loop, its one stepper, and the episode kernel.

One step of the true system is noise, then the control unitary, then a
sampled generalized measurement with conditioning:

    rho(t+1) = M_l  U_beta  N_alpha(rho(t)) U_beta^dag  M_l^dag / p(l)

At alpha = 0 every noise family is the identity and the map is skipped, so
the noise-free (nominal) law is :func:`step_true` at alpha = 0.  The
filtering law drops the noise map but conditions on the real system's
outcomes (control first, then conditioning, matching the true dynamics'
operator ordering).  Each step law takes one state or a stack of states, and
the outcome samplers take one uniform draw per state.

:class:`ClosedLoop` is the one stepper of the closed loop: training drives it
on one state (:mod:`qfclab.rl.envs`), and :func:`run_episodes` validates a
policy by driving all episodes of a batch in one stack.  Every episode draws
from its own generator, one uniform per step, so an episode with identical
(config, policy, seed, stream) is bit-identical whatever batch or thread
runs it.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field, replace

import numpy as np

from . import channels as ch
from .controllers import Policy, believed_outcome, policy_act
from .qcore import basis_state, every, fidelity_pure_target, require_density
from .rl.encoding import encode_outcome_observation, encode_state_observation
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
        measurement_model(self)  # and so does an epsilon outside [0, EPSILON_MAX]

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


class ClosedLoop:
    """The closed loop as one kind of policy drives it, on one state or a stack.

    ``draws`` holds each episode's uniforms: ``(horizon,)`` steps one
    ``(3, 3)`` state, ``(n, horizon)`` an ``(n, 3, 3)`` stack, and the true
    state ``rho``, the state the policy sees (``seen``), the last ``outcome``
    and control ``beta`` then carry that leading axis.  Step t, or a stop
    decided at step t, takes uniform t.  The kind fixes what the policy
    observes: a ``"table"`` the last outcome (at first, the believed outcome
    of the initial state); an ``"lstm"`` the pair (last outcome, last
    control), after a forced beta = 0 first step; an ``"mlp"`` the filtered
    state; ``"nominal"`` the true state itself, which model-based training
    shows on the noise-free law, where it equals the filter.
    """

    def __init__(self, kind: str, cfg: EnvConfig, draws: np.ndarray):
        if kind not in ("table", "mlp", "lstm", "nominal"):
            raise ValueError(f"unknown closed-loop kind {kind!r}")
        self.kind, self.cfg, self.t = kind, cfg, 0
        self._draws = draws.T  # row t holds every state's uniform for step t
        rho, outcome = cfg.initial_state, believed_outcome(cfg.initial_state)
        if draws.ndim == 1:
            self.rho, self.outcome, self.beta = rho, outcome, 0.0
        else:
            self.rho = np.repeat(rho[None], len(draws), axis=0)
            self.outcome, self.beta = np.full(len(draws), outcome), np.zeros(len(draws))
        self.seen = self.rho

    def observation(self):
        """The policy's input, encoded as its kind reads it."""
        if self.kind == "lstm":
            return encode_outcome_observation(self.outcome, self.beta)
        if self.kind == "table":
            return self.outcome
        return encode_state_observation(self.seen)

    def forced_step(self) -> bool:
        """Take the lstm's forced beta = 0 first step if it is due; returns whether it was."""
        if self.kind != "lstm" or self.t:
            return False
        self.step(self.beta)  # still the initial beta, 0
        return True

    def step(self, beta: float | np.ndarray) -> None:
        """Step t under control ``beta``: the true state, then what the policy sees.

        A filter that assigns a real outcome zero probability raises
        :class:`FilterDivergenceError` and leaves the loop as it was.
        """
        rho, outcome = step_true(self.rho, beta, self.cfg, self._draws[self.t])
        seen = filter_update(self.seen, beta, outcome, self.cfg) if self.kind == "mlp" else rho
        self.rho, self.seen, self.outcome, self.beta = rho, seen, outcome, beta
        self.t += 1

    def stop(self) -> int | np.ndarray:
        """Outcome of the terminal projective measurement that ends a stop decided at step t."""
        probs = ch.outcome_probabilities(TERMINAL_MEASUREMENT, self.rho)
        return _sample_outcome(probs, self._draws[self.t])

    def keep(self, rows: np.ndarray) -> None:
        """Keep only the stack rows the boolean mask ``rows`` selects."""
        self.rho, self.outcome, self.beta = self.rho[rows], self.outcome[rows], self.beta[rows]
        self.seen = self.seen[rows] if self.kind == "mlp" else self.rho
        self._draws = self._draws[:, rows]


def run_episodes(
    policy: Policy, cfg: EnvConfig, streams: Sequence[RngStream]
) -> Iterator[EpisodeBatch]:
    """Validate a policy on one episode of the true noisy dynamics per stream.

    Yields one :class:`EpisodeBatch` per run of at most ``BATCH_EPISODES``
    consecutive streams, in stream order, each stepped as one
    :class:`ClosedLoop` of the policy's kind.  Fidelity is always that of the
    TRUE state, and every true state is checked to be a density operator.  A
    stop action ends its episode and triggers the terminal projective
    measurement, recorded apart from the fidelity.
    """
    for start in range(0, len(streams), BATCH_EPISODES):
        yield _run_batch(policy, cfg, streams[start:start + BATCH_EPISODES])


def _run_batch(policy, cfg: EnvConfig, streams) -> EpisodeBatch:
    """One :class:`EpisodeBatch` of :func:`run_episodes`, all episodes in lockstep."""
    n, horizon, target = len(streams), cfg.horizon, cfg.target_index
    draws = np.array([stream.generator().random(horizon) for stream in streams])
    loop = ClosedLoop(policy.kind, cfg, draws)
    final_states = loop.rho.copy()
    fidelity = np.full((n, horizon + 1), np.nan)
    fidelity[:, 0] = fidelity_pure_target(final_states, target)
    stop_step, terminal_outcome = np.full(n, -1), np.full(n, -1)
    aborted = np.zeros(n, dtype=bool)
    betas = np.zeros((n, horizon))
    outcomes = np.zeros((n, horizon), dtype=int)
    true_states = np.zeros((n, horizon, 3, 3), dtype=complex)
    aux_states = np.zeros_like(true_states) if policy.kind == "mlp" else None

    live = np.arange(n)  # the episodes the loop still steps, in its row order
    policy_state = None
    while loop.t < horizon and live.size:
        if not loop.forced_step():
            action, policy_state = policy_act(policy, loop.observation(), policy_state)
            beta = np.broadcast_to(action.beta, live.shape)
            stop = np.broadcast_to(action.stop, live.shape)
            if stop.any():
                ended = live[stop]
                terminal_outcome[ended] = loop.stop()[stop]
                stop_step[ended] = loop.t
                fidelity[ended, loop.t + 1:] = fidelity[ended, loop.t, None]
                live, beta, policy_state = live[~stop], beta[~stop], _rows(policy_state, ~stop)
                loop.keep(~stop)
                if not live.size:
                    break
            try:
                loop.step(beta)
            except FilterDivergenceError as exc:
                keep = np.ones(live.size, dtype=bool)
                keep[exc.rows] = False
                aborted[live[~keep]] = True
                live, beta, policy_state = live[keep], beta[keep], _rows(policy_state, keep)
                loop.keep(keep)
                if not live.size:
                    break
                loop.step(beta)
        t = loop.t
        # every recorded state must still be a physical density operator
        require_density(loop.rho, tol=1e-9, name=f"true state at step {t}")
        final_states[live] = true_states[live, t - 1] = loop.rho
        if aux_states is not None:
            aux_states[live, t - 1] = loop.seen
        fidelity[live, t] = fidelity_pure_target(loop.rho, target)
        betas[live, t - 1] = loop.beta
        outcomes[live, t - 1] = loop.outcome
    return EpisodeBatch(fidelity, stop_step, terminal_outcome, aborted, final_states,
                        betas, outcomes, true_states, aux_states)


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
