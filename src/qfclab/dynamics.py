"""True and filtering dynamics of the feedback loop, its one stepper, and the episode kernel.

One step of the true system is noise, then the control unitary, then a
sampled generalized measurement with conditioning:

    rho(t+1) = M_l  U_beta  N_alpha(rho(t)) U_beta^dag  M_l^dag / p(l)

At alpha = 0 every noise family is the identity and the map is skipped, so
the noise-free (nominal) law is :func:`step_true` at alpha = 0.  The
filtering law drops the noise map but conditions on the real system's
outcomes (control first, then conditioning, matching the true dynamics'
operator ordering).  Each step law takes one state or a stack of states, and
the outcome samplers take one uniform draw per state.  Every episode starts in
|0>, and every operator of the loop is real, so the states are real symmetric
``float64`` arrays throughout.

:class:`ClosedLoop` is the one stepper of the closed loop.  Training
(:mod:`qfclab.rl.envs`) drives it on a stack of a rollout window's episodes,
which may start at different steps, or on one state for the episodes whose
length is not known ahead (a stop ends them).  What a network observes is
a real vector: :func:`encode_state_observation` of a state, or
:func:`encode_outcome_observation` of the last outcome and control.
:func:`run_episodes` validates a policy by driving all episodes of a batch
in one stack, and returns each episode's true-state fidelity curve and whether
its filter diverged.  Every episode draws from its own generator, one uniform per
step, so an episode with identical (config, policy, seed, stream) is
bit-identical whatever batch or thread runs it.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass, replace

import numpy as np

from . import channels as ch
from .controllers import Policy, believed_outcome, policy_act
from .qcore import basis_state, every, fidelity_pure_target, require_density
from .rngstream import RngStream

#: most episodes :func:`run_episodes` steps together; bounds the stack of
#: states and the policy's per-row activations
BATCH_EPISODES = 1024
#: the level the loop prepares, |2>; the basic controller's gains assume it
TARGET_INDEX = 2
#: the state every episode starts in, |0> (read-only)
INITIAL_STATE = basis_state(0)
INITIAL_STATE.flags.writeable = False
_INITIAL_OUTCOME = believed_outcome(INITIAL_STATE)


class FilterDivergenceError(RuntimeError):
    """The filtered state assigns (numerically) zero probability to a real outcome.

    ``rows`` holds the flat indices of the diverged states of a stack.
    """

    def __init__(self, message: str, rows: np.ndarray | None = None):
        super().__init__(message)
        self.rows = rows


@dataclass(frozen=True)
class EnvConfig:
    """Everything one episode needs: noise, measurement, and length.

    Every episode starts in |0> (:data:`INITIAL_STATE`); :func:`run_episodes`
    returns its true-state fidelity curve and whether its filter diverged.
    """

    noise_kind: str = "depolarizing"
    alpha: float = 0.0
    epsilon: float = 0.1
    horizon: int = 20

    def __post_init__(self):
        if self.horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {self.horizon}")
        noise_channel(self)  # an unknown noise kind or alpha fails here, even at alpha = 0
        measurement_model(self)  # and so does an epsilon outside [0, EPSILON_MAX]

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
    u = ch.control_unitary(beta)  # real orthogonal
    return u @ rho @ u.swapaxes(-1, -2)


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
    """What :func:`run_episodes` returns of consecutive episodes, one row each.

    ``fidelity[:, t]`` is the true-state fidelity after step t; column 0 is
    the start in |0>, so it reads 0.  After a stop the curve holds its last
    value.  An aborted episode (filter divergence) is frozen where it
    diverged, and the rest of its row means nothing.
    """

    fidelity: np.ndarray  # (n, horizon + 1)
    aborted: np.ndarray  # (n,) bool


# The upper-triangle entries read, in encoding order (the populations, then
# (0, 1), (0, 2), (1, 2)), and the slots of their real and imaginary parts.
# Index arrays, not tuples: numpy converts a tuple on every call.
_ROWS, _COLS = np.array([0, 1, 2, 0, 0, 1]), np.array([0, 1, 2, 1, 2, 2])
_REAL_SLOTS, _IMAG_SLOTS = np.array([0, 1, 2, 3, 5, 7]), np.array([4, 6, 8])


def encode_state_observation(rho: np.ndarray) -> np.ndarray:
    """Flatten a 3x3 Hermitian state into 9 reals (a stack (..., 3, 3) into (..., 9)).

    Ordering: the three populations, then (Re, Im) of the upper off-diagonal
    entries (0,1), (0,2), (1,2).  A real state encodes its imaginary parts as
    exact +0.0, the same bytes as the state cast to complex.
    """
    rho = np.asarray(rho)
    entries = rho[..., _ROWS, _COLS]
    encoded = np.zeros(rho.shape[:-2] + (9,))
    encoded[..., _REAL_SLOTS] = entries.real
    if np.iscomplexobj(entries):
        encoded[..., _IMAG_SLOTS] = entries[..., 3:].imag
    return encoded


def encode_outcome_observation(
    last_outcome: int | np.ndarray, last_beta: float | np.ndarray
) -> np.ndarray:
    """The pair (last outcome, last control) as 2 floats (arrays (n,) into (n, 2))."""
    obs = np.empty(np.shape(last_outcome) + (2,))
    obs[..., 0] = last_outcome
    obs[..., 1] = last_beta
    return obs


def _rows(policy_state, keep: np.ndarray):
    """The recurrent state of the kept rows (None stays None)."""
    return None if policy_state is None else tuple(part[keep] for part in policy_state)


class ClosedLoop:
    """The closed loop as one kind of policy drives it, on one state or a stack.

    ``draws`` holds each episode's uniforms: ``(horizon,)`` steps one
    ``(3, 3)`` state, ``(n, horizon)`` an ``(n, 3, 3)`` stack, and the true
    state ``rho``, the state the policy sees (``seen``), the last ``outcome``
    and control ``beta`` then carry that leading axis.  Every episode starts
    in |0>.  Step t, or a stop decided at step t, takes uniform t.  The kind
    fixes what the policy observes: a ``"table"`` the last outcome (at first,
    the believed outcome of |0>); an ``"lstm"`` the pair (last outcome, last
    control), after a forced beta = 0 first step; an ``"mlp"`` the filtered
    state.  At alpha = 0 the filter step repeats the true step's operations
    on the same state and outcome, so there the loop skips the filter and
    shows the true state, the same bytes.
    """

    def __init__(self, kind: str, cfg: EnvConfig, draws: np.ndarray):
        if kind not in ("table", "mlp", "lstm"):
            raise ValueError(f"unknown closed-loop kind {kind!r}")
        self.kind, self.cfg, self.t = kind, cfg, 0
        self.filters = kind == "mlp" and cfg.alpha > 0.0
        self._draws = draws.T  # row t holds every state's uniform for step t
        rho, outcome = INITIAL_STATE, _INITIAL_OUTCOME
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
        seen = filter_update(self.seen, beta, outcome, self.cfg) if self.filters else rho
        self.rho, self.seen, self.outcome, self.beta = rho, seen, outcome, beta
        self.t += 1

    def stop(self) -> int | np.ndarray:
        """Outcome of the terminal projective measurement that ends a stop decided at step t."""
        probs = ch.outcome_probabilities(TERMINAL_MEASUREMENT, self.rho)
        return _sample_outcome(probs, self._draws[self.t])

    def keep(self, rows: np.ndarray) -> None:
        """Keep only the stack rows the boolean mask ``rows`` selects."""
        self.rho, self.outcome, self.beta = self.rho[rows], self.outcome[rows], self.beta[rows]
        self.seen = self.seen[rows] if self.filters else self.rho
        self._draws = self._draws[:, rows]

    @classmethod
    def stack(cls, loops: Sequence["ClosedLoop"]) -> "ClosedLoop":
        """One-state loops of one kind and config as one stack, each row at its own step.

        Row i holds loop i's state, and loop i's remaining uniforms shifted to
        the front: stack step j is step ``loops[i].t + j`` of loop i.  The
        rows run out of uniforms at different stack steps, so each must leave
        (:meth:`keep`) before then; :meth:`take_row` hands its state back.
        """
        first = loops[0]
        draws = np.full((len(loops), first.cfg.horizon), np.nan)
        for row, loop in zip(draws, loops):
            rest = loop._draws[loop.t:]
            row[:rest.size] = rest
        stacked = cls(first.kind, first.cfg, draws)
        stacked.rho = np.stack([loop.rho for loop in loops])
        stacked.seen = np.stack([loop.seen for loop in loops]) if stacked.filters else stacked.rho
        stacked.outcome = np.array([loop.outcome for loop in loops])
        stacked.beta = np.array([loop.beta for loop in loops], dtype=float)
        return stacked

    def take_row(self, stack: "ClosedLoop", row: int) -> None:
        """Take row ``row`` of ``stack``, stacked from this one-state loop, as this loop's state."""
        self.rho, self.seen = stack.rho[row], stack.seen[row]
        self.outcome, self.beta = stack.outcome[row], stack.beta[row]
        self.t += stack.t


def run_episodes(
    policy: Policy, cfg: EnvConfig, streams: Sequence[RngStream]
) -> Iterator[EpisodeBatch]:
    """Validate a policy on one episode of the true noisy dynamics per stream.

    Yields one :class:`EpisodeBatch` per run of at most ``BATCH_EPISODES``
    consecutive streams, in stream order, each stepped as one
    :class:`ClosedLoop` of the policy's kind.  Fidelity is always that of the
    TRUE state, and every true state is checked to be a density operator.  A
    stop action ends its episode; no output reports its terminal measurement.
    """
    for start in range(0, len(streams), BATCH_EPISODES):
        yield _run_batch(policy, cfg, streams[start:start + BATCH_EPISODES])


def _run_batch(policy, cfg: EnvConfig, streams) -> EpisodeBatch:
    """One :class:`EpisodeBatch` of :func:`run_episodes`, all episodes in lockstep."""
    n, horizon, target = len(streams), cfg.horizon, TARGET_INDEX
    draws = np.array([stream.generator().random(horizon) for stream in streams])
    loop = ClosedLoop(policy.kind, cfg, draws)
    fidelity = np.full((n, horizon + 1), np.nan)
    fidelity[:, 0] = fidelity_pure_target(loop.rho, target)
    aborted = np.zeros(n, dtype=bool)

    live = np.arange(n)  # the episodes the loop still steps, in its row order
    policy_state = None
    while loop.t < horizon and live.size:
        if not loop.forced_step():
            action, policy_state = policy_act(policy, loop.observation(), policy_state)
            beta = np.broadcast_to(action.beta, live.shape)
            stop = np.broadcast_to(action.stop, live.shape)
            if stop.any():
                ended = live[stop]
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
        # every true state must still be a physical density operator
        require_density(loop.rho, tol=1e-9, name=f"true state at step {t}")
        fidelity[live, t] = fidelity_pure_target(loop.rho, target)
    return EpisodeBatch(fidelity, aborted)
