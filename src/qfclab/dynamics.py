"""True and filtering dynamics of the feedback loop, its one stepper, and the episode kernel.

One step of the true system is noise, then the control unitary, then a
sampled generalized measurement with conditioning:

    rho(t+1) = M_l  U_beta  N_alpha(rho(t)) U_beta^dag  M_l^dag / p(l)

N_alpha is the noise family an :class:`EnvConfig` names by its kind, one of
:data:`qfclab.channels.NOISE_KINDS`, applied in closed form by
:func:`qfclab.channels.apply_channel`.  At alpha = 0 every noise family is
the identity and the map is skipped, so the noise-free (nominal) law is
:func:`step_true` at alpha = 0.  Likewise U_0 = I exactly, so a state at
beta = 0 skips the control.  The filtering law drops the noise map but
conditions on the real system's outcomes (control first, then conditioning,
matching the true dynamics' operator ordering).  Each step law takes one
state or a stack of states, and the outcome samplers take one uniform draw
per state, and the true law one alpha per state.  Every episode starts in
|0>, and every operator of the loop is real, so the states are real
symmetric ``float64`` arrays throughout.

:class:`ClosedLoop` is the one stepper of the closed loop.  Training
(:mod:`qfclab.rl.envs`) drives it on a stack of a rollout window's episodes,
which may start at different steps, or on one state for the episodes whose
length is not known ahead (a stop ends them).  What a network observes is
a real vector: :func:`encode_state_observation` of a state, or
:func:`encode_outcome_observation` of the last outcome and control.
:func:`run_episodes` validates a policy by driving its episodes in stacks,
each episode at its own alpha if asked, and returns the arrays of every
episode's true-state fidelity curve and whether its filter diverged.  Every
episode draws from its own stream (seed, id), one uniform per step, all of a
stack's drawn at once by :func:`qfclab.rngstream.uniforms`, so an episode with
identical (config, alpha, policy, seed, id) is bit-identical whatever stack
or thread runs it.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from . import channels as ch
from .controllers import Policy, policy_act
from .qcore import basis_state, every, fidelity_pure_target, require_density
from .rngstream import uniforms

#: most episodes :func:`run_episodes` steps together; bounds the stack of
#: states and the policy's per-row activations
BATCH_EPISODES = 1024
#: the level the loop prepares, |2>; the basic controller's gains assume it
TARGET_INDEX = 2
#: the state every episode starts in, |0> (read-only)
INITIAL_STATE = basis_state(0)
INITIAL_STATE.flags.writeable = False
_INITIAL_OUTCOME = 0  # a table policy's first observation: |0> is certainly at level 0


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
        ch.check_noise(self.noise_kind, self.alpha)  # an unknown kind fails even at alpha = 0
        measurement_model(self)  # and so does an epsilon outside [0, EPSILON_MAX]

    def with_alpha(self, alpha: float) -> "EnvConfig":
        return replace(self, alpha=alpha)


_measurement_cache: dict[float, ch.MeasurementModel] = {}

#: the projective measurement that ends a stopped episode
TERMINAL_MEASUREMENT = ch.terminal_measurement()


def measurement_model(cfg: EnvConfig) -> ch.MeasurementModel:
    if cfg.epsilon not in _measurement_cache:
        _measurement_cache[cfg.epsilon] = ch.imprecise_measurement(cfg.epsilon)
    return _measurement_cache[cfg.epsilon]


def _controlled(rho: np.ndarray, beta: float | np.ndarray) -> np.ndarray:
    """U_beta rho U_beta^T; a state at beta 0 stays as it is, since U_0 = I exactly."""
    if isinstance(beta, np.ndarray) and beta.ndim:
        moved = beta != 0.0
        if not moved.all():
            if not moved.any():
                return rho
            out = rho.copy()
            out[moved] = _controlled(rho[moved], beta[moved])
            return out
    elif beta == 0.0:
        return rho
    u = ch.control_unitary(beta)  # real orthogonal
    return u @ rho @ u.swapaxes(-1, -2)


def _sample_outcome(probs: np.ndarray, u: float | np.ndarray):
    """Inverse-CDF draw over three outcomes: the first whose cumulative probability exceeds u."""
    p0, p1, p2 = probs[..., 0], probs[..., 1], probs[..., 2]
    if not every(np.maximum(np.maximum(p0, p1), p2) >= ch.ZERO_PROBABILITY_THRESHOLD):
        raise RuntimeError("degenerate outcome distribution")
    return np.add(p0 <= u, p0 + p1 <= u, dtype=int)  # the cumulative sums p0 and p0 + p1


def step_true(
    rho: np.ndarray, beta: float | np.ndarray, cfg: EnvConfig, u: float | np.ndarray,
    alpha: float | np.ndarray,
) -> tuple[np.ndarray, int | np.ndarray]:
    """One step of the noisy closed loop; returns the conditioned state and the outcome.

    ``u`` is the step's uniform draw in [0, 1) and ``alpha`` its noise
    strength, each one per state of a stack (a float ``alpha`` holds for
    every state); ``cfg.alpha`` is not read.  A state at alpha 0 skips the
    map, since every noise family is then the identity.
    """
    noisy = alpha > 0.0
    if not isinstance(noisy, np.ndarray):
        if noisy:
            rho = ch.apply_channel(cfg.noise_kind, rho, alpha)
    elif noisy.any():
        noised = ch.apply_channel(cfg.noise_kind, rho, alpha)
        rho = noised if noisy.all() else np.where(noisy[:, None, None], noised, rho)
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


# The upper-triangle entries read, in encoding order (the populations, then
# (0, 1), (0, 2), (1, 2)), and their slots of the encoding.
# Index arrays, not tuples: numpy converts a tuple on every call.
_ROWS, _COLS = np.array([0, 1, 2, 0, 0, 1]), np.array([0, 1, 2, 1, 2, 2])
_SLOTS = np.array([0, 1, 2, 3, 5, 7])


def encode_state_observation(rho: np.ndarray) -> np.ndarray:
    """Flatten a real symmetric 3x3 state into 9 floats (a stack (..., 3, 3) into (..., 9)).

    Ordering: the three populations, then (Re, Im) of the upper off-diagonal
    entries (0,1), (0,2), (1,2); the imaginary slots read exact +0.0, so
    networks and checkpoints keep the 9-wide input of a complex layout.
    """
    rho = np.asarray(rho)
    encoded = np.zeros(rho.shape[:-2] + (9,))
    encoded[..., _SLOTS] = rho[..., _ROWS, _COLS]
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
    0, the level of |0>); an ``"lstm"`` the pair (last outcome, last
    control), after a forced beta = 0 first step; an ``"mlp"`` the filtered
    state.  ``alpha`` is each row's noise strength (a float holds for all;
    ``cfg.alpha`` is not read), and rows at alpha 0 skip the noise map.  At
    alpha 0 the filter step repeats the true step's operations on the same
    state and outcome, so a loop with no row above alpha 0 skips the filter and
    shows the true state, the same bytes; an ``"mlp"`` loop with any row above
    filters all.
    """

    def __init__(self, kind: str, cfg: EnvConfig, draws: np.ndarray, alpha: float | np.ndarray):
        if kind not in ("table", "mlp", "lstm"):
            raise ValueError(f"unknown closed-loop kind {kind!r}")
        self.kind, self.cfg, self.t = kind, cfg, 0
        self._draws = draws.T  # row t holds every state's uniform for step t
        rho, outcome = INITIAL_STATE, _INITIAL_OUTCOME
        if draws.ndim == 1:
            self.rho, self.outcome, self.beta = rho, outcome, 0.0
        else:
            self.rho = np.repeat(rho[None], len(draws), axis=0)
            self.outcome, self.beta = np.full(len(draws), outcome), np.zeros(len(draws))
        self.alpha = np.broadcast_to(alpha, draws.shape[:-1])
        self.noisy = bool(np.any(self.alpha > 0.0))  # any row; once per stack, not per step
        self.filters = kind == "mlp" and self.noisy
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
        rho, outcome = step_true(self.rho, beta, self.cfg, self._draws[self.t],
                                 self.alpha if self.noisy else 0.0)
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
        self._draws, self.alpha = self._draws[:, rows], self.alpha[rows]
        self.noisy = bool(np.any(self.alpha > 0.0))

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
        stacked = cls(first.kind, first.cfg, draws, np.array([loop.alpha for loop in loops]))
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
    policy: Policy, cfg: EnvConfig, seeds, ids, alphas
) -> tuple[np.ndarray, np.ndarray]:
    """Validate a policy on one episode of the true noisy dynamics per stream (seed, id).

    ``seeds``, ``ids`` and ``alphas`` broadcast to one entry per episode
    (``cfg.alpha`` is not read): episode i draws the uniforms of
    ``RngStream(seeds[i], ids[i])`` at noise strength ``alphas[i]``.  Runs of
    at most ``BATCH_EPISODES`` consecutive episodes step as one
    :class:`ClosedLoop`.  Returns ``(fidelity, aborted)``, a row per episode
    in order.  ``fidelity[i, t]`` is the true-state fidelity after step t:
    column 0, the start in |0>, reads 0, and after a stop the curve holds its
    last value.  ``aborted[i]`` flags a filter divergence, and the rest of
    that row means nothing.  Every true state is checked to be a density
    operator; no output reports a stop's terminal measurement.
    """
    seeds, ids = np.broadcast_arrays(np.atleast_1d(np.asarray(seeds, dtype=np.uint64)),
                                     np.asarray(ids, dtype=np.uint64))
    alphas = np.broadcast_to(np.asarray(alphas, float), seeds.shape)
    if not every((alphas >= 0.0) & (alphas <= 1.0)):
        raise ch.ParameterError(f"alpha must lie in [0, 1], got {alphas.min()}..{alphas.max()}")
    fidelity = np.full((len(seeds), cfg.horizon + 1), np.nan)
    aborted = np.zeros(len(seeds), dtype=bool)
    for start in range(0, len(seeds), BATCH_EPISODES):
        rows = slice(start, start + BATCH_EPISODES)
        _run_batch(policy, cfg, seeds[rows], ids[rows], alphas[rows], fidelity[rows],
                   aborted[rows])
    return fidelity, aborted


def _run_batch(policy, cfg: EnvConfig, seeds, ids, alphas, fidelity, aborted) -> None:
    """Step one stack of :func:`run_episodes`, filling its rows of ``fidelity`` and ``aborted``."""
    horizon, target = cfg.horizon, TARGET_INDEX
    loop = ClosedLoop(policy.kind, cfg, uniforms(seeds, ids, horizon), alphas)
    fidelity[:, 0] = fidelity_pure_target(loop.rho, target)

    live = np.arange(len(seeds))  # the episodes the loop still steps, in its row order
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
