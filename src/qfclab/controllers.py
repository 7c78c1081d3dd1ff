"""Controller policies: the common action interface and the analytic baseline.

A policy maps an observation (a full density operator, or the pair of last
outcome and last control) to a control action.  Four variants live behind
one dispatch point: the analytic outcome table, open-loop control sequences,
and the two actor-critic networks of the rl package, which are policies
themselves.  Every policy names its ``kind``: ``"mlp"`` networks observe the
full state, ``"lstm"`` networks the outcome pair plus a beta=0 reset step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, ClassVar, Union

import numpy as np

from .channels import control_unitary
from .qcore import _as_complex_matrix

if TYPE_CHECKING:  # the rl package imports this module, so only type checkers look back
    from .rl.nets import MlpActorCritic, RecurrentActorCritic


class ObservationKindError(TypeError):
    """Policy received an observation kind it does not consume."""


@dataclass(frozen=True)
class FullState:
    """Observation carrying a density operator (estimated or nominal state)."""

    state: np.ndarray


@dataclass(frozen=True)
class OutcomePair:
    """Observation carrying only the last measurement outcome and last control."""

    last_outcome: int
    last_beta: float


Observation = Union[FullState, OutcomePair]


@dataclass(frozen=True)
class ControlAction:
    """Control pulse amplitude in [-1, 1] plus the episode-ending stop flag."""

    beta: float
    stop: bool = False

    def __post_init__(self):
        if not -1.0 <= self.beta <= 1.0:
            raise ValueError(f"beta must lie in [-1, 1], got {self.beta}")


@dataclass(frozen=True)
class BasicTable:
    """Deterministic controller: one beta per most-recent outcome."""

    beta_by_outcome: tuple[float, float, float]
    kind: ClassVar[str] = "table"

    def __post_init__(self):
        for b in self.beta_by_outcome:
            if not -1.0 <= b <= 1.0:
                raise ValueError(f"table beta {b} outside [-1, 1]")


@dataclass(frozen=True)
class OpenLoop:
    """Outcome-independent control sequence, held at its last value past the end."""

    betas: tuple[float, ...]
    kind: ClassVar[str] = "open_loop"

    def beta_at(self, step: int) -> float:
        if not self.betas:
            return 0.0
        return self.betas[min(step, len(self.betas) - 1)]


Policy = Union[BasicTable, OpenLoop, "MlpActorCritic", "RecurrentActorCritic"]


def basic_policy() -> BasicTable:
    """The analytic baseline: beta = 1 after outcomes 0 and 1, beta = 0 after outcome 2.

    The gains maximize the single-step transition probability into level 2
    from levels 0 and 1; outcome 2 already flags the target, so no pulse.
    """
    return BasicTable(beta_by_outcome=(1.0, 1.0, 0.0))


def transfer_probability(beta: float, source_level: int, target_level: int = 2) -> float:
    """|<target| U_beta |source>|^2 for the control unitary."""
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


def believed_outcome(rho0: np.ndarray) -> int:
    """Surrogate outcome for the first step: the most populated level of the known initial state."""
    rho0 = _as_complex_matrix(rho0, "rho0")
    return int(np.argmax(np.diag(rho0).real))


def policy_act(
    policy: Policy,
    obs: Observation,
    rng: np.random.Generator | None = None,
    step: int = 0,
    state=None,
    deterministic: bool = False,
) -> tuple[ControlAction, object]:
    """Evaluate a policy on one observation.

    Returns the action together with the policy's recurrent state (None for
    stateless policies).  Table and open-loop policies are deterministic;
    stochastic policies consume generator draws unless ``deterministic``.
    """
    if isinstance(policy, BasicTable):
        if not isinstance(obs, OutcomePair):
            raise ObservationKindError(
                f"BasicTable consumes OutcomePair observations, got {type(obs).__name__}"
            )
        if not 0 <= obs.last_outcome < 3:
            raise ValueError(f"outcome {obs.last_outcome} out of range")
        return ControlAction(beta=policy.beta_by_outcome[obs.last_outcome]), None

    if isinstance(policy, OpenLoop):
        return ControlAction(beta=policy.beta_at(step)), None

    kind = getattr(policy, "kind", None)
    if kind == "mlp":
        if not isinstance(obs, FullState):
            raise ObservationKindError(
                f"policy consumes FullState observations, got {type(obs).__name__}"
            )
        from .rl.encoding import encode_state_observation

        vec = encode_state_observation(obs.state)
    elif kind == "lstm":
        if not isinstance(obs, OutcomePair):
            raise ObservationKindError(
                f"policy consumes OutcomePair observations, got {type(obs).__name__}"
            )
        vec = np.array([float(obs.last_outcome), float(obs.last_beta)])
    else:
        raise TypeError(f"unknown policy type {type(policy).__name__}")
    if rng is None and not deterministic:
        raise ValueError("stochastic policy needs an rng unless deterministic")
    from .rl.ppo import sample_action

    if state is None:
        state = policy.initial_state()
    heads, _, state = policy.step(vec, state)
    action, _, _, _ = sample_action(
        heads, policy.log_std, rng, deterministic, policy.n_action_outputs == 2
    )
    return action, state
