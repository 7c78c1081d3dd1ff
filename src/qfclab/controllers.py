"""Controller policies: the common action interface and the analytic baseline.

A policy maps what it observes to a control action.  Its kind (``"table"``
for the analytic outcome table, where a constant table is an open-loop
control, ``"mlp"`` or ``"lstm"`` for the two actor-critic networks of the rl
package, which are policies themselves) fixes what that is, and
:class:`qfclab.dynamics.ClosedLoop` encodes it.  :func:`policy_act` is the
one dispatch point.  Observations and actions may carry a leading batch
axis, one row per episode, and each row is acted on exactly as it would be
alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, ClassVar, Union

import numpy as np

from .qcore import every

if TYPE_CHECKING:  # the rl package imports this module, so only type checkers look back
    from .rl.nets import MlpActorCritic, RecurrentActorCritic


@dataclass(frozen=True)
class ControlAction:
    """Control pulse amplitude in [-1, 1] plus the episode-ending stop flag
    (arrays of them for a batch; a scalar flag holds for every row)."""

    beta: float | np.ndarray
    stop: bool | np.ndarray = False

    def __post_init__(self):
        if not every(np.abs(self.beta) <= 1.0):
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


Policy = Union[BasicTable, "MlpActorCritic", "RecurrentActorCritic"]


def basic_policy() -> BasicTable:
    """The analytic baseline: beta = 1 after outcomes 0 and 1, beta = 0 after outcome 2.

    The gains maximize the single-step transition probability into level 2
    from levels 0 and 1 (the tests re-derive them by grid search); outcome 2
    already flags the target, so no pulse.
    """
    return BasicTable(beta_by_outcome=(1.0, 1.0, 0.0))


def policy_act(
    policy: Policy, observation: int | np.ndarray, state=None
) -> tuple[ControlAction, object]:
    """Evaluate a policy deterministically on one episode's observation or a batch of them.

    ``observation`` is what :meth:`qfclab.dynamics.ClosedLoop.observation`
    encodes for the policy's kind.  Returns the action together with the
    policy's recurrent state (None for stateless policies; ``state=None``
    starts a fresh one).  Networks act on the mean of their control head and
    stop when the stop logit is positive.
    """
    if isinstance(policy, BasicTable):
        outcome = np.asarray(observation)
        if not every((outcome >= 0) & (outcome < 3)):
            raise ValueError(f"outcome {observation} out of range")
        return ControlAction(beta=np.asarray(policy.beta_by_outcome)[outcome]), None
    if getattr(policy, "kind", None) not in ("mlp", "lstm"):
        raise TypeError(f"unknown policy type {type(policy).__name__}")
    heads, state = policy.policy_step(observation, state)
    stop = heads[..., 1] > 0.0 if policy.n_action_outputs == 2 else False
    return ControlAction(beta=np.tanh(heads[..., 0]), stop=stop), state
