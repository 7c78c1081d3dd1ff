"""Fixed-capacity rollout storage and generalized advantage estimation."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class Segment:
    """A contiguous run of buffer rows ``[start, end)`` sharing one recurrent state lineage.

    Segments break at episode boundaries (hidden state reset) and at rollout
    window boundaries (carried hidden state stored in ``init_state``).  The
    recurrent update packs the window's segments back to back, each starting
    from its ``init_state``, and steps only their rows: nothing is padded.
    """

    start: int
    end: int  # exclusive
    init_state: object = None


@dataclass
class RolloutBuffer:
    """Per-step training tuples for one update, plus the bootstrap value.

    ``pre_squash`` holds the raw Gaussian samples whose tanh became the
    executed control; ``stops`` stays zero for policies without a stop head.
    ``bootstrap`` is the value estimate of the observation after the last
    step, standing in for V past the end of the window.
    """

    capacity: int
    obs_dim: int
    observations: np.ndarray = field(init=False)
    pre_squash: np.ndarray = field(init=False)
    stops: np.ndarray = field(init=False)
    log_probs: np.ndarray = field(init=False)
    rewards: np.ndarray = field(init=False)
    values: np.ndarray = field(init=False)
    dones: np.ndarray = field(init=False)
    size: int = 0
    bootstrap: float | None = None
    segments: list[Segment] = field(default_factory=list)
    advantages: np.ndarray | None = None
    returns: np.ndarray | None = None

    def __post_init__(self):
        self.observations = np.zeros((self.capacity, self.obs_dim))
        self.pre_squash = np.zeros(self.capacity)
        self.stops = np.zeros(self.capacity)
        self.log_probs = np.zeros(self.capacity)
        self.rewards = np.zeros(self.capacity)
        self.values = np.zeros(self.capacity)
        self.dones = np.zeros(self.capacity)

    @property
    def full(self) -> bool:
        return self.size == self.capacity

    def add(self, obs, pre_squash, stop, log_prob, reward, value, done) -> None:
        if self.full:
            raise RuntimeError("rollout buffer is full")
        i = self.size
        self.observations[i] = obs
        self.pre_squash[i] = pre_squash
        self.stops[i] = stop
        self.log_probs[i] = log_prob
        self.rewards[i] = reward
        self.values[i] = value
        self.dones[i] = done
        self.size += 1


def compute_gae(buffer: RolloutBuffer, gamma: float, lam: float):
    """Advantages by the standard backward recursion, returns = advantages + values.

    A_t = delta_t + gamma*lam*(1 - done_t)*A_{t+1},
    delta_t = r_t + gamma*(1 - done_t)*V_{t+1} - V_t,
    with the stored bootstrap standing in for V after the last step.
    """
    if buffer.size == 0:
        raise ValueError("cannot compute advantages on an empty buffer")
    if not buffer.full:
        raise ValueError("advantages are computed only on a full buffer")
    if buffer.bootstrap is None:
        raise ValueError("buffer has no bootstrap value")
    advantages = np.zeros(buffer.size)
    next_value = buffer.bootstrap
    last_adv = 0.0
    for t in reversed(range(buffer.size)):
        non_terminal = 1.0 - buffer.dones[t]
        delta = buffer.rewards[t] + gamma * next_value * non_terminal - buffer.values[t]
        last_adv = delta + gamma * lam * non_terminal * last_adv
        advantages[t] = last_adv
        next_value = buffer.values[t]
    returns = advantages + buffer.values[: buffer.size]
    buffer.advantages = advantages
    buffer.returns = returns
    return advantages, returns
