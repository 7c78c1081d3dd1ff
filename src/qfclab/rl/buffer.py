"""One rollout window as a complete record, and generalized advantage estimation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class RolloutBuffer:
    """Everything one update reads of a rollout window, in window order.

    ``pre_squash`` holds the raw Gaussian samples whose tanh became the
    executed control; ``stops`` stays zero for policies without a stop head.
    ``advantages`` and ``returns`` are :func:`compute_gae` of the window,
    computed when its collection ends.  The window's rows fall into segments,
    broken at episode boundaries: ``lengths`` holds each segment's length, in
    order, and for the LSTM ``init_state`` the recurrent state (h, c) each
    starts from, stacked, each (2, n_segments, H); the first segment of a
    window that continues an episode starts from the carried state.
    ``init_state`` is ``None`` for the feed-forward net.
    """

    observations: np.ndarray
    pre_squash: np.ndarray
    stops: np.ndarray
    log_probs: np.ndarray
    rewards: np.ndarray
    values: np.ndarray
    dones: np.ndarray
    advantages: np.ndarray
    returns: np.ndarray
    lengths: np.ndarray
    init_state: tuple | None = None

    @property
    def size(self) -> int:
        return len(self.rewards)


def compute_gae(rewards, values, dones, bootstrap: float, gamma: float, lam: float):
    """Advantages by the standard backward recursion, returns = advantages + values.

    A_t = delta_t + gamma*lam*(1 - done_t)*A_{t+1},
    delta_t = r_t + gamma*(1 - done_t)*V_{t+1} - V_t,
    with ``bootstrap`` standing in for V after the last step.
    """
    advantages = np.zeros(len(rewards))
    next_value = bootstrap
    last_adv = 0.0
    for t in reversed(range(len(rewards))):
        non_terminal = 1.0 - dones[t]
        delta = rewards[t] + gamma * next_value * non_terminal - values[t]
        last_adv = delta + gamma * lam * non_terminal * last_adv
        advantages[t] = last_adv
        next_value = values[t]
    return advantages, advantages + values
