"""PPO settings: the reference implementation's one configuration, and what a run sets.

Every learned controller trains with the appendix settings below; a run sets
only its rollout length, learning rate and budget (:class:`PpoConfig`).  The
optimizer's settings live with :class:`qfclab.rl.nets.Adam`, the network
widths with the nets.
"""

from __future__ import annotations

from dataclasses import dataclass

GAMMA = 0.99
GAE_LAMBDA = 0.95
CLIP_RANGE = 0.2
#: passes over each rollout window, one update over the whole window each
N_EPOCHS = 10
VALUE_COEFF = 0.5
RECURRENT_LEARNING_RATE = 3e-4


@dataclass(frozen=True)
class PpoConfig:
    n_steps: int = 512
    learning_rate: float = 1e-4
    total_timesteps: int = 200_000

    def __post_init__(self):
        if self.n_steps < 1:
            raise ValueError(f"n_steps must be at least 1, got {self.n_steps}")
        if self.total_timesteps < 0:
            raise ValueError(f"total_timesteps must be non-negative, got {self.total_timesteps}")
        if 0 < self.total_timesteps < self.n_steps:
            raise ValueError(
                f"total_timesteps {self.total_timesteps} is below one {self.n_steps}-step "
                "rollout, so nothing would train"
            )
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
