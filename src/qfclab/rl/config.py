"""Training hyperparameters, defaulting to the reference implementation's settings."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class PpoConfig:
    n_steps: int = 512
    batch_size: int = 512
    learning_rate: float = 1e-4
    gamma: float = 0.99
    gae_lambda: float = 0.95
    clip_range: float = 0.2
    n_epochs: int = 10
    entropy_coeff: float = 0.0
    value_coeff: float = 0.5
    max_grad_norm: float = 0.5
    total_timesteps: int = 200_000
    hidden: tuple[int, ...] = (64, 64, 64)
    lstm_hidden: int = 64
    log_std_init: float = 0.0

    def __post_init__(self):
        for name in ("n_steps", "batch_size", "n_epochs"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")
        if self.total_timesteps < 0:
            raise ValueError(f"total_timesteps must be non-negative, got {self.total_timesteps}")
        if 0 < self.total_timesteps < self.n_steps:
            raise ValueError(
                f"total_timesteps {self.total_timesteps} is below one {self.n_steps}-step "
                "rollout, so nothing would train"
            )
        if self.batch_size > self.n_steps:
            raise ValueError(
                f"batch_size {self.batch_size} exceeds rollout size {self.n_steps}"
            )
        for name in ("learning_rate", "clip_range"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError(f"gamma must lie in [0, 1], got {self.gamma}")


QOMDP_LEARNING_RATE = 3e-4
