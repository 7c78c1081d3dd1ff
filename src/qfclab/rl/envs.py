"""Training environments for the three learning scenarios.

Every scenario steps one state through :func:`qfclab.dynamics.step_true`.
Model-based training (mbs) runs it at alpha = 0, the nominal noise-free
model, and shows the agent that state; data-based training (dbs) runs the
configured noise and shows the agent a filtered estimate conditioned on the
real outcomes; the measurement-only scenario (qomdp) runs at alpha = 0,
shows just the last outcome and last control, adds a stop action, and scores
+-1 through the terminal projective measurement (-1 on timeout).
Validation runs through :func:`qfclab.dynamics.run_episodes`, not through an
environment.

Each episode derives one generator from the environment's stream and
pre-draws its ``horizon`` uniforms, one per step (or stop), as the
validation kernel does, so a fixed (config, seed) replays exactly,
independent of anything else running.
"""

from __future__ import annotations

import numpy as np

from ..controllers import ControlAction
from ..dynamics import EnvConfig, filter_update, step_true, stop_outcome
from ..qcore import fidelity_pure_target
from ..rngstream import RngStream
from .encoding import encode_outcome_observation, encode_state_observation

SCENARIO_KINDS = ("mbs", "dbs", "qomdp")
#: the kinds that train on the noise-free law (alpha = 0), one agent per epsilon
NOISE_FREE_KINDS = ("mbs", "qomdp")


class ScenarioEnv:
    """One scenario's episodes: ``reset() -> obs``, ``step(action) -> (obs, reward, done)``."""

    def __init__(self, kind: str, cfg: EnvConfig, stream: RngStream):
        if kind not in SCENARIO_KINDS:
            raise ValueError(f"unknown scenario kind {kind!r}")
        self.kind = kind
        self.cfg = cfg.with_alpha(0.0) if kind in NOISE_FREE_KINDS else cfg
        self.stream = stream
        self.obs_dim = 2 if kind == "qomdp" else 9
        self.episode_index = -1
        self._done = True

    def _observe(self) -> np.ndarray:
        if self.kind == "qomdp":
            return encode_outcome_observation(self._outcome, self._beta)
        return encode_state_observation(self._seen)

    def _advance(self, beta) -> None:
        """Step t: the state (and the dbs filter) under control beta, on uniform t."""
        self._rho, self._outcome = step_true(self._rho, beta, self.cfg, self._draws[self._t])
        # the agent sees the dbs filter, or else the noise-free state itself
        if self.kind == "dbs":
            self._seen = filter_update(self._seen, beta, self._outcome, self.cfg)
        else:
            self._seen = self._rho
        self._beta = beta
        self._t += 1

    def reset(self) -> np.ndarray:
        self.episode_index += 1
        gen = self.stream.substream("episode", self.episode_index).generator()
        self._draws = gen.random(self.cfg.horizon)
        self._t = 0
        self._done = False
        self._rho = self._seen = self.cfg.initial_state
        if self.kind == "qomdp":
            # forced beta=0 first step: the very first observation is a real outcome
            self._advance(0.0)
        return self._observe()

    def step(self, action: ControlAction) -> tuple[np.ndarray, float, bool]:
        if self._done:
            raise RuntimeError("step() called on a finished episode; reset() first")
        target = self.cfg.target_index
        if self.kind == "qomdp" and action.stop:
            self._done = True
            hit = stop_outcome(self._rho, self._draws[self._t]) == target
            return self._observe(), 1.0 if hit else -1.0, True
        self._advance(action.beta)
        self._done = self._t >= self.cfg.horizon
        if self.kind == "qomdp":
            reward = -1.0 if self._done else 0.0
        else:
            reward = fidelity_pure_target(self._seen, target)
        return self._observe(), reward, self._done
