"""Training environments for the three learning scenarios.

Every scenario drives one state through :class:`qfclab.dynamics.ClosedLoop`,
the stepper validation drives a stack through, so both take the same step
and the loop decides what the agent observes.  Model-based training (mbs)
runs the noise-free model (alpha = 0) and shows the agent its state;
data-based training (dbs) runs the configured noise and shows the filtered
state; measurement-only training (qomdp) runs at alpha = 0, shows the last
outcome and control, adds a stop action, and scores +-1 through the terminal
projective measurement (-1 on timeout).  Only what training alone decides
lives here: the per-episode substreams, the reward and the end of an
episode.  Each episode pre-draws its ``horizon`` uniforms from its own
substream, so a fixed (config, seed) replays exactly.
"""

from __future__ import annotations

import numpy as np

from ..controllers import ControlAction
from ..dynamics import ClosedLoop, EnvConfig
from ..qcore import fidelity_pure_target
from ..rngstream import RngStream

#: the closed loop each scenario trains in, named by what its agent observes
LOOP_KINDS = {"mbs": "nominal", "dbs": "mlp", "qomdp": "lstm"}
SCENARIO_KINDS = tuple(LOOP_KINDS)
#: the kinds that train on the noise-free law (alpha = 0), one agent per epsilon
NOISE_FREE_KINDS = ("mbs", "qomdp")


def training_config(kind: str, cfg: EnvConfig) -> EnvConfig:
    """The config a scenario trains on: ``cfg``, at alpha = 0 for the noise-free kinds."""
    return cfg.with_alpha(0.0) if kind in NOISE_FREE_KINDS else cfg


class ScenarioEnv:
    """One scenario's episodes: ``reset() -> obs``, ``step(action) -> (obs, reward, done)``."""

    def __init__(self, kind: str, cfg: EnvConfig, stream: RngStream):
        if kind not in SCENARIO_KINDS:
            raise ValueError(f"unknown scenario kind {kind!r}")
        self.kind = kind
        self.cfg = training_config(kind, cfg)
        self.stream = stream
        self.episode_index = -1
        self._loop: ClosedLoop | None = None  # None once an episode is done

    def reset(self) -> np.ndarray:
        self.episode_index += 1
        gen = self.stream.substream("episode", self.episode_index).generator()
        self._loop = ClosedLoop(LOOP_KINDS[self.kind], self.cfg, gen.random(self.cfg.horizon))
        self._loop.forced_step()
        return self._loop.observation()

    def step(self, action: ControlAction) -> tuple[np.ndarray, float, bool]:
        loop = self._loop
        if loop is None:
            raise RuntimeError("step() called on a finished episode; reset() first")
        target = self.cfg.target_index
        if self.kind == "qomdp" and action.stop:
            self._loop = None
            return loop.observation(), 1.0 if loop.stop() == target else -1.0, True
        loop.step(action.beta)
        done = loop.t >= self.cfg.horizon
        self._loop = None if done else loop
        if self.kind == "qomdp":
            return loop.observation(), -1.0 if done else 0.0, done
        return loop.observation(), fidelity_pure_target(loop.seen, target), done
