"""The scenario table, and the training environments of the learned scenarios.

:data:`LOOP_KINDS` and :data:`NOISE_FREE_KINDS` say what sets the scenarios
apart, for every module.  A learned scenario's environment drives
:class:`qfclab.dynamics.ClosedLoop`, the stepper validation drives, and the
loop decides what the agent observes.  Model-based training (mbs) runs the
noise-free model (alpha = 0) and shows the agent its state; data-based
training (dbs) runs the configured noise and shows the filtered state;
measurement-only training (qomdp) runs at alpha = 0, shows the last outcome
and control, adds a stop action, and scores +-1 through the terminal
projective measurement (-1 on timeout).  A step takes the control as plain
values ``(beta, stop)``; only qomdp reads the stop.  An mbs or dbs episode always runs
``horizon`` steps, so :meth:`ScenarioEnv.step_window` steps a rollout
window's episodes as one stack; a qomdp episode, whose length its stop draw
decides, steps one state at a time.  Each episode pre-draws its ``horizon``
uniforms from its own substream, so a fixed (config, seed) replays exactly.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from ..dynamics import TARGET_INDEX, ClosedLoop, EnvConfig
from ..qcore import fidelity_pure_target
from ..rngstream import RngStream

#: every scenario, in order, and the closed loop its policy drives (basic's is a fixed table)
LOOP_KINDS = {"basic": "table", "mbs": "mlp", "dbs": "mlp", "qomdp": "lstm"}
#: the kinds that train on the noise-free law (alpha = 0), one agent per epsilon
NOISE_FREE_KINDS = ("mbs", "qomdp")
#: the scenarios that train an agent, by PPO
TRAINED_KINDS = tuple(kind for kind, loop in LOOP_KINDS.items() if loop != "table")


def training_config(kind: str, cfg: EnvConfig) -> EnvConfig:
    """The config a scenario trains on: ``cfg``, at alpha = 0 for the noise-free kinds."""
    return replace(cfg, alpha=0.0) if kind in NOISE_FREE_KINDS else cfg


class ScenarioEnv:
    """One scenario's episodes: ``reset() -> obs``, ``step(beta, stop) -> (obs, reward, done)``."""

    def __init__(self, kind: str, cfg: EnvConfig, stream: RngStream):
        if kind not in TRAINED_KINDS:
            raise ValueError(f"scenario {kind!r} is a fixed controller, with no agent to train"
                             if kind in LOOP_KINDS else f"unknown scenario kind {kind!r}")
        self.kind, self.loop_kind = kind, LOOP_KINDS[kind]
        self.cfg = training_config(kind, cfg)
        self.stream = stream
        self.episode_index = -1
        self._loop: ClosedLoop | None = None  # None once an episode is done

    def _next_episode(self) -> ClosedLoop:
        self.episode_index += 1
        gen = self.stream.substream("episode", self.episode_index).generator()
        return ClosedLoop(self.loop_kind, self.cfg, gen.random(self.cfg.horizon),
                          self.cfg.alpha)

    def _reward(self, loop: ClosedLoop) -> float | np.ndarray:
        """The mbs and dbs reward: the fidelity of what the agent sees."""
        return fidelity_pure_target(loop.seen, TARGET_INDEX)

    def reset(self) -> np.ndarray:
        self._loop = self._next_episode()
        self._loop.forced_step()
        return self._loop.observation()

    def observation(self) -> np.ndarray:
        """What the agent sees of the current episode."""
        return self._loop.observation()

    def step(self, beta: float, stop: bool) -> tuple[np.ndarray, float, bool]:
        """Apply control ``beta``, or end a qomdp episode when ``stop`` (other kinds ignore it)."""
        loop = self._loop
        if loop is None:
            raise RuntimeError("step() called on a finished episode; reset() first")
        if self.kind == "qomdp" and stop:
            self._loop = None
            return loop.observation(), 1.0 if loop.stop() == TARGET_INDEX else -1.0, True
        loop.step(beta)
        done = loop.t >= self.cfg.horizon
        self._loop = None if done else loop
        if self.kind == "qomdp":
            return loop.observation(), -1.0 if done else 0.0, done
        return loop.observation(), self._reward(loop), done

    def step_window(self, n_steps: int, act) -> tuple[np.ndarray, np.ndarray, list]:
        """Take the next ``n_steps`` steps of an mbs or dbs env as one ClosedLoop stack.

        The stack holds every episode the window touches: the current one,
        then fresh ones, the last cut off at the window's end unless it ends
        there, in which case a fresh episode starts as :meth:`step` would
        start it.  ``act(positions, observations)`` returns the controls of
        the live rows, given the window position of each row's step.  Returns
        the reward and done flag at each position, and the ``(start, end)``
        positions of each episode's steps, in order.
        """
        if self.kind == "qomdp":
            raise ValueError("a qomdp episode's length is not known ahead; step it")
        horizon = self.cfg.horizon
        loops = [self._loop]
        bounds = [(0, min(horizon - self._loop.t, n_steps))]
        while bounds[-1][1] < n_steps:
            start = bounds[-1][1]
            loops.append(self._next_episode())
            bounds.append((start, min(start + horizon, n_steps)))
        starts, ends = np.array(bounds).T
        first_t = np.array([loop.t for loop in loops])
        stack = ClosedLoop.stack(loops)
        rewards, dones = np.zeros(n_steps), np.zeros(n_steps)
        rows = np.arange(len(loops))  # the stack's live rows, by episode
        while rows.size:
            positions = starts[rows] + stack.t
            stack.step(act(positions, stack.observation()))
            rewards[positions] = self._reward(stack)
            dones[positions] = first_t[rows] + stack.t == horizon
            stay = positions + 1 < ends[rows]
            if not stay.all():
                for i in np.flatnonzero(~stay):
                    loops[rows[i]].take_row(stack, i)
                stack.keep(stay)
                rows = rows[stay]
        self._loop = loops[-1]
        if dones[-1]:
            self.reset()
        return rewards, dones, bounds
