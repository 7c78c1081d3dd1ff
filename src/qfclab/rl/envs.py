"""Training and validation environments for the three learning scenarios.

Model-based training rolls out the nominal (noiseless) dynamics and shows the
agent that nominal state; data-based training runs the true noisy dynamics
and shows the agent the filtered estimate; the measurement-only scenario
(QOMDP) shows just the last outcome and last control, adds a stop action, and
scores +-1 through a terminal projective measurement.  Validation runs
through :func:`qfclab.dynamics.run_episodes`, not through an environment.

Each environment derives one generator per episode from its stream and takes
one uniform from it per step, so a fixed (config, seed) replays exactly,
independent of anything else running.
"""

from __future__ import annotations

import numpy as np

from ..channels import outcome_probabilities, terminal_measurement
from ..controllers import ControlAction
from ..dynamics import EnvConfig, _sample_outcome, filter_update, step_nominal, step_true
from ..qcore import fidelity_pure_target
from ..rngstream import RngStream
from .encoding import encode_outcome_observation, encode_state_observation

SCENARIO_KINDS = ("mbs", "dbs", "qomdp")


def mb_db_reward(rho_obs: np.ndarray, cfg: EnvConfig) -> float:
    """Per-step reward for state-observing scenarios: fidelity against the target level."""
    return fidelity_pure_target(rho_obs, cfg.target_index)


def qomdp_reward(stop: bool, l_last: int | None, done: bool, target: int) -> float:
    """Stop-gated reward: 0 while running, -1 on timeout, +-1 on a stop's terminal outcome."""
    if not stop:
        return -1.0 if done else 0.0
    if l_last is None:
        raise ValueError("stop=1 requires the terminal measurement outcome")
    return 1.0 if l_last == target else -1.0


class ScenarioEnv:
    """Step/reset interface over one scenario's dynamics and observation encoding."""

    def __init__(self, kind: str, cfg: EnvConfig, stream: RngStream):
        if kind not in SCENARIO_KINDS:
            raise ValueError(f"unknown scenario kind {kind!r}")
        self.kind = kind
        # model-based and measurement-only training exclude the noise map
        self.cfg = cfg.with_alpha(0.0) if kind in ("mbs", "qomdp") else cfg
        self.stream = stream
        self.obs_dim = 2 if kind == "qomdp" else 9
        self.episode_index = -1
        self._gen: np.random.Generator | None = None
        self._done = True

    # -- helpers --

    def _observe(self) -> np.ndarray:
        if self.kind == "qomdp":
            return encode_outcome_observation(self._last_outcome, self._last_beta)
        return encode_state_observation(self._model_state)

    # -- gym-style surface --

    def reset(self) -> np.ndarray:
        self.episode_index += 1
        self._gen = self.stream.substream("episode", self.episode_index).generator()
        self._t = 0
        self._done = False
        self._true = self.cfg.initial_state
        self._model_state = self.cfg.initial_state  # nominal or filtered, by kind
        self._last_beta = 0.0
        if self.kind == "qomdp":
            # forced beta=0 first step: the very first observation is a real outcome
            self._true, self._last_outcome = step_nominal(
                self._true, 0.0, self.cfg, self._gen.random()
            )
            self._t = 1
        return self._observe()

    def step(self, action: ControlAction):
        """Returns (observation, reward, done, info)."""
        if self._done:
            raise RuntimeError("step() called on a finished episode; reset() first")
        info: dict = {}
        if self.kind == "qomdp":
            return self._step_qomdp(action, info)

        beta = action.beta
        self._t += 1
        done = self._t >= self.cfg.horizon
        if self.kind == "mbs":
            self._model_state, outcome = step_nominal(
                self._model_state, beta, self.cfg, self._gen.random()
            )
        else:  # dbs: true dynamics plus a filter on real outcomes
            self._true, outcome = step_true(self._true, beta, self.cfg, self._gen.random())
            self._model_state = filter_update(self._model_state, beta, outcome, self.cfg)
        reward = mb_db_reward(self._model_state, self.cfg)
        self._done = done
        info["outcome"] = outcome
        if self.kind == "dbs":  # model-based training simulates no true system
            info["true_fidelity"] = fidelity_pure_target(self._true, self.cfg.target_index)
        return self._observe(), reward, done, info

    def _step_qomdp(self, action: ControlAction, info: dict):
        if action.stop:
            terminal = terminal_measurement()
            l_last = _sample_outcome(
                outcome_probabilities(terminal, self._true), self._gen.random()
            )
            reward = qomdp_reward(True, l_last, True, self.cfg.target_index)
            self._done = True
            info["l_last"] = l_last
            info["stopped"] = True
            return self._observe(), reward, True, info
        beta = action.beta
        self._t += 1
        self._true, outcome = step_nominal(self._true, beta, self.cfg, self._gen.random())
        self._last_outcome, self._last_beta = outcome, beta
        done = self._t >= self.cfg.horizon
        reward = qomdp_reward(False, None, done, self.cfg.target_index)
        self._done = done
        info["outcome"] = outcome
        info["true_fidelity"] = fidelity_pure_target(self._true, self.cfg.target_index)
        return self._observe(), reward, done, info
