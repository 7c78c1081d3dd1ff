"""Clipped-surrogate policy optimization over the scenario environments.

The update maximizes E[min(r*A, clip(r, 1 +- c)*A)] - c_v*value_mse with
advantages normalized per update, the reference formulation at its entropy
coefficient of 0; each epoch is one update over the whole rollout window in
buffer order.  Collection, advantage estimation, and updates all run in
float64 with every random draw tied to a named substream, so a seed
reproduces training bit for bit.
"""

from __future__ import annotations

import logging
import time

import numpy as np

from ..controllers import ControlAction
from ..dynamics import EnvConfig
from ..rngstream import RngStream
from . import distributions as dist
from .buffer import RolloutBuffer, Segment, compute_gae
from .config import (
    CLIP_RANGE, GAE_LAMBDA, GAMMA, N_EPOCHS, QOMDP_LEARNING_RATE, VALUE_COEFF, PpoConfig,
)
from .envs import ScenarioEnv
from .nets import Adam, MlpActorCritic, RecurrentActorCritic, validate_params, zero_grads_like

log = logging.getLogger(__name__)


class TrainingDiverged(RuntimeError):
    """A loss went non-finite; training state at the failing update is reported."""


def sample_action(heads: np.ndarray, log_std: float, gen: np.random.Generator, with_stop: bool):
    """Draw (action, joint log-prob, pre-squash sample) from head outputs."""
    mean = float(heads[0])
    beta, pre = dist.sample_squashed(mean, log_std, gen)
    log_prob = float(dist.squashed_log_prob(pre, mean, log_std))
    stop = False
    if with_stop:
        logit = float(heads[1])
        stop = bool(gen.random() < dist.sigmoid(logit))
        log_prob += float(dist.bernoulli_log_prob(1.0 if stop else 0.0, logit))
    return ControlAction(beta=beta, stop=stop), log_prob, pre


class _EnvRunner:
    """Persistent rollout state of the environment across window boundaries."""

    def __init__(self, env, net):
        self.env = env
        self.obs = env.reset()
        self.state = net.initial_state()
        self.episode_reward = 0.0
        self.finished_rewards: list[float] = []


def collect_rollout(
    runner: _EnvRunner, net, cfg: PpoConfig, sample_gen: np.random.Generator
) -> RolloutBuffer:
    """Fill one buffer of cfg.n_steps transitions, cut into per-episode segments.

    Each segment records the recurrent state it starts from (``None`` for the
    feed-forward net); states are fresh arrays at every step, never mutated.
    A feed-forward net without a stop head on an mbs or dbs environment steps
    the whole window as one stack (:func:`_collect_stacked`); every other
    pairing steps one transition at a time (:func:`_collect_stepwise`), which
    fills the same buffer from the same draws.
    """
    buffer = RolloutBuffer(capacity=cfg.n_steps, obs_dim=net.obs_dim)
    stacked = (net.kind == "mlp" and net.n_action_outputs == 1
               and isinstance(runner.env, ScenarioEnv) and runner.env.kind != "qomdp")
    (_collect_stacked if stacked else _collect_stepwise)(runner, net, sample_gen, buffer)
    return buffer


def _collect_stacked(runner: _EnvRunner, net: MlpActorCritic,
                     sample_gen: np.random.Generator, buffer: RolloutBuffer) -> None:
    """The window's episodes as one stack, each step written at its window position.

    Row e at stack step k takes the action normal of its position from one
    ``standard_normal(n_steps)`` draw, which equals the stepwise loop's
    scalar draws, and every row runs its own one-row products.
    """
    normals = sample_gen.standard_normal(buffer.capacity)
    log_std = net.log_std
    std = np.exp(log_std)

    def act(positions, obs):
        mean = net.policy_head(obs)[:, 0]
        pre = mean + std * normals[positions]
        buffer.observations[positions] = obs
        buffer.pre_squash[positions] = pre
        buffer.log_probs[positions] = dist.squashed_log_prob(pre, mean, log_std)
        buffer.values[positions] = net.value(obs)
        return np.tanh(pre)

    rewards, dones, bounds = runner.env.step_window(buffer.capacity, act)
    buffer.rewards[:], buffer.dones[:], buffer.size = rewards, dones, buffer.capacity
    for start, end in bounds:
        buffer.segments.append(Segment(start, end))
        for reward in rewards[start:end]:  # summed in step order, as the stepwise loop does
            runner.episode_reward += float(reward)
        if dones[end - 1]:
            runner.finished_rewards.append(runner.episode_reward)
            runner.episode_reward = 0.0
    runner.obs = runner.env.observation()
    buffer.bootstrap = net.value(runner.obs)


def _collect_stepwise(runner: _EnvRunner, net, sample_gen: np.random.Generator,
                      buffer: RolloutBuffer) -> None:
    """One transition at a time: the path of episodes whose length is not known ahead."""
    with_stop = net.n_action_outputs == 2
    seg_start, seg_state = 0, runner.state
    for _ in range(buffer.capacity):
        heads, value, new_state = net.step(runner.obs, runner.state)
        action, log_prob, pre = sample_action(heads, net.log_std, sample_gen, with_stop)
        next_obs, reward, done = runner.env.step(action)
        runner.episode_reward += reward
        buffer.add(runner.obs, pre, 1.0 if action.stop else 0.0, log_prob, reward, value, done)
        if done:
            buffer.segments.append(Segment(seg_start, buffer.size, seg_state))
            runner.finished_rewards.append(runner.episode_reward)
            runner.episode_reward = 0.0
            runner.obs = runner.env.reset()
            runner.state = net.initial_state()
            seg_start, seg_state = buffer.size, runner.state
        else:
            runner.obs, runner.state = next_obs, new_state
    if seg_start < buffer.size:
        buffer.segments.append(Segment(seg_start, buffer.size, seg_state))
    buffer.bootstrap = net.step(runner.obs, runner.state)[1]


def _normalized(advantages: np.ndarray) -> np.ndarray:
    return (advantages - advantages.mean()) / max(float(advantages.std()), 1e-8)


def _policy_grad_coeff(ratio, adv_norm, clip_range, n):
    """d(policy loss)/d(new log-prob) for the clipped surrogate, averaged over n."""
    surr1 = ratio * adv_norm
    surr2 = np.clip(ratio, 1.0 - clip_range, 1.0 + clip_range) * adv_norm
    active = surr1 <= surr2  # gradient flows only through the unclipped branch
    return -(adv_norm * ratio * active) / n, surr1, surr2


def _segment_starts(segments):
    """What the packed LSTM passes take besides the rows: each segment's length
    and the segments' start states (h, c) stacked, each (2, n_segments, H)."""
    lengths = np.array([seg.end - seg.start for seg in segments])
    return lengths, tuple(np.concatenate([seg.init_state[j] for seg in segments], axis=1)
                          for j in range(2))


def _update_step(net, buffer, adam, starts=None) -> dict:
    """One clipped-surrogate step over the whole window, in buffer order.

    ``starts`` is :func:`_segment_starts` of the buffer's segments for the LSTM,
    ``None`` for the MLP.
    """
    recurrent = net.kind == "lstm"
    if recurrent:
        heads, values, cache = net.sequence_forward(buffer.observations, *starts)
    else:
        heads, values, cache = net.forward(buffer.observations)
    pre, lp_old, returns = buffer.pre_squash, buffer.log_probs, buffer.returns
    adv = _normalized(buffer.advantages)
    n = buffer.size

    mean = heads[:, 0]
    log_std = net.log_std
    lp_new = dist.squashed_log_prob(pre, mean, log_std)
    with_stop = net.n_action_outputs == 2
    if with_stop:
        stops = buffer.stops
        logit = heads[:, 1]
        lp_new = lp_new + dist.bernoulli_log_prob(stops, logit)
    log_ratio = lp_new - lp_old
    ratio = np.exp(log_ratio)
    dlp, surr1, surr2 = _policy_grad_coeff(ratio, adv, CLIP_RANGE, n)
    policy_loss = -float(np.minimum(surr1, surr2).mean())
    value_err = values - returns
    value_loss = float(np.mean(value_err**2))
    entropy = float(dist.gaussian_entropy(log_std))
    if with_stop:
        entropy += float(np.mean(dist.bernoulli_entropy(logit)))

    loss = policy_loss + VALUE_COEFF * value_loss
    if not np.isfinite(loss):
        raise TrainingDiverged(f"non-finite loss {loss}")

    dmean, dlogstd_per = dist.squashed_log_prob_grads(pre, mean, log_std)
    dheads = np.zeros_like(heads)
    dheads[:, 0] = dlp * dmean
    if with_stop:
        dheads[:, 1] = dlp * dist.bernoulli_log_prob_grad(stops, logit)
    dvalues = VALUE_COEFF * 2.0 * value_err / n
    grads = zero_grads_like(net.params)
    if recurrent:
        net.sequence_backward(cache, dheads, dvalues, grads)
    else:
        net.backward(cache, dheads, dvalues, grads)
    grads["log_std"] += np.sum(dlp * dlogstd_per)
    grad_norm = adam.step(net.params, grads)
    return {
        "policy_loss": policy_loss,
        "value_loss": value_loss,
        "entropy": entropy,
        "grad_norm": grad_norm,
        "approx_kl": float(np.mean((ratio - 1.0) - log_ratio)),
        "clip_fraction": float(np.mean(np.abs(ratio - 1.0) > CLIP_RANGE)),
    }


def ppo_update(net, buffer: RolloutBuffer, adam: Adam) -> dict:
    """Run the epochs over one full buffer, each one update over the whole window
    in buffer order.

    Returns the mean over epochs of the losses, the entropy and three health
    signals: the pre-clip gradient norm, the approximate KL divergence
    mean((r - 1) - log r) and the share of rows with |r - 1| > the clip range.
    """
    if buffer.advantages is None:
        raise ValueError("advantages not computed; call compute_gae first")
    starts = _segment_starts(buffer.segments) if net.kind == "lstm" else None
    diags = [_update_step(net, buffer, adam, starts) for _ in range(N_EPOCHS)]
    validate_params(net.params)
    return {name: float(np.mean([d[name] for d in diags])) for name in diags[0]}


def _make_net(scenario: str, gen: np.random.Generator):
    if scenario == "qomdp":
        return RecurrentActorCritic(obs_dim=2, n_action_outputs=2, gen=gen)
    return MlpActorCritic(obs_dim=9, n_action_outputs=1, gen=gen)


def default_ppo_config(scenario: str, **overrides) -> PpoConfig:
    """Appendix hyperparameters: 512-step rollouts, lr 1e-4 (3e-4 recurrent)."""
    base = dict(learning_rate=QOMDP_LEARNING_RATE if scenario == "qomdp" else 1e-4)
    base.update(overrides)
    return PpoConfig(**base)


def train(
    scenario: str,
    env_cfg: EnvConfig,
    ppo_cfg: PpoConfig,
    seed: int,
    env_factory=None,
    net=None,
):
    """Train one agent; returns (net, training curve rows).

    ``scenario`` is one of mbs/dbs/qomdp.  A custom ``env_factory(stream)``
    replaces the scenario environment, optionally with a matching ``net``;
    that is how the toy-task tests drive the same loop.  Its objects need the
    ScenarioEnv surface: ``reset() -> obs`` and ``step(action) -> (obs, reward,
    done)``, with observations of the net's ``obs_dim`` entries.  Each update
    logs its rollout and update seconds at DEBUG level.
    """
    root = RngStream(seed)
    if net is None:
        net = _make_net(scenario, root.substream("init").generator())
    sample_gen = root.substream("actions").generator()
    adam = Adam(ppo_cfg.learning_rate)

    env_stream = root.substream("env", 0)
    if env_factory is None:
        env = ScenarioEnv(scenario, env_cfg, env_stream)
    else:
        env = env_factory(env_stream)
    runner = _EnvRunner(env, net)

    curve: list[dict] = []
    n_updates = ppo_cfg.total_timesteps // ppo_cfg.n_steps
    best_reward = -np.inf
    for update in range(n_updates):
        started = time.perf_counter()
        buffer = collect_rollout(runner, net, ppo_cfg, sample_gen)
        compute_gae(buffer, GAMMA, GAE_LAMBDA)
        collected = time.perf_counter()
        try:
            diag = ppo_update(net, buffer, adam)
        except TrainingDiverged as exc:
            raise TrainingDiverged(
                f"update {update} (timestep {update * ppo_cfg.n_steps}): {exc}"
            ) from exc
        updated = time.perf_counter()
        log.debug("update %d: rollout %.3f s, update %.3f s, %.0f timesteps/s", update,
                  collected - started, updated - collected,
                  ppo_cfg.n_steps / (updated - started))
        finished = runner.finished_rewards
        mean_reward = float(np.mean(finished)) if finished else np.nan
        finished.clear()
        if np.isfinite(mean_reward):
            best_reward = max(best_reward, mean_reward)
            if mean_reward < best_reward - 0.5 * abs(best_reward):
                log.info(
                    "update %d: mean episode reward %.4f well below best %.4f",
                    update, mean_reward, best_reward,
                )
        curve.append(
            {
                "update_index": update,
                "timesteps": (update + 1) * ppo_cfg.n_steps,
                "mean_episode_reward": mean_reward,
                **diag,
            }
        )
    return net, curve
