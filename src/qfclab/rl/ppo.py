"""Clipped-surrogate policy optimization over the scenario environments.

The update maximizes E[min(r*A, clip(r, 1 +- c)*A)] - c_v*value_mse
+ c_e*entropy with advantages normalized per minibatch, exactly the reference
formulation.  Collection, advantage estimation, and updates all run in
float64 with every random draw tied to a named substream, so a seed
reproduces training bit for bit.
"""

from __future__ import annotations

import logging

import numpy as np

from ..controllers import ControlAction
from ..dynamics import EnvConfig
from ..rngstream import RngStream
from . import distributions as dist
from .buffer import RolloutBuffer, Segment, compute_gae
from .config import QOMDP_LEARNING_RATE, PpoConfig
from .envs import ScenarioEnv
from .nets import Adam, MlpActorCritic, RecurrentActorCritic, validate_params, zero_grads_like

log = logging.getLogger(__name__)


class TrainingDiverged(RuntimeError):
    """A loss went non-finite; training state at the failing update is reported."""


def sample_action(heads: np.ndarray, log_std: float, gen: np.random.Generator, with_stop: bool):
    """Draw (action, joint log-prob, pre-squash sample, stop flag) from head outputs."""
    mean = float(heads[0])
    beta, pre = dist.sample_squashed(mean, log_std, gen)
    log_prob = float(dist.squashed_log_prob(pre, mean, log_std))
    stop = False
    if with_stop:
        logit = float(heads[1])
        stop = bool(gen.random() < dist.sigmoid(logit))
        log_prob += float(dist.bernoulli_log_prob(1.0 if stop else 0.0, logit))
    return ControlAction(beta=beta, stop=stop), log_prob, pre, stop


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
    """
    with_stop = net.n_action_outputs == 2
    buffer = RolloutBuffer(capacity=cfg.n_steps, obs_dim=net.obs_dim)
    seg_start, seg_state = 0, runner.state
    for _ in range(cfg.n_steps):
        heads, value, new_state = net.step(runner.obs, runner.state)
        action, log_prob, pre, stop = sample_action(heads, net.log_std, sample_gen, with_stop)
        next_obs, reward, done = runner.env.step(action)
        runner.episode_reward += reward
        buffer.add(runner.obs, pre, 1.0 if stop else 0.0, log_prob, reward, value, done)
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
    return buffer


def _segment_minibatches(segments, batch_size, shuffle_gen):
    """Group shuffled segments until each group covers at least batch_size steps."""
    order = shuffle_gen.permutation(len(segments))
    groups, current, count = [], [], 0
    for idx in order:
        current.append(segments[idx])
        count += segments[idx].end - segments[idx].start
        if count >= batch_size:
            groups.append(current)
            current, count = [], 0
    if current:
        groups.append(current)
    return groups


def _pad_segments(buffer, segments):
    """Zero-padded (n_seq, T, obs_dim) observations, start states, step mask and buffer rows."""
    t_max = max(s.end - s.start for s in segments)
    n_seq = len(segments)
    obs_seq = np.zeros((n_seq, t_max, buffer.obs_dim))
    mask = np.zeros((n_seq, t_max), dtype=bool)
    flat_index = np.zeros((n_seq, t_max), dtype=int)
    for s_i, seg in enumerate(segments):
        length = seg.end - seg.start
        obs_seq[s_i, :length] = buffer.observations[seg.start : seg.end]
        mask[s_i, :length] = True
        flat_index[s_i, :length] = np.arange(seg.start, seg.end)
    # (h_pi, c_pi, h_vf, c_vf), each (n_seq, lstm_hidden)
    init_state = tuple(np.concatenate(parts) for parts in zip(*(s.init_state for s in segments)))
    return obs_seq, init_state, mask, flat_index[mask]


def _normalized(advantages: np.ndarray) -> np.ndarray:
    return (advantages - advantages.mean()) / max(float(advantages.std()), 1e-8)


def _policy_grad_coeff(ratio, adv_norm, clip_range, n):
    """d(policy loss)/d(new log-prob) for the clipped surrogate, averaged over n."""
    surr1 = ratio * adv_norm
    surr2 = np.clip(ratio, 1.0 - clip_range, 1.0 + clip_range) * adv_norm
    active = surr1 <= surr2  # gradient flows only through the unclipped branch
    return -(adv_norm * ratio * active) / n, surr1, surr2


def _update_minibatch(net, buffer, batch, cfg, adam) -> dict:
    """One clipped-surrogate step on a minibatch: buffer rows (mlp) or a segment group (lstm)."""
    recurrent = net.kind == "lstm"
    if recurrent:
        obs_seq, init_state, mask, idx = _pad_segments(buffer, batch)
        heads_seq, values_seq, cache = net.sequence_forward(obs_seq, init_state)
        heads, values = heads_seq[mask], values_seq[mask]
    else:
        idx = batch
        heads, values, cache = net.forward(buffer.observations[idx])
    pre = buffer.pre_squash[idx]
    lp_old = buffer.log_probs[idx]
    adv = _normalized(buffer.advantages[idx])
    returns = buffer.returns[idx]
    n = len(idx)

    mean = heads[:, 0]
    log_std = net.log_std
    lp_new = dist.squashed_log_prob(pre, mean, log_std)
    with_stop = net.n_action_outputs == 2
    if with_stop:
        stops = buffer.stops[idx]
        logit = heads[:, 1]
        lp_new = lp_new + dist.bernoulli_log_prob(stops, logit)
    ratio = np.exp(lp_new - lp_old)
    dlp, surr1, surr2 = _policy_grad_coeff(ratio, adv, cfg.clip_range, n)
    policy_loss = -float(np.minimum(surr1, surr2).mean())
    value_err = values - returns
    value_loss = float(np.mean(value_err**2))
    entropy = float(dist.gaussian_entropy(log_std))
    if with_stop:
        entropy += float(np.mean(dist.bernoulli_entropy(logit)))

    loss = policy_loss + cfg.value_coeff * value_loss - cfg.entropy_coeff * entropy
    if not np.isfinite(loss):
        raise TrainingDiverged(f"non-finite loss {loss}")

    dmean, dlogstd_per = dist.squashed_log_prob_grads(pre, mean, log_std)
    dheads = np.zeros_like(heads)
    dheads[:, 0] = dlp * dmean
    if with_stop:
        dlogit = dlp * dist.bernoulli_log_prob_grad(stops, logit)
        dlogit -= cfg.entropy_coeff * dist.bernoulli_entropy_grad(logit) / n
        dheads[:, 1] = dlogit
    dvalues = cfg.value_coeff * 2.0 * value_err / n
    grads = zero_grads_like(net.params)
    if recurrent:
        dheads_seq = np.zeros_like(heads_seq)
        dheads_seq[mask] = dheads
        dvalues_seq = np.zeros_like(values_seq)
        dvalues_seq[mask] = dvalues
        net.sequence_backward(cache, dheads_seq, dvalues_seq, grads)
    else:
        net.backward(cache, dheads, dvalues, grads)
    grads["log_std"] += np.sum(dlp * dlogstd_per) - cfg.entropy_coeff
    adam.step(net.params, grads)
    return {"policy_loss": policy_loss, "value_loss": value_loss, "entropy": entropy}


def ppo_update(net, buffer: RolloutBuffer, cfg: PpoConfig, adam: Adam,
               shuffle_gen: np.random.Generator) -> dict:
    """Run the configured epochs of minibatch updates over one full buffer."""
    if buffer.advantages is None:
        raise ValueError("advantages not computed; call compute_gae first")
    diags: list[dict] = []
    for _ in range(cfg.n_epochs):
        if net.kind == "lstm":
            batches = _segment_minibatches(buffer.segments, cfg.batch_size, shuffle_gen)
        else:
            order = shuffle_gen.permutation(buffer.size)
            batches = [
                order[start : start + cfg.batch_size]
                for start in range(0, buffer.size, cfg.batch_size)
            ]
        for batch in batches:
            diags.append(_update_minibatch(net, buffer, batch, cfg, adam))
    validate_params(net.params)
    return {
        "policy_loss": float(np.mean([d["policy_loss"] for d in diags])),
        "value_loss": float(np.mean([d["value_loss"] for d in diags])),
        "entropy": float(np.mean([d["entropy"] for d in diags])),
    }


def _make_net(scenario: str, cfg: PpoConfig, gen: np.random.Generator):
    if scenario == "qomdp":
        return RecurrentActorCritic(
            obs_dim=2, n_action_outputs=2, hidden=cfg.hidden,
            lstm_hidden=cfg.lstm_hidden, log_std_init=cfg.log_std_init, gen=gen,
        )
    return MlpActorCritic(
        obs_dim=9, n_action_outputs=1, hidden=cfg.hidden,
        log_std_init=cfg.log_std_init, gen=gen,
    )


def default_ppo_config(scenario: str, **overrides) -> PpoConfig:
    """Appendix hyperparameters: 512-step updates, batch 512, lr 1e-4 (3e-4 recurrent)."""
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
    done)``, with observations of the net's ``obs_dim`` entries.
    """
    root = RngStream(seed)
    if net is None:
        net = _make_net(scenario, ppo_cfg, root.substream("init").generator())
    sample_gen = root.substream("actions").generator()
    shuffle_gen = root.substream("shuffle").generator()
    adam = Adam(learning_rate=ppo_cfg.learning_rate, max_grad_norm=ppo_cfg.max_grad_norm)

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
        buffer = collect_rollout(runner, net, ppo_cfg, sample_gen)
        compute_gae(buffer, ppo_cfg.gamma, ppo_cfg.gae_lambda)
        try:
            diag = ppo_update(net, buffer, ppo_cfg, adam, shuffle_gen)
        except TrainingDiverged as exc:
            raise TrainingDiverged(
                f"update {update} (timestep {update * ppo_cfg.n_steps}): {exc}"
            ) from exc
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
                "policy_loss": diag["policy_loss"],
                "value_loss": diag["value_loss"],
                "entropy": diag["entropy"],
            }
        )
    return net, curve
