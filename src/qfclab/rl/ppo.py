"""Clipped-surrogate policy optimization over the scenario environments.

The update maximizes E[min(r*A, clip(r, 1 +- c)*A)] - c_v*value_mse
+ c_e*entropy with advantages normalized per minibatch, exactly the reference
formulation.  Collection, advantage estimation, and updates all run in
float64 with every random draw tied to a named substream, so a (seed,
environment count) pair reproduces training bit for bit.
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


def sample_action(
    heads: np.ndarray,
    log_std: float,
    gen: np.random.Generator | None,
    deterministic: bool,
    with_stop: bool,
):
    """Draw (action, joint log-prob, pre-squash sample, stop flag) from head outputs."""
    mean = float(heads[0])
    if deterministic:
        pre = mean
        beta = float(np.tanh(pre))
    else:
        beta, pre = dist.sample_squashed(mean, log_std, gen)
    log_prob = float(dist.squashed_log_prob(pre, mean, log_std))
    stop = False
    if with_stop:
        logit = float(heads[1])
        if deterministic:
            stop = logit > 0.0
        else:
            stop = bool(gen.random() < dist.sigmoid(logit))
        log_prob += float(dist.bernoulli_log_prob(1.0 if stop else 0.0, logit))
    return ControlAction(beta=beta, stop=stop), log_prob, pre, stop


class _EnvRunner:
    """Persistent rollout state of one environment across window boundaries."""

    def __init__(self, env, net):
        self.env = env
        self.obs = env.reset()
        self.state = net.initial_state()
        self.episode_reward = 0.0
        self.finished_rewards: list[float] = []


def collect_rollout(
    runners: list[_EnvRunner],
    net,
    cfg: PpoConfig,
    sample_gen: np.random.Generator,
    obs_dim: int,
) -> RolloutBuffer:
    """Fill one buffer of cfg.n_steps transitions, chunked per environment."""
    with_stop = net.n_action_outputs == 2
    recurrent = isinstance(net, RecurrentActorCritic)
    buffer = RolloutBuffer(capacity=cfg.n_steps, obs_dim=obs_dim, has_stop=with_stop)
    per_env = cfg.n_steps // len(runners)
    for runner in runners:
        seg_start = buffer.size
        seg_state = _clone_state(runner.state)
        for _ in range(per_env):
            heads, value, new_state = net.step(runner.obs, runner.state)
            action, log_prob, pre, stop = sample_action(
                heads, net.log_std, sample_gen, False, with_stop
            )
            obs_before = runner.obs
            next_obs, reward, done, _ = runner.env.step(action)
            runner.episode_reward += reward
            buffer.add(obs_before, pre, 1.0 if stop else 0.0, log_prob, reward, value, done)
            runner.state = new_state
            if done:
                if recurrent:
                    buffer.segments.append(
                        Segment(start=seg_start, end=buffer.size, init_state=seg_state)
                    )
                    seg_start = buffer.size
                    seg_state = None  # fresh episode starts from zeros
                runner.finished_rewards.append(runner.episode_reward)
                runner.episode_reward = 0.0
                runner.obs = runner.env.reset()
                runner.state = net.initial_state()
            else:
                runner.obs = next_obs
        if recurrent and seg_start < buffer.size:
            buffer.segments.append(
                Segment(start=seg_start, end=buffer.size, init_state=seg_state)
            )
        buffer.close_chunk(net.step(runner.obs, runner.state)[1])
    return buffer


def _clone_state(state):
    if state is None:
        return None
    return tuple(np.array(part) for part in state)


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


def _normalized(advantages: np.ndarray) -> np.ndarray:
    return (advantages - advantages.mean()) / max(float(advantages.std()), 1e-8)


def _policy_grad_coeff(ratio, adv_norm, clip_range, n):
    """d(policy loss)/d(new log-prob) for the clipped surrogate, averaged over n."""
    surr1 = ratio * adv_norm
    surr2 = np.clip(ratio, 1.0 - clip_range, 1.0 + clip_range) * adv_norm
    active = surr1 <= surr2  # gradient flows only through the unclipped branch
    return -(adv_norm * ratio * active) / n, surr1, surr2


def _update_mlp_minibatch(net, buffer, idx, cfg, adam) -> dict:
    params = net.params
    obs = buffer.observations[idx]
    pre = buffer.pre_squash[idx]
    lp_old = buffer.log_probs[idx]
    adv = _normalized(buffer.advantages[idx])
    returns = buffer.returns[idx]
    n = len(idx)

    heads, values, cache = net.forward(obs)
    mean = heads[:, 0]
    log_std = net.log_std
    lp_new = dist.squashed_log_prob(pre, mean, log_std)
    ratio = np.exp(lp_new - lp_old)
    dlp, surr1, surr2 = _policy_grad_coeff(ratio, adv, cfg.clip_range, n)
    policy_loss = -float(np.minimum(surr1, surr2).mean())
    value_err = values - returns
    value_loss = float(np.mean(value_err**2))
    entropy = float(dist.gaussian_entropy(log_std))

    loss = policy_loss + cfg.value_coeff * value_loss - cfg.entropy_coeff * entropy
    if not np.isfinite(loss):
        raise TrainingDiverged(f"non-finite loss {loss}")

    dmean, dlogstd_per = dist.squashed_log_prob_grads(pre, mean, log_std)
    dheads = (dlp * dmean)[:, None]
    dvalues = cfg.value_coeff * 2.0 * value_err / n
    grads = zero_grads_like(params)
    net.backward(cache, dheads, dvalues, grads)
    grads["log_std"] += np.sum(dlp * dlogstd_per) - cfg.entropy_coeff
    adam.step(params, grads)
    return {"policy_loss": policy_loss, "value_loss": value_loss, "entropy": entropy}


def _update_recurrent_minibatch(net, buffer, segment_group, cfg, adam) -> dict:
    params = net.params
    t_max = max(s.end - s.start for s in segment_group)
    n_seq = len(segment_group)
    obs_seq = np.zeros((n_seq, t_max, buffer.obs_dim))
    mask = np.zeros((n_seq, t_max), dtype=bool)
    flat_index = np.zeros((n_seq, t_max), dtype=int)
    h_pi = np.zeros((n_seq, net.lstm_hidden))
    c_pi = np.zeros((n_seq, net.lstm_hidden))
    h_vf = np.zeros((n_seq, net.lstm_hidden))
    c_vf = np.zeros((n_seq, net.lstm_hidden))
    for s_i, seg in enumerate(segment_group):
        length = seg.end - seg.start
        obs_seq[s_i, :length] = buffer.observations[seg.start : seg.end]
        mask[s_i, :length] = True
        flat_index[s_i, :length] = np.arange(seg.start, seg.end)
        if seg.init_state is not None:
            h_pi[s_i], c_pi[s_i], h_vf[s_i], c_vf[s_i] = (
                part[0] for part in seg.init_state
            )

    idx = flat_index[mask]
    pre = buffer.pre_squash[idx]
    stops = buffer.stops[idx]
    lp_old = buffer.log_probs[idx]
    adv = _normalized(buffer.advantages[idx])
    returns = buffer.returns[idx]
    n = len(idx)

    heads, values_seq, cache = net.sequence_forward(obs_seq, (h_pi, c_pi, h_vf, c_vf))
    mean = heads[:, :, 0][mask]
    values = values_seq[mask]
    log_std = net.log_std
    lp_new = dist.squashed_log_prob(pre, mean, log_std)
    with_stop = net.n_action_outputs == 2
    if with_stop:
        logit = heads[:, :, 1][mask]
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

    dmean_flat, dlogstd_per = dist.squashed_log_prob_grads(pre, mean, log_std)
    dheads = np.zeros((n_seq, t_max, net.n_action_outputs))
    dheads[:, :, 0][mask] = dlp * dmean_flat
    if with_stop:
        dlogit = dlp * dist.bernoulli_log_prob_grad(stops, logit)
        dlogit -= cfg.entropy_coeff * dist.bernoulli_entropy_grad(logit) / n
        dheads[:, :, 1][mask] = dlogit
    dvalues = np.zeros((n_seq, t_max))
    dvalues[mask] = cfg.value_coeff * 2.0 * value_err / n
    grads = zero_grads_like(params)
    net.sequence_backward(cache, dheads, dvalues, grads)
    grads["log_std"] += np.sum(dlp * dlogstd_per) - cfg.entropy_coeff
    adam.step(params, grads)
    return {"policy_loss": policy_loss, "value_loss": value_loss, "entropy": entropy}


def ppo_update(net, buffer: RolloutBuffer, cfg: PpoConfig, adam: Adam,
               shuffle_gen: np.random.Generator) -> dict:
    """Run the configured epochs of minibatch updates over one full buffer."""
    if buffer.advantages is None:
        raise ValueError("advantages not computed; call compute_gae first")
    recurrent = isinstance(net, RecurrentActorCritic)
    diags: list[dict] = []
    for _ in range(cfg.n_epochs):
        if recurrent:
            for group in _segment_minibatches(buffer.segments, cfg.batch_size, shuffle_gen):
                diags.append(_update_recurrent_minibatch(net, buffer, group, cfg, adam))
        else:
            order = shuffle_gen.permutation(buffer.size)
            for start in range(0, buffer.size, cfg.batch_size):
                idx = order[start : start + cfg.batch_size]
                if len(idx) == 0:
                    continue
                diags.append(_update_mlp_minibatch(net, buffer, idx, cfg, adam))
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


SCENARIO_TO_ENV_KIND = {"mbs": "mbs_train", "dbs": "dbs_train", "qomdp": "qomdp_train"}


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
    (returning objects with the ScenarioEnv surface) replaces the scenario
    environment, optionally with a matching ``net``; that is how the toy-task
    tests drive the same loop.
    """
    if scenario not in SCENARIO_TO_ENV_KIND and env_factory is None:
        raise ValueError(f"unknown scenario {scenario!r}")
    root = RngStream(seed)
    if net is None:
        net = _make_net(scenario, ppo_cfg, root.substream("init").generator())
    sample_gen = root.substream("actions").generator()
    shuffle_gen = root.substream("shuffle").generator()
    adam = Adam(learning_rate=ppo_cfg.learning_rate, max_grad_norm=ppo_cfg.max_grad_norm)

    if env_factory is None:
        kind = SCENARIO_TO_ENV_KIND[scenario]
        envs = [
            ScenarioEnv(kind, env_cfg, root.substream("env", i))
            for i in range(ppo_cfg.n_envs)
        ]
    else:
        envs = [env_factory(root.substream("env", i)) for i in range(ppo_cfg.n_envs)]
    obs_dim = envs[0].obs_dim
    runners = [_EnvRunner(env, net) for env in envs]

    curve: list[dict] = []
    n_updates = ppo_cfg.total_timesteps // ppo_cfg.n_steps
    best_reward = -np.inf
    for update in range(n_updates):
        buffer = collect_rollout(runners, net, ppo_cfg, sample_gen, obs_dim)
        compute_gae(buffer, ppo_cfg.gamma, ppo_cfg.gae_lambda)
        try:
            diag = ppo_update(net, buffer, ppo_cfg, adam, shuffle_gen)
        except TrainingDiverged as exc:
            raise TrainingDiverged(
                f"update {update} (timestep {update * ppo_cfg.n_steps}): {exc}"
            ) from exc
        finished = [r for runner in runners for r in runner.finished_rewards]
        for runner in runners:
            runner.finished_rewards.clear()
        mean_reward = float(np.mean(finished)) if finished else np.nan
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
