"""Actor-critic networks in plain float64 numpy, with hand-written backprop.

Two architectures: a feed-forward actor-critic (separate tanh trunks for
policy and value, linear heads, one state-independent log-std) and a
recurrent one that inserts an LSTM cell in front of each trunk.  Gradients
are exact and verified against central finite differences in the test suite,
which is also why everything stays in double precision.

Parameters live in flat ``dict[str, ndarray]`` maps so the optimizer,
checkpoint format, and gradient checks can treat them uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

LOG_STD_MIN = -20.0
LOG_STD_MAX = 2.0


def orthogonal(shape: tuple[int, int], gain: float, gen: np.random.Generator) -> np.ndarray:
    """Orthogonal weight init (QR of a Gaussian matrix, sign-fixed)."""
    rows, cols = shape
    a = gen.standard_normal((max(rows, cols), min(rows, cols)))
    q, r = np.linalg.qr(a)
    q = q * np.sign(np.diag(r))
    if rows < cols:
        q = q.T
    return gain * q[:rows, :cols]


def _init_mlp(prefix: str, in_dim: int, hidden: tuple[int, ...], out_dim: int,
              head_gain: float, gen: np.random.Generator) -> dict[str, np.ndarray]:
    params: dict[str, np.ndarray] = {}
    d = in_dim
    for i, h in enumerate(hidden):
        params[f"{prefix}.w{i}"] = orthogonal((d, h), np.sqrt(2.0), gen)
        params[f"{prefix}.b{i}"] = np.zeros(h)
        d = h
    params[f"{prefix}.wh"] = orthogonal((d, out_dim), head_gain, gen)
    params[f"{prefix}.bh"] = np.zeros(out_dim)
    return params


def _mlp_forward(params, prefix: str, n_hidden: int, x: np.ndarray):
    """x: (n, in) -> (head output (n, out), activation cache)."""
    acts = [x]
    h = x
    for i in range(n_hidden):
        h = np.tanh(h @ params[f"{prefix}.w{i}"] + params[f"{prefix}.b{i}"])
        acts.append(h)
    out = h @ params[f"{prefix}.wh"] + params[f"{prefix}.bh"]
    return out, acts


def _mlp_backward(params, prefix: str, n_hidden: int, acts, dout: np.ndarray,
                  grads: dict[str, np.ndarray]) -> np.ndarray:
    """Accumulate parameter grads for dL/dout; returns dL/dx."""
    h_last = acts[-1]
    grads[f"{prefix}.wh"] += h_last.T @ dout
    grads[f"{prefix}.bh"] += dout.sum(axis=0)
    dh = dout @ params[f"{prefix}.wh"].T
    for i in reversed(range(n_hidden)):
        dz = dh * (1.0 - acts[i + 1] ** 2)
        grads[f"{prefix}.w{i}"] += acts[i].T @ dz
        grads[f"{prefix}.b{i}"] += dz.sum(axis=0)
        dh = dz @ params[f"{prefix}.w{i}"].T
    return dh


def zero_grads_like(params: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    return {k: np.zeros_like(v) for k, v in params.items()}


def validate_params(params: dict[str, np.ndarray]) -> None:
    for name, value in params.items():
        if not np.all(np.isfinite(value)):
            raise FloatingPointError(f"parameter {name} contains non-finite entries")
    if "log_std" in params:
        ls = float(params["log_std"])
        if not LOG_STD_MIN <= ls <= LOG_STD_MAX:
            raise FloatingPointError(f"log_std {ls} outside [{LOG_STD_MIN}, {LOG_STD_MAX}]")


class MlpActorCritic:
    """Feed-forward actor-critic: hidden tanh trunks of equal width, linear heads."""

    kind = "mlp"

    def __init__(self, obs_dim: int, n_action_outputs: int = 1,
                 hidden: tuple[int, ...] = (64, 64, 64),
                 log_std_init: float = 0.0,
                 gen: np.random.Generator | None = None):
        gen = gen or np.random.default_rng(0)
        self.obs_dim = obs_dim
        self.n_action_outputs = n_action_outputs
        self.hidden = tuple(hidden)
        self.params: dict[str, np.ndarray] = {}
        self.params.update(_init_mlp("pi", obs_dim, self.hidden, n_action_outputs, 0.01, gen))
        self.params.update(_init_mlp("vf", obs_dim, self.hidden, 1, 1.0, gen))
        self.params["log_std"] = np.array(float(log_std_init))

    @property
    def log_std(self) -> float:
        return float(self.params["log_std"])

    # -- batch paths (training) --

    def forward(self, obs: np.ndarray):
        """obs (n, obs_dim) -> (action head (n, k), values (n,), cache)."""
        heads, pi_acts = _mlp_forward(self.params, "pi", len(self.hidden), obs)
        values, vf_acts = _mlp_forward(self.params, "vf", len(self.hidden), obs)
        return heads, values[:, 0], (pi_acts, vf_acts)

    def backward(self, cache, dheads: np.ndarray, dvalues: np.ndarray,
                 grads: dict[str, np.ndarray]) -> None:
        pi_acts, vf_acts = cache
        _mlp_backward(self.params, "pi", len(self.hidden), pi_acts, dheads, grads)
        _mlp_backward(self.params, "vf", len(self.hidden), vf_acts, dvalues[:, None], grads)

    # -- single-sample paths (rollout); the policy ones also take a batch (n, obs_dim) --

    def policy_head(self, obs: np.ndarray) -> np.ndarray:
        # each row runs as its own (1, obs_dim) product: a flat (n, obs_dim)
        # product rounds differently from the single-row one
        out, _ = _mlp_forward(self.params, "pi", len(self.hidden), obs[..., None, :])
        return out[..., 0, :]

    def value(self, obs: np.ndarray) -> float:
        out, _ = _mlp_forward(self.params, "vf", len(self.hidden), obs[None, :])
        return float(out[0, 0])

    def initial_state(self):
        return None

    def step(self, obs: np.ndarray, state):
        """Same surface as the recurrent step: (head outputs (k,), value, None)."""
        return self.policy_head(obs), self.value(obs), None

    def policy_step(self, obs: np.ndarray, state):
        """Policy head alone, same surface as the recurrent one: (head outputs, None)."""
        return self.policy_head(obs), None


def _init_lstm(prefix: str, in_dim: int, hidden: int, gen: np.random.Generator) -> dict[str, np.ndarray]:
    # gate order i, f, g, o; each (in_dim, hidden) block orthogonal on its own
    wx = np.concatenate([orthogonal((in_dim, hidden), 1.0, gen) for _ in range(4)], axis=1)
    wh = np.concatenate([orthogonal((hidden, hidden), 1.0, gen) for _ in range(4)], axis=1)
    return {f"{prefix}.wx": wx, f"{prefix}.wh": wh, f"{prefix}.b": np.zeros(4 * hidden)}


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def _lstm_step(params, prefix: str, hidden: int, x, h, c):
    """One LSTM step; x (..., n, in), h/c (..., n, hidden). Returns h', c', gate cache."""
    pre = x @ params[f"{prefix}.wx"] + h @ params[f"{prefix}.wh"] + params[f"{prefix}.b"]
    i = _sigmoid(pre[..., :hidden])
    f = _sigmoid(pre[..., hidden:2 * hidden])
    g = np.tanh(pre[..., 2 * hidden:3 * hidden])
    o = _sigmoid(pre[..., 3 * hidden:])
    c_new = f * c + i * g
    tanh_c = np.tanh(c_new)
    h_new = o * tanh_c
    return h_new, c_new, (x, h, c, i, f, g, o, tanh_c)


def _lstm_backward(params, prefix: str, hidden: int, caches, dh_seq,
                   grads: dict[str, np.ndarray]):
    """BPTT through a sequence of step caches; dh_seq (T, n, hidden)."""
    t_len = len(caches)
    dh_next = np.zeros_like(dh_seq[0])
    dc_next = np.zeros_like(dh_seq[0])
    for t in reversed(range(t_len)):
        x, h_prev, c_prev, i, f, g, o, tanh_c = caches[t]
        dh = dh_seq[t] + dh_next
        do = dh * tanh_c
        dc = dh * o * (1.0 - tanh_c**2) + dc_next
        di = dc * g
        df = dc * c_prev
        dg = dc * i
        dpre = np.concatenate(
            [
                di * i * (1.0 - i),
                df * f * (1.0 - f),
                dg * (1.0 - g**2),
                do * o * (1.0 - o),
            ],
            axis=1,
        )
        grads[f"{prefix}.wx"] += x.T @ dpre
        grads[f"{prefix}.wh"] += h_prev.T @ dpre
        grads[f"{prefix}.b"] += dpre.sum(axis=0)
        dh_next = dpre @ params[f"{prefix}.wh"].T
        dc_next = dc * f


class RecurrentActorCritic:
    """Actor-critic with one LSTM cell per trunk feeding the tanh extractor."""

    kind = "lstm"

    def __init__(self, obs_dim: int, n_action_outputs: int = 2,
                 hidden: tuple[int, ...] = (64, 64, 64), lstm_hidden: int = 64,
                 log_std_init: float = 0.0,
                 gen: np.random.Generator | None = None):
        gen = gen or np.random.default_rng(0)
        self.obs_dim = obs_dim
        self.n_action_outputs = n_action_outputs
        self.hidden = tuple(hidden)
        self.lstm_hidden = lstm_hidden
        self.params: dict[str, np.ndarray] = {}
        self.params.update(_init_lstm("pi_lstm", obs_dim, lstm_hidden, gen))
        self.params.update(_init_mlp("pi", lstm_hidden, self.hidden, n_action_outputs, 0.01, gen))
        self.params.update(_init_lstm("vf_lstm", obs_dim, lstm_hidden, gen))
        self.params.update(_init_mlp("vf", lstm_hidden, self.hidden, 1, 1.0, gen))
        self.params["log_std"] = np.array(float(log_std_init))

    @property
    def log_std(self) -> float:
        return float(self.params["log_std"])

    def initial_state(self):
        """Zeroed (h, c) for both trunks, reset at every episode boundary."""
        z = np.zeros((1, self.lstm_hidden))
        return (z, z, z, z)  # h_pi, c_pi, h_vf, c_vf

    # -- single-sample paths (rollout); the policy one also takes a batch (n, obs_dim) --

    def step(self, obs: np.ndarray, state):
        """One recurrent step; returns (head outputs (k,), value, next state)."""
        h_pi, c_pi, h_vf, c_vf = state
        heads, (h_pi2, c_pi2) = self.policy_step(obs, (h_pi, c_pi))
        h_vf2, c_vf2, _ = _lstm_step(
            self.params, "vf_lstm", self.lstm_hidden, obs[None, :], h_vf, c_vf
        )
        value, _ = _mlp_forward(self.params, "vf", len(self.hidden), h_vf2)
        return heads, float(value[0, 0]), (h_pi2, c_pi2, h_vf2, c_vf2)

    def policy_step(self, obs: np.ndarray, state):
        """Policy trunk alone: (head outputs (..., k), next (h_pi, c_pi)).

        Each row runs as its own (1, obs_dim) product, as in :meth:`step`;
        ``state=None`` starts from zeros.
        """
        if state is None:
            zeros = np.zeros(obs.shape[:-1] + (1, self.lstm_hidden))
            state = (zeros, zeros)
        h, c, _ = _lstm_step(self.params, "pi_lstm", self.lstm_hidden, obs[..., None, :], *state)
        heads, _ = _mlp_forward(self.params, "pi", len(self.hidden), h)
        return heads[..., 0, :], (h, c)

    # -- batched-sequence path (training) --

    def sequence_forward(self, obs_seq: np.ndarray, init_state):
        """obs_seq (n_seq, T, obs_dim) -> heads (n_seq, T, k), values (n_seq, T), cache.

        ``init_state`` is the (h_pi, c_pi, h_vf, c_vf) tuple at sequence start,
        each (n_seq, lstm_hidden).
        """
        n_seq, t_len, _ = obs_seq.shape
        h_pi, c_pi, h_vf, c_vf = init_state
        pi_caches, vf_caches = [], []
        pi_hs = np.empty((t_len, n_seq, self.lstm_hidden))
        vf_hs = np.empty((t_len, n_seq, self.lstm_hidden))
        for t in range(t_len):
            x = obs_seq[:, t, :]
            h_pi, c_pi, cache_pi = _lstm_step(self.params, "pi_lstm", self.lstm_hidden, x, h_pi, c_pi)
            h_vf, c_vf, cache_vf = _lstm_step(self.params, "vf_lstm", self.lstm_hidden, x, h_vf, c_vf)
            pi_caches.append(cache_pi)
            vf_caches.append(cache_vf)
            pi_hs[t] = h_pi
            vf_hs[t] = h_vf
        pi_flat = pi_hs.transpose(1, 0, 2).reshape(n_seq * t_len, self.lstm_hidden)
        vf_flat = vf_hs.transpose(1, 0, 2).reshape(n_seq * t_len, self.lstm_hidden)
        heads, pi_acts = _mlp_forward(self.params, "pi", len(self.hidden), pi_flat)
        values, vf_acts = _mlp_forward(self.params, "vf", len(self.hidden), vf_flat)
        cache = (pi_caches, vf_caches, pi_acts, vf_acts, n_seq, t_len)
        return (
            heads.reshape(n_seq, t_len, self.n_action_outputs),
            values.reshape(n_seq, t_len),
            cache,
        )

    def sequence_backward(self, cache, dheads: np.ndarray, dvalues: np.ndarray,
                          grads: dict[str, np.ndarray]) -> None:
        """dheads (n_seq, T, k), dvalues (n_seq, T); masked steps must carry zeros."""
        pi_caches, vf_caches, pi_acts, vf_acts, n_seq, t_len = cache
        dheads_flat = dheads.reshape(n_seq * t_len, self.n_action_outputs)
        dvalues_flat = dvalues.reshape(n_seq * t_len, 1)
        dh_pi = _mlp_backward(self.params, "pi", len(self.hidden), pi_acts, dheads_flat, grads)
        dh_vf = _mlp_backward(self.params, "vf", len(self.hidden), vf_acts, dvalues_flat, grads)
        dh_pi_seq = dh_pi.reshape(n_seq, t_len, self.lstm_hidden).transpose(1, 0, 2)
        dh_vf_seq = dh_vf.reshape(n_seq, t_len, self.lstm_hidden).transpose(1, 0, 2)
        _lstm_backward(self.params, "pi_lstm", self.lstm_hidden, pi_caches, dh_pi_seq, grads)
        _lstm_backward(self.params, "vf_lstm", self.lstm_hidden, vf_caches, dh_vf_seq, grads)


@dataclass
class Adam:
    """Adam with global gradient-norm clipping (the cited implementation's defaults)."""

    learning_rate: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-5
    max_grad_norm: float = 0.5
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    t: int = 0

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> float:
        """Clip to the norm budget and apply one update; returns the pre-clip norm."""
        total = float(np.sqrt(sum(float(np.sum(g * g)) for g in grads.values())))
        scale = 1.0
        if self.max_grad_norm and total > self.max_grad_norm:
            scale = self.max_grad_norm / (total + 1e-12)
        self.t += 1
        for name, g in grads.items():
            g = g * scale
            if name not in self.m:
                self.m[name] = np.zeros_like(g)
                self.v[name] = np.zeros_like(g)
            self.m[name] = self.beta1 * self.m[name] + (1 - self.beta1) * g
            self.v[name] = self.beta2 * self.v[name] + (1 - self.beta2) * g * g
            m_hat = self.m[name] / (1 - self.beta1**self.t)
            v_hat = self.v[name] / (1 - self.beta2**self.t)
            params[name] -= self.learning_rate * m_hat / (np.sqrt(v_hat) + self.eps)
        if "log_std" in params:
            params["log_std"] = np.clip(params["log_std"], LOG_STD_MIN, LOG_STD_MAX)
        return total
