"""Actor-critic networks in plain float64 numpy, with hand-written backprop.

Two architectures: a feed-forward actor-critic (separate tanh trunks for
policy and value, linear heads, one state-independent log-std) and a
recurrent one that inserts an LSTM cell in front of each trunk (one cell
function serves the rollout step and the packed sequences).  Gradients
are exact and verified against central finite differences in the test suite,
which is also why everything stays in double precision.  The recurrent net
steps one observation at a time in rollouts and evaluation, and trains on
packed sequences: episode segments back to back, with no padding.

Parameters live in flat ``dict[str, ndarray]`` maps so the optimizer,
checkpoint format, and gradient checks can treat them uniformly.
"""

from __future__ import annotations

from functools import lru_cache, partial
from typing import NamedTuple

import numpy as np

#: the appendix trunks (tanh layers of each of the policy and value nets)
#: and LSTM width; every net starts at log-std 0
HIDDEN = (64, 64, 64)
LSTM_HIDDEN = 64
LOG_STD_MIN = -20.0
LOG_STD_MAX = 2.0
#: Adam's moment decays and denominator guard, and the global gradient-norm budget
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-5
MAX_GRAD_NORM = 0.5


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
              head_gain: float, weight) -> dict[str, np.ndarray]:
    params: dict[str, np.ndarray] = {}
    d = in_dim
    for i, h in enumerate(hidden):
        params[f"{prefix}.w{i}"] = weight((d, h), np.sqrt(2.0))
        params[f"{prefix}.b{i}"] = np.zeros(h)
        d = h
    params[f"{prefix}.wh"] = weight((d, out_dim), head_gain)
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
                 hidden: tuple[int, ...] = HIDDEN, gen: np.random.Generator | None = None):
        weight = partial(orthogonal, gen=gen or np.random.default_rng(0))
        self.obs_dim = obs_dim
        self.n_action_outputs = n_action_outputs
        self.hidden = tuple(hidden)
        self.params: dict[str, np.ndarray] = {}
        self.params.update(_init_mlp("pi", obs_dim, self.hidden, n_action_outputs, 0.01, weight))
        self.params.update(_init_mlp("vf", obs_dim, self.hidden, 1, 1.0, weight))
        self.params["log_std"] = np.array(0.0)

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

    # -- rollout paths: one observation (obs_dim,) or a stack (n, obs_dim); each
    # row runs as its own (1, obs_dim) product, because a flat (n, obs_dim)
    # product rounds differently from the single-row one --

    def policy_head(self, obs: np.ndarray) -> np.ndarray:
        out, _ = _mlp_forward(self.params, "pi", len(self.hidden), obs[..., None, :])
        return out[..., 0, :]

    def value(self, obs: np.ndarray) -> float | np.ndarray:
        """The value of one observation as a float, of a stack (n, obs_dim) as (n,)."""
        out, _ = _mlp_forward(self.params, "vf", len(self.hidden), obs[..., None, :])
        return float(out[0, 0]) if obs.ndim == 1 else out[:, 0, 0]

    def initial_state(self):
        return None

    def step(self, obs: np.ndarray, state):
        """Same surface as the recurrent step: (head outputs (k,), value, None)."""
        return self.policy_head(obs), self.value(obs), None

    def policy_step(self, obs: np.ndarray, state):
        """Policy head alone, same surface as the recurrent one: (head outputs, None)."""
        return self.policy_head(obs), None


def _init_lstm(prefix: str, in_dim: int, hidden: int, weight) -> dict[str, np.ndarray]:
    # gate order i, f, g, o; each (in_dim, hidden) block orthogonal on its own
    wx = np.concatenate([weight((in_dim, hidden), 1.0) for _ in range(4)], axis=1)
    wh = np.concatenate([weight((hidden, hidden), 1.0) for _ in range(4)], axis=1)
    return {f"{prefix}.wx": wx, f"{prefix}.wh": wh, f"{prefix}.b": np.zeros(4 * hidden)}


@lru_cache
def _gate_scale(hidden: int) -> np.ndarray:
    """Per-column scale s of the gate blocks i, f, g, o: s*tanh(s*x) + 1 - s is
    sigmoid(x) = 0.5 + 0.5*tanh(0.5*x) on i, f, o and tanh(x) on g."""
    scale = np.repeat([0.5, 0.5, 1.0, 0.5], hidden)
    scale.flags.writeable = False
    return scale


def _lstm_cell(pre: np.ndarray, c: np.ndarray):
    """The LSTM cell on its pre-activations pre (..., 4H) and cell state c (..., H).

    Returns the gate activations i, f, g, o (..., 4H), c', tanh c' and h'.
    """
    hid = c.shape[-1]
    scale = _gate_scale(hid)
    gates = scale * np.tanh(scale * pre) + (1.0 - scale)
    i, f = gates[..., :hid], gates[..., hid:2 * hid]
    g, o = gates[..., 2 * hid:3 * hid], gates[..., 3 * hid:]
    c_new = f * c + i * g
    tanh_c = np.tanh(c_new)
    return gates, c_new, tanh_c, o * tanh_c


def _lstm_step(params, prefix: str, x, h, c):
    """One LSTM step; x (..., n, in), h/c (..., n, hidden). Returns h', c'."""
    pre = x @ params[f"{prefix}.wx"] + h @ params[f"{prefix}.wh"] + params[f"{prefix}.b"]
    _, c_new, _, h_new = _lstm_cell(pre, c)
    return h_new, c_new


def _stacked_lstm(params, name: str) -> np.ndarray:
    """The policy and value LSTMs' ``name`` arrays, stacked on a leading axis of 2."""
    return np.stack([params[f"pi_lstm.{name}"], params[f"vf_lstm.{name}"]])


class _PackedCache(NamedTuple):
    """What :meth:`RecurrentActorCritic.sequence_backward` needs of a forward pass.

    Rows are packed (step-major, longest sequence first): ``perm`` maps each
    packed row to its input row, ``alive`` holds the number of rows of each
    step, and the per-row arrays carry both LSTMs on a leading axis of 2.
    """

    perm: np.ndarray
    alive: np.ndarray
    x: np.ndarray  # (n, obs_dim)
    gates: np.ndarray  # (2, n, 4H) activations i, f, g, o
    h_prev: np.ndarray  # (2, n, H)
    c_prev: np.ndarray  # (2, n, H)
    tanh_c: np.ndarray  # (2, n, H)
    pi_acts: list
    vf_acts: list


class RecurrentActorCritic:
    """Actor-critic with one LSTM cell per trunk feeding the tanh extractor."""

    kind = "lstm"

    def __init__(self, obs_dim: int, n_action_outputs: int = 2,
                 hidden: tuple[int, ...] = HIDDEN, lstm_hidden: int = LSTM_HIDDEN,
                 gen: np.random.Generator | None = None):
        weight = partial(orthogonal, gen=gen or np.random.default_rng(0))
        self.obs_dim = obs_dim
        self.n_action_outputs = n_action_outputs
        self.hidden = tuple(hidden)
        self.lstm_hidden = lstm_hidden
        self.params: dict[str, np.ndarray] = {}
        self.params.update(_init_lstm("pi_lstm", obs_dim, lstm_hidden, weight))
        self.params.update(_init_mlp("pi", lstm_hidden, self.hidden, n_action_outputs, 0.01, weight))
        self.params.update(_init_lstm("vf_lstm", obs_dim, lstm_hidden, weight))
        self.params.update(_init_mlp("vf", lstm_hidden, self.hidden, 1, 1.0, weight))
        self.params["log_std"] = np.array(0.0)

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
        h_vf2, c_vf2 = _lstm_step(self.params, "vf_lstm", obs[None, :], h_vf, c_vf)
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
        h, c = _lstm_step(self.params, "pi_lstm", obs[..., None, :], *state)
        heads, _ = _mlp_forward(self.params, "pi", len(self.hidden), h)
        return heads[..., 0, :], (h, c)

    # -- packed-sequence path (training) --

    def sequence_forward(self, obs: np.ndarray, lengths, init_state):
        """Packed sequences -> heads (n, k), values (n,), cache.

        ``obs`` (n, obs_dim) holds the sequences' rows back to back, ``lengths``
        their lengths (summing to n), and ``init_state`` the (h_pi, c_pi, h_vf,
        c_vf) tuple at each sequence's start, each (n_seq, lstm_hidden).  Heads
        and values come back in the row order of ``obs``.

        The sequences step longest first, so the ones alive at step t are a
        prefix of that order and every step works on packed rows only.  Both
        LSTMs run as one stacked (2, k_t, H) product per step; the input
        projection is computed once for all rows before the loop.
        """
        lengths = np.asarray(lengths)
        order = np.argsort(-lengths, kind="stable")
        alive = (lengths[:, None] > np.arange(lengths.max())).sum(axis=0)  # k_t
        starts = np.cumsum(lengths) - lengths
        # packed row of (step t, j-th longest sequence) -> its row in obs
        perm = np.concatenate([starts[order[:k]] + t for t, k in enumerate(alive)])
        x = obs[perm]
        wx, wh, b = (_stacked_lstm(self.params, name) for name in ("wx", "wh", "b"))
        xw = x @ wx  # (2, n, 4H)
        n, hid = len(perm), self.lstm_hidden
        gates = np.empty((2, n, 4 * hid))
        h_prev, c_prev, tanh_c, h_rows = (np.empty((2, n, hid)) for _ in range(4))
        h = np.stack([init_state[0], init_state[2]])[:, order]
        c = np.stack([init_state[1], init_state[3]])[:, order]
        off = 0
        for k in alive:
            rows = slice(off, off + k)
            h, c = h[:, :k], c[:, :k]
            h_prev[:, rows], c_prev[:, rows] = h, c
            pre = xw[:, rows] + h @ wh + b[:, None, :]
            gates[:, rows], c, tanh_c[:, rows], h = _lstm_cell(pre, c)
            h_rows[:, perm[rows]] = h  # back in the row order of obs, for the trunks
            off += k
        heads, pi_acts = _mlp_forward(self.params, "pi", len(self.hidden), h_rows[0])
        values, vf_acts = _mlp_forward(self.params, "vf", len(self.hidden), h_rows[1])
        cache = _PackedCache(perm, alive, x, gates, h_prev, c_prev, tanh_c, pi_acts, vf_acts)
        return heads, values[:, 0], cache

    def sequence_backward(self, cache, dheads: np.ndarray, dvalues: np.ndarray,
                          grads: dict[str, np.ndarray]) -> None:
        """dheads (n, k), dvalues (n,), in the row order of :meth:`sequence_forward`.

        Only the dh/dc recursion steps through time; the LSTM weight gradients
        are one product each over all packed rows.
        """
        hid = self.lstm_hidden
        dh_pi = _mlp_backward(self.params, "pi", len(self.hidden), cache.pi_acts, dheads, grads)
        dh_vf = _mlp_backward(self.params, "vf", len(self.hidden), cache.vf_acts,
                              dvalues[:, None], grads)
        dh_out = np.stack([dh_pi, dh_vf])[:, cache.perm]
        wh_t = _stacked_lstm(self.params, "wh").transpose(0, 2, 1)
        dpre = np.empty_like(cache.gates)
        dh_next = dc_next = np.zeros((2, 0, hid))
        end = len(cache.perm)
        for k in reversed(cache.alive):
            rows = slice(end - k, end)
            live = dh_next.shape[1]  # rows still alive one step later
            i, f, g, o = np.split(cache.gates[:, rows], 4, axis=2)
            tanh_c = cache.tanh_c[:, rows]
            dh = dh_out[:, rows]
            dh[:, :live] += dh_next
            dc = dh * o * (1.0 - tanh_c**2)
            dc[:, :live] += dc_next
            dpre[:, rows, :hid] = dc * g * i * (1.0 - i)
            dpre[:, rows, hid:2 * hid] = dc * cache.c_prev[:, rows] * f * (1.0 - f)
            dpre[:, rows, 2 * hid:3 * hid] = dc * i * (1.0 - g**2)
            dpre[:, rows, 3 * hid:] = dh * tanh_c * o * (1.0 - o)
            dh_next = dpre[:, rows] @ wh_t
            dc_next = dc * f
            end -= k
        for l, prefix in enumerate(("pi_lstm", "vf_lstm")):
            grads[f"{prefix}.wx"] += cache.x.T @ dpre[l]
            grads[f"{prefix}.wh"] += cache.h_prev[l].T @ dpre[l]
            grads[f"{prefix}.b"] += dpre[l].sum(axis=0)


class Adam:
    """Adam with global gradient-norm clipping (the cited implementation's defaults)."""

    def __init__(self, learning_rate: float):
        self.learning_rate = learning_rate
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}
        self.t = 0

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> float:
        """Clip to the norm budget and apply one update; returns the pre-clip norm."""
        total = float(np.sqrt(sum(float(np.sum(g * g)) for g in grads.values())))
        scale = 1.0
        if total > MAX_GRAD_NORM:
            scale = MAX_GRAD_NORM / (total + 1e-12)
        self.t += 1
        for name, g in grads.items():
            g = g * scale
            if name not in self.m:
                self.m[name] = np.zeros_like(g)
                self.v[name] = np.zeros_like(g)
            self.m[name] = ADAM_BETA1 * self.m[name] + (1 - ADAM_BETA1) * g
            self.v[name] = ADAM_BETA2 * self.v[name] + (1 - ADAM_BETA2) * g * g
            m_hat = self.m[name] / (1 - ADAM_BETA1**self.t)
            v_hat = self.v[name] / (1 - ADAM_BETA2**self.t)
            params[name] -= self.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
        if "log_std" in params:
            params["log_std"] = np.clip(params["log_std"], LOG_STD_MIN, LOG_STD_MAX)
        return total
