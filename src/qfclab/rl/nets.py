"""Actor-critic networks in plain float64 numpy, with hand-written backprop.

Two architectures: a feed-forward actor-critic (separate tanh trunks for
policy and value, linear heads, one state-independent log-std) and a
recurrent one that inserts an LSTM cell in front of each trunk (one cell
function serves the rollout step and the packed sequences).  Gradients
are exact and verified against central finite differences in the test suite,
which is also why everything stays in double precision.  The recurrent net
steps one observation at a time in rollouts and evaluation, and trains on
packed sequences: episode segments back to back, with no padding.

Each net holds its parameters in one flat float64 vector; ``net.params`` is a
:class:`FlatParams` dict of named views onto it, so the checkpoint format and
the gradient checks see named arrays while gradients, Adam and the finiteness
check work on one vector.  The training paths write their activations into
buffers the net keeps, so a training forward's cache lasts until the next one.
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


class FlatParams(dict):
    """Named parameter arrays that are views tiling one flat float64 vector, ``flat``.

    The views lie in ``flat`` in the dict's order.  Each keeps the memory order
    of the array it was made from (``orthogonal`` returns wide weights
    Fortran-ordered), because products and sums round by memory order.
    """

    def __init__(self, arrays: dict[str, np.ndarray], flat: np.ndarray | None = None):
        """Views onto ``flat`` shaped and ordered like ``arrays``; without ``flat``,
        onto a new vector that holds copies of their values."""
        super().__init__()
        self.flat = np.empty(sum(a.size for a in arrays.values())) if flat is None else flat
        offset = 0
        for name, a in arrays.items():
            block = self.flat[offset:offset + a.size]
            fortran = a.flags.f_contiguous and not a.flags.c_contiguous
            self[name] = block.reshape(a.shape[::-1]).T if fortran else block.reshape(a.shape)
            if flat is None:
                self[name][...] = a
            offset += a.size


def _buffer(scratch: dict, key, shape: tuple) -> np.ndarray:
    """``scratch``'s array for ``key``, allocated anew when missing or of another shape."""
    buf = scratch.get(key)
    if buf is None or buf.shape != shape:
        buf = scratch[key] = np.empty(shape)
    return buf


def _mlp_forward(params, prefix: str, n_hidden: int, x: np.ndarray, scratch=None):
    """x: (n, in) -> (head output (n, out), activation cache).

    With ``scratch`` (a net's training buffers) the activations go into its
    per-layer arrays, so the cache stays valid only until the next forward
    pass through the same ``scratch``.
    """
    acts = [x]
    h = x
    for i in range(n_hidden):
        w, b = params[f"{prefix}.w{i}"], params[f"{prefix}.b{i}"]
        if scratch is None:
            h = np.tanh(h @ w + b)
        else:
            z = _buffer(scratch, (prefix, i), h.shape[:-1] + w.shape[1:])
            np.matmul(h, w, out=z)
            z += b
            h = np.tanh(z, out=z)
        acts.append(h)
    out = h @ params[f"{prefix}.wh"] + params[f"{prefix}.bh"]
    return out, acts


def _mlp_backward(params, prefix: str, n_hidden: int, acts, dout: np.ndarray,
                  grads: dict[str, np.ndarray], scratch: dict, need_dx: bool = True):
    """Accumulate parameter grads for dL/dout; returns dL/dx, or None without ``need_dx``.

    The per-layer dL/dh and dL/dz go through ``scratch``'s arrays, one of each
    per layer width; the returned dL/dx is a new array.
    """
    wh = params[f"{prefix}.wh"]
    grads[f"{prefix}.wh"] += acts[-1].T @ dout
    grads[f"{prefix}.bh"] += dout.sum(axis=0)
    dh = _buffer(scratch, ("dh", wh.shape[0]), (len(dout), wh.shape[0]))
    if wh.shape[1] == 1:  # an outer product: one multiply per entry, as the matmul does
        np.multiply(dout, wh[:, 0], out=dh)
    else:
        np.matmul(dout, wh.T, out=dh)
    for i in reversed(range(n_hidden)):
        a = acts[i + 1]
        dz = _buffer(scratch, ("dz", a.shape[1]), a.shape)
        np.multiply(a, a, out=dz)  # dh * (1 - a**2), in place
        np.subtract(1.0, dz, out=dz)
        dz *= dh
        grads[f"{prefix}.w{i}"] += acts[i].T @ dz
        grads[f"{prefix}.b{i}"] += dz.sum(axis=0)
        w = params[f"{prefix}.w{i}"]
        if i == 0:
            return dz @ w.T if need_dx else None
        dh = _buffer(scratch, ("dh", w.shape[0]), (len(dz), w.shape[0]))
        np.matmul(dz, w.T, out=dh)
    return dh.copy() if need_dx else None


def zero_grads_like(params: FlatParams) -> FlatParams:
    """Zeroed gradients in the parameters' layout."""
    return FlatParams(params, np.zeros_like(params.flat))


def validate_params(params: FlatParams) -> None:
    if not np.isfinite(params.flat).all():
        name = next(name for name, value in params.items() if not np.isfinite(value).all())
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
        params = _init_mlp("pi", obs_dim, self.hidden, n_action_outputs, 0.01, weight)
        params.update(_init_mlp("vf", obs_dim, self.hidden, 1, 1.0, weight))
        params["log_std"] = np.array(0.0)
        self.params = FlatParams(params)
        self._scratch: dict = {}  # the training paths' buffers

    @property
    def log_std(self) -> float:
        return float(self.params["log_std"])

    # -- batch paths (training) --

    def forward(self, obs: np.ndarray):
        """obs (n, obs_dim) -> (action head (n, k), values (n,), cache).

        The cache lives in the net's buffers: it is valid until the next
        :meth:`forward` on this net.
        """
        heads, pi_acts = _mlp_forward(self.params, "pi", len(self.hidden), obs, self._scratch)
        values, vf_acts = _mlp_forward(self.params, "vf", len(self.hidden), obs, self._scratch)
        return heads, values[:, 0], (pi_acts, vf_acts)

    def backward(self, cache, dheads: np.ndarray, dvalues: np.ndarray,
                 grads: FlatParams) -> None:
        pi_acts, vf_acts = cache
        n_hidden, scratch = len(self.hidden), self._scratch
        _mlp_backward(self.params, "pi", n_hidden, pi_acts, dheads, grads, scratch,
                      need_dx=False)
        _mlp_backward(self.params, "vf", n_hidden, vf_acts, dvalues[:, None], grads, scratch,
                      need_dx=False)

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
        params = _init_lstm("pi_lstm", obs_dim, lstm_hidden, weight)
        params.update(_init_mlp("pi", lstm_hidden, self.hidden, n_action_outputs, 0.01, weight))
        params.update(_init_lstm("vf_lstm", obs_dim, lstm_hidden, weight))
        params.update(_init_mlp("vf", lstm_hidden, self.hidden, 1, 1.0, weight))
        params["log_std"] = np.array(0.0)
        self.params = FlatParams(params)
        self._scratch: dict = {}  # the training paths' buffers

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
        projection is computed once for all rows before the loop.  The trunks'
        part of the cache lives in the net's buffers: it is valid until the next
        :meth:`sequence_forward` on this net.
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
        n_hidden, scratch = len(self.hidden), self._scratch
        heads, pi_acts = _mlp_forward(self.params, "pi", n_hidden, h_rows[0], scratch)
        values, vf_acts = _mlp_forward(self.params, "vf", n_hidden, h_rows[1], scratch)
        cache = _PackedCache(perm, alive, x, gates, h_prev, c_prev, tanh_c, pi_acts, vf_acts)
        return heads, values[:, 0], cache

    def sequence_backward(self, cache, dheads: np.ndarray, dvalues: np.ndarray,
                          grads: FlatParams) -> None:
        """dheads (n, k), dvalues (n,), in the row order of :meth:`sequence_forward`.

        Only the dh/dc recursion steps through time; the LSTM weight gradients
        are one product each over all packed rows.
        """
        hid, n_hidden, scratch = self.lstm_hidden, len(self.hidden), self._scratch
        dh_pi = _mlp_backward(self.params, "pi", n_hidden, cache.pi_acts, dheads, grads, scratch)
        dh_vf = _mlp_backward(self.params, "vf", n_hidden, cache.vf_acts, dvalues[:, None], grads,
                              scratch)
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
    """Adam with global gradient-norm clipping (the cited implementation's defaults).

    The moments are flat vectors in the parameters' layout; every step runs the
    per-array update's operations, in its order, on whole vectors in place.
    """

    def __init__(self, learning_rate: float):
        self.learning_rate = learning_rate
        self.m: np.ndarray | None = None
        self.v: np.ndarray | None = None
        self.t = 0

    def step(self, params: FlatParams, grads: FlatParams) -> float:
        """Clip to the norm budget and apply one update; returns the pre-clip norm."""
        total = float(np.sqrt(sum(float(np.sum(g * g)) for g in grads.values())))
        scale = 1.0
        if total > MAX_GRAD_NORM:
            scale = MAX_GRAD_NORM / (total + 1e-12)
        self.t += 1
        if self.m is None:
            self.m, self.v = np.zeros_like(params.flat), np.zeros_like(params.flat)
            self._g, self._tmp = np.empty_like(params.flat), np.empty_like(params.flat)
        m, v, g, tmp = self.m, self.v, self._g, self._tmp
        np.multiply(grads.flat, scale, out=g)
        m *= ADAM_BETA1
        m += np.multiply(g, 1 - ADAM_BETA1, out=tmp)
        v *= ADAM_BETA2
        np.multiply(g, 1 - ADAM_BETA2, out=tmp)
        tmp *= g
        v += tmp
        np.divide(m, 1 - ADAM_BETA1**self.t, out=tmp)  # m_hat
        tmp *= self.learning_rate
        np.divide(v, 1 - ADAM_BETA2**self.t, out=g)  # v_hat
        np.sqrt(g, out=g)
        g += ADAM_EPS
        tmp /= g
        params.flat -= tmp
        if "log_std" in params:
            np.clip(params["log_std"], LOG_STD_MIN, LOG_STD_MAX, out=params["log_std"])
        return total
