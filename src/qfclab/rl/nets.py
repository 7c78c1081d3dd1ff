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
check work on one vector.  The recurrent net lays each policy array next to
its value twin: both LSTMs run as one stacked (2, ...) product, per packed step
in training and per observation in rollouts; both trunks do so in rollouts only.
The training forwards and the trunk backwards work in buffers the net keeps:
a training forward's cache stays valid until the next training forward on
that net, and nothing a backward returns points into a buffer.  The LSTM's
backward recursion makes new arrays at each packed step.
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


def _fortran(a: np.ndarray) -> bool:
    return a.flags.f_contiguous and not a.flags.c_contiguous


class FlatParams(dict):
    """Named parameter arrays that are views tiling one flat float64 vector, ``flat``.

    The views lie in ``flat`` in the order of ``layout``, the dict's order unless
    given.  A layout entry may pair two names of one shape and memory order: they
    then lie side by side, and ``stacks[first name]`` is the (2, ...) view of both.
    Each view keeps the memory order of the array it was made from (``orthogonal``
    returns wide weights Fortran-ordered), because products and sums round by
    memory order.  The views stay bound: rebinding a name raises ``TypeError``
    (assign into the view instead), and a copy or an unpickled instance rebuilds
    them on its own ``flat``.
    """

    def __init__(self, arrays: dict[str, np.ndarray], flat: np.ndarray | None = None,
                 layout=None):
        """Views onto ``flat`` shaped and ordered like ``arrays``; without ``flat``,
        onto a new vector that holds copies of their values."""
        super().__init__()
        self.layout = tuple(arrays if layout is None else layout)
        self.flat = np.empty(sum(a.size for a in arrays.values())) if flat is None else flat
        self.stacks: dict[str, np.ndarray] = {}
        entries = [entry if isinstance(entry, tuple) else (entry,) for entry in self.layout]
        if sorted(name for names in entries for name in names) != sorted(arrays):
            raise ValueError("the layout must place every parameter exactly once")
        views, offset = {}, 0
        for names in entries:
            a = arrays[names[0]]
            if any(arrays[name].shape != a.shape or _fortran(arrays[name]) != _fortran(a)
                   for name in names):
                raise ValueError(f"paired parameters {names} differ in shape or memory order")
            block = self.flat[offset:offset + len(names) * a.size]
            if _fortran(a):
                stack = block.reshape(len(names), *a.shape[::-1]).transpose(
                    0, *range(a.ndim, 0, -1))
            else:
                stack = block.reshape(len(names), *a.shape)
            views.update((name, stack[j, ...]) for j, name in enumerate(names))
            if len(names) > 1:
                self.stacks[names[0]] = stack
            offset += block.size
        for name, a in arrays.items():
            dict.__setitem__(self, name, views[name])
            if flat is None:
                views[name][...] = a

    def __setitem__(self, name, value):
        if dict.get(self, name) is not value:  # augmented assignment stores the view back
            raise TypeError(f"parameter {name!r} is a view onto the flat vector: assign into "
                            f"it (params[{name!r}][...] = value) instead of rebinding it")

    def update(self, *args, **kwargs):
        raise TypeError("parameters are views onto the flat vector: assign into them")

    def __reduce__(self):
        spec = {name: (value.shape, _fortran(value)) for name, value in self.items()}
        return _restore_flat_params, (self.flat, self.layout, spec)


def _restore_flat_params(flat: np.ndarray, layout, spec) -> FlatParams:
    """A copied or unpickled :class:`FlatParams`: its views rebuilt on ``flat``."""
    shapes = {name: np.empty(shape, order="F" if fortran else "C")
              for name, (shape, fortran) in spec.items()}
    return FlatParams(shapes, flat, layout)


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
    return FlatParams(params, np.zeros_like(params.flat), params.layout)


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
def _gate_scale(hidden: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-column scale s of the gate blocks i, f, g, o, and 1 - s: s*tanh(s*x) + 1 - s
    is sigmoid(x) = 0.5 + 0.5*tanh(0.5*x) on i, f, o and tanh(x) on g."""
    scale = np.repeat([0.5, 0.5, 1.0, 0.5], hidden)
    shift = 1.0 - scale
    scale.flags.writeable = shift.flags.writeable = False
    return scale, shift


def _lstm_cell(pre: np.ndarray, c: np.ndarray, c_new=None, tanh_c=None, h_new=None):
    """The LSTM cell on its pre-activations pre (..., 4H) and cell state c (..., H).

    ``pre`` becomes the gate activations i, f, g, o in place.  Returns c', tanh c'
    and h', written into the given arrays (new ones where none is given).
    """
    hid = c.shape[-1]
    scale, shift = _gate_scale(hid)
    pre *= scale
    np.tanh(pre, out=pre)
    pre *= scale
    pre += shift
    i, f = pre[..., :hid], pre[..., hid:2 * hid]
    g, o = pre[..., 2 * hid:3 * hid], pre[..., 3 * hid:]
    c_new = np.multiply(f, c, out=c_new)
    tanh_c = np.multiply(i, g, out=tanh_c)
    c_new += tanh_c
    np.tanh(c_new, out=tanh_c)
    return c_new, tanh_c, np.multiply(o, tanh_c, out=h_new)


def _lstm_step(params, prefix: str, x, h, c):
    """One LSTM step; x (..., n, in), h/c (..., n, hidden). Returns h', c'."""
    pre = x @ params[f"{prefix}.wx"] + h @ params[f"{prefix}.wh"] + params[f"{prefix}.b"]
    c_new, _, h_new = _lstm_cell(pre, c)
    return h_new, c_new


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
    """Actor-critic with one LSTM cell per trunk feeding the tanh extractor.

    Each policy array except the head lies next to its value twin in the flat
    vector (``params.stacks``): both LSTMs run as one stacked (2, ...) product,
    and both hidden trunks too in :meth:`step` only.  The recurrent state is the
    stacked pair (h, c), each (2, n, H), policy row first.
    """

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
        # (weight, bias) names of each hidden layer; the value twin of pi.* is vf.*
        self._layers = [(f"pi.w{i}", f"pi.b{i}") for i in range(len(self.hidden))]
        twins = ["pi_lstm.wx", "pi_lstm.wh", "pi_lstm.b", *(n for l in self._layers for n in l)]
        layout = [(name, "vf" + name[2:]) for name in twins]
        self.params = FlatParams(params, layout=layout + ["pi.wh", "pi.bh", "vf.wh", "vf.bh",
                                                          "log_std"])
        self._scratch: dict = {}  # the training paths' buffers

    @property
    def log_std(self) -> float:
        return float(self.params["log_std"])

    def initial_state(self):
        """Zeroed (h, c) for both trunks, reset at every episode boundary."""
        z = np.zeros((2, 1, self.lstm_hidden))
        return (z, z)

    # -- single-sample paths (rollout); the policy one also takes a batch (n, obs_dim) --

    def step(self, obs: np.ndarray, state):
        """One recurrent step of both trunks as one stack.

        ``state`` is the stacked pair (h, c), each (2, 1, H).  Returns (head outputs
        (k,), value, next state); the next state is new arrays, ``state`` is only read.
        """
        params, stacks = self.params, self.params.stacks
        h, c = state
        pre = (obs[None, :] @ stacks["pi_lstm.wx"] + h @ stacks["pi_lstm.wh"]
               + stacks["pi_lstm.b"][:, None, :])
        c, _, h = _lstm_cell(pre, c)
        z = h
        for w, b in self._layers:
            z = np.tanh(z @ stacks[w] + stacks[b][:, None, :])
        heads = z[0] @ params["pi.wh"] + params["pi.bh"]
        value = z[1] @ params["vf.wh"] + params["vf.bh"]
        return heads[0], float(value[0, 0]), (h, c)

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
        their lengths (summing to n), and ``init_state`` the stacked pair (h, c)
        at each sequence's start, each (2, n_seq, lstm_hidden).  Heads and values
        come back in the row order of ``obs``.

        The sequences step longest first, so the ones alive at step t are a
        prefix of that order and every step works on packed rows only.  Both
        LSTMs run as one stacked (2, k_t, H) product per step, written straight
        into the gate rows; the input projection is computed once for all rows
        before the loop.  The activations live in the net's buffers: the cache
        is valid until the next :meth:`sequence_forward` on this net.
        """
        lengths = np.asarray(lengths)
        order = np.argsort(-lengths, kind="stable")
        alive = (lengths[:, None] > np.arange(lengths.max())).sum(axis=0)  # k_t
        starts = np.cumsum(lengths) - lengths
        # packed row of (step t, j-th longest sequence) -> its row in obs
        perm = np.concatenate([starts[order[:k]] + t for t, k in enumerate(alive)])
        x = obs[perm]
        stacks, scratch = self.params.stacks, self._scratch
        n, hid, width = len(perm), self.lstm_hidden, alive[0]
        xw = np.matmul(x, stacks["pi_lstm.wx"], out=_buffer(scratch, "xw", (2, n, 4 * hid)))
        gates = _buffer(scratch, "gates", (2, n, 4 * hid))
        h_prev, c_prev, tanh_c, h_rows = (
            _buffer(scratch, key, (2, n, hid)) for key in ("h_prev", "c_prev", "tanh_c", "h_rows"))
        h, c = (_buffer(scratch, key, (2, width, hid)) for key in ("h", "c"))
        np.take(init_state[0], order, axis=1, out=h)
        np.take(init_state[1], order, axis=1, out=c)
        wh, b = stacks["pi_lstm.wh"], stacks["pi_lstm.b"][:, None, :]
        off = 0
        for k in alive:
            rows = slice(off, off + k)
            h_prev[:, rows], c_prev[:, rows] = h[:, :k], c[:, :k]
            pre = np.matmul(h_prev[:, rows], wh, out=gates[:, rows])
            pre += xw[:, rows]
            pre += b
            _lstm_cell(pre, c_prev[:, rows], c[:, :k], tanh_c[:, rows], h[:, :k])
            h_rows[:, perm[rows]] = h[:, :k]  # back in the row order of obs, for the trunks
            off += k
        n_hidden = len(self.hidden)
        heads, pi_acts = _mlp_forward(self.params, "pi", n_hidden, h_rows[0], scratch)
        values, vf_acts = _mlp_forward(self.params, "vf", n_hidden, h_rows[1], scratch)
        cache = _PackedCache(perm, alive, x, gates, h_prev, c_prev, tanh_c, pi_acts, vf_acts)
        return heads, values[:, 0], cache

    def sequence_backward(self, cache, dheads: np.ndarray, dvalues: np.ndarray,
                          grads: FlatParams) -> None:
        """dheads (n, k), dvalues (n,), in the row order of :meth:`sequence_forward`.

        Only the dh/dc recursion steps through time, making new arrays at each
        packed step; the LSTM weight gradients are one product each over all
        packed rows.  Only the two trunk backwards work in the net's buffers.
        """
        hid, n_hidden, scratch = self.lstm_hidden, len(self.hidden), self._scratch
        trunks = (("pi", cache.pi_acts, dheads), ("vf", cache.vf_acts, dvalues[:, None]))
        dh_out = np.stack([_mlp_backward(self.params, prefix, n_hidden, acts, dout, grads, scratch)
                           for prefix, acts, dout in trunks])[:, cache.perm]
        wh_t = self.params.stacks["pi_lstm.wh"].transpose(0, 2, 1)
        dpre = np.empty_like(cache.gates)
        dh_next = dc_next = np.zeros((2, 0, hid))  # of the rows still alive one step later
        for k, end in zip(cache.alive[::-1], np.cumsum(cache.alive)[::-1]):
            rows = slice(end - k, end)
            live = dh_next.shape[1]
            i, f, g, o = np.split(cache.gates[:, rows], 4, axis=2)
            tanh_c = cache.tanh_c[:, rows]
            dh = dh_out[:, rows]
            dh[:, :live] += dh_next
            dc = dh * o * (1.0 - tanh_c**2)
            dc[:, :live] += dc_next
            dp = dpre[:, rows]
            dp[..., :hid] = dc * g * i * (1.0 - i)
            dp[..., hid:2 * hid] = dc * cache.c_prev[:, rows] * f * (1.0 - f)
            dp[..., 2 * hid:3 * hid] = dc * i * (1.0 - g**2)
            dp[..., 3 * hid:] = dh * tanh_c * o * (1.0 - o)
            dh_next = dp @ wh_t
            dc_next = dc * f
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
