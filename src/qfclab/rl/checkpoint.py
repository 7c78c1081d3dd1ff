"""Policy checkpoints: a text manifest followed by a float64 little-endian blob.

Layout (single file): header lines up to and including ``blob``, then the raw
bytes of every tensor in manifest order.  Example::

    qfc-ckpt-1
    kind mlp
    scenario mbs
    obs_dim 9
    n_action_outputs 1
    hidden 64,64,64
    meta epsilon 0.1
    tensor pi.w0 9,64
    ...
    tensor log_std scalar
    blob
    <binary>
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np

from .nets import MlpActorCritic, RecurrentActorCritic, validate_params

FORMAT_VERSION = "qfc-ckpt-1"


class CheckpointError(ValueError):
    """Malformed or incompatible checkpoint file."""


def _shape_str(shape: tuple[int, ...]) -> str:
    return "scalar" if shape == () else ",".join(str(d) for d in shape)


def _parse_shape(text: str) -> tuple[int, ...]:
    return () if text == "scalar" else tuple(int(d) for d in text.split(","))


def save_policy(path, net, scenario: str, metadata: dict | None = None) -> None:
    """Write the network parameters plus provenance metadata.

    The bytes go to a temporary file beside ``path``, named after this
    process, that is then renamed over it: an interrupted write never leaves
    a partial checkpoint where a later run would take it for a whole one.
    """
    validate_params(net.params)
    lines = [FORMAT_VERSION, f"kind {net.kind}", f"scenario {scenario}"]
    lines.append(f"obs_dim {net.obs_dim}")
    lines.append(f"n_action_outputs {net.n_action_outputs}")
    lines.append(f"hidden {','.join(str(h) for h in net.hidden)}")
    if isinstance(net, RecurrentActorCritic):
        lines.append(f"lstm_hidden {net.lstm_hidden}")
    for key, value in (metadata or {}).items():
        lines.append(f"meta {key} {value}")
    names = sorted(net.params)
    for name in names:
        lines.append(f"tensor {name} {_shape_str(net.params[name].shape)}")
    lines.append("blob")
    payload = b"".join(
        np.ascontiguousarray(net.params[name], dtype="<f8").tobytes() for name in names
    )
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as handle:
            handle.write("\n".join(lines).encode("ascii") + b"\n")
            handle.write(payload)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_policy(path):
    """Read a checkpoint; returns (net, metadata dict)."""
    raw = Path(path).read_bytes()
    marker = b"\nblob\n"
    cut = raw.find(marker)
    if cut < 0:
        raise CheckpointError(f"{path}: no blob marker found")
    header = raw[:cut].decode("ascii").splitlines()
    payload = raw[cut + len(marker):]
    if not header or header[0] != FORMAT_VERSION:
        raise CheckpointError(
            f"{path}: expected version {FORMAT_VERSION!r}, got {header[0] if header else 'nothing'!r}"
        )
    fields: dict[str, str] = {}
    metadata: dict[str, str] = {}
    tensors: list[tuple[str, tuple[int, ...]]] = []
    for line in header[1:]:
        key, _, rest = line.partition(" ")
        if key == "meta":
            mkey, _, mval = rest.partition(" ")
            metadata[mkey] = mval
        elif key == "tensor":
            name, _, shape = rest.partition(" ")
            tensors.append((name, _parse_shape(shape)))
        else:
            fields[key] = rest

    def required(name: str) -> str:
        if name not in fields:
            raise CheckpointError(f"{path}: header lacks the {name!r} field")
        return fields[name]

    kind = fields.get("kind")
    obs_dim = int(required("obs_dim"))
    n_out = int(required("n_action_outputs"))
    hidden = tuple(int(h) for h in required("hidden").split(","))
    if kind == "mlp":
        net = MlpActorCritic(obs_dim=obs_dim, n_action_outputs=n_out, hidden=hidden)
    elif kind == "lstm":
        net = RecurrentActorCritic(
            obs_dim=obs_dim, n_action_outputs=n_out, hidden=hidden,
            lstm_hidden=int(required("lstm_hidden")),
        )
    else:
        raise CheckpointError(f"{path}: unknown network kind {kind!r}")

    names = [name for name, _ in tensors]
    for name in net.params:
        if names.count(name) != 1:
            raise CheckpointError(
                f"{path}: tensor {name!r} listed {names.count(name)} times, expected once"
            )
    offset = 0
    for name, shape in tensors:
        if name not in net.params:
            raise CheckpointError(f"{path}: unexpected tensor {name!r}")
        count = int(np.prod(shape)) if shape else 1
        nbytes = count * 8
        block = payload[offset : offset + nbytes]
        if len(block) != nbytes:
            raise CheckpointError(f"{path}: blob truncated at tensor {name!r}")
        value = np.frombuffer(block, dtype="<f8").astype(np.float64).reshape(shape)
        if value.shape != net.params[name].shape:
            raise CheckpointError(
                f"{path}: tensor {name!r} shape {value.shape} != expected {net.params[name].shape}"
            )
        net.params[name] = value.copy() if shape else np.array(float(value))
        offset += nbytes
    if offset != len(payload):
        raise CheckpointError(f"{path}: {len(payload) - offset} trailing bytes in blob")
    validate_params(net.params)
    metadata["scenario"] = fields.get("scenario", "")
    return net, metadata
