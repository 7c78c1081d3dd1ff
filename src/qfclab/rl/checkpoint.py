"""Policy checkpoints: one numpy ``.npz`` archive, a zip of ``.npy`` members.

Members: every network parameter under its own name (float64), then
``kind``, ``scenario``, ``obs_dim``, ``n_action_outputs``, ``hidden``,
``lstm_hidden`` (LSTM only) and ``meta``, the metadata as one JSON object of
strings.  The loader reads each member whole, so zip checks its CRC-32 before
numpy parses it: a flipped or truncated byte fails as :class:`CheckpointError`.
"""

from __future__ import annotations

import io
import json
import os
import zipfile
import zlib
from pathlib import Path

import numpy as np

from .nets import MlpActorCritic, RecurrentActorCritic, validate_params

# what a damaged archive or a path that is no file raises as read, and a bad member as checked
_READ_ERRORS = (zipfile.BadZipFile, zlib.error, NotImplementedError, RuntimeError,
                EOFError, OSError, ValueError, TypeError, FloatingPointError)


class CheckpointError(ValueError):
    """Malformed, corrupt or incompatible checkpoint file."""


def _fields(net, scenario: str, metadata: dict) -> dict:
    fields = {"kind": net.kind, "scenario": scenario, "obs_dim": net.obs_dim,
              "n_action_outputs": net.n_action_outputs, "hidden": net.hidden,
              "meta": json.dumps({key: str(value) for key, value in metadata.items()})}
    if isinstance(net, RecurrentActorCritic):
        fields["lstm_hidden"] = net.lstm_hidden
    return fields


def save_policy(path, net, scenario: str, metadata: dict | None = None) -> None:
    """Write the network parameters plus provenance metadata.

    The bytes go to a temporary file beside ``path``, named after this
    process, that is then renamed over it: an interrupted write never leaves
    a partial checkpoint where a later run would take it for a whole one.
    """
    validate_params(net.params)
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as handle:  # a handle: given a path, savez appends ".npz"
            np.savez(handle, **net.params, **_fields(net, scenario, metadata or {}))
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_policy(path):
    """Read a checkpoint; returns (net, metadata dict of str).

    Any path that is not a whole, intact checkpoint file of this format (a
    directory, say), or whose parameters are non-finite, raises
    :class:`CheckpointError`; a missing path raises :class:`FileNotFoundError`.
    """
    try:
        with zipfile.ZipFile(path) as archive:
            names = archive.namelist()
            # zipfile would keep the last of two members of one name
            if len({name.removesuffix(".npy") for name in names}) != len(names):
                raise CheckpointError(f"{path}: duplicated member names")
            members = {name.removesuffix(".npy"): np.lib.format.read_array(
                io.BytesIO(archive.read(name)), allow_pickle=False) for name in names}
        shape = dict(obs_dim=int(members["obs_dim"]), hidden=tuple(members["hidden"].tolist()),
                     n_action_outputs=int(members["n_action_outputs"]))
        kind = str(members["kind"])
        if kind not in ("mlp", "lstm"):
            raise CheckpointError(f"{path}: unknown network kind {kind!r}")
        net = (MlpActorCritic(**shape) if kind == "mlp" else RecurrentActorCritic(
            **shape, lstm_hidden=int(members["lstm_hidden"])))
        expected = set(net.params) | set(_fields(net, "", {}))
        if set(members) != expected:
            raise CheckpointError(f"{path}: missing members {sorted(expected - set(members))}, "
                                  f"unexpected {sorted(set(members) - expected)}")
        for name, value in net.params.items():
            if members[name].dtype != np.float64 or members[name].shape != value.shape:
                raise CheckpointError(f"{path}: {name!r} is not float64 of shape {value.shape}")
            value[...] = members[name]
        validate_params(net.params)
        metadata = json.loads(str(members["meta"]))
        if not isinstance(metadata, dict) or not all(isinstance(v, str) for v in metadata.values()):
            raise CheckpointError(f"{path}: meta is not a JSON object of strings")
    except KeyError as exc:
        raise CheckpointError(f"{path}: lacks the {exc} member") from exc
    except (CheckpointError, FileNotFoundError):  # a missing path is no damaged checkpoint
        raise
    except _READ_ERRORS as exc:
        raise CheckpointError(f"{path}: {type(exc).__name__}: {exc}") from exc
    metadata["scenario"] = str(members["scenario"])
    return net, metadata
