"""Checkpoint round-trips for both network kinds."""

import errno
from pathlib import Path

import numpy as np
import pytest

from qfclab.rl import checkpoint
from qfclab.rl.checkpoint import CheckpointError, load_policy, save_policy
from qfclab.rl.nets import MlpActorCritic, RecurrentActorCritic
from qfclab.rngstream import RngStream


class TestCheckpointRoundTrip:
    def test_mlp_round_trip(self, tmp_path):
        net = MlpActorCritic(obs_dim=9, gen=RngStream(3).generator())
        net.params["log_std"] = np.array(-0.7)
        path = tmp_path / "mbs.ckpt"
        save_policy(path, net, "mbs", {"epsilon": 0.1, "alpha": 0.0})
        loaded, meta = load_policy(path)
        assert meta["scenario"] == "mbs"
        assert meta["epsilon"] == "0.1"
        assert loaded.kind == "mlp"
        assert loaded.n_action_outputs == 1
        for name in net.params:
            np.testing.assert_array_equal(loaded.params[name], net.params[name])

    def test_lstm_round_trip(self, tmp_path):
        net = RecurrentActorCritic(obs_dim=2, gen=RngStream(4).generator())
        path = tmp_path / "qomdp.ckpt"
        save_policy(path, net, "qomdp", {})
        loaded, meta = load_policy(path)
        assert loaded.kind == "lstm"
        assert loaded.n_action_outputs == 2
        for name in net.params:
            np.testing.assert_array_equal(loaded.params[name], net.params[name])

    def test_file_starts_with_version_line(self, tmp_path):
        net = MlpActorCritic(obs_dim=9, gen=RngStream(5).generator())
        path = tmp_path / "p.ckpt"
        save_policy(path, net, "mbs", {})
        assert Path(path).read_bytes().startswith(b"qfc-ckpt-1\n")

    def test_blob_is_little_endian_float64_in_manifest_order(self, tmp_path):
        net = MlpActorCritic(obs_dim=3, hidden=(2,), gen=RngStream(6).generator())
        path = tmp_path / "p.ckpt"
        save_policy(path, net, "mbs", {})
        raw = Path(path).read_bytes()
        header, _, payload = raw.partition(b"\nblob\n")
        names = [
            line.split()[1].decode()
            for line in header.splitlines()
            if line.startswith(b"tensor ")
        ]
        assert names == sorted(net.params)
        first = np.frombuffer(payload[: net.params[names[0]].size * 8], dtype="<f8")
        np.testing.assert_array_equal(first, net.params[names[0]].reshape(-1))

    def test_truncated_blob_rejected(self, tmp_path):
        net = MlpActorCritic(obs_dim=9, gen=RngStream(7).generator())
        path = tmp_path / "p.ckpt"
        save_policy(path, net, "mbs", {})
        raw = Path(path).read_bytes()
        (tmp_path / "bad.ckpt").write_bytes(raw[:-16])
        with pytest.raises(CheckpointError, match="truncated"):
            load_policy(tmp_path / "bad.ckpt")

    @pytest.mark.parametrize("field", ["obs_dim", "hidden", "n_action_outputs"])
    def test_missing_header_field_rejected(self, tmp_path, field):
        net = MlpActorCritic(obs_dim=9, gen=RngStream(8).generator())
        path = tmp_path / "p.ckpt"
        save_policy(path, net, "mbs", {})
        raw = Path(path).read_bytes()
        header, _, payload = raw.partition(b"\nblob\n")
        kept = [line for line in header.split(b"\n") if not line.startswith(field.encode() + b" ")]
        (tmp_path / "bad.ckpt").write_bytes(b"\n".join(kept) + b"\nblob\n" + payload)
        with pytest.raises(CheckpointError, match=field):
            load_policy(tmp_path / "bad.ckpt")

    @staticmethod
    def _rewrite_tensors(src, dst, edit):
        """Copy a checkpoint with its (tensor line, bytes) pairs passed through ``edit``."""
        header, _, payload = Path(src).read_bytes().partition(b"\nblob\n")
        lines = header.split(b"\n")
        fields = [line for line in lines if not line.startswith(b"tensor ")]
        tensors, offset = [], 0
        for line in lines:
            if line.startswith(b"tensor "):
                shape = line.split()[2]
                size = 1 if shape == b"scalar" else int(np.prod([int(d) for d in shape.split(b",")]))
                tensors.append((line, payload[offset : offset + 8 * size]))
                offset += 8 * size
        tensors = edit(tensors)
        Path(dst).write_bytes(
            b"\n".join(fields + [line for line, _ in tensors]) + b"\nblob\n"
            + b"".join(block for _, block in tensors)
        )

    def test_missing_tensor_rejected(self, tmp_path):
        # without the check, pi.w0 would silently keep its default (seed 0) initialisation
        net = MlpActorCritic(obs_dim=9, gen=RngStream(9).generator())
        save_policy(tmp_path / "p.ckpt", net, "dbs", {})
        self._rewrite_tensors(
            tmp_path / "p.ckpt", tmp_path / "bad.ckpt",
            lambda tensors: [t for t in tensors if t[0].split()[1] != b"pi.w0"],
        )
        with pytest.raises(CheckpointError, match="'pi.w0' listed 0 times"):
            load_policy(tmp_path / "bad.ckpt")

    def test_duplicated_tensor_rejected(self, tmp_path):
        net = RecurrentActorCritic(obs_dim=2, gen=RngStream(10).generator())
        save_policy(tmp_path / "p.ckpt", net, "qomdp", {})
        self._rewrite_tensors(
            tmp_path / "p.ckpt", tmp_path / "bad.ckpt", lambda tensors: tensors + tensors[-1:]
        )
        with pytest.raises(CheckpointError, match="listed 2 times"):
            load_policy(tmp_path / "bad.ckpt")

    def test_wrong_version_rejected(self, tmp_path):
        (tmp_path / "bad.ckpt").write_bytes(b"qfc-ckpt-9\nblob\n")
        with pytest.raises(CheckpointError, match="version"):
            load_policy(tmp_path / "bad.ckpt")


class _DiskFillsUp:
    """A file whose second write stores a few bytes, then fails."""

    def __init__(self, handle):
        self.handle = handle
        self.writes = 0

    def write(self, data):
        self.writes += 1
        if self.writes == 2:
            self.handle.write(data[:16])
            raise OSError(errno.ENOSPC, "No space left on device")
        return self.handle.write(data)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.handle.close()


class TestAtomicWrite:
    def test_failed_write_leaves_no_file(self, tmp_path, monkeypatch):
        monkeypatch.setattr(
            checkpoint, "open", lambda *a: _DiskFillsUp(open(*a)), raising=False
        )
        net = MlpActorCritic(obs_dim=9, gen=RngStream(9).generator())
        with pytest.raises(OSError, match="No space"):
            save_policy(tmp_path / "p.ckpt", net, "mbs", {})
        assert list(tmp_path.iterdir()) == []

    def test_failed_write_keeps_the_previous_checkpoint(self, tmp_path, monkeypatch):
        path = tmp_path / "p.ckpt"
        save_policy(path, MlpActorCritic(obs_dim=9, gen=RngStream(9).generator()), "mbs", {})
        before = path.read_bytes()
        monkeypatch.setattr(
            checkpoint, "open", lambda *a: _DiskFillsUp(open(*a)), raising=False
        )
        net = MlpActorCritic(obs_dim=9, gen=RngStream(10).generator())
        with pytest.raises(OSError, match="No space"):
            save_policy(path, net, "mbs", {})
        assert list(tmp_path.iterdir()) == [path]
        assert path.read_bytes() == before
