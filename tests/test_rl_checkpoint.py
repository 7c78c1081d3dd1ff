"""Checkpoint round-trips for both network kinds, and rejection of damaged files."""

import errno
import io
import itertools
import zipfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from qfclab.harness.cli import EXIT_CONFIG, main
from qfclab.rl import checkpoint
from qfclab.rl.checkpoint import CheckpointError, load_policy, save_policy
from qfclab.rl.envs import LOOP_KINDS
from qfclab.rl.nets import LOG_STD_MAX, LOG_STD_MIN, MlpActorCritic, RecurrentActorCritic
from qfclab.rngstream import RngStream

from test_rl_nets import assert_flat_layout

FIELDS = ["hidden", "kind", "meta", "n_action_outputs", "obs_dim", "scenario"]
FIELDS_IN_ORDER = ["kind", "scenario", "obs_dim", "n_action_outputs", "hidden", "meta"]


def rewrite_members(src, dst, edit):
    """Copy a checkpoint with its list of (member name, bytes) passed through ``edit``."""
    with zipfile.ZipFile(src) as archive:
        members = [(info.filename, archive.read(info)) for info in archive.infolist()]
    with zipfile.ZipFile(dst, "w") as archive:
        for name, data in edit(members):
            archive.writestr(name, data)


def assert_same_policy(loaded, net):
    """Same kind, sizes and parameters, bit for bit (-0.0 included)."""
    assert (loaded.kind, loaded.obs_dim, loaded.n_action_outputs, loaded.hidden) == (
        net.kind, net.obs_dim, net.n_action_outputs, net.hidden)
    assert getattr(loaded, "lstm_hidden", None) == getattr(net, "lstm_hidden", None)
    assert sorted(loaded.params) == sorted(net.params)
    for name, value in net.params.items():
        assert loaded.params[name].dtype == np.float64
        assert loaded.params[name].shape == value.shape
        assert loaded.params[name].tobytes() == value.tobytes(), name


class TestCheckpointRoundTrip:
    def test_mlp_round_trip(self, tmp_path):
        net = MlpActorCritic(obs_dim=9, gen=RngStream(3).generator())
        net.params["log_std"][...] = -0.7
        path = tmp_path / "mbs.ckpt"
        save_policy(path, net, "mbs", {"epsilon": 0.1, "alpha": 0.0})
        loaded, meta = load_policy(path)
        assert meta == {"epsilon": "0.1", "alpha": "0.0", "scenario": "mbs"}
        assert loaded.kind == "mlp"
        assert loaded.n_action_outputs == 1
        for name in net.params:
            np.testing.assert_array_equal(loaded.params[name], net.params[name])
        assert_flat_layout(loaded)

    def test_lstm_round_trip(self, tmp_path):
        net = RecurrentActorCritic(obs_dim=2, gen=RngStream(4).generator())
        path = tmp_path / "qomdp.ckpt"
        save_policy(path, net, "qomdp", {})
        loaded, meta = load_policy(path)
        assert meta == {"scenario": "qomdp"}
        assert loaded.kind == "lstm"
        assert loaded.n_action_outputs == 2
        for name in net.params:
            np.testing.assert_array_equal(loaded.params[name], net.params[name])
        assert_flat_layout(loaded)

    @pytest.mark.parametrize("kind", ["mlp", "lstm"])
    def test_members_are_the_parameters_and_fields(self, tmp_path, kind):
        net = (MlpActorCritic(obs_dim=3, hidden=(2,), gen=RngStream(6).generator())
               if kind == "mlp" else RecurrentActorCritic(obs_dim=2, hidden=(2,), lstm_hidden=3))
        path = tmp_path / "p.ckpt"
        save_policy(path, net, "mbs", {"seed": 6})
        with zipfile.ZipFile(path) as archive:
            names = [name.removesuffix(".npy") for name in archive.namelist()]
        lstm = ["lstm_hidden"] if kind == "lstm" else []
        assert sorted(names) == sorted(list(net.params) + FIELDS + lstm)
        with np.load(path, allow_pickle=False) as members:
            for name, value in net.params.items():
                np.testing.assert_array_equal(members[name], value)
            assert str(members["meta"]) == '{"seed": "6"}'
            assert members["hidden"].tolist() == [2]

    def test_file_starts_with_version_line(self, tmp_path):
        # a zip local-file header, then members that each open with the .npy version 1.0 line
        net = MlpActorCritic(obs_dim=9, gen=RngStream(5).generator())
        path = tmp_path / "p.ckpt"
        save_policy(path, net, "mbs", {})
        assert Path(path).read_bytes().startswith(b"PK\x03\x04")
        with zipfile.ZipFile(path) as archive:
            for name in archive.namelist():
                data = archive.read(name)
                assert data.startswith(b"\x93NUMPY\x01\x00"), name
                header_len = int.from_bytes(data[8:10], "little")
                assert data[10 : 10 + header_len].endswith(b"\n"), name

    def test_blob_is_little_endian_float64_in_manifest_order(self, tmp_path):
        net = MlpActorCritic(obs_dim=3, hidden=(2,), gen=RngStream(6).generator())
        path = tmp_path / "p.ckpt"
        save_policy(path, net, "mbs", {})
        with zipfile.ZipFile(path) as archive:
            names = [name.removesuffix(".npy") for name in archive.namelist()]
            assert names == list(net.params) + FIELDS_IN_ORDER
            for name, value in net.params.items():
                stream = io.BytesIO(archive.read(f"{name}.npy"))
                assert np.lib.format.read_magic(stream) == (1, 0)
                shape, fortran, dtype = np.lib.format.read_array_header_1_0(stream)
                assert (shape, dtype.str) == (value.shape, "<f8"), name
                payload = np.frombuffer(stream.read(), dtype="<f8")
                np.testing.assert_array_equal(payload, value.ravel(order="F" if fortran else "C"))

    def test_truncated_blob_rejected(self, tmp_path):
        net = MlpActorCritic(obs_dim=9, gen=RngStream(7).generator())
        path = tmp_path / "p.ckpt"
        save_policy(path, net, "mbs", {})
        raw = Path(path).read_bytes()
        (tmp_path / "bad.ckpt").write_bytes(raw[:-16])
        with pytest.raises(CheckpointError, match="BadZipFile"):
            load_policy(tmp_path / "bad.ckpt")

    @pytest.mark.parametrize("field", ["obs_dim", "hidden", "n_action_outputs"])
    def test_missing_header_field_rejected(self, tmp_path, field):
        net = MlpActorCritic(obs_dim=9, gen=RngStream(8).generator())
        path = tmp_path / "p.ckpt"
        save_policy(path, net, "mbs", {})
        rewrite_members(path, tmp_path / "bad.ckpt",
                        lambda members: [m for m in members if m[0] != f"{field}.npy"])
        with pytest.raises(CheckpointError, match=f"lacks the '{field}' member"):
            load_policy(tmp_path / "bad.ckpt")

    def test_missing_tensor_rejected(self, tmp_path):
        # without the check, pi.w0 would silently keep its default (seed 0) initialisation
        net = MlpActorCritic(obs_dim=9, gen=RngStream(9).generator())
        save_policy(tmp_path / "p.ckpt", net, "dbs", {})
        rewrite_members(tmp_path / "p.ckpt", tmp_path / "bad.ckpt",
                        lambda members: [m for m in members if m[0] != "pi.w0.npy"])
        with pytest.raises(CheckpointError, match=r"missing members \['pi.w0'\]"):
            load_policy(tmp_path / "bad.ckpt")

    def test_unexpected_member_rejected(self, tmp_path):
        net = MlpActorCritic(obs_dim=9, gen=RngStream(9).generator())
        save_policy(tmp_path / "p.ckpt", net, "dbs", {})
        rewrite_members(tmp_path / "p.ckpt", tmp_path / "bad.ckpt",
                        lambda members: members + [("pi.w9.npy", members[0][1])])
        with pytest.raises(CheckpointError, match=r"unexpected \['pi.w9'\]"):
            load_policy(tmp_path / "bad.ckpt")

    def test_duplicated_tensor_rejected(self, tmp_path):
        net = RecurrentActorCritic(obs_dim=2, gen=RngStream(10).generator())
        save_policy(tmp_path / "p.ckpt", net, "qomdp", {})
        with pytest.warns(UserWarning, match="Duplicate name"):
            rewrite_members(tmp_path / "p.ckpt", tmp_path / "bad.ckpt",
                            lambda members: members + members[:1])
        with pytest.raises(CheckpointError, match="duplicated member names"):
            load_policy(tmp_path / "bad.ckpt")

    def test_same_name_without_npy_suffix_rejected(self, tmp_path):
        net = MlpActorCritic(obs_dim=9, gen=RngStream(12).generator())
        save_policy(tmp_path / "p.ckpt", net, "mbs", {})
        rewrite_members(tmp_path / "p.ckpt", tmp_path / "bad.ckpt",
                        lambda members: members + [("pi.w0", members[0][1])])
        with pytest.raises(CheckpointError, match="duplicated member names"):
            load_policy(tmp_path / "bad.ckpt")

    def test_wrong_version_rejected(self, tmp_path):
        (tmp_path / "bad.ckpt").write_bytes(b"qfc-ckpt-9\nblob\n")
        with pytest.raises(CheckpointError, match="not a zip file"):
            load_policy(tmp_path / "bad.ckpt")


def _old_manifest_file() -> bytes:
    header = "qfc-ckpt-1\nkind mlp\nscenario mbs\nobs_dim 3\nn_action_outputs 1\nhidden 2\n"
    return header.encode() + b"tensor log_std scalar\nblob\n" + np.zeros(1).tobytes()


def _bare_npy() -> bytes:
    buffer = io.BytesIO()
    np.save(buffer, np.zeros(3))
    return buffer.getvalue()


class TestDamagedFiles:
    @pytest.mark.parametrize("content", [_old_manifest_file(), _bare_npy(), b""],
                             ids=["qfc-ckpt-1", "npy", "empty"])
    def test_foreign_file_is_config_error(self, tmp_path, capsys, content):
        path = tmp_path / "p.ckpt"
        path.write_bytes(content)
        with pytest.raises(CheckpointError, match="BadZipFile"):
            load_policy(path)
        assert main(["eval", "--policy", str(path), "--episodes", "1"]) == EXIT_CONFIG
        assert "p.ckpt" in capsys.readouterr().err

    @staticmethod
    def savez_mlp(path, **members):
        """An MLP checkpoint (obs_dim 3, hidden (2,)) written by np.savez, with
        ``members`` in place of the saved ones."""
        net = MlpActorCritic(obs_dim=3, hidden=(2,))
        np.savez(path, **{**net.params, "kind": "mlp", "scenario": "mbs", "obs_dim": 3,
                          "n_action_outputs": 1, "hidden": (2,), "meta": "{}", **members})

    @pytest.mark.parametrize("value", [np.zeros((3, 2), np.float32), np.zeros((2, 3))],
                             ids=["float32", "transposed"])
    def test_tensor_of_another_dtype_or_shape_rejected(self, tmp_path, value):
        self.savez_mlp(tmp_path / "bad.npz", **{"pi.w0": value})  # savez appends .npz
        with pytest.raises(CheckpointError, match=r"'pi.w0' is not float64 of shape \(3, 2\)"):
            load_policy(tmp_path / "bad.npz")

    @pytest.mark.parametrize("name, value", [("log_std", 5.0), ("pi.w0", np.nan)])
    def test_non_finite_or_out_of_range_parameter_is_config_error(
        self, tmp_path, capsys, name, value
    ):
        path = tmp_path / "bad.npz"
        self.savez_mlp(path, **{name: np.full((3, 2) if name == "pi.w0" else (), value)})
        with pytest.raises(CheckpointError, match=name):
            load_policy(path)
        assert main(["eval", "--policy", str(path), "--episodes", "1"]) == EXIT_CONFIG
        assert "FloatingPointError" in capsys.readouterr().err

    def test_every_flip_and_truncation_fails_or_loads_the_same(self, tmp_path):
        """Bits 0x01 and 0x80 of every byte, and every shorter length: each copy
        raises CheckpointError or loads the very same parameters and metadata."""
        net = MlpActorCritic(obs_dim=3, hidden=(2,), gen=RngStream(11).generator())
        save_policy(tmp_path / "p.ckpt", net, "mbs", {"seed": 11, "alpha": 0.3})
        raw = (tmp_path / "p.ckpt").read_bytes()
        truncated = (raw[:length] for length in range(len(raw)))
        flipped = (raw[:offset] + bytes([raw[offset] ^ mask]) + raw[offset + 1:]
                   for offset in range(len(raw)) for mask in (0x01, 0x80))
        errors = loads = 0
        for copy in itertools.chain(truncated, flipped):
            try:  # in memory: zipfile reads a file object as it reads a path
                loaded, meta = load_policy(io.BytesIO(copy))
            except CheckpointError:
                errors += 1
                continue
            assert meta == {"seed": "11", "alpha": "0.3", "scenario": "mbs"}
            assert_same_policy(loaded, net)
            loads += 1
        assert errors + loads == 3 * len(raw)
        assert 0 < loads < errors  # some header bytes are ones zip ignores


finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def policies(draw):
    sizes = dict(obs_dim=draw(st.integers(1, 4)), n_action_outputs=draw(st.integers(1, 3)),
                 hidden=tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))))
    net = (MlpActorCritic(**sizes) if draw(st.booleans())
           else RecurrentActorCritic(**sizes, lstm_hidden=draw(st.integers(1, 3))))
    for name, value in net.params.items():
        if name != "log_std":
            value[...] = draw(hnp.arrays(np.float64, value.shape, elements=finite))
    net.params["log_std"][...] = draw(st.floats(LOG_STD_MIN, LOG_STD_MAX))
    return net


class TestRoundTripProperty:
    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(net=policies(), scenario=st.sampled_from(tuple(LOOP_KINDS)),
           meta=st.dictionaries(st.text().filter(lambda k: k != "scenario"), st.text()))
    def test_round_trip_is_exact(self, tmp_path, net, scenario, meta):
        # a new name per example: renaming over a file can wait for the disk
        path = tmp_path / f"{len(list(tmp_path.iterdir()))}.ckpt"
        save_policy(path, net, scenario, meta)
        loaded, loaded_meta = load_policy(path)
        assert loaded_meta == {**meta, "scenario": scenario}
        assert_same_policy(loaded, net)


class _DiskFillsUp:
    """A file whose second write stores a few bytes, then fails; the rest is the real file."""

    def __init__(self, handle):
        self.handle = handle
        self.writes = 0

    def write(self, data):
        self.writes += 1
        if self.writes == 2:
            self.handle.write(data[:16])
            raise OSError(errno.ENOSPC, "No space left on device")
        return self.handle.write(data)

    def __getattr__(self, name):  # read, tell, seek, flush: np.savez needs them
        return getattr(self.handle, name)

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
