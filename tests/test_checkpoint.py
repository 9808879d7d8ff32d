"""Checkpoint format: byte-exact round trips, the improvement gate that
``fit`` applies to its own saves, and corruption detection with meaningful
byte offsets.

Corruption cases are produced by byte surgery on a valid file, using the
layout documented in the module: any edit is followed by recomputing the
crc32 trailer so the edited field itself is what the loader trips on.
"""

import json
import math
import struct
import zlib

import numpy as np
import pytest

import terraseg.training as training_mod
from terraseg.checkpoint import checkpoint_load, checkpoint_save
from terraseg.config import OptimizerConfig, TrainSection
from terraseg.errors import CheckpointFormatError, DataError, exit_code_for
from terraseg.graph import (
    ActivationLayer,
    BatchNorm2d,
    Conv2d,
    Dropout,
    NetworkGraph,
    Softmax,
)
from terraseg.ops import RELU
from terraseg.tensor import SeededRng
from terraseg.training import Sample, fit


def small_graph(seed=9):
    rng = SeededRng(seed)
    g = NetworkGraph((3, 6, 6))
    g.add("conv", Conv2d(3, 4, kernel=3, padding=1, rng=rng))
    g.add("bn", BatchNorm2d(4))
    g.add("act", ActivationLayer(RELU))
    g.add("drop", Dropout(0.25))
    g.add("head", Conv2d(4, 2, kernel=1, rng=rng))
    g.add("probs", Softmax())
    return g


def warmed_graph(seed=9):
    """Graph with non-trivial batch-norm running statistics."""
    g = small_graph(seed)
    x = SeededRng(seed + 1).uniform(-1.0, 1.0, (3, 6, 6))
    for _ in range(3):
        g.forward(x, training=True, rng=SeededRng(7))
    return g


def refix(buf: bytes) -> bytes:
    body = buf[:-4]
    return body + struct.pack("<I", zlib.crc32(body))


class TestRoundTrip:
    def test_forward_bit_equality(self, tmp_path):
        g = warmed_graph()
        path = str(tmp_path / "m.ckpt")
        checkpoint_save(g, path, 0.375)
        g2, monitor = checkpoint_load(path)
        assert monitor == 0.375
        x = SeededRng(33).uniform(-1.0, 1.0, (3, 6, 6))
        out1, _ = g.forward(x, training=False)
        out2, _ = g2.forward(x, training=False)
        assert np.array_equal(out1, out2)

    def test_state_arrays_restored_exactly(self, tmp_path):
        g = warmed_graph()
        path = str(tmp_path / "m.ckpt")
        checkpoint_save(g, path)
        g2, monitor = checkpoint_load(path)
        assert math.isnan(monitor)
        for name, arr in g.state_arrays().items():
            assert np.array_equal(arr, g2.state_arrays()[name])
        for name, arr in g.parameters().items():
            assert np.array_equal(arr, g2.parameters()[name])

    def test_bytes_are_pure_function_of_contents(self, tmp_path):
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        checkpoint_save(warmed_graph(), str(a), 1.5)
        checkpoint_save(warmed_graph(), str(b), 1.5)
        assert a.read_bytes() == b.read_bytes()

    def test_second_round_trip_identical(self, tmp_path):
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        checkpoint_save(warmed_graph(), str(p1), 2.0)
        g2, _ = checkpoint_load(str(p1))
        checkpoint_save(g2, str(p2), 2.0)
        assert p1.read_bytes() == p2.read_bytes()

    def test_parameter_count_survives(self, tmp_path):
        g = small_graph()
        path = str(tmp_path / "m.ckpt")
        checkpoint_save(g, path)
        g2, _ = checkpoint_load(path)
        assert g2.count_parameters() == g.count_parameters()


    def test_float32_graph_round_trips_bit_for_bit(self, tmp_path):
        g = warmed_graph()
        g.set_dtype(np.float32)
        g.forward(SeededRng(5).uniform(-1.0, 1.0, (3, 6, 6)), training=True, rng=SeededRng(6))
        p1, p2 = str(tmp_path / "a.ckpt"), str(tmp_path / "b.ckpt")
        checkpoint_save(g, p1, 0.25)
        g2, _ = checkpoint_load(p1)
        g2.set_dtype(np.float32)
        for mine, theirs in ((g.parameters(), g2.parameters()),
                             (g.state_arrays(), g2.state_arrays())):
            for name, arr in mine.items():
                assert theirs[name].dtype == np.float32
                assert theirs[name].tobytes() == arr.tobytes()
        x = SeededRng(7).uniform(-1.0, 1.0, (3, 6, 6))
        assert g.forward(x)[0].tobytes() == g2.forward(x)[0].tobytes()
        checkpoint_save(g2, p2, 0.25)
        assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()


def fit_scripted(monkeypatch, path, monitors, monitor="val_loss", min_delta=0.0):
    """fit ``small_graph`` for one epoch per value of ``monitors``, which the
    epochs report as their ``monitor``; returns the monitor of each write."""
    values = iter(monitors)

    def scripted(graph, samples, metric_names):
        value = next(values)
        vals = {name: value for name in metric_names}
        return (value if monitor == "val_loss" else 1.0), vals, None

    writes = []
    real_save = training_mod.checkpoint_save

    def spy(graph, path, monitored):
        writes.append(monitored)
        real_save(graph, path, monitored)

    monkeypatch.setattr(training_mod, "evaluate_samples", scripted)
    monkeypatch.setattr(training_mod, "checkpoint_save", spy)
    train = TrainSection(epochs=len(monitors), optimizer=OptimizerConfig(kind="sgd", lr=1e-300),
                         monitor=monitor, min_delta=min_delta, early_stop_patience=10**6,
                         plateau_patience=10**6, checkpoint=str(path))
    image = SeededRng(2).uniform(-1.0, 1.0, (3, 6, 6))
    labels = (np.arange(36).reshape(6, 6) % 2).astype(np.int64)
    graph = small_graph()
    fit(graph, [Sample(image, labels)], train, seed=3)
    return writes, graph


class TestImprovementGate:
    """``fit`` saves on its first epoch, then only on a strict improvement
    over its own last save; whatever file was at the path plays no part."""

    def test_fresh_fit_replaces_an_earlier_runs_better_file(self, tmp_path, monkeypatch):
        path = tmp_path / "m.ckpt"
        other = NetworkGraph((3, 6, 6))
        other.add("head", Conv2d(3, 2, kernel=1, rng=SeededRng(1)))
        other.add("probs", Softmax())
        checkpoint_save(other, str(path), 0.01)
        writes, graph = fit_scripted(monkeypatch, path, [1.0, 2.0])
        assert writes == [1.0]
        loaded, monitor = checkpoint_load(str(path))
        assert monitor == 1.0
        assert loaded.descriptor() == graph.descriptor()

    def test_worse_value_keeps_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "m.ckpt"
        writes, _ = fit_scripted(monkeypatch, path, [1.0, 1.5, 1.0])  # ties lose
        assert writes == [1.0]
        assert checkpoint_load(str(path))[1] == 1.0

    def test_better_value_rewrites(self, tmp_path, monkeypatch):
        # the checkpoint ignores min_delta, which only plateau and early stop use
        path = tmp_path / "m.ckpt"
        writes, _ = fit_scripted(monkeypatch, path, [1.0, 0.99, 1.5, 0.25], min_delta=0.1)
        assert writes == [1.0, 0.99, 0.25]
        assert checkpoint_load(str(path))[1] == 0.25

    def test_max_mode_flips_direction(self, tmp_path, monkeypatch):
        writes, _ = fit_scripted(monkeypatch, tmp_path / "m.ckpt", [0.8, 0.7, 0.9],
                                 monitor="accuracy")
        assert writes == [0.8, 0.9]

    def test_stored_nan_always_loses(self, tmp_path, monkeypatch):
        # MIoU is NaN while a class is absent; a NaN never beats a saved value
        writes, _ = fit_scripted(monkeypatch, tmp_path / "m.ckpt",
                                 [math.nan, 0.1, math.nan, 0.05], monitor="MIoU")
        assert math.isnan(writes[0]) and writes[1:] == [0.1]

    def test_unmonitored_save_always_writes(self, tmp_path):
        # checkpoint_save itself has no gate: any save replaces the file
        path = tmp_path / "m.ckpt"
        checkpoint_save(small_graph(), str(path), 0.1)
        checkpoint_save(small_graph(), str(path), 5.0)
        assert checkpoint_load(str(path))[1] == 5.0
        checkpoint_save(small_graph(), str(path))
        assert math.isnan(checkpoint_load(str(path))[1])


class TestCorruption:
    @pytest.fixture
    def blob(self, tmp_path):
        path = tmp_path / "m.ckpt"
        checkpoint_save(warmed_graph(), str(path), 0.5)
        return path.read_bytes(), tmp_path

    @staticmethod
    def load_bytes(buf, tmp_path):
        """checkpoint_load of ``buf``; each error it raises names the file."""
        path = tmp_path / "edited.ckpt"
        path.write_bytes(buf)
        try:
            return checkpoint_load(str(path))
        except CheckpointFormatError as exc:
            assert str(exc).startswith(f"checkpoint {path}: ")
            raise

    def test_bad_magic_offset_zero(self, blob):
        buf, tmp = blob
        with pytest.raises(CheckpointFormatError, match="magic") as err:
            self.load_bytes(refix(b"XSEG" + buf[4:]), tmp)
        assert err.value.offset == 0

    def test_bad_version_offset_four(self, blob):
        buf, tmp = blob
        bad = buf[:4] + struct.pack("<I", 7) + buf[8:]
        with pytest.raises(CheckpointFormatError, match="version") as err:
            self.load_bytes(refix(bad), tmp)
        assert err.value.offset == 4

    def test_flipped_payload_byte_fails_checksum(self, blob):
        buf, tmp = blob
        mid = len(buf) // 2
        bad = buf[:mid] + bytes([buf[mid] ^ 0xFF]) + buf[mid + 1 :]
        with pytest.raises(CheckpointFormatError, match="checksum") as err:
            self.load_bytes(bad, tmp)
        assert err.value.offset == len(buf) - 4

    def test_truncated_descriptor(self, blob):
        _, tmp = blob
        head = b"TSEG" + struct.pack("<I", 1) + struct.pack("<d", 0.0)
        head += struct.pack("<Q", 999)  # claims far more than the file holds
        with pytest.raises(CheckpointFormatError, match="truncated") as err:
            self.load_bytes(head + struct.pack("<I", zlib.crc32(head)), tmp)
        assert err.value.offset == 24

    def test_truncated_file(self, blob):
        buf, tmp = blob
        with pytest.raises(CheckpointFormatError, match="checksum") as err:
            self.load_bytes(buf[:64], tmp)
        assert err.value.offset == 60
        assert exit_code_for(err.value) == 3

    def test_too_short_file(self, blob):
        _, tmp = blob
        with pytest.raises(CheckpointFormatError, match="short"):
            self.load_bytes(b"TSEG\x01", tmp)

    def test_unknown_array_name(self, blob):
        buf, tmp = blob
        bad = buf.replace(b"conv.weight", b"conv.wei-ht", 1)
        with pytest.raises(CheckpointFormatError, match="unknown array"):
            self.load_bytes(refix(bad), tmp)

    def test_shape_mismatch(self, blob):
        buf, tmp = blob
        at = buf.index(b"conv.weight")
        extents = at + len(b"conv.weight") + 1  # skip the u8 rank
        # same element count, permuted axes: (4,3,3,3) -> (3,4,3,3)
        bad = buf[:extents] + struct.pack("<4I", 3, 4, 3, 3) + buf[extents + 16 :]
        with pytest.raises(CheckpointFormatError, match="shape"):
            self.load_bytes(refix(bad), tmp)

    def test_missing_array(self, blob):
        buf, tmp = blob
        name = b"bn.running_var"
        at = buf.index(name)
        start = at - 2  # u16 name length sits before the name
        channels = struct.unpack_from("<I", buf, at + len(name) + 1)[0]
        end = at + len(name) + 1 + 4 + 8 * channels
        desc_len = struct.unpack_from("<Q", buf, 16)[0]
        count_off = 24 + desc_len
        n = struct.unpack_from("<I", buf, count_off)[0]
        bad = bytearray(buf[:start] + buf[end:])
        struct.pack_into("<I", bad, count_off, n - 1)
        with pytest.raises(CheckpointFormatError, match="missing arrays: bn.running_var"):
            self.load_bytes(refix(bytes(bad)), tmp)

    def test_trailing_bytes(self, blob):
        buf, tmp = blob
        with pytest.raises(CheckpointFormatError, match="trailing"):
            self.load_bytes(refix(buf[:-4] + b"\x00\x00\x00\x00" + buf[-4:]), tmp)

    @staticmethod
    def with_descriptor(buf, edit):
        """``buf`` with its descriptor passed through ``edit`` (a function of
        the parsed JSON), the length field and crc recomputed."""
        (desc_len,) = struct.unpack_from("<Q", buf, 16)
        desc = json.loads(buf[24 : 24 + desc_len])
        edit(desc)
        raw = json.dumps(desc, sort_keys=True, separators=(",", ":")).encode()
        return refix(buf[:16] + struct.pack("<Q", len(raw)) + raw + buf[24 + desc_len :])

    @staticmethod
    def node(desc, name):
        return next(nd for nd in desc["nodes"] if nd["name"] == name)

    def assert_bad_descriptor(self, blob, edit, cause):
        buf, tmp = blob
        with pytest.raises(CheckpointFormatError, match=f"descriptor.*{cause}") as err:
            self.load_bytes(self.with_descriptor(buf, edit), tmp)
        assert err.value.offset == 24
        assert exit_code_for(err.value) == 3

    def test_descriptor_node_without_inputs(self, blob):
        self.assert_bad_descriptor(
            blob, lambda d: self.node(d, "bn").pop("inputs"), "KeyError")

    def test_descriptor_conv_without_in_ch(self, blob):
        self.assert_bad_descriptor(
            blob, lambda d: self.node(d, "conv").pop("in_ch"), "KeyError")

    def test_descriptor_conv_with_kernel_zero(self, blob):
        self.assert_bad_descriptor(
            blob, lambda d: self.node(d, "head").update(kernel=0), "ParameterError")

    @pytest.mark.parametrize("node, fields", [
        ("conv", {"stride": 2}), ("conv", {"padding": 3}), ("head", {"padding": 1})])
    def test_descriptor_with_an_unsupported_conv(self, blob, node, fields):
        self.assert_bad_descriptor(
            blob, lambda d: self.node(d, node).update(fields), "ParameterError: unsupported conv")

    def test_descriptor_with_a_3_1_pool(self, blob):
        pool = {"name": "pool", "inputs": ["act"], "kind": "max_pool2d", "window": 3,
                "stride": 1}
        self.assert_bad_descriptor(blob, lambda d: d["nodes"].insert(4, pool),
                                   "ParameterError: unsupported pooling: window 3, stride 1")

    def test_descriptor_unknown_layer_kind(self, blob):
        self.assert_bad_descriptor(
            blob, lambda d: self.node(d, "act").update(kind="gelu"), "GraphError")

    def test_descriptor_without_nodes(self, blob):
        self.assert_bad_descriptor(blob, lambda d: d["nodes"].clear(), "GraphError")

    def test_saving_over_a_directory_is_a_data_error(self, tmp_path):
        target = tmp_path / "dir"
        target.mkdir()
        with pytest.raises(DataError, match=f"^checkpoint {target}: Is a directory$"):
            checkpoint_save(small_graph(), str(target), monitor_value=0.5)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["dir"]  # no tmp- sibling left

    def test_saving_under_a_regular_file_is_a_data_error(self, tmp_path):
        (tmp_path / "file").write_bytes(b"")
        path = tmp_path / "file" / "m.ckpt"
        with pytest.raises(DataError, match=f"^checkpoint {path}: Not a directory$"):
            checkpoint_save(small_graph(), str(path), monitor_value=0.5)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["file"]
