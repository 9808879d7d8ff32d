"""End-to-end runs of the pipeline commands and the CLI wrapper.

Everything here operates on a tiny synthetic scene: 32x32 pixels, 3
channels, 3 classes laid out in 16-pixel quadrant blocks, tiled at 16 so
the store holds a 2x2 tile grid. Small topologies and epoch counts keep
the training steps cheap.
"""

import collections
import dataclasses
import errno
import json
import os
import subprocess
import sys
import zlib

import numpy as np
import pytest
import yaml

from terraseg import ops, parallel, synth
from terraseg.catalog import BASE_URL, CatalogQuery, build_catalog_query
from terraseg.checkpoint import checkpoint_load, checkpoint_save
from terraseg.chunkstore import Store, StoredArray
from terraseg.cli import main
from terraseg.config import EvaluateSection, parse_config
from terraseg.errors import ConfigError, DataError
from terraseg.georaster import (
    GeoRaster,
    read_raster,
    scl_to_ignore_mask,
    write_raster,
)
from terraseg.graph import NetworkGraph
from terraseg.metrics import REPORT_KEYS, ConfusionMatrix, report, report_json
from terraseg.pipeline import (
    COARSE_ARRAY,
    FOLD_ARRAY,
    IMAGE_ARRAY,
    LABEL_ARRAY,
    MASK_ARRAY,
    _SampleSource,
    cmd_evaluate,
    cmd_ingest,
    cmd_predict,
    cmd_query,
    cmd_split,
    cmd_train,
)
from terraseg.topologies import TopologySpec, build_topology
from terraseg.wkt import parse_wkt, to_wkt

CRS = "EPSG:32633"
SIZE = 32
TILE = 16
CHANNELS = 3
CLASSES = 3

# sentinel: remove this key from the config document entirely
DROP = object()


def write_scene(root, seed=11, height=SIZE, width=SIZE):
    """Image raster plus label JSON under root; returns (labels, geotransform)."""
    data, labels, gt = synth.make_scene(
        seed, height=height, width=width, channels=CHANNELS,
        num_classes=CLASSES, block=TILE)
    write_raster(GeoRaster(data, gt, CRS, -9999.0), str(root / "image"))
    shapes = synth.scene_label_shapes(height, width, CLASSES, TILE, gt)
    (root / "labels.json").write_text(synth.shapes_to_json(shapes),
                                      encoding="utf-8")
    return labels, gt


def write_scl(root, gt, plane):
    write_raster(GeoRaster(plane[None].astype(np.uint8), gt, CRS, 0.0),
                 str(root / "scl"))


def base_doc(root):
    return {
        "seed": 1234,
        "store": str(root / "store"),
        "ingest": {
            "image": str(root / "image"),
            "labels": str(root / "labels.json"),
            "num_classes": CLASSES,
            "tile_size": TILE,
        },
        "split": {"k": 2},
        "train": {
            "topology": {"kind": "unet", "depth": 1, "base_channels": 4,
                         "in_channels": CHANNELS, "num_classes": CLASSES,
                         "activation": "elu"},
            "optimizer": {"kind": "sgd", "lr": 0.05},
            "epochs": 2,
            "checkpoint": "model.ckpt",
            "history": "hist",
        },
        "evaluate": {},
        "predict": {"out": "mask"},
        "query": {"producttype": "OL_1_EFR___"},
    }


def merged(base, overrides):
    out = dict(base)
    for key, value in overrides.items():
        if value is DROP:
            out.pop(key, None)
        elif isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = merged(out[key], value)
        else:
            out[key] = value
    return out


def make_config(root, **overrides):
    return parse_config(yaml.safe_dump(merged(base_doc(root), overrides)))


def read_mask(base, height, width):
    """The class plane of the binary PGM that predict wrote at ``base``."""
    blob = base.with_suffix(".pgm").read_bytes()
    header = f"P5\n{width} {height}\n255\n".encode()
    assert blob[:len(header)] == header
    return np.frombuffer(blob, np.uint8, offset=len(header)).reshape(height, width)


def store_bytes(root):
    return {p: p.read_bytes() for p in (root / "store").rglob("*") if p.is_file()}


def mask_geotransform(base):
    sidecar = json.loads(base.with_suffix(".json").read_text(encoding="utf-8"))
    return tuple(sidecar["geotransform"])


@pytest.fixture()
def scene(tmp_path):
    labels, gt = write_scene(tmp_path)
    return tmp_path, labels, gt


@pytest.fixture()
def ingested(scene):
    root, labels, gt = scene
    config = make_config(root)
    cmd_ingest(config)
    return root, labels, gt, config


@pytest.fixture()
def trained(ingested):
    root, labels, gt, config = ingested
    out = root / "run"
    history = cmd_train(config, out_dir=out)
    return root, config, out, history


class TestIngest:
    def test_creates_image_mask_and_label_arrays(self, scene):
        root, labels, gt = scene
        store = cmd_ingest(make_config(root))
        img = store.array(IMAGE_ARRAY)
        assert tuple(img.shape) == (1, 2, 2, TILE, TILE, CHANNELS)
        assert img.attributes["tile_size"] == TILE
        assert img.attributes["crs"] == CRS
        assert tuple(img.attributes["geotransform"]) == gt
        assert img.attributes["scene_height"] == SIZE
        assert img.attributes["scene_width"] == SIZE
        assert tuple(store.array(MASK_ARRAY).shape) == (1, 2, 2, TILE, TILE)
        lbl = store.array(LABEL_ARRAY)
        assert tuple(lbl.shape) == (2, 2, TILE, TILE)
        assert lbl.attributes["num_classes"] == CLASSES
        assert lbl.attributes["label_nodata"] == 255

    def test_rasterized_labels_match_the_scene(self, scene):
        root, labels, gt = scene
        store = cmd_ingest(make_config(root))
        lbl = store.array(LABEL_ARRAY)
        for iy in range(2):
            for ix in range(2):
                got = lbl.read_region((iy, ix, 0, 0), (1, 1, TILE, TILE))[0, 0]
                want = labels[iy * TILE:(iy + 1) * TILE,
                              ix * TILE:(ix + 1) * TILE]
                assert np.array_equal(got, want)

    def test_image_tiles_match_the_raster(self, scene):
        root, labels, gt = scene
        store = cmd_ingest(make_config(root))
        raster = read_raster(str(root / "image"))
        img = store.array(IMAGE_ARRAY)
        block = img.read_region((0, 0, 1, 0, 0, 0),
                                (1, 1, 1, TILE, TILE, CHANNELS))[0, 0, 0]
        assert np.array_equal(block.transpose(2, 0, 1),
                              raster.data[:, :TILE, TILE:])

    def test_without_scl_nothing_is_ignored(self, scene):
        root, labels, gt = scene
        store = cmd_ingest(make_config(root))
        msk = store.array(MASK_ARRAY)
        got = msk.read_region((0, 0, 0, 0, 0), (1, 2, 2, TILE, TILE))
        assert not got.any()

    def test_scl_marks_cloudy_pixels(self, scene):
        root, labels, gt = scene
        write_scl(root, gt, synth.make_scl(SIZE, SIZE, cloud_rows=4,
                                           cloud_cols=4))
        config = make_config(root, ingest={"scl": str(root / "scl")})
        store = cmd_ingest(config)
        msk = store.array(MASK_ARRAY)
        corner = msk.read_region((0, 0, 0, 0, 0), (1, 1, 1, TILE, TILE))[0, 0, 0]
        want = np.zeros((TILE, TILE), dtype=np.uint8)
        want[:4, :4] = 1
        assert np.array_equal(corner, want)
        rest = msk.read_region((0, 1, 0, 0, 0), (1, 1, 2, TILE, TILE))
        assert not rest.any()

    def test_scl_extent_mismatch(self, scene):
        root, labels, gt = scene
        write_scl(root, gt, np.full((SIZE, SIZE // 2), 4, dtype=np.uint8))
        config = make_config(root, ingest={"scl": str(root / "scl")})
        with pytest.raises(DataError, match="does not match"):
            cmd_ingest(config)

    def test_scl_crs_mismatch(self, scene):
        root, labels, gt = scene
        plane = np.full((1, SIZE, SIZE), 4, dtype=np.uint8)
        write_raster(GeoRaster(plane, gt, "EPSG:4326", 0.0), str(root / "scl"))
        config = make_config(root, ingest={"scl": str(root / "scl")})
        with pytest.raises(DataError, match="crs"):
            cmd_ingest(config)

    def test_class_map_remaps_codes(self, scene):
        root, labels, gt = scene
        shapes = synth.scene_label_shapes(SIZE, SIZE, CLASSES, TILE, gt)
        doc = [{"class": 100 + cls, "wkt": to_wkt(geom)} for cls, geom in shapes]
        (root / "labels.json").write_text(json.dumps(doc), encoding="utf-8")
        config = make_config(root, ingest={"class_map": {100: 0, 101: 1, 102: 2}})
        store = cmd_ingest(config)
        got = store.array(LABEL_ARRAY).read_region((0, 1, 0, 0),
                                                   (1, 1, TILE, TILE))[0, 0]
        assert np.array_equal(got, labels[:TILE, TILE:])

    def test_class_code_missing_from_map(self, scene):
        root, labels, gt = scene
        shapes = synth.scene_label_shapes(SIZE, SIZE, CLASSES, TILE, gt)
        doc = [{"class": 100 + cls, "wkt": to_wkt(geom)} for cls, geom in shapes]
        (root / "labels.json").write_text(json.dumps(doc), encoding="utf-8")
        config = make_config(root, ingest={"class_map": {100: 0, 101: 1}})
        with pytest.raises(DataError, match="not in class_map"):
            cmd_ingest(config)

    def test_class_code_out_of_range(self, scene):
        root, labels, gt = scene
        shapes = synth.scene_label_shapes(SIZE, SIZE, CLASSES, TILE, gt)
        doc = [{"class": 100 + cls, "wkt": to_wkt(geom)} for cls, geom in shapes]
        (root / "labels.json").write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(DataError, match="outside"):
            cmd_ingest(make_config(root))

    def test_label_file_missing(self, scene):
        root, labels, gt = scene
        config = make_config(root, ingest={"labels": str(root / "absent.json")})
        with pytest.raises(DataError, match="not found"):
            cmd_ingest(config)

    def test_label_file_must_be_a_list(self, scene):
        root, labels, gt = scene
        (root / "labels.json").write_text("{}", encoding="utf-8")
        with pytest.raises(DataError, match="list"):
            cmd_ingest(make_config(root))

    def test_coarse_component_is_stored_per_tile(self, scene):
        root, labels, gt = scene
        coarse = np.linspace(0.0, 1.0, 2 * 4 * 4,
                             dtype=np.float32).reshape(2, 4, 4)
        coarse_gt = (gt[0], 80.0, 0.0, gt[3], 0.0, -80.0)
        write_raster(GeoRaster(coarse, coarse_gt, CRS, 0.0),
                     str(root / "coarse"))
        config = make_config(root, ingest={"coarse_image": str(root / "coarse")})
        store = cmd_ingest(config)
        arr = store.array(COARSE_ARRAY)
        assert tuple(arr.shape) == (1, 2, 2, 2, 2, 2)
        block = arr.read_region((0, 1, 0, 0, 0, 0), (1, 1, 1, 2, 2, 2))[0, 0, 0]
        assert np.array_equal(block.transpose(2, 0, 1), coarse[:, 2:4, 0:2])

    def test_one_chunk_file_per_tile_row(self, tmp_path):
        # a 2x3 tile grid over 3 weeks: each array-week holds 2 chunk files,
        # each a row of 3 tiles
        _, gt = write_scene(tmp_path, height=24, width=40)
        coarse = np.zeros((2, 4, 6), dtype=np.float32)
        write_raster(GeoRaster(coarse, gt, CRS, 0.0), str(tmp_path / "coarse"))
        store = cmd_ingest(make_config(tmp_path, ingest={
            "weeks": 3, "coarse_image": str(tmp_path / "coarse")}))

        def chunk_files(rel):
            return sorted(p.name for p in (store.root / rel).iterdir()
                          if p.name.startswith("c."))

        weekly = [f"c.{w}.{r}.0.0.0" for w in range(3) for r in range(2)]
        assert chunk_files(IMAGE_ARRAY) == [f"{c}.0" for c in weekly]
        assert chunk_files(COARSE_ARRAY) == [f"{c}.0" for c in weekly]
        assert chunk_files(MASK_ARRAY) == weekly
        assert chunk_files(LABEL_ARRAY) == ["c.0.0.0.0", "c.1.0.0.0"]

    def test_coarse_extent_must_divide_the_grid(self, scene):
        root, labels, gt = scene
        coarse = np.zeros((2, 3, 3), dtype=np.float32)
        write_raster(GeoRaster(coarse, gt, CRS, 0.0), str(root / "coarse"))
        config = make_config(root, ingest={"coarse_image": str(root / "coarse")})
        with pytest.raises(DataError, match="does not divide"):
            cmd_ingest(config)

    def test_reingest_replaces_arrays(self, scene):
        root, labels, gt = scene
        config = make_config(root)
        first = cmd_ingest(config).list_tree("")
        second = cmd_ingest(config).list_tree("")
        assert first == second
        store = Store(config.store)
        got = store.array(LABEL_ARRAY).read_region((0, 0, 0, 0),
                                                   (1, 1, TILE, TILE))[0, 0]
        assert np.array_equal(got, labels[:TILE, :TILE])

    def test_weeks_replicate_the_scene(self, scene):
        root, labels, gt = scene
        store = cmd_ingest(make_config(root, ingest={"weeks": 2}))
        img = store.array(IMAGE_ARRAY)
        assert img.shape[0] == 2
        w0 = img.read_region((0, 0, 0, 0, 0, 0), (1, 1, 1, TILE, TILE, CHANNELS))
        w1 = img.read_region((1, 0, 0, 0, 0, 0), (1, 1, 1, TILE, TILE, CHANNELS))
        assert np.array_equal(w0, w1)

    def test_each_array_is_written_with_one_call(self, scene, monkeypatch):
        root, labels, gt = scene
        write_raster(GeoRaster(np.zeros((2, 4, 4), np.float32), gt, CRS, 0.0),
                     str(root / "coarse"))
        calls = collections.Counter()
        write_region = StoredArray.write_region

        def counted(arr, offsets, data):
            calls[arr.path] += 1
            return write_region(arr, offsets, data)

        monkeypatch.setattr(StoredArray, "write_region", counted)
        cmd_ingest(make_config(root, ingest={"weeks": 2, "coarse_image": str(root / "coarse")}))
        assert calls == {LABEL_ARRAY: 1, IMAGE_ARRAY: 1, MASK_ARRAY: 1, COARSE_ARRAY: 1}

    def test_requires_ingest_section(self, scene):
        root, labels, gt = scene
        with pytest.raises(ConfigError, match="config.ingest"):
            cmd_ingest(make_config(root, ingest=DROP))


class TestSplit:
    def test_fold_array_and_manifest(self, ingested):
        root, labels, gt, config = ingested
        assignment = cmd_split(config)
        arr = Store(config.store).array(FOLD_ARRAY)
        assert tuple(arr.shape) == (4,)
        ids = arr.read_region((0,), (4,))
        assert ids.tolist() == [assignment.fold_of(i) for i in range(4)]
        assert set(ids.tolist()) == {0, 1}
        man = arr.attributes
        assert man["k"] == 2
        assert man["seed"] == 1234
        assert sorted(man["sizes"]) == [2, 2]
        # the two class-0 tiles land in different folds
        assert [c.get("0") for c in man["class_counts"]] == [1, 1]

    def test_k_larger_than_tile_count(self, ingested):
        root, labels, gt, config = ingested
        with pytest.raises(DataError, match="config.split.k: 5 exceeds the 4 stored tiles"):
            cmd_split(make_config(root, split={"k": 5}))

    def test_requires_split_section(self, ingested):
        root, labels, gt, config = ingested
        with pytest.raises(ConfigError, match="config.split"):
            cmd_split(make_config(root, split=DROP))

    def test_min_pixels_can_unlabel_every_tile(self, ingested):
        root, labels, gt, config = ingested
        cmd_split(make_config(root, split={"k": 2, "min_pixels": 999}))
        man = Store(config.store).array(FOLD_ARRAY).attributes
        assert man["class_counts"] == [{}, {}]

    def test_deterministic_across_stores(self, tmp_path):
        ids = []
        for name in ("a", "b"):
            root = tmp_path / name
            root.mkdir()
            write_scene(root)
            config = make_config(root)
            cmd_ingest(config)
            cmd_split(config)
            arr = Store(config.store).array(FOLD_ARRAY)
            ids.append(arr.read_region((0,), (4,)).tolist())
        assert ids[0] == ids[1]


class TestTrain:
    def test_writes_history_and_checkpoint(self, ingested):
        root, labels, gt, config = ingested
        out = root / "run"
        history = cmd_train(config, out_dir=out)
        assert len(history.records) == 2
        assert (out / "model.ckpt").exists()
        assert (out / "hist.txt").read_text(encoding="utf-8") == history.table()
        doc = json.loads((out / "hist.json").read_text(encoding="utf-8"))
        assert doc["stopped_early"] is False
        assert len(doc["records"]) == 2

    def test_a_run_replaces_an_earlier_runs_checkpoint(self, ingested):
        root, labels, gt, config = ingested
        out, fresh = root / "run", root / "fresh"
        cmd_train(make_config(root, train={"epochs": 8}), out_dir=out)
        unet_monitor = checkpoint_load(str(out / "model.ckpt"))[1]
        segnet = make_config(root, train={"topology": {"kind": "segnet"}, "epochs": 1})
        history = cmd_train(segnet, out_dir=out)
        # the U-Net's file scores better, and SegNet's still replaces it
        assert unet_monitor < history.records[0]["val_loss"]
        graph, _ = checkpoint_load(str(out / "model.ckpt"))
        assert "batch_norm2d" in {node["kind"] for node in graph.descriptor()["nodes"]}
        cmd_train(segnet, out_dir=fresh)
        assert (out / "model.ckpt").read_bytes() == (fresh / "model.ckpt").read_bytes()
        cmd_train(segnet, out_dir=out)  # the same run again, into the same directory
        assert (out / "model.ckpt").read_bytes() == (fresh / "model.ckpt").read_bytes()

    def test_loss_decreases_on_the_easy_scene(self, ingested):
        root, labels, gt, config = ingested
        config = make_config(root, train={
            "optimizer": {"kind": "adam", "lr": 0.005}, "epochs": 3})
        history = cmd_train(config, out_dir=root / "run")
        losses = [r["train_loss"] for r in history.records]
        assert losses[-1] < losses[0]

    def test_in_channels_mismatch(self, ingested):
        root, labels, gt, config = ingested
        bad = make_config(root, train={"topology": {"in_channels": 4}})
        with pytest.raises(ConfigError, match="in_channels"):
            cmd_train(bad, out_dir=root)

    def test_num_classes_mismatch(self, ingested):
        root, labels, gt, config = ingested
        # without the ingest section the parse-time check cannot see the
        # mismatch, so the check against the stored labels is what fires
        bad = make_config(root, ingest=DROP, train={"topology": {"num_classes": 4}})
        with pytest.raises(ConfigError, match="num_classes"):
            cmd_train(bad, out_dir=root)

    def test_requires_train_section(self, ingested):
        root, labels, gt, config = ingested
        with pytest.raises(ConfigError, match="config.train"):
            cmd_train(make_config(root, train=DROP), out_dir=root)

    def test_slice_outside_the_store(self, ingested):
        root, labels, gt, config = ingested
        bad = make_config(root, train={"slice_timestamps": [0, 2]})
        with pytest.raises(DataError, match="config.train.slice_timestamps"):
            cmd_train(bad, out_dir=root)

    def test_validation_fold_holds_out_tiles(self, ingested):
        root, labels, gt, config = ingested
        cmd_split(config)
        frozen = {"optimizer": {"kind": "sgd", "lr": 1e-300}, "epochs": 1}
        plain = cmd_train(make_config(root, train=frozen), out_dir=root / "a")
        rec = plain.records[0]
        assert rec["val_loss"] == rec["train_loss"]
        held = cmd_train(make_config(root, train={**frozen,
                                                  "validation_fold": 0}),
                         out_dir=root / "b")
        rec = held.records[0]
        assert rec["val_loss"] != rec["train_loss"]

    def test_fully_ignored_tiles_are_skipped(self, scene):
        root, labels, gt = scene
        write_scl(root, gt, np.full((SIZE, SIZE), 9, dtype=np.uint8))
        config = make_config(root, ingest={"scl": str(root / "scl")})
        cmd_ingest(config)
        with pytest.raises(DataError, match="no usable training tiles"):
            cmd_train(config, out_dir=root)

    def test_disabling_masks_restores_the_tiles(self, scene):
        root, labels, gt = scene
        write_scl(root, gt, np.full((SIZE, SIZE), 9, dtype=np.uint8))
        config = make_config(root, ingest={"scl": str(root / "scl")},
                             train={"masks": None, "epochs": 1})
        cmd_ingest(config)
        history = cmd_train(config, out_dir=root / "run")
        assert len(history.records) == 1

    def test_multi_component_inputs_concatenate(self, scene):
        root, labels, gt = scene
        coarse = np.linspace(0.0, 1.0, 2 * 4 * 4,
                             dtype=np.float32).reshape(2, 4, 4)
        write_raster(GeoRaster(coarse, (gt[0], 80.0, 0.0, gt[3], 0.0, -80.0),
                               CRS, 0.0), str(root / "coarse"))
        overrides = {"inputs": [IMAGE_ARRAY, COARSE_ARRAY], "epochs": 1,
                     "topology": {"in_channels": 5}}
        config = make_config(root,
                             ingest={"coarse_image": str(root / "coarse")},
                             train=overrides)
        cmd_ingest(config)
        history = cmd_train(config, out_dir=root / "run")
        assert len(history.records) == 1
        narrow = make_config(root,
                             ingest={"coarse_image": str(root / "coarse")},
                             train={"inputs": [IMAGE_ARRAY, COARSE_ARRAY],
                                    "epochs": 1})
        with pytest.raises(ConfigError, match="in_channels"):
            cmd_train(narrow, out_dir=root / "run")


class TestEvaluate:
    def test_report_keys_and_files(self, trained):
        root, config, out, history = trained
        values = cmd_evaluate(config, out_dir=out)
        assert list(values) == list(REPORT_KEYS)
        assert all(0.0 <= values[k] <= 1.0 for k in values)
        assert (out / "report.txt").exists()
        doc = json.loads((out / "report.json").read_text(encoding="utf-8"))
        assert doc == values

    def test_checkpoint_falls_back_to_the_train_section(self, trained):
        root, config, out, history = trained
        # evaluate carries no checkpoint of its own in the base config
        assert config.evaluate.checkpoint is None
        values = cmd_evaluate(config, out_dir=out)
        assert values["accuracy"] >= 0.0

    def test_no_checkpoint_anywhere(self, trained):
        root, config, out, history = trained
        bad = make_config(root, train={"checkpoint": DROP})
        with pytest.raises(ConfigError, match="checkpoint"):
            cmd_evaluate(bad, out_dir=out)

    def test_absolute_checkpoint_path(self, trained):
        root, config, out, history = trained
        override = make_config(
            root, evaluate={"checkpoint": str(out / "model.ckpt")})
        values = cmd_evaluate(override, out_dir=root / "elsewhere")
        assert (root / "elsewhere" / "report.json").exists()
        assert list(values) == list(REPORT_KEYS)

    def test_fold_filter(self, trained):
        root, config, out, history = trained
        cmd_split(config)
        subset = cmd_evaluate(make_config(root, evaluate={"fold": 0}),
                              out_dir=out)
        assert list(subset) == list(REPORT_KEYS)
        # parse_config rejects fold >= split.k, so a store whose folds no
        # longer match the config is the way to reach the empty-fold error
        empty = dataclasses.replace(config, evaluate=EvaluateSection(fold=7))
        with pytest.raises(DataError, match="fold 7"):
            cmd_evaluate(empty, out_dir=out)

    def test_checkpoint_class_count_mismatch(self, trained):
        root, config, out, history = trained
        wrong = build_topology(
            TopologySpec(kind="unet", depth=1, base_channels=4,
                         in_channels=CHANNELS, num_classes=4),
            input_hw=(TILE, TILE), seed=1)
        checkpoint_save(wrong, str(root / "wrong.ckpt"))
        bad = make_config(root, evaluate={"checkpoint": str(root / "wrong.ckpt")})
        with pytest.raises(ConfigError, match="4 classes"):
            cmd_evaluate(bad, out_dir=out)


class TestPredict:
    def test_writes_the_mosaic_mask(self, trained):
        root, config, out, history = trained
        base = cmd_predict(config, out_dir=out)
        assert base == out / "mask"
        mask = read_mask(base, SIZE, SIZE)
        assert mask_geotransform(base) == tuple(
            Store(config.store).array(IMAGE_ARRAY).attributes["geotransform"])
        assert mask.max() < CLASSES

    def test_ignored_pixels_become_255(self, scene):
        root, labels, gt = scene
        write_scl(root, gt, synth.make_scl(SIZE, SIZE, cloud_rows=4,
                                           cloud_cols=4))
        config = make_config(root, ingest={"scl": str(root / "scl")},
                             train={"epochs": 1})
        cmd_ingest(config)
        out = root / "run"
        cmd_train(config, out_dir=out)
        mask = read_mask(cmd_predict(config, out_dir=out), SIZE, SIZE)
        assert (mask[:4, :4] == 255).all()
        assert (mask[8:, 8:] < CLASSES).all()

    def test_preview_ppm(self, trained):
        root, config, out, history = trained
        config = make_config(root, predict={"out": "mask", "preview": True})
        base = cmd_predict(config, out_dir=out)
        blob = (out / "mask_preview.ppm").read_bytes()
        assert blob.startswith(b"P6")

    def test_week_out_of_range(self, trained):
        root, config, out, history = trained
        bad = make_config(root, predict={"week": 3})
        with pytest.raises(DataError, match="config.predict.week: 3"):
            cmd_predict(bad, out_dir=out)


class TestRaggedScene:
    """A 40x24 scene at tile 16: a 2x3 tile grid whose right column and
    bottom row are padded."""

    H, W = 24, 40

    @pytest.fixture()
    def ragged(self, tmp_path):
        labels, gt = write_scene(tmp_path, height=self.H, width=self.W)
        write_scl(tmp_path, gt, synth.make_scl(self.H, self.W, cloud_rows=4,
                                               cloud_cols=4))
        config = make_config(tmp_path, ingest={"scl": str(tmp_path / "scl")},
                             train={"epochs": 1})
        return tmp_path, labels, gt, config, cmd_ingest(config)

    def test_edge_tiles_are_padded(self, ragged):
        root, labels, gt, config, store = ragged
        pad = np.zeros((2 * TILE, 3 * TILE), dtype=bool)
        pad[self.H:, :] = pad[:, self.W:] = True

        def scene_of(arr):  # stored [ty, tx, th, tw, ...] -> [H', W', ...]
            a = arr.read_region((0,) * len(arr.shape), arr.shape)
            a = a[0] if a.ndim in (5, 6) else a
            return a.swapaxes(1, 2).reshape(2 * TILE, 3 * TILE, *a.shape[4:])

        img = store.array(IMAGE_ARRAY)
        assert tuple(img.shape) == (1, 2, 3, TILE, TILE, CHANNELS)
        image = scene_of(img)
        assert np.all(image[pad] == -9999.0)
        raster = read_raster(str(root / "image"))
        assert np.array_equal(image[:self.H, :self.W], raster.data.transpose(1, 2, 0))
        lbl = scene_of(store.array(LABEL_ARRAY))
        assert np.all(lbl[pad] == 255)
        assert np.array_equal(lbl[:self.H, :self.W], labels)
        msk = scene_of(store.array(MASK_ARRAY))
        assert np.all(msk[pad] == 1)
        assert msk[:4, :4].all() and msk[:self.H, :self.W].sum() == 16

    def test_predict_crops_to_the_scene(self, ragged):
        root, labels, gt, config, store = ragged
        out = root / "run"
        cmd_train(config, out_dir=out)
        base = cmd_predict(config, out_dir=out)
        mask = read_mask(base, self.H, self.W)
        assert mask_geotransform(base) == gt
        assert (mask[:4, :4] == 255).all()
        assert (mask[4:, 4:] < CLASSES).all()


class TestWeekReader:
    """What train, evaluate and predict read out of the store, pinned through
    the public commands: a ragged 40x24 scene at tile 16 (a 2x3 grid with
    padded edges), an SCL mask that covers tile (0, 0), unlabelled pixels
    in tile (1, 1), a 2-channel coarse input at 2x2 pixels per tile, and an
    image that differs by week."""

    H, W = 24, 40

    def build(self, root, weeks):
        _, gt = write_scene(root, height=self.H, width=self.W)
        shapes = synth.scene_label_shapes(self.H, self.W, CLASSES, TILE, gt)
        x0, x1 = gt[0] + 16 * gt[1], gt[0] + 24 * gt[1]
        y0, y1 = gt[3] + 16 * gt[5], gt[3] + 24 * gt[5]
        shapes[4] = (shapes[4][0], parse_wkt(  # rows 16:24 now end at col 24, not 32
            f"POLYGON(({x0} {y0},{x1} {y0},{x1} {y1},{x0} {y1},{x0} {y0}))"))
        (root / "labels.json").write_text(synth.shapes_to_json(shapes),
                                          encoding="utf-8")
        write_scl(root, gt, synth.make_scl(self.H, self.W, cloud_rows=16,
                                           cloud_cols=20))
        coarse = np.linspace(-9.0, 9.0, 2 * 4 * 6, dtype=np.float32).reshape(2, 4, 6)
        write_raster(GeoRaster(coarse, (gt[0], 80.0, 0.0, gt[3], 0.0, -80.0),
                               CRS, 0.0), str(root / "coarse"))
        config = make_config(
            root,
            ingest={"scl": str(root / "scl"), "coarse_image": str(root / "coarse"),
                    "weeks": weeks},
            train={"inputs": [IMAGE_ARRAY, COARSE_ARRAY], "epochs": 1,
                   "slice_timestamps": [0, weeks], "validation_fold": 0,
                   "topology": {"in_channels": CHANNELS + 2}},
            evaluate={"fold": 0}, predict={"out": "mask", "week": weeks - 1})
        cmd_ingest(config)
        img = Store(config.store).array(IMAGE_ARRAY)
        for w in range(1, weeks):  # week w holds the scene's channels rolled by w
            block = img.read_region((w, 0, 0, 0, 0, 0), (1,) + img.shape[1:])
            img.write_region((w, 0, 0, 0, 0, 0), np.roll(block, w, axis=-1))
        cmd_split(config)
        return config

    def save_untrained(self, out):
        checkpoint_save(build_topology(
            TopologySpec(kind="unet", depth=1, base_channels=4,
                         in_channels=CHANNELS + 2, num_classes=CLASSES),
            input_hw=(TILE, TILE), seed=2), str(out / "model.ckpt"))

    def reference(self, root, config):
        """Week 0's model inputs [6, C, 16, 16], the labels and the cloud
        and pad mask [6, 16, 16], built from the scene files, not the store."""
        pad = ((0, 2 * TILE - self.H), (0, 3 * TILE - self.W))
        image = read_raster(str(root / "image")).data
        image = np.stack([np.pad(c, pad, constant_values=-9999.0) for c in image])
        coarse = read_raster(str(root / "coarse")).data
        coarse = coarse.repeat(TILE // 2, axis=1).repeat(TILE // 2, axis=2)
        scl = read_raster(str(root / "scl"))
        ignore = np.pad(scl_to_ignore_mask(scl, config.ingest.cloud_classes).data[0],
                        pad, constant_values=1)
        labels = synth.block_labels(self.H, self.W, CLASSES, TILE)
        labels[16:24, 24:32] = 255
        labels = np.pad(labels, pad, constant_values=255)

        def tiles(a):  # [..., 32, 48] -> [6, ..., 16, 16]
            lead = a.shape[:-2]
            a = a.reshape(*lead, 2, TILE, 3, TILE)
            a = np.moveaxis(a, (-4, -2), (0, 1))
            return a.reshape(6, *lead, TILE, TILE)

        return tiles(np.concatenate([image, coarse])), tiles(labels), tiles(ignore)

    def test_predict_and_evaluate_match_a_reference(self, tmp_path):
        weeks = 3
        config = self.build(tmp_path, weeks)
        out = tmp_path / "run"
        out.mkdir()
        # an untrained net at this seed predicts all three classes and reacts
        # to the week, the coarse layout and the input order; one trained for
        # an epoch here predicts one class everywhere
        self.save_untrained(out)
        images, labels, cloud = self.reference(tmp_path, config)
        graph, _ = checkpoint_load(str(out / "model.ckpt"))
        predicted = []
        for w in range(weeks):
            week = images.copy()
            week[:, :CHANNELS] = np.roll(week[:, :CHANNELS], w, axis=1)
            predicted.append(np.stack([graph.forward(x)[0].argmax(axis=0) for x in week]))

        mask = np.where(cloud, 255, predicted[-1]).reshape(2, 3, TILE, TILE)
        mask = mask.swapaxes(1, 2).reshape(2 * TILE, 3 * TILE)[:self.H, :self.W]
        got = read_mask(cmd_predict(config, out_dir=out), self.H, self.W)
        assert (got[:16, :20] == 255).all()
        assert np.array_equal(got, mask)

        folds = Store(config.store).array(FOLD_ARRAY).read_region((0,), (6,))
        for fold in (0, None):
            counts = np.zeros((CLASSES, CLASSES), dtype=np.int64)
            for w in range(weeks):
                for i in range(6):
                    keep = (cloud[i] == 0) & (labels[i] != 255)
                    if fold is None or folds[i] == fold:
                        np.add.at(counts, (labels[i][keep], predicted[w][i][keep]), 1)
            assert counts.sum() > 0
            want = report(ConfusionMatrix(counts))
            values = cmd_evaluate(dataclasses.replace(
                config, evaluate=EvaluateSection(fold=fold)), out_dir=out)
            assert values.keys() == want.keys()
            assert (out / "report.json").read_text(encoding="utf-8") == report_json(want)

    def test_samples_hold_the_stored_image_and_class_labels(self, tmp_path):
        """A sample is the store's float32 image and its u8 label plane; a
        label-nodata pixel is class 0 there and masked."""
        config = self.build(tmp_path, weeks=2)
        images, labels, cloud = self.reference(tmp_path, config)
        assert ((labels == 255) & (cloud == 0)).any()  # unlabelled, not cloudy
        src = _SampleSource(config, Store(config.store), config.train)
        got = list(src.samples(range(2)))
        # the SCL mask covers tile (0, 0) whole, so it is skipped each week
        assert [i for i, _ in got] == [1, 2, 3, 4, 5] * 2
        for w, (i, s) in zip([0] * 5 + [1] * 5, got):
            want = images[i].copy()
            want[:CHANNELS] = np.roll(want[:CHANNELS], w, axis=0)
            assert s.image.dtype == np.float32 and np.array_equal(s.image, want)
            nodata = labels[i] == 255
            assert s.labels.dtype == np.uint8
            assert np.array_equal(s.labels, np.where(nodata, 0, labels[i]))
            assert np.array_equal(s.ignore, (cloud[i] != 0) | nodata)

    def test_predict_skips_fully_ignored_tiles(self, tmp_path, monkeypatch):
        config = self.build(tmp_path, weeks=1)
        out = tmp_path / "run"
        out.mkdir()
        self.save_untrained(out)
        # one core, so the block runs in this process, where the spy sees it
        monkeypatch.setattr(parallel, "usable_cores", lambda: 1)
        calls = []
        infer = NetworkGraph.infer

        def counted(graph, x):
            calls.append(len(x))
            return infer(graph, x)

        monkeypatch.setattr(NetworkGraph, "infer", counted)
        got = read_mask(cmd_predict(config, out_dir=out), self.H, self.W)
        # the SCL mask covers tile (0, 0) whole; the other five are predicted,
        # in one block
        assert calls == [5]
        assert (got[:16, :16] == 255).all()
        assert (got[16:, :16] != 255).any()

    def test_each_array_is_read_once_per_week(self, tmp_path, monkeypatch):
        config = self.build(tmp_path, weeks=4)
        out = tmp_path / "run"
        calls = collections.Counter()
        read_region = StoredArray.read_region

        def counted(arr, offsets, extents):
            calls[arr.path] += 1
            return read_region(arr, offsets, extents)

        monkeypatch.setattr(StoredArray, "read_region", counted)
        per_week = {IMAGE_ARRAY: 4, COARSE_ARRAY: 4, MASK_ARRAY: 4}
        cmd_train(config, out_dir=out)
        assert calls == {LABEL_ARRAY: 1, FOLD_ARRAY: 1, **per_week}
        calls.clear()
        cmd_evaluate(config, out_dir=out)
        assert calls == {LABEL_ARRAY: 1, FOLD_ARRAY: 1, **per_week}
        calls.clear()
        cmd_predict(config, out_dir=out)
        assert calls == {IMAGE_ARRAY: 1, COARSE_ARRAY: 1, MASK_ARRAY: 1}


class TestQuery:
    def test_product_type_only(self, tmp_path):
        url = cmd_query(make_config(tmp_path))
        assert url == (BASE_URL + "?filter=((producttype:OL_1_EFR___))"
                       "&offset=0&limit=25&sortedby=ingestiondate&order=desc")

    def test_full_section_maps_onto_the_query(self, tmp_path):
        footprint = "POLYGON((13.4 45.1,21.9 45.1,21.9 40.5,13.4 40.5,13.4 45.1))"
        section = {
            "begin": "2018-06-01T00:00:00.000Z",
            "end": "2018-06-08T00:00:00.000Z",
            "platformname": "Sentinel-3",
            "producttype": "OL_1_EFR___",
            "instrumentshortname": "OLCI",
            "filename": "S3A_*",
            "footprint": footprint,
            "offset": 50,
            "limit": 10,
            "sortedby": "beginposition",
            "order": "asc",
        }
        url = cmd_query(make_config(tmp_path, query=section))
        want = build_catalog_query(CatalogQuery(
            begin=section["begin"], end=section["end"],
            platform_name="Sentinel-3", filename="S3A_*",
            product_type="OL_1_EFR___", instrument="OLCI",
            footprint=parse_wkt(footprint),
            offset=50, limit=10, sorted_by="beginposition", order="asc"))
        assert url == want

    def test_requires_query_section(self, tmp_path):
        with pytest.raises(ConfigError, match="config.query"):
            cmd_query(make_config(tmp_path, query=DROP))


class TestCli:
    def write_config(self, root, **overrides):
        path = root / "cfg.yaml"
        path.write_text(yaml.safe_dump(merged(base_doc(root), overrides)),
                        encoding="utf-8")
        return str(path)

    def test_full_pipeline_through_the_cli(self, tmp_path, capsys):
        write_scene(tmp_path)
        cfg = self.write_config(tmp_path)
        out = tmp_path / "run"

        assert main(["ingest", "--config", cfg]) == 0
        got = capsys.readouterr().out
        assert IMAGE_ARRAY in got
        assert LABEL_ARRAY in got
        assert f"[1, 2, 2, {TILE}, {TILE}, {CHANNELS}]" in got

        assert main(["split", "--config", cfg]) == 0
        assert capsys.readouterr().out.startswith("fold sizes: ")

        assert main(["train", "--config", cfg, "--out", str(out)]) == 0
        assert "epoch" in capsys.readouterr().out
        assert (out / "model.ckpt").exists()

        assert main(["evaluate", "--config", cfg, "--out", str(out)]) == 0
        got = capsys.readouterr().out
        assert "accuracy" in got
        assert "MIoU" in got

        assert main(["predict", "--config", cfg, "--out", str(out)]) == 0
        line = capsys.readouterr().out.strip()
        assert line == str(out / "mask") + ".pgm"
        assert (out / "mask.pgm").exists()

        assert main(["query", "--config", cfg, "--out", str(out)]) == 0
        url = capsys.readouterr().out.strip()
        assert url.startswith(BASE_URL)
        assert (out / "query.txt").read_text(encoding="utf-8") == url + "\n"

    def test_query_without_out_dir_writes_no_file(self, tmp_path, capsys,
                                                  monkeypatch):
        cfg = self.write_config(tmp_path)
        monkeypatch.chdir(tmp_path)
        assert main(["query", "--config", cfg]) == 0
        assert capsys.readouterr().out.startswith(BASE_URL)
        assert not (tmp_path / "query.txt").exists()

    @pytest.mark.parametrize("out", [".", "./"])
    def test_query_with_an_out_dir_writes_the_file(self, tmp_path, capsys, monkeypatch, out):
        cfg = self.write_config(tmp_path)
        monkeypatch.chdir(tmp_path)
        assert main(["query", "--config", cfg, "--out", out]) == 0
        url = capsys.readouterr().out
        assert url.startswith(BASE_URL)
        assert (tmp_path / "query.txt").read_text(encoding="utf-8") == url

    def test_missing_config_file_exits_2(self, tmp_path, capsys):
        code = main(["split", "--config", str(tmp_path / "absent.yaml")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error[config]: ")

    def test_directory_as_config_exits_2_in_one_line(self, tmp_path, capsys):
        assert main(["split", "--config", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error[config]: config file {tmp_path}: ") and err.count("\n") == 1

    @pytest.mark.parametrize("key, what, value", [
        ("labels", "label file", "dir.json"), ("image", "raster sidecar", "dir")])
    def test_directory_as_ingest_input_exits_3_in_one_line(self, tmp_path, capsys,
                                                           key, what, value):
        write_scene(tmp_path)
        (tmp_path / "dir.json").mkdir()
        cfg = self.write_config(tmp_path, ingest={key: str(tmp_path / value)})
        assert main(["ingest", "--config", cfg]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error[data]: {what} {tmp_path / 'dir.json'}: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", ["evaluate", "predict"])
    def test_missing_checkpoint_exits_3_in_one_line(self, tmp_path, capsys, command):
        write_scene(tmp_path)
        cfg = self.write_config(tmp_path)
        out = tmp_path / "run"
        assert main(["ingest", "--config", cfg]) == 0
        capsys.readouterr()
        assert main([command, "--config", cfg, "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            f"error[data]: checkpoint {out / 'model.ckpt'}: not found\n")

    @pytest.mark.parametrize("command", ["evaluate", "predict"])
    def test_directory_as_checkpoint_exits_3_in_one_line(self, tmp_path, capsys, command):
        write_scene(tmp_path)
        cfg = self.write_config(tmp_path)
        assert main(["ingest", "--config", cfg]) == 0
        capsys.readouterr()
        assert main([command, "--config", cfg, "--out", str(tmp_path / "run"),
                     "--checkpoint", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error[data]: checkpoint {tmp_path}: ") and err.count("\n") == 1

    def test_directory_as_train_checkpoint_exits_3_before_an_epoch(self, tmp_path, capsys):
        write_scene(tmp_path)
        cfg = self.write_config(tmp_path)
        assert main(["ingest", "--config", cfg]) == 0
        assert main(["split", "--config", cfg]) == 0
        capsys.readouterr()
        out = tmp_path / "run"
        ckpt = tmp_path / "ckpt-dir"
        ckpt.mkdir()
        assert main(["train", "--config", cfg, "--out", str(out), "--checkpoint", str(ckpt)]) == 3
        err = capsys.readouterr().err
        assert err == f"error[data]: checkpoint {ckpt}: is a directory\n"
        assert not (out / "history.json").exists() and not any(ckpt.iterdir())

    def test_train_checkpoint_under_a_regular_file_exits_3_before_an_epoch(self, tmp_path,
                                                                          capsys):
        write_scene(tmp_path)
        cfg = self.write_config(tmp_path)
        assert main(["ingest", "--config", cfg]) == 0
        capsys.readouterr()
        out = tmp_path / "run"
        (tmp_path / "file").write_bytes(b"")
        ckpt = tmp_path / "file" / "model.ckpt"
        assert main(["train", "--config", cfg, "--out", str(out), "--checkpoint", str(ckpt)]) == 3
        err = capsys.readouterr().err
        assert err == f"error[data]: checkpoint {ckpt}: {tmp_path / 'file'}: File exists\n"
        assert not (out / "history.json").exists()

    @pytest.mark.parametrize("command, output", [
        ("train", "history hist"), ("evaluate", "report report"),
        ("predict", "prediction mask"), ("query", "query query.txt")])
    def test_output_under_a_regular_file_exits_3_before_any_work(self, tmp_path, capsys,
                                                                 command, output):
        # before, train wrote its checkpoint, and each command did its work,
        # and then failed to make the directory with a traceback and exit 4
        write_scene(tmp_path)
        cfg = self.write_config(tmp_path)
        assert main(["ingest", "--config", cfg]) == 0
        assert main(["split", "--config", cfg]) == 0
        capsys.readouterr()
        model = tmp_path / "model.ckpt"
        checkpoint_save(build_topology(make_config(tmp_path).train.topology,
                                       input_hw=(TILE, TILE)), str(model))
        (tmp_path / "afile").write_bytes(b"")
        out = tmp_path / "afile" / "x"
        ckpt = tmp_path / "run2.ckpt"
        extra = {"train": ["--checkpoint", str(ckpt)], "query": []}.get(
            command, ["--checkpoint", str(model)])
        before = sorted(tmp_path.rglob("*"))
        assert main([command, "--config", cfg, "--out", str(out), *extra]) == 3
        what, name = output.split()
        assert capsys.readouterr().err == (
            f"error[data]: {what} {out / name}: {out}: Not a directory\n")
        assert sorted(tmp_path.rglob("*")) == before and not ckpt.exists()

    @pytest.mark.parametrize("command, output", [
        ("train", "history hist.json"), ("evaluate", "report report.txt"),
        ("predict", "prediction mask.pgm"), ("query", "query query.txt")])
    def test_a_directory_where_an_output_goes_exits_3_before_any_work(self, tmp_path, capsys,
                                                                      command, output):
        # before, each command did its work (train wrote its checkpoint) and
        # then failed to write the file with a traceback and exit 4
        write_scene(tmp_path)
        cfg = self.write_config(tmp_path)
        assert main(["ingest", "--config", cfg]) == 0
        assert main(["split", "--config", cfg]) == 0
        capsys.readouterr()
        model = tmp_path / "model.ckpt"
        checkpoint_save(build_topology(make_config(tmp_path).train.topology,
                                       input_hw=(TILE, TILE)), str(model))
        what, name = output.split()
        out = tmp_path / "run"
        (out / name).mkdir(parents=True)
        ckpt = tmp_path / "run2.ckpt"
        extra = {"train": ["--checkpoint", str(ckpt)], "query": []}.get(
            command, ["--checkpoint", str(model)])
        before = sorted(tmp_path.rglob("*"))
        assert main([command, "--config", cfg, "--out", str(out), *extra]) == 3
        err = capsys.readouterr().err
        assert err == f"error[data]: {what} {out / name}: is a directory\n"
        assert "Traceback" not in err
        assert sorted(tmp_path.rglob("*")) == before and not ckpt.exists()

    @pytest.mark.parametrize("command, what, target", [
        ("ingest", "store chunk", f"store/{IMAGE_ARRAY}/c.0.0.0.0.0.0"),
        ("ingest", "store metadata", f"store/{IMAGE_ARRAY}/.array.json"),
        ("train", "checkpoint", "run/model.ckpt"),
        ("train", "history", "run/history.txt"),
        ("evaluate", "report", "run/report.json"),
        ("predict", "mask", "run/prediction.pgm"),
        ("predict", "mask preview", "run/prediction_preview.ppm"),
        ("query", "query", "run/query.txt"),
    ])
    def test_a_failed_write_exits_3_naming_the_file_and_leaves_no_tmp(
            self, tmp_path, capsys, monkeypatch, command, what, target):
        write_scene(tmp_path)
        cfg = self.write_config(tmp_path, train={"history": "history"},
                                predict={"out": "prediction", "preview": True})
        model = tmp_path / "model.ckpt"
        if command != "ingest":
            assert main(["ingest", "--config", cfg]) == 0
            checkpoint_save(build_topology(make_config(tmp_path).train.topology,
                                           input_hw=(TILE, TILE)), str(model))
        capsys.readouterr()
        path = tmp_path / target
        replace = os.replace

        def full_disk(src, dst):
            if os.fspath(dst) == str(path):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            replace(src, dst)

        monkeypatch.setattr(os, "replace", full_disk)
        extra = [] if command == "ingest" else ["--out", str(tmp_path / "run")]
        if command in ("evaluate", "predict"):
            extra += ["--checkpoint", str(model)]
        assert main([command, "--config", cfg, *extra]) == 3
        assert capsys.readouterr().err == (
            f"error[data]: {what} {path}: No space left on device\n")
        assert not path.exists() and not list(tmp_path.rglob("tmp-*"))

    def test_ingest_past_the_file_size_limit_exits_3_naming_the_chunk(self, tmp_path):
        # the kernel refuses a write past RLIMIT_FSIZE with EFBIG (CPython
        # ignores SIGXFSZ); 4 KiB holds the store's metadata but no image chunk
        write_scene(tmp_path)
        cfg = self.write_config(tmp_path)
        script = ("import resource, sys; from terraseg.cli import main; "
                  "resource.setrlimit(resource.RLIMIT_FSIZE, (4096, resource.RLIM_INFINITY)); "
                  f"sys.exit(main(['ingest', '--config', {cfg!r}]))")
        done = self.run_python(script)
        chunk = tmp_path / "store" / IMAGE_ARRAY / "c.0.0.0.0.0.0"
        assert (done.returncode, done.stderr) == (
            3, f"error[data]: store chunk {chunk}: File too large\n")
        assert not list(tmp_path.rglob("tmp-*"))

    @pytest.mark.parametrize("command, doc, edit, fragment", [
        ("ingest", "labels.json", lambda d: d[1].update(wkt=5),
         ": entry 1 needs a 'class' and a 'wkt' string"),
        ("ingest", "labels.json", lambda d: d[1].update({"class": 99}),
         f": entry 1: class index 99 outside [0, {CLASSES})"),
        ("ingest", "image.json", lambda d: d.update(width="abc"),
         " is malformed: ValueError: invalid literal for int()"),
        ("ingest", "image.json", lambda d: d.update(geotransform=5),
         " is malformed: TypeError: 'int' object is not iterable"),
        ("ingest", "image.json", lambda d: d.update(geotransform=d["geotransform"][:5]),
         " is malformed: ParameterError: geotransform needs 6 coefficients, got 5"),
        ("ingest", "image.json", lambda d: d.update(geotransform=[0, 1, 0, 0, 0, 0]),
         " is malformed: ParameterError: geotransform is singular"),
        ("train", f"store/{IMAGE_ARRAY}/.array.json", lambda d: d.pop("shape"),
         " is malformed: KeyError: 'shape'"),
        ("train", f"store/{IMAGE_ARRAY}/.array.json", lambda d: d.update(dtype="f16"),
         " is malformed: KeyError: 'f16'"),
        ("train", f"store/{IMAGE_ARRAY}/.array.json", None,
         ": not valid JSON: Unterminated string"),
    ], ids=["wkt not a string", "class out of range", "width not a number",
            "geotransform not a list", "geotransform of 5", "singular geotransform",
            "no shape", "unknown dtype", "truncated"])
    def test_a_json_input_that_does_not_parse_or_fit_exits_3_naming_it(
            self, tmp_path, capsys, command, doc, edit, fragment):
        # before, each exited 4 with a traceback and a message naming no file
        write_scene(tmp_path)
        cfg = self.write_config(tmp_path)
        if command == "train":
            assert main(["ingest", "--config", cfg]) == 0
        path = tmp_path / doc
        text = path.read_text(encoding="utf-8")
        if edit is None:
            text = text[:40]  # cut inside a string
        else:
            value = json.loads(text)
            edit(value)
            text = json.dumps(value)
        path.write_text(text, encoding="utf-8")
        capsys.readouterr()
        extra = ["--out", str(tmp_path / "run")] if command == "train" else []
        assert main([command, "--config", cfg, *extra]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error[data]: ") and err.count("\n") == 1
        assert f"{path}{fragment}" in err

    @staticmethod
    def run_python(script, **env):
        """``python -c script`` on this package, TERRASEG_LOG unset unless given."""
        src = os.path.dirname(os.path.dirname(os.path.abspath(synth.__file__)))
        env = {k: v for k, v in os.environ.items() if k != "TERRASEG_LOG"} | env
        env |= {"PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"}
        return subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, env=env, timeout=120)

    @pytest.mark.parametrize("log", [{}, {"TERRASEG_LOG": "debug"}], ids=["default", "debug"])
    def test_an_unexpected_failure_shows_its_traceback_only_at_debug(self, tmp_path, log):
        cfg = self.write_config(tmp_path)
        script = ("import sys; from terraseg import cli, pipeline\n"
                  "def boom(config): raise OSError('boom')\n"
                  "pipeline.cmd_query = boom\n"
                  f"sys.exit(cli.main(['query', '--config', {cfg!r}]))")
        done = self.run_python(script, **log)
        lines = done.stderr.splitlines()
        assert done.returncode == 4 and lines[-1] == "error[runtime]: boom"
        if log:
            assert "Traceback (most recent call last):" in done.stderr
        else:
            assert lines == ["error[runtime]: boom"]

    @pytest.mark.parametrize("train, key, array", [
        ({"inputs": [MASK_ARRAY]}, "inputs[0]", MASK_ARRAY),
        ({"inputs": [LABEL_ARRAY]}, "inputs[0]", LABEL_ARRAY),
        ({"masks": IMAGE_ARRAY}, "masks", IMAGE_ARRAY),
    ], ids=["mask as input", "labels as input", "image as mask"])
    def test_train_array_of_the_wrong_kind_exits_3_in_one_line(self, tmp_path, capsys,
                                                               train, key, array):
        write_scene(tmp_path)
        cfg = self.write_config(tmp_path, train=train)
        assert main(["ingest", "--config", cfg]) == 0
        capsys.readouterr()
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "run")]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error[data]: config.train.{key}: store array {array} has shape ")
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("node, fields", [
        ("enc0_pool", {"window": 3, "stride": 1}), ("dec0_up", {"kernel": 3})])
    def test_checkpoint_of_an_unsupported_layer_exits_3_in_one_line(self, tmp_path, capsys,
                                                                    node, fields):
        write_scene(tmp_path)
        cfg = self.write_config(tmp_path)
        assert main(["ingest", "--config", cfg]) == 0
        capsys.readouterr()
        graph = build_topology(make_config(tmp_path).train.topology, input_hw=(TILE, TILE))
        layer = next(n.layer for n in graph.nodes if n.name == node)
        vars(layer).update(fields)  # add would refuse this layer
        ckpt = tmp_path / "bad.ckpt"
        checkpoint_save(graph, str(ckpt))
        assert main(["evaluate", "--config", cfg, "--checkpoint", str(ckpt)]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error[data]: checkpoint {ckpt}: descriptor does not build "
                              "a graph: ParameterError: unsupported")
        assert err.count("\n") == 1

    def test_config_that_is_not_utf8_exits_2_in_one_line(self, tmp_path, capsys):
        path = tmp_path / "cfg.yaml"
        path.write_bytes(b"seed: 1\n# caf\xe9\n")
        assert main(["split", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err == (f"error[config]: config file {path} is not UTF-8 text "
                       f"(byte 13: invalid continuation byte)\n")

    def test_missing_section_exits_2(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, split=DROP)
        assert main(["split", "--config", cfg]) == 2
        assert "config.split" in capsys.readouterr().err

    def test_data_error_exits_3(self, tmp_path, capsys):
        write_scene(tmp_path)
        (tmp_path / "labels.json").unlink()
        cfg = self.write_config(tmp_path)
        assert main(["ingest", "--config", cfg]) == 3
        assert capsys.readouterr().err.startswith("error[data]: ")

    @pytest.mark.parametrize("class_map", [None, {0: 0, 1: 1}])
    def test_boolean_class_exits_3(self, tmp_path, capsys, class_map):
        write_scene(tmp_path)
        doc = json.loads((tmp_path / "labels.json").read_text(encoding="utf-8"))
        doc[1]["class"] = True  # isinstance(True, int), and True == 1 as a map key
        (tmp_path / "labels.json").write_text(json.dumps(doc), encoding="utf-8")
        cfg = self.write_config(tmp_path, ingest={"class_map": class_map})
        assert main(["ingest", "--config", cfg]) == 3
        err = capsys.readouterr().err
        assert err == (f"error[data]: label file {tmp_path / 'labels.json'}: entry 1: "
                       "class true is not an integer\n")

    def test_overflowing_label_vertex_exits_3(self, tmp_path, capsys):
        write_scene(tmp_path)
        doc = json.loads((tmp_path / "labels.json").read_text(encoding="utf-8"))
        doc[2]["wkt"] = "POLYGON((0 0, 1e999 0, 0 1, 0 0))"  # off the grid but for the inf
        (tmp_path / "labels.json").write_text(json.dumps(doc), encoding="utf-8")
        cfg = self.write_config(tmp_path)
        assert main(["ingest", "--config", cfg]) == 3
        err = capsys.readouterr().err
        assert err == (f"error[data]: label file {tmp_path / 'labels.json'}: entry 2: "
                       "number 1e999 overflows a float (byte offset 14)\n")

    def test_held_store_lock_exits_4(self, tmp_path, capsys):
        write_scene(tmp_path)
        cfg = self.write_config(tmp_path)
        assert main(["ingest", "--config", cfg]) == 0
        capsys.readouterr()
        lock = tmp_path / "store" / IMAGE_ARRAY / ".lock"
        lock.write_text(str(os.getpid()), encoding="ascii")  # a running writer
        assert main(["ingest", "--config", cfg]) == 4
        assert capsys.readouterr().err == (
            f"error[runtime]: writer pid {os.getpid()} holds {lock}\n")

    @pytest.mark.parametrize("command, overrides, why", [
        ("split", {"split": {"k": 9}}, "config.split.k: 9 exceeds the 4 stored tiles"),
        ("train", {"train": {"slice_timestamps": [0, 3]}},
         "config.train.slice_timestamps: [0, 3) outside the 1-week store"),
        ("predict", {"predict": {"week": 5}}, "config.predict.week: 5 outside the 1-week store"),
    ], ids=["split-k", "train-slice", "predict-week"])
    def test_config_beyond_the_store_exits_3_in_one_line(self, tmp_path, capsys, command,
                                                         overrides, why):
        # the config parses, so only the stored tiles and weeks refuse it;
        # predict does so before it reads the checkpoint, which is not there
        write_scene(tmp_path)
        assert main(["ingest", "--config", self.write_config(tmp_path)]) == 0
        store = store_bytes(tmp_path)
        out = tmp_path / "run"
        capsys.readouterr()
        args = [command, "--config", self.write_config(tmp_path, **overrides)]
        if command != "split":
            args += ["--out", str(out)]
        assert main(args) == 3
        err = capsys.readouterr().err
        assert err == f"error[data]: {why}\n"  # one line, so no traceback
        assert store_bytes(tmp_path) == store
        assert not out.exists()

    @pytest.mark.parametrize("train, where", [
        ({"topology": {"depth": 0}}, "config.train.topology: depth"),
        ({"topology": {"alpha": -1.0}}, "config.train.topology.activation: elu"),
        ({"target": "Labels/CLC_10m/labels"}, "config.train.target: unknown key"),
        ({"epochs": 0}, "config.train: epochs must be >= 1, got 0"),
        ({"batch_size": 0}, "config.train: batch_size must be >= 1, got 0"),
        ({"min_delta": -1.0}, "config.train: min_delta must be >= 0, got -1.0"),
        ({"plateau_factor": 2.0}, "config.train: plateau_factor must be in (0, 1), got 2.0"),
        ({"optimizer": {"lr": 0}},
         "config.train.optimizer: learning rate must be positive, got 0.0"),
        ({"optimizer": {"kind": "adam", "beta_1": 1.5}},
         "config.train.optimizer: beta1 must be in [0, 1), got 1.5"),
        ({"monitor": "val_los"},
         "config.train: monitor 'val_los' is not a key of the epoch record"),
        ({"metrics": ["accuracy", "mIoU"]}, "config.train: unknown metric 'mIoU'"),
        ({"early_stop_patience": -1}, "config.train: early_stop_patience must be >= 0, got -1"),
        ({"slice_timestamps": [-1, 1]},
         "config.train: slice_timestamps must be two ints [start, stop] with 0 <= start < stop"),
        ({"inputs": []}, "config.train: inputs must name at least one store array, got []"),
    ])
    def test_bad_train_values_exit_2(self, tmp_path, capsys, train, where):
        cfg = self.write_config(tmp_path, train=train)
        assert main(["train", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error[config]: {where}") and err.count("\n") == 1

    @pytest.mark.parametrize("command, overrides, where", [
        ("ingest", {"ingest": {"weeks": 0}}, "config.ingest: weeks must be >= 1, got 0"),
        ("ingest", {"ingest": {"label_nodata": 300}},
         "config.ingest: label_nodata must be in [0, 255], got 300"),
        ("split", {"split": {"k": 1}}, "config.split: k must be >= 2, got 1"),
        ("split", {"split": {"min_pixels": 0}}, "config.split: min_pixels must be >= 1, got 0"),
        ("predict", {"predict": {"week": -1}}, "config.predict: week must be >= 0, got -1"),
        ("train", {"train": {"topology": {"kind": "segnet", "padded": False}}},
         "config.train.topology.padded: unknown key"),
        ("train", {"train": {"loss": "categorical_crossentropy"}}, "config.train.loss: unknown key"),
        ("evaluate", {"evaluate": {"fold": -1}}, "config.evaluate: fold must be >= 0, got -1"),
        ("query", {"query": {"limit": 0}}, "config.query: limit must be >= 1, got 0"),
        ("query", {"query": {"order": "sideways"}},
         "config.query: order must be 'asc' or 'desc', got 'sideways'"),
        ("query", {"query": {"begin": "2018-06-01T00:00:00.000Z"}},
         "config.query: begin and end must be given together"),
        ("query", {"query": {"footprint": "POLYGON((0 0, 1 1))"}},
         "config.query: footprint: ring has 2 vertices"),
    ])
    def test_bad_section_values_exit_2_leaving_the_store(self, tmp_path, capsys, command,
                                                          overrides, where):
        write_scene(tmp_path)
        assert main(["ingest", "--config", self.write_config(tmp_path)]) == 0
        store = store_bytes(tmp_path)
        out = tmp_path / "run"
        capsys.readouterr()
        args = [command, "--config", self.write_config(tmp_path, **overrides)]
        if command in ("train", "evaluate", "predict"):
            args += ["--out", str(out)]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error[config]: {where}") and err.count("\n") == 1
        assert store_bytes(tmp_path) == store
        assert not out.exists()

    def test_yaml_syntax_error_exits_2_in_one_line(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("seed: 1\nstore: s\ntrain: {epochs: [}\n", encoding="utf-8")
        assert main(["train", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == (
            "error[config]: config is not valid YAML: expected the node content, "
            "but found '}' at line 3, column 18\n")

    @pytest.mark.parametrize("command, overrides, where", [
        ("train", {"ingest": {"tile_size": 30}, "train": {"topology": {"depth": 2}}},
         "config.ingest.tile_size: input 30x30 must be divisible by 2^depth = 4"),
        ("train", {"train": {"validation_fold": 5}},
         "config.train.validation_fold: fold 5 outside [0, 2)"),
        ("evaluate", {"evaluate": {"fold": 5}}, "config.evaluate.fold: fold 5 outside [0, 2)"),
        ("train", {"train": {"topology": {"num_classes": 4}}},
         "config.train.topology.num_classes: 4 but config.ingest.num_classes is 3"),
    ])
    def test_cross_section_mismatch_exits_2(self, tmp_path, capsys, command, overrides, where):
        cfg = self.write_config(tmp_path, **overrides)
        assert main([command, "--config", cfg]) == 2
        assert capsys.readouterr().err.startswith(f"error[config]: {where}")

    def test_diverging_train_exits_3_without_a_checkpoint(self, tmp_path, capsys):
        write_scene(tmp_path)
        cfg = self.write_config(tmp_path, train={"optimizer": {"kind": "sgd", "lr": 1.0e6}})
        out = tmp_path / "run"
        assert main(["ingest", "--config", cfg]) == 0
        capsys.readouterr()
        assert main(["train", "--config", cfg, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error[data]: training diverged at epoch ")
        assert err.endswith(" is not finite\n") and err.count("\n") == 1
        assert not (out / "model.ckpt").exists()

    def test_fold_outside_the_stored_split_exits_3(self, tmp_path, capsys):
        write_scene(tmp_path)
        cfg = self.write_config(tmp_path)
        assert main(["ingest", "--config", cfg]) == 0
        assert main(["split", "--config", cfg]) == 0
        capsys.readouterr()
        # with no split section only the stored split can reject the fold
        cfg = self.write_config(tmp_path, split=DROP, train={"validation_fold": 5})
        assert main(["train", "--config", cfg]) == 3
        assert capsys.readouterr().err == (
            "error[data]: config.train.validation_fold: fold 5 outside [0, 2) "
            "of the stored split\n")

    @pytest.mark.parametrize("crs, extent, why", [
        ("EPSG:9999", (4, 4), f"coarse crs 'EPSG:9999' != image crs '{CRS}'"),
        (CRS, (3, 3), "coarse extent 3x3 does not divide into the 2x2 tile grid"),
    ], ids=["crs", "extent"])
    def test_an_ingest_that_fails_a_check_changes_no_store(self, tmp_path, capsys, crs,
                                                           extent, why):
        # every input is read and checked before the store is opened
        _, gt = write_scene(tmp_path)
        write_raster(GeoRaster(np.zeros((2, *extent), np.float32), gt, crs, 0.0),
                     str(tmp_path / "coarse"))
        bad = self.write_config(tmp_path, ingest={"coarse_image": str(tmp_path / "coarse")})
        assert main(["ingest", "--config", bad]) == 3
        assert capsys.readouterr().err == f"error[data]: {why}\n"
        assert not (tmp_path / "store").exists()

        cfg = self.write_config(tmp_path)
        assert main(["ingest", "--config", cfg]) == 0
        assert main(["split", "--config", cfg]) == 0
        store = store_bytes(tmp_path)
        assert tmp_path / "store" / FOLD_ARRAY / ".array.json" in store
        capsys.readouterr()
        bad = self.write_config(tmp_path, ingest={"coarse_image": str(tmp_path / "coarse")})
        assert main(["ingest", "--config", bad]) == 3
        assert capsys.readouterr().err == f"error[data]: {why}\n"
        assert store_bytes(tmp_path) == store

    def test_a_validation_fold_with_no_usable_tile_exits_3_before_any_output(
            self, tmp_path, capsys):
        _, gt = write_scene(tmp_path)
        cfg = self.write_config(tmp_path, train={"validation_fold": 0})
        assert main(["ingest", "--config", cfg]) == 0
        assert main(["split", "--config", cfg]) == 0
        folds = Store(tmp_path / "store").array(FOLD_ARRAY).read_region((0,), (4,))
        # clouds (SCL class 9) over every tile of fold 0; the labels, and so
        # the split, stay as they were
        held = (folds == 0).reshape(2, 2).repeat(TILE, axis=0).repeat(TILE, axis=1)
        write_scl(tmp_path, gt, np.where(held, 9, 4))
        cfg = self.write_config(tmp_path, ingest={"scl": str(tmp_path / "scl")},
                                train={"validation_fold": 0})
        assert main(["ingest", "--config", cfg]) == 0
        assert main(["split", "--config", cfg]) == 0
        assert np.array_equal(
            Store(tmp_path / "store").array(FOLD_ARRAY).read_region((0,), (4,)), folds)
        capsys.readouterr()
        out = tmp_path / "run"
        assert main(["train", "--config", cfg, "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            "error[data]: config.train.validation_fold: fold 0 has no usable tile\n")
        assert not out.exists()

    def test_ingest_replaces_a_store_of_the_old_format(self, tmp_path, capsys):
        write_scene(tmp_path)
        cfg = self.write_config(tmp_path)
        assert main(["ingest", "--config", cfg]) == 0
        meta = tmp_path / "store" / LABEL_ARRAY / ".array.json"
        doc = json.loads(meta.read_text(encoding="utf-8"))
        del doc["format"]
        meta.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["split", "--config", cfg]) == 3
        assert "re-ingest" in capsys.readouterr().err
        assert main(["ingest", "--config", cfg]) == 0
        assert main(["split", "--config", cfg]) == 0
        capsys.readouterr()

    @pytest.mark.parametrize("command", ["train", "evaluate", "predict"])
    def test_format_2_store_exits_3_until_reingested(self, tmp_path, capsys, command):
        write_scene(tmp_path)
        cfg = self.write_config(tmp_path, train={"epochs": 1})
        out = str(tmp_path / "run")
        assert main(["ingest", "--config", cfg]) == 0
        assert main(["train", "--config", cfg, "--out", out]) == 0
        for old in (2, 3):  # 3: shuffled chunks deflated without a plane table
            for meta in (tmp_path / "store").rglob(".array.json"):
                doc = json.loads(meta.read_text(encoding="utf-8"))
                meta.write_text(json.dumps({**doc, "format": old}), encoding="utf-8")
            capsys.readouterr()
            assert main([command, "--config", cfg, "--out", out]) == 3
            err = capsys.readouterr().err
            assert err.startswith("error[data]: array ") and err.count("\n") == 1
            assert err.endswith(" predates store format 4; re-ingest the store\n")
            assert main(["ingest", "--config", cfg]) == 0
            assert main([command, "--config", cfg, "--out", out]) == 0
            capsys.readouterr()

    def test_undecodable_chunk_exits_3_in_one_line(self, tmp_path, capsys):
        # a label chunk whose crc holds but whose one plane is no deflate stream
        write_scene(tmp_path)
        cfg = self.write_config(tmp_path)
        assert main(["ingest", "--config", cfg]) == 0
        payload = b"\x01\x03\x00\x00\x00abc"
        crc = zlib.crc32(payload, zlib.crc32(b"0.0.0.0"))
        chunk = tmp_path / "store" / LABEL_ARRAY / "c.0.0.0.0"
        chunk.write_bytes(payload + crc.to_bytes(4, "little"))
        capsys.readouterr()
        assert main(["split", "--config", cfg]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error[data]: undecodable chunk 0.0.0.0 of ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", ["train", "evaluate", "predict"])
    def test_missing_chunk_exits_3_in_one_line(self, tmp_path, capsys, command):
        # an image chunk file gone, as from an ingest stopped between writes
        write_scene(tmp_path)
        cfg = self.write_config(tmp_path, train={"epochs": 1})
        out = str(tmp_path / "run")
        assert main(["ingest", "--config", cfg]) == 0
        assert main(["train", "--config", cfg, "--out", out]) == 0
        (tmp_path / "store" / IMAGE_ARRAY / "c.0.1.0.0.0.0").unlink()
        capsys.readouterr()
        assert main([command, "--config", cfg, "--out", out]) == 3
        assert capsys.readouterr().err == (
            f"error[data]: missing chunk 0.1.0.0.0.0 of '{IMAGE_ARRAY}'\n")

    @pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
    @pytest.mark.parametrize("command", ["ingest", "split"])
    def test_store_path_of_a_regular_file_exits_3_in_one_line(self, tmp_path, capsys,
                                                              command, under):
        write_scene(tmp_path)
        (tmp_path / "afile").write_text("hello")
        store = tmp_path / "afile" / "store" if under else tmp_path / "afile"
        cfg = self.write_config(tmp_path, store=str(store))
        # split opens only a store that is there, and none is under a file
        why = "not found" if command == "split" and under else "Not a directory"
        assert main([command, "--config", cfg]) == 3
        assert capsys.readouterr().err == f"error[data]: store {store}: {why}\n"
        assert (tmp_path / "afile").read_text() == "hello"

    @pytest.mark.parametrize("command", ["split", "train", "evaluate", "predict"])
    def test_store_that_is_not_there_exits_3_leaving_the_path_absent(
            self, tmp_path, capsys, monkeypatch, command):
        cfg = self.write_config(tmp_path, store=str(tmp_path / "stor"))
        monkeypatch.chdir(tmp_path)
        assert main([command, "--config", cfg]) == 3
        assert capsys.readouterr().err == (
            f"error[data]: store {tmp_path / 'stor'}: not found\n")
        assert not (tmp_path / "stor").exists()

    @pytest.mark.parametrize("spec, input_hw, why", [
        ({"num_classes": CLASSES + 1}, (TILE, TILE),
         f"checkpoint predicts {CLASSES + 1} classes but the store labels carry {CLASSES}"),
        ({}, (TILE // 2, TILE // 2),
         f"checkpoint takes [C, H, W] input [{CHANNELS}, {TILE // 2}, {TILE // 2}] but "
         f"the store's samples are [{CHANNELS}, {TILE}, {TILE}]"),
        ({"in_channels": CHANNELS + 1}, (TILE, TILE),
         f"checkpoint takes [C, H, W] input [{CHANNELS + 1}, {TILE}, {TILE}] but "
         f"the store's samples are [{CHANNELS}, {TILE}, {TILE}]"),
    ], ids=["classes", "tile-size", "channels"])
    @pytest.mark.parametrize("command", ["evaluate", "predict"])
    def test_checkpoint_that_does_not_fit_the_store_exits_2_in_one_line(
            self, tmp_path, capsys, command, spec, input_hw, why):
        write_scene(tmp_path)
        cfg = self.write_config(tmp_path)
        assert main(["ingest", "--config", cfg]) == 0
        graph = build_topology(
            TopologySpec(**{"kind": "unet", "depth": 1, "base_channels": 4,
                            "in_channels": CHANNELS, "num_classes": CLASSES, **spec}),
            input_hw=input_hw, seed=1)
        checkpoint_save(graph, str(tmp_path / "other.ckpt"))
        out = tmp_path / "run"
        capsys.readouterr()
        assert main([command, "--config", cfg, "--out", str(out),
                     "--checkpoint", str(tmp_path / "other.ckpt")]) == 2
        assert capsys.readouterr().err == f"error[config]: config.{command}: {why}\n"
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("command", ["train", "evaluate", "predict"])
    def test_checkpoint_override_needs_the_section(self, tmp_path, capsys, command):
        cfg = self.write_config(tmp_path, **{command: DROP})
        assert main([command, "--config", cfg, "--checkpoint", "x.ckpt"]) == 2
        assert capsys.readouterr().err == (
            f"error[config]: config.{command}: section required for this command\n")

    def test_seed_override_reaches_the_split(self, tmp_path, capsys):
        write_scene(tmp_path)
        cfg = self.write_config(tmp_path)
        config = parse_config((tmp_path / "cfg.yaml").read_text(encoding="utf-8"))
        assert main(["ingest", "--config", cfg]) == 0

        def stored_folds():
            arr = Store(config.store).array(FOLD_ARRAY)
            return arr.read_region((0,), (4,)).tolist()

        assert main(["split", "--config", cfg, "--seed", "777"]) == 0
        from_cli = stored_folds()
        cmd_split(dataclasses.replace(config, seed=777))
        assert stored_folds() == from_cli
        assert Store(config.store).array(FOLD_ARRAY).attributes["seed"] == 777
        capsys.readouterr()

    def test_checkpoint_override(self, tmp_path, capsys):
        write_scene(tmp_path)
        cfg = self.write_config(tmp_path, train={"epochs": 1})
        out = tmp_path / "run"
        assert main(["ingest", "--config", cfg]) == 0
        assert main(["train", "--config", cfg, "--out", str(out),
                     "--checkpoint", "alt.ckpt"]) == 0
        assert (out / "alt.ckpt").exists()
        assert not (out / "model.ckpt").exists()
        capsys.readouterr()


class TestDeterminism:
    def run_everything(self, root):
        root.mkdir()
        write_scene(root)
        config = make_config(root)
        cmd_ingest(config)
        cmd_split(config)
        out = root / "run"
        cmd_train(config, out_dir=out)
        cmd_evaluate(config, out_dir=out)
        cmd_predict(config, out_dir=out)
        return [
            (out / name).read_bytes()
            for name in ("model.ckpt", "hist.json", "report.json", "mask.pgm")
        ]

    def test_two_runs_are_byte_identical(self, tmp_path):
        first = self.run_everything(tmp_path / "a")
        second = self.run_everything(tmp_path / "b")
        assert first == second


class TestWorkers:
    """The commands write the same bytes at 1, 2 and 3 processes, and a
    worker that dies ends one with exit 4 in one line."""

    def write(self, root, size=96):
        # 96 px at tile 16: 36 tiles, 2 blocks a week for the 4 px U-Net
        write_scene(root, height=size, width=size)
        cfg = root / "cfg.yaml"
        cfg.write_text(yaml.safe_dump(merged(base_doc(root), {
            "ingest": {"weeks": 2}, "train": {"batch_size": 4, "slice_timestamps": [0, 2]}})),
            encoding="utf-8")
        assert main(["ingest", "--config", str(cfg)]) == 0
        assert main(["split", "--config", str(cfg)]) == 0
        return str(cfg)

    def test_every_process_count_writes_the_same_files(self, tmp_path, capsys, monkeypatch):
        cfg = self.write(tmp_path)
        runs = []
        for procs in (1, 2, 3):
            monkeypatch.setattr(parallel, "usable_cores", lambda: procs)
            out = tmp_path / f"run{procs}"
            for command in ("train", "evaluate", "predict"):
                assert main([command, "--config", cfg, "--out", str(out)]) == 0
            with pytest.raises(ChildProcessError):
                os.waitpid(-1, os.WNOHANG)
            runs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert sorted(runs[0]) == ["hist.json", "hist.txt", "mask.json", "mask.pgm",
                                   "model.ckpt", "report.json", "report.txt"]
        assert runs[1] == runs[0] and runs[2] == runs[0]

    @pytest.mark.skipif(parallel._blas_threads() is None,
                        reason="the loaded BLAS's thread count cannot be set")
    @pytest.mark.parametrize("command, owner, name", [
        ("train", ops, "categorical_cross_entropy"),  # a training worker, mid-batch
        ("train", NetworkGraph, "infer"),  # a worker scoring a validation block
        ("evaluate", NetworkGraph, "infer")])
    def test_a_worker_that_dies_exits_4_in_one_line(self, tmp_path, capsys, monkeypatch,
                                                    command, owner, name):
        cfg = self.write(tmp_path)
        model = tmp_path / "model.ckpt"
        checkpoint_save(build_topology(make_config(tmp_path).train.topology,
                                       input_hw=(TILE, TILE)), str(model))
        monkeypatch.setattr(parallel, "usable_cores", lambda: 2)
        main_pid, fn = os.getpid(), getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *args: (
            os._exit(9) if os.getpid() != main_pid else fn(*args)))
        capsys.readouterr()
        out = tmp_path / "run"
        ckpt = out / "new.ckpt"
        assert main([command, "--config", cfg, "--out", str(out), "--checkpoint",
                     str(ckpt if command == "train" else model)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error[runtime]: worker process ") and err.count("\n") == 1
        assert "ended with exit code 9 before returning its result" in err
        assert "Traceback" not in err
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert not ckpt.exists() and not (out / "hist.json").exists()
        assert not (out / "report.txt").exists()
