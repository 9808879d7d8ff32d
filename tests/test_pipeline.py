"""End-to-end runs of the pipeline commands and the CLI wrapper.

Everything here operates on a tiny synthetic scene: 32x32 pixels, 3
channels, 3 classes laid out in 16-pixel quadrant blocks, tiled at 16 so
the store holds a 2x2 tile grid. Small topologies and epoch counts keep
the training steps cheap.
"""

import dataclasses
import json

import numpy as np
import pytest
import yaml

from terraseg import synth
from terraseg.catalog import BASE_URL, CatalogQuery, build_catalog_query
from terraseg.checkpoint import checkpoint_save
from terraseg.chunkstore import Store
from terraseg.cli import main
from terraseg.config import parse_config
from terraseg.errors import ConfigError, DataError, ParameterError
from terraseg.georaster import GeoRaster, read_pgm, read_raster, write_raster
from terraseg.metrics import REPORT_KEYS
from terraseg.pipeline import (
    COARSE_ARRAY,
    FOLD_ARRAY,
    IMAGE_ARRAY,
    LABEL_ARRAY,
    MASK_ARRAY,
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


def write_scene(root, seed=11):
    """Image raster plus label JSON under root; returns (labels, geotransform)."""
    data, labels, gt = synth.make_scene(
        seed, height=SIZE, width=SIZE, channels=CHANNELS,
        num_classes=CLASSES, block=TILE)
    write_raster(GeoRaster(data, gt, CRS, -9999.0), str(root / "image"))
    shapes = synth.scene_label_shapes(SIZE, SIZE, CLASSES, TILE, gt)
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
        with pytest.raises(ParameterError, match="k=5"):
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
        bad = make_config(root, train={"topology": {"num_classes": 4}})
        with pytest.raises(ConfigError, match="num_classes"):
            cmd_train(bad, out_dir=root)

    def test_requires_train_section(self, ingested):
        root, labels, gt, config = ingested
        with pytest.raises(ConfigError, match="config.train"):
            cmd_train(make_config(root, train=DROP), out_dir=root)

    def test_slice_outside_the_store(self, ingested):
        root, labels, gt, config = ingested
        bad = make_config(root, train={"slice_timestamps": [0, 2]})
        with pytest.raises(ParameterError, match="slice_timestamps"):
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
        with pytest.raises(DataError, match="fold 7"):
            cmd_evaluate(make_config(root, evaluate={"fold": 7}), out_dir=out)

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
        r = read_pgm(str(base))
        assert r.data.shape == (1, SIZE, SIZE)
        assert r.geotransform == tuple(
            Store(config.store).array(IMAGE_ARRAY).attributes["geotransform"])
        assert r.data.max() < CLASSES

    def test_ignored_pixels_become_255(self, scene):
        root, labels, gt = scene
        write_scl(root, gt, synth.make_scl(SIZE, SIZE, cloud_rows=4,
                                           cloud_cols=4))
        config = make_config(root, ingest={"scl": str(root / "scl")},
                             train={"epochs": 1})
        cmd_ingest(config)
        out = root / "run"
        cmd_train(config, out_dir=out)
        base = cmd_predict(config, out_dir=out)
        r = read_pgm(str(base))
        assert (r.data[0, :4, :4] == 255).all()
        assert (r.data[0, 8:, 8:] < CLASSES).all()

    def test_preview_ppm(self, trained):
        root, config, out, history = trained
        config = make_config(root, predict={"out": "mask", "preview": True})
        base = cmd_predict(config, out_dir=out)
        blob = (out / "mask_preview.ppm").read_bytes()
        assert blob.startswith(b"P6")

    def test_week_out_of_range(self, trained):
        root, config, out, history = trained
        bad = make_config(root, predict={"week": 3})
        with pytest.raises(ParameterError, match="week 3"):
            cmd_predict(bad, out_dir=out)


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

    def test_missing_config_file_exits_2(self, tmp_path, capsys):
        code = main(["split", "--config", str(tmp_path / "absent.yaml")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error[config]: ")

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

    def test_parameter_error_exits_4(self, tmp_path, capsys):
        write_scene(tmp_path)
        cfg = self.write_config(tmp_path, split={"k": 9})
        assert main(["ingest", "--config", cfg]) == 0
        assert main(["split", "--config", cfg]) == 4
        assert capsys.readouterr().err.startswith("error[runtime]: ")

    @pytest.mark.parametrize("train, where", [
        ({"topology": {"depth": 0}}, "config.train.topology: depth"),
        ({"topology": {"alpha": -1.0}}, "config.train.topology.activation: elu"),
        ({"target": "Labels/CLC_10m/labels"}, "config.train.target: unknown key"),
    ])
    def test_bad_train_values_exit_2(self, tmp_path, capsys, train, where):
        cfg = self.write_config(tmp_path, train=train)
        assert main(["train", "--config", cfg]) == 2
        assert capsys.readouterr().err.startswith(f"error[config]: {where}")

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
