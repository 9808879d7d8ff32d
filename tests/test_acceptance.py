"""Acceptance gate: one test per advertised guarantee of the package.

Each test prints a single PASS/FAIL line with its elapsed time (visible
with ``pytest tests/test_acceptance.py -s``) and enforces the guarantee's
tolerance and, where one is stated, its runtime budget.
"""

import time
from collections import defaultdict

import numpy as np
import yaml

from terraseg import ops, synth
from terraseg.catalog import CatalogQuery, build_catalog_query, tokenize_query
from terraseg.chunkstore import Store
from terraseg.config import OptimizerConfig, TrainSection, parse_config
from terraseg.datasplit import (
    SampleRecord,
    cross_validate,
    stratified_kfold_partition,
)
from terraseg.georaster import GeoRaster, mosaic, rasterize, tile, write_raster
from terraseg.graph import (
    ActivationLayer,
    Add,
    BatchNorm2d,
    ConcatCrop,
    Conv2d,
    Dropout,
    MaxPool2d,
    NetworkGraph,
    Softmax,
    TransposeConv2d,
    UnpoolWithIndices,
    grad_check,
)
from terraseg.metrics import ConfusionMatrix, dice, f1, jaccard, precision, recall
from terraseg.metrics import accuracy as cm_accuracy
from terraseg.optim import AdamState, adam_step
from terraseg.pipeline import cmd_evaluate, cmd_ingest, cmd_split, cmd_train
from terraseg.tensor import SeededRng
from terraseg.topologies import TopologySpec, build_topology
from terraseg.training import Sample, fit
from terraseg.wkt import WktGeometry


def criterion(label, budget_s, body):
    """Run one acceptance check, printing a PASS/FAIL line with timing."""
    start = time.perf_counter()
    try:
        body()
        elapsed = time.perf_counter() - start
        if budget_s is not None and elapsed >= budget_s:
            raise AssertionError(
                f"completed but took {elapsed:.2f}s (budget {budget_s:g}s)")
    except BaseException:
        print(f"FAIL  {label} ({time.perf_counter() - start:.2f}s)")
        raise
    if budget_s is None:
        print(f"PASS  {label} ({elapsed:.2f}s)")
    else:
        print(f"PASS  {label} ({elapsed:.2f}s, budget {budget_s:g}s)")


def test_metric_worked_examples():
    def body():
        # an all-positive classifier on 10000 positives and 1000 negatives
        cm = ConfusionMatrix(np.array([[10000, 0], [1000, 0]], dtype=np.int64))
        assert abs(cm_accuracy(cm) - 0.9091) <= 0.0001
        # 910 correct of 1000 positive predictions
        cm = ConfusionMatrix(np.array([[910, 0], [90, 0]], dtype=np.int64))
        assert precision(cm)[0] == 0.91
        # 940 recovered of 1000 positive pixels
        cm = ConfusionMatrix(np.array([[940, 60], [0, 0]], dtype=np.int64))
        assert recall(cm)[0] == 0.94

    criterion("01 metric worked examples", 1.0, body)


def test_f1_dice_identity_and_iou_relation():
    def body():
        rng = np.random.default_rng(20240229)
        counts = rng.integers(0, 1001, size=(10_000, 2, 2))
        for block in counts:
            cm = ConfusionMatrix(block.astype(np.int64))
            fv, dv, jv = f1(cm), dice(cm), jaccard(cm)
            assert np.array_equal(np.isnan(fv), np.isnan(dv))
            ok = ~np.isnan(fv)
            assert np.all(np.abs(fv[ok] - dv[ok]) <= 1e-12)
            ok = ~np.isnan(jv)
            assert np.all(jv[ok] <= dv[ok] + 1e-12)
            assert np.all(np.abs(dv[ok] - 2.0 * jv[ok] / (1.0 + jv[ok])) <= 1e-12)

    criterion("02 F1 is Dice; Dice = 2*IoU/(1+IoU)", 5.0, body)


def _finish(g, rng, in_ch):
    g.add("head", Conv2d(in_ch, 2, kernel=1, rng=rng))
    g.add("probs", Softmax())


def _primitive_graphs():
    """One tiny softmax-capped graph per layer primitive.

    A learnable 1x1 stem ahead of the primitive under test makes the
    finite-difference loss exercise the primitive's input gradient, not
    just its own parameters.
    """
    out = {}

    rng = SeededRng(31)
    g = NetworkGraph((2, 6, 6))
    g.add("stem", Conv2d(2, 2, kernel=1, rng=rng))
    g.add("conv", Conv2d(2, 3, kernel=3, padding=1, rng=rng))
    _finish(g, rng, 3)
    out["conv2d"] = g

    rng = SeededRng(32)
    g = NetworkGraph((2, 6, 6))
    g.add("stem", Conv2d(2, 2, kernel=1, rng=rng))
    g.add("conv", Conv2d(2, 3, kernel=2, stride=2, rng=rng))
    _finish(g, rng, 3)
    out["strided conv2d"] = g

    rng = SeededRng(33)
    g = NetworkGraph((2, 4, 4))
    g.add("stem", Conv2d(2, 2, kernel=1, rng=rng))
    g.add("up", TransposeConv2d(2, 3, kernel=2, stride=2, rng=rng))
    _finish(g, rng, 3)
    out["transpose conv2d"] = g

    rng = SeededRng(34)
    g = NetworkGraph((2, 6, 6))
    g.add("stem", Conv2d(2, 2, kernel=1, rng=rng))
    g.add("pool", MaxPool2d(2, 2))
    _finish(g, rng, 2)
    out["max pool"] = g

    rng = SeededRng(35)
    g = NetworkGraph((2, 6, 6))
    g.add("stem", Conv2d(2, 2, kernel=1, rng=rng))
    g.add("pool", MaxPool2d(2, 2))
    g.add("up", UnpoolWithIndices("pool"))
    _finish(g, rng, 2)
    out["unpool"] = g

    rng = SeededRng(36)
    g = NetworkGraph((2, 6, 6))
    g.add("stem", Conv2d(2, 2, kernel=1, rng=rng))
    g.add("bn", BatchNorm2d(2))
    _finish(g, rng, 2)
    out["batch norm"] = g

    rng = SeededRng(37)
    g = NetworkGraph((2, 6, 6))
    g.add("stem", Conv2d(2, 2, kernel=1, rng=rng))
    g.add("drop", Dropout(0.3))
    _finish(g, rng, 2)
    out["dropout"] = g

    kinds = (ops.SIGMOID, ops.TANH, ops.ELU, ops.RELU, ops.LEAKY_RELU)
    for i, kind in enumerate(kinds):
        rng = SeededRng(40 + i)
        g = NetworkGraph((2, 6, 6))
        g.add("stem", Conv2d(2, 2, kernel=1, rng=rng))
        g.add("act", ActivationLayer(kind))
        _finish(g, rng, 2)
        out[f"activation {kind.name}"] = g

    rng = SeededRng(50)
    g = NetworkGraph((2, 6, 6))
    g.add("stem", Conv2d(2, 2, kernel=1, rng=rng))
    g.add("pool", MaxPool2d(2, 2))
    g.add("cat", ConcatCrop(), inputs=["pool", "stem"])
    _finish(g, rng, 4)
    out["concat crop"] = g

    rng = SeededRng(51)
    g = NetworkGraph((2, 6, 6))
    g.add("stem", Conv2d(2, 2, kernel=1, rng=rng))
    g.add("a", Conv2d(2, 3, kernel=1, rng=rng), inputs=["stem"])
    g.add("b", Conv2d(2, 3, kernel=1, rng=rng), inputs=["stem"])
    g.add("sum", Add(), inputs=["a", "b"])
    _finish(g, rng, 3)
    out["add"] = g

    return out


def _input_and_target(graph, seed):
    rng = SeededRng(seed)
    x = rng.uniform(-1.0, 1.0, graph.input_shape)
    c, h, w = graph.shape_of(graph.output_name)
    labels = ((np.arange(h * w).reshape(h, w) + seed) % c).astype(np.uint8)
    return x, labels


def _softmax_direct_check():
    """Finite-difference check of the standalone softmax jacobian product."""
    rng = np.random.default_rng(12)
    x = rng.uniform(-1.0, 1.0, (3, 5))
    gy = rng.uniform(-1.0, 1.0, (3, 5))
    y = ops.softmax(x, axis=0)
    analytic = ops.softmax_backward(gy, y, axis=0)
    step = 1e-5
    worst = 0.0
    for i in range(x.size):
        xp, xm = x.copy(), x.copy()
        xp.flat[i] += step
        xm.flat[i] -= step
        lp = float((gy * ops.softmax(xp, axis=0)).sum())
        lm = float((gy * ops.softmax(xm, axis=0)).sum())
        num = (lp - lm) / (2.0 * step)
        a = analytic.flat[i]
        worst = max(worst, abs(a - num) / max(abs(a), abs(num), 1e-6))
    assert worst <= 1e-4, f"softmax jacobian: {worst}"


def test_gradient_checks():
    def body():
        for label, g in _primitive_graphs().items():
            x, target = _input_and_target(g, seed=7)
            err = grad_check(g, x, target)
            assert err <= 1e-4, f"{label}: max relative error {err}"
        _softmax_direct_check()
        for kind in ("unet", "segnet", "resunet"):
            for depth in (1, 2):
                spec = TopologySpec(kind=kind, depth=depth, base_channels=2,
                                    in_channels=2, num_classes=2,
                                    activation=ops.ELU)
                g = build_topology(spec, input_hw=(8, 8), seed=97)
                x, target = _input_and_target(g, seed=8)
                err = grad_check(g, x, target)
                assert err <= 1e-4, f"{kind} depth {depth}: {err}"

    criterion("03 gradient checks (primitives + builders)", 120.0, body)


def test_pool_unpool_contract():
    def body():
        rng = SeededRng(404)
        shapes = [(1, 8, 8), (2, 6, 6), (3, 4, 4), (2, 12, 8)]
        for i in range(1000):
            shape = shapes[i % len(shapes)]
            x = rng.uniform(0.5, 1.5, shape)
            pooled, idx = ops.max_pool2d(x, 2, 2)
            up = ops.unpool_with_indices(pooled, idx)
            flat = up.reshape(-1)
            nonzero = np.flatnonzero(flat)
            assert np.array_equal(np.sort(idx.indices.reshape(-1)), nonzero)
            assert np.array_equal(np.sort(flat[nonzero]),
                                  np.sort(pooled.reshape(-1)))
            total = pooled.sum()
            assert abs(flat.sum() - total) <= 1e-12 * max(1.0, abs(total))

    criterion("04 pool/unpool index contract", 10.0, body)


def test_adam_first_step():
    def body():
        params = np.array([0.5])
        grads = np.array([1.0])
        adam_step(AdamState(), params, grads)
        assert abs((params[0] - 0.5) - (-0.0009999999)) <= 1e-12

    criterion("05 adam first-step value", None, body)


def test_stratified_kfold_balance():
    def body():
        rng = np.random.default_rng(99)
        records = [
            SampleRecord(i, frozenset(c for c in range(5) if rng.random() < 0.4))
            for i in range(200)
        ]
        k = 5
        first = stratified_kfold_partition(records, k, seed=31)
        totals = defaultdict(int)
        for r in records:
            for c in r.labels:
                totals[c] += 1
        for fold in range(k):
            members = set(first.members(fold))
            for c in range(5):
                count = sum(1 for r in records
                            if r.id in members and c in r.labels)
                assert abs(count - totals[c] / k) <= 1.0 + 1e-9, (fold, c)
        everyone = sorted(i for fold in range(k) for i in first.members(fold))
        assert everyone == list(range(200))
        second = stratified_kfold_partition(records, k, seed=31)
        assert [first.fold_of(i) for i in range(200)] == \
            [second.fold_of(i) for i in range(200)]

    criterion("06 stratified k-fold balance", 1.0, body)


def test_cross_validation_accounting():
    def body():
        dataset = [f"s{i}" for i in range(6)]
        queue = [0.2, 0.4, 0.1, 0.3]
        validated = defaultdict(list)

        def train_fn(theta, train_items, val_items, seed):
            assert set(train_items).isdisjoint(val_items)
            validated[theta].extend(val_items)
            return queue.pop(0)

        result = cross_validate(train_fn, dataset, k=2, seed=5,
                                hyper_grid=["a", "b"])
        assert result.score == 0.5
        assert not queue
        for theta in ("a", "b"):
            assert sorted(validated[theta]) == sorted(dataset)

    criterion("07 cross-validation accounting", None, body)


def test_rasterizer_equivalence():
    def oracle(shapes, width, height, gt, nodata=255):
        out = np.full((height, width), nodata, dtype=np.uint8)
        for value, geom in shapes:
            edges = [(x1, y1, x2, y2)
                     for ring in geom.rings
                     for (x1, y1), (x2, y2) in zip(ring, ring[1:])]
            for row in range(height):
                y = gt[3] + (row + 0.5) * gt[5]
                for col in range(width):
                    x = gt[0] + (col + 0.5) * gt[1]
                    hits = 0
                    for x1, y1, x2, y2 in edges:
                        if (y1 > y) != (y2 > y):
                            if x1 + (y - y1) * (x2 - x1) / (y2 - y1) > x:
                                hits += 1
                    if hits % 2:
                        out[row, col] = value
        return out

    def random_polygon(rng, width, height, gt):
        n = int(rng.integers(3, 9))
        xs = gt[0] + rng.uniform(-2, width + 2, n) * gt[1]
        ys = gt[3] + rng.uniform(-2, height + 2, n) * gt[5]
        ring = tuple(zip(xs, ys)) + ((xs[0], ys[0]),)
        return WktGeometry("POLYGON", (ring,))

    def body():
        rng = np.random.default_rng(2024)
        for trial in range(50):
            width = int(rng.integers(8, 65))
            height = int(rng.integers(8, 65))
            gt = (float(rng.uniform(-100, 100)), float(rng.uniform(0.5, 3.0)),
                  0.0, float(rng.uniform(-100, 100)), 0.0,
                  -float(rng.uniform(0.5, 3.0)))
            count = 2 if trial % 5 == 0 else 1
            shapes = [(1 + int(rng.integers(0, 9)),
                       random_polygon(rng, width, height, gt))
                      for _ in range(count)]
            burned = rasterize(shapes, width, height, gt)
            assert np.array_equal(burned.data[0],
                                  oracle(shapes, width, height, gt)), trial

    criterion("08 rasterizer vs pixel-center oracle", 30.0, body)


def test_round_trips(tmp_path):
    def body():
        rng = np.random.default_rng(17)
        gt = (500.0, 10.0, 0.0, 800.0, 0.0, -10.0)
        for shape in ((3, 37, 53), (1, 7, 13), (4, 32, 32)):
            data = rng.uniform(0.0, 1.0, size=shape).astype(np.float32)
            r = GeoRaster(data, gt, "EPSG:32633", 0.0)
            grid, tiles = tile(r, 16)
            back = mosaic(grid, tiles)
            assert back.data.dtype == r.data.dtype
            assert back.data.tobytes() == r.data.tobytes()

        store = Store(str(tmp_path / "rt_store"))
        cases = [
            ("a/raw64", "f64", (7, 13), (4, 5)),
            ("a/z32", "f32", (20, 20, 3), (8, 8, 2)),
            ("a/zu16", "u16", (9,), (4,)),
        ]
        payloads = {}
        for path, dt, shape, chunks in cases:
            if dt == "u16":
                data = rng.integers(0, 65536, size=shape).astype(np.uint16)
            else:
                data = rng.uniform(-1.0, 1.0, size=shape).astype(
                    np.float64 if dt == "f64" else np.float32)
            arr = store.create_array(path, list(shape), list(chunks), dt)
            arr.write_region((0,) * len(shape), data)
            payloads[path] = (shape, data)
        reopened = Store(str(tmp_path / "rt_store"))
        for path, (shape, data) in payloads.items():
            got = reopened.array(path).read_region((0,) * len(shape), shape)
            assert got.dtype == data.dtype
            assert got.tobytes() == data.tobytes()

    criterion("09 tile/mosaic + store round trips", 30.0, body)


def test_overfit_one_tile():
    def body():
        image, labels = synth.make_tile(seed=3, size=32, channels=4,
                                        num_classes=4)
        sample = Sample(image, labels)
        spec = TopologySpec(kind="unet", depth=2, base_channels=8,
                            in_channels=4, num_classes=4, activation=ops.ELU)

        def run():
            graph = build_topology(spec, input_hw=(32, 32), seed=11)
            # patiences of ``epochs`` never fire
            train = TrainSection(epochs=200, monitor="train_loss",
                                 early_stop_patience=200, plateau_patience=200,
                                 optimizer=OptimizerConfig(lr=0.01))
            return fit(graph, [sample], train, seed=11)

        first = run()
        hits = [r for r in first.records
                if r["train_loss"] < 0.05 and r["MIoU"] > 0.95]
        assert hits, "never reached loss < 0.05 with MIoU > 0.95 in 200 epochs"
        second = run()
        assert second.records == first.records

    criterion("10 overfit one tile", 300.0, body)


def test_catalog_query_tokens():
    reference = """https://scihub.copernicus.eu/dhus/api/stub/products
?filter=(
beginPosition:[2018-06-01T00:00:00.000Z TO 2018-09-01T23:59:59.999Z] AND
endPosition:[2018-06-01T00:00:00.000Z TO 2018-09-01T23:59:59.999Z]) AND
((platformname:Sentinel-3 AND filename:S3B_* AND
 producttype:OL_1_EFR___ AND instrumentshortname:OLCI))
AND footprint: Intersects
               (POLYGON((16.58910503349143 43.400842665330345,
                         26.95841113834191 43.400842665330345,
                         26.95841113834191 49.09541206485471,
                         16.58910503349143 49.09541206485471,
                         16.58910503349143 43.400842665330345)))
&offset=0&limit=25&sortedby=ingestiondate&order=desc"""

    def body():
        ring = ((16.58910503349143, 43.400842665330345),
                (26.95841113834191, 43.400842665330345),
                (26.95841113834191, 49.09541206485471),
                (16.58910503349143, 49.09541206485471),
                (16.58910503349143, 43.400842665330345))
        url = build_catalog_query(CatalogQuery(
            begin="2018-06-01T00:00:00.000Z",
            end="2018-09-01T23:59:59.999Z",
            platform_name="Sentinel-3",
            filename="S3B_*",
            product_type="OL_1_EFR___",
            instrument="OLCI",
            footprint=WktGeometry("POLYGON", (ring,))))
        assert tokenize_query(url) == tokenize_query(reference)

    criterion("11 catalog query token equality", None, body)


def _pipeline_run(root):
    root.mkdir()
    data, labels, gt = synth.make_scene(7, height=32, width=32, channels=3,
                                        num_classes=3, block=16)
    write_raster(GeoRaster(data, gt, "EPSG:32633", -1.0), str(root / "image"))
    shapes = synth.scene_label_shapes(32, 32, 3, 16, gt)
    (root / "labels.json").write_text(synth.shapes_to_json(shapes),
                                      encoding="utf-8")
    doc = {
        "seed": 99,
        "store": str(root / "store"),
        "ingest": {"image": str(root / "image"),
                   "labels": str(root / "labels.json"),
                   "num_classes": 3, "tile_size": 16},
        "split": {"k": 2},
        "train": {"topology": {"kind": "unet", "depth": 1, "base_channels": 4,
                               "in_channels": 3, "num_classes": 3,
                               "activation": "elu"},
                  "optimizer": {"kind": "adam", "lr": 0.01},
                  "epochs": 2, "checkpoint": "model.ckpt",
                  "history": "history"},
        "evaluate": {},
    }
    config = parse_config(yaml.safe_dump(doc))
    out = root / "run"
    cmd_ingest(config)
    cmd_split(config)
    cmd_train(config, out_dir=out)
    cmd_evaluate(config, out_dir=out)
    files = {}
    for base in (root / "store", out):
        for p in sorted(base.rglob("*")):
            if p.is_file():
                files[str(p.relative_to(root))] = p.read_bytes()
    return files


def test_end_to_end_determinism(tmp_path):
    def body():
        first = _pipeline_run(tmp_path / "a")
        second = _pipeline_run(tmp_path / "b")
        assert sorted(first) == sorted(second)
        for name in first:
            assert first[name] == second[name], f"{name} differs between runs"

    criterion("12 end-to-end determinism", None, body)
