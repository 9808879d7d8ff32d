"""Command implementations behind the CLI: ingest, split, train, evaluate,
predict, query.

Store layout written by ingest (under the configured base group). Every
tiled array holds one row of tiles per chunk; Sentinel-3 only when
``ingest.coarse_image`` is set:

    array                           dtype, shape                     chunk
    Sentinel-2/MSI/10m              f32 [weeks, ty, tx, th, tw, ch]  [1, 1, tx, th, tw, ch]
    Sentinel-2/MSI/ignore_masks     u8  [weeks, ty, tx, th, tw]      [1, 1, tx, th, tw]
    Sentinel-3/OLCI/300m            f32 [weeks, ty, tx, hc, wc, cc]  [1, 1, tx, hc, wc, cc]
    Labels/CLC_10m/labels           u8  [ty, tx, th, tw]             [1, tx, th, tw]
    Labels/CLC_10m/multilabel_stratified_kfolds   i32 [ty*tx]        [ty*tx]

Train, evaluate and predict read tiles through one reader,
``_SampleSource.samples``, as ``(tile index, Sample)`` pairs. Samples
concatenate the configured input components channel-wise; coarser
components are nearest-neighbor upsampled to the label tile size. Sample
ignore masks are the union of the stored (cloud) mask and label-nodata
pixels; predict reads no labels, and writes 255 where the stored mask is
set. Relative output paths resolve against ``out_dir``; each command makes
their directories, and refuses a directory where one of its files goes,
before its work (training, inference).

Samples hold the store's float32 images and u8 class labels, label-nodata
pixels as class 0 under the ignore mask. Every graph the commands make
(built by train, loaded by evaluate and predict) is converted to
``ENGINE_DTYPE``, float32. Checkpoints store float64, which holds every
float32 value exactly.

Train steps one tile [C, H, W] at a time; evaluate, predict and train's
validation infer blocks of tiles on one pool of workers per command
(``training._infer_tiles``), which send back counts, losses or u8 planes.
"""

from __future__ import annotations

import dataclasses
import json
import logging
from contextlib import closing
from pathlib import Path

import numpy as np

from .catalog import build_catalog_query
from .checkpoint import checkpoint_load
from .chunkstore import Store, write_regions
from .config import PipelineConfig, TrainSection
from .datasplit import (
    SampleRecord,
    fold_manifest,
    presence_labels,
    stratified_kfold_partition,
)
from .errors import ConfigError, DataError, StoreNotFoundError, WktParseError, read_json
from .errors import write_output
from .georaster import (
    DTYPE_CODES,
    GeoRaster,
    TileGrid,
    mosaic,
    rasterize,
    read_raster,
    scl_to_ignore_mask,
    tile,
    write_pgm,
    write_ppm,
)
from .metrics import ConfusionMatrix, render_report, report, report_json
from .tensor import mix_seed
from .topologies import build_topology
from .training import History, Sample, _infer_tiles, fit
from .wkt import parse_wkt

log = logging.getLogger("terraseg")

IMAGE_ARRAY = "Sentinel-2/MSI/10m"
MASK_ARRAY = "Sentinel-2/MSI/ignore_masks"
COARSE_ARRAY = "Sentinel-3/OLCI/300m"
LABEL_ARRAY = "Labels/CLC_10m/labels"
FOLD_ARRAY = "Labels/CLC_10m/multilabel_stratified_kfolds"

# the dtype train, evaluate and predict run their graphs in
ENGINE_DTYPE = np.float32

__all__ = [
    "IMAGE_ARRAY", "MASK_ARRAY", "COARSE_ARRAY", "LABEL_ARRAY", "FOLD_ARRAY",
    "cmd_ingest", "cmd_split", "cmd_train", "cmd_evaluate", "cmd_predict",
    "cmd_query",
]


def _node(config: PipelineConfig, rel: str) -> str:
    return f"{config.base_group}/{rel}" if config.base_group else rel


def _section(config: PipelineConfig, name: str):
    section = getattr(config, name)
    if section is None:
        raise ConfigError(f"config.{name}: section required for this command")
    return section


def _resolve(path: str, out_dir) -> Path:
    p = Path(path)
    return p if p.is_absolute() else Path(out_dir) / p


def _output_path(path: str, out_dir, what: str, files=lambda p: [p]) -> Path:
    """``path`` resolved against ``out_dir``, its parent directory made now.
    An OSError (an ancestor is a regular file), or a directory at one of the
    ``files(path)`` the command writes, becomes one DataError."""
    p = _resolve(path, out_dir)
    try:
        p.parent.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise DataError(f"{what} {p}: {exc.filename}: {exc.strerror}") from None
    for f in files(p):
        if f.is_dir():
            raise DataError(f"{what} {f}: is a directory")
    return p


def _txt_json(base: Path) -> list[Path]:
    return [base.with_suffix(".txt"), base.with_suffix(".json")]


def _load_label_shapes(path: str, num_classes: int, class_map) -> list:
    doc = read_json(path, "label file")
    if not isinstance(doc, list):
        raise DataError(f"label file {path} must hold a JSON list")
    remap = dict(class_map) if class_map is not None else None
    shapes = []
    for i, entry in enumerate(doc):
        where = f"label file {path}: entry {i}"
        if not (isinstance(entry, dict) and "class" in entry
                and isinstance(entry.get("wkt"), str)):
            raise DataError(f"{where} needs a 'class' and a 'wkt' string")
        code = entry["class"]
        if isinstance(code, bool) or not isinstance(code, int):  # True is an int too
            raise DataError(f"{where}: class {json.dumps(code)} is not an integer")
        if remap is not None:
            if code not in remap:
                raise DataError(f"{where}: class code {code} not in class_map")
            code = remap[code]
        if not 0 <= code < num_classes:
            raise DataError(f"{where}: class index {code} outside [0, {num_classes})")
        try:
            shapes.append((code, parse_wkt(entry["wkt"])))
        except WktParseError as exc:
            raise DataError(f"{where}: {exc}") from None
    return shapes


def cmd_ingest(config: PipelineConfig) -> Store:
    """Rasterize labels, tile everything, and (re)write the store arrays.
    Phase one reads and checks every input, rasterizes and tiles before the
    store opens, so a failed check changes no store and makes none. Phase two
    removes the old arrays with one ``Store.remove``, which deletes none while
    another holds one's lock, declares each array with one ``create_array``,
    then writes them all with one ``write_regions``, whose chunks are shared
    over the usable cores."""
    ing = _section(config, "ingest")
    raster = read_raster(ing.image)
    if raster.geotransform[2] or raster.geotransform[4]:
        raise DataError(f"raster sidecar {ing.image}.json: geotransform "
                        f"{list(raster.geotransform)} is rotated, which ingest cannot tile")
    shapes = _load_label_shapes(ing.labels, ing.num_classes, ing.class_map)
    label_raster = rasterize(shapes, raster.width, raster.height, raster.geotransform,
                             raster.crs, nodata=ing.label_nodata)
    if (label_raster.data == ing.label_nodata).all():
        raise DataError(f"label file {ing.labels} labels no pixel of the image")
    if ing.scl is not None:
        scl = read_raster(ing.scl)
        for what, got, want in [("band count", scl.channels, 1), ("crs", scl.crs, raster.crs),
                                ("geotransform", scl.geotransform, raster.geotransform),
                                ("extent", scl.data.shape[1:], raster.data.shape[1:])]:
            if got != want:
                raise DataError(f"raster sidecar {ing.scl}.json: {what} {got} does not "
                                f"match the image's SCL {what}, {want}")
        mask = scl_to_ignore_mask(scl, ing.cloud_classes).data
    else:
        mask = np.zeros((1, raster.height, raster.width), dtype=np.uint8)
    # pad value 1 marks synthetic edge pixels as ignored
    mask_raster = GeoRaster(mask, raster.geotransform, raster.crs, 1.0)
    # blocks [ty, tx, C, ts, ts], views of the scene unless edge tiles are padded
    _, img_blocks = tile(raster, ing.tile_size)
    _, lbl_blocks = tile(label_raster, ing.tile_size)
    _, mask_blocks = tile(mask_raster, ing.tile_size)
    nty, ntx, _, ts, _ = img_blocks.shape
    geo_attrs = {"geotransform": list(raster.geotransform), "crs": raster.crs,
                 "scene_height": raster.height, "scene_width": raster.width, "tile_size": ts}
    # (array, tiles [ty, tx, ...], dtype, attributes), one row of tiles per chunk
    arrays = [
        (LABEL_ARRAY, lbl_blocks[:, :, 0], "u8",
         {**geo_attrs, "num_classes": ing.num_classes, "label_nodata": ing.label_nodata}),
        (IMAGE_ARRAY, img_blocks.transpose(0, 1, 3, 4, 2), "f32",
         {**geo_attrs, "weeks": ing.weeks, "nodata": raster.nodata}),
        (MASK_ARRAY, mask_blocks[:, :, 0], "u8", None),
    ]
    if ing.coarse_image is not None:
        coarse = read_raster(ing.coarse_image)
        if coarse.crs != raster.crs:
            raise DataError(f"coarse crs {coarse.crs!r} != image crs {raster.crs!r}")
        if coarse.height % nty or coarse.width % ntx:
            raise DataError(f"coarse extent {coarse.height}x{coarse.width} does not "
                            f"divide into the {nty}x{ntx} tile grid")
        # unrotated, each edge within half an image pixel of the tile grid's
        x0, dx, _, y0, _, dy = raster.geotransform
        cx0, cdx, crx, cy0, cry, cdy = coarse.geotransform
        grid = (x0, y0, x0 + ntx * ts * dx, y0 + nty * ts * dy)
        got = (cx0, cy0, cx0 + coarse.width * cdx, cy0 + coarse.height * cdy)
        if crx or cry or any(abs(g - c) > abs(d) / 2 for g, c, d in zip(grid, got, (dx, dy) * 2)):
            rotated = ", rotated" if crx or cry else ""
            raise DataError(f"coarse footprint (x0, y0, x1, y1) {got}{rotated} is not the "
                            f"tile grid's {grid}")
        blocks = coarse.data.reshape(coarse.channels, nty, coarse.height // nty,
                                     ntx, coarse.width // ntx)
        arrays.append((COARSE_ARRAY, blocks.transpose(1, 3, 2, 4, 0), "f32",
                       {"crs": coarse.crs, "geotransform": list(coarse.geotransform)}))

    store = Store(config.store)
    store.remove(*(_node(config, rel) for rel in
                   (IMAGE_ARRAY, MASK_ARRAY, COARSE_ARRAY, LABEL_ARRAY, FOLD_ARRAY)))
    regions = []
    for rel, tiles, dtype, attributes in arrays:
        # cast before the week axis goes on, so a cast copies one scene, not every week
        tiles, chunks = tiles.astype(DTYPE_CODES[dtype], copy=False), (1,) + tiles.shape[1:]
        if rel != LABEL_ARRAY:  # a weekly array holds the one scene every week
            tiles, chunks = np.broadcast_to(tiles, (ing.weeks,) + tiles.shape), (1,) + chunks
        arr = store.create_array(_node(config, rel), tiles.shape, chunks, dtype, attributes)
        regions.append((arr, (0,) * tiles.ndim, tiles))
    write_regions(regions)
    log.info("ingested %dx%d tiles of %d into %s", nty, ntx, ts, config.store)
    return store


def _ingested_store(config: PipelineConfig) -> Store:
    """The store at ``config.store``, which split, train, evaluate and
    predict only read from or add to: a path that is not there raises,
    instead of becoming an empty store."""
    if not Path(config.store).exists():
        raise StoreNotFoundError(f"store {config.store}: not found")
    return Store(config.store)


def cmd_split(config: PipelineConfig):
    """Stratified fold assignment over label tiles, persisted in the store."""
    sp = _section(config, "split")
    store = _ingested_store(config)
    lbl = store.array(_node(config, LABEL_ARRAY))
    nty, ntx, th, tw = lbl.shape
    nodata = lbl.attributes.get("label_nodata", 255)
    planes = lbl.read_region((0, 0, 0, 0), lbl.shape).reshape(nty * ntx, th, tw)
    records = [SampleRecord(i, presence_labels(plane, sp.min_pixels, ignore_value=nodata))
               for i, plane in enumerate(planes)]
    if sp.k > len(records):  # config.split checks k >= 2
        raise DataError(f"config.split.k: {sp.k} exceeds the {len(records)} stored tiles")
    assignment = stratified_kfold_partition(records, sp.k, mix_seed(config.seed, "split"))
    store.remove(_node(config, FOLD_ARRAY))
    n = len(records)
    arr = store.create_array(
        _node(config, FOLD_ARRAY), [n], [n], "i32",
        attributes=fold_manifest(assignment, records, config.seed))
    arr.write_region((0,), np.array([assignment.fold_of(i) for i in range(n)], np.int32))
    log.info("assigned %d tiles to %d folds", n, sp.k)
    return assignment


class _SampleSource:
    """The one reader of an ingested store's tiles for train, evaluate and
    predict. It reads one week block at a time: one ``read_region`` per input
    array and one for the mask per week, and the labels once (predict reads
    none). An input or mask array of the wrong kind raises a DataError."""

    def __init__(self, config: PipelineConfig, store: Store, train: TrainSection):
        self.labels = store.array(_node(config, LABEL_ARRAY))
        self.nty, self.ntx, self.th, self.tw = self.labels.shape
        attrs = self.labels.attributes
        self.num_classes = int(attrs["num_classes"])
        self.nodata = int(attrs.get("label_nodata", 255))
        self.inputs = [store.array(_node(config, comp)) for comp in train.inputs]
        self.weeks = self.inputs[0].shape[0]
        for i, (comp, arr) in enumerate(zip(train.inputs, self.inputs)):
            s = arr.shape
            if (len(s) != 6 or s[:3] != (self.weeks, self.nty, self.ntx)
                    or self.th % s[3] or self.tw % s[4]):
                raise DataError(
                    f"config.train.inputs[{i}]: store array {comp} has shape {list(s)}, not "
                    f"[weeks, ty, tx, h, w, c] with the weeks of inputs[0], the "
                    f"{self.nty}x{self.ntx} label grid and h, w dividing the "
                    f"{self.th}x{self.tw} label tile")
        self.channels = sum(a.shape[5] for a in self.inputs)
        self.masks = None
        if train.masks is not None:
            self.masks = store.array(_node(config, train.masks))
            want = [self.weeks, self.nty, self.ntx, self.th, self.tw]
            if list(self.masks.shape) != want:
                raise DataError(
                    f"config.train.masks: store array {train.masks} has shape "
                    f"{list(self.masks.shape)}, not the [weeks, ty, tx, th, tw] mask {want}")

    def week_range(self, lo: int, hi: int) -> range:
        """Weeks ``lo`` to ``hi``; ``TrainSection`` checks 0 <= lo < hi."""
        if hi > self.weeks:
            raise DataError(f"config.train.slice_timestamps: [{lo}, {hi}) outside the "
                            f"{self.weeks}-week store")
        return range(lo, hi)

    def samples(self, weeks, keep=None, _unlabelled=False):
        """Yield (tile index, Sample) over ``weeks`` in (week, tile) C order,
        skipping tiles where ``keep`` (bool per tile) is false or every pixel
        is ignored. An image is a view of its week block in the stored dtype,
        coarser inputs nearest-upsampled. ``_unlabelled`` (predict) reads no
        labels: its samples carry none and ignore the stored mask alone."""
        n = self.nty * self.ntx
        labels, nodata = [None] * n, np.zeros((n, self.th, self.tw), bool)
        if not _unlabelled:
            labels = self.labels.read_region((0,) * 4, self.labels.shape).reshape(nodata.shape)
            nodata = labels == self.nodata
            labels = np.where(nodata, 0, labels)
        for w in weeks:
            planes = []
            for arr in self.inputs:
                _, _, _, h, wd, c = arr.shape
                block = arr.read_region((w, 0, 0, 0, 0, 0), (1,) + arr.shape[1:])
                block = block.reshape(n, h, wd, c).transpose(0, 3, 1, 2)
                if (h, wd) != (self.th, self.tw):
                    block = block.repeat(self.th // h, axis=2).repeat(self.tw // wd, axis=3)
                planes.append(block)
            images = planes[0] if len(planes) == 1 else np.concatenate(planes, axis=1)
            masks = nodata
            if self.masks is not None:
                mask = self.masks.read_region((w, 0, 0, 0, 0), (1,) + self.masks.shape[1:])
                masks = (mask.reshape(nodata.shape) != 0) | nodata
            full = masks.all(axis=(1, 2))
            for i, mask in enumerate(masks):
                if keep is not None and not keep[i]:
                    continue
                if full[i]:
                    log.info("skipping fully ignored tile %d of week %d", i, w)
                    continue
                yield i, Sample(images[i], labels[i], mask)


def _fold_ids(store: Store, config: PipelineConfig, fold: int, key: str) -> np.ndarray:
    """Stored fold id per tile, once ``fold`` (config path ``key``) is known
    to be one of the stored split's folds; the config alone cannot tell when
    it carries no split section."""
    arr = store.array(_node(config, FOLD_ARRAY))
    k = int(arr.attributes["k"])
    if fold >= k:  # the config checks fold >= 0
        raise DataError(f"{key}: fold {fold} outside [0, {k}) of the stored split")
    return arr.read_region((0,), arr.shape)


def cmd_train(config: PipelineConfig, out_dir=".") -> History:
    """Build samples from the store, train the configured topology."""
    t = _section(config, "train")
    store = _ingested_store(config)
    src = _SampleSource(config, store, t)
    weeks = src.week_range(*t.slice_timestamps)
    if t.topology.num_classes != src.num_classes:
        raise ConfigError(
            f"config.train.topology.num_classes: {t.topology.num_classes} but the "
            f"store labels carry {src.num_classes}")
    if t.topology.in_channels != src.channels:
        raise ConfigError(
            f"config.train.topology.in_channels: {t.topology.in_channels} but the "
            f"configured inputs concatenate to {src.channels}")

    folds = None
    if t.validation_fold is not None:
        folds = _fold_ids(store, config, t.validation_fold,
                          "config.train.validation_fold")
    train_samples, val_samples = [], []
    for i, s in src.samples(weeks):
        held = folds is not None and folds[i] == t.validation_fold
        (val_samples if held else train_samples).append(s)
    if not train_samples:
        raise DataError("no usable training tiles (all ignored or in the validation fold)")
    if folds is not None and not val_samples:
        raise DataError(f"config.train.validation_fold: fold {t.validation_fold} "
                        "has no usable tile")
    if t.checkpoint:
        ckpt = _output_path(t.checkpoint, out_dir, "checkpoint")
        t = dataclasses.replace(t, checkpoint=str(ckpt))
    base = _output_path(t.history or "history", out_dir, "history", _txt_json)

    graph = build_topology(t.topology, input_hw=(src.th, src.tw),
                           seed=mix_seed(config.seed, "init"))
    graph.set_dtype(ENGINE_DTYPE)
    history = fit(graph, train_samples, t, config.seed, val_samples or None)
    write_output(base.with_suffix(".txt"), history.table(), "history")
    write_output(base.with_suffix(".json"), history.to_json(), "history")
    log.info("trained %d epochs on %d samples", len(history.records),
             len(train_samples))
    return history


def _load_graph(config: PipelineConfig, name: str, src: _SampleSource, out_dir):
    """The checkpoint that section ``name`` (or else train) names, in
    ``ENGINE_DTYPE``. One whose class count or [C, H, W] input differs from
    the samples ``src`` reads raises a ConfigError naming the section."""
    path = getattr(config, name).checkpoint
    if path is None and config.train is not None:
        path = config.train.checkpoint
    if path is None:
        raise ConfigError("config: no checkpoint path in this section or train")
    graph, _ = checkpoint_load(str(_resolve(path, out_dir)))
    classes = graph.shape_of(graph.output_name)[0]
    if classes != src.num_classes:
        raise ConfigError(f"config.{name}: checkpoint predicts {classes} classes but "
                          f"the store labels carry {src.num_classes}")
    want = (src.channels, src.th, src.tw)
    if graph.input_shape != want:
        raise ConfigError(f"config.{name}: checkpoint takes [C, H, W] input "
                          f"{list(graph.input_shape)} but the store's samples are {list(want)}")
    graph.set_dtype(ENGINE_DTYPE)
    return graph


def cmd_evaluate(config: PipelineConfig, out_dir=".") -> dict:
    """Aggregate confusion matrix over held-out tiles; write the report."""
    e = _section(config, "evaluate")
    t = _section(config, "train")
    store = _ingested_store(config)
    src = _SampleSource(config, store, t)
    graph = _load_graph(config, "evaluate", src, out_dir)
    base = _output_path(e.out or "report", out_dir, "report", _txt_json)

    keep = None
    if e.fold is not None:
        keep = _fold_ids(store, config, e.fold, "config.evaluate.fold") == e.fold
    cm = ConfusionMatrix.zeros(src.num_classes)
    samples = src.samples(src.week_range(*t.slice_timestamps), keep)
    with closing(_infer_tiles(graph, samples, "counts")) as blocks:
        for _, counts in blocks:
            cm.counts += counts
    values = report(cm)
    write_output(base.with_suffix(".txt"), render_report(values), "report")
    write_output(base.with_suffix(".json"), report_json(values), "report")
    return values


def cmd_predict(config: PipelineConfig, out_dir=".") -> Path:
    """Argmax class masks for one week, mosaicked and written as PGM."""
    p = _section(config, "predict")
    t = _section(config, "train")
    store = _ingested_store(config)
    src = _SampleSource(config, store, t)
    if p.week >= src.weeks:  # config.predict checks week >= 0
        raise DataError(f"config.predict.week: {p.week} outside the {src.weeks}-week store")
    graph = _load_graph(config, "predict", src, out_dir)
    exts = (".pgm", ".json") + (("_preview.ppm",) if p.preview else ())
    base = _output_path(p.out, out_dir, "prediction",
                        lambda b: [b.with_name(b.name + ext) for ext in exts])

    # a tile the samples skip is ignored in every pixel, so stays all 255
    classes = np.full((src.nty * src.ntx, src.th, src.tw), 255, dtype=np.uint8)
    samples = src.samples([p.week], _unlabelled=True)
    with closing(_infer_tiles(graph, samples, "classes")) as blocks:
        for keys, planes in blocks:
            classes[keys] = planes
    attrs = store.array(_node(config, IMAGE_ARRAY)).attributes
    grid = TileGrid(int(attrs["scene_width"]), int(attrs["scene_height"]),
                    tuple(attrs["geotransform"]), attrs["crs"], 255.0)
    full = mosaic(grid, classes.reshape(src.nty, src.ntx, 1, src.th, src.tw))
    write_pgm(full, str(base))
    if p.preview:
        write_ppm(full, str(base) + "_preview")
    log.info("wrote prediction mask %s.pgm", base)
    return base


def cmd_query(config: PipelineConfig) -> str:
    """Build the catalog search URL from the query section."""
    return build_catalog_query(_section(config, "query").catalog_query())
