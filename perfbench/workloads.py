"""The benchmark's workloads, on synthetic scenes made by ``terraseg.synth``.

A workload writes its inputs from the seed in ``setup`` and runs the
untimed prerequisite CLI stages there. ``stages`` names the CLI calls of one
timed iteration; the program sees only the scene, labels, SCL plane and
config files written here. Output checks and digests run outside the timed
stages. Every CLI call, output check and digest comparison is one attempted
operation in a :class:`Tally`; a nonzero exit, a failed check or a digest
mismatch is a failed one.

Scenes are fixed apart from their noise: 4 channels, 4 classes in 16-px
blocks, 32-px tiles and a cloudy SCL corner of an eighth of the scene side,
so every seed asks the program for the same amount of work.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from terraseg import cli, synth
from terraseg.checkpoint import checkpoint_load
from terraseg.chunkstore import Store
from terraseg.config import parse_config
from terraseg.georaster import GeoRaster, write_raster
from terraseg.pipeline import FOLD_ARRAY, IMAGE_ARRAY, LABEL_ARRAY, MASK_ARRAY
from terraseg.topologies import build_topology

CRS = "EPSG:4326"
BASE_GROUP = "Romania/2018"
CHANNELS = 4
CLASSES = 4
TILE = 32
FOLDS = 4
CLOUD = 9  # the SCL class make_scl paints; ingest's default cloud classes include it


class CheckFailed(Exception):
    """An output of the program differs from what its inputs demand."""


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def fail(self, what: str) -> None:
        self.failed += 1
        self.problems.append(what)

    def check(self, name: str, fn, *args) -> None:
        self.attempted += 1
        try:
            fn(*args)
        except Exception as exc:  # a program error on a check's read path fails the check
            self.fail(f"check {name}: {type(exc).__name__}: {exc}")

    def same(self, name: str, got: str, want: str) -> None:
        self.attempted += 1
        if got != want:
            self.fail(f"digest {name}: {got[:12]} != {want[:12]}")


def run_cli(tally: Tally, argv: list[str]) -> tuple[bool, float]:
    """One in-process ``terraseg`` call; returns (exit code was 0, seconds)."""
    sink = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink):
            code = cli.main(argv)  # looked up per call, so a traced run sees its wrapper
    except SystemExit as exc:  # argparse rejected the arguments
        code = exc.code if isinstance(exc.code, int) else 2
    elapsed = time.perf_counter() - start
    tally.attempted += 1
    if code != 0:
        tally.fail(f"terraseg {argv[0]} exited {code}")
    return code == 0, elapsed


def digest(paths: list[Path]) -> str:
    """sha256 over the relative names and bytes of files, in sorted order."""
    h = hashlib.sha256()
    for root in paths:
        files = sorted(p for p in root.rglob("*") if p.is_file()) if root.is_dir() else [root]
        for f in files:
            h.update(f"{root.name}/{f.relative_to(root) if f != root else ''}\0".encode())
            h.update(f.read_bytes())
    return h.hexdigest()


def tiled(plane: np.ndarray) -> np.ndarray:
    """[..., H, W] -> [..., ty, tx, TILE, TILE], the store's tile order."""
    *lead, h, w = plane.shape
    return plane.reshape(*lead, h // TILE, TILE, w // TILE, TILE).swapaxes(-3, -2)


@dataclass
class Scene:
    data: np.ndarray  # f32 [C, H, W]
    labels: np.ndarray  # u8 [H, W]
    cloud: np.ndarray  # bool [H, W]

    @property
    def tiles(self) -> int:
        h, w = self.labels.shape
        return (h // TILE) * (w // TILE)


def write_scene(work: Path, seed: int, size: int) -> Scene:
    data, _, gt = synth.make_scene(seed, height=size, width=size, channels=CHANNELS,
                                   num_classes=CLASSES, block=TILE // 2)
    write_raster(GeoRaster(data, gt, CRS, 0.0), str(work / "scene"))
    shapes = synth.scene_label_shapes(size, size, CLASSES, TILE // 2, gt)
    (work / "labels.json").write_text(synth.shapes_to_json(shapes), encoding="utf-8")
    scl = synth.make_scl(size, size, cloud_rows=size // 8, cloud_cols=size // 8)
    write_raster(GeoRaster(scl[None], gt, CRS, 0.0), str(work / "scl"))
    labels = synth.block_labels(size, size, CLASSES, TILE // 2)
    return Scene(data, labels, scl == CLOUD)


def write_config(path: Path, doc: dict) -> str:
    path.write_text(yaml.safe_dump(doc, sort_keys=True), encoding="utf-8")
    return str(path)


@dataclass
class Context:
    """What one setup leaves for the timed iterations."""

    work: Path
    seed: int
    scene: Scene
    config: str
    items: int = 0  # units of work one iteration does in its throughput stages
    extra: dict = field(default_factory=dict)

    @property
    def store(self) -> Path:
        return self.work / "store"

    def array(self, rel: str):
        return Store(self.store).array(f"{BASE_GROUP}/{rel}")


class Workload:
    name = ""
    setups = 7  # set-ups timed per run; setup_s is their median
    size = 0
    weeks = 0
    throughput = ("", ())  # (metric name, stages whose time the work is spread over)

    def __init__(self, size: int | None = None):
        if size is not None:
            self.size = size

    def base_doc(self, work: Path, seed: int) -> dict:
        return {
            "seed": seed, "store": str(work / "store"), "base_group": BASE_GROUP,
            "ingest": {"image": str(work / "scene"), "labels": str(work / "labels.json"),
                       "scl": str(work / "scl"), "num_classes": CLASSES,
                       "weeks": self.weeks, "tile_size": TILE},
            "split": {"k": FOLDS},
        }

    def setup(self, work: Path, seed: int, tally: Tally) -> Context | None:
        """Write inputs and run the prerequisite stages; None if a stage failed."""
        raise NotImplementedError

    def setup_outputs(self, ctx: Context) -> list[Path]:
        return [ctx.work / "scene.bin", ctx.work / "labels.json", ctx.work / "scl.bin"]

    def reset(self, ctx: Context, out: Path) -> None:
        """Untimed: put the tree back into the state an iteration starts from."""
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)

    def stages(self, ctx: Context, out: Path) -> list[tuple[str, list[str]]]:
        raise NotImplementedError

    def outputs(self, ctx: Context, out: Path) -> list[Path]:
        raise NotImplementedError

    def check(self, ctx: Context, out: Path, tally: Tally) -> None:
        raise NotImplementedError


class IngestWorkload(Workload):
    name = "ingest-1024"
    size = 1024
    weeks = 2
    throughput = ("ingest_tile_weeks_per_s", ("ingest",))

    def setup(self, work, seed, tally):
        scene = write_scene(work, seed, self.size)
        config = write_config(work / "cfg.yaml", self.base_doc(work, seed))
        return Context(work, seed, scene, config, items=scene.tiles * self.weeks)

    def reset(self, ctx, out):
        shutil.rmtree(ctx.store, ignore_errors=True)
        super().reset(ctx, out)

    def stages(self, ctx, out):
        return [("ingest", ["ingest", "--config", ctx.config]),
                ("split", ["split", "--config", ctx.config])]

    def outputs(self, ctx, out):
        return [ctx.store]

    def check(self, ctx, out, tally):
        tally.check("image tiles", self._check_images, ctx)
        tally.check("label tiles", self._check_labels, ctx)
        tally.check("cloud masks", self._check_masks, ctx)
        tally.check("fold ids", self._check_folds, ctx)

    def _check_images(self, ctx):
        img = ctx.array(IMAGE_ARRAY)
        want = np.moveaxis(tiled(ctx.scene.data), 0, -1)  # [ty, tx, th, tw, C]
        if img.shape != (self.weeks, *want.shape):
            raise CheckFailed(f"image array shape {img.shape}")
        ntx = want.shape[1]
        for w in range(self.weeks):
            for iy in range(want.shape[0]):  # a row of tiles at a time keeps the check's memory small
                got = img.read_region((w, iy, 0, 0, 0, 0), (1, 1, ntx, TILE, TILE, CHANNELS))
                if got.dtype != want.dtype or not np.array_equal(
                        got[0, 0].view(np.uint32), want[iy].view(np.uint32)):
                    raise CheckFailed(f"image tiles of week {w}, row {iy} differ from the scene")

    def _check_labels(self, ctx):
        lbl = ctx.array(LABEL_ARRAY)
        got = lbl.read_region((0, 0, 0, 0), lbl.shape)
        if not np.array_equal(got, tiled(ctx.scene.labels)):
            raise CheckFailed("label tiles differ from synth.block_labels")

    def _check_masks(self, ctx):
        msk = ctx.array(MASK_ARRAY)
        want = tiled(ctx.scene.cloud.astype(np.uint8))
        if msk.shape != (self.weeks, *want.shape):
            raise CheckFailed(f"mask array shape {msk.shape}")
        for w in range(self.weeks):
            got = msk.read_region((w, 0, 0, 0, 0), (1, *want.shape))[0]
            if not np.array_equal(got, want):
                raise CheckFailed(f"week {w} mask is not exactly the SCL cloud corner")

    def _check_folds(self, ctx):
        arr = ctx.array(FOLD_ARRAY)
        ids = arr.read_region((0,), arr.shape)
        if ids.shape != (ctx.scene.tiles,) or ids.min() < 0 or ids.max() >= FOLDS:
            raise CheckFailed(f"fold ids {ids.shape} outside [0, {FOLDS})")
        if np.any(np.bincount(ids, minlength=FOLDS) == 0):
            raise CheckFailed("a fold is empty")


class TrainWorkload(Workload):
    name = "train-256"
    size = 256
    weeks = 2
    epochs = 4
    throughput = ("train_samples_per_s", ("train",))

    def setup(self, work, seed, tally):
        scene = write_scene(work, seed, self.size)
        doc = self.base_doc(work, seed)
        doc["train"] = {
            "topology": {"kind": "unet", "depth": 2, "base_channels": 16,
                         "in_channels": CHANNELS, "num_classes": CLASSES},
            "epochs": self.epochs, "batch_size": 8, "validation_fold": 0,
            "checkpoint": "model.ckpt", "history": "history",
            "slice_timestamps": [0, self.weeks],
        }
        config = write_config(work / "cfg.yaml", doc)
        for stage in ("ingest", "split"):
            if not run_cli(tally, [stage, "--config", config])[0]:
                return None
        ctx = Context(work, seed, scene, config)
        folds = ctx.array(FOLD_ARRAY)
        fold_of = folds.read_region((0,), folds.shape)
        clouded = tiled(ctx.scene.cloud).all(axis=(-2, -1)).reshape(-1)  # skipped by train
        ctx.items = int(np.sum((fold_of != 0) & ~clouded)) * self.weeks * self.epochs
        return ctx

    def setup_outputs(self, ctx):
        return super().setup_outputs(ctx) + [ctx.store]

    def stages(self, ctx, out):
        return [("train", ["train", "--config", ctx.config, "--out", str(out)])]

    def outputs(self, ctx, out):
        return [out / "model.ckpt", out / "history.json", out / "history.txt"]

    def check(self, ctx, out, tally):
        tally.check("history", self._check_history, out / "history.json")
        tally.check("checkpoint", self._check_checkpoint, ctx, out / "model.ckpt")

    def _check_history(self, path: Path):
        records = json.loads(path.read_text(encoding="utf-8"))["records"]
        if len(records) != self.epochs:
            raise CheckFailed(f"{len(records)} history records, want {self.epochs}")
        for rec in records:
            for key, value in rec.items():
                if not isinstance(value, (int, float)) or not math.isfinite(value):
                    raise CheckFailed(f"epoch {rec.get('epoch')}: {key} = {value!r}")

    def _check_checkpoint(self, ctx, path: Path):
        graph, _ = checkpoint_load(str(path))
        spec = parse_config(Path(ctx.config).read_text(encoding="utf-8")).train.topology
        want = build_topology(spec, input_hw=(TILE, TILE)).descriptor()
        if graph.descriptor() != want:
            raise CheckFailed("checkpoint topology differs from the configured one")


def read_pgm(path: Path) -> np.ndarray:
    """Pixels of a binary 8-bit PGM, parsed here rather than by the program."""
    blob = path.read_bytes()
    fields, pos = [], 0
    while len(fields) < 4:
        while blob[pos:pos + 1].isspace():
            pos += 1
        start = pos
        while pos < len(blob) and not blob[pos:pos + 1].isspace():
            pos += 1
        if start == pos:
            raise CheckFailed(f"{path.name}: truncated header")
        fields.append(blob[start:pos])
    if fields[0] != b"P5" or fields[3] != b"255":
        raise CheckFailed(f"{path.name}: not an 8-bit binary PGM")
    width, height = int(fields[1]), int(fields[2])
    pixels = np.frombuffer(blob, dtype=np.uint8, offset=pos + 1)
    if pixels.size != width * height:
        raise CheckFailed(f"{path.name}: {pixels.size} pixels for {width}x{height}")
    return pixels.reshape(height, width)


class InferWorkload(Workload):
    name = "infer-512"
    setups = 3  # each trains an epoch, about 10 s
    size = 512
    weeks = 4
    throughput = ("infer_tiles_per_s", ("evaluate", "predict"))

    def setup(self, work, seed, tally):
        scene = write_scene(work, seed, self.size)
        doc = self.base_doc(work, seed)
        doc["train"] = {
            "topology": {"kind": "segnet", "depth": 2, "base_channels": 8,
                         "in_channels": CHANNELS, "num_classes": CLASSES},
            "epochs": 1, "batch_size": 8, "validation_fold": 0,
            "checkpoint": "model.ckpt", "history": "history", "slice_timestamps": [0, 1],
        }
        setup_config = write_config(work / "cfg-setup.yaml", doc)
        for argv in (["ingest"], ["split"], ["train", "--out", str(work / "model")]):
            if not run_cli(tally, [argv[0], "--config", setup_config, *argv[1:]])[0]:
                return None
        # evaluate takes its weeks from train.slice_timestamps, hence configs of their own
        doc["train"]["slice_timestamps"] = [0, self.weeks]
        doc["evaluate"] = {"fold": None, "out": "report"}
        configs = []
        for week in range(self.weeks):
            doc["predict"] = {"week": week, "out": f"prediction-w{week}"}
            configs.append(write_config(work / f"cfg-w{week}.yaml", doc))
        ctx = Context(work, seed, scene, configs[0], items=2 * scene.tiles * self.weeks)
        ctx.extra["predict_configs"] = configs
        ctx.extra["checkpoint"] = str(work / "model" / "model.ckpt")
        return ctx

    def setup_outputs(self, ctx):
        return super().setup_outputs(ctx) + [ctx.store, ctx.work / "model"]

    def stages(self, ctx, out):
        tail = ["--out", str(out), "--checkpoint", ctx.extra["checkpoint"]]
        return ([("evaluate", ["evaluate", "--config", ctx.config, *tail])]
                + [("predict", ["predict", "--config", c, *tail])
                   for c in ctx.extra["predict_configs"]])

    def outputs(self, ctx, out):
        return [out / "report.json", out / "report.txt"] + [
            out / f"prediction-w{w}.{ext}" for w in range(self.weeks) for ext in ("pgm", "json")]

    def check(self, ctx, out, tally):
        tally.check("report", self._check_report, out / "report.json")
        for week in range(self.weeks):
            tally.check(f"prediction week {week}", self._check_prediction, ctx,
                        out / f"prediction-w{week}.pgm")

    def _check_report(self, path: Path):
        values = json.loads(path.read_text(encoding="utf-8"))
        for key, value in values.items():
            if not isinstance(value, (int, float)) or not 0.0 <= value <= 1.0:
                raise CheckFailed(f"report {key} = {value!r} outside [0, 1]")
        if not math.isclose(values["F1"], values["Dice"], rel_tol=1e-12, abs_tol=1e-15):
            raise CheckFailed(f"F1 {values['F1']} != Dice {values['Dice']}")

    def _check_prediction(self, ctx, path: Path):
        plane = read_pgm(path)
        if plane.shape != ctx.scene.labels.shape:
            raise CheckFailed(f"{path.name}: extent {plane.shape}")
        if not np.array_equal(plane == 255, ctx.scene.cloud):
            raise CheckFailed(f"{path.name}: 255 is not exactly the cloud-masked pixels")
        if plane[~ctx.scene.cloud].max() >= CLASSES:
            raise CheckFailed(f"{path.name}: class index outside [0, {CLASSES})")


WORKLOADS = {w.name: w for w in (IngestWorkload, TrainWorkload, InferWorkload)}
