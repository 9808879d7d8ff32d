"""Georeferenced rasters: affine grids, polygon burning, tiling, masks,
and the flat-binary raster format with JSON sidecars.

Geotransform convention (six coefficients, applied to pixel *corners*):

    world_x = gt0 + col * gt1 + row * gt2
    world_y = gt3 + col * gt4 + row * gt5

Pixel centers sit at (col + 0.5, row + 0.5). Rasterization is even-odd
scanline filling tested at pixel centers with the half-open boundary rule:
crossings use ``(y1 > y) != (y2 > y)`` and a center is inside an interval
``[xa, xb)``, so centers exactly on the minimum-coordinate edges of an
axis-aligned box are in, centers on the maximum edges are out.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, ParameterError, ShapeError
from .wkt import WktGeometry

__all__ = [
    "DTYPE_CODES",
    "GeoRaster",
    "TileGrid",
    "dtype_code",
    "rasterize",
    "tile",
    "mosaic",
    "scl_to_ignore_mask",
    "DEFAULT_CLOUD_CLASSES",
    "write_raster",
    "read_raster",
    "write_pgm",
    "read_pgm",
    "write_ppm",
]

DTYPE_CODES = {
    "u8": np.dtype("u1"),
    "u16": np.dtype("<u2"),
    "i32": np.dtype("<i4"),
    "f32": np.dtype("<f4"),
    "f64": np.dtype("<f8"),
}

# Sen2Cor scene classification codes treated as unusable by default:
# cloud shadow (3), cloud medium probability (8), cloud high probability (9)
DEFAULT_CLOUD_CLASSES = (3, 8, 9)


def dtype_code(dt: np.dtype) -> str:
    for code, cand in DTYPE_CODES.items():
        if cand == dt:
            return code
    raise ParameterError(f"unsupported dtype {dt}")


@dataclass
class GeoRaster:
    """A [channels, height, width] array plus its georeferencing."""

    data: np.ndarray
    geotransform: tuple[float, float, float, float, float, float]
    crs: str = "EPSG:4326"
    nodata: float = 0.0

    def __post_init__(self):
        if not isinstance(self.data, np.ndarray) or self.data.ndim != 3:
            raise ShapeError("raster data must be a [C, H, W] ndarray")
        gt = tuple(float(v) for v in self.geotransform)
        if len(gt) != 6:
            raise ParameterError(f"geotransform needs 6 coefficients, got {len(gt)}")
        if gt[1] * gt[5] - gt[2] * gt[4] == 0:
            raise ParameterError("geotransform is singular")
        self.geotransform = gt

    @property
    def channels(self) -> int:
        return self.data.shape[0]

    @property
    def height(self) -> int:
        return self.data.shape[1]

    @property
    def width(self) -> int:
        return self.data.shape[2]

    def pixel_to_world(self, col: float, row: float) -> tuple[float, float]:
        g = self.geotransform
        return (g[0] + col * g[1] + row * g[2], g[3] + col * g[4] + row * g[5])

    def world_to_pixel(self, x: float, y: float) -> tuple[float, float]:
        g = self.geotransform
        det = g[1] * g[5] - g[2] * g[4]
        dx, dy = x - g[0], y - g[3]
        return ((dx * g[5] - dy * g[2]) / det, (dy * g[1] - dx * g[4]) / det)


def _require_axis_aligned(gt: tuple[float, ...]) -> None:
    if gt[2] != 0.0 or gt[4] != 0.0:
        raise ParameterError("rotated geotransforms are not supported")


def _scanline_fill(plane: np.ndarray, geom: WktGeometry, value,
                   gt: tuple[float, ...]) -> None:
    """Even-odd fill of one polygon into a [H, W] plane (axis-aligned grid)."""
    h, w = plane.shape
    edges = []
    for ring in geom.rings:
        for (x1, y1), (x2, y2) in zip(ring, ring[1:]):
            edges.append((x1, y1, x2, y2))
    for row in range(h):
        y = gt[3] + (row + 0.5) * gt[5]
        xs = []
        for x1, y1, x2, y2 in edges:
            if (y1 > y) != (y2 > y):
                xs.append(x1 + (y - y1) * (x2 - x1) / (y2 - y1))
        if not xs:
            continue
        xs.sort()
        for i in range(0, len(xs) - 1, 2):
            xa, xb = xs[i], xs[i + 1]
            t1 = (xa - gt[0]) / gt[1] - 0.5
            t2 = (xb - gt[0]) / gt[1] - 0.5
            if gt[1] > 0:
                lo, hi = math.ceil(t1), math.ceil(t2) - 1
            else:
                lo, hi = math.floor(t2) + 1, math.floor(t1)
            lo, hi = max(lo, 0), min(hi, w - 1)
            if lo <= hi:
                plane[row, lo : hi + 1] = value


def rasterize(shapes, width: int, height: int, geotransform,
              crs: str = "EPSG:4326", nodata: int = 255,
              dtype: str = "u8") -> GeoRaster:
    """Burn (value, polygon) pairs onto a grid; later shapes overwrite.

    Untouched pixels keep ``nodata``. Only axis-aligned geotransforms are
    accepted.
    """
    if width < 1 or height < 1:
        raise ParameterError(f"grid extents must be positive, got {width}x{height}")
    gt = tuple(float(v) for v in geotransform)
    _require_axis_aligned(gt)
    if dtype not in DTYPE_CODES:
        raise ParameterError(f"unknown dtype code {dtype!r}")
    plane = np.full((height, width), nodata, dtype=DTYPE_CODES[dtype])
    for value, geom in shapes:
        if not isinstance(geom, WktGeometry):
            raise ParameterError("shapes must be (value, WktGeometry) pairs")
        _scanline_fill(plane, geom, value, gt)
    return GeoRaster(plane[None, ...], gt, crs, float(nodata))


@dataclass(frozen=True)
class TileGrid:
    """Geometry of a row-major tiling, enough to invert it exactly."""

    tile_size: int
    tiles_y: int
    tiles_x: int
    width: int
    height: int
    geotransform: tuple
    crs: str
    nodata: float
    channels: int
    dtype: str


def tile(raster: GeoRaster, tile_size: int) -> tuple[TileGrid, list[GeoRaster]]:
    """Split into ceil-cover tiles, row-major; edge tiles padded with nodata."""
    if tile_size < 1:
        raise ParameterError(f"tile size must be >= 1, got {tile_size}")
    ts = tile_size
    nty = -(-raster.height // ts)
    ntx = -(-raster.width // ts)
    grid = TileGrid(ts, nty, ntx, raster.width, raster.height,
                    raster.geotransform, raster.crs, raster.nodata,
                    raster.channels, dtype_code(raster.data.dtype))
    tiles = []
    g = raster.geotransform
    for ty in range(nty):
        for tx in range(ntx):
            block = np.full((raster.channels, ts, ts), raster.nodata,
                            dtype=raster.data.dtype)
            y0, x0 = ty * ts, tx * ts
            ys = min(ts, raster.height - y0)
            xs = min(ts, raster.width - x0)
            block[:, :ys, :xs] = raster.data[:, y0 : y0 + ys, x0 : x0 + xs]
            ox, oy = raster.pixel_to_world(x0, y0)
            tiles.append(GeoRaster(block, (ox, g[1], g[2], oy, g[4], g[5]),
                                   raster.crs, raster.nodata))
    return grid, tiles


def mosaic(grid: TileGrid, tiles) -> GeoRaster:
    """Reassemble tiles by their georeferencing; exact inverse of tile().

    Tile order does not matter: the grid position comes from each tile's
    origin. Missing or duplicated positions raise a data error naming the
    tile coordinates.
    """
    ts = grid.tile_size
    ref = GeoRaster(np.zeros((1, 1, 1), DTYPE_CODES[grid.dtype]),
                    grid.geotransform, grid.crs, grid.nodata)
    out = np.full((grid.channels, grid.tiles_y * ts, grid.tiles_x * ts),
                  grid.nodata, dtype=DTYPE_CODES[grid.dtype])
    seen = set()
    for t in tiles:
        if t.data.shape != (grid.channels, ts, ts):
            raise ShapeError(f"tile shape {t.data.shape} does not match the grid")
        col, row = ref.world_to_pixel(*t.pixel_to_world(0, 0))
        tx, ty = col / ts, row / ts
        if abs(tx - round(tx)) > 1e-6 or abs(ty - round(ty)) > 1e-6:
            raise DataError(f"tile origin not on the grid: ({tx:.3f}, {ty:.3f})")
        tx, ty = int(round(tx)), int(round(ty))
        if not (0 <= ty < grid.tiles_y and 0 <= tx < grid.tiles_x):
            raise DataError(f"tile ({ty}, {tx}) outside the grid")
        if (ty, tx) in seen:
            raise DataError(f"duplicate tile ({ty}, {tx})")
        seen.add((ty, tx))
        out[:, ty * ts : (ty + 1) * ts, tx * ts : (tx + 1) * ts] = t.data
    for ty in range(grid.tiles_y):
        for tx in range(grid.tiles_x):
            if (ty, tx) not in seen:
                raise DataError(f"missing tile ({ty}, {tx})")
    return GeoRaster(out[:, : grid.height, : grid.width].copy(),
                     grid.geotransform, grid.crs, grid.nodata)


def scl_to_ignore_mask(scl: GeoRaster, cloud_classes=DEFAULT_CLOUD_CLASSES) -> GeoRaster:
    """Binary mask: 1 where the scene class is unusable or nodata, else 0."""
    if scl.channels != 1:
        raise ShapeError(f"scene classification must be single-channel, got {scl.channels}")
    bad = np.isin(scl.data, list(cloud_classes)) | (scl.data == scl.nodata)
    return GeoRaster(bad.astype(np.uint8), scl.geotransform, scl.crs, 255.0)


# ---------------------------------------------------------------------------
# flat binary raster + JSON sidecar


def _sidecar(raster: GeoRaster) -> dict:
    return {
        "width": raster.width,
        "height": raster.height,
        "channels": raster.channels,
        "dtype": dtype_code(raster.data.dtype),
        "geotransform": list(raster.geotransform),
        "crs": raster.crs,
        "nodata": raster.nodata,
    }


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def write_raster(raster: GeoRaster, basepath: str) -> None:
    """Write <base>.bin (plane-major, little-endian) and <base>.json."""
    code = dtype_code(raster.data.dtype)
    with open(basepath + ".bin", "wb") as fh:
        fh.write(np.ascontiguousarray(raster.data, dtype=DTYPE_CODES[code]).tobytes())
    _write_json(basepath + ".json", _sidecar(raster))


def read_raster(basepath: str) -> GeoRaster:
    try:
        with open(basepath + ".json", "r", encoding="utf-8") as fh:
            meta = json.load(fh)
    except FileNotFoundError:
        raise DataError(f"missing raster sidecar {basepath}.json") from None
    except json.JSONDecodeError as e:
        raise DataError(f"bad raster sidecar {basepath}.json: {e}") from None
    for key in ("width", "height", "channels", "dtype", "geotransform", "crs", "nodata"):
        if key not in meta:
            raise DataError(f"raster sidecar {basepath}.json lacks {key!r}")
    if meta["dtype"] not in DTYPE_CODES:
        raise DataError(f"raster sidecar has unknown dtype {meta['dtype']!r}")
    dt = DTYPE_CODES[meta["dtype"]]
    w, h, c = int(meta["width"]), int(meta["height"]), int(meta["channels"])
    try:
        with open(basepath + ".bin", "rb") as fh:
            raw = fh.read()
    except FileNotFoundError:
        raise DataError(f"missing raster payload {basepath}.bin") from None
    expect = w * h * c * dt.itemsize
    if len(raw) != expect:
        raise DataError(f"raster payload is {len(raw)} bytes, expected {expect}")
    data = np.frombuffer(raw, dtype=dt).reshape(c, h, w).copy()
    return GeoRaster(data, tuple(meta["geotransform"]), meta["crs"], float(meta["nodata"]))


def write_pgm(raster: GeoRaster, basepath: str) -> None:
    """Write a single-channel 8-bit mask as binary PGM (P5) plus sidecar."""
    if raster.channels != 1:
        raise ShapeError(f"PGM export needs a single channel, got {raster.channels}")
    plane = raster.data[0]
    if plane.dtype != np.uint8:
        if plane.min() < 0 or plane.max() > 255:
            raise DataError("mask values do not fit 8 bits")
        plane = plane.astype(np.uint8)
    with open(basepath + ".pgm", "wb") as fh:
        fh.write(f"P5\n{raster.width} {raster.height}\n255\n".encode())
        fh.write(plane.tobytes())
    _write_json(basepath + ".json", _sidecar(raster) | {"dtype": "u8"})


def read_pgm(basepath: str) -> GeoRaster:
    with open(basepath + ".pgm", "rb") as fh:
        blob = fh.read()
    fields = []
    pos = 0
    while len(fields) < 4:
        while pos < len(blob) and blob[pos : pos + 1].isspace():
            pos += 1
        start = pos
        while pos < len(blob) and not blob[pos : pos + 1].isspace():
            pos += 1
        if start == pos:
            raise DataError("truncated PGM header")
        fields.append(blob[start:pos])
    pos += 1  # single whitespace after maxval
    if fields[0] != b"P5":
        raise DataError(f"not a binary PGM: magic {fields[0]!r}")
    w, h, maxval = int(fields[1]), int(fields[2]), int(fields[3])
    if maxval != 255:
        raise DataError(f"unsupported PGM maxval {maxval}")
    plane = np.frombuffer(blob, dtype=np.uint8, count=w * h, offset=pos).reshape(h, w)
    with open(basepath + ".json", "r", encoding="utf-8") as fh:
        meta = json.load(fh)
    return GeoRaster(plane[None, ...].copy(), tuple(meta["geotransform"]),
                     meta["crs"], float(meta["nodata"]))


_PALETTE = [
    (31, 119, 180), (255, 127, 14), (44, 160, 44), (214, 39, 40),
    (148, 103, 189), (140, 86, 75), (227, 119, 194), (127, 127, 127),
    (188, 189, 34), (23, 190, 207),
]


def write_ppm(raster: GeoRaster, basepath: str) -> None:
    """Color preview of a class mask (binary PPM); 255 renders black."""
    if raster.channels != 1:
        raise ShapeError("PPM preview needs a single channel")
    plane = raster.data[0].astype(np.int64)
    rgb = np.zeros((raster.height, raster.width, 3), dtype=np.uint8)
    for value in np.unique(plane):
        if value == 255:
            continue
        rgb[plane == value] = _PALETTE[int(value) % len(_PALETTE)]
    with open(basepath + ".ppm", "wb") as fh:
        fh.write(f"P6\n{raster.width} {raster.height}\n255\n".encode())
        fh.write(rgb.tobytes())
