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

Tiling is a reshape: ``tile`` turns a [C, H, W] raster into one block array
[tiles_y, tiles_x, C, ts, ts] (the store's tile order), padding the bottom
and right edges with nodata only when ``ts`` does not divide the scene.
Tiles are addressed by their (ty, tx) index, not by a georeference of their
own; ``mosaic`` transposes the blocks back and crops the padding.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import DataError, ParameterError, ShapeError, open_input, read_json
from .errors import to_json, write_output
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


def _geotransform(values) -> tuple[float, ...]:
    """``values`` as the six finite floats of an invertible transform."""
    gt = tuple(float(v) for v in values)
    if len(gt) != 6:
        raise ParameterError(f"geotransform needs 6 coefficients, got {len(gt)}")
    if not all(map(math.isfinite, gt)):
        raise ParameterError(f"geotransform coefficients {list(gt)} must be finite")
    if gt[1] * gt[5] - gt[2] * gt[4] == 0:
        raise ParameterError("geotransform is singular")
    return gt


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
        self.geotransform = _geotransform(self.geotransform)

    @property
    def channels(self) -> int:
        return self.data.shape[0]

    @property
    def height(self) -> int:
        return self.data.shape[1]

    @property
    def width(self) -> int:
        return self.data.shape[2]


def _check_value(value, dt: np.dtype, what: str) -> None:
    """A burn or nodata value must be one the plane's dtype holds exactly."""
    if dt.kind == "f":
        return
    info = np.iinfo(dt)
    try:
        fits = float(value).is_integer() and info.min <= value <= info.max
    except (TypeError, ValueError):
        fits = False
    if not fits:
        raise ParameterError(f"{what} {value!r} does not fit dtype {dt}")


# edge-row pairs one _spans call tests (about 4 MB of temporaries)
_BATCH_ROWS = 1 << 16


def _row_range(y1, y2, height: int, gt):
    """Rows [r0, r1) each edge (y1, y2) is tested on: those whose center can
    lie in its y-span, plus a row of slack each side for rounding."""
    ta = (y1 - gt[3]) / gt[5] - 0.5
    tb = (y2 - gt[3]) / gt[5] - 0.5
    r0 = np.clip(np.floor(np.minimum(ta, tb)) - 1, 0, height).astype(np.int64)
    r1 = np.clip(np.ceil(np.maximum(ta, tb)) + 2, 0, height).astype(np.int64)
    return r0, r1


def _batches(owner, rows):
    """Edge ranges [a, b) of whole shapes, each testing about _BATCH_ROWS
    edge-row pairs (one shape with more is a batch of its own). ``owner``
    is sorted."""
    first = np.flatnonzero(np.r_[True, owner[1:] != owner[:-1]])
    batch = np.r_[0, np.cumsum(rows)][first] // _BATCH_ROWS
    cuts = first[np.r_[True, batch[1:] != batch[:-1]]].tolist()
    return zip(cuts, cuts[1:] + [len(owner)])


def _spans(chain, owner, r0, r1, width: int, gt):
    """Even-odd column spans [lo, hi] of every shape on every row, as arrays
    (shape, row, lo, hi) sorted by shape, then row, then lo.

    ``chain`` is [E + 1, 2] vertices, and edge e runs from ``chain[e]`` to
    ``chain[e + 1]``; ``owner[e]`` is its shape and [r0[e], r1[e]) the rows
    it is tested on (none for a pair of vertices that is not an edge). The
    crossing test decides.
    """
    (x1, y1), (x2, y2) = chain[:-1].T, chain[1:].T
    counts = r1 - r0
    edge = np.repeat(np.arange(len(counts)), counts)
    row = np.repeat(r0 - np.cumsum(counts) + counts, counts) + np.arange(len(edge))
    y = gt[3] + (row + 0.5) * gt[5]
    cross = (y1[edge] > y) != (y2[edge] > y)
    edge, row, y = edge[cross], row[cross], y[cross]
    x = x1[edge] + (y - y1[edge]) * (x2[edge] - x1[edge]) / (y2[edge] - y1[edge])
    shape = owner[edge]
    order = np.lexsort((x, row, shape))
    x, row, shape = x[order], row[order], shape[order]
    # pair crossings 0-1, 2-3, ... within each (shape, row); an odd last is dropped
    new = np.r_[True, (shape[1:] != shape[:-1]) | (row[1:] != row[:-1])]
    starts = np.flatnonzero(new)
    rank = np.arange(len(x)) - np.repeat(starts, np.diff(np.r_[starts, len(x)]))
    first = np.flatnonzero((rank[:-1] % 2 == 0) & ~new[1:])
    t1 = (x[first] - gt[0]) / gt[1] - 0.5
    t2 = (x[first + 1] - gt[0]) / gt[1] - 0.5
    if gt[1] > 0:
        lo, hi = np.ceil(t1), np.ceil(t2) - 1
    else:
        lo, hi = np.floor(t2) + 1, np.floor(t1)
    lo, hi = np.maximum(lo, 0), np.minimum(hi, width - 1)
    keep = lo <= hi
    return (shape[first][keep], row[first][keep],
            lo[keep].astype(np.int64), hi[keep].astype(np.int64))


def _paint(plane, values, shape, row, lo, hi) -> None:
    """Paint span k with ``values[shape[k]]`` on ``plane``, which holds
    nodata everywhere; the spans come in shape order, and where two overlap
    the later one's value stays.

    The spans of rows where none overlap are painted by one run-length decode
    of the whole plane. Spans on rows where shapes overlap are then painted
    one slice each, in shape order.
    """
    h, w = plane.shape
    start = row * w + lo
    order = np.argsort(start, kind="stable")
    start, end, srow = start[order], start[order] + (hi - lo + 1)[order], row[order]
    clash = np.zeros(h, dtype=bool)
    clash[srow[1:][start[1:] < end[:-1]]] = True
    ok = ~clash[srow]
    runs = np.diff(np.r_[0, np.stack((start[ok], end[ok]), axis=1).ravel(), h * w])
    fill = np.full(len(runs), plane.flat[0], dtype=plane.dtype)  # gaps keep nodata
    fill[1::2] = np.array(values, dtype=plane.dtype)[shape[order][ok]]
    plane.ravel()[:] = np.repeat(fill, runs)
    late = np.flatnonzero(clash[row])
    for s, r, a, b in zip(*(v.tolist() for v in (shape[late], row[late], lo[late],
                                                 hi[late] + 1))):
        plane[r, a:b] = values[s]


def rasterize(shapes, width: int, height: int, geotransform,
              crs: str = "EPSG:4326", nodata: int = 255,
              dtype: str = "u8") -> GeoRaster:
    """Burn (value, polygon) pairs onto a grid; later shapes overwrite.

    The vertices of every polygon form one array. Each edge is expanded to
    the rows it can cross, and the crossings are sorted by (shape, row, x)
    and paired into column spans, which are painted so that a later shape
    overwrites an earlier one. The expansion runs over batches of whole
    shapes, so its temporaries stay about 4 MB however many edges there
    are; what grows with the input is about 80 bytes per edge at the peak
    (the vertex array and a few words per edge), less than the polygons
    themselves take as Python tuples, plus 32 bytes per span. Untouched
    pixels keep ``nodata``. A value or ``nodata`` the dtype cannot hold
    raises ParameterError, as do vertices that are not finite (x, y) pairs.
    Only axis-aligned geotransforms are accepted.
    """
    if width < 1 or height < 1:
        raise ParameterError(f"grid extents must be positive, got {width}x{height}")
    gt = _geotransform(geotransform)
    if gt[2] != 0.0 or gt[4] != 0.0:
        raise ParameterError("rotated geotransforms are not supported")
    if dtype not in DTYPE_CODES:
        raise ParameterError(f"unknown dtype code {dtype!r}")
    dt = DTYPE_CODES[dtype]
    _check_value(nodata, dt, "nodata")
    plane = np.full((height, width), nodata, dtype=dt)
    values, rings, ring_len, ring_owner = [], [], [], []
    for i, (value, geom) in enumerate(shapes):
        if not isinstance(geom, WktGeometry):
            raise ParameterError("shapes must be (value, WktGeometry) pairs")
        values.append(value)
        for ring in filter(None, geom.rings):
            rings.append(ring)
            ring_len.append(len(ring))
            ring_owner.append(i)
    for value in set(values):
        _check_value(value, dt, "burn value")
    vertices = sum(ring_len)
    if vertices > len(ring_len):  # some ring has an edge
        points = np.fromiter(chain.from_iterable(chain.from_iterable(rings)), np.float64)
        if points.size != 2 * vertices:
            raise ParameterError("polygon vertices must be (x, y) pairs")
        points = points.reshape(-1, 2)
        if not np.isfinite(points).all():
            raise ParameterError("polygon vertices must be finite")
        # vertex pair (j, j + 1) is an edge unless j is the last of its ring
        owner = np.repeat(ring_owner, ring_len)[:-1]
        r0, r1 = _row_range(points[:-1, 1], points[1:, 1], height, gt)
        gap = np.cumsum(ring_len)[:-1] - 1
        r1[gap] = r0[gap]
        spans = [_spans(points[a : b + 1], owner[a:b], r0[a:b], r1[a:b], width, gt)
                 for a, b in _batches(owner, r1 - r0)]
        _paint(plane, values, *(np.concatenate(v) for v in zip(*spans)))
    return GeoRaster(plane[None, ...], gt, crs, float(nodata))


@dataclass(frozen=True)
class TileGrid:
    """What a tiling's blocks do not carry: the scene extent and its
    georeferencing. Tile counts, tile size, channels and dtype are the
    blocks' shape and dtype."""

    width: int
    height: int
    geotransform: tuple
    crs: str
    nodata: float


def tile(raster: GeoRaster, tile_size: int) -> tuple[TileGrid, np.ndarray]:
    """Cut a [C, H, W] raster into blocks [tiles_y, tiles_x, C, ts, ts].

    The tiles ceil-cover the scene, and ``blocks[ty, tx]`` is the tile whose
    top-left pixel is (ty * ts, tx * ts). When ``ts`` divides the scene the
    blocks are a view of ``raster.data``; otherwise the scene is first padded
    at the bottom and right with its nodata value.
    """
    if tile_size < 1:
        raise ParameterError(f"tile size must be >= 1, got {tile_size}")
    ts = tile_size
    c, h, w = raster.data.shape
    nty, ntx = -(-h // ts), -(-w // ts)
    data = raster.data
    if (nty * ts, ntx * ts) != (h, w):
        data = np.full((c, nty * ts, ntx * ts), raster.nodata, dtype=data.dtype)
        data[:, :h, :w] = raster.data
    blocks = data.reshape(c, nty, ts, ntx, ts).transpose(1, 3, 0, 2, 4)
    grid = TileGrid(w, h, raster.geotransform, raster.crs, raster.nodata)
    return grid, blocks


def mosaic(grid: TileGrid, blocks: np.ndarray) -> GeoRaster:
    """Exact inverse of tile(): join blocks [tiles_y, tiles_x, C, th, tw]
    into one raster and crop the edge padding.

    The blocks must ceil-cover the grid's extent, or a ShapeError is raised.
    """
    shape = blocks.shape
    if len(shape) != 5 or min(shape) < 1:
        raise ShapeError(f"blocks must be a [tiles_y, tiles_x, C, th, tw] array, "
                         f"got shape {shape}")
    nty, ntx, c, th, tw = shape
    if (nty, ntx) != (-(-grid.height // th), -(-grid.width // tw)):
        raise ShapeError(f"{nty}x{ntx} tiles of {th}x{tw} do not cover the "
                         f"{grid.height}x{grid.width} grid")
    data = blocks.transpose(2, 0, 3, 1, 4).reshape(c, nty * th, ntx * tw)
    return GeoRaster(np.ascontiguousarray(data[:, : grid.height, : grid.width]),
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


def write_raster(raster: GeoRaster, basepath: str) -> None:
    """Write <base>.bin (plane-major, little-endian) and <base>.json."""
    payload = np.ascontiguousarray(raster.data, dtype=DTYPE_CODES[dtype_code(raster.data.dtype)])
    write_output(basepath + ".bin", payload.tobytes(), "raster payload")
    write_output(basepath + ".json", to_json(_sidecar(raster)), "raster sidecar")


def _json_int(meta: dict, name: str) -> int:
    """Sidecar field ``name``, which must be a JSON integer: a float such as
    64.9 or a bool is refused, not truncated."""
    value = meta[name]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"invalid literal for int(): {name} {value!r} is not a JSON integer")
    return value


def read_raster(basepath: str) -> GeoRaster:
    sidecar = basepath + ".json"
    meta = read_json(sidecar, "raster sidecar")
    try:
        dt = DTYPE_CODES[meta["dtype"]]
        w, h, c = (_json_int(meta, name) for name in ("width", "height", "channels"))
        if min(w, h, c) < 1:
            raise ValueError(f"width {w}, height {h} and channels {c} must be positive")
        gt, nodata = _geotransform(meta["geotransform"]), float(meta["nodata"])
        crs = meta["crs"]
        if not isinstance(crs, str):
            raise TypeError(f"crs {crs!r} is not a string")
    except (KeyError, TypeError, ValueError, ParameterError) as exc:
        raise DataError(f"raster sidecar {sidecar} is malformed: "
                        f"{type(exc).__name__}: {exc}") from None
    payload, expect = basepath + ".bin", w * h * c * dt.itemsize
    with open_input(payload, "raster payload") as fh:  # sized before the array is made
        size = os.fstat(fh.fileno()).st_size
        if size == expect:
            data = np.empty((c, h, w), dtype=dt)
            size = fh.readinto(data)  # the one copy of the payload
    if size != expect:
        raise DataError(f"raster payload {payload} is {size} bytes, expected {expect}")
    return GeoRaster(data, gt, crs, nodata)


def write_pgm(raster: GeoRaster, basepath: str) -> None:
    """Write a single-channel 8-bit mask as binary PGM (P5) plus sidecar."""
    if raster.channels != 1:
        raise ShapeError(f"PGM export needs a single channel, got {raster.channels}")
    plane = raster.data[0]
    if plane.dtype != np.uint8:
        if plane.min() < 0 or plane.max() > 255:
            raise DataError("mask values do not fit 8 bits")
        plane = plane.astype(np.uint8)
    header = f"P5\n{raster.width} {raster.height}\n255\n".encode()
    write_output(basepath + ".pgm", header + plane.tobytes(), "mask")
    write_output(basepath + ".json", to_json(_sidecar(raster) | {"dtype": "u8"}),
                 "raster sidecar")


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
    header = f"P6\n{raster.width} {raster.height}\n255\n".encode()
    write_output(basepath + ".ppm", header + rgb.tobytes(), "mask preview")
