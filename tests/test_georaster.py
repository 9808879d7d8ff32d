"""Raster geometry: affine transforms, even-odd polygon burning checked
against a per-pixel ray-cast oracle, tiling/mosaicking, masks,
and the flat-binary and PNM file formats."""

import json
import math
import re
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from terraseg import georaster
from terraseg.errors import DataError, ParameterError, ShapeError
from terraseg.georaster import (
    DEFAULT_CLOUD_CLASSES,
    DTYPE_CODES,
    GeoRaster,
    mosaic,
    rasterize,
    read_raster,
    scl_to_ignore_mask,
    tile,
    write_pgm,
    write_ppm,
    write_raster,
)
from terraseg.wkt import WktGeometry, parse_wkt

NORTH_UP = (0.0, 1.0, 0.0, 10.0, 0.0, -1.0)


def box(minx, miny, maxx, maxy):
    ring = ((minx, miny), (maxx, miny), (maxx, maxy), (minx, maxy), (minx, miny))
    return WktGeometry("POLYGON", (ring,))


def burn_oracle(shapes, width, height, gt, nodata=255):
    """Per-pixel even-odd ray cast; crossings strictly right of the center."""
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


def scanline_reference(shapes, width, height, gt, nodata=255, dtype="u8"):
    """The row-by-row rasterizer ``rasterize`` replaced: for each polygon,
    for each row its y-span can reach, even-odd pairs of sorted crossings."""
    plane = np.full((height, width), nodata, dtype=DTYPE_CODES[dtype])
    h, w = plane.shape
    for value, geom in shapes:
        edges = []
        for ring in geom.rings:
            for (x1, y1), (x2, y2) in zip(ring, ring[1:]):
                edges.append((x1, y1, x2, y2))
        if not edges:
            continue
        ys = [y for _, y1, _, y2 in edges for y in (y1, y2)]
        r0, r1 = np.clip(sorted((v - gt[3]) / gt[5] - 0.5 for v in (min(ys), max(ys))), -1, h)
        for row in range(max(0, math.floor(r0) - 1), min(h, math.ceil(r1) + 2)):
            y = gt[3] + (row + 0.5) * gt[5]
            xs = []
            for x1, y1, x2, y2 in edges:
                if (y1 > y) != (y2 > y):
                    xs.append(x1 + (y - y1) * (x2 - x1) / (y2 - y1))
            xs.sort()
            for i in range(0, len(xs) - 1, 2):
                t1 = (xs[i] - gt[0]) / gt[1] - 0.5
                t2 = (xs[i + 1] - gt[0]) / gt[1] - 0.5
                if gt[1] > 0:
                    lo, hi = math.ceil(t1), math.ceil(t2) - 1
                else:
                    lo, hi = math.floor(t2) + 1, math.floor(t1)
                lo, hi = max(lo, 0), min(hi, w - 1)
                if lo <= hi:
                    plane[row, lo : hi + 1] = value
    return plane


# pixel coordinates: half-integers put vertices on pixel edges and centres and
# make horizontal edges and shared rows common; floats fall anywhere
coordinate = st.one_of(st.integers(-12, 44).map(lambda k: k / 2),
                       st.floats(-6.0, 22.0, allow_nan=False))


@st.composite
def scenes(draw):
    """A grid, a geotransform of either sign on either axis, and overlapping
    shapes of one or more rings (some left open, some with fewer than three
    vertices) that may leave the grid."""
    w, h = draw(st.integers(1, 16)), draw(st.integers(1, 16))
    sx = draw(st.sampled_from([1.0, -1.0, 0.5, -2.0]))
    sy = draw(st.sampled_from([1.0, -1.0, 0.5, -2.0]))
    gt = (draw(st.sampled_from([0.0, 3.25, -100.0])), sx, 0.0,
          draw(st.sampled_from([0.0, 7.5, 1000.0])), 0.0, sy)
    shapes = []
    for value in range(1, draw(st.integers(1, 4)) + 1):
        rings = []
        for _ in range(draw(st.integers(1, 3))):
            pts = draw(st.lists(st.tuples(coordinate, coordinate), max_size=7))
            ring = [(gt[0] + px * sx, gt[3] + py * sy) for px, py in pts]
            rings.append(tuple(ring + ring[:1] if draw(st.booleans()) or value > 1 else ring))
        shapes.append((value, WktGeometry("POLYGON", tuple(rings))))
    return shapes, w, h, gt


class TestGeoRaster:
    def test_validation(self):
        with pytest.raises(ShapeError):
            GeoRaster(np.zeros((4, 4)), NORTH_UP)
        with pytest.raises(ParameterError):
            GeoRaster(np.zeros((1, 4, 4)), (0, 1, 0, 0, 0))
        with pytest.raises(ParameterError):
            GeoRaster(np.zeros((1, 4, 4)), (0, 1, 0, 0, 1, 0))  # singular

    @pytest.mark.parametrize("at", range(6))
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_geotransform_coefficients_must_be_finite(self, at, value):
        # nan * x - ... == 0 is false, so a NaN once passed the singularity check
        gt = list(NORTH_UP)
        gt[at] = value
        with pytest.raises(ParameterError, match="must be finite"):
            GeoRaster(np.zeros((1, 4, 4)), gt)


class TestRasterize:
    def test_full_burn(self):
        r = rasterize([(1, box(0, 0, 10, 10))], 10, 10, NORTH_UP)
        assert np.all(r.data == 1)
        assert r.data.dtype == np.uint8

    def test_untouched_pixels_keep_nodata(self):
        r = rasterize([(1, box(0, 0, 3, 3))], 10, 10, NORTH_UP)
        assert r.data[0, 9, 0] == 1   # bottom-left corner of the world box
        assert r.data[0, 0, 9] == 255

    def test_empty_shape_list(self):
        r = rasterize([], 6, 4, NORTH_UP)
        assert np.all(r.data == 255)
        assert r.data.shape == (1, 4, 6)

    def test_min_edge_in_max_edge_out(self):
        gt = (0.0, 1.0, 0.0, 1.0, 0.0, -1.0)
        r = rasterize([(7, box(0.5, 0.0, 2.5, 1.0))], 4, 1, gt)
        assert r.data[0, 0].tolist() == [7, 7, 255, 255]

    def test_later_shapes_overwrite(self):
        shapes = [(1, box(0, 0, 10, 10)), (2, box(0, 0, 5, 10))]
        r = rasterize(shapes, 10, 10, NORTH_UP)
        assert np.all(r.data[0, :, :5] == 2)
        assert np.all(r.data[0, :, 5:] == 1)

    def test_matches_ray_cast_oracle_on_random_polygons(self, rng):
        w = h = 24
        gt = (0.0, 1.0, 0.0, float(h), 0.0, -1.0)
        for trial in range(12):
            shapes = []
            for value in range(1, 1 + int(rng.integers(1, 4))):
                n = int(rng.integers(3, 9))
                pts = rng.uniform(-2.0, w + 2.0, (n, 2))
                ring = tuple(map(tuple, pts)) + (tuple(pts[0]),)
                shapes.append((value, WktGeometry("POLYGON", (ring,))))
            got = rasterize(shapes, w, h, gt)
            want = burn_oracle(shapes, w, h, gt)
            np.testing.assert_array_equal(got.data[0], want, err_msg=f"trial {trial}")
        # wholly outside the grid (above it, then below-left), and straddling
        # its top edge at y = h; also on a south-up grid, where y grows by row
        outside = [(1, box(2, h + 3, 9, h + 8)), (2, box(-9, -9, -1, -2))]
        straddle = [(3, box(4.5, h - 3.5, 12, h + 6))]
        for g in (gt, (0.0, 1.0, 0.0, 0.0, 0.0, 1.0)):
            for shapes in (outside, straddle, outside + straddle):
                got = rasterize(shapes, w, h, g)
                np.testing.assert_array_equal(got.data[0], burn_oracle(shapes, w, h, g))
        assert np.all(rasterize(outside, w, h, gt).data == 255)
        burned = rasterize(straddle, w, h, gt).data[0] == 3
        assert burned[:4, 4:12].all() and burned.sum() == 4 * 8

    @given(scenes(), st.one_of(st.just(georaster._BATCH_ROWS), st.integers(1, 40)))
    @settings(max_examples=200)
    def test_equals_the_scanline_reference(self, scene, batch_rows):
        shapes, w, h, gt = scene
        with mock.patch.object(georaster, "_BATCH_ROWS", batch_rows):
            got = rasterize(shapes, w, h, gt)
        assert got.data[0].tobytes() == scanline_reference(shapes, w, h, gt).tobytes()

    def test_reference_cases(self):
        """One case per feature the random scenes draw: a hole, vertices on
        pixel and row centres, horizontal edges, shapes off the grid,
        overlaps, and every geotransform sign."""
        hole = parse_wkt("POLYGON((0 0, 8 0, 8 8, 0 8, 0 0), (2.5 2.5, 5.5 2.5, 5.5 5.5, "
                         "2.5 5.5, 2.5 2.5))")
        centres = WktGeometry("POLYGON", (((1.5, 0.5), (6.5, 3.5), (1.5, 6.5), (1.5, 0.5)),))
        off_grid = box(-5, 3, 2, 20)
        for sx in (1.0, -1.0):
            for sy in (1.0, -1.0):
                gt = (0.0 if sx > 0 else 8.0, sx, 0.0, 0.0 if sy > 0 else 8.0, 0.0, sy)
                shapes = [(1, hole), (2, centres), (3, off_grid), (4, box(30, 30, 40, 40))]
                got = rasterize(shapes, 8, 8, gt).data[0]
                np.testing.assert_array_equal(got, scanline_reference(shapes, 8, 8, gt))
                assert (got == 3).any() and not (got == 4).any()

    @pytest.mark.parametrize("dtype, value", [("u8", 300), ("u8", -1), ("u8", 1.5),
                                              ("u16", 70000), ("i32", 2**31)])
    def test_value_the_dtype_cannot_hold(self, dtype, value):
        with pytest.raises(ParameterError, match="does not fit"):
            rasterize([(value, box(0, 0, 4, 4))], 4, 4, NORTH_UP, dtype=dtype)
        with pytest.raises(ParameterError, match="nodata"):
            rasterize([], 4, 4, NORTH_UP, nodata=value, dtype=dtype)

    def test_values_that_fit(self):
        r = rasterize([(254, box(0, 6, 2, 10)), (0.0, box(2, 6, 4, 10))], 4, 4, NORTH_UP)
        assert r.data[0, 0].tolist() == [254, 254, 0, 0]
        r = rasterize([(-2.5, box(0, 6, 2, 10))], 4, 4, NORTH_UP, nodata=0, dtype="f32")
        assert r.data[0, 0].tolist() == [-2.5, -2.5, 0.0, 0.0]

    def test_non_finite_vertex_rejected(self):
        inf = WktGeometry("POLYGON", (((0.0, 0.0), (float("inf"), 0.0), (0.0, 4.0),
                                       (0.0, 0.0)),))
        with pytest.raises(ParameterError, match="finite"):
            rasterize([(1, inf)], 4, 4, NORTH_UP)

    def test_vertices_that_are_not_pairs_rejected(self):
        xyz = WktGeometry("POLYGON", (((0.0, 0.0, 1.0), (4.0, 0.0, 1.0), (0.0, 4.0, 1.0),
                                       (0.0, 0.0, 1.0)),))
        with pytest.raises(ParameterError, match=r"must be \(x, y\) pairs"):
            rasterize([(1, xyz)], 4, 4, NORTH_UP)

    def test_polygon_with_hole(self):
        geom = parse_wkt("POLYGON((0 0, 10 0, 10 10, 0 10, 0 0), "
                         "(3 3, 7 3, 7 7, 3 7, 3 3))")
        r = rasterize([(1, geom)], 10, 10, NORTH_UP)
        assert r.data[0, 0, 0] == 1
        assert r.data[0, 5, 5] == 255  # the hole stays nodata

    def test_rejects_rotated_grid(self):
        with pytest.raises(ParameterError, match="rotated"):
            rasterize([], 4, 4, (0, 1, 0.1, 0, 0, -1))

    def test_rejects_bad_inputs(self):
        with pytest.raises(ParameterError):
            rasterize([], 0, 4, NORTH_UP)
        with pytest.raises(ParameterError):
            rasterize([], 4, 4, NORTH_UP, dtype="u4")
        with pytest.raises(ParameterError):
            rasterize([(1, "POLYGON((...))")], 4, 4, NORTH_UP)
        with pytest.raises(ParameterError, match="singular"):
            rasterize([(1, box(0, 0, 1, 1))], 4, 4, (0, 1, 0, 4, 0, 0))


class TestTileMosaic:
    def make(self, rng, shape=(3, 10, 10), dtype="u16"):
        data = rng.integers(0, 1000, shape).astype(DTYPE_CODES[dtype])
        return GeoRaster(data, NORTH_UP, nodata=0.0)

    def test_divisible_grid(self, rng):
        r = self.make(rng, (3, 8, 8))
        grid, blocks = tile(r, 4)
        assert blocks.shape == (2, 2, 3, 4, 4)
        assert (grid.width, grid.height) == (8, 8)
        assert np.array_equal(blocks[0, 1], r.data[:, :4, 4:])  # row-major
        assert np.shares_memory(blocks, r.data)  # no padding, no copy

    def test_edge_tiles_padded_with_nodata(self, rng):
        r = self.make(rng, (1, 5, 5))
        grid, blocks = tile(r, 4)
        assert blocks.shape == (2, 2, 1, 4, 4)
        right = blocks[0, 1]
        assert np.array_equal(right[:, :4, :1], r.data[:, :4, 4:5])
        assert np.all(right[:, :, 1:] == 0)
        assert np.all(blocks[1, :, :, 1:] == 0)

    def test_round_trip_bit_exact(self, rng):
        for shape in [(3, 10, 10), (1, 7, 13), (4, 16, 16)]:
            r = self.make(rng, shape)
            grid, blocks = tile(r, 4)
            back = mosaic(grid, blocks)
            assert back.data.dtype == r.data.dtype
            assert np.array_equal(back.data, r.data)
            assert back.geotransform == r.geotransform

    def test_wrong_shape_tile(self, rng):
        r = self.make(rng, (1, 8, 8))
        grid, blocks = tile(r, 4)
        with pytest.raises(ShapeError):
            mosaic(grid, blocks[:, :, :, :2, :2])  # 2x2 tiles of 2 cover 4x4
        with pytest.raises(ShapeError):
            mosaic(grid, blocks[:, :-1])  # a tile column missing
        with pytest.raises(ShapeError):
            mosaic(grid, blocks[0])  # rank 4

    def test_tile_size_validation(self, rng):
        with pytest.raises(ParameterError):
            tile(self.make(rng), 0)


class TestSclMask:
    def test_default_cloud_classes(self):
        assert DEFAULT_CLOUD_CLASSES == (3, 8, 9)
        scl = GeoRaster(np.array([[[4, 3], [8, 9]]], dtype=np.uint8),
                        NORTH_UP, nodata=0.0)
        mask = scl_to_ignore_mask(scl)
        assert mask.data[0].tolist() == [[0, 1], [1, 1]]

    def test_nodata_is_masked(self):
        scl = GeoRaster(np.array([[[0, 4]]], dtype=np.uint8), NORTH_UP, nodata=0.0)
        assert scl_to_ignore_mask(scl).data[0].tolist() == [[1, 0]]

    def test_custom_classes(self):
        scl = GeoRaster(np.array([[[3, 5]]], dtype=np.uint8), NORTH_UP, nodata=255.0)
        mask = scl_to_ignore_mask(scl, cloud_classes=(5,))
        assert mask.data[0].tolist() == [[0, 1]]

    def test_multichannel_rejected(self):
        with pytest.raises(ShapeError):
            scl_to_ignore_mask(GeoRaster(np.zeros((2, 2, 2)), NORTH_UP))


class TestRasterIO:
    @pytest.mark.parametrize("code", sorted(DTYPE_CODES))
    def test_round_trip_every_dtype(self, code, rng, tmp_path):
        data = rng.uniform(0, 200, (2, 5, 7)).astype(DTYPE_CODES[code])
        r = GeoRaster(data, NORTH_UP, crs="EPSG:32633", nodata=3.0)
        base = str(tmp_path / f"scene_{code}")
        write_raster(r, base)
        back = read_raster(base)
        assert back.data.dtype == DTYPE_CODES[code]
        assert np.array_equal(back.data, r.data)
        assert back.geotransform == r.geotransform
        assert back.crs == "EPSG:32633"
        assert back.nodata == 3.0

    def test_missing_sidecar(self, tmp_path):
        with pytest.raises(DataError, match="sidecar"):
            read_raster(str(tmp_path / "absent"))

    def test_payload_size_mismatch(self, rng, tmp_path):
        r = GeoRaster(rng.integers(0, 9, (1, 4, 4)).astype(np.uint8), NORTH_UP)
        base = str(tmp_path / "scene")
        write_raster(r, base)
        with open(base + ".bin", "ab") as fh:
            fh.write(b"\x00")
        with pytest.raises(DataError, match="bytes"):
            read_raster(base)

    @pytest.mark.parametrize("case, why", [
        ("missing", ": not found"),
        ("truncated", " is 15 bytes, expected 16"),
        ("directory", ": Is a directory"),
    ])
    def test_a_payload_it_cannot_read_whole_names_it(self, tmp_path, case, why):
        base = str(tmp_path / "scene")
        write_raster(GeoRaster(np.zeros((1, 4, 4), np.uint8), NORTH_UP), base)
        payload = Path(base + ".bin")
        if case == "truncated":
            payload.write_bytes(payload.read_bytes()[:-1])
        else:
            payload.unlink()
            if case == "directory":
                payload.mkdir()
        with pytest.raises(DataError) as err:
            read_raster(base)
        assert str(err.value) == f"raster payload {payload}{why}"

    def test_a_sidecar_claiming_more_than_memory_is_checked_against_the_payload(self, tmp_path):
        base = str(tmp_path / "scene")
        write_raster(GeoRaster(np.zeros((1, 4, 4), np.uint8), NORTH_UP), base)
        sidecar = Path(base + ".json")
        meta = json.loads(sidecar.read_text())
        sidecar.write_text(json.dumps(meta | {"width": 10**6, "height": 10**6, "channels": 4,
                                              "dtype": "f64"}))
        with pytest.raises(DataError) as err:  # a size check, not a 32 TB allocation
            read_raster(base)
        assert str(err.value) == (f"raster payload {base}.bin is 16 bytes, "
                                  f"expected {32 * 10**12}")

    def test_the_payload_is_held_once(self, tmp_path):
        data = np.random.default_rng(8).random((4, 512, 512), dtype=np.float32)
        base = str(tmp_path / "scene")
        write_raster(GeoRaster(data, NORTH_UP), base)
        tracemalloc.start()
        try:
            back = read_raster(base)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(back.data, data)
        assert peak < 1.2 * data.nbytes

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_geotransform_names_the_sidecar(self, value, tmp_path):
        base = str(tmp_path / "scene")
        write_raster(GeoRaster(np.zeros((1, 4, 4), np.uint8), NORTH_UP), base)
        meta = json.loads(Path(base + ".json").read_text(encoding="utf-8"))
        meta["geotransform"][0] = value
        Path(base + ".json").write_text(json.dumps(meta), encoding="utf-8")
        with pytest.raises(DataError, match=f"^raster sidecar {re.escape(base)}.json is "
                                            "malformed: ParameterError: .* must be finite$"):
            read_raster(base)

    @pytest.mark.parametrize("field, value, why", [
        ("width", 4.9, "ValueError: invalid literal for int(): width 4.9 is not a JSON integer"),
        ("height", 4.0, "ValueError: invalid literal for int(): height 4.0 is not a JSON integer"),
        ("channels", True,
         "ValueError: invalid literal for int(): channels True is not a JSON integer"),
        ("width", "4", "ValueError: invalid literal for int(): width '4' is not a JSON integer"),
        ("crs", 5, "TypeError: crs 5 is not a string"),
        ("crs", None, "TypeError: crs None is not a string"),
    ], ids=["float-width", "float-height", "bool-channels", "string-width", "number-crs",
            "null-crs"])
    def test_a_sidecar_field_of_another_json_type_is_malformed(self, tmp_path, field, value,
                                                                 why):
        # before, each was read as the value that fits the 16-byte payload, or kept as is
        base = str(tmp_path / "scene")
        write_raster(GeoRaster(np.zeros((1, 4, 4), np.uint8), NORTH_UP), base)
        meta = json.loads(Path(base + ".json").read_text(encoding="utf-8"))
        meta[field] = value
        Path(base + ".json").write_text(json.dumps(meta), encoding="utf-8")
        with pytest.raises(DataError) as err:
            read_raster(base)
        assert str(err.value) == f"raster sidecar {base}.json is malformed: {why}"

    def test_corrupt_sidecar(self, tmp_path):
        base = str(tmp_path / "scene")
        with open(base + ".json", "w") as fh:
            fh.write("{not json")
        with pytest.raises(DataError, match=f"^raster sidecar {re.escape(base)}.json: not valid JSON: "):
            read_raster(base)


class TestPnm:
    def test_pgm_round_trip(self, rng, tmp_path):
        mask = GeoRaster(rng.integers(0, 4, (1, 6, 8)).astype(np.uint8),
                         NORTH_UP, nodata=255.0)
        base = str(tmp_path / "mask")
        write_pgm(mask, base)
        # binary PGM: a P5 header of width, height and maxval, then the rows
        assert (tmp_path / "mask.pgm").read_bytes() == b"P5\n8 6\n255\n" + mask.data.tobytes()
        meta = json.loads((tmp_path / "mask.json").read_text(encoding="utf-8"))
        assert tuple(meta["geotransform"]) == mask.geotransform
        assert (meta["dtype"], meta["nodata"]) == ("u8", 255.0)

    def test_pgm_casts_in_range_integers(self, tmp_path):
        mask = GeoRaster(np.array([[[0, 200]]], dtype=np.int32), NORTH_UP)
        write_pgm(mask, str(tmp_path / "mask"))
        assert (tmp_path / "mask.pgm").read_bytes() == b"P5\n2 1\n255\n\x00\xc8"

    def test_pgm_rejects_wide_values(self, tmp_path):
        mask = GeoRaster(np.array([[[0, 300]]], dtype=np.int32), NORTH_UP)
        with pytest.raises(DataError):
            write_pgm(mask, str(tmp_path / "mask"))

    def test_pgm_rejects_multichannel(self, tmp_path):
        with pytest.raises(ShapeError):
            write_pgm(GeoRaster(np.zeros((2, 2, 2)), NORTH_UP), str(tmp_path / "m"))

    def test_ppm_header_and_palette(self, tmp_path):
        mask = GeoRaster(np.array([[[0, 255]]], dtype=np.uint8), NORTH_UP)
        base = str(tmp_path / "preview")
        write_ppm(mask, base)
        blob = (tmp_path / "preview.ppm").read_bytes()
        assert blob.startswith(b"P6\n2 1\n255\n")
        pixels = np.frombuffer(blob[len(b"P6\n2 1\n255\n"):], dtype=np.uint8)
        assert pixels[:3].tolist() == [31, 119, 180]  # class 0 color
        assert pixels[3:].tolist() == [0, 0, 0]       # nodata renders black
