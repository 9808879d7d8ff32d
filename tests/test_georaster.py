"""Raster geometry: affine transforms, even-odd polygon burning checked
against a per-pixel ray-cast oracle, tiling/mosaicking, masks,
and the flat-binary and PNM file formats."""

import numpy as np
import pytest

from terraseg.errors import DataError, ParameterError, ShapeError
from terraseg.georaster import (
    DEFAULT_CLOUD_CLASSES,
    DTYPE_CODES,
    GeoRaster,
    mosaic,
    rasterize,
    read_pgm,
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


class TestGeoRaster:
    def test_affine_round_trip_rotated(self):
        r = GeoRaster(np.zeros((1, 4, 4)), (10.0, 2.0, 0.5, 20.0, -0.3, -2.0))
        for col, row in [(0, 0), (3.25, 1.5), (-2, 7)]:
            x, y = r.pixel_to_world(col, row)
            c2, r2 = r.world_to_pixel(x, y)
            assert abs(c2 - col) < 1e-9 and abs(r2 - row) < 1e-9

    def test_corner_convention(self):
        r = GeoRaster(np.zeros((1, 10, 10)), NORTH_UP)
        assert r.pixel_to_world(0, 0) == (0.0, 10.0)
        assert r.pixel_to_world(10, 10) == (10.0, 0.0)

    def test_validation(self):
        with pytest.raises(ShapeError):
            GeoRaster(np.zeros((4, 4)), NORTH_UP)
        with pytest.raises(ParameterError):
            GeoRaster(np.zeros((1, 4, 4)), (0, 1, 0, 0, 0))
        with pytest.raises(ParameterError):
            GeoRaster(np.zeros((1, 4, 4)), (0, 1, 0, 0, 1, 0))  # singular


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


class TestTileMosaic:
    def make(self, rng, shape=(3, 10, 10), dtype="u16"):
        data = rng.integers(0, 1000, shape).astype(DTYPE_CODES[dtype])
        return GeoRaster(data, NORTH_UP, nodata=0.0)

    def test_divisible_grid(self, rng):
        r = self.make(rng, (3, 8, 8))
        grid, tiles = tile(r, 4)
        assert (grid.tiles_y, grid.tiles_x) == (2, 2)
        assert len(tiles) == 4
        assert np.array_equal(tiles[1].data, r.data[:, :4, 4:])  # row-major

    def test_edge_tiles_padded_with_nodata(self, rng):
        r = self.make(rng, (1, 5, 5))
        grid, tiles = tile(r, 4)
        assert len(tiles) == 4
        right = tiles[1].data
        assert np.array_equal(right[:, :4, :1], r.data[:, :4, 4:5])
        assert np.all(right[:, :, 1:] == 0)

    def test_round_trip_bit_exact(self, rng):
        for shape in [(3, 10, 10), (1, 7, 13), (4, 16, 16)]:
            r = self.make(rng, shape)
            grid, tiles = tile(r, 4)
            back = mosaic(grid, tiles)
            assert back.data.dtype == r.data.dtype
            assert np.array_equal(back.data, r.data)
            assert back.geotransform == r.geotransform

    def test_order_does_not_matter(self, rng):
        r = self.make(rng, (2, 9, 9))
        grid, tiles = tile(r, 4)
        back = mosaic(grid, list(reversed(tiles)))
        assert np.array_equal(back.data, r.data)

    def test_duplicate_tile(self, rng):
        r = self.make(rng, (1, 8, 8))
        grid, tiles = tile(r, 4)
        with pytest.raises(DataError, match="duplicate"):
            mosaic(grid, tiles + [tiles[0]])

    def test_missing_tile(self, rng):
        r = self.make(rng, (1, 8, 8))
        grid, tiles = tile(r, 4)
        with pytest.raises(DataError, match="missing"):
            mosaic(grid, tiles[:-1])

    def test_wrong_shape_tile(self, rng):
        r = self.make(rng, (1, 8, 8))
        grid, tiles = tile(r, 4)
        bad = GeoRaster(np.zeros((1, 2, 2), DTYPE_CODES["u16"]), NORTH_UP)
        with pytest.raises(ShapeError):
            mosaic(grid, tiles[:-1] + [bad])

    def test_off_grid_origin(self, rng):
        r = self.make(rng, (1, 8, 8))
        grid, tiles = tile(r, 4)
        skewed = GeoRaster(tiles[0].data, (0.5, 1.0, 0.0, 10.0, 0.0, -1.0),
                           nodata=0.0)
        with pytest.raises(DataError, match="not on the grid"):
            mosaic(grid, tiles[1:] + [skewed])

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

    def test_corrupt_sidecar(self, tmp_path):
        base = str(tmp_path / "scene")
        with open(base + ".json", "w") as fh:
            fh.write("{not json")
        with pytest.raises(DataError, match="bad raster sidecar"):
            read_raster(base)


class TestPnm:
    def test_pgm_round_trip(self, rng, tmp_path):
        mask = GeoRaster(rng.integers(0, 4, (1, 6, 8)).astype(np.uint8),
                         NORTH_UP, nodata=255.0)
        base = str(tmp_path / "mask")
        write_pgm(mask, base)
        back = read_pgm(base)
        assert np.array_equal(back.data, mask.data)
        assert back.geotransform == mask.geotransform

    def test_pgm_casts_in_range_integers(self, tmp_path):
        mask = GeoRaster(np.array([[[0, 200]]], dtype=np.int32), NORTH_UP)
        base = str(tmp_path / "mask")
        write_pgm(mask, base)
        assert read_pgm(base).data.tolist() == [[[0, 200]]]

    def test_pgm_rejects_wide_values(self, tmp_path):
        mask = GeoRaster(np.array([[[0, 300]]], dtype=np.int32), NORTH_UP)
        with pytest.raises(DataError):
            write_pgm(mask, str(tmp_path / "mask"))

    def test_pgm_rejects_multichannel(self, tmp_path):
        with pytest.raises(ShapeError):
            write_pgm(GeoRaster(np.zeros((2, 2, 2)), NORTH_UP), str(tmp_path / "m"))

    def test_pgm_bad_magic(self, tmp_path):
        base = str(tmp_path / "mask")
        with open(base + ".pgm", "wb") as fh:
            fh.write(b"P2\n2 2\n255\n")
        with pytest.raises(DataError, match="magic"):
            read_pgm(base)

    def test_ppm_header_and_palette(self, tmp_path):
        mask = GeoRaster(np.array([[[0, 255]]], dtype=np.uint8), NORTH_UP)
        base = str(tmp_path / "preview")
        write_ppm(mask, base)
        blob = (tmp_path / "preview.ppm").read_bytes()
        assert blob.startswith(b"P6\n2 1\n255\n")
        pixels = np.frombuffer(blob[len(b"P6\n2 1\n255\n"):], dtype=np.uint8)
        assert pixels[:3].tolist() == [31, 119, 180]  # class 0 color
        assert pixels[3:].tolist() == [0, 0, 0]       # nodata renders black
