"""Synthetic scenes and tiles for experiments and tests.

Every generator is a pure function of its seed. Classes get well-separated
spectral signatures so small networks can overfit a single tile quickly,
which keeps end-to-end runs cheap.
"""

from __future__ import annotations

import numpy as np

from .errors import to_json
from .tensor import SeededRng, mix_seed
from .wkt import WktGeometry, to_wkt

__all__ = [
    "class_signatures",
    "block_labels",
    "make_tile",
    "make_scene",
    "scene_label_shapes",
    "shapes_to_json",
    "make_scl",
]


def class_signatures(num_classes: int, channels: int) -> np.ndarray:
    """[num_classes, channels] reflectance-like means, pairwise distinct."""
    sig = np.empty((num_classes, channels), dtype=np.float64)
    for c in range(num_classes):
        for ch in range(channels):
            sig[c, ch] = 0.1 + 0.8 * (((c + ch) % num_classes) / max(num_classes - 1, 1))
    return sig


def block_labels(height: int, width: int, num_classes: int, block: int) -> np.ndarray:
    """u8 label plane tiled with `block`-sized squares cycling the classes."""
    ys = np.arange(height) // block
    xs = np.arange(width) // block
    nx = (width + block - 1) // block
    return ((ys[:, None] * nx + xs[None, :]) % num_classes).astype(np.uint8)


def make_tile(seed: int, size: int = 32, channels: int = 4, num_classes: int = 4,
              noise: float = 0.05):
    """One training tile: (image f64 [C,H,W], labels u8 [H,W]).

    The label plane is a 2x2 quadrant layout (block = size//2) so every
    class is present; pixels carry the class signature plus uniform noise.
    """
    labels = block_labels(size, size, num_classes, max(size // 2, 1))
    sig = class_signatures(num_classes, channels)
    rng = SeededRng(mix_seed(seed, "tile"))
    data = sig[labels].transpose(2, 0, 1).astype(np.float64)
    data += rng.uniform(-noise, noise, (channels, size, size))
    return data, labels


def make_scene(seed: int, height: int = 64, width: int = 64, channels: int = 4,
               num_classes: int = 4, block: int = 16, noise: float = 0.05,
               geotransform=(1000.0, 10.0, 0.0, 2000.0, 0.0, -10.0)):
    """A full scene: (data f32 [C,H,W], labels u8 [H,W], geotransform)."""
    labels = block_labels(height, width, num_classes, block)
    sig = class_signatures(num_classes, channels)
    rng = SeededRng(mix_seed(seed, "scene"))
    data = sig[labels].transpose(2, 0, 1)
    data = data + rng.uniform(-noise, noise, (channels, height, width))
    return data.astype(np.float32), labels, tuple(geotransform)


def scene_label_shapes(height: int, width: int, num_classes: int, block: int,
                       geotransform) -> list[tuple[int, WktGeometry]]:
    """Rectangle polygons reproducing `block_labels` when rasterized."""
    gt0, gt1, _, gt3, _, gt5 = geotransform
    shapes: list[tuple[int, WktGeometry]] = []
    ny = (height + block - 1) // block
    nx = (width + block - 1) // block
    for by in range(ny):
        for bx in range(nx):
            cls = (by * nx + bx) % num_classes
            x0, x1 = bx * block, min((bx + 1) * block, width)
            y0, y1 = by * block, min((by + 1) * block, height)
            xa, xb = gt0 + x0 * gt1, gt0 + x1 * gt1
            ya, yb = gt3 + y0 * gt5, gt3 + y1 * gt5
            ring = ((xa, ya), (xb, ya), (xb, yb), (xa, yb), (xa, ya))
            shapes.append((cls, WktGeometry("POLYGON", (ring,))))
    return shapes


def shapes_to_json(shapes) -> str:
    """Label shapes as a JSON list of {"class": int, "wkt": str}."""
    return to_json([{"class": int(cls), "wkt": to_wkt(geom)} for cls, geom in shapes])


def make_scl(height: int, width: int, cloud_rows: int = 4, cloud_cols: int = 4,
             cloud_class: int = 9, clear_class: int = 4) -> np.ndarray:
    """Scene-classification plane with one cloudy corner patch."""
    scl = np.full((height, width), clear_class, dtype=np.uint8)
    scl[:cloud_rows, :cloud_cols] = cloud_class
    return scl
