"""Ground-truth reflectivity scenes.

A scene is a complex reflectivity grid on the ground plane, centered on
the origin, with an optional surface-height grid of identical shape.
The standard scenario scatters a handful of small square reflectors of
unit magnitude over a dark background, with independent uniform random
phase per pixel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .geometry import GroundPoint
from .imageio import read_table, write_table


@dataclass(frozen=True)
class ReflectorSpec:
    """An axis-aligned square reflector on the ground."""

    center: GroundPoint
    side: float
    magnitude: float = 1.0
    height: float = 0.0

    def __post_init__(self):
        if self.side <= 0:
            raise ValueError("reflector side must be positive")
        if self.magnitude < 0 or self.height < 0:
            raise ValueError("magnitude and height must be nonnegative")


@dataclass(frozen=True)
class Scene:
    """Complex reflectivity field on a regular ground grid.

    ``reflectivity`` is indexed [ix, iy]; pixel (ix, iy) is centered at
    ``pixel_centers``. The grid covers ``extent`` meters centered on the
    origin. ``height``, when present, shares the grid shape.
    """

    extent: tuple[float, float]
    resolution: float
    reflectivity: np.ndarray
    height: np.ndarray | None = None
    reflectors: tuple[ReflectorSpec, ...] = ()

    def __post_init__(self):
        nx = math.ceil(self.extent[0] / self.resolution)
        ny = math.ceil(self.extent[1] / self.resolution)
        if self.reflectivity.shape != (nx, ny):
            raise ValueError(
                f"reflectivity shape {self.reflectivity.shape} != ceil(extent/resolution) {(nx, ny)}"
            )
        if self.height is not None and self.height.shape != self.reflectivity.shape:
            raise ValueError("height grid shape must match reflectivity")

    @property
    def shape(self) -> tuple[int, int]:
        return self.reflectivity.shape

    def pixel_centers(self) -> tuple[np.ndarray, np.ndarray]:
        """1-D arrays of pixel-center x and y coordinates."""
        nx, ny = self.shape
        xs = (np.arange(nx) + 0.5) * self.resolution - self.extent[0] / 2.0
        ys = (np.arange(ny) + 0.5) * self.resolution - self.extent[1] / 2.0
        return xs, ys


def _windows(xs, ys, reflectors):
    """Index window per reflector: the (x, y) slices of the pixels whose
    centers lie inside its square."""
    windows = []
    for ref in reflectors:
        half = ref.side / 2.0
        ix = np.flatnonzero(np.abs(xs - ref.center.x) <= half)
        iy = np.flatnonzero(np.abs(ys - ref.center.y) <= half)
        windows.append(
            (slice(ix[0], ix[-1] + 1), slice(iy[0], iy[-1] + 1))
            if ix.size and iy.size
            else (slice(0, 0), slice(0, 0))
        )
    return windows


def random_reflector_scene(
    extent: tuple[float, float],
    count: int,
    side: float,
    seed: int,
    resolution: float = 1.0,
    magnitude: float = 1.0,
) -> Scene:
    """Scene with ``count`` random unit squares on a dark background.

    Square centers are uniform over positions keeping the square fully
    inside the extent; overlap is permitted and takes the maximum
    magnitude. Every nonzero pixel gets an independent uniform phase in
    [0, 2pi). Deterministic given the seed.
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    if side > min(extent):
        raise ValueError("reflector side exceeds scene extent")
    nx = math.ceil(extent[0] / resolution)
    ny = math.ceil(extent[1] / resolution)
    rng = np.random.default_rng(seed)
    half = side / 2.0
    cx = rng.uniform(-extent[0] / 2 + half, extent[0] / 2 - half, size=count)
    cy = rng.uniform(-extent[1] / 2 + half, extent[1] / 2 - half, size=count)
    reflectors = tuple(
        ReflectorSpec(center=GroundPoint(float(x), float(y)), side=side, magnitude=magnitude)
        for x, y in zip(cx, cy)
    )
    xs = (np.arange(nx) + 0.5) * resolution - extent[0] / 2.0
    ys = (np.arange(ny) + 0.5) * resolution - extent[1] / 2.0
    mag = np.zeros((nx, ny))
    for window in _windows(xs, ys, reflectors):
        np.maximum(mag[window], magnitude, out=mag[window])
    # a dark pixel is 0+0j with or without a phase, so draw phases for the
    # lit pixels only, in row-major order
    nonzero = mag > 0
    phase = rng.uniform(0.0, 2 * np.pi, size=int(nonzero.sum()))
    reflectivity = np.zeros((nx, ny), dtype=complex)
    reflectivity[nonzero] = mag[nonzero] * np.exp(1j * phase)
    return Scene(
        extent=extent,
        resolution=resolution,
        reflectivity=reflectivity,
        reflectors=reflectors,
    )


def set_height_profile(scene: Scene, reflectors: list[ReflectorSpec]) -> Scene:
    """Scene copy whose height grid carries the reflector heights.

    Background height is zero; overlapping reflectors take the maximum
    height (solid, opaque reflectors).
    """
    xs, ys = scene.pixel_centers()
    height = np.zeros(scene.shape)
    for ref, window in zip(reflectors, _windows(xs, ys, reflectors)):
        np.maximum(height[window], ref.height, out=height[window])
    return replace(scene, height=height)


SCENE_COLUMNS = ["x_index", "y_index", "re", "im", "height"]


def scene_to_csv(scene: Scene, path) -> None:
    """One row per pixel whose reflectivity or height is nonzero."""
    height = np.zeros(scene.shape) if scene.height is None else scene.height
    ix, iy = np.nonzero((scene.reflectivity != 0) | (height != 0))
    values = scene.reflectivity[ix, iy]
    columns = (ix, iy, values.real, values.imag, height[ix, iy])
    write_table(path, SCENE_COLUMNS, zip(*(c.tolist() for c in columns)))


def scene_from_csv(path, extent: tuple[float, float], resolution: float) -> Scene:
    """Scene from :func:`scene_to_csv` rows; pixels absent from the file are zero."""
    nx = math.ceil(extent[0] / resolution)
    ny = math.ceil(extent[1] / resolution)
    reflectivity = np.zeros((nx, ny), dtype=complex)
    height = np.zeros((nx, ny))
    for row in read_table(path)[1]:
        ix, iy = int(row[0]), int(row[1])
        reflectivity[ix, iy] = float(row[2]) + 1j * float(row[3])
        height[ix, iy] = float(row[4])
    if not np.any(height):
        height = None
    return Scene(
        extent=extent, resolution=resolution, reflectivity=reflectivity, height=height
    )
