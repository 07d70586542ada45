"""Spatial geometry for multistatic ground imaging.

Station arrays, composite bistatic look directions and scale factors,
beam-cone ground footprints, and the rotation between the ground frame
and per-patch (range, cross) frames.

All slicing computations take positions relative to an explicit
illuminated-region center; callers pass the center instead of assuming
the scene origin. Everything here is a pure function over immutable
values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateGeometryError, InvalidBeamError

_DEGENERATE_EPS = 1e-12


@dataclass(frozen=True)
class GroundPoint:
    """A point in the ground frame, z up (z = 0 on the ground plane)."""

    x: float
    y: float
    z: float = 0.0

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.x, self.y, self.z)):
            raise ValueError("GroundPoint coordinates must be finite")

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z], dtype=float)

    def horizontal(self) -> np.ndarray:
        return np.array([self.x, self.y], dtype=float)


def antenna_offsets(count: int, spacing: float) -> np.ndarray:
    """Signed offsets of a centered uniform linear array along its axis."""
    return (np.arange(count) - (count - 1) / 2.0) * spacing


@dataclass(frozen=True)
class BaseStation:
    """An elevated station with a uniform linear antenna array.

    The array is centered on the station position, lies in a horizontal
    plane, and points along ``array_orientation`` (azimuth, radians).
    """

    position: GroundPoint
    antenna_count: int = 1
    antenna_spacing: float = 0.5
    array_orientation: float = 0.0
    station_id: str = "bs"

    def __post_init__(self):
        if self.position.z <= 0:
            raise ValueError("station height must be positive")
        if self.antenna_count < 1:
            raise ValueError("antenna_count must be >= 1")
        if self.antenna_spacing <= 0:
            raise ValueError("antenna_spacing must be positive")

    @property
    def height(self) -> float:
        return self.position.z

    def antenna_positions(self) -> np.ndarray:
        """Phase centers of the array, shape (antenna_count, 3)."""
        axis = np.array(
            [math.cos(self.array_orientation), math.sin(self.array_orientation), 0.0]
        )
        offsets = antenna_offsets(self.antenna_count, self.antenna_spacing)
        return self.position.as_array()[None, :] + offsets[:, None] * axis[None, :]


@dataclass(frozen=True)
class BeamSpec:
    """A hard-edged illumination cone.

    ``open_angle`` is the full cone angle, ``tilt_angle`` the deviation of
    the beam axis from vertical, and ``planar_angle`` the azimuth of the
    beam axis in the ground plane.
    """

    open_angle: float
    tilt_angle: float
    planar_angle: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.open_angle < math.pi:
            raise InvalidBeamError(f"open_angle {self.open_angle} outside (0, pi)")
        if not 0.0 <= self.tilt_angle < math.pi / 2:
            raise InvalidBeamError(f"tilt_angle {self.tilt_angle} outside [0, pi/2)")
        if self.tilt_angle + self.open_angle / 2 >= math.pi / 2:
            raise InvalidBeamError(
                "cone edge parallel to ground: tilt + open/2 must stay below pi/2"
            )


@dataclass(frozen=True)
class EllipseFootprint:
    """Elliptic ground footprint of a tilted beam cone."""

    center: GroundPoint
    eccentricity: float
    semi_major: float
    semi_minor: float
    major_axis_azimuth: float

    def __post_init__(self):
        if not 0.0 <= self.eccentricity < 1.0:
            raise ValueError("eccentricity must lie in [0, 1)")
        if self.semi_major <= 0:
            raise ValueError("semi_major must be positive")
        expected_minor = self.semi_major * math.sqrt(1.0 - self.eccentricity**2)
        if not math.isclose(self.semi_minor, expected_minor, rel_tol=1e-9):
            raise ValueError("semi_minor inconsistent with semi_major and eccentricity")


def bistatic_look(
    tx: GroundPoint, rx: GroundPoint, center: GroundPoint
) -> tuple[np.ndarray, float]:
    """Composite look direction and bistatic scale factor at a region center.

    Sums the unit vectors from the center toward tx and rx and keeps the
    ground-plane part: its norm is the range scale factor (2 for
    monostatic, shrinking with the bistatic angle) and its direction the
    unit look direction. Equal-travel-time loci are straight lines
    perpendicular to that direction under the far-field approximation.
    """
    r1 = tx.as_array() - center.as_array()
    r2 = rx.as_array() - center.as_array()
    n1 = np.linalg.norm(r1)
    n2 = np.linalg.norm(r2)
    if n1 <= 0 or n2 <= 0:
        raise ValueError("station coincides with the region center")
    s = (r1 / n1 + r2 / n2)[:2]
    scale = float(np.linalg.norm(s))
    if scale < _DEGENERATE_EPS:
        raise DegenerateGeometryError(
            "tx and rx directions cancel; composite direction undefined"
        )
    return s / scale, scale


def beam_footprint(bs: BaseStation, beam: BeamSpec) -> EllipseFootprint:
    """Ground ellipse illuminated by a tilted cone from the station apex."""
    h = bs.height
    phi = beam.tilt_angle
    theta = beam.open_angle
    psi = beam.planar_angle
    cx = bs.position.x + h * math.tan(phi) * math.cos(psi)
    cy = bs.position.y + h * math.tan(phi) * math.sin(psi)
    ecc = math.sin(phi) / math.cos(theta / 2)
    a = 0.5 * h * (math.tan(phi + theta / 2) - math.tan(phi - theta / 2))
    b = a * math.sqrt(1.0 - ecc**2)
    return EllipseFootprint(
        center=GroundPoint(cx, cy, 0.0),
        eccentricity=ecc,
        semi_major=a,
        semi_minor=b,
        major_axis_azimuth=psi,
    )


def points_in_footprint(xy: np.ndarray, f: EllipseFootprint) -> np.ndarray:
    """True where each of an (N, 2) array of ground points lies inside or
    on the footprint ellipse."""
    dx = xy[:, 0] - f.center.x
    dy = xy[:, 1] - f.center.y
    ca = math.cos(f.major_axis_azimuth)
    sa = math.sin(f.major_axis_azimuth)
    u = dx * ca + dy * sa
    v = -dx * sa + dy * ca
    return (u / f.semi_major) ** 2 + (v / f.semi_minor) ** 2 <= 1.0


@dataclass(frozen=True)
class RotatedFrame:
    """Rotation between the ground frame and a patch (range, cross) frame.

    Range axis = the given direction; cross axis = range axis rotated
    +90 degrees counterclockwise (fixed handedness convention).
    """

    direction: np.ndarray
    matrix: np.ndarray = field(init=False)

    def __post_init__(self):
        d = np.asarray(self.direction, dtype=float)
        if abs(np.linalg.norm(d) - 1.0) > 1e-9:
            raise ValueError("direction must be a unit vector")
        cross = np.array([-d[1], d[0]])
        object.__setattr__(self, "matrix", np.stack([d, cross]))

    def to_patch(self, xy: np.ndarray) -> np.ndarray:
        """Ground (…, 2) coordinates to (range, cross) patch coordinates."""
        return np.asarray(xy, dtype=float) @ self.matrix.T

    def to_ground(self, rc: np.ndarray) -> np.ndarray:
        """(range, cross) patch coordinates back to the ground frame."""
        return np.asarray(rc, dtype=float) @ self.matrix

