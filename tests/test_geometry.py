import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from netsar.errors import DegenerateGeometryError, InvalidBeamError
from netsar.geometry import (
    BaseStation,
    BeamSpec,
    GroundPoint,
    RotatedFrame,
    beam_footprint,
    bistatic_look,
    points_in_footprint,
)

finite = st.floats(-1e3, 1e3, allow_nan=False)
ORIGIN = GroundPoint(0.0, 0.0)


def test_ground_point_rejects_nonfinite():
    with pytest.raises(ValueError):
        GroundPoint(float("nan"), 0.0)


def test_antenna_positions_centered_and_spaced():
    bs = BaseStation(
        position=GroundPoint(10.0, -5.0, 30.0),
        antenna_count=8,
        antenna_spacing=0.5,
        array_orientation=math.pi / 3,
    )
    pos = bs.antenna_positions()
    assert pos.shape == (8, 3)
    # centered on the station
    assert np.allclose(pos.mean(axis=0), [10.0, -5.0, 30.0])
    steps = np.diff(pos, axis=0)
    assert np.allclose(np.linalg.norm(steps, axis=1), 0.5)
    assert np.allclose(pos[:, 2], 30.0)


def test_bistatic_direction_is_unit_sum_of_units():
    tx = GroundPoint(300.0, 0.0, 30.0)
    rx = GroundPoint(0.0, 300.0, 30.0)
    d, scale = bistatic_look(tx, rx, ORIGIN)
    s = sum(p.as_array() / np.linalg.norm(p.as_array()) for p in (tx, rx))
    assert np.allclose(d, s[:2] / np.linalg.norm(s[:2]))
    assert math.isclose(np.linalg.norm(d), 1.0)
    assert math.isclose(scale, np.linalg.norm(s[:2]))


def test_bistatic_direction_degenerate_opposite_stations():
    tx = GroundPoint(100.0, 0.0, 10.0)
    rx = GroundPoint(-100.0, 0.0, 10.0)
    with pytest.raises(DegenerateGeometryError):
        bistatic_look(tx, rx, ORIGIN)


def test_bistatic_factor_bounds():
    tx = GroundPoint(500.0, 1.0, 40.0)
    rx = GroundPoint(490.0, -3.0, 40.0)
    _, b = bistatic_look(tx, rx, ORIGIN)
    assert 0.0 < b <= 2.0


def test_beam_spec_validates_cone_edge():
    with pytest.raises(InvalidBeamError):
        BeamSpec(open_angle=math.radians(20), tilt_angle=math.radians(85))


def test_vertical_beam_footprint_is_circle():
    bs = BaseStation(position=GroundPoint(0.0, 0.0, 100.0))
    beam = BeamSpec(open_angle=math.radians(30), tilt_angle=0.0)
    fp = beam_footprint(bs, beam)
    assert math.isclose(fp.eccentricity, 0.0, abs_tol=1e-12)
    assert math.isclose(fp.semi_major, 100.0 * math.tan(math.radians(15)))
    assert math.isclose(fp.semi_major, fp.semi_minor)
    assert math.isclose(fp.center.x, 0.0, abs_tol=1e-12)


def test_tilted_footprint_center_and_eccentricity():
    h = 60.0
    phi = math.radians(40)
    theta = math.radians(10)
    bs = BaseStation(position=GroundPoint(0.0, 0.0, h))
    beam = BeamSpec(open_angle=theta, tilt_angle=phi, planar_angle=0.0)
    fp = beam_footprint(bs, beam)
    assert math.isclose(fp.center.x, h * math.tan(phi))
    assert math.isclose(fp.eccentricity, math.sin(phi) / math.cos(theta / 2))
    expected_a = 0.5 * h * (math.tan(phi + theta / 2) - math.tan(phi - theta / 2))
    assert math.isclose(fp.semi_major, expected_a)
    assert math.isclose(fp.semi_minor, expected_a * math.sqrt(1 - fp.eccentricity**2))
    beyond = (fp.center.x + fp.semi_major + 0.1, 0.0)
    inside = points_in_footprint(np.array([fp.center.horizontal(), beyond]), fp)
    assert inside.tolist() == [True, False]


def test_points_in_footprint_matches_the_parametric_boundary():
    bs = BaseStation(position=GroundPoint(5.0, -2.0, 80.0))
    beam = BeamSpec(
        open_angle=math.radians(12),
        tilt_angle=math.radians(30),
        planar_angle=1.1,
    )
    fp = beam_footprint(bs, beam)
    # (a cos t, b sin t) rotated by the major axis azimuth traces the boundary
    t = np.linspace(0.0, 2.0 * np.pi, 200, endpoint=False)
    u, v = fp.semi_major * np.cos(t), fp.semi_minor * np.sin(t)
    ca, sa = math.cos(fp.major_axis_azimuth), math.sin(fp.major_axis_azimuth)
    boundary = np.stack([u * ca - v * sa, u * sa + v * ca], axis=1)
    center = fp.center.horizontal()
    assert points_in_footprint(center + 0.99 * boundary, fp).all()
    assert not points_in_footprint(center + 1.01 * boundary, fp).any()


@given(st.floats(0, 2 * math.pi), st.lists(finite, min_size=2, max_size=2))
def test_rotated_frame_round_trip(angle, xy):
    frame = RotatedFrame(np.array([math.cos(angle), math.sin(angle)]))
    pt = np.array(xy)
    back = frame.to_ground(frame.to_patch(pt))
    assert np.allclose(back, pt, atol=1e-9)


def test_rotated_frame_preserves_norm():
    frame = RotatedFrame(np.array([0.6, 0.8]))
    v = np.array([3.0, -4.0])
    assert math.isclose(np.linalg.norm(frame.to_patch(v)), 5.0)
