import math

import numpy as np
import pytest

from netsar.forward import MeasurementPatch, WaveformSpec, synthesize_measurement
from netsar.geometry import (
    BaseStation,
    BeamSpec,
    EllipseFootprint,
    GroundPoint,
    antenna_offsets,
)
from netsar.patches import (
    align_and_place,
    align_distance,
    misalignment_angle,
    wavenumber_vectors,
)
from netsar.scene import Scene

WF = WaveformSpec(carrier_frequency=5e9, subcarrier_count=32, subcarrier_spacing=2e6)

FOOTPRINT = EllipseFootprint(
    center=GroundPoint(0.0, 0.0),
    eccentricity=0.0,
    semi_major=20.0,
    semi_minor=20.0,
    major_axis_azimuth=0.0,
)
BEAM = BeamSpec(open_angle=0.2, tilt_angle=0.0)


def _point_scene(x, y, extent=40.0):
    n = int(extent)
    refl = np.zeros((n, n), dtype=complex)
    refl[int(x + extent / 2), int(y + extent / 2)] = 1.0
    return Scene(extent=(extent, extent), resolution=1.0, reflectivity=refl)


def _patch(point=(0.5, -0.5), rx_orientation=None, rx_pos=(0.0, 400.0, 50.0), n_ant=8):
    scene = _point_scene(*point)
    tx = BaseStation(position=GroundPoint(400.0, 0.0, 50.0), station_id="tx")
    if rx_orientation is None:
        # broadside to the receiver's line of sight from the origin
        rx_orientation = math.atan2(rx_pos[1], rx_pos[0]) - math.pi / 2
    rx = BaseStation(
        position=GroundPoint(*rx_pos),
        antenna_count=n_ant,
        antenna_spacing=0.03,
        array_orientation=rx_orientation,
        station_id="rx",
    )
    return synthesize_measurement(
        scene, tx, BEAM, rx, WF, region_center=GroundPoint(0.0, 0.0), footprint=FOOTPRINT
    )


def test_align_distance_center_scatterer_is_flattened():
    # a scatterer exactly at the region center must come out as a constant
    patch = _patch(point=(0.5, -0.5))
    center = GroundPoint(0.5, -0.5)
    patch = synthesize_measurement(
        _point_scene(0.5, -0.5),
        BaseStation(position=GroundPoint(400.0, 0.0, 50.0), station_id="tx"),
        BEAM,
        BaseStation(
            position=GroundPoint(0.0, 400.0, 50.0),
            antenna_count=1,
            station_id="rx",
        ),
        WF,
        region_center=center,
        footprint=FOOTPRINT,
    )
    flat = align_distance(patch)
    assert np.allclose(flat.samples, 1.0, atol=1e-9)


def test_misalignment_angle_zero_at_broadside():
    patch = _patch()
    assert abs(misalignment_angle(patch)) < 1e-12
    rotated = _patch(rx_orientation=math.atan2(400.0, 0.0) - math.pi / 2 + 0.3)
    assert math.isclose(misalignment_angle(rotated), 0.3, abs_tol=1e-12)


def test_align_orientation_removes_array_ramp():
    # rotating the array adds a near-linear phase ramp across antennas;
    # align_and_place's orientation step should restore the broadside
    # phase progression (its distance step is one factor per subcarrier)
    base = align_and_place(_patch(point=(2.0, 1.0)))
    rotated = _patch(
        point=(2.0, 1.0), rx_orientation=math.atan2(400.0, 0.0) - math.pi / 2 + 0.25
    )
    fixed = align_and_place(rotated)
    phase_base = np.unwrap(np.angle(base.samples[:, 0]))
    phase_fixed = np.unwrap(np.angle(fixed.samples[:, 0]))
    ramp_base = np.diff(phase_base)
    ramp_fixed = np.diff(phase_fixed)
    ramp_raw = np.diff(np.unwrap(np.angle(align_distance(rotated).samples[:, 0])))
    assert np.abs(ramp_fixed - ramp_base).max() < np.abs(ramp_raw - ramp_base).max() * 0.05


def test_align_orientation_identity_at_broadside():
    # at broadside align_and_place is the distance step alone
    patch = _patch()
    assert np.array_equal(align_and_place(patch).samples, align_distance(patch).samples)


@pytest.mark.parametrize("subcarrier_count", [256, 37, 1])
def test_align_orientation_ramp_equals_the_direct_exponential(subcarrier_count):
    # the ramp is formed from separable phasors; it must equal exp(j a_l k_m)
    wf = WaveformSpec(
        carrier_frequency=5e9, subcarrier_count=subcarrier_count, subcarrier_spacing=2e6
    )
    rx = BaseStation(
        position=GroundPoint(0.0, 400.0, 60.0),
        antenna_count=64,
        antenna_spacing=0.029979,
        array_orientation=0.7,
        station_id="rx",
    )
    tx = BaseStation(position=GroundPoint(400.0, 0.0, 60.0), station_id="tx")
    rng = np.random.default_rng(3)
    samples = rng.normal(size=(64, subcarrier_count)) + 1j * rng.normal(
        size=(64, subcarrier_count)
    )
    patch = MeasurementPatch(samples, tx, rx, wf, GroundPoint(3.0, -2.0))
    a = antenna_offsets(64, 0.029979) * math.sin(misalignment_angle(patch))
    ramp = np.exp(1j * np.outer(a, wf.wavenumbers()))
    # align_and_place applies the distance correction, then this ramp
    np.testing.assert_allclose(
        align_and_place(patch).samples,
        align_distance(patch).samples * ramp,
        rtol=1e-12,
        atol=0,
    )


def test_wavenumber_vectors_coordinates():
    patch = _patch(n_ant=4)
    coords = wavenumber_vectors(patch)[..., :2]
    assert coords.shape == patch.samples.shape + (2,)
    # check one sample against the definition
    k = WF.wavenumbers()
    l, m = 2, 7
    tx_pos = patch.tx.position.as_array()
    u_tx = tx_pos / np.linalg.norm(tx_pos)
    a = patch.rx.antenna_positions()[l]
    u_rx = a / np.linalg.norm(a)
    expected = k[m] * (u_tx + u_rx)[:2]
    assert np.allclose(coords[l, m], expected, rtol=1e-12)
    # radial subcarrier spacing carries the bistatic scale factor
    step = np.linalg.norm(coords[l, m + 1] - coords[l, m])
    b = np.linalg.norm((u_tx + u_rx)[:2])
    assert math.isclose(step, 2 * math.pi * 2e6 / 299792458.0 * b, rel_tol=1e-9)


def test_align_and_place_phase_matches_far_field_model():
    # after full conditioning, sample phase should be +K . p for an
    # off-center point scatterer at p, up to far-field curvature
    p = np.array([3.5, -1.5])  # on a pixel center of the 1 m grid
    patch = _patch(point=tuple(p), n_ant=4)
    aligned = align_and_place(patch)
    model = np.exp(1j * wavenumber_vectors(aligned)[..., :2] @ p)
    observed = aligned.samples / np.abs(aligned.samples)
    err = np.angle(observed * np.conj(model))
    # residual is bounded by the quadratic far-field curvature of each leg
    k_max = WF.wavenumbers()[-1]
    tx_pos = patch.tx.position.as_array()
    rx_pos = patch.rx.position.as_array()
    d_tx = np.linalg.norm(tx_pos - np.array([p[0], p[1], 0.0]))
    d_rx = np.linalg.norm(rx_pos - np.array([p[0], p[1], 0.0]))
    bound = k_max * (p @ p) * (0.5 / d_tx + 0.5 / d_rx)
    assert np.abs(err).max() < 1.2 * bound

    # exact model: aligned phase is k_m (D_center - d1 - d2l) per sample
    k = WF.wavenumbers()
    pt = np.array([p[0], p[1], 0.0])
    d1 = np.linalg.norm(tx_pos - pt)
    d_tx0 = np.linalg.norm(tx_pos)
    exact_err = []
    for l, a in enumerate(patch.rx.antenna_positions()):
        d2 = np.linalg.norm(a - pt)
        d_rx0 = np.linalg.norm(rx_pos)
        exact = np.exp(1j * k * (d_tx0 + d_rx0 - d1 - d2))
        exact_err.append(np.angle(observed[l] * np.conj(exact)))
    assert np.abs(np.array(exact_err)).max() < 1e-9


def test_align_and_place_matches_the_model_far_off_broadside():
    # seen through 64 antennas 1.98 rad off broadside, a point target's
    # orientation ramp spans about 100 rad at the top subcarrier: without
    # it the samples miss exp(+j k . (p - c)) by up to pi. align_and_place
    # leaves the far-field curvature and the ramp's neglect of the
    # receiver's elevation, about 0.8 rad here.
    p = np.array([0.5, -0.5, 0.0])
    broadside = math.atan2(400.0, 0.0) - math.pi / 2
    patch = _patch(point=tuple(p[:2]), rx_orientation=broadside + 1.98, n_ant=64)
    model = np.exp(1j * wavenumber_vectors(patch) @ p)

    def miss(aligned):
        return np.abs(np.angle(aligned.samples * np.conj(model))).max()

    assert miss(align_distance(patch)) > 3.0
    assert miss(align_and_place(patch)) < 1.0
