import math

import numpy as np
import pytest

from netsar.constants import SPEED_OF_LIGHT
from netsar.errors import DegenerateGeometryError, EmptyFootprintError
from netsar.forward import (
    MeasurementPatch,
    WaveformSpec,
    illuminated_pixels,
    synthesize_measurement,
)
from netsar.geometry import BaseStation, BeamSpec, EllipseFootprint, GroundPoint
from netsar.scene import Scene

WF = WaveformSpec(carrier_frequency=5e9, subcarrier_count=16, subcarrier_spacing=2e6)


def _sparse_scene(points, extent=40.0, resolution=1.0):
    n = math.ceil(extent / resolution)
    refl = np.zeros((n, n), dtype=complex)
    for (x, y), value in points:
        ix = int((x + extent / 2) / resolution)
        iy = int((y + extent / 2) / resolution)
        refl[ix, iy] = value
    return Scene(extent=(extent, extent), resolution=resolution, reflectivity=refl)


def _stations(orientation=math.pi / 2):
    tx = BaseStation(
        position=GroundPoint(300.0, 50.0, 40.0), antenna_count=1, station_id="tx"
    )
    rx = BaseStation(
        position=GroundPoint(250.0, -80.0, 35.0),
        antenna_count=4,
        antenna_spacing=0.03,
        array_orientation=orientation,
        station_id="rx",
    )
    return tx, rx


FOOTPRINT = EllipseFootprint(
    center=GroundPoint(0.0, 0.0),
    eccentricity=0.0,
    semi_major=25.0,
    semi_minor=25.0,
    major_axis_azimuth=0.0,
)
BEAM = BeamSpec(open_angle=0.2, tilt_angle=0.0)


def test_waveform_derived_quantities():
    assert WF.bandwidth == 16 * 2e6
    freqs = WF.frequencies()
    assert freqs[0] == 5e9 and freqs[-1] == 5e9 + 15 * 2e6
    assert np.allclose(WF.wavenumbers(), 2 * np.pi * freqs / SPEED_OF_LIGHT)


def test_forward_matches_brute_force_oracle():
    rng = np.random.default_rng(0)
    pts = [
        ((float(x), float(y)), complex(a, b))
        for (x, y), (a, b) in zip(
            rng.uniform(-15, 15, size=(7, 2)), rng.normal(size=(7, 2))
        )
    ]
    scene = _sparse_scene(pts)
    tx, rx = _stations()
    patch = synthesize_measurement(
        scene, tx, BEAM, rx, WF, region_center=GroundPoint(0.0, 0.0), footprint=FOOTPRINT
    )

    # independent triple-loop summation over the scene's nonzero pixels
    xs, ys = scene.pixel_centers()
    k = WF.wavenumbers()
    rx_pos = rx.antenna_positions()
    expected = np.zeros_like(patch.samples)
    for ix in range(len(xs)):
        for iy in range(len(ys)):
            g = scene.reflectivity[ix, iy]
            if g == 0:
                continue
            p = np.array([xs[ix], ys[iy], 0.0])
            d1 = np.linalg.norm(p - tx.position.as_array())
            for l in range(rx.antenna_count):
                d2 = np.linalg.norm(p - rx_pos[l])
                expected[l] += g / (d1 * d2) * np.exp(-1j * k * (d1 + d2))
    scale = np.abs(expected).max()
    assert np.abs(patch.samples - expected).max() / scale < 1e-12


def test_forward_skips_pixels_outside_footprint():
    inside = ((0.0, 0.0), 1.0 + 0.0j)
    outside = ((18.0, 18.0), 1.0 + 0.0j)  # radius ~25.5 > 25
    both = _sparse_scene([inside, outside])
    only = _sparse_scene([inside])
    tx, rx = _stations()
    kwargs = dict(region_center=GroundPoint(0.0, 0.0), footprint=FOOTPRINT)
    a = synthesize_measurement(both, tx, BEAM, rx, WF, **kwargs)
    b = synthesize_measurement(only, tx, BEAM, rx, WF, **kwargs)
    assert np.array_equal(a.samples, b.samples)


def test_illuminated_pixels_reads_the_scene_it_is_given():
    # one footprint object, several scenes: nothing may carry over between them
    inside = [((0.0, 0.0), 1.0 + 0.0j), ((3.0, -4.0), 2.0 - 1.0j)]
    other = [((-5.0, 7.0), 0.5j)]
    outside = ((18.0, 18.0), 1.0 + 0.0j)  # radius ~25.5 > 25
    for points in (inside + [outside], other, inside):
        scene = _sparse_scene(points)
        pixels, values = illuminated_pixels(scene, FOOTPRINT)
        xs, ys = scene.pixel_centers()
        ix, iy = np.nonzero(scene.reflectivity)
        lit = np.hypot(xs[ix], ys[iy]) <= FOOTPRINT.semi_major
        ix, iy = ix[lit], iy[lit]
        assert np.array_equal(pixels, np.stack([xs[ix], ys[iy], np.zeros(ix.size)], axis=1))
        assert np.array_equal(values, scene.reflectivity[ix, iy])
    # a footprint over dark pixels only: empty arrays, not an error
    pixels, values = illuminated_pixels(_sparse_scene([outside]), FOOTPRINT)
    assert pixels.shape == (0, 3) and values.size == 0


def test_forward_empty_footprint_raises():
    scene = _sparse_scene([((0.0, 0.0), 1.0 + 0.0j)])
    tx, rx = _stations()
    far = EllipseFootprint(
        center=GroundPoint(500.0, 500.0),
        eccentricity=0.0,
        semi_major=5.0,
        semi_minor=5.0,
        major_axis_azimuth=0.0,
    )
    with pytest.raises(EmptyFootprintError):
        synthesize_measurement(scene, tx, BEAM, rx, WF, footprint=far)


def test_forward_noise_deterministic_and_scaled():
    scene = _sparse_scene([((1.0, -2.0), 1.0 + 0.0j)])
    tx, rx = _stations()
    kwargs = dict(region_center=GroundPoint(0.0, 0.0), footprint=FOOTPRINT)
    clean = synthesize_measurement(scene, tx, BEAM, rx, WF, **kwargs)
    noisy1 = synthesize_measurement(scene, tx, BEAM, rx, WF, noise_power=1e-8, seed=5, **kwargs)
    noisy2 = synthesize_measurement(scene, tx, BEAM, rx, WF, noise_power=1e-8, seed=5, **kwargs)
    assert np.array_equal(noisy1.samples, noisy2.samples)
    delta = noisy1.samples - clean.samples
    power = np.mean(np.abs(delta) ** 2)
    assert 0.3e-8 < power < 3e-8


def test_patch_derives_geometry_from_its_stations():
    tx, rx = _stations()
    samples = np.zeros((rx.antenna_count, WF.subcarrier_count), dtype=complex)
    center = GroundPoint(5.0, -3.0)
    patch = MeasurementPatch(samples, tx, rx, WF, center)
    u = tx.position.as_array() - center.as_array()
    v = rx.position.as_array() - center.as_array()
    s = (u / np.linalg.norm(u) + v / np.linalg.norm(v))[:2]
    assert np.allclose(patch.direction, s / np.linalg.norm(s), atol=1e-15)
    assert math.isclose(patch.bistatic_scale, np.linalg.norm(s), rel_tol=1e-15)
    with pytest.raises(ValueError, match="sample grid"):
        MeasurementPatch(samples[:1], tx, rx, WF, center)
    # stations opposite each other across the center cancel the direction
    opposite = BaseStation(position=GroundPoint(-300.0, -50.0, 40.0), station_id="op")
    with pytest.raises(DegenerateGeometryError):
        MeasurementPatch(samples[:1], tx, opposite, WF, GroundPoint(0.0, 0.0))
