import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import netsar
from netsar import forward
from netsar.cli import build_network, build_scene, channel_waveform
from netsar.config import RunConfig
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


def _random_scene(seed, count):
    rng = np.random.default_rng(seed)
    return _sparse_scene(
        [
            ((float(x), float(y)), complex(a, b))
            for (x, y), (a, b) in zip(
                rng.uniform(-15, 15, size=(count, 2)), rng.normal(size=(count, 2))
            )
        ]
    )


def _direct_sum(pix, values, tx_pos, rx_pos, k):
    """Each antenna's exp(-1j*k*(d_tx + d_rx)) sum, one np.exp per sample."""
    d_tx = np.linalg.norm(pix - tx_pos[None, :], axis=1)
    expected = np.zeros((len(rx_pos), k.size), dtype=complex)
    for l, position in enumerate(rx_pos):
        d_rx = np.linalg.norm(pix - position[None, :], axis=1)
        expected[l] = np.exp(-1j * np.outer(k, d_tx + d_rx)) @ (values / (d_tx * d_rx))
    return expected


def _within_a_complex64_step(stored, expected, bound=1e-9):
    """Each component of stored is expected's, within bound of the largest
    |sample| and the half step of its rounding to complex64."""
    assert stored.dtype == np.complex64
    slack = bound * np.abs(expected).max()
    for part in (np.real, np.imag):
        step = np.spacing(np.abs(part(expected)).astype(np.float32)).astype(float)
        assert np.all(np.abs(part(stored) - part(expected)) <= 0.5 * step + slack)


@pytest.mark.parametrize(
    "wf, bound",
    [(dataclasses.replace(WF, subcarrier_count=m), 1e-14) for m in (1, 7, 37, 300)]
    # 2 to 110 MHz: the band spans more than an octave
    + [(WaveformSpec(carrier_frequency=2e6, subcarrier_count=37, subcarrier_spacing=3e6), 1e-12)],
    ids=["M1", "M7", "M37", "M300", "octaves"],
)
def test_split_phase_synthesis_matches_the_direct_sum(wf, bound):
    # the exact path, and the stored path, whose phases split into
    # isqrt(M) low and ceil(M / isqrt(M)) high powers: counts that are
    # not a whole number of isqrt(M) columns leave trimmed ones
    scene = _random_scene(4, 9)
    tx, rx = _stations()
    kwargs = dict(region_center=GroundPoint(0.0, 0.0), footprint=FOOTPRINT)
    patch = synthesize_measurement(scene, tx, BEAM, rx, wf, **kwargs)
    expected = _direct_sum(
        *illuminated_pixels(scene, FOOTPRINT),
        tx.position.as_array(),
        rx.antenna_positions(),
        wf.wavenumbers(),
    )
    scale = np.abs(expected).max()
    assert patch.samples.dtype == np.complex128
    assert np.abs(patch.samples - expected).max() / scale < bound
    stored = synthesize_measurement(scene, tx, BEAM, rx, wf, **kwargs, dtype=np.complex64)
    _within_a_complex64_step(stored.samples, expected)


def test_synthesis_does_not_depend_on_participants_or_block_size(monkeypatch):
    # 20 antennas: at a budget of eight antennas' terms, two full blocks and
    # a short one of 4; 37 subcarriers leave the last isqrt(37) = 6 stored
    # columns trimmed; on the exact path and on the stored one
    scene = _random_scene(3, 9)
    tx, rx = _stations()
    rx = dataclasses.replace(rx, antenna_count=20)
    pix, values = illuminated_pixels(scene, FOOTPRINT)
    terms = forward._TERMS
    for wf in (WF, dataclasses.replace(WF, subcarrier_count=37)):
        for dtype in (complex, np.complex64):
            monkeypatch.setattr(forward, "_TERMS", terms)
            patch = synthesize_measurement(
                scene, tx, BEAM, rx, wf,
                region_center=GroundPoint(0.0, 0.0), footprint=FOOTPRINT, dtype=dtype,
            )
            assert np.any(patch.samples)
            args = (pix, values, tx.position.as_array(), rx.antenna_positions(), wf.wavenumbers())
            per_antenna = values.size * wf.subcarrier_count
            # eight antennas per block, then a budget below one antenna's
            # terms: one antenna per block
            for budget in (8 * per_antenna, 1):
                monkeypatch.setattr(forward, "_TERMS", budget)
                samples = np.zeros_like(patch.samples)
                forward._antenna_sums(samples, *args)
                assert samples.tobytes() == patch.samples.tobytes(), (wf, dtype, budget)


def test_synthesis_at_the_largest_crowded_block(monkeypatch):
    # crowded lights up to 56 pixels per patch, on 64 antennas and 256
    # subcarriers: the budget takes 9 antennas per block there
    scene = _random_scene(5, 64)
    tx, rx = _stations()
    rx = dataclasses.replace(rx, antenna_count=64)
    wf = dataclasses.replace(WF, subcarrier_count=256)
    pix, values = illuminated_pixels(scene, FOOTPRINT)
    assert values.size >= 56
    assert forward._TERMS // (values.size * 256) > 1
    args = (pix, values, tx.position.as_array(), rx.antenna_positions(), wf.wavenumbers())
    expected = _direct_sum(*args)
    runs = {}
    for terms in (forward._TERMS, 1):
        monkeypatch.setattr(forward, "_TERMS", terms)
        runs[terms] = np.zeros_like(expected)
        forward._antenna_sums(runs[terms], *args)
    block, single = runs.values()
    scale = np.abs(expected).max()
    assert np.abs(block - expected).max() / scale < 1e-14
    assert single.tobytes() == block.tobytes()


def _random_geometry(rng, m, octave):
    """(pixels, values, tx position, rx antenna positions, wavenumbers) of m
    evenly spaced subcarriers; the band spans more than an octave unless
    octave is set (or m is 1)."""
    n_pix = int(rng.integers(1, 61))
    n_ant = int(rng.integers(1, 71))
    pix = np.column_stack([rng.uniform(-60, 60, (n_pix, 2)), rng.uniform(0, 5, n_pix)])
    values = rng.normal(size=n_pix) + 1j * rng.normal(size=n_pix)
    tx_pos = np.append(rng.uniform(-800, 800, 2), rng.uniform(10, 60))
    rx_pos = np.append(rng.uniform(-800, 800, 2), rng.uniform(10, 60))
    rx_pos = rx_pos + np.outer(np.arange(n_ant), rng.uniform(-0.05, 0.05, 3))
    if octave or m == 1:
        # the band ends below twice its first frequency
        f0 = rng.uniform(1e9, 60e9)
        spacing = rng.uniform(0.01, 1.0) * f0 / max(m - 1, 1)
    else:
        # a few MHz: the band spans more than an octave
        f0 = rng.uniform(1e6, 5e6)
        spacing = rng.uniform(1.1, 3.0) * f0
    k = 2.0 * np.pi * (f0 + np.arange(m) * spacing) / SPEED_OF_LIGHT
    assert (k[-1] <= 2.0 * k[0]) == (octave or m == 1)
    return pix, values, tx_pos, rx_pos, k


@pytest.mark.parametrize("m", [1, 2, 7, 16, 37, 256, 300])
def test_synthesis_matches_the_direct_sum_over_random_geometries(m):
    rng = np.random.default_rng(m)
    for octave, bound in ((True, 1e-14), (False, 1e-12)):
        for _ in range(3):
            args = _random_geometry(rng, m, octave)
            expected = _direct_sum(*args)
            samples = np.zeros_like(expected)
            forward._antenna_sums(samples, *args)
            error = np.abs(samples - expected).max() / np.abs(expected).max()
            assert error < bound, (octave, samples.shape, error)


@pytest.mark.parametrize("m", [1, 2, 33, 256])
def test_stored_synthesis_matches_the_direct_sum_over_random_geometries(m):
    # carriers of 1 to 60 GHz, and bands of a few MHz across several octaves
    rng = np.random.default_rng(1000 + m)
    for octave in (True, False):
        for _ in range(4):
            args = _random_geometry(rng, m, octave)
            pix, values, tx_pos, rx_pos, k = args
            expected = _direct_sum(*args)
            d_tx = np.linalg.norm(pix - tx_pos[None, :], axis=1)
            d_rx = np.linalg.norm(pix[None, :, :] - rx_pos[:, None, :], axis=2)
            wide = forward._vandermonde(values / (d_tx * d_rx), d_tx + d_rx, k)
            error = np.abs(wide - expected).max() / np.abs(expected).max()
            assert error < 1e-9, (octave, wide.shape, error)
            # complex64 samples take that sum, rounded once
            samples = np.zeros(expected.shape, dtype=np.complex64)
            forward._antenna_sums(samples, *args)
            assert samples.tobytes() == wide.astype(np.complex64).tobytes()


@pytest.mark.parametrize("dtype", [np.float64, np.float32, np.int64, object])
def test_synthesis_refuses_a_dtype_it_does_not_synthesize(dtype):
    scene = _random_scene(4, 9)
    tx, rx = _stations()
    with pytest.raises(ValueError, match="complex128 or complex64"):
        synthesize_measurement(scene, tx, BEAM, rx, WF, footprint=FOOTPRINT, dtype=dtype)


def test_synthesis_matches_a_serial_matrix_vector_loop_on_the_survey_geometry():
    # the default config: 64 antennas, 256 subcarriers, 400 m scene
    cfg = RunConfig()
    scene = build_scene(cfg)
    tx, rx = build_network(cfg)[:2]
    wf = channel_waveform(cfg, 1)
    assert rx.antenna_count == 64
    for ref in scene.reflectors[:4]:
        footprint = EllipseFootprint(
            center=ref.center,
            eccentricity=0.0,
            semi_major=12.0,
            semi_minor=12.0,
            major_axis_azimuth=0.0,
        )
        patch = synthesize_measurement(scene, tx, BEAM, rx, wf, footprint=footprint)
        pix, values = illuminated_pixels(scene, footprint)
        assert values.size > 0
        # one antenna at a time, contracted by a matrix-vector product
        expected = _direct_sum(
            pix, values, tx.position.as_array(), rx.antenna_positions(), wf.wavenumbers()
        )
        scale = np.abs(expected).max()
        assert np.abs(patch.samples - expected).max() / scale < 1e-14


SIMULATE_SMALL = """
import dataclasses, hashlib, os, sys, threading
from pathlib import Path
if sys.argv[2] == "one_cpu":
    os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:1])
from netsar.cli import simulate_run
from netsar.config import RunConfig
cfg = RunConfig(
    scene=dataclasses.replace(RunConfig().scene, extent_m=200.0),
    schedule=dataclasses.replace(RunConfig().schedule, slot_count=30),
)
assert simulate_run(cfg, Path(sys.argv[1]), seed=99) > 0
print(threading.active_count())
print(hashlib.sha256((Path(sys.argv[1]) / "samples.npy").read_bytes()).hexdigest())
"""


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity")
def test_samples_depend_on_neither_blas_threads_nor_cpu_count(tmp_path):
    src = Path(netsar.__file__).resolve().parents[1]
    runs = {}
    for blas_threads, cpus in (("1", "all_cpus"), ("2", "all_cpus"), ("2", "one_cpu")):
        env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": blas_threads}
        result = subprocess.run(
            [sys.executable, "-c", SIMULATE_SMALL, str(tmp_path / blas_threads / cpus), cpus],
            capture_output=True,
            text=True,
            check=True,
            timeout=300,
            env=env,
        )
        runs[blas_threads, cpus] = result.stdout.split()
    # the same samples.npy bytes in every run
    assert len({digest for _, digest in runs.values()}) == 1, runs
    # the synthesis starts no thread, whatever the CPU count
    assert all(threads == "1" for threads, _ in runs.values()), runs
