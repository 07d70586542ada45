import dataclasses
import math
import warnings
import weakref

import numpy as np
import pytest
from scipy.interpolate import griddata
from scipy.ndimage import map_coordinates

from netsar.cli import load_dataset, simulate_run
from netsar.config import RunConfig
from netsar.constants import SPEED_OF_LIGHT
from netsar.errors import EmptyInputError, IndexOverflowError
from netsar.forward import MeasurementPatch, WaveformSpec, synthesize_measurement
from netsar.geometry import (
    BaseStation,
    BeamSpec,
    EllipseFootprint,
    GroundPoint,
    RotatedFrame,
)
from netsar.patches import align_and_place, wavenumber_vectors
from netsar.reconstruct import (
    IntersectDiagnostics,
    RangeProfile,
    ReconstructedImage,
    ReflectorEstimate,
    _bilinear,
    _keystone_grid,
    bin_spectrum,
    estimate_height,
    fuse_images,
    image_peak,
    intersect_lines,
    procedure1_invert,
    procedure2_per_patch,
    range_profiles,
)
from netsar.scene import Scene

WF = WaveformSpec(carrier_frequency=5e9, subcarrier_count=64, subcarrier_spacing=2e6)

FOOTPRINT = EllipseFootprint(
    center=GroundPoint(0.0, 0.0),
    eccentricity=0.0,
    semi_major=20.0,
    semi_minor=20.0,
    major_axis_azimuth=0.0,
)
BEAM = BeamSpec(open_angle=0.2, tilt_angle=0.0)


def _point_scene(x, y, extent=40.0, resolution=0.25):
    n = int(round(extent / resolution))
    refl = np.zeros((n, n), dtype=complex)
    ix = int(round((x + extent / 2) / resolution - 0.5))
    iy = int(round((y + extent / 2) / resolution - 0.5))
    refl[ix, iy] = 1.0
    return Scene(extent=(extent, extent), resolution=resolution, reflectivity=refl)


def _aligned(point, tx_xy, rx_xy, n_ant=32, wf=WF):
    tx = BaseStation(position=GroundPoint(tx_xy[0], tx_xy[1], 50.0), station_id="tx")
    rx_orient = math.atan2(rx_xy[1], rx_xy[0]) + math.pi / 2
    rx = BaseStation(
        position=GroundPoint(rx_xy[0], rx_xy[1], 50.0),
        antenna_count=n_ant,
        antenna_spacing=0.03,
        array_orientation=rx_orient,
        station_id="rx",
    )
    patch = synthesize_measurement(
        _point_scene(*point), tx, BEAM, rx, wf,
        region_center=GroundPoint(0.0, 0.0), footprint=FOOTPRINT,
    )
    return align_and_place(patch)


def test_bin_spectrum_requires_patches():
    with pytest.raises(EmptyInputError):
        bin_spectrum([], 8, 100.0)


def test_bin_spectrum_overflow_named():
    aligned = _aligned((0.125, 0.125), (400.0, 0.0), (380.0, 50.0), n_ant=4)
    with pytest.raises(IndexOverflowError, match="tx->rx"):
        bin_spectrum([aligned], 4, 100.0)


def test_bin_spectrum_averages_collisions():
    # a low carrier keeps the sample cloud inside the grid
    low = WaveformSpec(carrier_frequency=1e6, subcarrier_count=64, subcarrier_spacing=2e6)
    aligned = _aligned((0.125, 0.125), (400.0, 0.0), (380.0, 50.0), n_ant=4, wf=low)
    grid = bin_spectrum([aligned, aligned], 512, 400.0)
    single = bin_spectrum([aligned], 512, 400.0)
    assert grid.shape == (1024, 1024)
    assert np.count_nonzero(single) > 0
    assert np.allclose(grid, single)


def _low_carrier_group():
    # a low carrier keeps the sample clouds inside a 1024^2 grid of 400 m;
    # the repeated patch makes every one of its cells a collision
    low = WaveformSpec(carrier_frequency=1e6, subcarrier_count=64, subcarrier_spacing=2e6)
    first = _aligned((0.125, 0.125), (400.0, 0.0), (380.0, 50.0), n_ant=4, wf=low)
    second = _aligned((3.125, -2.375), (0.0, 400.0), (50.0, 380.0), n_ant=6, wf=low)
    return [first, second, first]


def test_bin_spectrum_adds_as_add_at_does():
    patches, S, pixel_extent = _low_carrier_group(), 512, 400.0
    dk, n = 2.0 * np.pi / pixel_extent, 2 * S
    acc = np.zeros((n, n), dtype=complex)
    counts = np.zeros((n, n), dtype=np.int64)
    for patch in patches:
        coords = wavenumber_vectors(patch)[..., :2].reshape(-1, 2)
        idx = np.rint(coords / dk).astype(int) % n  # FFT order: index i at i mod 2S
        np.add.at(acc, (idx[:, 0], idx[:, 1]), patch.samples.reshape(-1))
        np.add.at(counts, (idx[:, 0], idx[:, 1]), 1)
    assert counts.max() > 2
    filled = counts > 0
    acc[filled] = acc[filled] / counts[filled]
    assert bin_spectrum(patches, S, pixel_extent).tobytes() == acc.tobytes()


def test_procedure1_skips_only_rows_that_transform_to_zero():
    patches, S, pixel_extent = _low_carrier_group(), 512, 400.0
    grid = bin_spectrum(patches, S, pixel_extent)
    assert 0 < np.count_nonzero(grid.any(axis=1)) < 2 * S
    expected = np.abs(np.fft.fftshift(np.fft.fft2(grid)))
    image = procedure1_invert(patches, S, pixel_extent)
    assert image.magnitude.tobytes() == expected.tobytes()


def test_procedure1_shifts_odd_quadrants_as_fftshift_does():
    # an odd S gives odd quadrants to the shift of the magnitude
    patches, S, pixel_extent = _low_carrier_group(), 257, 400.0 * 257 / 512
    grid = bin_spectrum(patches, S, pixel_extent)
    expected = np.fft.fftshift(np.abs(np.fft.fft2(grid)))
    image = procedure1_invert(patches, S, pixel_extent)
    assert image.magnitude.tobytes() == expected.tobytes()


def test_procedure1_peak_near_scatterer():
    p = (2.125, -1.375)
    patches = [
        _aligned(p, (400.0, 0.0), (380.0, 60.0), n_ant=48),
        _aligned(p, (0.0, 400.0), (60.0, 380.0), n_ant=48),
    ]
    # grid must cover the full measured band including the carrier
    k_max = max(np.abs(wavenumber_vectors(q)[..., :2]).max() for q in patches)
    S = 512
    pixel_extent = 0.9 * S * 2.0 * np.pi / k_max
    img = procedure1_invert(patches, S, pixel_extent)
    pos = image_peak(img)
    # single-patch range resolution ~ c/(2W) = 0.586 m
    assert np.linalg.norm(pos - np.array(p)) < 0.6


def test_procedure1_rejects_mixed_centers():
    a = _aligned((0.125, 0.125), (400.0, 0.0), (380.0, 60.0), n_ant=4)
    b = _aligned((0.125, 0.125), (0.0, 400.0), (60.0, 380.0), n_ant=4)
    from dataclasses import replace

    shifted = replace(b, region_center=GroundPoint(5.0, 0.0))
    with pytest.raises(ValueError):
        procedure1_invert([a, shifted], 8, 16.0)


def test_procedure2_image_peak_and_range_resolution():
    p = (1.625, -0.875)
    aligned = _aligned(p, (400.0, 0.0), (380.0, 40.0), n_ant=48)
    img = procedure2_per_patch(aligned, pad_factor=2)
    pos = image_peak(img)
    err = pos - np.array(p)
    # range direction is well resolved; cross-range is broad, so check
    # the error projected on the look direction
    range_err = abs(err @ aligned.direction)
    assert range_err < SPEED_OF_LIGHT / (2 * WF.bandwidth)

    # -3 dB width along range near c/(2W)
    mag = img.magnitude / img.magnitude.max()
    a, b = np.unravel_index(np.argmax(mag), mag.shape)
    line = mag[:, b]
    above = np.nonzero(line >= 0.5)[0]
    width = (above.max() - above.min() + 1) * img.pixel_spacing[0]
    rho = SPEED_OF_LIGHT / (2 * WF.bandwidth)
    assert width < 2.5 * rho


def test_procedure2_rejects_single_antenna():
    aligned = _aligned((0.125, 0.125), (400.0, 0.0), (380.0, 40.0), n_ant=1)
    with pytest.raises(ValueError):
        procedure2_per_patch(aligned)


def test_procedure2_checks_its_inputs_before_any_work():
    one = WaveformSpec(carrier_frequency=5e9, subcarrier_count=1, subcarrier_spacing=2e6)
    aligned = _aligned((0.125, 0.125), (400.0, 0.0), (380.0, 40.0), n_ant=4, wf=one)
    with pytest.raises(ValueError, match="at least two subcarriers"):
        procedure2_per_patch(aligned)
    aligned = _aligned((0.125, 0.125), (400.0, 0.0), (380.0, 40.0), n_ant=4)
    with pytest.raises(ValueError, match="pad_factor"):
        procedure2_per_patch(aligned, pad_factor=0)


def _assert_grid_matches_griddata(patch):
    """The keystone grid against Delaunay-linear interpolation on its nodes."""
    grid, frame, steps = _keystone_grid(patch)
    coords = frame.to_patch(wavenumber_vectors(patch)[..., :2].reshape(-1, 2))
    rel = coords - coords.min(axis=0)
    gx, gy = np.meshgrid(
        np.arange(grid.shape[0]) * 2.0 * np.pi * steps[0],
        np.arange(grid.shape[1]) * 2.0 * np.pi * steps[1],
        indexing="ij",
    )
    ref = griddata(
        rel, patch.samples.reshape(-1), (gx, gy), method="linear", fill_value=0.0
    )
    image, ref_image = np.abs(np.fft.fft2(grid)), np.abs(np.fft.fft2(ref))
    assert np.abs(image - ref_image).max() <= 1e-2 * ref_image.max()
    assert np.argmax(image) == np.argmax(ref_image)
    both = (grid != 0) & (ref != 0)
    assert np.abs(grid - ref)[both].max() <= 1e-2 * np.abs(ref).max()
    zeros = abs(np.count_nonzero(grid == 0) - np.count_nonzero(ref == 0))
    assert zeros <= 0.01 * grid.size


def test_keystone_grid_matches_griddata_on_random_bistatic_geometries():
    rng = np.random.default_rng(2)
    for _ in range(20):
        p = tuple(rng.integers(-24, 24, size=2) * 0.25 + 0.125)
        az_tx = rng.uniform(0, 2 * math.pi)
        az_rx = az_tx + rng.uniform(0.05, 0.6)
        r_tx = rng.uniform(300.0, 500.0)
        r_rx = rng.uniform(300.0, 500.0)
        _assert_grid_matches_griddata(
            _aligned(
                p,
                (r_tx * math.cos(az_tx), r_tx * math.sin(az_tx)),
                (r_rx * math.cos(az_rx), r_rx * math.sin(az_rx)),
                n_ant=48,
            )
        )


def test_keystone_grid_matches_griddata_on_a_simulated_patch(tmp_path):
    base = RunConfig()
    cfg = dataclasses.replace(
        base, schedule=dataclasses.replace(base.schedule, slot_count=20)
    )
    assert simulate_run(cfg, tmp_path, cfg.schedule.seed) > 0
    patch = align_and_place(load_dataset(cfg, tmp_path)[0])
    assert patch.samples.shape == (64, 256)
    _assert_grid_matches_griddata(patch)


def _keystone_grid_per_node(patch):
    """Reference keystone grid: each node interpolates along both of its
    bracketing rays on its own, with two 2-D gathers per ray."""
    n_ant, M = patch.samples.shape
    frame = RotatedFrame(patch.direction)
    coords = frame.to_patch(wavenumber_vectors(patch)[..., :2])
    corner = coords.min(axis=(0, 1))
    span = coords.max(axis=(0, 1)) - corner
    steps = span / (np.array([M, n_ant]) - 1) / (2.0 * np.pi)
    slopes = coords[:, 0, 1] / coords[:, 0, 0]
    order = np.argsort(slopes)
    slopes, s, first = slopes[order], patch.samples[order], coords[order, 0, 0]
    k = patch.waveform.wavenumbers()
    k1 = corner[0] + np.arange(M)[:, None] * (2.0 * np.pi * steps[0])
    k2 = corner[1] + np.arange(n_ant)[None, :] * (2.0 * np.pi * steps[1])
    lo = np.clip(np.searchsorted(slopes, k2 / k1, side="right") - 1, 0, n_ant - 2)
    w = (k2 / k1 - slopes[lo]) / (slopes[lo + 1] - slopes[lo])
    inside = (w >= -1e-9) & (w <= 1 + 1e-9)
    grid = np.zeros((M, n_ant), dtype=complex)
    for ray, weight in ((lo, 1.0 - w), (lo + 1, w)):
        t = (k1 * k[0] / first[ray] - k[0]) / (k[1] - k[0])
        inside &= (t >= -1e-9) & (t <= M - 1 + 1e-9)
        t = np.clip(t, 0, M - 1)
        m0 = np.minimum(t.astype(int), M - 2)
        grid += weight * ((m0 + 1 - t) * s[ray, m0] + (t - m0) * s[ray, m0 + 1])
    grid[~inside] = 0.0
    return grid, steps


def _assert_grid_is_the_per_node_grid(patch):
    """Bit for bit, signed zeros included; returns the share of zero nodes."""
    grid, _, steps = _keystone_grid(patch)
    ref, ref_steps = _keystone_grid_per_node(patch)
    assert grid.dtype == ref.dtype and grid.shape == ref.shape
    assert np.array_equal(grid.view(np.uint64), ref.view(np.uint64))
    assert np.array_equal(steps.view(np.uint64), ref_steps.view(np.uint64))
    return np.count_nonzero(grid == 0) / grid.size


def test_keystone_grid_is_the_per_node_grid_to_the_bit(tmp_path):
    rng = np.random.default_rng(2)
    zero_shares = []
    for _ in range(20):
        p = tuple(rng.integers(-24, 24, size=2) * 0.25 + 0.125)
        az_tx = rng.uniform(0, 2 * math.pi)
        az_rx = az_tx + rng.uniform(0.05, 0.6)
        r_tx = rng.uniform(300.0, 500.0)
        r_rx = rng.uniform(300.0, 500.0)
        tx_xy = (r_tx * math.cos(az_tx), r_tx * math.sin(az_tx))
        rx_xy = (r_rx * math.cos(az_rx), r_rx * math.sin(az_rx))
        zero_shares.append(_assert_grid_is_the_per_node_grid(_aligned(p, tx_xy, rx_xy, n_ant=48)))
    # the lattice's keystone leaves nodes outside it on every geometry
    assert min(zero_shares) > 0 and max(zero_shares) < 1
    # two antennas: one pair of rays brackets every node, and the grid's
    # two columns meet the lattice only at its corners
    _assert_grid_is_the_per_node_grid(
        _aligned((0.125, 0.125), (400.0, 0.0), (380.0, 40.0), n_ant=2)
    )
    # three antennas: a third of the nodes, the middle column's, fall inside
    three = _aligned((1.125, -0.375), (400.0, 0.0), (0.0, 420.0), n_ant=3)
    assert 0.5 < _assert_grid_is_the_per_node_grid(three) < 1
    # negative real samples with -0.0 imaginary parts: every product's
    # imaginary part is -0.0, and a node's is +0.0 only as a sum from zero
    signed = _aligned((0.125, 0.125), (400.0, 0.0), (380.0, 40.0), n_ant=16)
    signed = dataclasses.replace(signed, samples=np.negative(np.abs(signed.samples) + 0j))
    _assert_grid_is_the_per_node_grid(signed)
    base = RunConfig()
    cfg = dataclasses.replace(
        base, schedule=dataclasses.replace(base.schedule, slot_count=20)
    )
    assert simulate_run(cfg, tmp_path, cfg.schedule.seed) > 0
    for patch in load_dataset(cfg, tmp_path):
        assert 0 < _assert_grid_is_the_per_node_grid(align_and_place(patch)) < 1


def _fuse_full_grid(images, extent, spacing, center, method, crop=False):
    """Reference fusion: every image sampled at every target pixel.

    "product" multiplies the images of equal footprint and averages the
    group products. With ``crop``, each image with a footprint is zeroed
    outside that footprint's box (see ``_in_footprint_box``).
    """
    nx = math.ceil(extent[0] / spacing)
    ny = math.ceil(extent[1] / spacing)
    xs = (np.arange(nx) - nx // 2) * spacing + center.x
    ys = (np.arange(ny) - ny // 2) * spacing + center.y
    px, py = np.meshgrid(xs, ys, indexing="ij")
    pts = np.stack([px.ravel(), py.ravel()], axis=1)
    fused = np.zeros(nx * ny)
    products = {}
    for img in images:
        norm = img.magnitude / img.magnitude.max()
        off = pts - img.origin.horizontal()[None, :]
        local = img.frame.to_patch(off) if img.frame is not None else off
        mx, my = img.magnitude.shape
        fi = local[:, 0] / img.pixel_spacing[0] + mx // 2
        fj = local[:, 1] / img.pixel_spacing[1] + my // 2
        sampled = map_coordinates(
            norm, np.stack([fi, fj]), order=1, mode="constant", cval=0.0
        )
        if crop and img.footprint is not None:
            sampled = sampled * _in_footprint_box(pts, img)
        if method == "mean":
            fused = fused + sampled
        else:
            products[img.footprint] = products.get(img.footprint, 1.0) * sampled
    if method == "mean":
        fused /= len(images)
    else:
        fused = sum(products.values()) / len(products)
    return (fused / fused.max()).reshape(nx, ny)


@pytest.mark.parametrize("method", ["mean", "product"])
def test_fuse_images_equals_full_grid_sampling(method):
    rng = np.random.default_rng(5)
    images = [
        # rotated 45 degrees
        ReconstructedImage(
            magnitude=rng.random((64, 48)),
            pixel_spacing=(0.3, 0.35),
            origin=GroundPoint(1.0, -1.0),
            frame=RotatedFrame(np.array([1.0, 1.0]) / math.sqrt(2.0)),
        ),
        # reaches past the target grid's +x edge
        ReconstructedImage(
            magnitude=rng.random((80, 80)),
            pixel_spacing=(0.2, 0.2),
            origin=GroundPoint(8.0, 3.0),
            frame=RotatedFrame(np.array([math.cos(1.7), math.sin(1.7)])),
        ),
        # ground frame
        ReconstructedImage(
            magnitude=rng.random((70, 50)),
            pixel_spacing=(0.25, 0.3),
            origin=GroundPoint(-1.0, 2.0),
        ),
    ]
    extent, spacing, center = (20.0, 18.0), 0.1, GroundPoint(0.5, -0.25)
    fused = fuse_images(images, extent, spacing, center=center, method=method)
    ref = _fuse_full_grid(images, extent, spacing, center, method)
    assert fused.magnitude.shape == ref.shape
    assert np.count_nonzero(ref) > 0.1 * ref.size
    assert np.abs(fused.magnitude - ref).max() <= 1e-12


def test_bilinear_equals_map_coordinates_order_1():
    rng = np.random.default_rng(11)
    mx, my = 7, 12
    image = rng.normal(size=(mx, my))

    def axis_points(n):
        edges = [0.0, n - 1.0]
        just_outside = [-1e-12, -0.5, -0.999, n - 1 + 1e-12, n - 0.5, n - 0.001]
        far = [-1e6, -3.0, n + 2.0, 1e6]
        return np.concatenate([edges, just_outside, far, rng.uniform(0, n - 1, 12)])

    xs, ys = axis_points(mx), axis_points(my)
    index = np.stack(np.meshgrid(xs, ys, indexing="ij"))
    ours = _bilinear(image, index)
    oracle = map_coordinates(image, index, order=1, mode="constant")
    assert ours.shape == oracle.shape == (xs.size, ys.size)
    assert np.abs(ours - oracle).max() <= 1e-15
    assert np.array_equal(ours == 0, oracle == 0)
    inside = np.logical_and.outer((xs >= 0) & (xs <= mx - 1), (ys >= 0) & (ys <= my - 1))
    assert np.all(oracle[~inside] == 0) and np.all(oracle[inside] != 0)
    # the exact edges read the edge pixels
    assert ours[1, 1] == image[-1, -1] and ours[0, 0] == image[0, 0]


def _in_footprint_box(pts, img):
    """Which ground points lie in img's footprint box, widened by its pixel."""
    f = img.footprint
    # the ellipse's support along x and y: sqrt of the diagonal of R diag(a², b²) Rᵀ
    rot = RotatedFrame(
        np.array([math.cos(f.major_axis_azimuth), math.sin(f.major_axis_azimuth)])
    ).matrix.T
    half = np.sqrt(np.diag(rot @ np.diag([f.semi_major**2, f.semi_minor**2]) @ rot.T))
    half += max(img.pixel_spacing)
    return np.all(np.abs(pts - f.center.horizontal()) <= half, axis=1)


def _footprint(x, y, semi_major, eccentricity, azimuth):
    return EllipseFootprint(
        center=GroundPoint(x, y),
        eccentricity=eccentricity,
        semi_major=semi_major,
        semi_minor=semi_major * math.sqrt(1.0 - eccentricity**2),
        major_axis_azimuth=azimuth,
    )


@pytest.mark.parametrize("method", ["mean", "product"])
def test_fuse_images_samples_only_inside_each_footprint_box(method):
    rng = np.random.default_rng(11)
    images = [
        ReconstructedImage(
            magnitude=rng.random((64, 48)),
            pixel_spacing=(0.3, 0.35),
            origin=GroundPoint(1.0, -1.0),
            frame=RotatedFrame(np.array([1.0, 1.0]) / math.sqrt(2.0)),
            footprint=_footprint(1.3, -0.6, 3.1, 0.6, 0.4),
        ),
        # the footprint box reaches past the target grid's +x edge
        ReconstructedImage(
            magnitude=rng.random((80, 80)),
            pixel_spacing=(0.2, 0.2),
            origin=GroundPoint(8.0, 3.0),
            frame=RotatedFrame(np.array([math.cos(1.7), math.sin(1.7)])),
            footprint=_footprint(7.9, 0.7, 6.2, 0.8, 2.5),
        ),
        # ground frame, no footprint: its whole pixel box is sampled
        ReconstructedImage(
            magnitude=rng.random((70, 50)),
            pixel_spacing=(0.25, 0.3),
            origin=GroundPoint(-1.0, 2.0),
        ),
    ]
    extent, spacing, center = (20.0, 18.0), 0.1, GroundPoint(0.5, -0.25)
    fused = fuse_images(images, extent, spacing, center=center, method=method)
    ref = _fuse_full_grid(images, extent, spacing, center, method, crop=True)
    assert fused.magnitude.shape == ref.shape
    assert np.count_nonzero(ref) > 0.01 * ref.size
    assert np.abs(fused.magnitude - ref).max() <= 1e-12
    # the footprints do cut the images: the uncut fusion differs
    uncut = _fuse_full_grid(images, extent, spacing, center, method)
    assert np.abs(uncut - ref).max() > 0.1


@pytest.mark.parametrize("method", ["mean", "product"])
def test_fuse_product_multiplies_within_a_footprint_group_and_averages_across(method):
    """Product fusion multiplies the two images that share a footprint; mean
    fusion averages them like any other image."""
    rng = np.random.default_rng(13)
    near, far = _footprint(-4.0, 1.0, 3.0, 0.5, 0.3), _footprint(5.0, -2.0, 2.5, 0.4, 1.1)
    images = [
        ReconstructedImage(
            magnitude=rng.random((60, 60)),
            pixel_spacing=(0.2, 0.2),
            origin=GroundPoint(x, y),
            footprint=f,
        )
        for x, y, f in ((-4.0, 1.0, near), (-3.5, 0.5, near), (5.0, -2.0, far))
    ]
    extent, spacing, center = (20.0, 18.0), 0.1, GroundPoint(0.5, -0.25)
    fused = fuse_images(images, extent, spacing, center=center, method=method)
    ref = _fuse_full_grid(images, extent, spacing, center, method, crop=True)
    assert np.abs(fused.magnitude - ref).max() <= 1e-12
    # the two beams share no ground, and each still shows
    west, east = np.split(fused.magnitude, 2)
    assert west.any() and east.any()


@pytest.mark.parametrize("method", ["mean", "product"])
def test_fuse_images_leaves_the_grid_outside_every_box_at_positive_zero(method):
    """Beams that light one corner of the grid: fusion normalizes only the
    box that holds them, and every other pixel stays +0.0."""
    rng = np.random.default_rng(19)
    west, south = _footprint(-5.0, -4.0, 2.5, 0.5, 0.3), _footprint(-2.5, -6.0, 2.0, 0.3, 1.2)
    images = [
        ReconstructedImage(
            magnitude=rng.random((60, 60)),
            pixel_spacing=(0.2, 0.2),
            origin=GroundPoint(x, y),
            frame=RotatedFrame(np.array([math.cos(a), math.sin(a)])),
            footprint=f,
        )
        for x, y, a, f in (
            (-5.0, -4.0, 0.2, west), (-2.5, -6.0, 2.0, south), (-4.6, -3.7, 1.1, west),
        )
    ]
    extent, spacing, center = (20.0, 18.0), 0.1, GroundPoint(0.5, -0.25)
    fused = fuse_images(images, extent, spacing, center=center, method=method).magnitude
    ref = _fuse_full_grid(images, extent, spacing, center, method, crop=True)
    assert fused.shape == ref.shape
    assert np.abs(fused - ref).max() <= 1e-12
    nx, ny = fused.shape
    px, py = np.meshgrid(
        (np.arange(nx) - nx // 2) * spacing + center.x,
        (np.arange(ny) - ny // 2) * spacing + center.y,
        indexing="ij",
    )
    pts = np.stack([px.ravel(), py.ravel()], axis=1)
    boxed = np.any([_in_footprint_box(pts, img) for img in images], axis=0)
    outside = fused.ravel()[~boxed]
    assert outside.size > 0.8 * fused.size
    assert not outside.any() and not np.signbit(outside).any()


def _interleaved_groups(seed):
    """Five images whose first footprint group (images 0, 2, 4) is not consecutive."""
    rng = np.random.default_rng(seed)
    near, far = _footprint(-4.0, 1.0, 3.0, 0.5, 0.3), _footprint(5.0, -2.0, 2.5, 0.4, 1.1)
    return [
        ReconstructedImage(
            magnitude=rng.random((60, 60)),
            pixel_spacing=(0.2, 0.2),
            origin=GroundPoint(x, y),
            footprint=f,
        )
        for x, y, f in (
            (-4.0, 1.0, near), (5.0, -2.0, far), (-3.5, 0.5, near),
            (4.6, -2.2, far), (-4.2, 1.3, near),
        )
    ]


@pytest.mark.parametrize("method", ["mean", "product"])
def test_fuse_images_of_a_generator_equals_fuse_images_of_a_list(method):
    images = _interleaved_groups(17)
    extent, spacing, center = (20.0, 18.0), 0.1, GroundPoint(0.5, -0.25)
    listed = fuse_images(images, extent, spacing, center=center, method=method)
    streamed = fuse_images((img for img in images), extent, spacing, center=center,
                           method=method)
    assert listed.magnitude.any()
    assert streamed.magnitude.tobytes() == listed.magnitude.tobytes()
    assert np.abs(listed.magnitude -
                  _fuse_full_grid(images, extent, spacing, center, method, crop=True)
                  ).max() <= 1e-12
    with pytest.raises(EmptyInputError):
        fuse_images(iter([]), extent, spacing, method=method)


@pytest.mark.parametrize("method", ["mean", "product"])
def test_fuse_images_releases_each_image_before_the_next_is_formed(method):
    template = _interleaved_groups(19)
    alive = []

    def formed():
        for img in template:
            # every image yielded so far is already freed
            assert not [i for i, ref in enumerate(alive) if ref() is not None]
            fresh = dataclasses.replace(img, magnitude=img.magnitude.copy())
            alive.append(weakref.ref(fresh))
            yield fresh
            del fresh

    extent, spacing, center = (20.0, 18.0), 0.1, GroundPoint(0.5, -0.25)
    fused = fuse_images(formed(), extent, spacing, center=center, method=method)
    assert len(alive) == len(template)
    assert fused.magnitude.tobytes() == fuse_images(
        template, extent, spacing, center=center, method=method
    ).magnitude.tobytes()


def test_fuse_warns_when_a_footprint_lies_off_the_grid():
    img = ReconstructedImage(
        magnitude=np.ones((40, 40)),
        pixel_spacing=(0.5, 0.5),
        origin=GroundPoint(0.0, 0.0),
        footprint=_footprint(12.0, 0.0, 2.0, 0.5, 0.3),
    )
    # the image's pixels cover the grid, its footprint box does not
    with pytest.warns(UserWarning, match="image 0 does not overlap"):
        fused = fuse_images([img], (10.0, 10.0), 0.5)
    assert not fused.magnitude.any()
    uncut = fuse_images([dataclasses.replace(img, footprint=None)], (10.0, 10.0), 0.5)
    assert uncut.magnitude.all()


def test_fuse_product_localizes_where_mean_keeps_ridges():
    p = (1.625, -0.875)
    a = procedure2_per_patch(
        _aligned(p, (400.0, 0.0), (380.0, 40.0), n_ant=48), pad_factor=2
    )
    b = procedure2_per_patch(
        _aligned(p, (0.0, 400.0), (40.0, 380.0), n_ant=48), pad_factor=2
    )
    prod = fuse_images([a, b], (20.0, 20.0), 0.25, method="product")
    mean = fuse_images([a, b], (20.0, 20.0), 0.25, method="mean")
    pos = image_peak(prod)
    assert np.linalg.norm(pos - np.array(p)) < 0.6
    # the product image is darker off-peak than the mean image
    assert np.median(prod.magnitude) < np.median(mean.magnitude)
    assert prod.magnitude.max() == 1.0 and mean.magnitude.max() == 1.0


def test_fuse_warns_on_disjoint_grid():
    a = procedure2_per_patch(
        _aligned((0.125, 0.125), (400.0, 0.0), (380.0, 40.0), n_ant=16)
    )
    with pytest.warns(UserWarning):
        fuse_images([a], (4.0, 4.0), 0.5, center=GroundPoint(500.0, 500.0))
    with pytest.raises(EmptyInputError):
        fuse_images([], (4.0, 4.0), 0.5)


def test_range_profile_peak_location():
    p = (3.125, -2.375)
    aligned = _aligned(p, (400.0, 0.0), (380.0, 40.0), n_ant=16)
    prof = range_profiles(aligned, threshold_db=6.0)
    assert prof.peaks
    best = prof.peaks[0][0]
    expected = np.array(p) @ aligned.direction
    # sub-bin refinement: error well under one bin
    bin_width = SPEED_OF_LIGHT / (
        WF.bandwidth * aligned.bistatic_scale
    )
    assert abs(best - expected) < 0.5 * bin_width


# intersect_lines' distance limits, set so that neither cuts anything
NO_LIMIT = dict(max_offset=math.inf, pair_max_separation=math.inf)


def test_intersect_lines_recovers_two_reflectors():
    # synthetic profiles: three stations looking at two scatterers
    import dataclasses

    from netsar.reconstruct import RangeProfile

    truth = [np.array([4.0, 7.0]), np.array([-6.0, -2.0])]
    dirs = [
        np.array([1.0, 0.0]),
        np.array([0.0, 1.0]),
        np.array([math.cos(0.7), math.sin(0.7)]),
    ]
    profiles = []
    for d in dirs:
        peaks = tuple((float(t @ d), 1.0) for t in truth)
        profiles.append(
            RangeProfile(
                peaks=peaks,
                direction=d,
                center=np.zeros(2),
            )
        )
    estimates, diag = intersect_lines(
        profiles, cluster_radius=1.0, min_support=2, **NO_LIMIT
    )
    assert diag.intersections > 0
    assert len(estimates) == 2
    found = sorted(
        np.linalg.norm(np.array([e.position.x, e.position.y]) - t)
        for e in estimates
        for t in truth
    )[:2]
    assert max(found) < 0.5


def test_intersect_lines_skips_parallel_and_empty():
    from netsar.reconstruct import RangeProfile

    d = np.array([1.0, 0.0])
    mk = lambda: RangeProfile(
        peaks=((1.0, 1.0),),
        direction=d,
        center=np.zeros(2),
    )
    estimates, diag = intersect_lines([mk(), mk()], cluster_radius=1.0, **NO_LIMIT)
    assert estimates == [] and diag.skipped_parallel == 1
    estimates, diag = intersect_lines([mk()], cluster_radius=1.0, **NO_LIMIT)
    assert estimates == [] and diag.intersections == 0


def _range_peaks_reference(patch, threshold_db=6.0):
    """range_profiles' peaks as the per-bin loop found them."""
    M = patch.waveform.subcarrier_count
    spectra = np.fft.fft(patch.samples, axis=1)
    profile = np.fft.fftshift(np.abs(spectra).mean(axis=0))
    freq = np.fft.fftshift(np.fft.fftfreq(M))
    scale = SPEED_OF_LIGHT / (patch.waveform.subcarrier_spacing * patch.bistatic_scale)
    threshold = np.median(profile) * 10.0 ** (threshold_db / 20.0)
    peaks = []
    for n in range(M):
        left = profile[n - 1] if n > 0 else -np.inf
        right = profile[n + 1] if n < M - 1 else -np.inf
        v = profile[n]
        if v > threshold and v >= left and v >= right:
            vertex = 0.0
            if 0 < n < M - 1:
                denom = profile[n - 1] - 2 * profile[n] + profile[n + 1]
                if denom < 0:
                    vertex = 0.5 * (profile[n - 1] - profile[n + 1]) / denom
            peaks.append((float((freq[n] + vertex / M) * scale), float(v)))
    peaks.sort(key=lambda p: -p[1])
    return tuple(peaks), profile


def _patch_with_profile(target):
    """A one-antenna patch whose range profile is ``target`` (to rounding)."""
    M = len(target)
    wf = WaveformSpec(carrier_frequency=5e9, subcarrier_count=M, subcarrier_spacing=2e6)
    samples = np.fft.ifft(np.fft.ifftshift(np.asarray(target, dtype=float)))[None, :]
    tx = BaseStation(position=GroundPoint(400.0, 0.0, 50.0), station_id="tx")
    rx = BaseStation(position=GroundPoint(380.0, 40.0, 50.0), station_id="rx")
    return MeasurementPatch(samples, tx, rx, wf, GroundPoint(0.0, 0.0))


@pytest.mark.parametrize(
    "case, target",
    [
        ("first_bin", [9.0, 3.0, 1.0, 1.0, 1.0, 1.0, 1.0, 2.0, 1.0, 1.0, 1.0, 1.0]),
        ("last_bin", [1.0, 1.0, 1.0, 1.0, 2.0, 1.0, 1.0, 1.0, 1.0, 1.0, 3.0, 9.0]),
        ("plateau", [1.0, 1.0, 1.0, 2.0, 7.0, 7.0, 2.0, 1.0, 1.0, 1.0, 1.0, 1.0]),
        ("equal_peaks", [1.0, 1.0, 2.0, 7.0, 2.0, 1.0, 1.0, 1.0, 2.0, 7.0, 2.0, 1.0]),
    ],
)
def test_range_profiles_edge_peaks_are_the_per_bin_loops(case, target):
    patch = _patch_with_profile(target)
    expected, profile = _range_peaks_reference(patch)
    assert range_profiles(patch).peaks == expected
    M = len(target)
    scale = SPEED_OF_LIGHT / (patch.waveform.subcarrier_spacing * patch.bistatic_scale)
    freq = np.fft.fftshift(np.fft.fftfreq(M))
    ranges = [r for r, _ in expected]
    if case == "first_bin":
        # no neighbour beyond the end: a peak, left unrefined
        assert ranges[0] == float(freq[0] * scale)
    elif case == "last_bin":
        assert ranges[0] == float(freq[M - 1] * scale)
    elif case == "equal_peaks":
        # peaks of one magnitude keep the order of their bins
        assert len(expected) == 2 and ranges[0] < ranges[1]
    else:
        # either bin of the plateau that is not below its neighbour is a
        # peak, and both refine to the plateau's middle
        top = [n for n in (4, 5) if profile[n] >= profile[n - 1] and profile[n] >= profile[n + 1]]
        assert len(expected) == len(top) >= 1
        for r in ranges:
            assert r == pytest.approx((freq[4] + 0.5 / M) * scale, rel=1e-9)


def _intersect_lines_reference(
    profiles, cluster_radius, min_support=2, min_crossing_sine=1e-3, *,
    max_offset, pair_max_separation,
):
    """intersect_lines as the per-pair and per-cell loops computed it."""
    diag = IntersectDiagnostics()
    if len(profiles) < 2:
        return [], diag
    points, weights, pair_ids = [], [], []
    for i in range(len(profiles)):
        pi = profiles[i]
        if not pi.peaks:
            continue
        dix, diy = float(pi.direction[0]), float(pi.direction[1])
        cix, ciy = float(pi.center[0]), float(pi.center[1])
        for j in range(i + 1, len(profiles)):
            pj = profiles[j]
            if not pj.peaks:
                continue
            djx, djy = float(pj.direction[0]), float(pj.direction[1])
            cjx, cjy = float(pj.center[0]), float(pj.center[1])
            if math.hypot(cix - cjx, ciy - cjy) > pair_max_separation:
                continue
            cross = dix * djy - diy * djx
            if abs(cross) < min_crossing_sine:
                diag.skipped_parallel += 1
                continue
            for ri, mi in pi.peaks:
                bi = ri + dix * cix + diy * ciy
                for rj, mj in pj.peaks:
                    bj = rj + djx * cjx + djy * cjy
                    qx = (bi * djy - bj * diy) / cross
                    qy = (dix * bj - djx * bi) / cross
                    if (
                        math.hypot(qx - cix, qy - ciy) > max_offset
                        or math.hypot(qx - cjx, qy - cjy) > max_offset
                    ):
                        continue
                    points.append((qx, qy))
                    weights.append(mi + mj)
                    pair_ids.append((i, j))
    diag.intersections = len(points)
    if not points:
        return [], diag
    pts = np.array(points)
    w = np.array(weights)
    cells = np.floor(pts / cluster_radius).astype(np.int64)
    cell_points, cell_weight = {}, {}
    for idx, (cx, cy) in enumerate(map(tuple, cells)):
        cell_points.setdefault((cx, cy), []).append(idx)
        cell_weight[(cx, cy)] = cell_weight.get((cx, cy), 0.0) + float(w[idx])

    def neighborhood(cell):
        cx, cy = cell
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                yield (cx + dx, cy + dy)

    seeds = []
    for cell, weight in cell_weight.items():
        if all(weight >= cell_weight.get(nb, 0.0) for nb in neighborhood(cell)):
            hood = sum(cell_weight.get(nb, 0.0) for nb in neighborhood(cell))
            seeds.append((hood, cell))
    seeds.sort(key=lambda s: (-s[0], s[1]))
    diag.clusters = len(seeds)
    estimates, accepted = [], []
    for _, cell in seeds:
        members = [m for nb in neighborhood(cell) for m in cell_points.get(nb, [])]
        pairs = {pair_ids[m] for m in members}
        if len(pairs) < min_support:
            continue
        mw = w[members]
        pos = (pts[members] * mw[:, None]).sum(axis=0) / mw.sum()
        if any(np.linalg.norm(pos - prev) < 2.0 * cluster_radius for prev in accepted):
            continue
        accepted.append(pos)
        estimates.append(
            ReflectorEstimate(
                position=GroundPoint(float(pos[0]), float(pos[1])),
                score=float(mw.sum()),
                supporting_lines=len({p for pair in pairs for p in pair}),
            )
        )
    estimates.sort(key=lambda e: -e.score)
    return estimates, diag


def _random_profiles(rng):
    """Profiles of a few reflectors seen from random stations, with empty
    peak lists, parallel and antiparallel look directions and clutter
    peaks. Half the trials draw magnitudes from a small set, so that cell
    weights tie; the others draw them at random, so that the order of
    each sum shows in its last bits."""
    truth = rng.uniform(-15.0, 15.0, size=(rng.integers(1, 5), 2))
    angles = rng.uniform(0.0, 2.0 * np.pi, size=rng.integers(2, 14))
    angles[rng.random(angles.size) < 0.3] = angles[0]
    angles[rng.random(angles.size) < 0.15] = angles[0] + np.pi
    if rng.random() < 0.5:
        magnitude = lambda: float(rng.choice([1.0, 1.5, 2.0, 2.5]))
    else:
        magnitude = lambda: float(rng.uniform(1.0, 3.0))
    profiles = []
    for angle in angles:
        d = np.array([math.cos(angle), math.sin(angle)])
        center = rng.uniform(-20.0, 20.0, size=2)
        peaks = []
        if rng.random() > 0.15:
            for t in truth:
                if rng.random() < 0.8:
                    r = (t - center) @ d + rng.normal(0.0, 0.2)
                    peaks.append((float(r), magnitude()))
            for _ in range(rng.integers(0, 3)):
                peaks.append((float(rng.uniform(-30.0, 30.0)), magnitude()))
        peaks.sort(key=lambda p: -p[1])
        profiles.append(RangeProfile(peaks=tuple(peaks), direction=d, center=center))
    return profiles


# None: no limit, passed as math.inf
@pytest.mark.parametrize("max_offset", [None, 25.0])
@pytest.mark.parametrize("pair_max_separation", [None, 30.0])
def test_intersect_lines_matches_the_loop_reference(max_offset, pair_max_separation):
    rng = np.random.default_rng(7)
    for trial in range(40):
        profiles = _random_profiles(rng)
        kwargs = dict(
            cluster_radius=float(rng.choice([0.5, 1.0, 2.0])),
            min_support=int(rng.integers(2, 4)),
            max_offset=math.inf if max_offset is None else max_offset,
            pair_max_separation=math.inf if pair_max_separation is None else pair_max_separation,
        )
        got, got_diag = intersect_lines(profiles, **kwargs)
        want, want_diag = _intersect_lines_reference(profiles, **kwargs)
        assert got_diag == want_diag, trial
        assert got == want, trial


def test_intersect_lines_of_profiles_without_peaks_matches_the_reference():
    d = np.array([0.0, 1.0])
    empty = RangeProfile(peaks=(), direction=d, center=np.zeros(2))
    one = RangeProfile(peaks=((1.0, 1.0),), direction=d, center=np.zeros(2))
    for profiles in ([], [empty], [empty, empty], [empty, one, empty]):
        assert intersect_lines(profiles, cluster_radius=1.0, **NO_LIMIT) == (
            _intersect_lines_reference(profiles, cluster_radius=1.0, **NO_LIMIT)
        )


def test_reflector_estimate_validation():
    with pytest.raises(ValueError):
        ReflectorEstimate(position=GroundPoint(0, 0), score=1.0, supporting_lines=1)
    with pytest.raises(ValueError):
        ReflectorEstimate(position=GroundPoint(0, 0), score=-1.0, supporting_lines=2)


def test_estimate_height_reads_off_plane_phase():
    nz = 16
    z_step = 0.1
    shape = (6, 6)
    rng = np.random.default_rng(0)
    ground = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    ground[0, 0] = 0.001  # below mask threshold
    h_true = np.full(shape, 2.0 * np.pi / (nz * z_step) * 5)  # on-bin height
    planes = np.array(
        [ground * np.exp(-1j * i * z_step * h_true) for i in range(nz)]
    )
    height, valid = estimate_height(planes, z_step)
    assert not valid[0, 0] and np.isnan(height[0, 0])
    assert np.allclose(height[valid], h_true[valid])


def test_estimate_height_flat_surface_is_zero():
    nz = 8
    planes = np.array([np.ones((3, 3), complex) for _ in range(nz)])
    height, valid = estimate_height(planes, 0.2)
    assert np.all(valid)
    assert np.allclose(height[valid], 0.0)
    with pytest.raises(ValueError):
        estimate_height(planes[:3], 0.2)
    with pytest.raises(ValueError):
        estimate_height(planes, -1.0)


def test_estimate_height_of_a_dark_stack_has_no_valid_pixel():
    planes = np.zeros((8, 4, 4), complex)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        height, valid = estimate_height(planes, 0.2)
    assert not valid.any()
    assert np.isnan(height).all()


def test_reconstructed_image_ground_position_round_trip():
    img = ReconstructedImage(
        magnitude=np.ones((8, 8)),
        pixel_spacing=(0.5, 0.25),
        origin=GroundPoint(10.0, -4.0),
    )
    assert np.allclose(img.ground_position(4, 4), [10.0, -4.0])
    assert np.allclose(img.ground_position(6, 0), [11.0, -5.0])
    with pytest.raises(ValueError):
        ReconstructedImage(
            magnitude=-np.ones((4, 4)), pixel_spacing=(1.0, 1.0), origin=GroundPoint(0, 0)
        )
