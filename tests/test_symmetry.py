"""Metamorphic check of the whole reconstruction: a dataset mirrored in y,
or rotated by 180 degrees about the scene center, reconstructs to the
moved outputs.

The 3 x 3 network is symmetric under both motions. The mirror (x, y) ->
(x, -y) maps station (i, j) to station (i, 2 - j) and a beam's planar
angle phi to -phi; the rotation (x, y) -> (-x, -y) maps station (i, j) to
(2 - i, 2 - j) and phi to phi + pi. Tilts and every distance are
unchanged. So the dataset of the moved scene holds the same sample
values, with each receiver's antenna axis reversed where the moved
station's antenna 0 is not the image of the original's antenna 0. The
moved dataset is written here with the dataset module's own writers,
without simulating the moved scene, and reconstructed without ground
truth. An even-sized image grid puts its origin at index n // 2, so an
axis the motion reverses maps pixel index k to n - k, and index 0 has no
image.
"""

import dataclasses
import math

import numpy as np
import pytest

from netsar.config import RunConfig, load_config
from netsar.dataset import _save_npy, build_network, write_manifest
from netsar.imageio import read_pgm, read_table, write_table
from netsar.cli import reconstruct_run, simulate_run

# criterion 10's small config
CFG = RunConfig(
    scene=dataclasses.replace(RunConfig().scene, extent_m=200.0),
    schedule=dataclasses.replace(RunConfig().schedule, slot_count=30),
)
SEED = 99
LAST = CFG.network.grid_side - 1

# motion -> (station indices (i, j) -> moved indices, planar angle -> moved
# angle, the motion's scale of (x, y, z))
MOTIONS = {
    "mirror": (lambda i, j: (i, LAST - j), lambda phi: -phi, np.array([1.0, -1.0, 1.0])),
    "rotation": (
        lambda i, j: (LAST - i, LAST - j),
        lambda phi: phi + math.pi,
        np.array([-1.0, -1.0, 1.0]),
    ),
}

IMAGES = [("procedure1", "procedure1.pgm"), ("procedure2", "fused.pgm")]


def _moved_station(motion, station_id):
    i, j = MOTIONS[motion][0](*map(int, station_id.removeprefix("bs")))
    return f"bs{i}{j}"


def _moved_dataset(dataset, out, motion):
    """Write the image of ``dataset`` under ``motion`` into ``out``; returns
    the rows whose antenna axis is reversed, and all rows."""
    _, move_planar, scale = MOTIONS[motion]
    cfg = load_config(dataset / "config.txt")
    stations = {s.station_id: s for s in build_network(cfg)}
    reversed_axis = {}
    for name, station in stations.items():
        moved = stations[_moved_station(motion, name)].antenna_positions()
        image = station.antenna_positions() * scale
        if np.allclose(image, moved, rtol=0, atol=1e-9):
            reversed_axis[name] = False
        else:
            assert np.allclose(image[::-1], moved, rtol=0, atol=1e-9)
            reversed_axis[name] = True
    assert 0 < sum(reversed_axis.values()) < len(stations)

    header, rows = read_table(dataset / "patches.csv")
    col = {name: header.index(name) for name in ("tx_id", "rx_id", "planar")}
    samples = np.load(dataset / "samples.npy")
    moved_rows, moved_samples = [], []
    for row, block in zip(rows, samples):
        row = list(row)
        rx = row[col["rx_id"]]
        row[col["tx_id"]] = _moved_station(motion, row[col["tx_id"]])
        row[col["rx_id"]] = _moved_station(motion, rx)
        row[col["planar"]] = move_planar(float(row[col["planar"]]))
        moved_rows.append(row)
        moved_samples.append(block[::-1] if reversed_axis[rx] else block)
    out.mkdir()
    (out / "config.txt").write_bytes((dataset / "config.txt").read_bytes())
    write_table(out / "patches.csv", header, moved_rows)
    checksum = _save_npy(out / "samples.npy", samples.shape, moved_samples)
    kept = [
        line
        for line in (dataset / "manifest.txt").read_text().splitlines()
        if not line.startswith(("config_hash", "seed", "checksum."))
    ]
    write_manifest(
        out, cfg, SEED, kept + [f"checksum.samples.npy = {checksum}"],
        ["config.txt", "patches.csv", "samples.npy"],
    )
    return sum(reversed_axis[row[col["rx_id"]]] for row in rows), len(rows)


@pytest.fixture(scope="module")
def datasets(tmp_path_factory):
    root = tmp_path_factory.mktemp("symmetry")
    simulate_run(CFG, root / "data", SEED)
    # every receiver of this dataset is off the centre station, whose
    # axis alone the rotation reverses
    assert _moved_dataset(root / "data", root / "mirror", "mirror") == (24, 24)
    assert _moved_dataset(root / "data", root / "rotation", "rotation") == (0, 24)
    return root


def _reconstruct(root, motion, algorithm):
    cfg = dataclasses.replace(
        CFG, reconstruction=dataclasses.replace(CFG.reconstruction, algorithm=algorithm)
    )
    original, moved = root / f"data-{algorithm}", root / f"{motion}-{algorithm}"
    if not original.exists():
        reconstruct_run(cfg, root / "data", original, SEED)
    reconstruct_run(cfg, root / motion, moved, SEED)
    return original, moved


def _assert_images_commute(root, motion, algorithm, image):
    original, moved = (read_pgm(path / image) for path in _reconstruct(root, motion, algorithm))
    scale = MOTIONS[motion][2][:2]
    assert original.shape == moved.shape
    assert all(n % 2 == 0 for n, s in zip(original.shape, scale) if s < 0)
    assert np.count_nonzero(original) > 0.001 * original.size
    # along each reversed axis, index k images to n - k
    kept = tuple(slice(1, None) if s < 0 else slice(None) for s in scale)
    image_of_kept = tuple(slice(None, 0, -1) if s < 0 else slice(None) for s in scale)
    assert np.array_equal(original[kept], moved[image_of_kept])


def _assert_estimates_commute(root, motion):
    original, moved = (
        np.array(read_table(path / "estimates.csv")[1], dtype=float)
        for path in _reconstruct(root, motion, "intersect")
    )
    assert original.shape == moved.shape and len(original) >= 2
    image = original * np.array([*MOTIONS[motion][2][:2], 1.0, 1.0])
    # the estimates are ordered by score, which the motion may move in its
    # last digits: pair each with its nearest moved estimate
    dist = np.hypot(*(image[:, None, :2] - moved[None, :, :2]).transpose(2, 0, 1))
    match = dist.argmin(axis=1)
    assert sorted(match) == list(range(len(moved)))
    assert dist[np.arange(len(image)), match].max() <= 1e-9
    assert np.allclose(image[:, 2], moved[match, 2], rtol=1e-9, atol=0)
    assert np.array_equal(image[:, 3], moved[match, 3])
    # the estimates lie at least 1 m off the motion's fixed line or point,
    # so the motion moves each of them by more than 2 m
    assert np.hypot(*(image - original)[:, :2].T).min() > 2.0


@pytest.mark.parametrize("algorithm, image", IMAGES)
def test_a_mirrored_dataset_images_to_the_mirrored_image(datasets, algorithm, image):
    _assert_images_commute(datasets, "mirror", algorithm, image)


@pytest.mark.parametrize("algorithm, image", IMAGES)
def test_a_rotated_dataset_images_to_the_rotated_image(datasets, algorithm, image):
    _assert_images_commute(datasets, "rotation", algorithm, image)


def test_a_mirrored_dataset_intersects_to_the_mirrored_estimates(datasets):
    _assert_estimates_commute(datasets, "mirror")


def test_a_rotated_dataset_intersects_to_the_rotated_estimates(datasets):
    _assert_estimates_commute(datasets, "rotation")
