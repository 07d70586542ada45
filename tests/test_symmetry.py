"""Metamorphic check of the whole reconstruction: a dataset mirrored in y
reconstructs to the mirrored outputs.

The 3 x 3 network is symmetric under the mirror (x, y) -> (x, -y): station
(i, j) maps to station (i, 2 - j), a beam's planar angle phi to -phi, and
tilts and every distance are unchanged. So the dataset of the mirrored
scene holds the same sample values, with each receiver's antenna axis
reversed where the moved station's antenna 0 is not the image of the
original's antenna 0. The mirrored dataset is written here with the
dataset module's own writers, without simulating the mirrored scene, and
reconstructed without ground truth. An even-sized image grid puts its
origin at index n // 2, so the mirror maps pixel column k to n - k and
column 0 has no image.
"""

import dataclasses

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


def _mirror_station(station_id):
    i, j = station_id.removeprefix("bs")
    return f"bs{i}{CFG.network.grid_side - 1 - int(j)}"


def _mirrored_dataset(dataset, out):
    """Write the y-mirror of ``dataset`` into ``out``."""
    cfg = load_config(dataset / "config.txt")
    stations = {s.station_id: s for s in build_network(cfg)}
    flip = np.array([1.0, -1.0, 1.0])
    reversed_axis = {}
    for name, station in stations.items():
        moved = stations[_mirror_station(name)].antenna_positions()
        image = station.antenna_positions() * flip
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
        row[col["tx_id"]] = _mirror_station(row[col["tx_id"]])
        row[col["rx_id"]] = _mirror_station(rx)
        row[col["planar"]] = -float(row[col["planar"]])
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
    reversed_rows, rows = _mirrored_dataset(root / "data", root / "mirrored")
    # every receiver of this dataset is off the centre station
    assert reversed_rows == rows == 24
    return root


def _reconstruct(root, algorithm):
    cfg = dataclasses.replace(
        CFG, reconstruction=dataclasses.replace(CFG.reconstruction, algorithm=algorithm)
    )
    for side in ("data", "mirrored"):
        reconstruct_run(cfg, root / side, root / f"{side}-{algorithm}", SEED)
    return root / f"data-{algorithm}", root / f"mirrored-{algorithm}"


@pytest.mark.parametrize("algorithm, image", [
    ("procedure1", "procedure1.pgm"),
    ("procedure2", "fused.pgm"),
])
def test_a_mirrored_dataset_images_to_the_mirrored_image(datasets, algorithm, image):
    original, mirrored = (read_pgm(path / image) for path in _reconstruct(datasets, algorithm))
    assert original.shape == mirrored.shape and original.shape[1] % 2 == 0
    assert np.count_nonzero(original) > 0.001 * original.size
    # column k images to column n - k
    assert np.array_equal(original[:, 1:], mirrored[:, :0:-1])


def test_a_mirrored_dataset_intersects_to_the_mirrored_estimates(datasets):
    original, mirrored = (
        np.array(read_table(path / "estimates.csv")[1], dtype=float)
        for path in _reconstruct(datasets, "intersect")
    )
    assert original.shape == mirrored.shape and len(original) >= 2
    image = original * np.array([1.0, -1.0, 1.0, 1.0])
    # the estimates are ordered by score, which the mirror may move in its
    # last digits: pair each with its nearest mirrored estimate
    dist = np.hypot(*(image[:, None, :2] - mirrored[None, :, :2]).transpose(2, 0, 1))
    match = dist.argmin(axis=1)
    assert sorted(match) == list(range(len(mirrored)))
    assert dist[np.arange(len(image)), match].max() <= 1e-9
    assert np.allclose(image[:, 2], mirrored[match, 2], rtol=1e-9, atol=0)
    assert np.array_equal(image[:, 3], mirrored[match, 3])
    # the estimates lie off the mirror line, so the mirror moves them
    assert np.abs(original[:, 1]).min() > 1.0
