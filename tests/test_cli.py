import dataclasses
import hashlib
import io
import math
import os
import pickle
import re
import shutil
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import netsar
import netsar.cli
import netsar.dataset
from netsar.cli import (
    PATCH_COLUMNS,
    build_network,
    build_scene,
    channel_waveform,
    load_dataset,
    main,
    reconstruct_run,
    simulate_run,
)
from netsar.config import (
    _ALGORITHMS,
    BeamConfig,
    NetworkConfig,
    ReconstructionConfig,
    RunConfig,
    SceneConfig,
    ScheduleConfig,
    save_config,
)
from netsar.errors import (
    ConfigError,
    CorruptDatasetError,
    EmptyFootprintError,
    InvalidBeamError,
    MissingDatasetError,
    NetsarError,
)
from netsar.forward import synthesize_measurement
from netsar.geometry import BeamSpec, beam_footprint
from netsar.imageio import read_pgm, read_table, write_table
from netsar.patches import align_and_place, align_distance, wavenumber_vectors

SMALL = RunConfig(
    scene=SceneConfig(extent_m=200.0, resolution_m=1.0, reflector_count=12, seed=1),
    network=NetworkConfig(grid_side=2, grid_spacing_m=150.0, antenna_count=16),
    schedule=ScheduleConfig(
        transmit_probability=0.8, channel_count=3, slot_count=40, seed=7
    ),
    beam=BeamConfig(open_angle_deg=10.0, aim_radius_m=80.0),
)


def test_build_network_grid_and_orientation():
    stations = build_network(SMALL)
    assert len(stations) == 4
    ids = {s.station_id for s in stations}
    assert ids == {"bs00", "bs01", "bs10", "bs11"}
    xs = sorted({s.position.x for s in stations})
    assert xs == [-75.0, 75.0]
    # every array is broadside to its line of sight to the origin
    for s in stations:
        los = math.atan2(-s.position.y, -s.position.x)
        assert math.isclose(
            math.sin(s.array_orientation - los - math.pi / 2), 0.0, abs_tol=1e-12
        )


def test_channel_waveform_stacks_by_bandwidth():
    wf0 = channel_waveform(SMALL, 0)
    wf2 = channel_waveform(SMALL, 2)
    assert wf0.carrier_frequency == 5.0e9
    assert wf2.carrier_frequency == 5.0e9 + 2 * wf0.bandwidth
    assert wf2.bandwidth == wf0.bandwidth


def test_simulate_writes_dataset_and_manifest(tmp_path):
    out = tmp_path / "run"
    count = simulate_run(SMALL, out, seed=7)
    assert count > 0
    for name in (
        "scene.csv",
        "scene.pgm",
        "config.txt",
        "patches.csv",
        "samples.npy",
        "manifest.txt",
    ):
        assert (out / name).exists()
    stacked = np.load(out / "samples.npy")
    assert stacked.dtype == np.complex64
    assert stacked.shape[0] == count
    assert stacked.shape[1] == SMALL.network.antenna_count
    manifest = (out / "manifest.txt").read_text()
    assert f"patch_count = {count}" in manifest
    assert "checksum.samples.npy" in manifest
    # skips are counted by reason; patches.csv alone lists the patches
    lines = manifest.splitlines()
    assert not [line for line in lines if line.startswith(("skip.", "patch."))]
    skipped = [line.split(" = ") for line in lines if line.startswith("skipped.")]
    assert skipped and all(value.isdigit() for _, value in skipped)


def test_simulate_manifest_checksums_the_files_as_written(small_dataset):
    # samples.npy is hashed as it is written, not read back; the file must
    # be what np.save writes and every checksum that of the file on disk
    buffer = io.BytesIO()
    np.save(buffer, np.load(small_dataset / "samples.npy"))
    assert (small_dataset / "samples.npy").read_bytes() == buffer.getvalue()
    lines = (small_dataset / "manifest.txt").read_text().splitlines()
    names = sorted(p.name for p in small_dataset.iterdir() if p.name != "manifest.txt")
    expected = [
        f"checksum.{name} = {hashlib.sha256((small_dataset / name).read_bytes()).hexdigest()}"
        for name in names
    ]
    assert lines[-len(expected):] == expected
    assert lines[2].startswith("patch_count = ")


def test_simulate_deterministic(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    simulate_run(SMALL, a, seed=7)
    simulate_run(SMALL, b, seed=7)
    ma = (a / "manifest.txt").read_text()
    mb = (b / "manifest.txt").read_text()
    assert ma == mb
    assert (a / "samples.npy").read_bytes() == (b / "samples.npy").read_bytes()


def test_simulate_seed_changes_output(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    simulate_run(SMALL, a, seed=7)
    simulate_run(SMALL, b, seed=8)
    assert (a / "patches.csv").read_text() != (b / "patches.csv").read_text()


def test_simulate_zero_probability_records_nothing(tmp_path):
    quiet = dataclasses.replace(
        SMALL, schedule=dataclasses.replace(SMALL.schedule, transmit_probability=0.0)
    )
    out = tmp_path / "quiet"
    assert simulate_run(quiet, out, seed=7) == 0
    # the file np.save writes of an empty stack, checksummed as written
    buffer = io.BytesIO()
    shape = (0, SMALL.network.antenna_count, SMALL.waveform.subcarrier_count)
    np.save(buffer, np.zeros(shape, dtype=np.complex64))
    written = (out / "samples.npy").read_bytes()
    assert written == buffer.getvalue()
    digest = hashlib.sha256(written).hexdigest()
    assert f"checksum.samples.npy = {digest}" in (out / "manifest.txt").read_text()


def test_a_simulation_that_fails_midway_leaves_no_loadable_dataset(tmp_path, monkeypatch):
    calls = []

    def failing(*args, **kwargs):
        calls.append(args)
        if len(calls) == 3:
            raise RuntimeError("synthesis failed")
        return synthesize_measurement(*args, **kwargs)

    monkeypatch.setattr(netsar.cli, "synthesize_measurement", failing)
    out = tmp_path / "run"
    with pytest.raises(RuntimeError, match="synthesis failed"):
        simulate_run(SMALL, out, seed=7)
    assert len(calls) == 3
    assert not (out / "manifest.txt").exists()
    with pytest.raises(MissingDatasetError, match="manifest.txt"):
        load_dataset(SMALL, out)


def test_receive_distance_limit(tmp_path):
    near = dataclasses.replace(
        SMALL,
        schedule=dataclasses.replace(SMALL.schedule, max_receive_distance_m=1.0),
    )
    out = tmp_path / "near"
    assert simulate_run(near, out, seed=7) == 0


def _simulate_pair_by_pair(cfg, seed):
    """simulate_run's schedule, synthesizing every eligible (beam, receiver)
    pair at the stored precision: (recorded sample blocks, skip counts,
    beams per outcome)."""
    scene = build_scene(cfg)
    stations = build_network(cfg)
    sch = cfg.schedule
    blocks, skipped, beams = [], Counter(), Counter()
    for slot_seed in np.random.SeedSequence(seed).spawn(sch.slot_count):
        rng = np.random.default_rng(slot_seed)
        transmits = rng.random(len(stations)) < sch.transmit_probability
        channels = rng.integers(0, sch.channel_count, size=len(stations))
        for ti, tx in enumerate(stations):
            if not transmits[ti]:
                continue
            radius = cfg.beam.aim_radius_m * math.sqrt(rng.random())
            azimuth = rng.uniform(0.0, 2.0 * math.pi)
            dx, dy = radius * math.cos(azimuth), radius * math.sin(azimuth)
            try:
                beam = BeamSpec(
                    open_angle=math.radians(cfg.beam.open_angle_deg),
                    tilt_angle=math.atan2(math.hypot(dx, dy), tx.height),
                    planar_angle=azimuth,
                )
                footprint = beam_footprint(tx, beam)
            except InvalidBeamError:
                skipped["invalid_beam"] += 1
                continue
            wf = channel_waveform(cfg, int(channels[ti]))
            outcomes = set()
            for ri, rx in enumerate(stations):
                if ri == ti or (transmits[ri] and channels[ri] == channels[ti]):
                    continue
                reach = rx.position.horizontal() - footprint.center.horizontal()
                if np.linalg.norm(reach) > sch.max_receive_distance_m:
                    continue
                try:
                    patch = synthesize_measurement(
                        scene, tx, beam, rx, wf, footprint=footprint, dtype=np.complex64
                    )
                except EmptyFootprintError:
                    outcome = "outside_scene"
                else:
                    outcome = "recorded" if np.any(patch.samples) else "dark_footprint"
                if outcome == "recorded":
                    blocks.append(patch.samples)
                else:
                    skipped[outcome] += 1
                outcomes.add(outcome)
            beams.update(outcomes)
    return blocks, skipped, beams


def test_simulate_classifies_each_beam_as_a_pair_by_pair_loop_does(tmp_path, monkeypatch):
    blocks, skipped, beams = _simulate_pair_by_pair(SMALL, seed=7)
    # the config exercises every class of beam
    assert beams["outside_scene"] and beams["dark_footprint"] and beams["recorded"]
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return synthesize_measurement(*args, **kwargs)

    monkeypatch.setattr(netsar.cli, "synthesize_measurement", counted)
    out = tmp_path / "run"
    assert simulate_run(SMALL, out, seed=7) == len(blocks)
    # only the receivers of lit beams synthesize
    assert len(calls) == len(blocks)
    manifest = (out / "manifest.txt").read_text().splitlines()
    counts = dict(line.split(" = ") for line in manifest if line.startswith("skipped."))
    assert counts == {f"skipped.{reason}": str(n) for reason, n in skipped.items()}
    np.save(tmp_path / "reference.npy", np.stack(blocks).astype(np.complex64))
    assert (out / "samples.npy").read_bytes() == (tmp_path / "reference.npy").read_bytes()


def test_load_dataset_round_trip(tmp_path):
    out = tmp_path / "run"
    count = simulate_run(SMALL, out, seed=7)
    patches = load_dataset(SMALL, out)
    assert len(patches) == count
    p = patches[0]
    assert p.samples.shape == (16, SMALL.waveform.subcarrier_count)
    # kept at the precision samples.npy stores; alignment widens each patch
    assert p.samples.dtype == np.complex64
    assert p.tx.station_id != p.rx.station_id
    with pytest.raises(MissingDatasetError):
        load_dataset(SMALL, tmp_path / "nope")

    # every loaded patch carries the geometry and the complex64 samples
    # synthesis at the stored precision gave it, bit for bit
    scene = build_scene(SMALL)
    stations = {s.station_id: s for s in build_network(SMALL)}
    header, rows = read_table(out / "patches.csv")
    col = {name: k for k, name in enumerate(header)}
    for loaded, row in zip(patches, rows):
        beam = BeamSpec(
            open_angle=math.radians(SMALL.beam.open_angle_deg),
            tilt_angle=float(row[col["tilt"]]),
            planar_angle=float(row[col["planar"]]),
        )
        made = synthesize_measurement(
            scene,
            stations[row[col["tx_id"]]],
            beam,
            stations[row[col["rx_id"]]],
            channel_waveform(SMALL, int(row[col["channel"]])),
            dtype=np.complex64,
        )
        assert loaded.samples.dtype == made.samples.dtype
        assert loaded.samples.tobytes() == made.samples.tobytes()
        assert np.array_equal(loaded.direction, made.direction)
        for name in ("tx", "rx", "bistatic_scale", "region_center", "waveform", "footprint"):
            assert getattr(loaded, name) == getattr(made, name), name
        # alignment carries the footprint through unchanged
        assert align_and_place(loaded).footprint == made.footprint


def _with_nan(samples):
    samples = samples.copy()
    samples[0, 0, 5] = np.nan
    return samples


@pytest.mark.parametrize(
    "damage, message",
    [
        (lambda s: s[:-1], "shape"),
        (lambda s: np.concatenate([s, s[:1]]), "shape"),
        (_with_nan, "non-finite"),
    ],
    ids=["row_missing", "row_extra", "nan_sample"],
)
def test_load_dataset_rejects_corrupt_samples(tmp_path, damage, message):
    out = tmp_path / "run"
    assert simulate_run(SMALL, out, seed=7) > 1
    np.save(out / "samples.npy", damage(np.load(out / "samples.npy")))
    with pytest.raises(CorruptDatasetError, match=message):
        load_dataset(SMALL, out)


def test_load_dataset_rejects_a_truncated_samples_file(tmp_path):
    out = tmp_path / "run"
    assert simulate_run(SMALL, out, seed=7) > 0
    raw = (out / "samples.npy").read_bytes()
    (out / "samples.npy").write_bytes(raw[:-16])
    with pytest.raises(CorruptDatasetError, match="samples.npy"):
        load_dataset(SMALL, out)


def _record_checksum(dataset, name):
    """Rewrite the manifest's checksum of one artifact to match the file."""
    digest = hashlib.sha256((dataset / name).read_bytes()).hexdigest()
    manifest = dataset / "manifest.txt"
    lines = [
        f"checksum.{name} = {digest}" if line.startswith(f"checksum.{name} = ") else line
        for line in manifest.read_text().splitlines()
    ]
    manifest.write_text("\n".join(lines) + "\n")


def _alter_a_sample(out):
    samples = np.load(out / "samples.npy")
    samples[0, 0, 0] += 1.0
    np.save(out / "samples.npy", samples)


def _append_a_byte(out):
    with open(out / "samples.npy", "ab") as fh:
        fh.write(b"\0")


def _swap_two_rows(out):
    # every row stays well formed, but no longer describes its samples
    header, rows = read_table(out / "patches.csv")
    assert rows[0] != rows[1]
    rows[0], rows[1] = rows[1], rows[0]
    write_table(out / "patches.csv", header, rows)


def _turn_a_beam(out):
    # a valid beam, aimed elsewhere
    header, rows = read_table(out / "patches.csv")
    col = header.index("planar")
    rows[0][col] = repr(float(rows[0][col]) + 0.1)
    write_table(out / "patches.csv", header, rows)


def _change_the_recorded_algorithm(out):
    # a reconstruction key, which a given config may override
    config = (out / "config.txt").read_text()
    altered = config.replace("algorithm = intersect", "algorithm = procedure2")
    assert altered != config
    (out / "config.txt").write_text(altered)


@pytest.mark.parametrize(
    "alter, name",
    [
        (_alter_a_sample, "samples.npy"),
        (_append_a_byte, "samples.npy"),
        (_swap_two_rows, "patches.csv"),
        (_turn_a_beam, "patches.csv"),
        (_change_the_recorded_algorithm, "config.txt"),
    ],
    ids=["sample_changed", "byte_appended", "patches", "planar_changed", "config"],
)
def test_reconstruct_rejects_an_artifact_that_does_not_match_the_manifest(
    small_dataset, tmp_path, alter, name
):
    out = shutil.copytree(small_dataset, tmp_path / "run")
    alter(out)
    with pytest.raises(CorruptDatasetError, match=f"{name} in .* does not match"):
        reconstruct_run(SMALL, out, tmp_path / "rec", seed=7)


def test_load_dataset_needs_the_manifest_to_record_each_checksum(small_dataset, tmp_path):
    out = shutil.copytree(small_dataset, tmp_path / "run")
    manifest = (out / "manifest.txt").read_text().splitlines()
    kept = [line for line in manifest if not line.startswith("checksum.samples.npy")]
    assert len(kept) == len(manifest) - 1
    (out / "manifest.txt").write_text("\n".join(kept) + "\n")
    with pytest.raises(CorruptDatasetError, match="records no checksum of samples.npy"):
        load_dataset(SMALL, out)


@pytest.mark.parametrize(
    "stored",
    [lambda s: s.real.astype(np.float64), lambda s: s.astype(object)],
    ids=["float64", "object"],
)
def test_load_dataset_rejects_samples_that_are_not_complex(
    small_dataset, tmp_path, monkeypatch, stored
):
    out = shutil.copytree(small_dataset, tmp_path / "run")
    np.save(out / "samples.npy", stored(np.load(out / "samples.npy")), allow_pickle=True)
    _record_checksum(out, "samples.npy")

    def unpickle(*args, **kwargs):
        raise AssertionError("load_dataset unpickled samples.npy")

    monkeypatch.setattr(pickle, "load", unpickle)
    monkeypatch.setattr(pickle, "loads", unpickle)
    with pytest.raises(CorruptDatasetError, match="samples.npy in .* not complex"):
        load_dataset(SMALL, out)


@pytest.mark.parametrize(
    "stored",
    [lambda s: s.astype(np.complex128), lambda s: s.astype(">c8")],
    ids=["complex128", "big_endian"],
)
def test_load_dataset_reads_samples_stored_otherwise(small_dataset, tmp_path, stored):
    out = shutil.copytree(small_dataset, tmp_path / "run")
    np.save(out / "samples.npy", stored(np.load(out / "samples.npy")))
    _record_checksum(out, "samples.npy")
    dtype = np.load(out / "samples.npy").dtype
    for loaded, original in zip(load_dataset(SMALL, out), load_dataset(SMALL, small_dataset)):
        assert loaded.samples.dtype == dtype
        assert np.array_equal(loaded.samples, original.samples)


@pytest.mark.parametrize(
    "layout, version, message",
    [("F", (1, 0), "is Fortran-ordered"), ("C", (2, 0), "is a .npy 2.0 file")],
    ids=["fortran_order", "version_2"],
)
def test_load_dataset_refuses_a_layout_netsar_does_not_write(
    small_dataset, tmp_path, layout, version, message
):
    out = shutil.copytree(small_dataset, tmp_path / "run")
    samples = np.load(out / "samples.npy")
    with open(out / "samples.npy", "wb") as fh:
        np.lib.format.write_array(fh, np.asarray(samples, order=layout), version=version)
    _record_checksum(out, "samples.npy")
    assert np.array_equal(np.load(out / "samples.npy"), samples)
    with pytest.raises(CorruptDatasetError, match=f"samples.npy in .* {re.escape(message)}"):
        load_dataset(SMALL, out)


def test_each_loaded_patch_owns_the_bytes_of_its_row(small_dataset):
    # a patch kept from the stream holds its own row, not a view of the file's
    patches = load_dataset(SMALL, small_dataset)
    stored = np.load(small_dataset / "samples.npy")
    for p, row in zip(patches, stored, strict=True):
        assert p.samples.flags.owndata and p.samples.flags.c_contiguous
        assert p.samples.tobytes() == row.tobytes()


def test_alignment_of_a_loaded_patch_equals_that_of_its_widened_samples(small_dataset):
    # the complex64 samples are widened exactly as they are multiplied
    for p in load_dataset(SMALL, small_dataset):
        wide = dataclasses.replace(p, samples=p.samples.astype(np.complex128))
        for align in (align_and_place, align_distance):
            got, want = align(p).samples, align(wide).samples
            assert got.dtype == want.dtype == np.complex128
            assert got.tobytes() == want.tobytes()


def test_load_dataset_rejects_an_empty_patches_file(tmp_path):
    out = tmp_path / "run"
    assert simulate_run(SMALL, out, seed=7) > 0
    (out / "patches.csv").write_bytes(b"")
    with pytest.raises(CorruptDatasetError, match="patches.csv"):
        load_dataset(SMALL, out)


@pytest.fixture(scope="module")
def small_dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("small") / "run"
    assert simulate_run(SMALL, out, seed=7) > 1
    return out


def _set_cell(row, column, value):
    return lambda header, rows: rows[row].__setitem__(header.index(column), value)


def _rename_column(name):
    def damage(header, rows):
        header[header.index(name)] = f"{name}_renamed"

    return damage


@pytest.mark.parametrize(
    "damage, message",
    [
        (_set_cell(0, "channel", "9"), "line 2, column channel"),
        (_set_cell(0, "channel", "-1"), "line 2, column channel"),
        (_set_cell(0, "tx_id", "bs99"), "line 2, column tx_id: 'bs99' is not a station"),
        (lambda header, rows: rows[1].pop(), "line 3 has 5 fields"),
        (_set_cell(0, "tilt", "nan"), "line 2, column tilt"),
        (_set_cell(1, "planar", "inf"), "line 3, column planar"),
        (_set_cell(0, "tilt", "-0.1"), "line 2, column tilt: '-0.1' is not a valid beam"),
        (_set_cell(1, "tilt", "1.5"), "line 3, column tilt: '1.5' is not a valid beam"),
    ]
    + [(_rename_column(name), rf"no column \['{name}'\]") for name in PATCH_COLUMNS],
    ids=[
        "channel_past_the_end",
        "channel_negative",
        "tx_unknown",
        "row_short",
        "tilt_not_finite",
        "planar_not_finite",
        "tilt_negative",
        "beam_edge_past_the_horizon",
    ]
    + [f"column_missing_{name}" for name in PATCH_COLUMNS],
)
def test_load_dataset_rejects_a_malformed_patch_table(
    small_dataset, tmp_path, damage, message
):
    out = shutil.copytree(small_dataset, tmp_path / "run")
    header, rows = read_table(out / "patches.csv")
    damage(header, rows)
    write_table(out / "patches.csv", header, rows)
    with pytest.raises(CorruptDatasetError, match=f"patches.csv .*{message}"):
        load_dataset(SMALL, out)


ALGORITHMS = ("intersect", "procedure1", "procedure2", "isar", "3d")


def test_importing_the_cli_leaves_scipy_interpolate_unloaded(tmp_path):
    # SciPy is needed only by `analyze slice-check`: importing the CLI,
    # simulating and every reconstruction must load no scipy module.
    # Importing the CLI also starts no thread: simulate builds its pool on
    # the first lit patch.
    src = Path(netsar.__file__).resolve().parents[1]
    save_config(SMALL, tmp_path / "small.cfg")
    code = f"""
import dataclasses, sys, threading
from pathlib import Path
import netsar.cli
from netsar.config import ReconstructionConfig, load_config
print('scipy.interpolate' in sys.modules, threading.active_count(),
      'concurrent.futures' in sys.modules)
out = Path({str(tmp_path)!r})
cfg = load_config(out / "small.cfg")
netsar.cli.simulate_run(cfg, out / "data", seed=7)
for algorithm in {ALGORITHMS!r}:
    reconstruction = ReconstructionConfig(algorithm=algorithm, height_plane_count=8)
    rcfg = dataclasses.replace(cfg, reconstruction=reconstruction)
    netsar.cli.reconstruct_run(rcfg, out / "data", out / algorithm, seed=7)
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        timeout=300,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert result.stdout.split("\n")[:2] == ["False 1 False", "[]"]
    for algorithm in ALGORITHMS:
        assert (tmp_path / algorithm / "report.txt").is_file(), algorithm


def test_load_dataset_names_a_station_missing_from_the_config(tmp_path):
    out = tmp_path / "run"
    wide = dataclasses.replace(
        SMALL, network=dataclasses.replace(SMALL.network, grid_side=3)
    )
    assert simulate_run(wide, out, seed=7) > 0
    with pytest.raises(ConfigError, match=r"network\.grid_side = 2 conflicts"):
        load_dataset(SMALL, out)


def test_load_dataset_names_a_config_that_is_not_utf8(small_dataset, tmp_path):
    out = shutil.copytree(small_dataset, tmp_path / "run")
    (out / "config.txt").write_bytes(b"\xff\xfe\x00junk")
    with pytest.raises(NetsarError, match="config.txt is not UTF-8") as raised:
        load_dataset(SMALL, out)
    assert isinstance(raised.value, ConfigError)


@pytest.mark.parametrize(
    "section, change",
    [
        ("beam", {"open_angle_deg": 12.0}),
        ("network", {"grid_spacing_m": 120.0}),
        ("waveform", {"carrier_frequency_hz": 6.0e9}),
        ("network", {"station_height_m": 50.0}),
    ],
    ids=["open_angle", "grid_spacing", "carrier", "station_height"],
)
def test_load_dataset_rejects_a_config_the_dataset_was_not_simulated_with(
    small_dataset, section, change
):
    cfg = dataclasses.replace(
        SMALL, **{section: dataclasses.replace(getattr(SMALL, section), **change)}
    )
    (key,) = change
    with pytest.raises(ConfigError, match=rf"{section}\.{key} = .* conflicts"):
        load_dataset(cfg, small_dataset)


def test_load_dataset_ignores_the_columns_earlier_datasets_stored(small_dataset, tmp_path):
    # patches.csv once also stored each row's index, carrier and footprint
    # center, all of which follow from the config and the beam
    out = shutil.copytree(small_dataset, tmp_path / "run")
    patches = load_dataset(SMALL, small_dataset)
    header, rows = read_table(out / "patches.csv")
    old = ["index", "slot", "channel", "tx_id", "rx_id", "carrier_hz",
           "center_x", "center_y", "tilt", "planar"]
    table = []
    for index, (row, p) in enumerate(zip(rows, patches)):
        cells = dict(zip(header, row), index=index, carrier_hz=p.waveform.carrier_frequency,
                     center_x=p.region_center.x, center_y=p.region_center.y)
        table.append([cells[name] for name in old])
    write_table(out / "patches.csv", old, table)
    _record_checksum(out, "patches.csv")
    for loaded, p in zip(load_dataset(SMALL, out), patches, strict=True):
        assert np.array_equal(loaded.samples, p.samples)
        assert np.array_equal(loaded.direction, p.direction)
        for name in ("tx", "rx", "bistatic_scale", "region_center", "waveform", "footprint"):
            assert getattr(loaded, name) == getattr(p, name), name


def test_reconstruct_intersect_writes_estimates(tmp_path):
    data = tmp_path / "data"
    simulate_run(SMALL, data, seed=7)
    out = tmp_path / "rec"
    reconstruct_run(SMALL, data, out, seed=7)
    assert (out / "estimates.csv").exists()
    report = (out / "report.txt").read_text()
    assert "algorithm = intersect" in report
    assert (out / "manifest.txt").exists()


def test_reconstruct_unknown_3d_without_planes(tmp_path, capsys):
    # a 3d config without its height planes is refused when it is built,
    # so reconstruct stops before the dataset is read or out is made
    data = tmp_path / "data"
    simulate_run(SMALL, data, seed=7)
    with pytest.raises(ConfigError, match="reconstruction.height_plane_count"):
        dataclasses.replace(SMALL, reconstruction=ReconstructionConfig(algorithm="3d"))
    cfg_path = tmp_path / "run.cfg"
    save_config(SMALL, cfg_path)
    text = cfg_path.read_text()
    assert "reconstruction.algorithm = intersect" in text
    cfg_path.write_text(
        text.replace("reconstruction.algorithm = intersect", "reconstruction.algorithm = 3d")
    )
    rec = tmp_path / "rec"
    rc = main(["reconstruct", "--config", str(cfg_path), "--dataset", str(data),
               "--out", str(rec)])
    # one line naming the error class and the config file, no traceback
    err = capsys.readouterr().err
    assert rc != 0 and err.count("\n") == 1
    assert err.startswith(f"netsar: ConfigError: {cfg_path}: ")
    assert re.search("reconstruction.height_plane_count", err)
    assert not rec.exists()


def test_reconstruct_refuses_to_write_into_its_own_dataset(tmp_path, monkeypatch, capsys):
    # the dataset's config.txt says output_dir = out, the directory it is in
    monkeypatch.chdir(tmp_path)
    simulate_run(SMALL, Path("out"), seed=7)
    manifest = (tmp_path / "out" / "manifest.txt").read_bytes()
    assert main(["reconstruct", "--dataset", "./out"]) != 0
    err = capsys.readouterr().err
    assert err.startswith("netsar: ConfigError: ")
    assert re.search("output directory out is the dataset", err)
    with pytest.raises(ConfigError, match="is the dataset"):
        reconstruct_run(SMALL, tmp_path / "out", Path("out"), seed=7)
    assert (tmp_path / "out" / "manifest.txt").read_bytes() == manifest
    assert not (tmp_path / "out" / "report.txt").exists()


def test_reconstruct_refuses_to_write_into_another_dataset(tmp_path, monkeypatch):
    d1, d2 = tmp_path / "d1", tmp_path / "d2"
    simulate_run(SMALL, d1, seed=7)
    simulate_run(SMALL, d2, seed=8)
    before = {p.name: p.read_bytes() for p in d2.iterdir()}

    def refused(*args):
        pytest.fail("the dataset was opened before out was checked")

    monkeypatch.setattr(netsar.cli, "open_dataset", refused)
    with pytest.raises(ConfigError, match="output directory .*d2 holds a dataset"):
        reconstruct_run(SMALL, d1, d2, seed=7)
    assert {p.name: p.read_bytes() for p in d2.iterdir()} == before
    assert len(load_dataset(SMALL, d2)) > 0


def test_reconstruct_3d_with_planes(tmp_path):
    data = tmp_path / "data"
    simulate_run(SMALL, data, seed=7)
    cfg = dataclasses.replace(
        SMALL,
        reconstruction=ReconstructionConfig(algorithm="3d", height_plane_count=8),
    )
    out = tmp_path / "rec3d"
    reconstruct_run(cfg, data, out, seed=7)
    assert (out / "height.csv").exists()
    assert (out / "height.pgm").exists()


@pytest.mark.parametrize(
    "section, change",
    [("network", {"antenna_count": 8}), ("network", {"grid_spacing_m": 200.0})],
)
def test_reconstruct_rejects_a_config_that_conflicts_with_the_dataset(
    tmp_path, section, change
):
    data = tmp_path / "data"
    simulate_run(SMALL, data, seed=7)
    cfg = dataclasses.replace(
        SMALL, **{section: dataclasses.replace(getattr(SMALL, section), **change)}
    )
    (key,) = change
    with pytest.raises(ConfigError, match=rf"{section}\.{key} = .* conflicts"):
        reconstruct_run(cfg, data, tmp_path / "rec", seed=7)


def test_reconstruction_manifest_does_not_depend_on_the_dataset_path(tmp_path):
    data = (tmp_path / "data").resolve()
    simulate_run(SMALL, data, seed=7)
    moved = tmp_path / "elsewhere" / "copy"
    shutil.copytree(data, moved)
    reconstruct_run(SMALL, data, tmp_path / "rec_a", seed=7)
    reconstruct_run(SMALL, moved, tmp_path / "rec_b", seed=7)
    manifest = (tmp_path / "rec_a" / "manifest.txt").read_bytes()
    assert manifest == (tmp_path / "rec_b" / "manifest.txt").read_bytes()
    digest = hashlib.sha256((data / "manifest.txt").read_bytes()).hexdigest()
    assert f"dataset_manifest = {digest}" in manifest.decode()


def test_no_reconstruction_reads_the_ground_truth(small_dataset, tmp_path):
    blind = shutil.copytree(small_dataset, tmp_path / "blind")
    (blind / "scene.csv").unlink()
    (blind / "scene.pgm").unlink()
    # 3d still reads scene.csv for its height planes
    for algorithm in (a for a in _ALGORITHMS if a != "3d"):
        cfg = dataclasses.replace(
            SMALL, reconstruction=ReconstructionConfig(algorithm=algorithm)
        )
        seen, unseen = tmp_path / algorithm / "seen", tmp_path / algorithm / "blind"
        reconstruct_run(cfg, small_dataset, seen, seed=7)
        reconstruct_run(cfg, blind, unseen, seed=7)
        names = sorted(p.name for p in seen.iterdir())
        assert names == sorted(p.name for p in unseen.iterdir()), algorithm
        for name in names:
            assert (seen / name).read_bytes() == (unseen / name).read_bytes(), name


@pytest.mark.parametrize("algorithm", ["isar", "procedure1"])
def test_a_rerun_of_the_dense_reconstructions_is_byte_identical(
    small_dataset, tmp_path, algorithm
):
    cfg = dataclasses.replace(SMALL, reconstruction=ReconstructionConfig(algorithm=algorithm))
    for run in ("a", "b"):
        reconstruct_run(cfg, small_dataset, tmp_path / run, seed=7)
    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "b").iterdir())
    assert "manifest.txt" in names and len(names) > 2
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), name


def test_product_fusion_of_a_multi_beam_dataset_is_not_blank(small_dataset, tmp_path):
    footprints = {p.footprint for p in load_dataset(SMALL, small_dataset)}
    assert len(footprints) > 1
    cfg = dataclasses.replace(
        SMALL,
        reconstruction=ReconstructionConfig(algorithm="procedure2", fusion_method="product"),
    )
    reconstruct_run(cfg, small_dataset, tmp_path, seed=7)
    assert np.count_nonzero(read_pgm(tmp_path / "fused.pgm")) > 0


def test_reconstruct_isar_reports_a_rank_deficient_group(tmp_path):
    # 2 antennas x 8 subcarriers: the largest group holds far fewer than
    # the 8^3 voxels' worth of samples
    cfg = dataclasses.replace(
        SMALL,
        network=dataclasses.replace(SMALL.network, antenna_count=2),
        waveform=dataclasses.replace(SMALL.waveform, subcarrier_count=8),
        reconstruction=ReconstructionConfig(algorithm="isar"),
    )
    data = tmp_path / "data"
    assert simulate_run(cfg, data, seed=7) > 0
    reconstruct_run(cfg, data, tmp_path / "rec", seed=7)
    report = (tmp_path / "rec" / "report.txt").read_text().splitlines()
    (rank,) = [int(line.split(" = ")[1]) for line in report if line.startswith("isar_rank")]
    assert rank < 512
    warning = (
        f"isar_warning = sensing map rank {rank} < voxel count 512: "
        "minimum-norm solution returned"
    )
    assert warning in report


@pytest.mark.parametrize(
    "openblas, omp, expected",
    [("1", "4", "1"), (None, "4", "4"), (None, None, f"cpus:{os.cpu_count()}")],
)
def test_reconstruct_isar_reports_the_blas_thread_count(
    small_dataset, tmp_path, monkeypatch, openblas, omp, expected
):
    for name, value in (("OPENBLAS_NUM_THREADS", openblas), ("OMP_NUM_THREADS", omp)):
        if value is None:
            monkeypatch.delenv(name, raising=False)
        else:
            monkeypatch.setenv(name, value)
    cfg = dataclasses.replace(SMALL, reconstruction=ReconstructionConfig(algorithm="isar"))
    reconstruct_run(cfg, small_dataset, tmp_path, seed=7)
    report = (tmp_path / "report.txt").read_text().splitlines()
    assert f"isar_blas_threads = {expected}" in report


def _largest_beam_group(patches):
    # the group the dense algorithms image: the patches of the beam most
    # receivers recorded, the first such beam in row order on a tie
    groups = {}
    for p in patches:
        groups.setdefault(p.footprint, []).append(p)
    return max(groups.values(), key=len)


def test_procedure1_images_the_rows_of_the_first_largest_beam_group(
    small_dataset, tmp_path, monkeypatch
):
    sizes = Counter(p.footprint for p in load_dataset(SMALL, small_dataset)).values()
    assert list(sizes).count(max(sizes)) > 1  # the tie the first-beam rule breaks
    seen = []

    def capture(patches, S, pixel_extent):
        seen.append(patches)
        return invert(patches, S, pixel_extent)

    invert = netsar.cli.procedure1_invert
    monkeypatch.setattr(netsar.cli, "procedure1_invert", capture)
    cfg = dataclasses.replace(SMALL, reconstruction=ReconstructionConfig(algorithm="procedure1"))
    reconstruct_run(cfg, small_dataset, tmp_path, seed=7)
    group = _largest_beam_group(load_dataset(SMALL, small_dataset))
    ((aligned,),) = [seen]
    assert len(aligned) == len(group)
    for got, p in zip(aligned, group):
        assert got.footprint == p.footprint and got.rx == p.rx
        assert got.samples.tobytes() == align_and_place(p).samples.tobytes()


def test_reconstruct_isar_solves_the_fully_aligned_samples(small_dataset, tmp_path, monkeypatch):
    # the voxel solve gets align_and_place's samples, the ones its k-vectors
    # describe, strided as its k-vectors are
    seen = []

    def capture(k_vectors, values, grid):
        seen.append((k_vectors, values))
        return solve(k_vectors, values, grid)

    solve = netsar.cli.solve_voxel_grid
    monkeypatch.setattr(netsar.cli, "solve_voxel_grid", capture)
    cfg = dataclasses.replace(SMALL, reconstruction=ReconstructionConfig(algorithm="isar"))
    reconstruct_run(cfg, small_dataset, tmp_path, seed=7)
    group = _largest_beam_group(load_dataset(SMALL, small_dataset))
    kvecs = np.concatenate([wavenumber_vectors(p).reshape(-1, 3) for p in group])
    values = np.concatenate([align_and_place(p).samples.reshape(-1) for p in group])
    stride = max(1, len(values) // 1500)
    ((k_seen, values_seen),) = seen
    assert k_seen.tobytes() == (-kvecs[::stride]).tobytes()
    assert values_seen.tobytes() == values[::stride].tobytes()


def test_reconstruct_of_a_refused_dataset_leaves_no_output_directory(small_dataset, tmp_path):
    out = shutil.copytree(small_dataset, tmp_path / "run")
    raw = (out / "samples.npy").read_bytes()
    (out / "samples.npy").write_bytes(raw[:-16])
    with pytest.raises(CorruptDatasetError, match="samples.npy"):
        reconstruct_run(SMALL, out, tmp_path / "rec", seed=7)
    assert not (tmp_path / "rec").exists()


def _add_one_to_the_last_sample(samples):
    samples[-1, -1, -1] += 1.0


def _make_the_last_sample_nan(samples):
    samples[-1, -1, -1] = np.nan


@pytest.mark.parametrize("algorithm", ["intersect", "procedure1", "procedure2", "isar"])
@pytest.mark.parametrize(
    "damage, message",
    [(_add_one_to_the_last_sample, "does not match"), (_make_the_last_sample_nan, "non-finite")],
    ids=["changed", "nan"],
)
def test_a_corrupt_last_row_leaves_no_output_directory(
    small_dataset, tmp_path, algorithm, damage, message
):
    # samples.npy is verified only as it is streamed: every algorithm must
    # read past its last row before it creates anything
    out = shutil.copytree(small_dataset, tmp_path / "run")
    samples = np.load(out / "samples.npy")
    # the dense algorithms' group does not hold the last row, which must still be checked
    assert len(samples) - 1 not in netsar.cli._largest_beam_group(
        [p.footprint for p in load_dataset(SMALL, out)]
    )
    damage(samples)
    np.save(out / "samples.npy", samples)
    cfg = dataclasses.replace(SMALL, reconstruction=ReconstructionConfig(algorithm=algorithm))
    with pytest.raises(CorruptDatasetError, match=f"samples.npy in .* {message}"):
        reconstruct_run(cfg, out, tmp_path / "rec", seed=7)
    assert not (tmp_path / "rec").exists()


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_reconstruct_streams_the_samples_once(small_dataset, tmp_path, monkeypatch, algorithm):
    # the dense algorithms pick their rows from patches.csv, not from a first pass
    passes = []

    def counted(self, rows=None):
        passes.append(rows)
        return stream(self, rows)

    stream = netsar.dataset.Dataset.patches
    monkeypatch.setattr(netsar.dataset.Dataset, "patches", counted)
    reconstruction = ReconstructionConfig(algorithm=algorithm, height_plane_count=8)
    cfg = dataclasses.replace(SMALL, reconstruction=reconstruction)
    reconstruct_run(cfg, small_dataset, tmp_path / "rec", seed=7)
    assert len(passes) == 1


@pytest.mark.parametrize("algorithm", ["intersect", "procedure2"])
def test_reconstruct_memory_stays_below_the_samples_it_streams(tmp_path, algorithm):
    # numpy reports its buffers to tracemalloc; a reconstruction that held
    # every patch would peak above the size of samples.npy
    cfg = dataclasses.replace(
        SMALL,
        schedule=dataclasses.replace(SMALL.schedule, slot_count=320),
        reconstruction=ReconstructionConfig(algorithm=algorithm, pixel_spacing_m=2.0),
    )
    data = tmp_path / "data"
    assert simulate_run(cfg, data, seed=7) > 50
    # a first run imports and caches what any later run reuses
    reconstruct_run(cfg, data, tmp_path / "warm", seed=7)
    tracemalloc.start()
    try:
        reconstruct_run(cfg, data, tmp_path / "rec", seed=7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < (data / "samples.npy").stat().st_size


def test_reconstruct_needs_the_dataset_config(tmp_path):
    data = tmp_path / "data"
    simulate_run(SMALL, data, seed=7)
    (data / "config.txt").unlink()
    with pytest.raises(MissingDatasetError, match="config.txt"):
        reconstruct_run(SMALL, data, tmp_path / "rec", seed=7)


def test_main_scene_and_config_round_trip(tmp_path, capsys):
    cfg_path = tmp_path / "run.cfg"
    save_config(SMALL, cfg_path)
    out = tmp_path / "scene_out"
    rc = main(["scene", "--config", str(cfg_path), "--out", str(out)])
    assert rc == 0
    assert (out / "scene.csv").exists()
    assert "wrote scene" in capsys.readouterr().out


def test_main_refuses_a_missing_config_file_in_one_line(tmp_path, capsys):
    missing = tmp_path / "missing.cfg"
    rc = main(["simulate", "--config", str(missing), "--out", str(tmp_path / "data")])
    err = capsys.readouterr().err
    assert rc == 1 and err.count("\n") == 1
    assert err.startswith(f"netsar: ConfigError: cannot read {missing}: ")
    assert not (tmp_path / "data").exists()


@pytest.mark.parametrize(
    "command, seed, config_text",
    [
        ("simulate", "-1", ""),
        ("scene", None, "scene.seed = -1\n"),
        ("simulate", None, "schedule.seed = -5\n"),
    ],
    ids=["option", "scene-key", "schedule-key"],
)
def test_main_refuses_a_negative_seed_in_one_line(tmp_path, capsys, command, seed, config_text):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(config_text)
    argv = [command, "--config", str(cfg_path), "--out", str(tmp_path / "out")]
    rc = main(argv + (["--seed", seed] if seed else []))
    err = capsys.readouterr().err
    assert rc == 1 and err.count("\n") == 1
    assert err.startswith("netsar: ConfigError: ") and "seed" in err
    assert not (tmp_path / "out").exists()


def test_simulate_run_refuses_a_negative_seed_before_making_out(tmp_path):
    out = tmp_path / "neg"
    with pytest.raises(ConfigError, match="seed -1: must be nonnegative"):
        simulate_run(SMALL, out, -1)
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "scene", "analyze", "reconstruct"])
def test_main_refuses_an_out_that_is_a_file_in_one_line(
    small_dataset, tmp_path, capsys, monkeypatch, command
):
    def no_read(*args):
        raise AssertionError("the dataset was opened")

    monkeypatch.setattr(netsar.cli, "open_dataset", no_read)
    afile = tmp_path / "afile"
    afile.write_bytes(b"kept\n")
    cfg_path = tmp_path / "run.cfg"
    save_config(SMALL, cfg_path)
    args = {
        "simulate": ["--config", str(cfg_path)],
        "scene": ["--config", str(cfg_path)],
        "analyze": ["tradeoff", "--config", str(cfg_path)],
        "reconstruct": ["--dataset", str(small_dataset)],
    }[command]
    rc = main([command, *args, "--out", str(afile)])
    err = capsys.readouterr().err
    assert rc == 1 and err.count("\n") == 1
    assert err == f"netsar: ConfigError: output directory {afile} is an existing file\n"
    below = afile / "sub" / "dir"
    assert main([command, *args, "--out", str(below)]) == 1
    assert capsys.readouterr().err == (
        f"netsar: ConfigError: output directory {below} is below the existing file {afile}\n"
    )
    assert afile.read_bytes() == b"kept\n"
    if command == "reconstruct":
        with pytest.raises(ConfigError, match="is an existing file"):
            reconstruct_run(SMALL, small_dataset, afile, seed=7)
        with pytest.raises(ConfigError, match="is below the existing file"):
            reconstruct_run(SMALL, small_dataset, below, seed=7)


def test_a_manifest_lists_only_the_files_its_run_wrote(small_dataset, tmp_path):
    def reconstruct(algorithm, out):
        cfg = dataclasses.replace(SMALL, reconstruction=ReconstructionConfig(algorithm=algorithm))
        reconstruct_run(cfg, small_dataset, out, seed=7)
        return (out / "manifest.txt").read_bytes()

    reused = tmp_path / "reused"
    reconstruct("procedure1", reused)
    manifest = reconstruct("intersect", reused)
    assert (reused / "procedure1.pgm").exists()
    assert manifest == reconstruct("intersect", tmp_path / "fresh")
    listed = [line.split(" = ")[0] for line in manifest.decode().splitlines()]
    assert [key for key in listed if key.startswith("checksum.")] == [
        "checksum.estimates.csv",
        "checksum.report.txt",
    ]


def test_main_reconstruct_reads_the_dataset_config(tmp_path, capsys):
    # SMALL differs from the default config (16 antennas, 2x2 grid): the
    # reconstruct step must take it from the dataset's own config.txt
    cfg_path = tmp_path / "run.cfg"
    save_config(SMALL, cfg_path)
    data = tmp_path / "data"
    rec = tmp_path / "rec"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(data)]) == 0
    assert main(["reconstruct", "--dataset", str(data), "--out", str(rec)]) == 0
    report = (rec / "report.txt").read_text()
    assert "algorithm = intersect" in report
    count = len(read_table(data / "patches.csv")[1])
    assert f"patches = {count}" in report
    assert (rec / "estimates.csv").exists()


def test_main_analyze_tradeoff(tmp_path, capsys):
    out = tmp_path / "ana"
    rc = main(["analyze", "tradeoff", "--out", str(out)])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "I(X;Y)" in printed
    assert (out / "tradeoff.csv").exists()


@pytest.mark.parametrize(
    "args",
    [
        ["slice-check", "--size", "0"],
        ["slice-check", "--size", "-3"],
        ["slice-check", "--angle", "nan"],
        ["slice-check", "--angle", "inf"],
        # refused before the size x size**2 projection matrix is allocated
        ["slice-check", "--size", "257"],
    ],
    ids=["size-0", "size-negative", "angle-nan", "angle-inf", "size-above-256"],
)
def test_main_analyze_refuses_a_bad_input_in_one_line(tmp_path, capsys, args):
    out = tmp_path / "ana"
    rc = main(["analyze", *args, "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 1 and err.count("\n") == 1
    assert err.startswith(f"netsar: ConfigError: {args[1]}")
    assert not out.exists()


def test_main_analyze_slice_check(tmp_path, capsys):
    out = tmp_path / "slice"
    rc = main(
        ["analyze", "slice-check", "--out", str(out), "--angle", "0.0", "--seed", "3"]
    )
    assert rc == 0
    printed = capsys.readouterr().out
    assert "relative error" in printed
    err = float(printed.strip().split()[-1])
    assert err < 1e-9
