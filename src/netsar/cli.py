"""Command-line driver: simulation, reconstruction, analysis, export.

Subcommands:
  simulate     run the slotted network measurement loop, write a dataset
  reconstruct  image or localize from a dataset with the configured algorithm
  analyze      slice-check | tradeoff verification paths
  scene        generate and export the ground-truth scene only

Every run writes a manifest recording the config hash, the seed, and a
sha256 checksum of every artifact, so identical (config, seed) pairs are
checkable for bit-identical outputs.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import math
import os
import sys
import warnings
from collections import Counter
from pathlib import Path

import numpy as np

from .analysis import projection_slice_check, resolutions
from .config import RunConfig, load_config, save_config, serialize_config
from .constants import SPEED_OF_LIGHT
from .errors import (
    ConfigError,
    CorruptDatasetError,
    EmptyFootprintError,
    InvalidBeamError,
    MissingDatasetError,
    NetsarError,
    UnknownAlgorithmError,
)
from .forward import (
    MeasurementPatch,
    WaveformSpec,
    illuminated_pixels,
    synthesize_measurement,
)
from .geometry import BaseStation, BeamSpec, GroundPoint, beam_footprint
from .imageio import read_table, write_pgm, write_table
from .isar import VoxelGrid, solve_voxel_grid, voxel_grid_slices_to_pgm, voxel_grid_to_csv
from .patches import align_and_place, align_distance, wavenumber_vectors
from .reconstruct import (
    estimate_height,
    fuse_images,
    intersect_lines,
    procedure1_invert,
    procedure2_per_patch,
    range_profiles,
)
from .scene import Scene, random_reflector_scene, scene_from_csv, scene_to_csv
from .tradeoff import (
    channel_from_csv,
    example_channel,
    gaussian_sum_bound,
    information_terms,
    terms_table,
)


# ---------------------------------------------------------------- network


def build_network(cfg: RunConfig) -> list[BaseStation]:
    """Stations on a square grid centered on the scene origin.

    Each array is mounted broadside to the station's line of sight to
    the scene center (the deployment that minimizes the orientation
    phase ramp for looks near the center).
    """
    n = cfg.network
    side = n.grid_side
    stations = []
    for i in range(side):
        for j in range(side):
            x = (i - (side - 1) / 2.0) * n.grid_spacing_m
            y = (j - (side - 1) / 2.0) * n.grid_spacing_m
            if abs(x) < 1e-9 and abs(y) < 1e-9:
                orientation = 0.0
            else:
                orientation = math.atan2(-y, -x) + math.pi / 2
            stations.append(
                BaseStation(
                    position=GroundPoint(x, y, n.station_height_m),
                    antenna_count=n.antenna_count,
                    antenna_spacing=n.antenna_spacing_m,
                    array_orientation=orientation,
                    station_id=f"bs{i}{j}",
                )
            )
    return stations


def build_scene(cfg: RunConfig) -> Scene:
    """The ground-truth reflector scene the config's scene section describes."""
    sc = cfg.scene
    return random_reflector_scene(
        extent=(sc.extent_m, sc.extent_m),
        count=sc.reflector_count,
        side=sc.reflector_side_m,
        seed=sc.seed,
        resolution=sc.resolution_m,
    )


def channel_waveform(cfg: RunConfig, channel: int) -> WaveformSpec:
    """Waveform of one frequency channel: carriers stacked by bandwidth."""
    w = cfg.waveform
    bandwidth = w.subcarrier_count * w.subcarrier_spacing_hz
    return WaveformSpec(
        carrier_frequency=w.carrier_frequency_hz + channel * bandwidth,
        subcarrier_count=w.subcarrier_count,
        subcarrier_spacing=w.subcarrier_spacing_hz,
    )


# --------------------------------------------------------------- manifest


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _config_hash(cfg: RunConfig) -> str:
    return hashlib.sha256(serialize_config(cfg).encode()).hexdigest()


def write_manifest(out: Path, cfg: RunConfig, seed: int, extra_lines: list[str]) -> None:
    """key = value manifest with artifact checksums, written last.

    A ``checksum.<artifact> = <sha256>`` line among extra_lines gives that
    artifact's checksum, which is then not read back from disk; it is
    listed with the other checksums, in path order.
    """
    lines = [f"config_hash = {_config_hash(cfg)}", f"seed = {seed}"]
    known = {}
    for line in extra_lines:
        key, _, value = line.partition(" = ")
        if key.startswith("checksum."):
            known[key] = value
        else:
            lines.append(line)
    for path in sorted(out.rglob("*")):
        if path.is_file() and path.name != "manifest.txt":
            key = f"checksum.{path.relative_to(out)}"
            lines.append(f"{key} = {known.get(key) or _sha256(path)}")
    (out / "manifest.txt").write_text("\n".join(lines) + "\n")


def _save_npy(path: Path, shape: tuple[int, ...], blocks) -> str:
    """Write the complex64 array of the given shape, block by block, to path.

    The file is the one np.save writes of that array (format 1.0), its
    header built from the shape alone. The blocks are the array's
    shape[0] rows in turn; each is cast to complex64, written and hashed
    as it comes, so the whole array is never held. Returns the file's
    sha256.
    """
    header = io.BytesIO()
    descr = np.lib.format.dtype_to_descr(np.dtype(np.complex64))
    np.lib.format.write_array_header_1_0(
        header, {"descr": descr, "fortran_order": False, "shape": shape}
    )
    digest = hashlib.sha256(header.getbuffer())
    with open(path, "wb") as fh:
        fh.write(header.getbuffer())
        for block in blocks:
            row = np.ascontiguousarray(block, dtype=np.complex64)
            fh.write(row)
            digest.update(row)
    return digest.hexdigest()


# --------------------------------------------------------------- simulate

PATCH_COLUMNS = ["slot", "channel", "tx_id", "rx_id", "tilt", "planar"]


def simulate_run(cfg: RunConfig, out: Path, seed: int) -> int:
    """Slotted measurement loop; returns the recorded patch count.

    Per slot every station transmits independently with the configured
    probability on a uniformly random channel, aiming at a uniformly
    random ground point within the aim radius of its own base. Every
    other station not transmitting on that channel and within the
    maximum receive distance of the footprint records a patch. Patches
    whose footprint contains no nonzero scene pixel are skipped; the
    manifest counts the skips by reason.

    The loop only plans: it makes every draw and classifies every beam,
    and keeps each recorded patch's row and synthesis inputs. Then the
    patches are synthesized in complex128 one at a time, each stored in
    samples.npy as complex64 and hashed as it is written, so no more than
    one patch's samples are held at once.
    """
    out.mkdir(parents=True, exist_ok=True)
    scene = build_scene(cfg)
    stations = build_network(cfg)
    station_xy = np.array([s.position.horizontal() for s in stations])
    sch = cfg.schedule
    open_angle = math.radians(cfg.beam.open_angle_deg)

    root = np.random.SeedSequence(seed)
    slot_seeds = root.spawn(sch.slot_count)

    rows: list[list] = []
    plan: list[tuple] = []
    skipped: Counter[str] = Counter()
    for slot in range(sch.slot_count):
        rng = np.random.default_rng(slot_seeds[slot])
        transmits = rng.random(len(stations)) < sch.transmit_probability
        channels = rng.integers(0, sch.channel_count, size=len(stations))
        for ti, tx in enumerate(stations):
            if not transmits[ti]:
                continue
            # aim: uniform over the disk of the aim radius around the base
            radius = cfg.beam.aim_radius_m * math.sqrt(rng.random())
            azimuth = rng.uniform(0.0, 2.0 * math.pi)
            dx = radius * math.cos(azimuth)
            dy = radius * math.sin(azimuth)
            tilt = math.atan2(math.hypot(dx, dy), tx.height)
            try:
                beam = BeamSpec(
                    open_angle=open_angle, tilt_angle=tilt, planar_angle=azimuth
                )
                footprint = beam_footprint(tx, beam)
            except InvalidBeamError:
                skipped["invalid_beam"] += 1
                continue
            ch = int(channels[ti])
            wf = channel_waveform(cfg, ch)
            # stations in reach of the footprint that listen on its channel
            listening = (
                np.linalg.norm(station_xy - footprint.center.horizontal(), axis=1)
                <= sch.max_receive_distance_m
            ) & ~(transmits & (channels == ch))
            listening[ti] = False
            receivers = [stations[ri] for ri in np.flatnonzero(listening)]
            if not receivers:
                continue
            # the footprint test depends on the beam alone: classify it once
            try:
                pixels, values = illuminated_pixels(scene, footprint)
            except EmptyFootprintError:
                skipped["outside_scene"] += len(receivers)
                continue
            if values.size == 0:
                skipped["dark_footprint"] += len(receivers)
                continue
            for rx in receivers:
                rows.append([slot, ch, tx.station_id, rx.station_id, tilt, azimuth])
                plan.append((tx, beam, rx, wf, footprint, (pixels, values)))

    scene_to_csv(scene, out / "scene.csv")
    write_pgm(np.abs(scene.reflectivity), out / "scene.pgm")
    save_config(cfg, out / "config.txt")
    write_table(out / "patches.csv", PATCH_COLUMNS, rows)
    shape = (len(plan), cfg.network.antenna_count, cfg.waveform.subcarrier_count)
    # synthesized in complex128, stored at a receiver's precision
    blocks = (
        synthesize_measurement(
            scene, tx, beam, rx, wf, footprint=footprint, illuminated=lit
        ).samples
        for tx, beam, rx, wf, footprint, lit in plan
    )
    extra = [f"checksum.samples.npy = {_save_npy(out / 'samples.npy', shape, blocks)}"]
    extra += [f"patch_count = {len(rows)}"]
    extra += [f"skipped.{reason} = {n}" for reason, n in sorted(skipped.items())]
    write_manifest(out, cfg, seed, extra)
    return len(rows)


# ------------------------------------------------------------ dataset I/O


def load_dataset(cfg: RunConfig, dataset: Path):
    """Rebuild MeasurementPatch objects from a simulate_run dataset.

    The dataset's config.txt is the one source of its geometry: the
    given config must equal it in every section except reconstruction
    and output_dir, or ConfigError names the conflicting key. Row i of
    patches.csv describes samples.npy[i]; its footprint is rebuilt from
    its transmitter, tilt and planar angle and the config's open angle,
    and its region center is that footprint's center. Columns besides
    PATCH_COLUMNS are ignored.

    samples.npy is read once, into one array kept at the complex type it
    is stored in (simulate_run stores complex64); each patch's samples
    are a view of its row, made of the very bytes the manifest's checksum
    was compared against. Alignment widens each patch to complex128 as it
    multiplies it by its correction. Raises CorruptDatasetError
    when samples.npy cannot be read, is not a complex array (rejected
    from its header, so nothing is unpickled) or does not hold one finite
    (antenna, subcarrier) grid per patches.csv row, when patches.csv
    lacks a column, and when one of its rows is malformed: the channel
    is not a configured channel, a station is not in the configured
    network, the tilt or planar angle is not finite, or the tilt makes
    no valid beam. Last, samples.npy, patches.csv and config.txt must
    match the sha256 checksums that manifest.txt records; a mismatch or
    a missing checksum raises CorruptDatasetError naming the file.
    """
    for name in ("patches.csv", "samples.npy", "config.txt", "manifest.txt"):
        if not (dataset / name).is_file():
            raise MissingDatasetError(f"no {name} in dataset {dataset}")
    pairs = zip(
        serialize_config(cfg).splitlines(),
        serialize_config(load_config(dataset / "config.txt")).splitlines(),
    )
    for given, simulated in pairs:
        if given != simulated and not given.startswith(("reconstruction.", "output_dir")):
            raise ConfigError(f"{given} conflicts with the dataset's {simulated}")
    header, rows = read_table(dataset / "patches.csv")
    missing = [name for name in PATCH_COLUMNS if name not in header]
    if missing:
        raise CorruptDatasetError(f"patches.csv in {dataset} has no column {missing}")
    if not rows:
        raise MissingDatasetError(f"dataset at {dataset} contains no patches")
    expected = (len(rows), cfg.network.antenna_count, cfg.waveform.subcarrier_count)
    samples, samples_digest = _read_samples(dataset / "samples.npy", expected)
    digests = {
        "samples.npy": samples_digest,
        "patches.csv": _sha256(dataset / "patches.csv"),
        "config.txt": _sha256(dataset / "config.txt"),
    }
    stations = {s.station_id: s for s in build_network(cfg)}
    network = f"a station of the {cfg.network.grid_side}x{cfg.network.grid_side} network"
    channels = cfg.schedule.channel_count
    open_angle = math.radians(cfg.beam.open_angle_deg)
    patches = []
    for line, (row, grid) in enumerate(zip(rows, samples), start=2):
        if len(row) != len(header):
            raise CorruptDatasetError(
                f"patches.csv line {line} has {len(row)} fields, not {len(header)}"
            )
        cells = dict(zip(header, row))
        channel = _cell(
            cells, line, "channel", int, lambda v: 0 <= v < channels,
            f"a channel in 0..{channels - 1}",
        )
        tx = _cell(cells, line, "tx_id", stations.get, bool, network)
        rx = _cell(cells, line, "rx_id", stations.get, bool, network)
        wf = channel_waveform(cfg, channel)
        footprint = _footprint(cells, line, tx, open_angle)
        patches.append(MeasurementPatch(grid, tx, rx, wf, footprint.center, footprint))
    recorded = _manifest_checksums(dataset / "manifest.txt")
    for name, digest in digests.items():
        if name not in recorded:
            raise CorruptDatasetError(
                f"manifest.txt in {dataset} records no checksum of {name}"
            )
        if recorded[name] != digest:
            raise CorruptDatasetError(
                f"{name} in {dataset} does not match the checksum manifest.txt records"
            )
    return patches


def _read_samples(path: Path, shape: tuple[int, int, int]) -> tuple[np.ndarray, str]:
    """samples.npy as an array of the given shape and stored dtype, and its sha256.

    Streams the file once. Its header is parsed first, so a file of the
    wrong shape or of a non-complex dtype (an object array included) is
    rejected before any sample is read or memory is allocated for it.
    Then each row of the file is read straight into one preallocated
    array of the stored dtype, hashed and checked for finiteness, so the
    array returned holds exactly the bytes that were hashed.
    """
    readers = {
        (1, 0): np.lib.format.read_array_header_1_0,
        (2, 0): np.lib.format.read_array_header_2_0,
    }
    with open(path, "rb") as fh:
        try:
            version = np.lib.format.read_magic(fh)
            if version not in readers:
                raise ValueError(f"unsupported .npy format version {version}")
            stored, fortran_order, dtype = readers[version](fh)
        except ValueError as exc:  # a truncated or garbled header
            raise CorruptDatasetError(f"{path.name} in {path.parent}: {exc}") from None
        if not np.issubdtype(dtype, np.complexfloating):
            raise CorruptDatasetError(
                f"{path.name} in {path.parent} holds {dtype} values, not complex samples"
            )
        if stored != shape:
            raise CorruptDatasetError(
                f"{path.name} has shape {stored}; patches.csv and the config call for {shape}"
            )
        data_start = fh.tell()
        fh.seek(0)
        digest = hashlib.sha256(fh.read(data_start))
        # a Fortran-ordered file stores the rows of the transpose in turn
        stored_rows = np.empty(shape[::-1] if fortran_order else shape, dtype)
        # the parts' float dtype: np.isfinite runs about twice as fast on it
        part = np.empty(0, dtype).real.dtype
        for raw in stored_rows.reshape(len(stored_rows), -1).view(np.uint8):
            if fh.readinto(raw) != raw.size:
                raise CorruptDatasetError(f"{path.name} in {path.parent} is truncated")
            digest.update(raw)
            if not np.isfinite(raw.view(part)).all():
                raise CorruptDatasetError(
                    f"{path.name} in {path.parent} holds non-finite samples"
                )
        # bytes past the last sample belong to the file's checksum too
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return (stored_rows.T if fortran_order else stored_rows), digest.hexdigest()


def _manifest_checksums(path: Path) -> dict[str, str]:
    """The artifact checksums a manifest records, by artifact name."""
    checksums = {}
    for line in path.read_bytes().decode(errors="replace").splitlines():
        key, _, value = line.partition(" = ")
        if key.startswith("checksum."):
            checksums[key.removeprefix("checksum.")] = value
    return checksums


def _footprint(cells, line, tx, open_angle):
    """The footprint of the row's beam."""
    tilt = _cell(cells, line, "tilt", float, math.isfinite, "a finite number")
    planar = _cell(cells, line, "planar", float, math.isfinite, "a finite number")
    try:
        footprint = beam_footprint(tx, BeamSpec(open_angle, tilt, planar))
    except InvalidBeamError as exc:
        raise CorruptDatasetError(
            f"patches.csv line {line}, column tilt: {cells['tilt']!r} is not "
            f"a valid beam tilt ({exc})"
        ) from None
    return footprint


def _cell(cells, line, name, parse, valid, expected):
    """One patches.csv field, parsed and checked, or CorruptDatasetError."""
    try:
        value = parse(cells[name])
    except ValueError:
        value = None
    if value is None or not valid(value):
        raise CorruptDatasetError(
            f"patches.csv line {line}, column {name}: {cells[name]!r} is not {expected}"
        )
    return value


# ------------------------------------------------------------ reconstruct


def _report_header(cfg: RunConfig, n_patches: int) -> list[str]:
    wf = channel_waveform(cfg, 0)
    aperture = cfg.network.antenna_count * cfg.network.antenna_spacing_m
    rho_y, rho_x, dx = resolutions(
        wf, aperture, cfg.network.grid_spacing_m, cfg.network.antenna_count
    )
    return [
        f"algorithm = {cfg.reconstruction.algorithm}",
        f"patches = {n_patches}",
        f"range_resolution_m = {rho_y!r}",
        f"cross_resolution_m = {rho_x!r}",
        f"array_sampling_m = {dx!r}",
    ]


def _largest_beam_group(patches):
    """The patches of the beam most receivers recorded (the first such beam)."""
    groups: dict = {}
    for p in patches:
        groups.setdefault(p.footprint, []).append(p)
    return max(groups.values(), key=len)


class _PatchImages:
    """Procedure 2's per-patch images of ``patches``, each formed as
    iteration reaches it. Sized, so a caller may count the images without
    forming them (``bench/spans.py`` takes ``len`` of fuse_images' input)."""

    def __init__(self, patches: list[MeasurementPatch]):
        self.patches = patches

    def __len__(self) -> int:
        return len(self.patches)

    def __iter__(self):
        return (procedure2_per_patch(align_and_place(p), pad_factor=2) for p in self.patches)


def reconstruct_run(cfg: RunConfig, dataset: Path, out: Path, seed: int) -> None:
    """Dispatch the configured algorithm over a dataset and write artifacts.

    The dataset is loaded, and so checked, before out is created; the
    config's simulation sections must equal the dataset's config.txt. An
    out that resolves to the dataset directory raises ConfigError before
    anything is read or written.
    """
    if out.resolve() == dataset.resolve():
        raise ConfigError(
            f"output directory {out} is the dataset {dataset}; write the reconstruction elsewhere"
        )
    raw = load_dataset(cfg, dataset)
    out.mkdir(parents=True, exist_ok=True)
    rcfg = cfg.reconstruction
    report = _report_header(cfg, len(raw))
    algorithm = rcfg.algorithm

    if algorithm == "intersect":
        profiles = [range_profiles(align_and_place(p), threshold_db=12.0) for p in raw]
        window = SPEED_OF_LIGHT / (2.0 * cfg.waveform.subcarrier_spacing_hz)
        estimates, diag = intersect_lines(
            profiles,
            cluster_radius=3.0,
            min_support=3,
            min_crossing_sine=0.3,
            max_offset=0.45 * window,
            pair_max_separation=0.9 * window,
        )
        write_table(
            out / "estimates.csv",
            ["x", "y", "score", "supporting_lines"],
            [
                [e.position.x, e.position.y, e.score, e.supporting_lines]
                for e in estimates
            ],
        )
        report += [
            f"estimates = {len(estimates)}",
            f"intersections = {diag.intersections}",
            f"clusters = {diag.clusters}",
            f"skipped_parallel = {diag.skipped_parallel}",
        ]
    elif algorithm == "procedure2":
        fused = fuse_images(
            _PatchImages(raw),
            extent=(cfg.scene.extent_m, cfg.scene.extent_m),
            spacing=rcfg.pixel_spacing_m,
            method=rcfg.fusion_method,
        )
        write_pgm(fused.magnitude, out / "fused.pgm")
        report.append(f"fused_pixels = {fused.magnitude.shape}")
    elif algorithm == "procedure1":
        aligned = [align_and_place(p) for p in _largest_beam_group(raw)]
        wf_top = channel_waveform(cfg, cfg.schedule.channel_count - 1)
        k_max = (
            4.0 * np.pi * (wf_top.carrier_frequency + wf_top.bandwidth) / SPEED_OF_LIGHT
        )
        S = 512
        pixel_extent = 0.9 * S * 2.0 * np.pi / k_max
        image = procedure1_invert(aligned, S, pixel_extent)
        write_pgm(image.magnitude, out / "procedure1.pgm")
        report += [
            f"procedure1_patches = {len(aligned)}",
            f"pixel_extent_m = {pixel_extent!r}",
        ]
    elif algorithm == "3d":
        truth = scene_from_csv(
            dataset / "scene.csv",
            (cfg.scene.extent_m, cfg.scene.extent_m),
            cfg.scene.resolution_m,
        )
        height = (
            truth.height if truth.height is not None else np.zeros(truth.shape)
        )
        base = np.abs(truth.reflectivity)
        step = 0.1  # rad/m between height planes
        planes = np.stack(
            [
                base * np.exp(-1j * i * step * height)
                for i in range(rcfg.height_plane_count)
            ]
        )
        est, valid = estimate_height(planes, step)
        rows = []
        for ix, iy in zip(*np.nonzero(valid)):
            rows.append([int(ix), int(iy), float(est[ix, iy]), float(height[ix, iy])])
        write_table(out / "height.csv", ["x_index", "y_index", "estimate", "truth"], rows)
        filled = np.where(valid, est, 0.0)
        write_pgm(filled, out / "height.pgm")
        report.append(f"height_pixels = {int(valid.sum())}")
    elif algorithm == "isar":
        group = _largest_beam_group(raw)
        kvecs = np.concatenate([wavenumber_vectors(p).reshape(-1, 3) for p in group])
        values = np.concatenate([align_distance(p).samples.reshape(-1) for p in group])
        stride = max(1, kvecs.shape[0] // 1500)
        # copies, so the full arrays are freed before the solve
        kvecs, values = kvecs[::stride].copy(), values[::stride].copy()
        grid = VoxelGrid(M_side=8, spacing=cfg.scene.extent_m / 16.0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            # aligned samples carry exp(+j k . p): negate k for the e^{-j} model
            voxels, rank = solve_voxel_grid(-kvecs, values, grid)
        voxel_grid_to_csv(voxels, out / "voxels.csv")
        voxel_grid_slices_to_pgm(voxels, out, stem="voxels")
        # the solve's last bits depend on how BLAS splits it across threads
        blas_threads = (
            os.environ.get("OPENBLAS_NUM_THREADS")
            or os.environ.get("OMP_NUM_THREADS")
            or f"cpus:{os.cpu_count()}"
        )
        report += [
            f"isar_samples = {values.size}",
            f"isar_rank = {rank}",
            f"isar_blas_threads = {blas_threads}",
        ]
        report += [f"isar_warning = {w.message}" for w in caught]

    (out / "report.txt").write_text("\n".join(report) + "\n")
    write_manifest(
        out, cfg, seed, [f"dataset_manifest = {_sha256(dataset / 'manifest.txt')}"]
    )


# ---------------------------------------------------------------- analyze


def analyze_run(cfg: RunConfig, subcommand: str, out: Path, seed: int, args) -> None:
    out.mkdir(parents=True, exist_ok=True)
    if subcommand == "slice-check":
        rng = np.random.default_rng(seed)
        size = args.size
        image = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
        slc, proj, err = projection_slice_check(image, args.angle)
        write_table(
            out / "slice.csv",
            ["index", "slice_re", "slice_im", "projection_re", "projection_im"],
            [
                [i, float(a.real), float(a.imag), float(b.real), float(b.imag)]
                for i, (a, b) in enumerate(zip(slc, proj))
            ],
        )
        print(f"slice-check angle={args.angle} relative error {err:.3e}")
    elif subcommand == "tradeoff":
        channel = (
            channel_from_csv(args.channel) if args.channel else example_channel()
        )
        terms = information_terms(channel)
        print(terms_table(terms))
        print(f"gaussian_sum_bound(3) = {gaussian_sum_bound(3.0)!r}")
        write_table(
            out / "tradeoff.csv", ["term", "bits"], [[k, float(v)] for k, v in terms.items()]
        )
    else:
        raise UnknownAlgorithmError(f"unknown analyze subcommand {subcommand!r}")
    write_manifest(out, cfg, seed, [f"analyze = {subcommand}"])


# ------------------------------------------------------------------- main


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", type=Path, default=None)
    parser.add_argument("--out", type=Path, default=None)
    parser.add_argument("--seed", type=int, default=None)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="netsar")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run the measurement loop")
    _add_common(p_sim)

    p_rec = sub.add_parser("reconstruct", help="image or localize from a dataset")
    _add_common(p_rec)
    p_rec.add_argument("--dataset", type=Path, required=True)

    p_ana = sub.add_parser("analyze", help="verification analyses")
    p_ana.add_argument("subcommand", choices=["slice-check", "tradeoff"])
    _add_common(p_ana)
    p_ana.add_argument("--angle", type=float, default=0.0)
    p_ana.add_argument("--size", type=int, default=32)
    p_ana.add_argument("--channel", type=Path, default=None)

    p_scn = sub.add_parser("scene", help="generate and export the scene")
    _add_common(p_scn)

    args = parser.parse_args(argv)
    try:
        return _run(args)
    except NetsarError as exc:
        # a refused run is one line on stderr, not a traceback
        print(f"netsar: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def _run(args) -> int:
    config = args.config
    if config is None and args.command == "reconstruct":
        # a dataset records the config it was simulated with
        if (args.dataset / "config.txt").exists():
            config = args.dataset / "config.txt"
    cfg = load_config(config) if config else RunConfig()
    seed = args.seed if args.seed is not None else cfg.schedule.seed
    out = args.out if args.out is not None else Path(cfg.output_dir)

    if args.command == "simulate":
        count = simulate_run(cfg, out, seed)
        print(f"recorded {count} patches in {out}")
    elif args.command == "reconstruct":
        reconstruct_run(cfg, args.dataset, out, seed)
        print(f"wrote reconstruction artifacts to {out}")
    elif args.command == "analyze":
        analyze_run(cfg, args.subcommand, out, seed, args)
    elif args.command == "scene":
        out.mkdir(parents=True, exist_ok=True)
        scene = build_scene(cfg)
        scene_to_csv(scene, out / "scene.csv")
        write_pgm(np.abs(scene.reflectivity), out / "scene.pgm")
        write_manifest(out, cfg, seed, ["scene_only = 1"])
        print(f"wrote scene to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
