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
import math
import os
import sys
import warnings
from collections import Counter
from functools import partial
from pathlib import Path

import numpy as np

from .analysis import projection_slice_check, resolutions
from .config import RunConfig, load_config, save_config
from .constants import SPEED_OF_LIGHT
from .dataset import (
    PATCH_COLUMNS,
    Dataset,
    _save_npy,
    _sha256,
    build_network,
    channel_waveform,
    load_dataset,  # noqa: F401  (the eager reader, kept importable from the CLI)
    open_dataset,
    write_manifest,
)
from .errors import (
    ConfigError,
    EmptyFootprintError,
    InvalidBeamError,
    NetsarError,
    UnknownAlgorithmError,
)
from .forward import illuminated_pixels, release_buffers, synthesize_measurement
from .geometry import BeamSpec, beam_footprint
from .imageio import write_pgm, write_table
from .isar import VoxelGrid, solve_voxel_grid, voxel_grid_slices_to_pgm, voxel_grid_to_csv
from .patches import align_and_place, wavenumber_vectors
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


# ------------------------------------------------------------------ scene


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


# --------------------------------------------------------------- simulate


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
    release_buffers()
    extra += [f"patch_count = {len(rows)}"]
    extra += [f"skipped.{reason} = {n}" for reason, n in sorted(skipped.items())]
    write_manifest(out, cfg, seed, extra)
    return len(rows)


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


def _largest_beam_group(footprints) -> list[int]:
    """The rows of the beam most receivers recorded (the first such beam)."""
    groups: dict = {}
    for row, footprint in enumerate(footprints):
        groups.setdefault(footprint, []).append(row)
    return max(groups.values(), key=len)


class _PatchImages:
    """Procedure 2's per-patch images of ``patches``, each formed as
    iteration reaches it. Sized, so a caller may count the images without
    forming them (``bench/spans.py`` takes ``len`` of fuse_images' input)."""

    def __init__(self, patches: Dataset):
        self.patches = patches

    def __len__(self) -> int:
        return len(self.patches)

    def __iter__(self):
        return (procedure2_per_patch(align_and_place(p), pad_factor=2) for p in self.patches)


def reconstruct_run(cfg: RunConfig, dataset: Path, out: Path, seed: int) -> None:
    """Dispatch the configured algorithm over a dataset and write artifacts.

    The dataset is checked but for its samples first (open_dataset); the
    config's simulation sections must equal the dataset's config.txt.
    Then samples.npy is streamed once through the algorithm, which keeps
    only what it needs: intersect and procedure2 one patch at a time,
    procedure1 and isar the rows of the largest beam group, 3d none.
    Out is created, and the artifacts written, only after the last row,
    once samples.npy has matched its checksum, so a refused dataset
    leaves no output directory. An out that resolves to the dataset
    directory raises ConfigError before anything is read or written.
    """
    if out.resolve() == dataset.resolve():
        raise ConfigError(
            f"output directory {out} is the dataset {dataset}; write the reconstruction elsewhere"
        )
    data = open_dataset(cfg, dataset)
    rcfg = cfg.reconstruction
    report = _report_header(cfg, len(data))
    algorithm = rcfg.algorithm
    writes = []  # each artifact's writer, called once samples.npy is verified

    if algorithm == "intersect":
        profiles = [range_profiles(align_and_place(p), threshold_db=12.0) for p in data]
        window = SPEED_OF_LIGHT / (2.0 * cfg.waveform.subcarrier_spacing_hz)
        estimates, diag = intersect_lines(
            profiles,
            cluster_radius=3.0,
            min_support=3,
            min_crossing_sine=0.3,
            max_offset=0.45 * window,
            pair_max_separation=0.9 * window,
        )
        writes.append(partial(
            write_table,
            out / "estimates.csv",
            ["x", "y", "score", "supporting_lines"],
            [
                [e.position.x, e.position.y, e.score, e.supporting_lines]
                for e in estimates
            ],
        ))
        report += [
            f"estimates = {len(estimates)}",
            f"intersections = {diag.intersections}",
            f"clusters = {diag.clusters}",
            f"skipped_parallel = {diag.skipped_parallel}",
        ]
    elif algorithm == "procedure2":
        fused = fuse_images(
            _PatchImages(data),
            extent=(cfg.scene.extent_m, cfg.scene.extent_m),
            spacing=rcfg.pixel_spacing_m,
            method=rcfg.fusion_method,
        )
        writes.append(partial(write_pgm, fused.magnitude, out / "fused.pgm"))
        report.append(f"fused_pixels = {fused.magnitude.shape}")
    elif algorithm == "procedure1":
        group = data.patches(_largest_beam_group(data.footprints))
        aligned = [align_and_place(p) for p in group]
        wf_top = channel_waveform(cfg, cfg.schedule.channel_count - 1)
        k_max = (
            4.0 * np.pi * (wf_top.carrier_frequency + wf_top.bandwidth) / SPEED_OF_LIGHT
        )
        S = 512
        pixel_extent = 0.9 * S * 2.0 * np.pi / k_max
        image = procedure1_invert(aligned, S, pixel_extent)
        writes.append(partial(write_pgm, image.magnitude, out / "procedure1.pgm"))
        report += [
            f"procedure1_patches = {len(aligned)}",
            f"pixel_extent_m = {pixel_extent!r}",
        ]
    elif algorithm == "3d":
        for _ in data:  # the planes come from scene.csv; the samples are only verified
            pass
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
        writes.append(partial(
            write_table, out / "height.csv", ["x_index", "y_index", "estimate", "truth"], rows
        ))
        filled = np.where(valid, est, 0.0)
        writes.append(partial(write_pgm, filled, out / "height.pgm"))
        report.append(f"height_pixels = {int(valid.sum())}")
    elif algorithm == "isar":
        group = list(data.patches(_largest_beam_group(data.footprints)))
        kvecs = np.concatenate([wavenumber_vectors(p).reshape(-1, 3) for p in group])
        values = np.concatenate([align_and_place(p).samples.reshape(-1) for p in group])
        stride = max(1, kvecs.shape[0] // 1500)
        # copies, so the full arrays are freed before the solve
        kvecs, values = kvecs[::stride].copy(), values[::stride].copy()
        grid = VoxelGrid(M_side=8, spacing=cfg.scene.extent_m / 16.0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            # aligned samples carry exp(+j k . p): negate k for the e^{-j} model
            voxels, rank = solve_voxel_grid(-kvecs, values, grid)
        writes.append(partial(voxel_grid_to_csv, voxels, out / "voxels.csv"))
        writes.append(partial(voxel_grid_slices_to_pgm, voxels, out))
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

    out.mkdir(parents=True, exist_ok=True)
    for write in writes:
        write()
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
