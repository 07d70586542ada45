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
from .config import RunConfig, load_config
from .constants import SPEED_OF_LIGHT
from .dataset import (
    Dataset,
    build_network,
    channel_waveform,
    dataset_config,
    load_dataset,  # noqa: F401  (bench/spans.py wraps netsar.cli.load_dataset)
    open_dataset,
    write_dataset,
    write_manifest,
)
from .errors import (
    ConfigError,
    EmptyFootprintError,
    InvalidBeamError,
    NetsarError,
)
from .forward import illuminated_pixels, lit_pixel_index, synthesize_measurement
from .geometry import BeamSpec, beam_footprint
from .imageio import write_pgm, write_table
from .isar import VoxelGrid, solve_voxel_grid, voxel_grid_to_csv
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
from .tradeoff import example_channel, gaussian_sum_bound, information_terms, terms_table


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
    and keeps each recorded patch's row and synthesis inputs. Then
    write_dataset writes the dataset as the patches are synthesized one
    at a time, at the complex64 precision a dataset stores, so no more
    than one patch's samples are held at once. A negative seed raises
    ConfigError before out is created.
    """
    if seed < 0:
        raise ConfigError(f"seed {seed}: must be nonnegative")
    scene = build_scene(cfg)
    stations = build_network(cfg)
    station_xy = [(s.position.x, s.position.y) for s in stations]
    sch = cfg.schedule
    open_angle = math.radians(cfg.beam.open_angle_deg)
    waveforms = [channel_waveform(cfg, ch) for ch in range(sch.channel_count)]
    index = lit_pixel_index(scene)

    root = np.random.SeedSequence(seed)
    slot_seeds = root.spawn(sch.slot_count)

    rows: list[list] = []
    plan: list[tuple] = []
    skipped: Counter[str] = Counter()
    for slot in range(sch.slot_count):
        rng = np.random.default_rng(slot_seeds[slot])
        transmits = rng.random(len(stations)) < sch.transmit_probability
        channels = rng.integers(0, sch.channel_count, size=len(stations))
        # the channel each station transmits on, -1 where it does not
        sends = [c if t else -1 for t, c in zip(transmits.tolist(), channels.tolist())]
        for ti, tx in enumerate(stations):
            if sends[ti] < 0:
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
            ch = sends[ti]
            wf = waveforms[ch]
            cx, cy = footprint.center.x, footprint.center.y
            # stations in reach of the footprint that do not transmit on its channel
            receivers = [
                rx
                for rx, (x, y), sent in zip(stations, station_xy, sends)
                if sent != ch
                and math.sqrt((x - cx) * (x - cx) + (y - cy) * (y - cy))
                <= sch.max_receive_distance_m
            ]
            if not receivers:
                continue
            # the footprint test depends on the beam alone: classify it once
            try:
                pixels, values = illuminated_pixels(scene, footprint, index)
            except EmptyFootprintError:
                skipped["outside_scene"] += len(receivers)
                continue
            if values.size == 0:
                skipped["dark_footprint"] += len(receivers)
                continue
            for rx in receivers:
                rows.append([slot, ch, tx.station_id, rx.station_id, tilt, azimuth])
                plan.append((tx, beam, rx, wf, footprint, (pixels, values)))

    blocks = (
        synthesize_measurement(
            scene, tx, beam, rx, wf, footprint=footprint, illuminated=lit, dtype=np.complex64
        ).samples
        for tx, beam, rx, wf, footprint, lit in plan
    )
    write_dataset(out, cfg, seed, scene, rows, blocks, skipped)
    return len(rows)


# ------------------------------------------------------------ reconstruct


def _refuse_a_file_out(out: Path) -> None:
    """Raise ConfigError if out, or its nearest existing ancestor, is not a directory."""
    existing = next((p for p in (out, *out.parents) if p.exists()), None)
    if existing is not None and not existing.is_dir():
        where = "an existing file" if existing == out else f"below the existing file {existing}"
        raise ConfigError(f"output directory {out} is {where}")


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


def _intersect(cfg: RunConfig, data: Dataset):
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
    rows = [[e.position.x, e.position.y, e.score, e.supporting_lines] for e in estimates]
    header = ["x", "y", "score", "supporting_lines"]
    return {"estimates.csv": lambda path: write_table(path, header, rows)}, [
        f"estimates = {len(estimates)}",
        f"intersections = {diag.intersections}",
        f"clusters = {diag.clusters}",
        f"skipped_parallel = {diag.skipped_parallel}",
    ]


def _procedure2(cfg: RunConfig, data: Dataset):
    magnitude = fuse_images(
        _PatchImages(data),
        extent=(cfg.scene.extent_m, cfg.scene.extent_m),
        spacing=cfg.reconstruction.pixel_spacing_m,
        method=cfg.reconstruction.fusion_method,
    ).magnitude
    return {"fused.pgm": partial(write_pgm, magnitude)}, [f"fused_pixels = {magnitude.shape}"]


def _procedure1(cfg: RunConfig, data: Dataset):
    group = data.patches(_largest_beam_group(data.footprints))
    aligned = [align_and_place(p) for p in group]
    wf_top = channel_waveform(cfg, cfg.schedule.channel_count - 1)
    k_max = 4.0 * np.pi * (wf_top.carrier_frequency + wf_top.bandwidth) / SPEED_OF_LIGHT
    S = 512
    pixel_extent = 0.9 * S * 2.0 * np.pi / k_max
    image = procedure1_invert(aligned, S, pixel_extent)
    return {"procedure1.pgm": partial(write_pgm, image.magnitude)}, [
        f"procedure1_patches = {len(aligned)}",
        f"pixel_extent_m = {pixel_extent!r}",
    ]


def _height(cfg: RunConfig, data: Dataset):
    for _ in data:  # the planes come from scene.csv; the samples are only verified
        pass
    truth = scene_from_csv(
        data.path / "scene.csv", (cfg.scene.extent_m, cfg.scene.extent_m), cfg.scene.resolution_m
    )
    height = truth.height if truth.height is not None else np.zeros(truth.shape)
    base = np.abs(truth.reflectivity)
    step = 0.1  # rad/m between height planes
    planes = np.stack([base * np.exp(-1j * i * step * height)
                       for i in range(cfg.reconstruction.height_plane_count)])
    est, valid = estimate_height(planes, step)
    rows = [[int(ix), int(iy), float(est[ix, iy]), float(height[ix, iy])]
            for ix, iy in zip(*np.nonzero(valid))]
    header = ["x_index", "y_index", "estimate", "truth"]
    return {
        "height.csv": lambda path: write_table(path, header, rows),
        "height.pgm": partial(write_pgm, np.where(valid, est, 0.0)),
    }, [f"height_pixels = {int(valid.sum())}"]


def _isar(cfg: RunConfig, data: Dataset):
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
    artifacts = {"voxels.csv": partial(voxel_grid_to_csv, voxels)}
    for n in range(grid.M_side):  # one magnitude image per z slice
        artifacts[f"voxels_{n:03d}.pgm"] = partial(write_pgm, np.abs(voxels.values[:, :, n]))
    # the solve's last bits depend on how BLAS splits it across threads
    blas_threads = (os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS")
                    or f"cpus:{os.cpu_count()}")
    return artifacts, [
        f"isar_samples = {values.size}",
        f"isar_rank = {rank}",
        f"isar_blas_threads = {blas_threads}",
    ] + [f"isar_warning = {w.message}" for w in caught]


# algorithm -> fn(cfg, data) -> ({artifact name: writer(path)}, report lines).
# An entry is never given the output directory: it reads the dataset, and
# reconstruct_run writes its artifacts once samples.npy has been verified.
_RECONSTRUCTIONS = {
    "procedure1": _procedure1,
    "procedure2": _procedure2,
    "intersect": _intersect,
    "3d": _height,
    "isar": _isar,
}


def reconstruct_run(cfg: RunConfig, dataset: Path, out: Path, seed: int) -> None:
    """Run the configured algorithm's _RECONSTRUCTIONS entry; write its artifacts.

    The dataset is checked but for its samples first (open_dataset); the
    config's simulation sections must equal the dataset's config.txt.
    Then samples.npy is streamed once through the algorithm, which keeps
    only what it needs: intersect and procedure2 one patch at a time,
    procedure1 and isar the rows of the largest beam group, 3d none.
    Out is created, and each artifact the entry names written, only after
    the last row, once samples.npy has matched its checksum, so a refused dataset
    leaves no output directory. An out that holds a samples.npy (the
    dataset's own or another's), or is or lies below an existing file,
    raises ConfigError before anything is read or written.
    """
    if (out / "samples.npy").exists():
        raise ConfigError(
            f"output directory {out} holds a dataset; write the reconstruction elsewhere"
        )
    _refuse_a_file_out(out)
    data = open_dataset(cfg, dataset)
    artifacts, report = _RECONSTRUCTIONS[cfg.reconstruction.algorithm](cfg, data)
    out.mkdir(parents=True, exist_ok=True)
    for name, write in artifacts.items():
        write(out / name)
    report = _report_header(cfg, len(data)) + report
    (out / "report.txt").write_text("\n".join(report) + "\n")
    write_manifest(
        out, cfg, seed, [f"dataset_manifest = {data.manifest_sha256}"], ["report.txt", *artifacts]
    )


# ---------------------------------------------------------------- analyze

# the projection side of slice-check builds a size x size**2 complex matrix:
# 635 MB of peak RSS at 256, about 5 GB at 512
_MAX_SLICE_SIZE = 256


def analyze_run(cfg: RunConfig, subcommand: str, out: Path, seed: int, args) -> None:
    """Run slice-check or tradeoff; a refused input leaves no output directory."""
    if subcommand == "slice-check":
        size = args.size
        if not 1 <= size <= _MAX_SLICE_SIZE:
            raise ConfigError(f"--size {size}: must be in 1..{_MAX_SLICE_SIZE}")
        if not math.isfinite(args.angle):
            raise ConfigError(f"--angle {args.angle}: must be finite")
        rng = np.random.default_rng(seed)
        image = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
        slc, proj, err = projection_slice_check(image, args.angle)
        out.mkdir(parents=True, exist_ok=True)
        name = "slice.csv"
        write_table(
            out / name,
            ["index", "slice_re", "slice_im", "projection_re", "projection_im"],
            [
                [i, float(a.real), float(a.imag), float(b.real), float(b.imag)]
                for i, (a, b) in enumerate(zip(slc, proj))
            ],
        )
        print(f"slice-check angle={args.angle} relative error {err:.3e}")
    else:  # tradeoff, the one other subcommand argparse admits
        terms = information_terms(example_channel())
        print(terms_table(terms))
        print(f"gaussian_sum_bound(3) = {gaussian_sum_bound(3.0)!r}")
        out.mkdir(parents=True, exist_ok=True)
        name = "tradeoff.csv"
        write_table(out / name, ["term", "bits"], [[k, float(v)] for k, v in terms.items()])
    write_manifest(out, cfg, seed, [f"analyze = {subcommand}"], [name])


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
    if args.seed is not None and args.seed < 0:
        raise ConfigError(f"--seed {args.seed}: must be nonnegative")
    if args.config is None and args.command == "reconstruct":
        # a dataset records the config it was simulated with
        cfg = dataset_config(args.dataset)
    else:
        cfg = load_config(args.config) if args.config else RunConfig()
    seed = args.seed if args.seed is not None else cfg.schedule.seed
    out = args.out if args.out is not None else Path(cfg.output_dir)
    _refuse_a_file_out(out)

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
        write_manifest(out, cfg, seed, ["scene_only = 1"], ["scene.csv", "scene.pgm"])
        print(f"wrote scene to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
