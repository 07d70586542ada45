"""Truth scorer and output checks.

The truth is rebuilt from the config and its scene seed, the same way
``scripts/run_end_to_end.py`` and acceptance criterion 9 score
``intersect``: a reflector is matched when an estimate lies within the
match radius of its center. ``procedure2`` writes an image, not a list,
so its estimates are the strongest peaks of ``fused.pgm`` under
non-maximum suppression.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

from netsar.imageio import read_pgm

MATCH_RADIUS_M = 5.0


def truth_scene(cfg):
    """The ground-truth scene a config and its scene seed describe."""
    from netsar.scene import random_reflector_scene

    sc = cfg.scene
    return random_reflector_scene(
        extent=(sc.extent_m, sc.extent_m),
        count=sc.reflector_count,
        side=sc.reflector_side_m,
        seed=sc.seed,
        resolution=sc.resolution_m,
    )


def truth_centers(cfg) -> np.ndarray:
    """(R, 2) ground-plane centers of the configured scene's reflectors."""
    reflectors = truth_scene(cfg).reflectors
    return np.array([r.center.horizontal() for r in reflectors]).reshape(-1, 2)


def score(centers: np.ndarray, estimates: np.ndarray, radius=MATCH_RADIUS_M) -> dict:
    """Matched fraction, false detections and mean error of the matches."""
    estimates = np.asarray(estimates, dtype=float).reshape(-1, 2)
    if len(centers) == 0:
        raise ValueError("the scene has no reflectors to score against")
    if len(estimates):
        dist = np.linalg.norm(centers[:, None, :] - estimates[None, :, :], axis=2)
        nearest = dist.min(axis=1)
        matched = nearest < radius
        false = int((dist.min(axis=0) >= radius).sum())
    else:
        nearest = np.full(len(centers), math.inf)
        matched = np.zeros(len(centers), dtype=bool)
        false = 0
    return {
        "matched": int(matched.sum()),
        "reflectors": len(centers),
        "estimates": len(estimates),
        "matched_frac": float(matched.mean()),
        "false_detections": false,
        "mean_error_m": float(nearest[matched].mean()) if matched.any() else math.nan,
    }


def read_estimates(path: Path) -> np.ndarray:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return np.array([[float(r["x"]), float(r["y"])] for r in rows]).reshape(-1, 2)


def pick_peaks(field: np.ndarray, spacing: float, count: int, radius: float) -> np.ndarray:
    """Ground positions of the ``count`` strongest peaks of a fused image.

    The grid is the one ``fuse_images`` samples: pixel i sits at
    (i - n // 2) * spacing from the origin. After each peak, every pixel
    within ``radius`` of it is suppressed; zero pixels are never peaks.
    """
    work = field.copy()
    nx, ny = work.shape
    r = int(math.ceil(radius / spacing))
    di, dj = np.mgrid[-r : r + 1, -r : r + 1]
    disk = di**2 + dj**2 <= (radius / spacing) ** 2
    peaks = []
    for _ in range(count):
        flat = int(np.argmax(work))
        i, j = divmod(flat, ny)
        if work[i, j] <= 0:
            break
        peaks.append(((i - nx // 2) * spacing, (j - ny // 2) * spacing))
        ii, jj = i + di[disk], j + dj[disk]
        keep = (ii >= 0) & (ii < nx) & (jj >= 0) & (jj < ny)
        work[ii[keep], jj[keep]] = 0.0
    return np.array(peaks).reshape(-1, 2)


def estimates_for(algorithm: str, cfg, out: Path, reflectors: int) -> np.ndarray:
    """Estimated reflector positions from an algorithm's artifacts."""
    if algorithm == "intersect":
        return read_estimates(out / "estimates.csv")
    if algorithm == "procedure2":
        return pick_peaks(
            read_pgm(out / "fused.pgm"),
            cfg.reconstruction.pixel_spacing_m,
            reflectors,
            MATCH_RADIUS_M,
        )
    raise ValueError(f"no scorer for {algorithm!r}")


# ------------------------------------------------------------------ checks


def _check_image(path: Path, problems: list[str]) -> None:
    try:
        field = read_pgm(path)
    except (OSError, ValueError) as exc:
        problems.append(f"{path.name}: {exc}")
        return
    if field.size == 0 or not field.any():
        problems.append(f"{path.name}: empty image")


def check_dataset(dataset: Path, recorded: int, planned: int) -> list[str]:
    """Problems with a simulate_run dataset; empty when it is sound."""
    problems = [
        f"missing {name}"
        for name in ("patches.csv", "samples.npy", "scene.csv", "manifest.txt")
        if not (dataset / name).is_file()
    ]
    if recorded != planned:
        problems.append(f"recorded {recorded} patches, the pinned plan {planned}")
    if (dataset / "samples.npy").is_file():
        samples = np.load(dataset / "samples.npy")
        if samples.shape[0] != recorded:
            problems.append(f"samples.npy holds {samples.shape[0]} patches, not {recorded}")
        elif not np.all(np.isfinite(samples)):
            problems.append("samples.npy holds non-finite samples")
    return problems


def check_reconstruction(algorithm: str, out: Path) -> list[str]:
    """Problems with one reconstruct_run output directory."""
    problems = [
        f"{algorithm}: missing {name}"
        for name in ("report.txt", "manifest.txt")
        if not (out / name).is_file()
    ]
    if algorithm == "intersect":
        try:
            est = read_estimates(out / "estimates.csv")
        except (OSError, ValueError, KeyError) as exc:
            problems.append(f"estimates.csv: {exc}")
        else:
            if not np.all(np.isfinite(est)):
                problems.append("estimates.csv holds non-finite positions")
    elif algorithm == "procedure2":
        _check_image(out / "fused.pgm", problems)
    elif algorithm == "procedure1":
        _check_image(out / "procedure1.pgm", problems)
    elif algorithm == "isar":
        slices = sorted(out.glob("voxels_*.pgm"))
        if not slices:
            problems.append("isar: no voxel slice images")
        for path in slices:
            _check_image(path, problems)
        try:
            with open(out / "voxels.csv", newline="") as fh:
                values = [complex(float(r["re"]), float(r["im"])) for r in csv.DictReader(fh)]
        except (OSError, ValueError, KeyError) as exc:
            problems.append(f"voxels.csv: {exc}")
        else:
            if not values or not np.all(np.isfinite(values)):
                problems.append("voxels.csv is empty or non-finite")
        report = out / "report.txt"
        if report.is_file() and "isar_rank" not in report.read_text():
            problems.append("isar: report.txt carries no isar_rank")
    return problems
