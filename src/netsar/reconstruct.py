"""Image formation from aligned spectrum patches.

Two full inversion routes (global zero-filled spectrum grid; per-patch
IDFT followed by image-domain fusion), a range-profile route with line
intersection for geometries whose cross resolution is too coarse, and
per-pixel surface-height estimation from a stack of vertical-wavenumber
plane images.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .constants import SPEED_OF_LIGHT
from .errors import DegenerateStepError, EmptyInputError, IndexOverflowError
from .geometry import EllipseFootprint, GroundPoint, RotatedFrame
from .forward import MeasurementPatch
from .patches import wavenumber_vectors


@dataclass(frozen=True)
class ReconstructedImage:
    """Real magnitude field, either in the ground frame or a patch frame.

    ``origin`` is the ground position of the image center pixel block;
    pixel (a, b) sits at offset ((a - nx//2) * dr1, (b - ny//2) * dr2)
    in the image frame. ``frame`` rotates that offset to the ground
    frame for patch-frame images; ground-frame images leave it None.
    ``footprint`` is the ground ellipse the imaged beam lit, when known.
    """

    magnitude: np.ndarray
    pixel_spacing: tuple[float, float]
    origin: GroundPoint
    frame: RotatedFrame | None = None
    footprint: EllipseFootprint | None = None

    def __post_init__(self):
        if not np.all(np.isfinite(self.magnitude)) or np.any(self.magnitude < 0):
            raise ValueError("magnitude must be finite and nonnegative")
        if min(self.pixel_spacing) <= 0:
            raise ValueError("pixel spacing must be positive")

    def ground_position(self, a, b) -> np.ndarray:
        """Ground (x, y) of fractional pixel indices (a, b)."""
        nx, ny = self.magnitude.shape
        off = np.stack(
            [
                (np.asarray(a, dtype=float) - nx // 2) * self.pixel_spacing[0],
                (np.asarray(b, dtype=float) - ny // 2) * self.pixel_spacing[1],
            ],
            axis=-1,
        )
        if self.frame is not None:
            off = self.frame.to_ground(off)
        return self.origin.horizontal() + off


@dataclass(frozen=True)
class ReflectorEstimate:
    """A located significant reflector from range-line intersection."""

    position: GroundPoint
    score: float
    supporting_lines: int

    def __post_init__(self):
        if self.supporting_lines < 2:
            raise ValueError("an estimate needs at least two supporting lines")
        if self.score < 0:
            raise ValueError("score must be nonnegative")


def bin_spectrum(
    patches: list[MeasurementPatch], S: int, pixel_extent: float
) -> np.ndarray:
    """Average every aligned sample into a 2S x 2S zero-filled grid.

    Samples bin by nearest-integer index of their ground-plane
    wavenumber over the step 2*pi / pixel_extent, with index 0 at grid
    position S; colliding samples are averaged. A sample whose index
    leaves the grid raises.
    """
    if not patches:
        raise EmptyInputError("at least one aligned patch is required")
    dk = 2.0 * np.pi / pixel_extent
    n = 2 * S
    cells, values = [], []
    for patch in patches:
        coords = wavenumber_vectors(patch)[..., :2].reshape(-1, 2)
        idx = np.rint(coords / dk).astype(np.int64)
        bad = (idx < -S) | (idx > S - 1)
        if np.any(bad):
            where = np.nonzero(bad.any(axis=1))[0][0]
            raise IndexOverflowError(
                f"sample {where} of patch {patch.tx.station_id}->{patch.rx.station_id} at "
                f"wavenumber {coords[where]} falls outside the {n}x{n} grid"
            )
        cells.append((idx[:, 0] + S) * n + idx[:, 1] + S)
        values.append(patch.samples.reshape(-1))
    # one bincount over the occupied cells adds each cell's samples in input order
    cells, values = np.concatenate(cells), np.concatenate(values)
    occupied, slot = np.unique(cells, return_inverse=True)
    sums = np.empty(occupied.size, dtype=complex)
    sums.real = np.bincount(slot, weights=values.real)
    sums.imag = np.bincount(slot, weights=values.imag)
    acc = np.zeros(n * n, dtype=complex)
    acc[occupied] = sums / np.bincount(slot)
    return acc.reshape(n, n)


def procedure1_invert(
    patches: list[MeasurementPatch], S: int, pixel_extent: float
) -> ReconstructedImage:
    """Global zero-filled spectrum inversion.

    Bins all samples into one 2S x 2S wavenumber grid (unmeasured bins
    stay zero) and inverts by 2-D discrete Fourier transform, taking
    magnitudes. All patches must share one region center.
    """
    if not patches:
        raise EmptyInputError("at least one aligned patch is required")
    center = patches[0].region_center
    for p in patches[1:]:
        if not np.allclose(p.region_center.as_array(), center.as_array()):
            raise ValueError("procedure 1 requires a common region center")
    dx = pixel_extent / (2 * S)
    grid = bin_spectrum(patches, S, pixel_extent)
    # on a 2S x 2S grid ifftshift and fftshift both swap the diagonal quadrants
    halves = (slice(None, S), slice(S, None))
    quadrant = np.empty((S, S), dtype=complex)
    for c in (0, 1):
        near, far = (halves[0], halves[c]), (halves[1], halves[1 - c])
        quadrant[...] = grid[near]
        grid[near] = grid[far]
        grid[far] = quadrant
    del quadrant
    # fft2 transforms axis 1, then axis 0; rows without a sample stay zero
    rows = np.flatnonzero(grid.any(axis=1))
    grid[rows] = np.fft.fft(grid[rows], axis=1)
    np.fft.fft(grid, axis=0, out=grid)
    magnitude = np.empty(grid.shape)
    for r in (0, 1):
        for c in (0, 1):
            np.abs(grid[halves[r], halves[c]], out=magnitude[halves[1 - r], halves[1 - c]])
    del grid
    return ReconstructedImage(
        magnitude=magnitude,
        pixel_spacing=(dx, dx),
        origin=center,
    )


def procedure2_per_patch(
    patch: MeasurementPatch, pad_factor: int = 1
) -> ReconstructedImage:
    """Per-patch regular-grid IDFT image in the patch (range, cross) frame.

    The patch spectrum is rotated to its look direction and shifted so
    the sample cloud's minimum corner sits at the grid origin (a pure
    image phase ramp). Sample (l, m) lies at k_m * r_l on antenna l's
    ray, so the (dk1, dk2) grid is filled by keystone interpolation:
    linearly along the two rays whose slopes bracket a node, in
    subcarrier index at the node's range wavenumber, then linearly
    across them; nodes outside the measured lattice stay zero. The grid
    is inverted with an M x N_a IDFT. The grid steps are read off the
    measured sample cloud (span / count in each rotated axis), so the
    grid matches the measured lattice for any geometry.
    ``pad_factor`` zero-pads the regular grid before the IDFT for
    sinc-interpolated sub-cell image pixels (resolution is unchanged).
    """
    if pad_factor < 1:
        raise ValueError("pad_factor must be >= 1")
    grid, frame, steps = _keystone_grid(patch)
    shape = np.array(grid.shape)
    image = np.fft.fftshift(np.fft.fft2(grid, s=tuple(pad_factor * shape)))
    return ReconstructedImage(
        magnitude=np.abs(image),
        pixel_spacing=tuple(1.0 / (shape * steps) / pad_factor),
        origin=patch.region_center,
        frame=frame,
        footprint=patch.footprint,
    )


def _keystone_grid(patch: MeasurementPatch):
    """Procedure 2's (M, N_a) spectrum grid, its frame and its steps.

    Node (i, j) sits at the sample cloud's minimum corner plus
    2*pi * (i, j) * steps in the patch frame; steps are in cycles per metre.
    """
    n_ant, M = patch.samples.shape
    if n_ant < 2:
        raise ValueError("procedure 2 needs at least two antennas")
    if M < 2:
        raise ValueError("procedure 2 needs at least two subcarriers")
    frame = RotatedFrame(patch.direction)
    coords = frame.to_patch(wavenumber_vectors(patch)[..., :2])  # (N_a, M, 2)
    corner = coords.min(axis=(0, 1))
    span = coords.max(axis=(0, 1)) - corner
    steps = span / (np.array([M, n_ant]) - 1) / (2.0 * np.pi)
    if steps.min() < 1e-15 or coords[:, 0, 0].min() <= 0:
        raise DegenerateStepError(f"measured sample cloud is degenerate: spans {span}")

    # antenna l's samples lie on the ray k_m * r_l; sort the rays by slope
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
        # subcarrier index (k1 / r_l[0] - k_0) / dk of the node on ray l,
        # whose first sample sits at range k_0 * r_l[0]
        t = (k1 * k[0] / first[ray] - k[0]) / (k[1] - k[0])
        inside &= (t >= -1e-9) & (t <= M - 1 + 1e-9)
        t = np.clip(t, 0, M - 1)
        m0 = np.minimum(t.astype(int), M - 2)
        grid += weight * ((m0 + 1 - t) * s[ray, m0] + (t - m0) * s[ray, m0 + 1])
    grid[~inside] = 0.0
    return grid, frame, steps


def fuse_images(
    images: Iterable[ReconstructedImage],
    extent: tuple[float, float],
    spacing: float,
    center: GroundPoint = GroundPoint(0.0, 0.0),
    method: str = "mean",
) -> ReconstructedImage:
    """Resample per-patch images onto a common ground grid and combine.

    Fusion is incoherent: each image is normalized to unit peak, sampled
    bilinearly at the target pixel centers, and combined by ``method``:
    "mean" averages the normalized magnitudes; "product" multiplies the
    images of each footprint group (the patches of one transmit beam,
    which share an equal ``footprint``; images without one form a group
    of their own) and averages the group products. The product form
    suppresses the single-patch cross-range ridge (each station's
    ambiguity is vetoed wherever another station of the beam is dark), so
    the fused response localizes in both axes; the mean form preserves
    relative brightness but keeps each ridge at half scale. Averaging
    across groups keeps beams that share no ground from zeroing each
    other. The result is renormalized to unit peak. A warning (not an
    error) naming the image's index in ``images`` is issued when an
    input image does not overlap the target grid.

    ``images`` may be any iterable, a generator too: each image is
    sampled as it arrives and released before the next is drawn, so
    fusion holds the fused grid and one running product per group, not
    the images.

    An image is sampled only at the target pixels inside its sample box;
    a group's product is zero outside the intersection of its members'
    boxes. The box is the ground bounding box of the image's pixels
    widened by one pixel (beyond its pixels bilinear sampling reads
    exactly 0). For an image with a footprint it is cut to the
    axis-aligned bounding box of the footprint ellipse, half-widths
    hypot(a cos(psi), b sin(psi)) and hypot(a sin(psi), b cos(psi)),
    widened by the image's largest pixel spacing: the cross-range
    sidelobes that reach beyond the lit ground are left out.
    """
    if method not in ("mean", "product"):
        raise ValueError(f"unknown fusion method: {method!r}")
    shape = np.array([math.ceil(extent[0] / spacing), math.ceil(extent[1] / spacing)])
    xs = (np.arange(shape[0]) - shape[0] // 2) * spacing + center.x
    ys = (np.arange(shape[1]) - shape[1] // 2) * spacing + center.y

    def sample(i, img):
        """(box low corner, box high corner, normalized samples in the box)."""
        peak = img.magnitude.max()
        norm = img.magnitude / peak if peak > 0 else img.magnitude
        mx, my = img.magnitude.shape
        lo, hi = _sample_box(img, shape, spacing, center)
        # fractional pixel indices are affine in the ground row and column
        rot = img.frame.matrix if img.frame is not None else np.eye(2)
        rot = rot / np.array(img.pixel_spacing)[:, None]
        dx, dy = xs[lo[0]:hi[0]] - img.origin.x, ys[lo[1]:hi[1]] - img.origin.y
        index = np.empty((2, dx.size, dy.size))
        for axis, n in enumerate((mx, my)):
            np.add.outer(rot[axis, 0] * dx + n // 2, rot[axis, 1] * dy, out=index[axis])
        sampled = _bilinear(norm, index)
        if not np.any(sampled > 0):
            warnings.warn(
                f"image {i} does not overlap the target grid",
                stacklevel=3,
            )
        return lo, hi, sampled

    fused = np.zeros(shape)
    # running (box low corner, box high corner, product) of each footprint group
    groups: dict[EllipseFootprint | None, tuple] = {}
    count = 0
    # no enumerate: its reused result tuple would keep the last image
    # alive while the iterable forms the next one
    for img in images:
        lo, hi, sampled = sample(count, img)
        count += 1
        if method == "mean":
            fused[_box(lo, hi)] += sampled
        elif img.footprint not in groups:
            groups[img.footprint] = lo, hi, sampled
        else:
            group_lo, group_hi, product = groups[img.footprint]
            new_lo = np.maximum(group_lo, lo)
            new_hi = np.maximum(np.minimum(group_hi, hi), new_lo)
            product = product[_box(new_lo - group_lo, new_hi - group_lo)]
            product *= sampled[_box(new_lo - lo, new_hi - lo)]
            groups[img.footprint] = new_lo, new_hi, product
        del img, sampled
    if count == 0:
        raise EmptyInputError("at least one image is required")
    for lo, hi, product in groups.values():
        fused[_box(lo, hi)] += product
    fused /= count if method == "mean" else len(groups)
    peak = fused.max()
    if peak > 0:
        fused /= peak
    return ReconstructedImage(
        magnitude=fused,
        pixel_spacing=(spacing, spacing),
        origin=center,
    )


def _bilinear(image: np.ndarray, index: np.ndarray) -> np.ndarray:
    """Bilinear samples of a 2-D image (each axis at least 2 long) at the
    fractional pixel indices ``index[0]``, ``index[1]``.

    Points inside [0, n-1] on both axes are interpolated; every other
    point reads exactly 0. The weights and the order of the sum are
    those of ``scipy.ndimage.map_coordinates(order=1, mode="constant")``,
    so the two agree to the bit.
    """
    mx, my = image.shape
    x, y = index
    inside = (x >= 0) & (x <= mx - 1) & (y >= 0) & (y <= my - 1)
    # the last cell also serves its upper edge, where the upper weight is 1
    x0 = np.clip(np.floor(x), 0, mx - 2)
    y0 = np.clip(np.floor(y), 0, my - 2)
    wx0 = 1.0 - (x - x0)
    wy0 = 1.0 - (y - y0)
    wx1, wy1 = 1.0 - wx0, 1.0 - wy0
    corner = x0.astype(np.intp) * my + y0.astype(np.intp)
    flat = image.ravel()
    value = flat[corner] * wx0 * wy0
    value += flat[corner + 1] * wx0 * wy1
    value += flat[corner + my] * wx1 * wy0
    value += flat[corner + (my + 1)] * wx1 * wy1
    return np.where(inside, value, 0.0)


def _box(lo, hi) -> tuple[slice, slice]:
    return slice(lo[0], hi[0]), slice(lo[1], hi[1])


def _sample_box(img: ReconstructedImage, shape, spacing: float, center: GroundPoint):
    """Target pixel index ranges [lo, hi) per axis of ``fuse_images``'s sample box."""
    mx, my = img.magnitude.shape
    corners = img.ground_position([-1, -1, mx, mx], [-1, my, -1, my])
    rel = (corners - center.horizontal()) / spacing + shape // 2
    lo, hi = np.floor(rel.min(axis=0)), np.ceil(rel.max(axis=0)) + 1
    f = img.footprint
    if f is not None:
        a, b = f.semi_major, f.semi_minor
        c, s = math.cos(f.major_axis_azimuth), math.sin(f.major_axis_azimuth)
        half = np.array([math.hypot(a * c, b * s), math.hypot(a * s, b * c)])
        half = (half + max(img.pixel_spacing)) / spacing
        mid = (f.center.horizontal() - center.horizontal()) / spacing + shape // 2
        lo = np.maximum(lo, np.ceil(mid - half))
        hi = np.minimum(hi, np.floor(mid + half) + 1)
    lo = np.clip(lo, 0, shape)
    return lo.astype(int), np.clip(hi, lo, shape).astype(int)


@dataclass(frozen=True)
class RangeProfile:
    """Peaks of the incoherent 1-D range response of one patch.

    Peaks are (range, magnitude) pairs sorted by magnitude; a range is
    the offset from ``center`` along the look ``direction``.
    """

    peaks: tuple[tuple[float, float], ...]
    direction: np.ndarray
    center: np.ndarray


def range_profiles(
    patch: MeasurementPatch, threshold_db: float = 6.0
) -> RangeProfile:
    """Range response via a 1-D IDFT across subcarriers.

    Rows are transformed per antenna and averaged incoherently. Bin
    spacing is c / (W * b) with b the patch's horizontal bistatic scale
    (c / (2W) in the monostatic limit). Peaks are local maxima above the
    median profile level plus ``threshold_db`` (amplitude dB), refined
    to sub-bin accuracy by parabolic interpolation.
    """
    wf = patch.waveform
    M = wf.subcarrier_count
    spectra = np.fft.fft(patch.samples, axis=1)
    profile = np.fft.fftshift(np.abs(spectra).mean(axis=0))
    freq = np.fft.fftshift(np.fft.fftfreq(M))
    scale = SPEED_OF_LIGHT / (wf.subcarrier_spacing * patch.bistatic_scale)

    threshold = np.median(profile) * 10.0 ** (threshold_db / 20.0)
    # local maxima above the threshold, with -inf beyond either end
    edged = np.concatenate(([-np.inf], profile, [-np.inf]))
    n = np.flatnonzero(
        (profile > threshold) & (profile >= edged[:-2]) & (profile >= edged[2:])
    )
    r = (freq[n] + _vertex(profile, n) / M) * scale
    v = profile[n]
    order = np.argsort(-v, kind="stable")
    return RangeProfile(
        peaks=tuple(zip(r[order].tolist(), v[order].tolist())),
        direction=patch.direction.copy(),
        center=patch.region_center.horizontal(),
    )


def _vertex(line: np.ndarray, n):
    """Offset from n of the vertex of the parabola through line[n-1:n+2].

    0 at either end of the line and where the curvature is not negative.
    ``n`` is an index or an array of indices.
    """
    n = np.asarray(n)
    left = line[np.maximum(n - 1, 0)]
    right = line[np.minimum(n + 1, line.size - 1)]
    denom = left - 2 * line[n] + right
    inner = (n > 0) & (n < line.size - 1) & (denom < 0)
    return np.where(inner, 0.5 * (left - right) / np.where(inner, denom, -1.0), 0.0)


@dataclass
class IntersectDiagnostics:
    skipped_parallel: int = 0
    intersections: int = 0
    clusters: int = 0


def intersect_lines(
    profiles: list[RangeProfile],
    cluster_radius: float,
    min_support: int = 2,
    min_crossing_sine: float = 1e-3,
    max_offset: float | None = None,
    pair_max_separation: float | None = None,
) -> tuple[list[ReflectorEstimate], IntersectDiagnostics]:
    """Locate reflectors by intersecting equal-range lines across patches.

    Each peak defines the line {q : (q - center) . direction = range}.
    Pairwise intersections between patches (skipping near-parallel
    direction pairs) are accumulated by weight onto a grid of cells of
    side ``cluster_radius``; cells that are local weight maxima over
    their 3x3 neighborhood seed clusters, strongest first, suppressing
    later seeds within two cluster radii. A cluster keeps the points of
    its seed's neighborhood and becomes an estimate when at least
    ``min_support`` distinct patch pairs support it, positioned at the
    weighted mean of those points and scored by summed peak magnitudes.
    ``max_offset`` discards intersections farther than that from either
    patch center; ``pair_max_separation`` skips patch pairs whose
    centers are farther apart than that. Intersections are numbered in
    (i, j, peak of i, peak of j) order and every sum runs in that order;
    seeds of equal neighbourhood weight go in (cell x, cell y) order.
    """
    diag = IntersectDiagnostics()
    live = [i for i, p in enumerate(profiles) if p.peaks]
    if len(live) < 2:
        return [], diag
    direction = np.array([profiles[i].direction[:2] for i in live], dtype=float)
    center = np.array([profiles[i].center[:2] for i in live], dtype=float)
    count = np.array([len(profiles[i].peaks) for i in live])
    peaks = np.array([pk for i in live for pk in profiles[i].peaks], dtype=float)
    # each peak's line offset b in (q . direction) = b
    d, c = (v[np.repeat(np.arange(len(live)), count)] for v in (direction, center))
    offset = peaks[:, 0] + d[:, 0] * c[:, 0] + d[:, 1] * c[:, 1]

    # patch pairs i < j in loop order; separation first, then parallel pairs
    a, b = np.triu_indices(len(live), 1)
    if pair_max_separation is not None:
        far = np.hypot(*(center[a] - center[b]).T) > pair_max_separation
        a, b = a[~far], b[~far]
    cross = direction[a, 0] * direction[b, 1] - direction[a, 1] * direction[b, 0]
    parallel = np.abs(cross) < min_crossing_sine
    diag.skipped_parallel = int(np.count_nonzero(parallel))
    a, b, cross = a[~parallel], b[~parallel], cross[~parallel]

    # every (peak of i, peak of j) of every pair, in (pair, peak_i, peak_j) order
    first = np.cumsum(count) - count
    size = count[a] * count[b]
    pair = np.repeat(np.arange(a.size), size)
    local = np.arange(pair.size) - np.repeat(np.cumsum(size) - size, size)
    ia, ib = a[pair], b[pair]
    ki = first[ia] + local // count[ib]
    kj = first[ib] + local % count[ib]
    bi, bj, cross = offset[ki], offset[kj], cross[pair]
    qx = (bi * direction[ib, 1] - bj * direction[ia, 1]) / cross
    qy = (direction[ia, 0] * bj - direction[ib, 0] * bi) / cross
    if max_offset is not None:
        keep = ~(
            (np.hypot(qx - center[ia, 0], qy - center[ia, 1]) > max_offset)
            | (np.hypot(qx - center[ib, 0], qy - center[ib, 1]) > max_offset)
        )
        qx, qy, ki, kj, ia, ib = (v[keep] for v in (qx, qy, ki, kj, ia, ib))
    diag.intersections = int(qx.size)
    if not qx.size:
        return [], diag
    pts = np.stack([qx, qy], axis=1)
    w = peaks[ki, 1] + peaks[kj, 1]
    index = np.array(live)
    pair_code = index[ia] * len(profiles) + index[ib]

    # cells, coded by the rank of each coordinate among the cells' and
    # their neighbours' coordinates
    cells = np.floor(pts / cluster_radius).astype(np.int64)
    axes = [np.unique(cells[:, k, None] + np.arange(-1, 2)) for k in (0, 1)]

    def code(cx, cy):
        return np.searchsorted(axes[0], cx) * axes[1].size + np.searchsorted(axes[1], cy)

    cell_code, cell_of = np.unique(code(cells[:, 0], cells[:, 1]), return_inverse=True)
    cell_weight = np.bincount(cell_of, weights=w)
    # a cell's points in index order: by_cell[cell_start[c]:cell_start[c + 1]]
    by_cell = np.argsort(cell_of, kind="stable")
    cell_start = np.concatenate(([0], np.cumsum(np.bincount(cell_of))))
    cell_xy = cells[by_cell[cell_start[:-1]]]

    # the 3x3 neighbourhood of each cell, -1 where a neighbour holds no point
    hood = np.empty((cell_code.size, 9), dtype=np.int64)
    for k, (dx, dy) in enumerate((dx, dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1)):
        nb = code(cell_xy[:, 0] + dx, cell_xy[:, 1] + dy)
        at = np.minimum(np.searchsorted(cell_code, nb), cell_code.size - 1)
        hood[:, k] = np.where(cell_code[at] == nb, at, -1)
    hood_weight = np.where(hood >= 0, cell_weight[hood], 0.0)
    is_seed = np.all(cell_weight[:, None] >= hood_weight, axis=1)
    # summed neighbour by neighbour, in neighbourhood order
    total = np.zeros(cell_code.size)
    for k in range(9):
        total += hood_weight[:, k]
    seeds = np.flatnonzero(is_seed)
    seeds = seeds[np.lexsort((cell_xy[seeds, 1], cell_xy[seeds, 0], -total[seeds]))]
    diag.clusters = int(seeds.size)

    estimates = []
    accepted = np.empty((0, 2))
    for seed in seeds:
        members = np.concatenate(
            [by_cell[cell_start[c]:cell_start[c + 1]] for c in hood[seed] if c >= 0]
        )
        pairs = set(pair_code[members].tolist())
        if len(pairs) < min_support:
            continue
        mw = w[members]
        pos = (pts[members] * mw[:, None]).sum(axis=0) / mw.sum()
        if np.any(np.linalg.norm(accepted - pos, axis=1) < 2.0 * cluster_radius):
            continue
        accepted = np.vstack([accepted, pos])
        patches_involved = {p for pair in pairs for p in divmod(pair, len(profiles))}
        estimates.append(
            ReflectorEstimate(
                position=GroundPoint(float(pos[0]), float(pos[1])),
                score=float(mw.sum()),
                supporting_lines=len(patches_involved),
            )
        )
    estimates.sort(key=lambda e: -e.score)
    return estimates, diag


def estimate_height(
    plane_images: np.ndarray,
    z_step: float,
    mask_threshold: float = 0.1,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-pixel surface height from vertical-wavenumber plane images.

    ``plane_images[i]`` is the complex image reconstructed at vertical
    wavenumber i * z_step (plane 0 is the ground plane). For each nonzero
    pixel bright enough in the ground image, the ratio sequence against the
    ground plane is a complex exponential whose frequency is the surface
    height; the height is read off the peak DFT bin. Heights wrap at the
    unambiguous limit 2*pi / z_step; quantization is one DFT bin,
    2*pi / (count * z_step). Returns (height, valid_mask); masked
    pixels hold NaN.
    """
    planes = np.asarray(plane_images)
    if planes.ndim != 3 or planes.shape[0] < 4:
        raise ValueError("need at least 4 uniformly spaced planes")
    if z_step <= 0:
        raise ValueError("z_step must be positive")
    nz = planes.shape[0]
    ground = planes[0]
    magnitude = np.abs(ground)
    # a dark ground pixel has no ratio sequence, even in an all-dark image
    valid = (magnitude >= mask_threshold * magnitude.max()) & (magnitude > 0)
    height = np.full(ground.shape, np.nan)
    if not np.any(valid):
        return height, valid
    ratios = planes[:, valid] / ground[valid][None, :]
    spectra = np.fft.fft(ratios, axis=0)
    n = np.argmax(np.abs(spectra), axis=0)
    freqs = np.fft.fftfreq(nz)
    h = np.mod(-freqs[n], 1.0) * (2.0 * np.pi / z_step)
    height[valid] = h
    return height, valid


def image_peak(image: ReconstructedImage) -> np.ndarray:
    """Ground (x, y) of the image magnitude peak, parabolically refined."""
    mag = image.magnitude
    a, b = np.unravel_index(np.argmax(mag), mag.shape)
    return image.ground_position(
        float(a) + _vertex(mag[:, b], a), float(b) + _vertex(mag[a], b)
    )
