"""Forward measurement synthesis.

Each receiving station observes, per antenna and per subcarrier, the
channel transfer function of the illuminated scene: a coherent sum over
scene pixels of reflectivity times free-space spreading times the exact
bistatic propagation phase. No far-field approximation is made here, so
the forward model stays independent of the reconstruction chain.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass, field

import numpy as np

from .constants import SPEED_OF_LIGHT
from .errors import EmptyFootprintError
from .geometry import (
    BaseStation,
    BeamSpec,
    EllipseFootprint,
    GroundPoint,
    beam_footprint,
    bistatic_look,
    points_in_footprint,
)
from .scene import Scene


@dataclass(frozen=True)
class WaveformSpec:
    """OFDM waveform: first-subcarrier frequency, count, and spacing."""

    carrier_frequency: float
    subcarrier_count: int
    subcarrier_spacing: float

    def __post_init__(self):
        if self.carrier_frequency <= 0 or self.subcarrier_spacing <= 0:
            raise ValueError("frequencies must be positive")
        if self.subcarrier_count < 1:
            raise ValueError("subcarrier_count must be >= 1")

    @property
    def bandwidth(self) -> float:
        return self.subcarrier_count * self.subcarrier_spacing

    def frequencies(self) -> np.ndarray:
        return self.carrier_frequency + np.arange(self.subcarrier_count) * self.subcarrier_spacing

    def wavenumbers(self) -> np.ndarray:
        """Angular wavenumbers 2*pi*f/c per subcarrier."""
        return 2.0 * np.pi * self.frequencies() / SPEED_OF_LIGHT


@dataclass(frozen=True)
class MeasurementPatch:
    """Per-(antenna, subcarrier) complex samples rx recorded from tx's beam.

    ``samples[l, m]`` is the transfer-function sample at antenna l,
    subcarrier m. The stations carry the geometry alignment needs; the
    composite look direction and bistatic scale are taken once, at the
    region center, when the patch is built. ``footprint`` is the ground
    ellipse tx's beam lit, when known; fusion samples only inside it.
    """

    samples: np.ndarray
    tx: BaseStation
    rx: BaseStation
    waveform: WaveformSpec
    region_center: GroundPoint
    footprint: EllipseFootprint | None = None
    direction: np.ndarray = field(init=False)
    bistatic_scale: float = field(init=False)

    def __post_init__(self):
        direction, scale = bistatic_look(self.tx.position, self.rx.position, self.region_center)
        object.__setattr__(self, "direction", direction)
        object.__setattr__(self, "bistatic_scale", scale)
        if self.samples.shape != (self.rx.antenna_count, self.waveform.subcarrier_count):
            raise ValueError("sample grid must be (antenna_count, subcarrier_count)")


def illuminated_pixels(
    scene: Scene, footprint: EllipseFootprint
) -> tuple[np.ndarray, np.ndarray]:
    """Nonzero scene pixels whose centers lie inside the footprint.

    Returns (pixels, values): the (n, 3) pixel positions, heights
    included, and their reflectivities, in the fixed order synthesis sums
    them. Both are empty when every pixel the footprint covers is dark.
    Raises EmptyFootprintError when no pixel center lies inside it.
    """
    xs, ys = scene.pixel_centers()
    # restrict to the footprint bounding box before the ellipse test
    ix = np.nonzero(np.abs(xs - footprint.center.x) <= footprint.semi_major)[0]
    iy = np.nonzero(np.abs(ys - footprint.center.y) <= footprint.semi_major)[0]
    if ix.size == 0 or iy.size == 0:
        raise EmptyFootprintError("footprint does not intersect the scene grid")
    gx, gy = np.meshgrid(ix, iy, indexing="ij")
    gx = gx.ravel()
    gy = gy.ravel()
    pts = np.stack([xs[gx], ys[gy]], axis=1)
    inside = points_in_footprint(pts, footprint)
    if not np.any(inside):
        raise EmptyFootprintError("no scene pixel center lies inside the footprint")
    gx, gy = gx[inside], gy[inside]

    values = scene.reflectivity[gx, gy]
    nonzero = values != 0
    gx, gy, values = gx[nonzero], gy[nonzero], values[nonzero]

    heights = (
        np.zeros(gx.size) if scene.height is None else scene.height[gx, gy]
    )
    return np.stack([xs[gx], ys[gy], heights], axis=1), values


# antennas whose phase tables one pass of ``_sum_blocks`` forms
_BLOCK = 8
# worker threads of the synthesis, built on the first lit patch; a forked
# child has none of them and builds its own
_pool = None


def _forget_pool() -> None:
    global _pool
    _pool = None


os.register_at_fork(after_in_child=_forget_pool)


def _sum_blocks(samples, starts, lock, pix, values, d_tx, rx_pos, k_runs) -> None:
    """Fill ``samples`` for each antenna block taken from ``starts`` until none is left.

    ``k_runs`` holds the wavenumbers in runs of B = isqrt(M), the last run
    padded; the padded columns are trimmed. The phase theta = k_m * t,
    t = d_tx + d_rx, is rounded exactly as the direct sum rounds it, then
    split as q + u + delta: q is theta at its run's first subcarrier,
    r = theta - q is exact while a run spans less than an octave
    (Sterbenz), u is r of the first run and delta = r - u (about 1e-10)
    is exact too. So exp(-i theta) = exp(-i q) exp(-i u) (1 - i delta) up
    to delta**2 / 2, and each (antenna, pixel) takes 2B exponentials in
    place of M. Batched ``matmul`` sums over the pixels: each antenna is
    its own batch element of the same shape, so the bits depend on neither
    the participant count, ``_BLOCK`` nor the BLAS thread count. These
    small products stay below OpenBLAS's threading threshold, so no BLAS
    thread spins on the core another participant needs. Their last bits
    may depend on the kernel OpenBLAS picks for the CPU.

    Worker threads run this, so it calls no netsar function, which the
    bench tracer (not thread-safe) may wrap.
    """
    m = samples.shape[1]
    while True:
        with lock:
            start = next(starts, None)
        if start is None:
            return
        rows = slice(start, start + _BLOCK)
        d_rx = np.linalg.norm(pix[None, :, :] - rx_pos[rows, None, :], axis=2)
        amp = values / (d_tx * d_rx)
        theta = (d_tx + d_rx)[:, :, None, None] * k_runs  # (l, p, run, s)
        # q and u are copied out before theta becomes r, then delta, in
        # place: an operand that overlaps its output makes numpy copy slowly
        q = theta[:, :, :, :1].copy()
        w = (amp[:, :, None] * np.exp(-1j * q[:, :, :, 0])).transpose(0, 2, 1)
        theta -= q
        u = theta[:, :, :1].copy()
        eu = np.exp(-1j * u[:, :, 0])
        theta -= u
        # one zgemm per antenna, one vector-matrix product per (antenna, run)
        corr = w[:, :, None, :] @ (theta * eu[:, :, None, :]).transpose(0, 2, 1, 3)
        sums = w @ eu - 1j * corr[:, :, 0]
        samples[rows] = sums.reshape(len(amp), -1)[:, :m]


def _antenna_sums(samples, pix, values, tx_pos, rx_pos, k, participants=None) -> None:
    """Write each antenna's pixel sum into ``samples``, one row per antenna.

    The calling thread and up to ``participants - 1`` pool threads
    (default: one participant per CPU the process may use) take blocks of
    ``_BLOCK`` antennas in turn. A row is computed the same way whoever
    takes it, so the samples do not depend on the participant count.
    """
    global _pool
    if participants is None:
        if hasattr(os, "sched_getaffinity"):
            participants = len(os.sched_getaffinity(0))
        else:
            participants = os.cpu_count() or 1
    blocks = range(0, len(rx_pos), _BLOCK)
    helpers = min(participants, len(blocks)) - 1
    if helpers > 0 and _pool is None:
        from concurrent.futures import ThreadPoolExecutor

        _pool = ThreadPoolExecutor(max_workers=helpers)
    d_tx = np.linalg.norm(pix - tx_pos[None, :], axis=1)
    run = math.isqrt(k.size)
    k_runs = np.pad(k, (0, -k.size % run), mode="edge").reshape(-1, run)
    args = (samples, iter(blocks), threading.Lock(), pix, values, d_tx, rx_pos, k_runs)
    futures = [_pool.submit(_sum_blocks, *args) for _ in range(helpers)]
    _sum_blocks(*args)
    for future in futures:
        future.result()


def synthesize_measurement(
    scene: Scene,
    tx: BaseStation,
    beam: BeamSpec,
    rx: BaseStation,
    wf: WaveformSpec,
    noise_power: float = 0.0,
    seed: int | None = None,
    region_center: GroundPoint | None = None,
    footprint: EllipseFootprint | None = None,
    illuminated: tuple[np.ndarray, np.ndarray] | None = None,
) -> MeasurementPatch:
    """Synthesize the patch a receiving station records from one beam.

    Sums the exact-geometry response of every illuminated scene pixel
    (see ``illuminated_pixels``; zero-reflectivity pixels contribute
    nothing and are skipped); a caller that already classified the
    footprint passes that ``(pixels, values)`` pair as ``illuminated``.
    The region center defaults to the footprint center and anchors all
    direction/distance metadata. The antennas are summed on every CPU the
    process may use, with the same bits whatever their number (see
    ``_antenna_sums``). Optional circular complex Gaussian noise of the
    given per-sample power is added when noise_power > 0.
    """
    if footprint is None:
        footprint = beam_footprint(tx, beam)
    if region_center is None:
        region_center = footprint.center

    if illuminated is None:
        illuminated = illuminated_pixels(scene, footprint)
    pix, values = illuminated

    rx_pos = rx.antenna_positions()
    tx_pos = tx.position.as_array()
    k = wf.wavenumbers()

    samples = np.zeros((rx.antenna_count, wf.subcarrier_count), dtype=complex)
    if values.size:
        _antenna_sums(samples, pix, values, tx_pos, rx_pos, k)

    if noise_power > 0:
        rng = np.random.default_rng(seed)
        sigma = np.sqrt(noise_power / 2.0)
        samples = samples + sigma * (
            rng.standard_normal(samples.shape) + 1j * rng.standard_normal(samples.shape)
        )

    return MeasurementPatch(samples, tx, rx, wf, region_center, footprint)
