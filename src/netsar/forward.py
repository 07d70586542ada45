"""Forward measurement synthesis.

Each receiving station observes, per antenna and per subcarrier, the
channel transfer function of the illuminated scene: a coherent sum over
scene pixels of reflectivity times free-space spreading times the exact
bistatic propagation phase. No far-field approximation is made here, so
the forward model stays independent of the reconstruction chain.
"""

from __future__ import annotations

import math
import mmap
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


# (antenna, pixel, subcarrier) terms one pass of ``_sum_blocks`` forms: a
# block holds as many antennas as fit, and at least one
_TERMS = 1 << 17
# worker threads of the synthesis, built on the first patch of more than
# one block; a forked child has none of them and builds its own
_pool = None
# one anonymous map per participant, holding its phase and product
# buffers; reused across blocks and patches until release_buffers
_buffers: list[mmap.mmap] = []


def _forget_in_child() -> None:
    global _pool
    _pool = None
    _buffers.clear()


os.register_at_fork(after_in_child=_forget_in_child)


def release_buffers() -> None:
    """Return the synthesis buffers to the system; the next synthesis maps new ones."""
    while _buffers:
        _buffers.pop().close()


def _ramp(y: np.ndarray) -> np.ndarray:
    """exp(-1j * y) along axis 0, for y[0] == 0 and y[n] close to n * y[1].

    Two exponentials per column: with n = a + b * w and w = isqrt(len(y)),
    exp(-1j * n * h) is exp(-1j * h)**a * exp(-1j * w * h)**b, for h = y[1]
    rounded (Veltkamp) to few enough bits that n * h is exact for every n.
    The residue e = y[n] - n * h (about 1e-11) is exact too (Sterbenz) and
    is applied as 1 - 1j * e. Two phasors keep the powers short: one
    phasor raised to the 15th power carried twice the rounding error.
    """
    count = len(y)
    if count == 1:
        return np.ones(y.shape, dtype=complex)
    scaled = y[1] * (2.0 ** (count - 1).bit_length() + 1.0)
    h = scaled - (scaled - y[1])
    w = math.isqrt(count)
    ramps = np.empty((2, -(-count // w)) + y.shape[1:], dtype=complex)
    ramps[:, 0] = 1.0
    ramps[0, 1] = np.exp(-1j * h)
    ramps[1, 1] = np.exp(-1j * (w * h))
    for b in range(2, ramps.shape[1]):
        np.multiply(ramps[:, b - 1], ramps[:, 1], out=ramps[:, b])
    out = ramps[1, :, None] * ramps[0, :w]
    out = out.reshape(-1, *y.shape[1:])[:count]
    out *= 1.0 - 1j * (y - np.arange(count).reshape(-1, 1, 1) * h)
    return out


def _sum_blocks(samples, starts, lock, pix, values, d_tx, rx_pos, k_runs, width, octave):
    """Fill ``samples`` for each block of ``width`` antennas taken from ``starts``.

    ``k_runs`` holds the wavenumbers in runs of B = isqrt(M), the last run
    padded; the padded columns are trimmed. The phase theta = k_m * t,
    t = d_tx + d_rx, is rounded exactly as the direct sum rounds it and
    laid out as (run, subcarrier, antenna, pixel), then split as
    q + u + delta: q is theta at its run's first subcarrier, r = theta - q
    is exact while the band lies within an octave (Sterbenz), u is r of
    the first run and delta = r - u (about 1e-10) is exact too. So
    exp(-i theta) = exp(-i q) exp(-i u) (1 - i delta) up to delta**2 / 2.
    Within an octave (``octave``) exp(-i q) is exp(-i q_0) times the ramp
    of q - q_0 and exp(-i u) the ramp of u (``_ramp``): 5 exponentials per
    (antenna, pixel). Across octaves the differences are rounded, and the
    2B exponentials are taken directly. Batched ``matmul`` sums over the
    pixels: each antenna is its own batch element of the same shape, so
    the bits depend on neither the participant count, ``_TERMS`` nor the
    BLAS thread count. These small products stay below OpenBLAS's
    threading threshold, so no BLAS thread spins on the core another
    participant needs. Their last bits may depend on the kernel OpenBLAS
    picks for the CPU.

    Each participant takes a buffer from ``_buffers`` (or maps one) for the
    phases and the delta products, and puts it back when no block is left.
    Worker threads run this, so it calls no public netsar function, which
    the bench tracer (not thread-safe) may wrap.
    """
    runs, run = k_runs.shape
    m = samples.shape[1]
    size = width * k_runs.size * len(values)
    with lock:
        buffer = _buffers.pop() if _buffers else None
    if buffer is None or len(buffer) < 24 * size:
        buffer = mmap.mmap(-1, 24 * size, flags=mmap.MAP_PRIVATE)
    phase = np.frombuffer(buffer, dtype=float, count=size)
    product = np.frombuffer(buffer, dtype=complex, count=size, offset=8 * size)
    while True:
        with lock:
            start = next(starts, None)
        if start is None:
            break
        rows = slice(start, start + width)
        d_rx = np.linalg.norm(pix[None, :, :] - rx_pos[rows, None, :], axis=2)
        amp = values / (d_tx * d_rx)
        shape = (runs, run) + amp.shape
        theta = phase[: math.prod(shape)].reshape(shape)
        np.multiply(k_runs[:, :, None, None], d_tx + d_rx, out=theta)
        # q and u are copied out before theta becomes r, then delta, in
        # place: an operand that overlaps its output makes numpy copy slowly
        q = theta[:, 0].copy()
        theta -= q[:, None]
        u = theta[0].copy()
        theta -= u
        if octave:
            w = amp * np.exp(-1j * q[0]) * _ramp(q - q[0])
            eu = _ramp(u)
        else:
            w = amp * np.exp(-1j * q)
            eu = np.exp(-1j * u)
        # one zgemm per antenna, one matrix-vector product per (run, antenna)
        sums = w.transpose(1, 0, 2) @ eu.transpose(1, 2, 0)
        corr = np.multiply(theta, eu, out=product[: theta.size].reshape(shape))
        corr = corr.transpose(0, 2, 1, 3) @ w[..., None]
        sums -= 1j * corr[..., 0].transpose(1, 0, 2)
        samples[rows] = sums.reshape(len(amp), -1)[:, :m]
    _buffers.append(buffer)


def _antenna_sums(samples, pix, values, tx_pos, rx_pos, k, participants=None) -> None:
    """Write each antenna's pixel sum into ``samples``, one row per antenna.

    The calling thread and up to ``participants - 1`` pool threads
    (default: one participant per CPU the process may use) take blocks of
    as many antennas as ``_TERMS`` allows in turn. A row is computed the
    same way whoever takes it, so the samples do not depend on the
    participant count.
    """
    global _pool
    if participants is None:
        if hasattr(os, "sched_getaffinity"):
            participants = len(os.sched_getaffinity(0))
        else:
            participants = os.cpu_count() or 1
    run = math.isqrt(k.size)
    k_runs = np.pad(k, (0, -k.size % run), mode="edge").reshape(-1, run)
    width = max(1, _TERMS // (k_runs.size * len(values)))
    blocks = range(0, len(rx_pos), width)
    helpers = min(participants, len(blocks)) - 1
    if helpers > 0 and _pool is None:
        from concurrent.futures import ThreadPoolExecutor

        _pool = ThreadPoolExecutor(max_workers=participants - 1)
    d_tx = np.linalg.norm(pix - tx_pos[None, :], axis=1)
    octave = bool(k[-1] <= 2.0 * k[0])
    starts = iter(blocks)
    args = (samples, starts, threading.Lock(), pix, values, d_tx, rx_pos, k_runs, width, octave)
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
