"""Forward measurement synthesis.

Each receiving station observes, per antenna and per subcarrier, the
channel transfer function of the illuminated scene: a coherent sum over
scene pixels of reflectivity times free-space spreading times the exact
bistatic propagation phase. No far-field approximation is made here, so
the forward model stays independent of the reconstruction chain.
"""

from __future__ import annotations

import bisect
import math
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


def lit_pixel_index(scene: Scene) -> tuple:
    """What ``illuminated_pixels`` reads of a scene, for a caller to build
    once: the pixel centers along each axis, and the nonzero pixels' x,
    (n, 3) positions, heights included, and values, in row-major order."""
    xs, ys = scene.pixel_centers()
    ix, iy = np.nonzero(scene.reflectivity)
    heights = np.zeros(ix.size) if scene.height is None else scene.height[ix, iy]
    pixels = np.stack([xs[ix], ys[iy], heights], axis=1)
    return xs.tolist(), ys.tolist(), xs[ix].tolist(), pixels, scene.reflectivity[ix, iy]


def _within(centers: list, c: float, r: float) -> slice:
    """The run of sorted centers with |center - c| <= r in float arithmetic,
    which rounds center - c monotonically in center, so bisection finds it."""
    lo = bisect.bisect_left(centers, -r, key=lambda x: x - c)
    return slice(lo, bisect.bisect_right(centers, r, lo, key=lambda x: x - c))


def _nearest(centers: list, c: float) -> float:
    """The sorted center with the least float |center - c|."""
    i = bisect.bisect_left(centers, c)
    return min(centers[max(i - 1, 0) : i + 1], key=lambda x: abs(x - c))


def illuminated_pixels(
    scene: Scene, footprint: EllipseFootprint, index: tuple | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Nonzero scene pixels whose centers lie inside the footprint.

    Returns (pixels, values): the (n, 3) pixel positions, heights
    included, and their reflectivities, in row-major order, the order
    synthesis sums them. Both are empty when every pixel center inside
    the footprint is dark. Raises EmptyFootprintError when no pixel
    center lies inside it. ``index`` is ``lit_pixel_index(scene)``,
    built here when not given.

    Only the nonzero pixels inside the footprint's bounding box in x
    are tested against the ellipse, together with the grid center
    nearest the footprint center: if that is inside, the footprint is
    lit or dark. Only if not are all grid centers in the box tested.
    """
    xs, ys, lit_x, pixels, values = lit_pixel_index(scene) if index is None else index
    cx, cy, a = footprint.center.x, footprint.center.y, footprint.semi_major
    nearest = [_nearest(xs, cx), _nearest(ys, cy)]
    if abs(nearest[0] - cx) > a or abs(nearest[1] - cy) > a:
        raise EmptyFootprintError("footprint does not intersect the scene grid")
    near = _within(lit_x, cx, a)
    inside = points_in_footprint(np.concatenate([pixels[near, :2], [nearest]]), footprint)
    if inside[:-1].any():
        return pixels[near][inside[:-1]], values[near][inside[:-1]]
    if not inside[-1]:
        box = np.meshgrid(xs[_within(xs, cx, a)], ys[_within(ys, cy, a)])
        if not points_in_footprint(np.stack(box, axis=-1).reshape(-1, 2), footprint).any():
            raise EmptyFootprintError("no scene pixel center lies inside the footprint")
    return pixels[:0], values[:0]


# (antenna, pixel, subcarrier) terms one block of ``_antenna_sums`` holds:
# as many antennas as fit, and at least one
_TERMS = 1 << 17


def _direct(amp, t, k):
    """Each antenna's sum over pixels of amp * exp(-1j * k_m * t), one exponential a term."""
    phase = np.exp(-1j * (k[:, None] * t[:, None, :]))
    return (phase @ amp[..., None])[..., 0]


def _vandermonde(amp, t, k):
    """The sums of ``_direct`` from powers of two phasors per (antenna, pixel).

    The subcarriers are evenly spaced, k_m = k_0 + m dk, so with
    w = isqrt(M) and m = j + w b the term is a r**j (r**w)**b, for
    a = amp exp(-1j k_0 t) and r = exp(-1j dk t). The w "low" powers, a
    folded in, and the ceil(M / w) "high" powers are formed by repeated
    multiplication, and one ``matmul`` per antenna sums their products
    over the pixels; the columns past M are trimmed. The phases are
    rounded otherwise than the direct sum rounds k_m t: about 1e-11 of the
    largest sample, far below the complex64 rounding step of 6e-8.
    """
    m = k.size
    w = math.isqrt(m)
    dk = (k[-1] - k[0]) / max(m - 1, 1)
    low = np.empty((w,) + t.shape, dtype=complex)
    high = np.empty((-(-m // w),) + t.shape, dtype=complex)
    low[0] = amp * np.exp(-1j * (k[0] * t))
    high[0] = 1.0
    r = np.exp(-1j * (dk * t))
    r_w = np.exp(-1j * (w * dk * t))
    for j in range(1, w):
        np.multiply(low[j - 1], r, out=low[j])
    for b in range(1, len(high)):
        np.multiply(high[b - 1], r_w, out=high[b])
    sums = high.transpose(1, 0, 2) @ low.transpose(1, 2, 0)
    return sums.reshape(len(t), -1)[:, :m]


def _antenna_sums(samples, pix, values, tx_pos, rx_pos, k) -> None:
    """Write each antenna's pixel sum into ``samples``, one row per antenna.

    Antennas are taken in blocks of as many as ``_TERMS`` allows. Complex128
    samples take the direct sum (``_direct``), criterion 2's oracle;
    complex64 samples, the precision samples.npy stores, take the
    Vandermonde product (``_vandermonde``), summed in complex128 and
    rounded once. Batched ``matmul`` sums over the pixels: each antenna is
    its own batch element of the same shape, so the bits depend on neither
    ``_TERMS`` nor the BLAS thread count. These products are too small for
    OpenBLAS to split among its threads, so it runs them on the calling
    thread. Their last bits may depend on the kernel OpenBLAS picks for
    the CPU.
    """
    block = _direct if samples.dtype == np.complex128 else _vandermonde
    d_tx = np.linalg.norm(pix - tx_pos[None, :], axis=1)
    width = max(1, _TERMS // (k.size * len(values)))
    for start in range(0, len(rx_pos), width):
        rows = slice(start, start + width)
        d_rx = np.linalg.norm(pix[None, :, :] - rx_pos[rows, None, :], axis=2)
        samples[rows] = block(values / (d_tx * d_rx), d_tx + d_rx, k)


def synthesize_measurement(
    scene: Scene,
    tx: BaseStation,
    beam: BeamSpec,
    rx: BaseStation,
    wf: WaveformSpec,
    region_center: GroundPoint | None = None,
    footprint: EllipseFootprint | None = None,
    illuminated: tuple[np.ndarray, np.ndarray] | None = None,
    dtype=complex,
) -> MeasurementPatch:
    """Synthesize the patch a receiving station records from one beam.

    Sums the exact-geometry response of every illuminated scene pixel
    (see ``illuminated_pixels``; zero-reflectivity pixels contribute
    nothing and are skipped); a caller that already classified the
    footprint passes that ``(pixels, values)`` pair as ``illuminated``.
    The region center defaults to the footprint center and anchors all
    direction/distance metadata. The samples are complex128, the direct
    sum, or with ``dtype=np.complex64`` the Vandermonde product rounded to
    the precision samples.npy stores (see ``_antenna_sums``); any other
    dtype raises ValueError.
    """
    if np.dtype(dtype) not in (np.complex128, np.complex64):
        raise ValueError(f"dtype {np.dtype(dtype)}: synthesis yields complex128 or complex64")
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

    samples = np.zeros((rx.antenna_count, wf.subcarrier_count), dtype=dtype)
    if values.size:
        _antenna_sums(samples, pix, values, tx_pos, rx_pos, k)
    return MeasurementPatch(samples, tx, rx, wf, region_center, footprint)
