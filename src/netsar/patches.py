"""Patch conditioning before fusion.

Three steps take a raw measurement patch to a spectrum-domain patch:
distance alignment removes the bulk propagation phase and spreading loss
at the region center; orientation alignment removes the linear phase
ramp across antennas caused by array/boresight misalignment; spectrum
placement assigns each sample its wavenumber coordinate in the global
ground-plane spectrum frame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .forward import MeasurementPatch, WaveformSpec
from .geometry import GroundPoint, antenna_offsets


@dataclass(frozen=True)
class AlignedPatch:
    """Spectrum-domain patch: samples plus per-sample wavenumber coordinates.

    ``wavenumber_coords[l, m]`` is the angular (k_x, k_y) coordinate in
    rad/m of sample (l, m) in the global ground-plane spectrum frame.
    """

    samples: np.ndarray
    wavenumber_coords: np.ndarray
    direction: np.ndarray
    bistatic_scale: float
    tx_id: str
    rx_id: str
    region_center: GroundPoint
    waveform: WaveformSpec

    def __post_init__(self):
        if self.wavenumber_coords.shape != self.samples.shape + (2,):
            raise ValueError("coordinate grid must be congruent with samples")


def align_distance(patch: MeasurementPatch) -> MeasurementPatch:
    """Undo the region-center propagation phase and spreading loss.

    Multiplies sample (l, m) by d_tx * d_rx (inverting the free-space
    amplitude law at the region center) and by exp(+j k_m d_n) with d_n
    the composite station-to-center distance, removing the bulk phase at
    each subcarrier's wavenumber.
    """
    if patch.composite_distance <= 0:
        raise ValueError("composite distance must be positive")
    center = patch.region_center.as_array()
    d_tx = np.linalg.norm(patch.tx_position - center)
    d_rx = np.linalg.norm(patch.rx_position - center)
    k = patch.waveform.wavenumbers()
    correction = (d_tx * d_rx) * np.exp(1j * k * (d_tx + d_rx))
    return replace(patch, samples=patch.samples * correction[None, :])


def misalignment_angle(patch: MeasurementPatch) -> float:
    """Deviation of the receive array from broadside to its line of sight.

    The reference azimuth is the direction from the region center to the
    receiving station; the array imprints no ramp when it is exactly
    perpendicular to that line of sight (psi = 0).
    """
    rel = patch.rx_position[:2] - patch.region_center.horizontal()
    los = math.atan2(rel[1], rel[0])
    return math.pi / 2 - los + patch.rx_array_orientation


def align_orientation(patch: MeasurementPatch) -> MeasurementPatch:
    """Remove the linear phase ramp across antennas.

    An array rotated by psi away from broadside to the look direction
    imprints phase -k_m * o_l * sin(psi) on antenna offset o_l; this
    multiplies by the conjugate ramp. Exact identity when psi = 0.
    """
    psi = misalignment_angle(patch)
    s = math.sin(psi)
    if s == 0.0:
        return patch
    offsets = antenna_offsets(patch.antenna_count, patch.rx_antenna_spacing)
    k = patch.waveform.wavenumbers()
    ramp = np.exp(1j * np.outer(offsets * s, k))
    return replace(patch, samples=patch.samples * ramp)


def wavenumber_vectors(patch: MeasurementPatch) -> np.ndarray:
    """Wavenumber vector k_m * (u_tx + u_rx_l) of every sample, (N_a, M, 3).

    u_tx and u_rx_l are the unit vectors from the region center to the
    transmitter and to the l-th receive antenna.
    """
    center = patch.region_center.as_array()
    u_tx = patch.tx_position - center
    u_tx = u_tx / np.linalg.norm(u_tx)
    rel = patch.rx_antenna_positions - center[None, :]
    u_rx = rel / np.linalg.norm(rel, axis=1)[:, None]
    s = u_tx[None, :] + u_rx  # (N_a, 3)
    k = patch.waveform.wavenumbers()
    return k[None, :, None] * s[:, None, :]


def place_in_spectrum(patch: MeasurementPatch) -> AlignedPatch:
    """Assign every aligned sample its global wavenumber coordinate.

    Sample (l, m) sits at its wavenumber vector projected to the ground
    plane. The radial spacing between adjacent subcarriers is therefore
    2*pi*delta_f/c times the bistatic scale factor |u_tx + u_rx|.
    """
    # placed before the samples copy, so that the freed 3-component
    # temporary does not split the long-lived arrays on the heap
    coords = wavenumber_vectors(patch)[..., :2].copy()
    return AlignedPatch(
        samples=patch.samples.copy(),
        wavenumber_coords=coords,
        direction=patch.direction.copy(),
        bistatic_scale=patch.bistatic_scale,
        tx_id=patch.tx_id,
        rx_id=patch.rx_id,
        region_center=patch.region_center,
        waveform=patch.waveform,
    )


def align_and_place(patch: MeasurementPatch) -> AlignedPatch:
    """Full conditioning chain: distance, orientation, spectrum placement."""
    return place_in_spectrum(align_orientation(align_distance(patch)))
