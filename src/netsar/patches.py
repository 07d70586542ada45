"""Patch conditioning before fusion.

Two steps take a raw measurement patch to a spectrum-domain patch:
distance alignment removes the bulk propagation phase and spreading loss
at the region center; orientation alignment removes the linear phase
ramp across antennas caused by array/boresight misalignment. Each
aligned sample then reads as the scene spectrum at its wavenumber
vector, which ``wavenumber_vectors`` computes where it is needed.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from .forward import MeasurementPatch
from .geometry import antenna_offsets


def align_distance(patch: MeasurementPatch) -> MeasurementPatch:
    """Undo the region-center propagation phase and spreading loss.

    Multiplies sample (l, m) by d_tx * d_rx (inverting the free-space
    amplitude law at the region center) and by exp(+j k_m d_n) with d_n
    the composite station-to-center distance, removing the bulk phase at
    each subcarrier's wavenumber.
    """
    center = patch.region_center.as_array()
    d_tx = np.linalg.norm(patch.tx.position.as_array() - center)
    d_rx = np.linalg.norm(patch.rx.position.as_array() - center)
    k = patch.waveform.wavenumbers()
    correction = (d_tx * d_rx) * np.exp(1j * k * (d_tx + d_rx))
    return replace(patch, samples=patch.samples * correction[None, :])


def misalignment_angle(patch: MeasurementPatch) -> float:
    """Deviation of the receive array from broadside to its line of sight.

    The reference azimuth is the direction from the region center to the
    receiving station; the array imprints no ramp when it is exactly
    perpendicular to that line of sight (psi = 0).
    """
    rel = patch.rx.position.horizontal() - patch.region_center.horizontal()
    los = math.atan2(rel[1], rel[0])
    return math.pi / 2 - los + patch.rx.array_orientation


def _orientation_ramp(patch: MeasurementPatch) -> np.ndarray | None:
    """The orientation ramp exp(j a_l k_m), (N_a, M); None when psi = 0.

    An array rotated by psi away from broadside to the look direction
    imprints phase -k_m * o_l * sin(psi) on antenna offset o_l; the ramp
    is its conjugate, with a_l = o_l sin(psi). With m = b*B + r,
    B = isqrt(M), it is the product of the phasors exp(j a_l k_{bB}) and
    exp(j a_l (k_r - k_0)): N_a * (B + ceil(M / B)), about 2 N_a sqrt(M),
    exponentials in place of N_a * M. The last coarse block is trimmed to M.
    """
    s = math.sin(misalignment_angle(patch))
    if s == 0.0:
        return None
    a = antenna_offsets(patch.rx.antenna_count, patch.rx.antenna_spacing) * s
    k = patch.waveform.wavenumbers()
    step = math.isqrt(k.size)
    coarse = np.exp(1j * np.outer(a, k[::step]))
    fine = np.exp(1j * np.outer(a, k[:step] - k[0]))
    ramp = coarse[:, :, None] * fine[:, None, :]
    return ramp.reshape(a.size, -1)[:, : k.size]


def wavenumber_vectors(patch: MeasurementPatch) -> np.ndarray:
    """Wavenumber vector k_m * (u_tx + u_rx_l) of every sample, (N_a, M, 3).

    u_tx and u_rx_l are the unit vectors from the region center to the
    transmitter and to the l-th receive antenna.
    """
    center = patch.region_center.as_array()
    u_tx = patch.tx.position.as_array() - center
    u_tx = u_tx / np.linalg.norm(u_tx)
    rel = patch.rx.antenna_positions() - center[None, :]
    u_rx = rel / np.linalg.norm(rel, axis=1)[:, None]
    s = u_tx[None, :] + u_rx  # (N_a, 3)
    k = patch.waveform.wavenumbers()
    return k[None, :, None] * s[:, None, :]


def align_and_place(patch: MeasurementPatch) -> MeasurementPatch:
    """Full conditioning chain: ``align_distance``, then the orientation ramp.

    Sample (l, m) of the result sits in the ground-plane spectrum at
    ``wavenumber_vectors(patch)[l, m, :2]``. The radial spacing between
    adjacent subcarriers is therefore 2*pi*delta_f/c times the bistatic
    scale factor |u_tx + u_rx|. The ramp multiplies the distance-aligned
    copy in place, so the samples are copied once.
    """
    aligned = align_distance(patch)
    ramp = _orientation_ramp(patch)
    if ramp is not None:
        aligned.samples[...] *= ramp
    return aligned
