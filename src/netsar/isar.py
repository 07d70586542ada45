"""Volumetric reconstruction from wavenumber-space samples.

Each (antenna, subcarrier) measurement is a sample of the 3-D source
spectrum at one wavenumber vector. K such samples give a dense K x M^3
map onto a voxel grid. ``solve_voxel_grid`` inverts it by one real
LAPACK ``gelsd`` minimum-norm least-squares solve: pairing each voxel
with its mirror makes the map real, with the same singular values, and
singular values at most tol * sigma_max count as zero. The complex map
and solve (``build_sensing_tensor``, ``invert_sensing_tensor``) and one
truncated SVD (``pseudo_inverse``) stay as its oracle. This is a
desk-scale verification path, so the grid is capped at M_side <= 16 and
everything is dense.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import EmptyInputError
from .imageio import write_pgm, write_table

_SVD_TOLERANCE = 1e-10  # singular values at most this times sigma_max count as zero


@dataclass(frozen=True)
class WavenumberSample:
    """The k-vector (rad/m) of one spectrum-domain sample."""

    k_vector: np.ndarray

    def __post_init__(self):
        k = np.asarray(self.k_vector, dtype=float)
        if k.shape != (3,) or not np.all(np.isfinite(k)):
            raise ValueError("k_vector must be 3 finite components")
        object.__setattr__(self, "k_vector", k)


@dataclass(frozen=True)
class VoxelGrid:
    """Cubic voxel grid of side M_side, spacing delta, centered on the origin.

    Voxel (l, m, n) with 0-based indices sits at ((l - offset) * spacing, ...)
    where offset = M_side // 2, realizing the symmetric index convention.
    """

    M_side: int
    spacing: float
    values: np.ndarray | None = None

    def __post_init__(self):
        if self.M_side < 1:
            raise ValueError("M_side must be >= 1")
        if self.M_side > 16:
            raise ValueError("M_side capped at 16: the sensing map is dense K x M^3")
        if self.spacing <= 0:
            raise ValueError("spacing must be positive")
        if self.values is not None and self.values.shape != self.shape:
            raise ValueError(f"values shape {self.values.shape} != {self.shape}")

    @property
    def shape(self) -> tuple[int, int, int]:
        return (self.M_side, self.M_side, self.M_side)

    @property
    def offset(self) -> int:
        return self.M_side // 2

    def voxel_positions(self) -> np.ndarray:
        """Positions of all voxels, shape (M_side^3, 3), C index order."""
        idx = np.arange(self.M_side) - self.offset
        gx, gy, gz = np.meshgrid(idx, idx, idx, indexing="ij")
        return np.stack([gx.ravel(), gy.ravel(), gz.ravel()], axis=1) * self.spacing


def build_sensing_tensor(samples: list[WavenumberSample], grid: VoxelGrid) -> np.ndarray:
    """Dense K x M^3 forward map: row s is exp(-j k_s . r_voxel).

    Applying the map to a flattened voxel field reproduces the forward
    sum over voxels for every sample.
    """
    if not samples:
        raise EmptyInputError("at least one wavenumber sample is required")
    kvecs = np.stack([s.k_vector for s in samples])  # (K, 3)
    pos = grid.voxel_positions()  # (M^3, 3)
    # the parentheses keep the phase a real GEMM: on the complex GEMM of
    # (-1j * K) @ P.T, np.exp ran 8-10x slower on the same values
    return np.exp(-1j * (kvecs @ pos.T))


def invert_sensing_tensor(
    tensor: np.ndarray, measurements: np.ndarray, grid: VoxelGrid
) -> tuple[VoxelGrid, int]:
    """Minimum-norm voxel recovery by one ``gelsd`` least-squares solve.

    ``np.linalg.lstsq`` (LAPACK ``gelsd``) treats singular values at
    most _SVD_TOLERANCE * sigma_max as zero, the truncation rule of
    ``pseudo_inverse``, and returns the minimum-norm solution
    ``pseudo_inverse(tensor) @ measurements`` without forming U or the
    pseudo-inverse. On a full-column-rank noise-free instance the
    recovery is exact to numerical precision; rank-deficient instances
    get the minimum-norm solution plus a diagnostic warning. Returns
    (grid copy with values, effective rank).
    """
    measurements = np.asarray(measurements)
    n_vox = grid.M_side ** 3
    if tensor.shape != (measurements.shape[0], n_vox):
        raise ValueError(
            f"tensor shape {tensor.shape} inconsistent with "
            f"{measurements.shape[0]} measurements and {n_vox} voxels"
        )
    rho, _, rank, _ = np.linalg.lstsq(tensor, measurements, rcond=_SVD_TOLERANCE)
    return _solved(grid, rho, rank)


def _solved(grid: VoxelGrid, rho: np.ndarray, rank) -> tuple[VoxelGrid, int]:
    """(grid copy with values, int rank), warning when the rank is short."""
    rank, n_vox = int(rank), grid.M_side**3
    if rank < n_vox:
        warnings.warn(
            f"sensing map rank {rank} < voxel count {n_vox}: "
            "minimum-norm solution returned",
            stacklevel=3,
        )
    out = VoxelGrid(
        M_side=grid.M_side, spacing=grid.spacing, values=rho.reshape(grid.shape)
    )
    return out, rank


def solve_voxel_grid(k_vectors, measurements, grid: VoxelGrid) -> tuple[VoxelGrid, int]:
    """``invert_sensing_tensor`` of the map of (K, 3) k_vectors, solved as a real map.

    The map is diag(exp(-j k.r_c)) times a map on r' = r - r_c, with r_c the
    grid's center (-spacing/2 per axis for even M_side, else 0). Flat voxels
    v and N-1-v have opposite r', so the unitary change x_v, x_N-1-v =
    (y_v +- j y_N-1-v) / sqrt(2) makes their columns sqrt(2) cos(k.r'_v) and
    sqrt(2) sin(k.r'_v); an odd grid's center keeps a column of ones. The
    singular values, rank and minimum-norm solution stay, and one real
    ``gelsd`` solves for the real and imaginary parts together.
    """
    k = np.asarray(k_vectors, dtype=float)
    if len(k) == 0:
        raise EmptyInputError("at least one wavenumber sample is required")
    if k.ndim != 2 or k.shape[1] != 3 or not np.all(np.isfinite(k)):
        raise ValueError("k_vector must be 3 finite components")
    if np.shape(measurements) != (len(k),):
        raise ValueError(f"{np.shape(measurements)} measurements inconsistent with K = {len(k)}")
    n_vox, half = grid.M_side**3, grid.M_side**3 // 2
    r_c = ((grid.M_side - 1) / 2 - grid.offset) * grid.spacing
    phase = k @ (grid.voxel_positions()[:half] - r_c).T  # a real GEMM, as above
    # every column over sqrt(2): the same rank, and y comes out times sqrt(2)
    center = np.full((len(k), n_vox % 2), np.sqrt(0.5))
    real_map = np.concatenate([np.cos(phase), center, np.sin(phase[:, ::-1])], axis=1)
    b = np.exp(1j * r_c * k.sum(axis=1)) * measurements
    b = np.stack([b.real, b.imag], axis=1)
    y, _, rank, _ = np.linalg.lstsq(real_map, b, rcond=_SVD_TOLERANCE)
    y = y[:, 0] + 1j * y[:, 1]
    rho = (y + 1j * y[::-1]) / 2
    rho[n_vox - half:] *= -1j
    rho[half:n_vox - half] = y[half:n_vox - half] / np.sqrt(2)
    return _solved(grid, rho, rank)


def pseudo_inverse(tensor: np.ndarray) -> np.ndarray:
    """Truncated-SVD Moore-Penrose pseudo-inverse of the sensing map.

    One SVD; singular values at most _SVD_TOLERANCE * sigma_max are dropped.
    """
    u, s, vh = np.linalg.svd(tensor, full_matrices=False)
    rank = int(np.sum(s > _SVD_TOLERANCE * s[0])) if s.size else 0
    return (vh[:rank].conj().T / s[:rank]) @ u[:, :rank].conj().T


def voxel_grid_to_csv(grid: VoxelGrid, path) -> None:
    """One row per voxel: l, m, n, re, im (0-based indices)."""
    if grid.values is None:
        raise ValueError("grid has no values to export")
    values = grid.values.reshape(-1)
    columns = (*np.indices(grid.shape).reshape(3, -1), values.real, values.imag)
    write_table(path, ["l", "m", "n", "re", "im"], zip(*(c.tolist() for c in columns)))


def voxel_grid_slices_to_pgm(grid: VoxelGrid, directory) -> list:
    """Per-z-slice magnitude images voxels_<n>.pgm, one per n index; returns the paths."""
    from pathlib import Path

    if grid.values is None:
        raise ValueError("grid has no values to export")
    directory = Path(directory)
    paths = []
    for n in range(grid.M_side):
        p = directory / f"voxels_{n:03d}.pgm"
        write_pgm(np.abs(grid.values[:, :, n]), p)
        paths.append(p)
    return paths
