import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from netsar.constants import SPEED_OF_LIGHT
from netsar.errors import EmptyInputError
from netsar.isar import (
    VoxelGrid,
    WavenumberSample,
    build_sensing_tensor,
    invert_sensing_tensor,
    pseudo_inverse,
    solve_voxel_grid,
    voxel_grid_to_csv,
)


def _dense_samples(M_side, spacing, oversample=2):
    """Critically sampled k-space for an M_side^3 grid: a full 3-D lattice."""
    n = oversample * M_side
    dk = 2 * np.pi / (M_side * spacing) / oversample
    ax = (np.arange(n) - n // 2) * dk
    out = []
    for kx in ax:
        for ky in ax:
            for kz in ax:
                out.append(WavenumberSample(k_vector=np.array([kx, ky, kz])))
    return out


def test_wavenumber_sample_validation():
    with pytest.raises(ValueError):
        WavenumberSample(k_vector=np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        WavenumberSample(k_vector=np.array([np.nan, 0.0, 0.0]))


def test_voxel_grid_positions_and_caps():
    grid = VoxelGrid(M_side=4, spacing=0.5)
    pos = grid.voxel_positions()
    assert pos.shape == (64, 3)
    assert grid.offset == 2
    # first voxel at (-offset * spacing) in every axis, C order
    assert np.allclose(pos[0], [-1.0, -1.0, -1.0])
    assert np.allclose(pos[-1], [0.5, 0.5, 0.5])
    with pytest.raises(ValueError):
        VoxelGrid(M_side=17, spacing=0.5)
    with pytest.raises(ValueError):
        VoxelGrid(M_side=2, spacing=0.5, values=np.zeros((3, 3, 3), complex))


def test_sensing_tensor_matches_forward_sum():
    grid = VoxelGrid(M_side=3, spacing=0.4)
    samples = _dense_samples(3, 0.4, oversample=1)
    A = build_sensing_tensor(samples, grid)
    rng = np.random.default_rng(1)
    field = rng.normal(size=27) + 1j * rng.normal(size=27)
    meas = A @ field
    # independent per-sample sum over voxels
    pos = grid.voxel_positions()
    for s_idx in [0, 5, 26]:
        k = samples[s_idx].k_vector
        expected = np.sum(field * np.exp(-1j * pos @ k))
        assert abs(meas[s_idx] - expected) < 1e-10 * abs(expected)


def test_sensing_tensor_phase_is_the_real_product():
    # survey-sized: about 1,500 k-vectors and an 8^3 grid
    rng = np.random.default_rng(3)
    kvecs = rng.normal(scale=100.0, size=(1500, 3))
    grid = VoxelGrid(M_side=8, spacing=25.0)
    samples = [WavenumberSample(k_vector=k) for k in kvecs]
    tensor = build_sensing_tensor(samples, grid)
    expected = np.exp(-1j * (kvecs @ grid.voxel_positions().T))
    assert tensor.tobytes() == expected.tobytes()


def test_inversion_recovers_field_exactly():
    grid = VoxelGrid(M_side=3, spacing=0.4)
    samples = _dense_samples(3, 0.4, oversample=2)
    A = build_sensing_tensor(samples, grid)
    rng = np.random.default_rng(2)
    field = rng.normal(size=27) + 1j * rng.normal(size=27)
    out, rank = invert_sensing_tensor(A, A @ field.reshape(27), grid)
    assert rank == 27
    assert np.abs(out.values.reshape(27) - field).max() < 1e-8


def _single_array_samples():
    """A single linear array samples only one k-plane: rank < M_side^3."""
    antennas = np.stack([np.linspace(-1, 1, 8), np.zeros(8), np.full(8, 50.0)], axis=1)
    units = antennas / np.linalg.norm(antennas, axis=1)[:, None]
    return [
        WavenumberSample(k_vector=2 * np.pi * f / SPEED_OF_LIGHT * u)
        for u in units
        for f in np.linspace(5e9, 5.1e9, 6)
    ]


def _single_array_tensor(grid):
    return build_sensing_tensor(_single_array_samples(), grid)


def test_rank_deficient_warns_minimum_norm():
    grid = VoxelGrid(M_side=3, spacing=0.4)
    A = _single_array_tensor(grid)
    meas = np.zeros(A.shape[0], complex)
    with pytest.warns(UserWarning, match="rank"):
        out, rank = invert_sensing_tensor(A, meas, grid)
    assert rank < 27


def _graded_tensor(grid, rng):
    """Singular values on both sides of the 1e-10 cut: 1 down to 1e-5, then 1e-13."""
    n = grid.M_side**3
    u, _ = np.linalg.qr(rng.normal(size=(2 * n, n)) + 1j * rng.normal(size=(2 * n, n)))
    v, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    s = np.concatenate([np.logspace(0, -5, n - 3), np.full(3, 1e-13)])
    return (u * s) @ v.conj().T


@pytest.mark.parametrize("tensor", ["full", "deficient", "graded"])
def test_inversion_equals_the_pseudo_inverse_oracle(tensor):
    grid = VoxelGrid(M_side=3, spacing=0.4)
    rng = np.random.default_rng(4)
    A = {
        "full": lambda: build_sensing_tensor(_dense_samples(3, 0.4, oversample=2), grid),
        "deficient": lambda: _single_array_tensor(grid),
        "graded": lambda: _graded_tensor(grid, rng),
    }[tensor]()
    meas = rng.normal(size=A.shape[0]) + 1j * rng.normal(size=A.shape[0])
    s = np.linalg.svd(A, compute_uv=False)
    svd_rank = int(np.sum(s > 1e-10 * s[0]))
    deficient = svd_rank < 27
    assert deficient == (tensor != "full")
    expected = pseudo_inverse(A) @ meas
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out, rank = invert_sensing_tensor(A, meas, grid)
    assert type(rank) is int and rank == svd_rank
    assert [str(w.message) for w in caught] == (
        [f"sensing map rank {rank} < voxel count 27: minimum-norm solution returned"]
        if deficient
        else []
    )
    got = out.values.reshape(-1)
    assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()


def _solve_noting_warnings(solve, *args):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out, rank = solve(*args)
    return out.values.reshape(-1), rank, [(str(w.message), w.filename) for w in caught]


# Even grids have their center off the origin; odd grids have a voxel that
# is its own mirror. Spacing 1 keeps every kept singular value of these
# sets above 1e-3 * sigma_max. At spacing 0.4 the single-array set on the
# 8^3 grid keeps one at 3e-9 * sigma_max, where summing the oracle's own
# phases in another order moves pseudo_inverse's solution by 1e-6.
@pytest.mark.parametrize("m_side", [2, 3, 8])
@pytest.mark.parametrize("k_set", ["full", "single_array", "fewer_than_voxels"])
def test_the_real_solve_equals_the_complex_oracle(m_side, k_set):
    grid = VoxelGrid(M_side=m_side, spacing=1.0)
    rng = np.random.default_rng(m_side)
    samples = {
        "full": lambda: _dense_samples(m_side, 1.0, oversample=2),
        "single_array": _single_array_samples,
        "fewer_than_voxels": lambda: [
            WavenumberSample(k_vector=k) for k in rng.normal(size=(m_side**3 // 2, 3))
        ],
    }[k_set]()
    kvecs = np.stack([s.k_vector for s in samples])
    meas = rng.normal(size=len(kvecs)) + 1j * rng.normal(size=len(kvecs))
    A = build_sensing_tensor(samples, grid)
    _, old_rank, old_warnings = _solve_noting_warnings(invert_sensing_tensor, A, meas, grid)
    got, rank, new_warnings = _solve_noting_warnings(solve_voxel_grid, kvecs, meas, grid)
    assert type(rank) is int and rank == old_rank
    assert new_warnings == old_warnings
    assert all(filename == __file__ for _, filename in new_warnings)
    deficient = rank < m_side**3
    assert deficient == (k_set != "full") == bool(new_warnings)
    expected = pseudo_inverse(A) @ meas
    bound = 1e-9 if deficient else 1e-11
    assert np.abs(got - expected).max() <= bound * np.abs(expected).max()


@pytest.mark.parametrize("m_side", [2, 3, 8])
def test_the_real_solve_refuses_what_the_oracle_refuses(m_side):
    grid = VoxelGrid(M_side=m_side, spacing=1.0)
    with pytest.raises(EmptyInputError):
        build_sensing_tensor([], grid)
    with pytest.raises(EmptyInputError):
        solve_voxel_grid(np.empty((0, 3)), np.empty(0, complex), grid)
    for bad in ([[0.0, np.inf, 1.0]], [[np.nan, 0.0, 1.0]], [[1.0, 2.0]]):
        with pytest.raises(ValueError):
            WavenumberSample(k_vector=np.array(bad[0]))
        with pytest.raises(ValueError, match="3 finite components"):
            solve_voxel_grid(np.array(bad), np.ones(1, complex), grid)
    kvecs = np.ones((3, 3))
    A = build_sensing_tensor([WavenumberSample(k_vector=k) for k in kvecs], grid)
    with pytest.raises(ValueError, match="inconsistent"):
        invert_sensing_tensor(A, np.ones(2, complex), grid)
    with pytest.raises(ValueError, match="inconsistent"):
        solve_voxel_grid(kvecs, np.ones(2, complex), grid)


def test_pseudo_inverse_properties():
    grid = VoxelGrid(M_side=2, spacing=0.3)
    samples = _dense_samples(2, 0.3, oversample=2)
    A = build_sensing_tensor(samples, grid)
    G = pseudo_inverse(A)
    # Moore-Penrose identities
    assert np.abs(A @ G @ A - A).max() < 1e-10
    assert np.abs(G @ A @ G - G).max() < 1e-10
    assert np.abs(G @ A - (G @ A).conj().T).max() < 1e-10


def test_build_tensor_requires_samples():
    with pytest.raises(EmptyInputError):
        build_sensing_tensor([], VoxelGrid(M_side=2, spacing=1.0))


def test_voxel_exports(tmp_path):
    values = np.arange(8, dtype=complex).reshape(2, 2, 2)
    grid = VoxelGrid(M_side=2, spacing=1.0, values=values)
    csv_path = tmp_path / "vox.csv"
    voxel_grid_to_csv(grid, csv_path)
    rows = csv_path.read_text().strip().splitlines()
    assert rows[0] == "l,m,n,re,im"
    assert len(rows) == 9
    assert rows[1].startswith("0,0,0,0.0")
    with pytest.raises(ValueError):
        voxel_grid_to_csv(VoxelGrid(M_side=2, spacing=1.0), tmp_path / "x.csv")


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 4), st.floats(0.1, 2.0))
def test_inversion_round_trip_property(m_side, spacing):
    grid = VoxelGrid(M_side=m_side, spacing=spacing)
    samples = _dense_samples(m_side, spacing, oversample=2)
    A = build_sensing_tensor(samples, grid)
    n = m_side**3
    rng = np.random.default_rng(m_side)
    field = rng.normal(size=n) + 1j * rng.normal(size=n)
    out, rank = invert_sensing_tensor(A, A @ field, grid)
    assert rank == n
    assert np.abs(out.values.reshape(n) - field).max() < 1e-7
