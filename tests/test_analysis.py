import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from netsar.analysis import (
    loglog_slope,
    mse_monte_carlo,
    projection_slice_check,
    resolutions,
    sidelobe_statistics,
    statistics_to_csv,
)
from netsar.constants import SPEED_OF_LIGHT
from netsar.forward import WaveformSpec

WF = WaveformSpec(carrier_frequency=5e9, subcarrier_count=256, subcarrier_spacing=2e6)


def test_projection_slice_axis_aligned_exact():
    rng = np.random.default_rng(0)
    img = rng.normal(size=(32, 32))
    for angle in (0.0, np.pi / 2):
        _, _, err = projection_slice_check(img, angle)
        assert err < 1e-9


def test_projection_slice_oblique_small_error():
    rng = np.random.default_rng(1)
    img = rng.normal(size=(32, 32))
    _, _, err = projection_slice_check(img, 0.61)
    assert err < 1e-3


def test_projection_slice_rejects_nonsquare():
    with pytest.raises(ValueError):
        projection_slice_check(np.zeros((4, 6)), 0.0)


def test_resolution_formulas():
    rho_y, rho_x, dx = resolutions(WF, aperture=2.0, distance=100.0, antenna_count=64)
    assert np.isclose(rho_y, SPEED_OF_LIGHT / (2 * 256 * 2e6))
    lam = SPEED_OF_LIGHT / 5e9
    assert np.isclose(rho_x, lam / (2 * 2.0 / 100.0))
    assert np.isclose(dx, 100.0 / 64)
    assert np.isclose(dx, 1.5625)
    with pytest.raises(ValueError):
        resolutions(WF, aperture=-1.0, distance=100.0, antenna_count=64)


def _superposed_mse_rows(P, window_width, n_windows, trials, seed):
    """The 1-D window model by its definition: each window keeps the
    ``window_width`` spectrum bins nearest its circular center, each is
    inverse-transformed on its own, and the estimate is their sum. Draws
    the scenes and centers as mse_monte_carlo does."""
    root = np.random.SeedSequence(seed)
    bins = np.arange(P)
    rows = []
    for N in n_windows:
        for t in range(trials):
            rng = np.random.default_rng(root.spawn(1)[0])
            g = np.zeros(P, dtype=complex)
            spikes = rng.integers(0, P, size=4)
            g[spikes] = rng.normal(size=4) + 1j * rng.normal(size=4)
            G = np.fft.fft(g)
            est = np.zeros(P, dtype=complex)
            for c in rng.uniform(0.0, P, size=N):
                dist = np.abs((bins - c + P / 2) % P - P / 2)
                window = np.zeros(P)
                window[np.argsort(dist, kind="stable")[:window_width]] = 1.0
                est += np.fft.ifft(G * window)
            error = est / np.linalg.norm(est) - g / np.linalg.norm(g)
            rows.append((N, t, float(np.sum(np.abs(error) ** 2))))
    return rows


@pytest.mark.parametrize("P, window_width", [(256, 128), (64, 16), (33, 5)])
def test_mse_monte_carlo_equals_the_per_window_superposition(P, window_width):
    args = dict(P=P, window_width=window_width, n_windows=[1, 4, 16, 64], trials=10, seed=11)
    rows = mse_monte_carlo(**args)
    expected = _superposed_mse_rows(**args)
    assert [r[:2] for r in rows] == [r[:2] for r in expected]
    mse, ref = np.array([r[2] for r in rows]), np.array([r[2] for r in expected])
    assert np.all(np.abs(mse - ref) <= 1e-12 * ref)


@pytest.mark.parametrize("P, window_width", [(8, 0), (8, 5), (255, 128)])
def test_mse_monte_carlo_refuses_a_window_that_does_not_fit(P, window_width):
    with pytest.raises(ValueError, match="window_width"):
        mse_monte_carlo(P=P, window_width=window_width, n_windows=[4], trials=1, seed=0)


def test_sidelobe_statistics_uniform_phase():
    # on the 2*pi/span grid the mean vanishes and Var[s] = N
    x = np.arange(1, 6) * 1.0  # span = 2*pi -> unit grid
    stats = sidelobe_statistics(N=32, x_grid=x, trials=4000, seed=7)
    assert stats["s0_equals_N"]
    assert np.abs(stats["mean"]).max() < 32 * 0.05
    assert np.all(np.abs(stats["var_ratio"] - 1.0) < 0.1)
    # distinct grid points are uncorrelated
    assert np.abs(stats["autocorr"]).max() < 32 * 0.1


def test_mse_monte_carlo_slope_near_minus_one():
    rows = mse_monte_carlo(
        P=256, window_width=128, n_windows=[4, 8, 16, 32, 64], trials=40, seed=11
    )
    arr = np.array(rows)
    ns = sorted(set(int(r[0]) for r in rows))
    means = [arr[arr[:, 0] == n, 2].mean() for n in ns]
    slope = loglog_slope(np.array(ns, float), np.array(means))
    assert -1.3 < slope < -0.7


def test_mse_monte_carlo_deterministic():
    a = mse_monte_carlo(P=64, window_width=16, n_windows=[4], trials=3, seed=2)
    b = mse_monte_carlo(P=64, window_width=16, n_windows=[4], trials=3, seed=2)
    assert a == b


def test_statistics_csv(tmp_path):
    rows = [(4, 0, 0.5), (8, 1, 0.25)]
    path = tmp_path / "mse.csv"
    statistics_to_csv(rows, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "N,trial,mse"
    assert len(lines) == 3


@settings(max_examples=15, deadline=None)
@given(st.integers(8, 32).filter(lambda n: n % 2 == 0), st.floats(0, 2 * np.pi))
def test_projection_slice_error_bounded_property(p, angle):
    rng = np.random.default_rng(p)
    img = rng.normal(size=(p, p))
    _, _, err = projection_slice_check(img, angle)
    assert err < 5e-3
