"""Verification mathematics for the imaging chain.

Three independent strands: the projection-slice identity used as an
oracle for spectrum-domain reasoning, closed-form resolution figures,
and a 1-D statistical model of reconstruction from randomly placed
spectrum windows (sidelobe statistics and the Monte Carlo 1/N
mean-squared-error law).
"""

from __future__ import annotations

import numpy as np

from .constants import SPEED_OF_LIGHT
from .forward import WaveformSpec


def projection_slice_check(
    image: np.ndarray, angle: float
) -> tuple[np.ndarray, np.ndarray, float]:
    """Compare a central spectrum slice against the projection transform.

    The slice side interpolates the 8x zero-padded 2-D DFT of the image
    along the line through the origin at ``angle``; the projection side
    evaluates the exact nonuniform DFT of the image at the same spatial
    frequencies (the transform of the line-integral projection). Returns
    (slice_values, projection_values, max relative error). Axis-aligned
    angles hit padded-grid nodes exactly, so the error there is pure
    floating-point noise.
    """
    # SciPy's cubic spline is needed here only; importing it at module level
    # would cost every netsar command about 0.4 s
    from scipy.ndimage import map_coordinates

    image = np.asarray(image)
    if image.ndim != 2 or image.shape[0] != image.shape[1]:
        raise ValueError("image must be a square 2-D grid")
    P = image.shape[0]
    Q = 8 * P

    spectrum = np.fft.fft2(image, s=(Q, Q))
    freqs = np.fft.fftfreq(P)  # cycles per pixel along the slice
    # fractional indices into the padded DFT, wrapped to its period
    fi = np.mod(freqs * np.cos(angle) * Q, Q)
    fj = np.mod(freqs * np.sin(angle) * Q, Q)
    coords = np.stack([fi, fj])
    slice_values = map_coordinates(
        spectrum.real, coords, order=3, mode="grid-wrap"
    ) + 1j * map_coordinates(spectrum.imag, coords, order=3, mode="grid-wrap")

    ix = np.arange(P)
    gx, gy = np.meshgrid(ix, ix, indexing="ij")
    rot = gx.ravel() * np.cos(angle) + gy.ravel() * np.sin(angle)
    projection_values = np.exp(-2j * np.pi * np.outer(freqs, rot)) @ image.ravel()

    scale = np.abs(projection_values).max()
    err = np.abs(slice_values - projection_values).max() / (scale if scale > 0 else 1.0)
    return slice_values, projection_values, float(err)


def resolutions(
    wf: WaveformSpec, aperture: float, distance: float, antenna_count: int
) -> tuple[float, float, float]:
    """Closed-form range, cross-range, and array-sampling figures in meters.

    rho_Y = c / (2 W) from the swept bandwidth; rho_X = lambda / (2
    delta_theta) with delta_theta = aperture / distance the angular
    extent of the synthetic aperture; delta_x = distance / N_a, the
    scene interval one array sample is responsible for.
    """
    if aperture <= 0 or distance <= 0 or antenna_count < 1:
        raise ValueError("aperture, distance and antenna_count must be positive")
    rho_y = SPEED_OF_LIGHT / (2.0 * wf.bandwidth)
    wavelength = SPEED_OF_LIGHT / wf.carrier_frequency
    rho_x = wavelength / (2.0 * aperture / distance)
    delta_x = distance / antenna_count
    return rho_y, rho_x, delta_x


def _window_indicator(P: int, width: int, center: float) -> np.ndarray:
    """Circular indicator of the ``width`` bins nearest ``center``."""
    bins = np.arange(P)
    dist = np.abs((bins - center + P / 2) % P - P / 2)
    order = np.argsort(dist, kind="stable")[:width]
    ind = np.zeros(P)
    ind[order] = 1.0
    return ind


def sidelobe_statistics(
    N: int,
    x_grid: np.ndarray,
    trials: int,
    seed: int,
) -> dict:
    """Monte Carlo statistics of s(x) = sum_n exp(-j x X_n).

    X_n are i.i.d. uniform over [0, 2 pi); the characteristic function
    then vanishes exactly at every nonzero integer, so pass an integer
    ``x_grid`` for the zero-mean regime.
    Returns empirical mean, Var[s]/N, lag-1 autocorrelation along the
    grid, and the s(0) = N check.
    """
    x_grid = np.asarray(x_grid, dtype=float)
    rng = np.random.default_rng(seed)
    means = np.zeros(x_grid.size, dtype=complex)
    second = np.zeros(x_grid.size)
    autocorr = np.zeros(max(x_grid.size - 1, 0), dtype=complex)
    s0_ok = True
    for _ in range(trials):
        X = rng.uniform(0.0, 2 * np.pi, size=N)
        s = np.exp(-1j * np.outer(x_grid, X)).sum(axis=1)
        means += s
        second += np.abs(s) ** 2
        if x_grid.size > 1:
            autocorr += s[:-1] * np.conj(s[1:])
        s0 = np.exp(-1j * 0.0 * X).sum()
        s0_ok = s0_ok and abs(s0 - N) < 1e-9
    means /= trials
    second /= trials
    autocorr /= trials
    var = second - np.abs(means) ** 2
    return {
        "x_grid": x_grid,
        "mean": means,
        "var_ratio": var / N,
        "autocorr": autocorr,
        "s0_equals_N": s0_ok,
        "trials": trials,
        "N": N,
    }


def _unit_energy(v: np.ndarray) -> np.ndarray:
    e = np.linalg.norm(v)
    return v / e if e > 0 else v


def mse_monte_carlo(
    P: int,
    window_width: int,
    n_windows: list[int],
    trials: int,
    seed: int,
) -> list[tuple[int, int, float]]:
    """Empirical MSE of windowed reconstruction vs window count.

    Per trial: a sparse random complex scene and N uniform random window
    centers, each window keeping the ``window_width`` spectrum bins
    nearest its center. The estimate superposes the windows'
    band-limited reconstructions, which is one inverse DFT of the scene
    spectrum times each bin's window count (a bin several windows cover
    is counted that often). The MSE is measured between the
    unit-energy-normalized estimate and truth (absolute scale is free).
    Returns long-format rows (N, trial, mse).
    """
    if window_width < 1:
        raise ValueError("window_width must be >= 1")
    if P < 2 * window_width:
        raise ValueError("P must be >= 2 * window_width")
    root = np.random.SeedSequence(seed)
    rows: list[tuple[int, int, float]] = []
    for N in n_windows:
        for t in range(trials):
            rng = np.random.default_rng(root.spawn(1)[0])
            g = np.zeros(P, dtype=complex)
            spikes = rng.integers(0, P, size=4)
            g[spikes] = rng.normal(size=4) + 1j * rng.normal(size=4)
            centers = rng.uniform(0.0, P, size=N)
            count = sum(_window_indicator(P, window_width, c) for c in centers)
            est = np.fft.ifft(np.fft.fft(g) * count)
            mse = float(np.sum(np.abs(_unit_energy(est) - _unit_energy(g)) ** 2))
            rows.append((N, t, mse))
    return rows


def loglog_slope(n_values: np.ndarray, mse_values: np.ndarray) -> float:
    """Least-squares slope of log(mse) against log(N)."""
    return float(np.polyfit(np.log(n_values), np.log(mse_values), 1)[0])


def statistics_to_csv(rows, path) -> None:
    """``mse_monte_carlo`` rows as an N, trial, mse table."""
    from .imageio import write_table

    write_table(path, ["N", "trial", "mse"], [[r[0], r[1], float(r[2])] for r in rows])
