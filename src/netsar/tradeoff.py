"""Joint communication-and-sensing information calculus.

Discrete finite-alphabet model: an input X and an independent state S
drive an output Y through a kernel p(y|x,s). The quantities of interest
are the communication rate I(X;Y), the sensing rate I(Y;S|X), and the
identity I(X;Y) + I(Y;S|X) = H(Y) - H(Y|X,S). The Gaussian case enters
only through the closed-form sum bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidDistributionError

_SUM_TOL = 1e-12
_ZERO = 1e-15


@dataclass(frozen=True)
class JointChannel:
    """Input prior p(X), independent state prior p(S), kernel p(Y|X,S).

    ``kernel[x, s, y]`` is the conditional probability of output y; every
    (x, s) row must be a distribution.
    """

    p_x: np.ndarray
    p_s: np.ndarray
    kernel: np.ndarray

    def __post_init__(self):
        p_x = np.asarray(self.p_x, dtype=float)
        p_s = np.asarray(self.p_s, dtype=float)
        kernel = np.asarray(self.kernel, dtype=float)
        object.__setattr__(self, "p_x", p_x)
        object.__setattr__(self, "p_s", p_s)
        object.__setattr__(self, "kernel", kernel)
        for name, dist in (("p_x", p_x), ("p_s", p_s)):
            if dist.ndim != 1 or dist.size < 1:
                raise InvalidDistributionError(f"{name} must be a 1-D vector")
            if np.any(dist < 0):
                raise InvalidDistributionError(f"{name} has negative entries")
            if abs(dist.sum() - 1.0) > _SUM_TOL:
                raise InvalidDistributionError(
                    f"{name} sums to {dist.sum()!r}, not 1"
                )
        if kernel.ndim != 3 or kernel.shape[:2] != (p_x.size, p_s.size):
            raise InvalidDistributionError(
                f"kernel shape {kernel.shape} inconsistent with |X|={p_x.size}, |S|={p_s.size}"
            )
        if np.any(kernel < 0):
            raise InvalidDistributionError("kernel has negative entries")
        rows = kernel.sum(axis=2)
        if np.any(np.abs(rows - 1.0) > _SUM_TOL):
            bad = np.unravel_index(np.argmax(np.abs(rows - 1.0)), rows.shape)
            raise InvalidDistributionError(
                f"kernel row (x={bad[0]}, s={bad[1]}) sums to {rows[bad]!r}, not 1"
            )

    def joint(self) -> np.ndarray:
        """p(x, s, y) = p(x) p(s) p(y|x,s)."""
        return self.p_x[:, None, None] * self.p_s[None, :, None] * self.kernel


def _entropy(p: np.ndarray) -> float:
    """Shannon entropy in bits with the 0 log 0 := 0 convention."""
    p = np.asarray(p, dtype=float).ravel()
    mask = p > _ZERO
    return float(-(p[mask] * np.log2(p[mask])).sum())


def information_terms(ch: JointChannel) -> dict:
    """All entropy/information terms of the sum-rate identity, in bits.

    Returns I(X;Y), I(Y;S|X), H(Y), H(Y|X,S), plus the unconditional
    sensing rate I(Y;S) and the residual of the identity
    I(X;Y) + I(Y;S|X) - (H(Y) - H(Y|X,S)).
    """
    joint = ch.joint()  # (x, s, y)
    p_y = joint.sum(axis=(0, 1))
    p_xy = joint.sum(axis=1)
    p_sy = joint.sum(axis=0)
    h_y = _entropy(p_y)
    h_xy = _entropy(p_xy)
    h_x = _entropy(ch.p_x)
    h_s = _entropy(ch.p_s)
    h_xsy = _entropy(joint)
    h_sy = _entropy(p_sy)
    i_xy = h_x + h_y - h_xy
    # H(Y|X,S) = H(X,S,Y) - H(X) - H(S) since X and S are independent
    h_y_given_xs = h_xsy - h_x - h_s
    # I(Y;S|X) = H(Y|X) - H(Y|X,S) with H(Y|X) = H(X,Y) - H(X)
    i_ys_given_x = (h_xy - h_x) - h_y_given_xs
    i_ys = h_s + h_y - h_sy
    residual = i_xy + i_ys_given_x - (h_y - h_y_given_xs)
    return {
        "I(X;Y)": i_xy,
        "I(Y;S|X)": i_ys_given_x,
        "H(Y)": h_y,
        "H(Y|X,S)": h_y_given_xs,
        "I(Y;S)": i_ys,
        "identity_residual": residual,
    }


def gaussian_sum_bound(snr: float) -> float:
    """Closed-form sum-rate ceiling (1/2) log2(1 + snr) in bits."""
    if snr < 0:
        raise ValueError("snr must be nonnegative")
    return 0.5 * math.log2(1.0 + snr)


def example_channel() -> JointChannel:
    """Noiseless bijection Y = (X, S) on binary X and S, uniform priors."""
    kernel = np.zeros((2, 2, 4))
    for x in range(2):
        for s in range(2):
            kernel[x, s, 2 * x + s] = 1.0
    return JointChannel(p_x=np.full(2, 0.5), p_s=np.full(2, 0.5), kernel=kernel)


def terms_table(terms: dict) -> str:
    """Labeled plain-text table of the information terms."""
    width = max(len(k) for k in terms)
    return "\n".join(f"{k.ljust(width)}  {terms[k]:+.12f}" for k in terms)
