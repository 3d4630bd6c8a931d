"""Distribution-level evaluation of generated samples.

At desk scale the feature-space statistic reduces to per-coordinate
moments and the closed-form 2-Wasserstein distance between diagonal
Gaussians:

    W2(N(m1, S1), N(m2, S2))^2 = ||m1 - m2||^2 + sum_i (sqrt(v1_i) - sqrt(v2_i))^2
"""

from __future__ import annotations

import numpy as np

from .errors import InsufficientDataError, NumericDomainError, ShapeError


def sample_moments(samples: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-coordinate mean and unbiased variance of an (n, D) sample array."""
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim != 2:
        raise ShapeError(f"samples must be (n, D), got shape {samples.shape}")
    n = samples.shape[0]
    if n < 2:
        raise InsufficientDataError(f"need at least 2 samples for a variance, got {n}")
    return samples.mean(axis=0), samples.var(axis=0, ddof=1)


def gaussian_w2(
    mu1: np.ndarray, var1: np.ndarray, mu2: np.ndarray, var2: np.ndarray
) -> float:
    """2-Wasserstein distance between diagonal Gaussians; NumericDomainError on overflow."""
    mu1 = np.asarray(mu1, dtype=np.float64)
    mu2 = np.asarray(mu2, dtype=np.float64)
    var1 = np.asarray(var1, dtype=np.float64)
    var2 = np.asarray(var2, dtype=np.float64)
    if not (mu1.shape == mu2.shape == var1.shape == var2.shape):
        raise ShapeError(
            f"dimension mismatch: mu1 {mu1.shape}, var1 {var1.shape}, mu2 {mu2.shape}, "
            f"var2 {var2.shape}; all four parameter vectors must share one shape"
        )
    if np.any(var1 < 0.0) or np.any(var2 < 0.0):
        raise NumericDomainError("variances must be >= 0")
    gap = mu1 - mu2
    dev = np.sqrt(var1) - np.sqrt(var2)
    w2 = float(np.sqrt(gap @ gap + dev @ dev))
    if not np.isfinite(w2):
        raise NumericDomainError("W2 is not finite: the moments or the distance overflow")
    return w2
