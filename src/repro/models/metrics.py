"""Model accuracy metrics (Equation 2)."""

from __future__ import annotations

import numpy as np


def relative_errors(predicted: np.ndarray, measured: np.ndarray) -> np.ndarray:
    """Per-sample relative error, Equation (2): |t_pre - t_mea| / t_mea."""
    predicted = np.asarray(predicted, dtype=float)
    measured = np.asarray(measured, dtype=float)
    if predicted.shape != measured.shape:
        raise ValueError(f"shape mismatch: {predicted.shape} vs {measured.shape}")
    if np.any(measured <= 0):
        raise ValueError("measured execution times must be positive")
    return np.abs(predicted - measured) / measured


def mean_relative_error(predicted: np.ndarray, measured: np.ndarray) -> float:
    """The paper's ``err`` metric, averaged over a test set (lower is better)."""
    return float(np.mean(relative_errors(predicted, measured)))
