"""Model validation: k-fold CV and the paper's holdout protocol.

Section 3.2: "we use the collecting component to collect a number (num)
of performance vectors ... different from those in the matrix S to
cross-validate the accuracy of the performance model.  According to the
accepted/standard practice ... we set num to a quarter of the size of
the training set S."  :func:`paper_holdout_size` encodes that rule;
:func:`cross_validate` provides the general k-fold machinery used by
tests and by model-selection sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple

import numpy as np

from repro.models.metrics import mean_relative_error

EstimatorFactory = Callable[[], object]


def paper_holdout_size(n_train: int) -> int:
    """num = (10 x k) / 4 — a quarter of the training-set size."""
    if n_train < 4:
        raise ValueError("training set too small for the paper's holdout rule")
    return n_train // 4


@dataclass(frozen=True)
class CvResult:
    """Per-fold and aggregate relative errors."""

    fold_errors: Tuple[float, ...]

    @property
    def mean_error(self) -> float:
        return float(np.mean(self.fold_errors))

    @property
    def n_folds(self) -> int:
        return len(self.fold_errors)


def kfold_indices(
    n: int, k: int, rng: np.random.Generator
) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Shuffled k-fold (train_idx, test_idx) pairs covering all samples."""
    if k < 2:
        raise ValueError("need at least 2 folds")
    if n < k:
        raise ValueError(f"cannot make {k} folds from {n} samples")
    order = rng.permutation(n)
    folds = np.array_split(order, k)
    pairs = []
    for i in range(k):
        test_idx = folds[i]
        train_idx = np.concatenate([folds[j] for j in range(k) if j != i])
        pairs.append((train_idx, test_idx))
    return pairs


def cross_validate(
    factory: EstimatorFactory,
    X: np.ndarray,
    y_log: np.ndarray,
    k: int = 4,
    rng: np.random.Generator | None = None,
) -> CvResult:
    """k-fold CV of a log-time regressor, scored by Equation-2 error.

    ``factory`` builds a fresh unfitted estimator per fold (so folds
    never share state); ``y_log`` holds log execution times.
    """
    X = np.asarray(X, dtype=float)
    y_log = np.asarray(y_log, dtype=float)
    if len(X) != len(y_log):
        raise ValueError("X and y length mismatch")
    rng = rng or np.random.default_rng(0)
    errors = []
    for train_idx, test_idx in kfold_indices(len(X), k, rng):
        model = factory()
        model.fit(X[train_idx], y_log[train_idx])
        predicted = np.exp(np.asarray(model.predict(X[test_idx])))
        errors.append(mean_relative_error(predicted, np.exp(y_log[test_idx])))
    return CvResult(fold_errors=tuple(errors))


def select_by_cv(
    candidates: Sequence[Tuple[str, EstimatorFactory]],
    X: np.ndarray,
    y_log: np.ndarray,
    k: int = 4,
    rng: np.random.Generator | None = None,
) -> Tuple[str, CvResult]:
    """Pick the candidate with the lowest mean CV error."""
    if not candidates:
        raise ValueError("no candidates")
    best_name = None
    best_result = None
    for name, factory in candidates:
        result = cross_validate(factory, X, y_log, k=k, rng=rng)
        if best_result is None or result.mean_error < best_result.mean_error:
            best_name, best_result = name, result
    assert best_name is not None and best_result is not None
    return best_name, best_result
