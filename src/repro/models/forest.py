"""Random forest regressor — the model behind the RFHOC baseline [4].

Bagged regression trees with per-tree feature subsampling, averaging
their predictions.  Trees here are deep (large split budget) as usual for
forests, in contrast with HM's tiny boosted trees.
"""

from __future__ import annotations

import time
from typing import List, Optional

import numpy as np

from repro.models.flat import FlatForest, accumulate
from repro.models.histkernel import observe_fit
from repro.models.tree import BinnedDataset, RegressionTree


class RandomForest:
    """Bootstrap-aggregated regression trees.

    Parameters
    ----------
    n_trees:
        Ensemble size.
    max_splits:
        Internal-node budget per tree (deep trees by default).
    max_features:
        Candidate features drawn afresh at *each split* (mtry); ``None``
        means ``ceil(d / 3)``, the regression folk rule.
    """

    def __init__(
        self,
        n_trees: int = 120,
        max_splits: int = 64,
        max_features: Optional[int] = None,
        min_samples_leaf: int = 3,
        random_state: int = 0,
    ):
        if n_trees < 1:
            raise ValueError("n_trees must be >= 1")
        self.n_trees = n_trees
        self.max_splits = max_splits
        self.max_features = max_features
        self.min_samples_leaf = min_samples_leaf
        self.random_state = random_state
        self._trees: List[RegressionTree] = []
        self._binner: Optional[BinnedDataset] = None
        self._flat: Optional[FlatForest] = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RandomForest":
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        if len(X) != len(y):
            raise ValueError("X and y length mismatch")
        if len(X) < 2:
            raise ValueError("need at least 2 samples")
        fit_start = time.perf_counter()
        rng = np.random.default_rng(self.random_state)
        self._binner = BinnedDataset.shared(X)
        n, d = X.shape
        k = self.max_features or max(1, int(np.ceil(d / 3)))
        k = min(k, d)

        self._trees = []
        self._flat = None
        for t in range(self.n_trees):
            sample = rng.integers(0, n, n)  # bootstrap
            tree = RegressionTree(
                tree_complexity=self.max_splits,
                min_samples_leaf=self.min_samples_leaf,
                split_features=k,
                random_state=self.random_state + 31 * t,
            )
            tree.fit_binned(self._binner, y, sample_indices=sample)
            self._trees.append(tree)
        observe_fit(
            "rf",
            time.perf_counter() - fit_start,
            len(self._trees),
            sum(len(t._nodes) for t in self._trees),
        )
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        if not self._trees:
            raise RuntimeError("model is not fitted")
        if self._flat is None:
            self._flat = FlatForest.from_trees(self._trees)
        total = accumulate(0.0, 1.0, self._flat.leaf_values(X))
        return total / len(self._trees)
