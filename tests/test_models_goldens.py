"""Frozen model digests: byte identity without the reference fit path.

Every fingerprint guarantee of the store and service layers assumes a
fit grows the same trees and a predict returns the same bits.  The
kernel-versus-reference tests prove that against the per-feature loop;
these digests prove it against fixed bytes, so they keep holding when
that loop is gone.  Each digest covers a whole fitted model:

* every tree's node table — feature, bin threshold, children, value and
  real threshold — for one small HM fit and one mtry forest fit;
* the HM's and the forest's predictions for a probe matrix holding NaN,
  ±inf, a value exactly on a bin edge and one just below the first edge.

A change that moves one fitted or predicted bit fails here.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core.tuner import DacTuner
from repro.models.forest import RandomForest
from repro.models.tree import clear_shared_binners
from repro.workloads import get_workload

# Recorded while every tree still searched its last child pair and
# binning still compared against a padded edge cube.
HM_TREES = "ed584e4c787ef0b2cf4f5468b2981c71b0740617fbcd5daa511f9a5e891ec6b0"
HM_PREDICT = "f00d1f3e860725a9a579b8ec3a97233cca27ad2ae419fc17b4b3d7cbcbedcc79"
RF_TREES = "656e9b8316907103c8e2962f41ebd9134d965eb743c04ed5f48955590bd7374e"
RF_PREDICT = "c16d246ceb2ed425468741bac1bbbecfb7db7bc751b6df702dd8ce940db476c1"


def trees_digest(trees) -> str:
    """SHA-256 over every tree's node table, in ensemble order."""
    digest = hashlib.sha256()
    for tree in trees:
        nodes = tree._nodes
        digest.update(np.int64(len(nodes)).tobytes())
        digest.update(
            np.array(
                [(n.feature, n.bin_threshold, n.left, n.right) for n in nodes],
                dtype=np.int64,
            ).tobytes()
        )
        digest.update(
            np.array([(n.value, n.threshold) for n in nodes], dtype=float).tobytes()
        )
    return digest.hexdigest()


def probe_matrix(X: np.ndarray, edges) -> np.ndarray:
    """Training rows with one special value planted per row."""
    P = np.array(X[:6], dtype=float)
    P[0, 0] = np.nan
    P[1, 1] = np.inf
    P[2, 2] = -np.inf
    P[3, 3] = edges[3][len(edges[3]) // 2]  # exactly on an edge
    P[4, 4] = np.nextafter(edges[4][0], -np.inf)  # just below the first edge
    P[5, :] = np.nan
    return P


@pytest.fixture(scope="module")
def ts_fit():
    clear_shared_binners()
    tuner = DacTuner(get_workload("TS"), n_train=120, n_trees=60, seed=7)
    model = tuner.fit()
    X = tuner.training_set.features()
    y = tuner.training_set.log_times()
    yield model, X, y
    clear_shared_binners()


def test_hm_trees_match_golden(ts_fit):
    model, _, _ = ts_fit
    trees = [tree for c in model._components for tree in c._trees]
    assert trees_digest(trees) == HM_TREES


def test_hm_predict_matches_golden(ts_fit):
    model, X, _ = ts_fit
    edges = [
        np.unique(np.concatenate([c._binner.edges[j] for c in model._components]))
        for j in range(X.shape[1])
    ]
    assert all(len(edges[j]) for j in (3, 4))
    prediction = model.predict(probe_matrix(X, edges))
    assert hashlib.sha256(prediction.tobytes()).hexdigest() == HM_PREDICT


def test_mtry_forest_matches_golden(ts_fit):
    _, X, y = ts_fit
    forest = RandomForest(n_trees=20, max_splits=16, random_state=5).fit(X, y)
    assert trees_digest(forest._trees) == RF_TREES
    prediction = forest.predict(probe_matrix(X, forest._binner.edges))
    assert hashlib.sha256(prediction.tobytes()).hexdigest() == RF_PREDICT
