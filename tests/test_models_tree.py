"""Tests for the binned CART regression tree."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models.tree import BinnedDataset, RegressionTree


class TestBinnedDataset:
    def test_codes_shape_and_dtype(self):
        X = np.random.default_rng(0).random((100, 5))
        binner = BinnedDataset(X, max_bins=16)
        assert binner.codes.shape == (100, 5)
        assert binner.codes.dtype == np.uint8
        assert binner.codes.max() < 16

    def test_bin_matrix_consistent_with_training_codes(self):
        X = np.random.default_rng(1).random((200, 3))
        binner = BinnedDataset(X)
        assert np.array_equal(binner.bin_matrix(X), binner.codes)

    def test_constant_feature_single_bin(self):
        X = np.ones((50, 2))
        binner = BinnedDataset(X)
        assert binner.n_bins[0] >= 1
        assert len(np.unique(binner.codes[:, 0])) == 1

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            BinnedDataset(np.zeros(10))  # 1-D
        with pytest.raises(ValueError):
            BinnedDataset(np.zeros((10, 2)), max_bins=1)
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="finite"):
                BinnedDataset(np.array([[0.0], [bad], [1.0]]))

    def test_threshold_maps_back_to_feature_scale(self):
        X = np.linspace(0, 1, 100).reshape(-1, 1)
        binner = BinnedDataset(X, max_bins=4)
        t = binner.threshold(0, 0)
        assert 0.0 < t < 1.0

    def test_duplicate_columns_share_edges(self):
        rng = np.random.default_rng(5)
        col = rng.random(100)
        X = np.column_stack([col, rng.random(100), col])
        binner = BinnedDataset(X)
        assert binner.edges[2] is binner.edges[0]
        assert np.array_equal(binner.codes[:, 2], binner.codes[:, 0])


class TestRegressionTree:
    def test_stump_recovers_a_step_function(self):
        X = np.linspace(0, 1, 200).reshape(-1, 1)
        y = np.where(X[:, 0] > 0.5, 2.0, -2.0)
        tree = RegressionTree(tree_complexity=1).fit(X, y)
        pred = tree.predict(X)
        assert np.abs(pred - y).max() < 0.5
        assert tree.n_internal_nodes == 1
        assert tree.n_leaves == 2

    def test_complexity_limits_splits(self):
        rng = np.random.default_rng(0)
        X = rng.random((500, 8))
        y = rng.random(500)
        for tc in (1, 3, 7):
            tree = RegressionTree(tree_complexity=tc).fit(X, y)
            assert tree.n_internal_nodes <= tc

    def test_best_first_splits_where_gain_is(self):
        # Feature 1 carries a strong signal, features 0/2 are noise:
        # the first split must pick feature 1.
        rng = np.random.default_rng(3)
        X = rng.random((400, 3))
        y = 10.0 * (X[:, 1] > 0.5) + 0.01 * rng.standard_normal(400)
        tree = RegressionTree(tree_complexity=1).fit(X, y)
        assert tree._nodes[0].feature == 1

    def test_min_samples_leaf_respected(self):
        X = np.array([[0.0], [1.0]])
        y = np.array([0.0, 1.0])
        tree = RegressionTree(tree_complexity=5, min_samples_leaf=5).fit(X, y)
        assert tree.n_internal_nodes == 0  # cannot split 2 samples

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            RegressionTree().predict(np.zeros((1, 2)))

    def test_predict_binned_matches_predict(self, regression_data):
        X, y = regression_data
        tree = RegressionTree(tree_complexity=6).fit(X, y)
        codes = tree._binner.bin_matrix(X)
        assert tree.predict(X).tobytes() == tree.predict_binned_walk(codes).tobytes()

    def test_bootstrap_fit_uses_only_sampled_rows(self):
        X = np.vstack([np.zeros((50, 1)), np.ones((50, 1))])
        y = np.concatenate([np.zeros(50), np.full(50, 100.0)])
        binner = BinnedDataset(X)
        # Restrict fitting to the first half: prediction stays near 0.
        tree = RegressionTree(tree_complexity=3).fit_binned(
            binner, y, sample_indices=np.arange(50)
        )
        assert float(tree.predict(np.array([[0.0]]))[0]) == pytest.approx(0.0)

    def test_split_feature_subsampling(self):
        rng = np.random.default_rng(5)
        X = rng.random((300, 6))
        y = 5 * X[:, 0]
        tree = RegressionTree(tree_complexity=4, split_features=2, random_state=9)
        tree.fit(X, y)
        assert tree.n_internal_nodes >= 1  # still fits something

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            RegressionTree(tree_complexity=0)
        with pytest.raises(ValueError):
            RegressionTree(min_samples_leaf=0)
        with pytest.raises(ValueError):
            RegressionTree(split_features=0)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=20, deadline=None)
    def test_predictions_within_target_range(self, seed):
        """Tree predictions are means of leaf subsets — never outside the
        observed target range."""
        rng = np.random.default_rng(seed)
        X = rng.random((60, 4))
        y = rng.normal(size=60)
        tree = RegressionTree(tree_complexity=5).fit(X, y)
        pred = tree.predict(rng.random((30, 4)))
        assert pred.min() >= y.min() - 1e-12
        assert pred.max() <= y.max() + 1e-12
