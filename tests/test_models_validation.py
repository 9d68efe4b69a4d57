"""Tests for k-fold validation and pluggable HM components."""

import numpy as np
import pytest

from repro.models.boosting import GradientBoostedTrees
from repro.models.hierarchical import HierarchicalModel
from repro.models.response_surface import ResponseSurface
from repro.models.validation import (
    CvResult,
    cross_validate,
    kfold_indices,
    paper_holdout_size,
    select_by_cv,
)


class TestPaperRule:
    def test_quarter_of_training_set(self):
        # The paper: 2000 training examples -> 500 validation vectors.
        assert paper_holdout_size(2000) == 500

    def test_tiny_sets_rejected(self):
        with pytest.raises(ValueError):
            paper_holdout_size(3)


class TestKfold:
    def test_folds_partition_all_samples(self):
        rng = np.random.default_rng(0)
        pairs = kfold_indices(50, 5, rng)
        assert len(pairs) == 5
        all_test = np.concatenate([test for _, test in pairs])
        assert sorted(all_test.tolist()) == list(range(50))

    def test_train_and_test_disjoint(self):
        rng = np.random.default_rng(1)
        for train_idx, test_idx in kfold_indices(30, 3, rng):
            assert not set(train_idx) & set(test_idx)
            assert len(train_idx) + len(test_idx) == 30

    def test_invalid_parameters(self):
        rng = np.random.default_rng(2)
        with pytest.raises(ValueError):
            kfold_indices(10, 1, rng)
        with pytest.raises(ValueError):
            kfold_indices(3, 5, rng)


class TestCrossValidate:
    def test_reports_per_fold_errors(self, regression_data):
        X, y = regression_data
        result = cross_validate(
            lambda: ResponseSurface(), X[:200], y[:200], k=4
        )
        assert result.n_folds == 4
        assert all(e > 0 for e in result.fold_errors)
        assert result.mean_error == pytest.approx(np.mean(result.fold_errors))
        assert isinstance(result, CvResult)

    def test_better_model_scores_better(self, regression_data):
        X, y = regression_data
        good = cross_validate(
            lambda: GradientBoostedTrees(n_trees=80, learning_rate=0.1), X, y, k=3
        )
        # A constant-mean predictor via a 1-tree, 1-split model.
        from repro.models.tree import RegressionTree

        bad = cross_validate(
            lambda: RegressionTree(tree_complexity=1, min_samples_leaf=len(X)),
            X, y, k=3,
        )
        assert good.mean_error < bad.mean_error

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            cross_validate(lambda: ResponseSurface(), np.zeros((5, 2)), np.zeros(4))

    def test_select_by_cv_picks_lower_error(self, regression_data):
        X, y = regression_data
        name, result = select_by_cv(
            [
                ("gbt", lambda: GradientBoostedTrees(n_trees=60, learning_rate=0.1)),
                ("rs", lambda: ResponseSurface()),
            ],
            X[:300],
            y[:300],
            k=3,
        )
        assert name in ("gbt", "rs")
        assert result.mean_error > 0

    def test_select_requires_candidates(self, regression_data):
        X, y = regression_data
        with pytest.raises(ValueError):
            select_by_cv([], X, y)


class TestPluggableHmComponents:
    def test_default_components_are_boosted_trees(self, regression_data):
        X, y = regression_data
        model = HierarchicalModel(n_trees=30, target_accuracy=0.5).fit(X, y)
        assert all(isinstance(c, GradientBoostedTrees) for c in model._components)
