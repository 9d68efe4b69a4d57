"""Tests for gradient boosting (FirstOrderProcedure) and HM (Algorithm 1)."""

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.models.boosting import GradientBoostedTrees
from repro.models.hierarchical import HierarchicalModel, _nnls
from repro.models.metrics import mean_relative_error

EPS = np.finfo(float).eps


class TestGradientBoostedTrees:
    def test_beats_a_single_tree(self, regression_data):
        from repro.models.tree import RegressionTree

        X, y = regression_data
        Xt, yt, Xv, yv = X[:450], y[:450], X[450:], y[450:]
        tree = RegressionTree(tree_complexity=5).fit(Xt, yt)
        gbt = GradientBoostedTrees(n_trees=150, learning_rate=0.1).fit(Xt, yt)
        tree_mse = np.mean((tree.predict(Xv) - yv) ** 2)
        gbt_mse = np.mean((gbt.predict(Xv) - yv) ** 2)
        assert gbt_mse < tree_mse

    def test_validation_curve_recorded_per_tree(self, regression_data):
        X, y = regression_data
        model = GradientBoostedTrees(n_trees=50, patience=10**9).fit(X, y)
        assert len(model.validation_errors_) == 50
        assert model.n_trees_fitted == 50

    def test_target_accuracy_stops_early(self, regression_data):
        X, y = regression_data
        model = GradientBoostedTrees(
            n_trees=500, learning_rate=0.2, target_accuracy=0.50
        ).fit(X, y)
        assert model.stopped_reason_ == "target accuracy reached"
        assert model.n_trees_fitted < 500

    def test_convergence_stops_early(self, regression_data):
        X, y = regression_data
        model = GradientBoostedTrees(
            n_trees=5000, learning_rate=0.3, patience=20, convergence_tol=1e-4
        ).fit(X, y)
        assert model.stopped_reason_ == "converged"
        assert model.n_trees_fitted < 5000

    def test_lower_lr_needs_more_trees(self, regression_data):
        """Figure 8's shape: smaller learning rates converge slower."""
        X, y = regression_data
        fast = GradientBoostedTrees(n_trees=120, learning_rate=0.2,
                                    patience=10**9).fit(X, y)
        slow = GradientBoostedTrees(n_trees=120, learning_rate=0.005,
                                    patience=10**9).fit(X, y)
        assert fast.validation_errors_[-1] < slow.validation_errors_[-1]

    def test_deterministic_given_seed(self, regression_data):
        X, y = regression_data
        a = GradientBoostedTrees(n_trees=30, random_state=5).fit(X, y).predict(X[:10])
        b = GradientBoostedTrees(n_trees=30, random_state=5).fit(X, y).predict(X[:10])
        assert np.allclose(a, b)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            GradientBoostedTrees(n_trees=0)
        with pytest.raises(ValueError):
            GradientBoostedTrees(learning_rate=0.0)
        with pytest.raises(ValueError):
            GradientBoostedTrees(subsample=1.5)

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            GradientBoostedTrees().predict(np.zeros((1, 3)))

    def test_explicit_measured_values_used_for_error(self, regression_data):
        X, y = regression_data
        measured = np.exp(y)
        model = GradientBoostedTrees(n_trees=20, patience=10**9)
        model.fit(X, y, measured=measured)
        assert 0.0 < model.validation_errors_[-1] < 1.0


class TestHierarchicalModel:
    def test_stops_at_first_order_when_accurate(self, regression_data):
        X, y = regression_data
        model = HierarchicalModel(
            n_trees=300, learning_rate=0.1, target_accuracy=0.5
        ).fit(X, y)
        assert model.order_ == 1
        assert model.n_components == 1

    def test_recurses_when_target_unreachable(self, regression_data):
        X, y = regression_data
        model = HierarchicalModel(
            n_trees=20, learning_rate=0.02, target_accuracy=0.999, max_order=3
        ).fit(X, y)
        assert model.order_ == 3  # kept adding orders until the cap

    def test_higher_order_never_worse_on_holdout(self, regression_data):
        """NNLS stacking makes the combination at least as good as the
        best single component on the holdout it was fitted on."""
        X, y = regression_data
        combo = HierarchicalModel(
            n_trees=60, learning_rate=0.05, target_accuracy=0.99, max_order=2,
            random_state=3,
        ).fit(X, y)
        single = HierarchicalModel(
            n_trees=60, learning_rate=0.05, target_accuracy=0.0001, max_order=1,
            random_state=3,
        ).fit(X, y)
        assert combo.holdout_error_ <= single.holdout_error_ + 1e-6

    def test_weights_are_nonnegative(self, regression_data):
        X, y = regression_data
        model = HierarchicalModel(
            n_trees=30, target_accuracy=0.999, max_order=2
        ).fit(X, y)
        assert np.all(model._weights >= 0)

    def test_predict_shape(self, regression_data):
        X, y = regression_data
        model = HierarchicalModel(n_trees=30, target_accuracy=0.5).fit(X, y)
        assert model.predict(X[:7]).shape == (7,)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            HierarchicalModel(max_order=0)
        with pytest.raises(ValueError):
            HierarchicalModel(target_accuracy=1.5)

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            HierarchicalModel().predict(np.zeros((1, 3)))

    def test_learns_simulator_data(self, small_training_set):
        """Integration: HM fits actual collected performance vectors."""
        ts = small_training_set
        model = HierarchicalModel(n_trees=150, learning_rate=0.1).fit(
            ts.features(), ts.log_times()
        )
        pred = np.exp(model.predict(ts.features()))
        err = mean_relative_error(pred, ts.times())
        assert err < 0.40  # in-sample fit on 120 points is decent


@st.composite
def nnls_problems(draw, max_columns=6):
    """``(A, b)`` with 1..max_columns columns on a 1/8 grid (so exact
    ties and rank deficiency occur), optionally a duplicated column, and
    optionally non-negative ``A`` against non-positive ``b`` (every
    weight zero)."""
    n = draw(st.integers(1, max_columns))
    m = draw(st.integers(1, 12))
    grid = st.integers(-40, 40).map(lambda v: v / 8)
    A = np.array(draw(st.lists(grid, min_size=m * n, max_size=m * n)))
    A = A.reshape(m, n)
    b = np.array(draw(st.lists(grid, min_size=m, max_size=m)))
    if n > 1 and draw(st.booleans()):
        j, k = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2,
                             unique=True))
        A[:, k] = A[:, j]
    if draw(st.booleans()):
        A, b = np.abs(A), -np.abs(b)
    return A, b


def _scale(A, b, x):
    """Magnitude of ``A.T @ (A @ x - b)``'s terms, for eps tolerances."""
    return max(A.shape) * np.linalg.norm(A) * (
        np.linalg.norm(A) * np.linalg.norm(x) + np.linalg.norm(b)
    ) + np.finfo(float).tiny


def _nnls_by_enumeration(A, b):
    """Reference: least squares on every support, best feasible one."""
    best, best_residual = np.zeros(A.shape[1]), np.linalg.norm(b)
    for size in range(1, A.shape[1] + 1):
        for support in itertools.combinations(range(A.shape[1]), size):
            x = np.zeros(A.shape[1])
            x[list(support)] = np.linalg.lstsq(A[:, support], b, rcond=None)[0]
            residual = np.linalg.norm(A @ x - b)
            if (x >= 0).all() and residual < best_residual:
                best, best_residual = x, residual
    return best


class TestNnls:
    """HM's stacking solver (Lawson–Hanson, NumPy only)."""

    @given(nnls_problems())
    @example((np.array([[2.0], [4.0]]), np.array([1.0, 2.0])))
    @example((np.ones((3, 2)), np.zeros(3)))
    # Column 0's gradient at the exact solve [0, 17.5, 0, 66.5, 0] is
    # rounding noise that exceeds a tolerance scaled by ||b|| alone: a
    # stopping rule blind to |A| |x| lets the column enter and leave
    # with a zero step until the iteration cap raises.
    @example(
        (
            np.array([[0, -1.375, 0, 0.375, 0], [1.75, -2.375, 0, 0.625, 0]]),
            np.array([0.875, 0.0]),
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_kkt_conditions(self, problem):
        A, b = problem
        x = _nnls(A, b)
        gradient = A.T @ (A @ x - b)
        tol = 64 * EPS * _scale(A, b, x)
        assert (x >= 0).all()
        assert (np.abs(gradient[x > 0]) <= tol).all()
        assert (gradient[x == 0] >= -tol).all()
        if (A >= 0).all() and (b <= 0).all():
            assert not x.any()

    @given(nnls_problems(max_columns=4))
    @settings(max_examples=200, deadline=None)
    def test_matches_every_support_enumeration(self, problem):
        A, b = problem
        x, reference = _nnls(A, b), _nnls_by_enumeration(A, b)
        residual = np.linalg.norm(A @ x - b)
        expected = np.linalg.norm(A @ reference - b)
        assert residual == pytest.approx(
            expected, rel=0, abs=64 * EPS * _scale(A, b, np.maximum(x, reference))
        )
        cond = np.linalg.cond(A) if len(A) >= A.shape[1] else np.inf
        if cond < 1e4:  # full column rank: the optimum is unique
            np.testing.assert_allclose(
                x, reference, rtol=0, atol=cond**2 * 64 * EPS * _scale(A, b, x)
            )

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["A", "b"])
    def test_non_finite_input_raises(self, bad, where):
        A, b = np.ones((4, 2)), np.ones(4)
        (A if where == "A" else b)[1] = bad
        with pytest.raises(ValueError):
            _nnls(A, b)

    def test_iteration_cap_raises(self, monkeypatch):
        # A least-squares step that never turns feasible cycles forever.
        monkeypatch.setattr(
            np.linalg, "lstsq", lambda a, b, rcond: (-np.ones(a.shape[1]),)
        )
        with pytest.raises(RuntimeError):
            _nnls(np.eye(3), np.ones(3))

    def test_combine_falls_back_to_average_when_all_weights_are_zero(self):
        predictions = [np.array([1.0, 2.0, 3.0]), np.array([2.0, 1.0, 4.0])]
        weights = HierarchicalModel._combine(predictions, -np.ones(3))
        np.testing.assert_array_equal(weights, [0.5, 0.5])


class TestPluggableHmComponents:
    def test_default_components_are_boosted_trees(self, regression_data):
        X, y = regression_data
        model = HierarchicalModel(n_trees=30, target_accuracy=0.5).fit(X, y)
        assert all(isinstance(c, GradientBoostedTrees) for c in model._components)
