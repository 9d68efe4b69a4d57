"""Tests for the RF / ANN / SVR / RS baseline learners and metrics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models.ann import NeuralNetworkRegressor
from repro.models.forest import RandomForest
from repro.models.metrics import mean_relative_error, relative_errors
from repro.models.response_surface import ResponseSurface
from repro.models.svr import SupportVectorRegressor


class TestMetrics:
    def test_equation2_definition(self):
        errs = relative_errors(np.array([110.0, 80.0]), np.array([100.0, 100.0]))
        assert np.allclose(errs, [0.1, 0.2])

    def test_mean_relative_error(self):
        assert mean_relative_error(
            np.array([110.0, 80.0]), np.array([100.0, 100.0])
        ) == pytest.approx(0.15)

    def test_rejects_nonpositive_measurements(self):
        with pytest.raises(ValueError):
            relative_errors(np.array([1.0]), np.array([0.0]))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            relative_errors(np.zeros(3), np.ones(2))


class TestRandomForest:
    def test_fits_and_predicts(self, regression_data):
        X, y = regression_data
        model = RandomForest(n_trees=30).fit(X, y)
        pred = model.predict(X)
        assert pred.shape == y.shape
        assert np.mean((pred - y) ** 2) < np.var(y)

    def test_averaging_reduces_variance(self, regression_data):
        X, y = regression_data
        Xt, yt, Xv, yv = X[:450], y[:450], X[450:], y[450:]
        one = RandomForest(n_trees=1, random_state=1).fit(Xt, yt)
        many = RandomForest(n_trees=40, random_state=1).fit(Xt, yt)
        assert np.mean((many.predict(Xv) - yv) ** 2) < np.mean(
            (one.predict(Xv) - yv) ** 2
        )

    def test_mtry_default_is_third_of_features(self, regression_data):
        X, y = regression_data
        model = RandomForest(n_trees=2).fit(X, y)
        assert model._trees[0].split_features == max(1, int(np.ceil(X.shape[1] / 3)))

    def test_invalid_n_trees(self):
        with pytest.raises(ValueError):
            RandomForest(n_trees=0)

    def test_predict_before_fit(self):
        with pytest.raises(RuntimeError):
            RandomForest().predict(np.zeros((1, 2)))


class TestNeuralNetwork:
    def test_learns_linear_function(self):
        rng = np.random.default_rng(0)
        X = rng.random((400, 4))
        y = 3.0 * X[:, 0] - 2.0 * X[:, 1] + 1.0
        model = NeuralNetworkRegressor(hidden=(32,), epochs=150).fit(X, y)
        mse = np.mean((model.predict(X) - y) ** 2)
        assert mse < 0.05 * np.var(y)

    def test_deterministic_given_seed(self, regression_data):
        X, y = regression_data
        a = NeuralNetworkRegressor(epochs=5, random_state=2).fit(X, y).predict(X[:5])
        b = NeuralNetworkRegressor(epochs=5, random_state=2).fit(X, y).predict(X[:5])
        assert np.allclose(a, b)

    def test_requires_hidden_layer(self):
        with pytest.raises(ValueError):
            NeuralNetworkRegressor(hidden=())

    def test_predict_before_fit(self):
        with pytest.raises(RuntimeError):
            NeuralNetworkRegressor().predict(np.zeros((1, 2)))


class TestSupportVectorRegressor:
    def test_learns_smooth_function(self):
        rng = np.random.default_rng(1)
        X = rng.random((300, 2))
        y = np.sin(3 * X[:, 0]) + X[:, 1]
        model = SupportVectorRegressor(epochs=60, n_features=300).fit(X, y)
        mse = np.mean((model.predict(X) - y) ** 2)
        assert mse < 0.2 * np.var(y)

    def test_explicit_gamma_accepted(self, regression_data):
        X, y = regression_data
        model = SupportVectorRegressor(gamma=0.5, epochs=10).fit(X, y)
        assert model.predict(X[:3]).shape == (3,)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            SupportVectorRegressor(C=0.0)
        with pytest.raises(ValueError):
            SupportVectorRegressor(epsilon=-0.1)

    def test_predict_before_fit(self):
        with pytest.raises(RuntimeError):
            SupportVectorRegressor().predict(np.zeros((1, 2)))


class TestResponseSurface:
    def test_recovers_quadratic_exactly(self):
        rng = np.random.default_rng(2)
        X = rng.random((300, 3))
        y = 1 + 2 * X[:, 0] + X[:, 1] ** 2 + 3 * X[:, 0] * X[:, 2]
        model = ResponseSurface(ridge=1e-8).fit(X, y)
        assert np.allclose(model.predict(X), y, atol=1e-4)

    def test_term_count_is_full_quadratic(self, regression_data):
        X, y = regression_data
        d = X.shape[1]
        model = ResponseSurface().fit(X, y)
        assert model.n_terms == 1 + 2 * d + d * (d - 1) // 2

    def test_interactions_can_be_disabled(self, regression_data):
        X, y = regression_data
        d = X.shape[1]
        model = ResponseSurface(interactions=False).fit(X, y)
        assert model.n_terms == 1 + 2 * d

    def test_invalid_ridge(self):
        with pytest.raises(ValueError):
            ResponseSurface(ridge=-1.0)

    def test_predict_before_fit(self):
        with pytest.raises(RuntimeError):
            ResponseSurface().predict(np.zeros((1, 2)))

    @given(st.integers(min_value=0, max_value=1000))
    @settings(max_examples=15, deadline=None)
    def test_ridge_shrinks_but_never_breaks(self, seed):
        rng = np.random.default_rng(seed)
        X = rng.random((50, 4))
        y = rng.random(50)
        pred = ResponseSurface(ridge=10.0).fit(X, y).predict(X)
        assert np.all(np.isfinite(pred))
