"""Shared machinery for the model-accuracy studies (Figures 3 and 9).

Both figures evaluate performance models on the identical protocol
(Section 5.3): fit on the training set S, predict on a disjoint test
set, report the mean Equation-2 relative error per program.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Sequence, Tuple

import numpy as np

from repro.experiments.common import Scale, collected, render_table, test_matrix
from repro.models import (
    HierarchicalModel,
    NeuralNetworkRegressor,
    RandomForest,
    ResponseSurface,
    SupportVectorRegressor,
)
from repro.models.metrics import mean_relative_error


def model_factories(scale: Scale) -> Dict[str, Callable[[], object]]:
    """The five techniques of Figure 9, configured for a scale.

    HM at ``scale.n_trees``/``scale.learning_rate``/``tc`` (the values
    Section 5.2 selects at PAPER scale); baselines at their tuned
    defaults with ensemble sizes scaled alongside.
    """
    rf_trees = max(30, scale.n_trees // 8)
    return {
        "RS": lambda: ResponseSurface(),
        "ANN": lambda: NeuralNetworkRegressor(
            epochs=max(100, min(500, scale.n_train))
        ),
        "SVM": lambda: SupportVectorRegressor(
            epochs=max(50, min(200, scale.n_train // 4))
        ),
        "RF": lambda: RandomForest(n_trees=min(rf_trees, 120), max_splits=100),
        "HM": lambda: HierarchicalModel(
            n_trees=scale.n_trees,
            learning_rate=scale.learning_rate,
            tree_complexity=scale.tree_complexity,
        ),
    }


@dataclass(frozen=True)
class ModelErrorResult:
    """Mean relative errors, per model per program."""

    scale: str
    models: Tuple[str, ...]
    programs: Tuple[str, ...]
    #: errors[model][program] as fractions (0.076 = 7.6%).
    errors: Dict[str, Dict[str, float]]

    def average(self, model: str) -> float:
        return float(np.mean(list(self.errors[model].values())))

    def render(self, title: str) -> str:
        headers = ["model", *self.programs, "AVG"]
        rows = []
        for model in self.models:
            per = self.errors[model]
            rows.append(
                [model]
                + [f"{per[p] * 100:.1f}%" for p in self.programs]
                + [f"{self.average(model) * 100:.1f}%"]
            )
        return render_table(headers, rows, title)


def run_model_errors(
    scale: Scale, model_names: Sequence[str], programs: Sequence[str] | None = None
) -> ModelErrorResult:
    """Fit each named model per program and measure test error."""
    programs = tuple(programs or scale.programs)
    factories = model_factories(scale)
    unknown = set(model_names) - set(factories)
    if unknown:
        raise ValueError(f"unknown models: {sorted(unknown)}")
    errors: Dict[str, Dict[str, float]] = {name: {} for name in model_names}
    for program in programs:
        train = collected(program, scale.n_train, "train")
        test = collected(program, scale.n_test, "test")
        X_train, y_train = train.features(), train.log_times()
        X_test, measured = test_matrix(train, test)
        for name in model_names:
            model = factories[name]()
            model.fit(X_train, y_train)
            predicted = np.exp(np.asarray(model.predict(X_test)))
            errors[name][program] = mean_relative_error(predicted, measured)
    return ModelErrorResult(
        scale=scale.name,
        models=tuple(model_names),
        programs=programs,
        errors=errors,
    )
