"""Ablation: how much do HM's higher orders contribute?

Section 3.2 builds higher-order models only when the first order misses
the target accuracy.  This ablation fixes the sub-model budget per order
and compares holdout error at max_order 1, 2 and 3 — quantifying the
hierarchical part of Hierarchical Modeling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.experiments.common import Scale, collected, render_table, test_matrix
from repro.models.hierarchical import HierarchicalModel
from repro.models.metrics import mean_relative_error

ORDERS = (1, 2, 3)


@dataclass(frozen=True)
class AblationHmOrderResult:
    scale: str
    program: str
    #: test error per max_order
    errors: Dict[int, float]
    orders_used: Dict[int, int]

    def render(self) -> str:
        rows = [
            [order, self.orders_used[order], f"{self.errors[order] * 100:.1f}%"]
            for order in ORDERS
        ]
        return render_table(
            ["max_order", "orders built", "test error"],
            rows,
            f"Ablation: HM recursion depth on {self.program}",
        )

    @property
    def deeper_never_worse(self) -> bool:
        """Allowing recursion does not hurt test error materially."""
        return self.errors[max(ORDERS)] <= self.errors[1] * 1.10


def run(scale: Scale, program: str = "PR") -> AblationHmOrderResult:
    train = collected(program, scale.n_train, "train")
    test = collected(program, scale.n_test, "test")
    X, y = train.features(), train.log_times()
    X_test, measured = test_matrix(train, test)

    errors: Dict[int, float] = {}
    orders_used: Dict[int, int] = {}
    for max_order in ORDERS:
        model = HierarchicalModel(
            n_trees=scale.n_trees,
            learning_rate=scale.learning_rate,
            tree_complexity=scale.tree_complexity,
            max_order=max_order,
            # Force the recursion to actually happen: an unreachable
            # target means every allowed order is built.
            target_accuracy=0.999,
        ).fit(X, y)
        predicted = np.exp(model.predict(X_test))
        errors[max_order] = mean_relative_error(predicted, measured)
        orders_used[max_order] = model.order_
    return AblationHmOrderResult(
        scale=scale.name, program=program, errors=errors, orders_used=orders_used
    )
