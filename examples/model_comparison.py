"""Compare the five performance-modelling techniques on one program.

Reproduces the Figure 3 / Figure 9 protocol interactively: collect a
training set and a disjoint test set for PageRank, fit RS, ANN, SVM, RF
and HM, and print each model's Equation-2 relative error — the study
that motivates Hierarchical Modeling.

    python examples/model_comparison.py [PROGRAM]
"""

import sys
import time

import numpy as np

from repro import get_workload
from repro.core.collecting import Collector
from repro.experiments.common import test_matrix
from repro.models import (
    HierarchicalModel,
    NeuralNetworkRegressor,
    RandomForest,
    ResponseSurface,
    SupportVectorRegressor,
)
from repro.models.metrics import mean_relative_error


def main() -> None:
    program = sys.argv[1] if len(sys.argv) > 1 else "PR"
    workload = get_workload(program)
    print(f"Collecting training (800) and test (250) sets for {workload.name} ...")
    collector = Collector(workload)
    train = collector.collect(800, stream="train")
    test = collector.collect(250, stream="test")

    X_train, y_train = train.features(), train.log_times()
    X_test, measured = test_matrix(train, test)

    models = {
        "RS  (response surface)": ResponseSurface(),
        "ANN (neural network)": NeuralNetworkRegressor(epochs=300),
        "SVM (support vectors)": SupportVectorRegressor(epochs=100),
        "RF  (random forest)": RandomForest(n_trees=80),
        "HM  (hierarchical model)": HierarchicalModel(
            n_trees=600, learning_rate=0.05
        ),
    }

    print(f"\n{'model':28s} {'err (Eq. 2)':>12} {'fit time':>10}")
    results = {}
    for name, model in models.items():
        start = time.perf_counter()
        model.fit(X_train, y_train)
        fit_seconds = time.perf_counter() - start
        predicted = np.exp(np.asarray(model.predict(X_test)))
        err = mean_relative_error(predicted, measured)
        results[name] = err
        print(f"{name:28s} {err * 100:11.1f}% {fit_seconds:9.1f}s")

    best = min(results, key=results.get)
    print(f"\nMost accurate: {best.strip()} — the paper's Figure 9 finding.")


if __name__ == "__main__":
    main()
