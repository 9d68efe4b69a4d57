"""Performance-modelling substrate: all learners built from scratch.

The paper evaluates five modelling techniques on the (41 parameters +
datasize) -> execution-time regression problem:

* response surface (RS) — second-order polynomial regression [10];
* artificial neural network (ANN) [21];
* support vector machine (SVM/SVR) [19];
* random forest (RF) — the RFHOC baseline's model [4];
* Hierarchical Modeling (HM) — the paper's contribution (Section 3.2):
  boosted regression trees combined recursively (Algorithm 1).

No scikit-learn is available offline, so every learner here is a
from-scratch numpy implementation sharing the minimal estimator
interface ``fit(X, y) -> self`` / ``predict(X) -> ndarray``.
"""

from repro.models.ann import NeuralNetworkRegressor
from repro.models.boosting import GradientBoostedTrees
from repro.models.flat import FlatForest, FlatTree
from repro.models.forest import RandomForest
from repro.models.hierarchical import HierarchicalModel
from repro.models.metrics import mean_relative_error, relative_errors
from repro.models.response_surface import ResponseSurface
from repro.models.svr import SupportVectorRegressor
from repro.models.tree import BinnedDataset, RegressionTree

__all__ = [
    "BinnedDataset",
    "FlatForest",
    "FlatTree",
    "GradientBoostedTrees",
    "HierarchicalModel",
    "NeuralNetworkRegressor",
    "RandomForest",
    "RegressionTree",
    "ResponseSurface",
    "SupportVectorRegressor",
    "mean_relative_error",
    "relative_errors",
]

#: The four baseline techniques of Figure 3/9, by paper abbreviation.
BASELINE_MODELS = {
    "RS": ResponseSurface,
    "ANN": NeuralNetworkRegressor,
    "SVM": SupportVectorRegressor,
    "RF": RandomForest,
}
