"""Hierarchical Modeling (HM) — Algorithm 1 of the paper.

The first-order model is a boosted-tree ensemble
(:class:`~repro.models.boosting.GradientBoostedTrees`).  If its accuracy
on a held-out set misses the target after convergence, HM recurses:
build *another* first-order model with different randomness (a different
bootstrap stream) and combine the pair, "β1·TM1 + β2·TM2" — producing a
second-order model; the procedure repeats up to ``max_order``.

The paper leaves the combination coefficients abstract ("the respective
coefficients corresponding to learning rate"); we resolve them the
standard stacking way: non-negative least squares of the held-out
targets on the component predictions, so the combined model is at least
as good as its best component on that set.  This interpretation is
documented in DESIGN.md.
"""

from __future__ import annotations

import time
from typing import List, Optional

import numpy as np

from repro.models.boosting import GradientBoostedTrees
from repro.models.histkernel import observe_fit
from repro.models.metrics import mean_relative_error
from repro.telemetry import events as tele


def _nnls(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``argmin ||A x - b||₂`` subject to ``x >= 0`` (Lawson–Hanson).

    The active-set method: move the free column with the largest
    residual gradient into the passive set, least-squares solve the
    passive columns (ascending order), and while that solution has a
    negative weight step back toward the last feasible point until a
    weight hits zero and leaves the set.  It stops when no free column's
    gradient exceeds its rounding noise.  Non-finite input raises
    ``ValueError``; more than ``3·n`` outer iterations ``RuntimeError``.
    """
    A = np.asarray_chkfinite(A, dtype=float)
    b = np.asarray_chkfinite(b, dtype=float)
    m, n = A.shape
    eps = 10 * max(m, n) * np.finfo(float).eps
    magnitude = np.abs(A)
    x = np.zeros(n)
    passive = np.zeros(n, dtype=bool)
    iterations = 0
    while True:
        # Column j's gradient is rounding noise while it is below eps
        # times the magnitude of the terms ``A.T @ (b - A @ x)`` sums,
        # which grows with ``|A| |x|`` as well as with ``|b|``.
        noise = eps * (magnitude.T @ (np.abs(b) + magnitude @ x))
        gradient = np.where(passive, -np.inf, A.T @ (b - A @ x))
        entering = gradient > noise
        if not entering.any():
            return x
        j = int(np.argmax(np.where(entering, gradient, -np.inf)))
        iterations += 1
        if iterations > 3 * n:
            raise RuntimeError("NNLS: more than 3*n iterations")
        passive[j] = True
        while True:
            s = np.zeros(n)
            s[passive] = np.linalg.lstsq(A[:, passive], b, rcond=None)[0]
            negative = np.flatnonzero(passive & (s < 0))
            if not len(negative):
                break
            ratios = x[negative] / (x[negative] - s[negative])
            x += ratios.min() * (s - x)
            x[negative[np.argmin(ratios)]] = 0.0
            passive &= x > 0
        x = s


def _fit_component(payload):
    """Fit one HM component (module-level so process pools can pickle it)."""
    component, X_train, y_train = payload
    component.fit(X_train, y_train)
    return component


class HierarchicalModel:
    """The paper's HM performance model.

    Parameters mirror :class:`GradientBoostedTrees` (they configure every
    first-order component) plus:

    target_accuracy:
        Algorithm 1's stopping criterion (e.g. 0.90 = "90%").
    max_order:
        Recursion bound; the paper reports first-order sufficed for its
        programs (Section 5.3), higher orders are the fallback.
    """

    def __init__(
        self,
        n_trees: int = 600,
        learning_rate: float = 0.05,
        tree_complexity: int = 5,
        subsample: float = 0.5,
        target_accuracy: float = 0.90,
        max_order: int = 3,
        validation_fraction: float = 0.2,
        patience: int = 200,
        random_state: int = 0,
    ):
        if max_order < 1:
            raise ValueError("max_order must be >= 1")
        if not 0.0 < target_accuracy < 1.0:
            raise ValueError("target_accuracy must be in (0, 1)")
        self.n_trees = n_trees
        self.learning_rate = learning_rate
        self.tree_complexity = tree_complexity
        self.subsample = subsample
        self.target_accuracy = target_accuracy
        self.max_order = max_order
        self.validation_fraction = validation_fraction
        self.patience = patience
        self.random_state = random_state

        self._components: List[GradientBoostedTrees] = []
        self._weights: Optional[np.ndarray] = None
        self.order_: int = 0
        self.holdout_error_: float = np.inf

    # ------------------------------------------------------------------
    def fit(self, X: np.ndarray, y: np.ndarray, engine=None) -> "HierarchicalModel":
        """Fit on features ``X`` and log-time targets ``y``.

        ``engine``, if given and parallel-capable
        (:attr:`repro.engine.ExecutionBackend.supports_parallel_tasks`),
        trains the independent per-order components concurrently; the
        resulting model is identical to a sequential fit (see
        :meth:`_speculative_fit`).

        Binning is shared where content allows: each component binds its
        training split through :meth:`BinnedDataset.shared
        <repro.models.tree.BinnedDataset.shared>`, so re-fitting the
        same component (crash-resume, ablation sweeps, kernel-vs-
        reference benchmarks) reuses the existing quantile edges and
        codes instead of recomputing them.  Components of *different*
        orders draw different internal train permutations, so their
        matrices differ by construction — sharing across orders would
        change the fitted model and is deliberately not attempted.
        """
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        if len(X) != len(y):
            raise ValueError("X and y length mismatch")
        if len(X) < 8:
            raise ValueError("need at least 8 samples")
        self._components = []
        self.order_ = 0
        self._weights = None
        self.holdout_error_ = np.inf

        fit_start = time.perf_counter()
        X_train, y_train, X_val, y_val, measured_val = self._split(X, y)
        val_preds: List[np.ndarray] = []
        prefit = self._speculative_fit(engine, X_train, y_train)
        for order in range(1, self.max_order + 1):
            if prefit is not None:
                component = prefit[order - 1]
            else:
                component = self._build_component(order)
                component.fit(X_train, y_train)
            self._components.append(component)
            val_preds.append(component.predict(X_val))
            self.order_ = order

            self._weights = self._combine(val_preds, y_val)
            blended = self._blend(val_preds)
            self.holdout_error_ = mean_relative_error(np.exp(blended), measured_val)
            if tele.enabled():
                tele.event(
                    "hm.order",
                    order=order,
                    holdout_error=float(self.holdout_error_),
                    components=len(self._components),
                    weights=[float(w) for w in self._weights],
                    target_accuracy=self.target_accuracy,
                )
            if (1.0 - self.holdout_error_) >= self.target_accuracy:
                break
        observe_fit(
            "hm",
            time.perf_counter() - fit_start,
            sum(c.n_trees_fitted for c in self._components),
            sum(len(t._nodes) for c in self._components for t in c._trees),
        )
        return self

    # ------------------------------------------------------------------
    def _split(self, X: np.ndarray, y: np.ndarray):
        """HM's own holdout, used both to weight components and to decide
        whether another order is needed (deterministic in random_state)."""
        rng = np.random.default_rng(self.random_state)
        n_val = max(2, int(round(len(X) * self.validation_fraction)))
        order_idx = rng.permutation(len(X))
        val_idx, train_idx = order_idx[:n_val], order_idx[n_val:]
        return X[train_idx], y[train_idx], X[val_idx], y[val_idx], np.exp(y[val_idx])

    # ------------------------------------------------------------------
    def _speculative_fit(self, engine, X_train, y_train):
        """Fit every order concurrently when the engine can.

        Components are mutually independent — each is seeded from its
        order alone and fits the same training split, with stacking
        weights resolved afterwards — so every order that *might* be
        needed can train at once and the main loop then consumes the
        prefix it would have fitted sequentially, evaluating the same
        early-stop checks in the same sequence.  Orders beyond the stop
        point are wasted work, which is why this path only engages on
        backends that actually run tasks in parallel.  Fitted state
        round-trips through pickle exactly, so results are bit-identical
        to a sequential fit.
        """
        if self.max_order < 2 or not getattr(engine, "supports_parallel_tasks", False):
            return None
        orders = list(range(1, self.max_order + 1))
        payloads = [
            (self._build_component(order), X_train, y_train) for order in orders
        ]
        if tele.enabled():
            tele.event("hm.parallel_fit", orders=orders)
        return list(engine.map_tasks(_fit_component, payloads))

    # ------------------------------------------------------------------
    def _build_component(self, order: int) -> GradientBoostedTrees:
        """One sub-model with order-specific randomness (Algorithm 1's
        TM1/TM2 "call the same function but ... we introduce randomness")."""
        return GradientBoostedTrees(
            n_trees=self.n_trees,
            learning_rate=self.learning_rate,
            tree_complexity=self.tree_complexity,
            subsample=self.subsample,
            validation_fraction=self.validation_fraction,
            patience=self.patience,
            random_state=self.random_state + 7919 * order,
        )

    # ------------------------------------------------------------------
    @staticmethod
    def _combine(predictions: List[np.ndarray], y_val: np.ndarray) -> np.ndarray:
        """Non-negative least-squares stacking weights (β coefficients)."""
        if len(predictions) == 1:
            return np.array([1.0])
        weights = _nnls(np.column_stack(predictions), y_val)
        if weights.sum() <= 0:
            # Degenerate holdout: fall back to a plain average.
            return np.full(len(predictions), 1.0 / len(predictions))
        return weights

    def _blend(self, predictions: List[np.ndarray]) -> np.ndarray:
        assert self._weights is not None
        stacked = np.column_stack(predictions)
        return stacked @ self._weights

    # ------------------------------------------------------------------
    def predict(self, X: np.ndarray) -> np.ndarray:
        """The stacking blend of the components' raw-row predictions."""
        if not self._components or self._weights is None:
            raise RuntimeError("model is not fitted")
        X = np.asarray(X, dtype=float)
        return self._blend([component.predict(X) for component in self._components])

    # ------------------------------------------------------------------
    def to_sections(self):
        """Lower the fitted model into ``(sections, meta)`` for the blob
        format.

        Per-component node tables and stacking weights become array
        sections, scalars become JSON meta.  An unfitted model
        raises ``ValueError``, and the run store refuses to store it.
        """
        if not self._components or self._weights is None:
            raise ValueError("model is not fitted")
        sections = {
            "weights": np.asarray(self._weights, dtype=float),
            "holdout": np.asarray([self.holdout_error_], dtype=float),
        }
        component_meta = []
        for i, component in enumerate(self._components):
            comp_sections, comp_meta = component.to_sections(prefix=f"c{i}.")
            sections.update(comp_sections)
            component_meta.append(comp_meta)
        meta = {
            "n_trees": int(self.n_trees),
            "learning_rate": float(self.learning_rate),
            "tree_complexity": int(self.tree_complexity),
            "subsample": float(self.subsample),
            "target_accuracy": float(self.target_accuracy),
            "max_order": int(self.max_order),
            "validation_fraction": float(self.validation_fraction),
            "patience": int(self.patience),
            "random_state": int(self.random_state),
            "order": int(self.order_),
            "components": component_meta,
        }
        return sections, meta

    @classmethod
    def from_sections(cls, sections, meta) -> "HierarchicalModel":
        """Rebuild a model from stored sections (zero copy; see
        :meth:`GradientBoostedTrees.from_sections`).

        The restored model predicts bit-for-bit like the original.
        """
        model = cls(
            n_trees=int(meta["n_trees"]),
            learning_rate=float(meta["learning_rate"]),
            tree_complexity=int(meta["tree_complexity"]),
            subsample=float(meta["subsample"]),
            target_accuracy=float(meta["target_accuracy"]),
            max_order=int(meta["max_order"]),
            validation_fraction=float(meta["validation_fraction"]),
            patience=int(meta["patience"]),
            random_state=int(meta["random_state"]),
        )
        model._components = [
            GradientBoostedTrees.from_sections(sections, comp_meta, prefix=f"c{i}.")
            for i, comp_meta in enumerate(meta["components"])
        ]
        model._weights = np.asarray(sections["weights"], dtype=float)
        model.holdout_error_ = float(np.asarray(sections["holdout"])[0])
        model.order_ = int(meta["order"])
        return model

    @property
    def n_components(self) -> int:
        return len(self._components)
