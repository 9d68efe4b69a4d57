"""Histogram-kernel fitting: equivalence, sharing, telemetry.

The kernel's contract is *byte identity* with the reference per-feature
split search — same node tables, same leaf values, same RNG
consumption — because report fingerprints, dedup, and crash-resume all
assume fitted models are bit-stable.  These tests pin that contract on
adversarial inputs by patching the reference growth loop over the
kernel (:func:`reference_fit`), plus the shared binner cache and the
``model.fit`` events.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.models import histkernel
from repro.models.boosting import GradientBoostedTrees
from repro.models.forest import RandomForest
from repro.models.hierarchical import HierarchicalModel
from repro.models.histkernel import observe_fit
from repro.models.tree import (
    BinnedDataset,
    RegressionTree,
    _shared_binners,
    clear_shared_binners,
)


@pytest.fixture(autouse=True)
def _fresh_shared_binners():
    clear_shared_binners()
    yield
    clear_shared_binners()


def node_table(tree):
    """Everything that defines the grown tree, bit-exact."""
    structure = [
        (n.feature, n.bin_threshold, n.left, n.right) for n in tree._nodes
    ]
    values = np.array(
        [(n.value, n.threshold) for n in tree._nodes], dtype=float
    ).tobytes()
    return structure, values


def reference_fit():
    """Grow every tree through the reference loop while active."""
    return mock.patch.object(
        RegressionTree, "_fit_binned_kernel", RegressionTree._fit_binned_reference
    )


def fit_both(X, y, **kwargs):
    """The same tree fitted by the reference loop and by the kernel."""
    with reference_fit():
        ref = RegressionTree(**kwargs).fit(X, y)
    return ref, RegressionTree(**kwargs).fit(X, y)


# ----------------------------------------------------------------------
# Kernel == reference, adversarially
# ----------------------------------------------------------------------
class TestSplitEquivalence:
    @given(
        n=st.integers(min_value=4, max_value=90),
        n_features=st.integers(min_value=1, max_value=9),
        msl=st.integers(min_value=1, max_value=6),
        tc=st.integers(min_value=1, max_value=9),
        max_bins=st.integers(min_value=2, max_value=48),
        seed=st.integers(min_value=0, max_value=10_000),
        y_mode=st.sampled_from(
            ["normal", "constant", "quantized", "lopsided", "huge"]
        ),
        mtry=st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_kernel_grows_byte_identical_trees(
        self, n, n_features, msl, tc, max_bins, seed, y_mode, mtry
    ):
        """Constant features, duplicated columns, degenerate targets,
        min_samples_leaf boundaries, lopsided splits, NaN gains, and
        mtry subsets with the same RNG stream — the kernel must match
        the reference on all of them."""
        rng = np.random.default_rng(seed)
        X = rng.random((n, n_features))
        X[:, 0] = 0.5  # constant feature: zero-gain everywhere
        if y_mode == "constant":
            y = np.full(n, 1.25)
        elif y_mode == "quantized":
            y = np.round(rng.normal(size=n), 1)  # mass ties in sums
        else:
            y = rng.normal(size=n)
        if y_mode == "lopsided" and n_features >= 2:
            # msl outliers at one end of feature 1: splitting them off
            # leaves a child too small to score (< 2 * msl) beside a
            # sibling that is scored.
            order = np.argsort(X[:, 1])
            y[order[:msl] if seed % 2 else order[-msl:]] += 100.0
        if y_mode == "huge" and n_features >= 2:
            # Interleaved +-big targets keep the node total finite, but
            # in feature 1's two lowest bins the prefix sum reaches inf
            # and then inf + -inf: NaN gains beside finite ones.
            y[:4] = [1.5e308, -1.5e308, 1.5e308, -1.5e308]
            X[:4, 1] = [-1.0, -0.5, -1.0, -0.5]
        if n_features >= 3:
            X[:, -1] = X[:, 1]  # duplicated column: tie on every split
        kwargs = dict(
            tree_complexity=tc,
            min_samples_leaf=msl,
            max_bins=max_bins,
            split_features=max(1, n_features // 2) if mtry else None,
            random_state=seed % 13,
        )
        with np.errstate(over="ignore", invalid="ignore"):  # "huge" overflows
            ref, knl = fit_both(X, y, **kwargs)
        assert node_table(ref) == node_table(knl)
        # Same mtry draws consumed in the same order.
        assert ref._rng.bit_generator.state == knl._rng.bit_generator.state

    @pytest.mark.parametrize("msl", [1, 2, 5])
    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_min_samples_leaf_boundary(self, msl, offset):
        """n = 2*msl is the smallest splittable node; one below must
        leaf out identically on both paths."""
        n = max(2, 2 * msl + offset)
        rng = np.random.default_rng(msl * 10 + offset)
        X = rng.random((n, 4))
        y = rng.normal(size=n)
        ref, knl = fit_both(X, y, tree_complexity=3, min_samples_leaf=msl)
        assert node_table(ref) == node_table(knl)

    def test_all_equal_target_leafs_out(self):
        X = np.random.default_rng(0).random((40, 5))
        y = np.full(40, 3.0)
        ref, knl = fit_both(X, y, tree_complexity=5)
        assert node_table(ref) == node_table(knl)
        assert len(knl._nodes) == 1 and knl._nodes[0].is_leaf

    def test_feature_subset_fit_binned(self):
        """Non-identity feature_indices must not trip histogram reuse."""
        rng = np.random.default_rng(5)
        X = rng.random((60, 6))
        y = rng.normal(size=60)
        binner = BinnedDataset(X)
        features = np.array([4, 1, 5])
        with reference_fit():
            ref = RegressionTree(tree_complexity=4)
            ref.fit_binned(binner, y, feature_indices=features)
        knl = RegressionTree(tree_complexity=4)
        knl.fit_binned(binner, y, feature_indices=features)
        assert node_table(ref) == node_table(knl)
        assert all(
            n.feature in (4, 1, 5) for n in knl._nodes if not n.is_leaf
        )

    @pytest.mark.parametrize("tc", [1, 2, 5])
    @pytest.mark.parametrize("mtry", [False, True])
    def test_last_child_pair_is_valued_not_searched(self, tc, mtry, monkeypatch):
        """The tc-th split's children could only push splits onto a
        frontier that is never popped again, so the kernel values them
        without a histogram pass: the root plus tc - 1 child pairs."""
        rng = np.random.default_rng(tc)
        X = rng.random((400, 6))
        # A step at 0.5 on every feature: whichever features a node may
        # use, its best split halves it, so every child stays far above
        # 2 * min_samples_leaf.
        y = (X > 0.5) @ 2.0 ** np.arange(6) + 0.1 * rng.normal(size=400)
        kwargs = dict(
            tree_complexity=tc,
            min_samples_leaf=5,
            split_features=3 if mtry else None,
            random_state=tc,
        )
        with reference_fit():
            ref = RegressionTree(**kwargs).fit(X, y)
        passes = []
        original = histkernel.FrontierEvaluator._best_splits

        def counting(self, plans, rows, targets):
            passes.append(len(plans))
            return original(self, plans, rows, targets)

        monkeypatch.setattr(histkernel.FrontierEvaluator, "_best_splits", counting)
        knl = RegressionTree(**kwargs).fit(X, y)
        # Every scored node was splittable: one root, then full pairs.
        assert passes == [1] + [2] * (tc - 1)
        assert knl.n_internal_nodes == tc
        assert node_table(knl) == node_table(ref)
        assert ref._rng.bit_generator.state == knl._rng.bit_generator.state


# ----------------------------------------------------------------------
# Shared binner cache
# ----------------------------------------------------------------------
class TestSharedBinners:
    def test_same_content_returns_same_object(self):
        X = np.random.default_rng(0).random((50, 4))
        assert BinnedDataset.shared(X) is BinnedDataset.shared(X.copy())

    def test_max_bins_is_part_of_the_key(self):
        X = np.random.default_rng(1).random((50, 4))
        assert BinnedDataset.shared(X, 16) is not BinnedDataset.shared(X, 32)

    def test_lru_eviction_is_bounded(self):
        rng = np.random.default_rng(2)
        matrices = [rng.random((20, 3)) for _ in range(12)]
        binners = [BinnedDataset.shared(m) for m in matrices]
        assert len(_shared_binners) == 8
        # Oldest entries were evicted: re-requesting builds a new binner.
        assert BinnedDataset.shared(matrices[0]) is not binners[0]
        # Newest is still cached.
        assert BinnedDataset.shared(matrices[-1]) is binners[-1]

    def test_large_matrices_bypass_the_cache(self):
        X = np.random.default_rng(3).random((500, 300))  # 1.2 MB > 1 MiB
        a = BinnedDataset.shared(X)
        b = BinnedDataset.shared(X)
        assert a is not b
        assert len(_shared_binners) == 0

    def test_refit_reuses_the_binner(self):
        rng = np.random.default_rng(4)
        X, y = rng.random((60, 5)), rng.normal(size=60)
        first = GradientBoostedTrees(n_trees=4, random_state=0).fit(X, y)
        second = GradientBoostedTrees(n_trees=4, random_state=0).fit(X, y)
        assert second._binner is first._binner

    def test_clear_empties_the_cache(self):
        BinnedDataset.shared(np.random.default_rng(5).random((30, 3)))
        assert len(_shared_binners) == 1
        clear_shared_binners()
        assert len(_shared_binners) == 0


# ----------------------------------------------------------------------
# Ensemble models across paths
# ----------------------------------------------------------------------
class TestEnsemblesBitwiseAcrossPaths:
    def _data(self, seed, n=90, d=6):
        rng = np.random.default_rng(seed)
        return rng.random((n, d)), rng.normal(size=n)

    @staticmethod
    def _both(fit, probe):
        """``fit()``'s predictions on ``probe``, reference then kernel."""
        with reference_fit():
            ref = fit().predict(probe).tobytes()
        return ref, fit().predict(probe).tobytes()

    def test_gbt_predictions_identical(self):
        X, y = self._data(20)
        probe = np.random.default_rng(21).random((40, 6))
        ref, knl = self._both(
            lambda: GradientBoostedTrees(n_trees=12, random_state=1).fit(X, y),
            probe,
        )
        assert ref == knl

    def test_random_forest_predictions_identical(self):
        X, y = self._data(22)
        probe = np.random.default_rng(23).random((40, 6))
        ref, knl = self._both(
            lambda: RandomForest(n_trees=10, random_state=2).fit(X, y), probe
        )
        assert ref == knl

    def test_hierarchical_model_predictions_identical(self):
        X, y = self._data(24, n=120)
        probe = np.random.default_rng(25).random((40, 6))
        ref, knl = self._both(
            lambda: HierarchicalModel(
                n_trees=10, target_accuracy=0.999, max_order=2, random_state=3,
            ).fit(X, y),
            probe,
        )
        assert ref == knl


# ----------------------------------------------------------------------
# Fit telemetry
# ----------------------------------------------------------------------
def _fit_events(run):
    """``run()``'s result and the fields of the ``model.fit`` events it
    recorded inside a telemetry session."""
    with telemetry.session() as tel:
        result = run()
    fits = [r["fields"] for r in tel.records if r.get("name") == "model.fit"]
    return result, fits


class TestFitTelemetry:
    def test_observe_fit_records_labeled_metrics(self):
        _, fits = _fit_events(
            lambda: observe_fit("gbt", 0.25, trees=30, nodes=330)
        )
        assert fits == [{"model": "gbt", "seconds": 0.25, "trees": 30,
                         "nodes": 330}]

    def test_gbt_fit_emits_metrics(self):
        rng = np.random.default_rng(30)
        model, fits = _fit_events(
            lambda: GradientBoostedTrees(n_trees=6, random_state=0).fit(
                rng.random((50, 4)), rng.normal(size=50)
            )
        )
        [fit] = fits
        assert fit["model"] == "gbt"
        assert fit["trees"] == model.n_trees_fitted
        assert fit["nodes"] == sum(len(t._nodes) for t in model._trees)

    def test_hm_fit_emits_metrics_with_hm_label(self):
        rng = np.random.default_rng(31)
        model, fits = _fit_events(
            lambda: HierarchicalModel(
                n_trees=6, target_accuracy=0.5, max_order=1, random_state=0
            ).fit(rng.random((60, 4)), rng.normal(size=60))
        )
        # One record per component, then the HM's own summing them.
        assert [f["model"] for f in fits] == ["gbt"] * model.order_ + ["hm"]
        hm = fits[-1]
        assert hm["trees"] == sum(f["trees"] for f in fits[:-1])
        assert hm["nodes"] == sum(f["nodes"] for f in fits[:-1])

    def test_fit_runs_cleanly_without_a_registry(self):
        """With telemetry off, fitting records nothing and still runs."""
        assert not telemetry.enabled()
        rng = np.random.default_rng(32)
        GradientBoostedTrees(n_trees=3, random_state=0).fit(
            rng.random((40, 3)), rng.normal(size=40)
        )
