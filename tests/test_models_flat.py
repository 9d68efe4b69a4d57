"""Flat-array inference: bitwise equivalence, binning, memoization, drain.

The load-bearing property of :mod:`repro.models.flat` is that the fast
path, which walks raw feature values against each split's edge, is
*bit-for-bit* equal to the node-walk reference on the binned codes —
every fingerprint-equality guarantee of the store/service layers rides
on it — so these tests compare with ``tobytes()``, never ``allclose``.
"""

from __future__ import annotations

import pickle

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ga import MemoizedFitness
from repro.models.boosting import GradientBoostedTrees
from repro.models.flat import FlatForest, accumulate
from repro.models.forest import RandomForest
from repro.models.hierarchical import HierarchicalModel
from repro.models.tree import BinnedDataset, RegressionTree, bin_with_edges


def _walk_gbt(model: GradientBoostedTrees, X: np.ndarray) -> np.ndarray:
    """The reference ensemble loop, reconstructed from node walks."""
    codes = model._binner.bin_matrix(np.asarray(X, dtype=float))
    out = np.full(len(codes), model._base)
    for tree in model._trees:
        out += model.learning_rate * tree.predict_binned_walk(codes)
    return out


# ----------------------------------------------------------------------
# Vectorized binning
# ----------------------------------------------------------------------
class TestBinWithEdges:
    def test_matches_searchsorted_on_specials(self):
        """A code counts the edges ``<= x``: NaN and +inf take the top
        bin, -inf and anything below the first edge bin 0, and a value
        exactly on edge ``k`` bins ``k + 1``."""
        edges = [
            np.array([0.25, 0.5, 0.75]),
            np.array([-1.0, 0.0, 1.0, 2.0]),
            np.array([3.0]),
            np.array([]),  # a constant training column has no edges
        ]
        Q = np.array(
            [
                [np.nan, np.inf, -np.inf, np.nan],
                [0.5, 0.0, 3.0, 1.0],  # on edges 1, 1, 0
                [0.75, 2.0, np.inf, np.inf],  # on each last edge
                # just below each first edge
                [*np.nextafter([0.25, -1.0, 3.0], -np.inf), -np.inf],
                [0.6, 0.5, 2.9, 0.0],
            ]
        )
        expected = [
            [3, 4, 0, 0],
            [2, 2, 1, 0],
            [3, 4, 1, 0],
            [0, 0, 0, 0],
            [2, 2, 0, 0],
        ]
        codes = bin_with_edges(Q, edges)
        assert codes.tolist() == expected
        # The raw rule: ``code > k`` exactly when ``not (x < edges[k])``.
        for j, e in enumerate(edges):
            for k, edge in enumerate(e):
                assert np.array_equal(~(Q[:, j] < edge), codes[:, j] > k)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_matches_searchsorted_randomized(self, seed):
        rng = np.random.default_rng(seed)
        X = rng.random((80, 3))
        binner = BinnedDataset(X, max_bins=rng.integers(2, 64))
        # Mix fresh draws with training values (frequent exact-edge hits).
        Q = np.vstack([rng.random((20, 3)), X[rng.integers(0, 80, 20)]])
        reference = np.empty(Q.shape, dtype=np.int64)
        for j in range(3):
            reference[:, j] = np.searchsorted(binner.edges[j], Q[:, j], side="right")
        assert np.array_equal(bin_with_edges(Q, binner.edges), reference)


# ----------------------------------------------------------------------
# Flat == node walk, bitwise
# ----------------------------------------------------------------------
class TestFlatTree:
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        tc=st.sampled_from([1, 2, 5, 37, 200]),
    )
    @settings(max_examples=40, deadline=None)
    def test_flat_equals_walk_bitwise(self, seed, tc):
        rng = np.random.default_rng(seed)
        X = rng.random((250, 5))
        y = rng.normal(size=250)
        tree = RegressionTree(tree_complexity=tc, min_samples_leaf=1).fit(X, y)
        Q = rng.random((70, 5))
        flat = tree.predict(Q)
        walk = tree.predict_binned_walk(tree._binner.bin_matrix(Q))
        assert flat.tobytes() == walk.tobytes()

    def test_single_leaf_stump(self):
        # min_samples_leaf too large to split: the tree is one leaf.
        X = np.random.default_rng(6).random((20, 3))
        y = np.arange(20.0)
        tree = RegressionTree(tree_complexity=1, min_samples_leaf=50).fit(X, y)
        assert tree.n_internal_nodes == 0
        codes = tree._binner.bin_matrix(X)
        assert tree.predict(X).tobytes() == \
            tree.predict_binned_walk(codes).tobytes()

    def test_over_255_nodes(self):
        rng = np.random.default_rng(7)
        X = rng.random((2000, 6))
        y = rng.normal(size=2000)
        tree = RegressionTree(tree_complexity=400, min_samples_leaf=1).fit(X, y)
        assert len(tree._nodes) > 255
        Q = rng.random((100, 6))
        assert tree.predict(Q).tobytes() == \
            tree.predict_binned_walk(tree._binner.bin_matrix(Q)).tobytes()

    def test_flatten_cached_and_invalidated_by_refit(self):
        rng = np.random.default_rng(8)
        X, y = rng.random((60, 3)), rng.random(60)
        tree = RegressionTree(tree_complexity=3).fit(X, y)
        first = tree.flatten()
        assert tree.flatten() is first
        tree.fit(X, -y)
        assert tree.flatten() is not first

    def test_flat_tree_pickle_round_trip(self):
        rng = np.random.default_rng(9)
        tree = RegressionTree(tree_complexity=5).fit(
            rng.random((80, 4)), rng.random(80)
        )
        flat = tree.flatten()
        clone = pickle.loads(pickle.dumps(flat))
        Q = rng.random((20, 4))
        assert clone.predict(Q).tobytes() == flat.predict(Q).tobytes()


class TestFlatForest:
    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_gbt_flat_equals_walk_bitwise(self, seed):
        rng = np.random.default_rng(seed)
        X = rng.random((150, 4))
        y = rng.normal(size=150)
        model = GradientBoostedTrees(
            n_trees=30, random_state=seed, patience=10 if seed % 2 else 200
        ).fit(X, y)
        Q = rng.random((60, 4))
        assert model.predict(Q).tobytes() == _walk_gbt(model, Q).tobytes()
        assert model.predict(Q).tobytes() == model.predict_walk(Q).tobytes()

    def test_stacked_table_matches_per_tree(self):
        rng = np.random.default_rng(10)
        X, y = rng.random((120, 3)), rng.random(120)
        model = GradientBoostedTrees(n_trees=12, random_state=1).fit(X, y)
        forest = model.flatten()
        assert forest.n_trees == model.n_trees_fitted
        Q = rng.random((25, 3))
        codes = model._binner.bin_matrix(Q)
        leaves = forest.leaf_values(Q)
        for t, tree in enumerate(model._trees):
            assert leaves[t].tobytes() == tree.predict_binned_walk(codes).tobytes()

    def test_prefix_traversal(self):
        rng = np.random.default_rng(11)
        X, y = rng.random((120, 3)), rng.random(120)
        model = GradientBoostedTrees(n_trees=9, random_state=2).fit(X, y)
        Q = rng.random((10, 3))
        full = model.flatten().leaf_values(Q)
        partial = model.flatten().leaf_values(Q, n_trees=4)
        assert partial.shape == (4, 10)
        assert partial.tobytes() == full[:4].tobytes()

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        complexities=st.lists(
            st.sampled_from([0, 1, 2, 5, 37]), min_size=1, max_size=8
        ),
    )
    @settings(max_examples=30, deadline=None)
    def test_uneven_forest_equals_per_tree_walk(self, seed, complexities):
        """Trees of uneven depth, root leaves (depth 0) included, in one
        table: walking the deepest tree's depth lands every row on its
        own tree's leaf, for the whole forest and every prefix."""
        rng = np.random.default_rng(seed)
        binner = BinnedDataset(rng.random((120, 4)))
        trees = []
        for tc in complexities:
            # tc 0: a min_samples_leaf above n / 2 keeps the root a leaf.
            tree = RegressionTree(
                tree_complexity=max(tc, 1), min_samples_leaf=61 if tc == 0 else 1
            )
            trees.append(tree.fit_binned(binner, rng.normal(size=120)))
        forest = FlatForest.from_trees(trees)
        assert forest.depth == max(tree.flatten().depth for tree in trees)
        assert (forest.depth == 0) == (set(complexities) == {0})
        Q = rng.random((30, 4))
        codes = binner.bin_matrix(Q)
        walks = np.array([tree.predict_binned_walk(codes) for tree in trees])
        assert forest.leaf_values(Q).tobytes() == walks.tobytes()
        for n_trees in range(1, len(trees) + 1):
            prefix = forest.leaf_values(Q, n_trees=n_trees)
            assert prefix.tobytes() == walks[:n_trees].tobytes()

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n_trees=st.integers(min_value=0, max_value=40),
        scale=st.sampled_from([1.0, 0.1, 0.05]),
    )
    @settings(max_examples=40, deadline=None)
    def test_accumulate_replays_the_tree_loop(self, seed, n_trees, scale):
        """The cumsum equals the reference loop's ``out += scale * row``
        sum bit for bit, on values spread over 30 decades where any
        reassociation would show."""
        rng = np.random.default_rng(seed)
        leaves = rng.normal(size=(n_trees, 25)) * 10.0 ** rng.integers(
            -15, 15, size=(n_trees, 25)
        )
        base = float(rng.normal())
        out = np.full(25, base)
        for row in leaves:
            out += scale * row
        assert accumulate(base, scale, leaves).tobytes() == out.tobytes()

    def test_random_forest_flat_equals_walk(self):
        rng = np.random.default_rng(12)
        X, y = rng.random((150, 4)), rng.random(150)
        model = RandomForest(n_trees=20, random_state=3).fit(X, y)
        Q = rng.random((40, 4))
        codes = model._binner.bin_matrix(Q)
        total = np.zeros(len(codes))
        for tree in model._trees:
            total += tree.predict_binned_walk(codes)
        assert model.predict(Q).tobytes() == (total / len(model._trees)).tobytes()

    def test_gbt_pickle_round_trip_keeps_fast_path(self):
        rng = np.random.default_rng(13)
        model = GradientBoostedTrees(n_trees=10, random_state=4).fit(
            rng.random((100, 3)), rng.random(100)
        )
        Q = rng.random((15, 3))
        expected = model.predict(Q)
        clone = pickle.loads(pickle.dumps(model))
        assert clone.predict(Q).tobytes() == expected.tobytes()
        assert isinstance(clone.flatten(), FlatForest)


# ----------------------------------------------------------------------
# Raw thresholds == binned codes, on every adversarial input
# ----------------------------------------------------------------------
def _training_matrix(rng, n):
    """Random, constant, duplicated and few-valued columns (ties on edges)."""
    base = rng.random(n)
    return np.column_stack(
        [
            base,
            np.full(n, 0.5),  # constant: no edges, never split on
            base,  # duplicate: shares column 0's edges
            rng.integers(0, 4, n) / 4.0,
            rng.normal(size=n),
        ]
    )


def _adversarial_rows(rng, X, edges):
    """Random rows plus every special value: NaN, ±inf, each bin edge of
    each feature, and the float just below each first edge."""
    n_features = X.shape[1]
    longest = max(max((len(e) for e in edges), default=0), 1)
    on_edges = np.array(X[rng.integers(0, len(X), longest)])
    for j, e in enumerate(edges):
        if len(e):
            on_edges[:, j] = np.resize(e, longest)
    below = [np.nextafter(e[0], -np.inf) if len(e) else 0.0 for e in edges]
    specials = np.array(
        [np.full(n_features, np.nan), np.full(n_features, np.inf),
         np.full(n_features, -np.inf), below]
    )
    mixed = specials[rng.integers(0, 4, (20, n_features)), np.arange(n_features)]
    return np.vstack([rng.random((20, n_features)), on_edges, specials, mixed])


def _assert_splits_on_real_edges(trees):
    """No split uses a feature's last bin, so every threshold is an edge."""
    for tree in trees:
        for node in tree._nodes:
            if not node.is_leaf:
                edges = tree._binner.edges[node.feature]
                assert node.bin_threshold < len(edges)
                assert node.threshold == edges[node.bin_threshold]


class TestRawThresholds:
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        tc=st.integers(min_value=1, max_value=8),
        min_samples_leaf=st.integers(min_value=1, max_value=6),
        max_bins=st.integers(min_value=2, max_value=32),
    )
    @settings(max_examples=60, deadline=None)
    def test_tree_raw_walk_equals_binned_walk(
        self, seed, tc, min_samples_leaf, max_bins
    ):
        rng = np.random.default_rng(seed)
        X = _training_matrix(rng, 90)
        tree = RegressionTree(
            tree_complexity=tc, min_samples_leaf=min_samples_leaf,
            max_bins=max_bins,
        ).fit(X, rng.normal(size=90))
        _assert_splits_on_real_edges([tree])
        Q = _adversarial_rows(rng, X, tree._binner.edges)
        walk = tree.predict_binned_walk(tree._binner.bin_matrix(Q))
        assert tree.flatten().predict(Q).tobytes() == walk.tobytes()

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n_trees=st.integers(min_value=1, max_value=6),
        max_splits=st.integers(min_value=1, max_value=24),
        max_features=st.integers(min_value=1, max_value=5),
    )
    @settings(max_examples=30, deadline=None)
    def test_mtry_forest_raw_walk_equals_binned_walk(
        self, seed, n_trees, max_splits, max_features
    ):
        rng = np.random.default_rng(seed)
        X = _training_matrix(rng, 90)
        forest = RandomForest(
            n_trees=n_trees, max_splits=max_splits, max_features=max_features,
            min_samples_leaf=1, random_state=seed,
        ).fit(X, rng.normal(size=90))
        _assert_splits_on_real_edges(forest._trees)
        Q = _adversarial_rows(rng, X, forest._binner.edges)
        codes = forest._binner.bin_matrix(Q)
        walks = np.array([tree.predict_binned_walk(codes) for tree in forest._trees])
        leaves = FlatForest.from_trees(forest._trees).leaf_values(Q)
        assert leaves.tobytes() == walks.tobytes()


# ----------------------------------------------------------------------
# Hierarchical model: the blend of its components' raw predictions
# ----------------------------------------------------------------------
class TestHierarchicalPredict:
    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=15, deadline=None)
    def test_hm_flat_equals_per_component_walk(self, seed):
        rng = np.random.default_rng(seed)
        X = rng.random((140, 4))
        y = rng.normal(size=140)
        model = HierarchicalModel(
            n_trees=15, target_accuracy=0.99, max_order=3, random_state=seed
        ).fit(X, y)
        Q = rng.random((50, 4))
        reference = model._blend([_walk_gbt(c, Q) for c in model._components])
        assert model.predict(Q).tobytes() == reference.tobytes()

    def test_hm_pickle_round_trip(self):
        rng = np.random.default_rng(21)
        model = HierarchicalModel(
            n_trees=10, target_accuracy=0.99, max_order=2, random_state=6
        ).fit(rng.random((100, 3)), rng.random(100))
        Q = rng.random((20, 3))
        expected = model.predict(Q)
        clone = pickle.loads(pickle.dumps(model))
        assert clone.predict(Q).tobytes() == expected.tobytes()


# ----------------------------------------------------------------------
# Parallel component fitting
# ----------------------------------------------------------------------
class TestParallelFit:
    def test_map_tasks_serial_default(self):
        from repro.engine import InProcessBackend

        engine = InProcessBackend()
        assert not engine.supports_parallel_tasks
        assert engine.map_tasks(abs, [-1, -2, 3]) == [1, 2, 3]

    def test_parallel_fit_matches_sequential_bitwise(self):
        from repro.engine import ProcessPoolBackend

        rng = np.random.default_rng(23)
        X = rng.random((120, 3))
        y = rng.normal(size=120)
        kwargs = dict(
            n_trees=10, target_accuracy=0.999, max_order=3, random_state=7
        )
        sequential = HierarchicalModel(**kwargs).fit(X, y)
        with ProcessPoolBackend(jobs=2) as engine:
            assert engine.supports_parallel_tasks
            parallel = HierarchicalModel(**kwargs).fit(X, y, engine=engine)
        assert parallel.n_components == sequential.n_components
        assert parallel._weights.tobytes() == sequential._weights.tobytes()
        Q = rng.random((30, 3))
        assert parallel.predict(Q).tobytes() == sequential.predict(Q).tobytes()
        assert parallel.holdout_error_ == sequential.holdout_error_

    def test_serial_engine_keeps_lazy_early_stop(self):
        """On a serial backend the speculative path must not engage —
        an easily-satisfied target fits exactly one component."""
        from repro.engine import InProcessBackend

        rng = np.random.default_rng(24)
        X = rng.random((120, 3))
        y = 3.0 * X[:, 0]  # trivially learnable
        model = HierarchicalModel(
            n_trees=60, target_accuracy=0.5, max_order=3, random_state=8
        ).fit(X, y, engine=InProcessBackend())
        assert model.n_components == 1


# ----------------------------------------------------------------------
# Fitness memoization
# ----------------------------------------------------------------------
class TestMemoizedFitness:
    def test_exact_values_and_hit_accounting(self):
        calls = []

        def fitness(pop):
            calls.append(len(pop))
            return np.asarray(pop).sum(axis=1)

        memo = MemoizedFitness(fitness)
        rng = np.random.default_rng(25)
        pop = rng.random((10, 4))
        first = memo(pop)
        assert first.tobytes() == pop.sum(axis=1).tobytes()
        assert memo.misses == 10 and memo.hits == 0

        # Half elites (repeat rows), half fresh.
        fresh = rng.random((5, 4))
        mixed = np.vstack([pop[:5], fresh])
        second = memo(mixed)
        assert memo.hits == 5 and memo.misses == 15
        assert calls == [10, 5]  # only the unseen rows hit the model
        assert second[:5].tobytes() == first[:5].tobytes()
        assert second[5:].tobytes() == fresh.sum(axis=1).tobytes()

    def test_cache_is_bounded(self):
        memo = MemoizedFitness(lambda pop: np.zeros(len(pop)), max_entries=8)
        rng = np.random.default_rng(26)
        memo(rng.random((50, 3)))
        assert len(memo._cache) <= 8

    def test_ga_result_identical_with_and_without_memo(self):
        from repro.common.rng import derive_rng
        from repro.core.ga import GeneticAlgorithm
        from repro.sparksim.confspace import spark_configuration_space

        space = spark_configuration_space()

        def fitness(pop):
            return np.asarray(pop).sum(axis=1)

        ga = GeneticAlgorithm(space, population_size=12)
        bare = ga.minimize(
            fitness, derive_rng("memo-test"), generations=6, patience=None
        )
        memo = MemoizedFitness(fitness)
        memoized = ga.minimize(
            memo, derive_rng("memo-test"), generations=6, patience=None
        )
        assert memoized.history == bare.history
        assert memoized.best_fitness == bare.best_fitness
        assert memo.hits > 0  # elites were served from the cache
