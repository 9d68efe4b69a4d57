"""CART regression trees with histogram-binned split search.

The HM sub-models are regression trees (Section 3.2, citing Lewis'
CART [22]); the paper controls their size through *tree complexity*
``tc`` — "the number of nodes in a tree" that are split, i.e. the number
of internal nodes (a ``tc = 1`` tree is a stump, Figure 8a).  Trees grow
*best-first*: the leaf with the largest variance-reduction gain is split
next, so a budget of ``tc`` splits lands where it reduces error most.

Split search uses pre-binned features (:class:`BinnedDataset`): binning
is paid once per training set, after which each candidate split costs a
bincount rather than a sort — essential when boosting fits thousands of
trees (``nt`` up to 12 000 in Figure 8).  The per-node search itself
runs through :mod:`repro.models.histkernel` — all features histogrammed
in one flattened ``np.bincount``, both children of a committed split
scored in one histogram pass.  The original per-feature Python loop is
kept verbatim as :meth:`RegressionTree._fit_binned_reference`, the
oracle tests fit against; the kernel is bit-identical to it by
construction (see the histkernel module docstring and DESIGN.md §17).
"""

from __future__ import annotations

import heapq
import itertools
from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.models.histkernel import FrontierEvaluator

#: Default number of histogram bins per feature.
DEFAULT_BINS = 64


def bin_with_edges(X: np.ndarray, edges: Sequence[np.ndarray]) -> np.ndarray:
    """``searchsorted(edges[j], X[:, j], side="right")`` per column.

    The code for ``x`` is the count of edges ``e <= x``; NaN sorts last,
    so it bins with ``+inf`` into the top bin.  Prediction never bins;
    the node-walk oracles that prediction is tested against do.
    """
    X = np.asarray(X, dtype=float)
    n, n_features = X.shape
    if len(edges) != n_features:
        raise ValueError("edge list does not match feature count")
    codes = np.empty((n, n_features), dtype=np.int64)
    for j, e in enumerate(edges):
        codes[:, j] = e.searchsorted(X[:, j], side="right")
    return codes


#: Matrices above this size are never keyed by content — hashing them
#: would materialize/scan every byte per lookup, which defeats the
#: zero-copy path for mmap-backed inputs.
_CACHE_CONTENT_BYTES = 1 << 20


def _matrix_cache_key(X: np.ndarray):
    """A cheap, stable cache key for a candidate matrix, or ``None``.

    Memmap-backed matrices (store blobs are content-addressed and
    immutable, spill files are written once) are keyed by the identity
    of their mapping — (file, byte offset, shape, strides, dtype) —
    without touching a single data page.  Small ordinary matrices keep
    the exact content key.  Large ordinary matrices return ``None``
    (no memoization): ``tobytes()`` on them costs a full private copy
    per lookup, which is the bug this function exists to avoid.
    """
    base = X
    while isinstance(base, np.ndarray):
        if isinstance(base, np.memmap):
            filename = getattr(base, "filename", None)
            if filename:
                return (
                    "mmap",
                    str(filename),
                    X.__array_interface__["data"][0]
                    - base.__array_interface__["data"][0],
                    X.shape,
                    X.strides,
                    X.dtype.str,
                )
            break
        base = base.base
    if X.nbytes > _CACHE_CONTENT_BYTES:
        return None
    return ("bytes", np.ascontiguousarray(X).tobytes())


#: Bound on the process-wide shared-binner cache (entries).
_SHARED_BINNER_CACHE_SIZE = 8

#: (max_bins, shape, content key) -> BinnedDataset, LRU-ordered.
_shared_binners: "OrderedDict[tuple, BinnedDataset]" = OrderedDict()


def clear_shared_binners() -> None:
    """Drop the process-wide :meth:`BinnedDataset.shared` cache."""
    _shared_binners.clear()


class BinnedDataset:
    """Feature matrix pre-binned for fast split search.

    Bin edges are quantiles of each feature, so splits adapt to the
    feature's empirical distribution (encoded configurations are uniform
    in [0,1], but datasize and derived features need not be).  Only
    fitting uses the codes: a split stores the edge its bin stands for
    (:meth:`threshold`), and prediction compares raw values against it.
    """

    def __init__(self, X: np.ndarray, max_bins: int = DEFAULT_BINS):
        X = np.asarray(X, dtype=float)
        if X.ndim != 2:
            raise ValueError("X must be 2-dimensional")
        if not np.isfinite(X).all():
            # A split's threshold is one of these edges, and a NaN edge
            # would send every row right.
            raise ValueError("X must be finite")
        if not 2 <= max_bins <= 255:
            raise ValueError("max_bins must be in [2, 255]")
        self.n_samples, self.n_features = X.shape
        self.max_bins = max_bins
        self.edges: List[np.ndarray] = []
        codes = np.empty(X.shape, dtype=np.uint8)
        quantiles = np.linspace(0.0, 1.0, max_bins + 1)[1:-1]
        # Identical columns (encoded configuration matrices repeat
        # constant or mirrored features) share one quantile/searchsorted
        # computation instead of recomputing ``np.unique`` per copy.
        seen: Dict[bytes, int] = {}
        for j in range(self.n_features):
            column = np.ascontiguousarray(X[:, j])
            key = column.tobytes()
            dup = seen.get(key)
            if dup is not None:
                self.edges.append(self.edges[dup])
                codes[:, j] = codes[:, dup]
                continue
            seen[key] = j
            edges = np.unique(np.quantile(column, quantiles))
            self.edges.append(edges)
            codes[:, j] = np.searchsorted(edges, column, side="right")
        self.codes = codes
        self.n_bins = np.array([len(e) + 1 for e in self.edges], dtype=np.int64)

    @classmethod
    def shared(cls, X: np.ndarray, max_bins: int = DEFAULT_BINS) -> "BinnedDataset":
        """A process-cached binner for this exact matrix content.

        Quantile edges and codes depend only on ``(content, max_bins)``,
        yet every Hierarchical Model component, crash-resume refit, and
        ablation re-fit used to rebuild them from scratch.  This memo
        returns the existing binner when the same matrix comes around
        again.  The key includes the shape because the content key alone
        is shape-ambiguous; matrices too large to key cheaply
        (:func:`_matrix_cache_key` returns ``None``) are never cached.
        Binners are immutable after construction, so sharing one across
        models is safe.
        """
        X = np.asarray(X, dtype=float)
        if X.ndim != 2:
            return cls(X, max_bins)
        content = _matrix_cache_key(X)
        if content is None:
            return cls(X, max_bins)
        key = (max_bins, X.shape, content)
        cached = _shared_binners.get(key)
        if cached is not None:
            _shared_binners.move_to_end(key)
            return cached
        binner = cls(X, max_bins)
        while len(_shared_binners) >= _SHARED_BINNER_CACHE_SIZE:
            _shared_binners.popitem(last=False)
        _shared_binners[key] = binner
        return binner

    def bin_matrix(self, X: np.ndarray) -> np.ndarray:
        """Bin new samples with the training edges (for the node-walk
        oracles; prediction itself never bins)."""
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.n_features:
            raise ValueError(f"expected (n, {self.n_features}) matrix")
        return bin_with_edges(X, self.edges).astype(np.uint8)

    def threshold(self, feature: int, bin_index: int) -> float:
        """The edge a split at ``bin_index`` stands for: a row goes left
        (``code <= bin_index``) exactly when its value is below it.

        No split uses a feature's last bin (it would leave the right
        child empty), so the edge exists.
        """
        return float(self.edges[feature][bin_index])


@dataclass
class _Node:
    feature: int = -1
    bin_threshold: int = -1
    threshold: float = np.inf
    left: int = -1
    right: int = -1
    value: float = 0.0

    @property
    def is_leaf(self) -> bool:
        return self.feature < 0


class RegressionTree:
    """Best-first CART limited to ``tree_complexity`` internal splits.

    Parameters
    ----------
    tree_complexity:
        Number of split (internal) nodes — the paper's ``tc``.
    min_samples_leaf:
        Minimum samples on each side of a split.
    max_bins:
        Histogram resolution when the tree bins its own data; ignored
        when fitted through :meth:`fit_binned`.
    """

    def __init__(
        self,
        tree_complexity: int = 5,
        min_samples_leaf: int = 5,
        max_bins: int = DEFAULT_BINS,
        split_features: Optional[int] = None,
        random_state: int = 0,
    ):
        if tree_complexity < 1:
            raise ValueError("tree_complexity must be >= 1")
        if min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1")
        if split_features is not None and split_features < 1:
            raise ValueError("split_features must be >= 1")
        self.tree_complexity = tree_complexity
        self.min_samples_leaf = min_samples_leaf
        self.max_bins = max_bins
        #: Random-forest style mtry: candidate features drawn fresh at
        #: every split (None = consider all features at each split).
        self.split_features = split_features
        self.random_state = random_state
        self._nodes: List[_Node] = []
        self._binner: Optional[BinnedDataset] = None
        self._flat = None

    @cached_property
    def _rng(self) -> np.random.Generator:
        # Built on first use: only mtry trees draw, and a Generator is
        # costly next to a small tree's fit.
        return np.random.default_rng(self.random_state)

    # ------------------------------------------------------------------
    def fit(self, X: np.ndarray, y: np.ndarray) -> "RegressionTree":
        binner = BinnedDataset(np.asarray(X, dtype=float), self.max_bins)
        return self.fit_binned(binner, np.asarray(y, dtype=float))

    def fit_binned(
        self,
        binner: BinnedDataset,
        y: np.ndarray,
        sample_indices: Optional[np.ndarray] = None,
        feature_indices: Optional[np.ndarray] = None,
        flat_codes: Optional[np.ndarray] = None,
    ) -> "RegressionTree":
        """Fit on pre-binned data (the boosting/forest fast path).

        ``sample_indices`` selects a bootstrap sample; ``feature_indices``
        restricts candidate features (random-forest style).
        ``flat_codes`` is :func:`repro.models.histkernel.flat_codes` of
        ``binner``, passed by callers that fit many full-feature trees
        on one binner so it is built once per fit, not once per tree.
        """
        y = np.asarray(y, dtype=float)
        if len(y) != binner.n_samples:
            raise ValueError("y length must match the binned dataset")
        if len(y) == 0:
            raise ValueError("cannot fit on an empty dataset")
        self._binner = binner
        self._flat = None
        idx = (
            np.arange(binner.n_samples)
            if sample_indices is None
            else np.asarray(sample_indices)
        )
        if feature_indices is None:
            features = np.arange(binner.n_features)
        else:
            features = np.asarray(feature_indices)
            flat_codes = None
        return self._fit_binned_kernel(binner, y, idx, features, flat_codes)

    def _fit_binned_kernel(
        self,
        binner: BinnedDataset,
        y: np.ndarray,
        idx: np.ndarray,
        features: np.ndarray,
        flat_codes: Optional[np.ndarray],
    ) -> "RegressionTree":
        """Best-first growth over the histogram kernel.

        Structurally the reference loop with two changes: a committed
        split's two children are valued and scored in a single
        :meth:`FrontierEvaluator.evaluate` pass (same heap, same
        tie-break counter, same left-then-right RNG order), and the
        children of the ``tree_complexity``-th split are only valued,
        since no later pop could use their splits.
        """
        evaluator = FrontierEvaluator(
            binner,
            y,
            self.min_samples_leaf,
            self._rng if self.split_features is not None else None,
            self.split_features,
            features,
            flat_codes,
        )
        ((value, first),) = evaluator.evaluate(idx)
        self._nodes = [_Node(value=value)]
        # Best-first frontier: (-gain, tiebreak, node_id, split_info)
        frontier: list = []
        counter = itertools.count()
        if first is not None:
            heapq.heappush(frontier, (-first[0], next(counter), 0, first))

        splits_done = 0
        while frontier and splits_done < self.tree_complexity:
            _, _, node_id, split = heapq.heappop(frontier)
            _, feature, bin_threshold, left_idx, right_idx = split
            node = self._nodes[node_id]
            node.feature = feature
            node.bin_threshold = bin_threshold
            node.threshold = binner.threshold(feature, bin_threshold)
            node.left = len(self._nodes)
            node.right = node.left + 1
            splits_done += 1
            children = evaluator.evaluate(
                left_idx, right_idx, search=splits_done < self.tree_complexity
            )
            for child_id, (child_value, child_split) in enumerate(
                children, start=node.left
            ):
                self._nodes.append(_Node(value=child_value))
                if child_split is not None:
                    heapq.heappush(
                        frontier,
                        (-child_split[0], next(counter), child_id, child_split),
                    )
        return self

    def _fit_binned_reference(
        self,
        binner: BinnedDataset,
        y: np.ndarray,
        idx: np.ndarray,
        features: np.ndarray,
        flat_codes: Optional[np.ndarray],
    ) -> "RegressionTree":
        """The original one-node-at-a-time growth loop, kept verbatim.

        A test oracle with the kernel's signature (``flat_codes`` is
        ignored): equivalence tests patch it over
        :meth:`_fit_binned_kernel`, fit the same data both ways and
        require byte-identical node tables.
        """
        self._nodes = [_Node(value=float(np.mean(y[idx])))]
        # Best-first frontier: (-gain, tiebreak, node_id, idx, split_info)
        frontier: list = []
        counter = itertools.count()
        first = self._best_split_reference(binner, y, idx, features)
        if first is not None:
            heapq.heappush(frontier, (-first[0], next(counter), 0, idx, first))

        splits_done = 0
        while frontier and splits_done < self.tree_complexity:
            neg_gain, _, node_id, node_idx, split = heapq.heappop(frontier)
            gain, feature, bin_threshold, left_idx, right_idx = split
            node = self._nodes[node_id]
            node.feature = int(feature)
            node.bin_threshold = int(bin_threshold)
            node.threshold = binner.threshold(int(feature), int(bin_threshold))
            node.left = len(self._nodes)
            self._nodes.append(_Node(value=float(np.mean(y[left_idx]))))
            node.right = len(self._nodes)
            self._nodes.append(_Node(value=float(np.mean(y[right_idx]))))
            splits_done += 1

            for child_id, child_idx in ((node.left, left_idx), (node.right, right_idx)):
                child_split = self._best_split_reference(binner, y, child_idx, features)
                if child_split is not None:
                    heapq.heappush(
                        frontier,
                        (-child_split[0], next(counter), child_id, child_idx, child_split),
                    )
        return self

    # ------------------------------------------------------------------
    def _best_split_reference(
        self,
        binner: BinnedDataset,
        y: np.ndarray,
        idx: np.ndarray,
        features: np.ndarray,
    ):
        """Best (gain, feature, bin, left_idx, right_idx) or None.

        Gain is the decrease in sum of squared errors from splitting,
        computed from cumulative histogram sums.  This per-feature
        Python loop is the semantic reference the histogram kernel must
        match bit-for-bit.
        """
        n = len(idx)
        if n < 2 * self.min_samples_leaf:
            return None
        if self.split_features is not None and self.split_features < len(features):
            features = self._rng.choice(
                features, size=self.split_features, replace=False
            )
        y_node = y[idx]
        total_sum = y_node.sum()
        best_gain = 1e-12
        best = None
        codes = binner.codes[idx]
        for feature in features:
            nb = int(binner.n_bins[feature])
            if nb < 2:
                continue
            col = codes[:, feature]
            counts = np.bincount(col, minlength=nb).astype(float)
            sums = np.bincount(col, weights=y_node, minlength=nb)
            left_counts = np.cumsum(counts)[:-1]
            left_sums = np.cumsum(sums)[:-1]
            right_counts = n - left_counts
            right_sums = total_sum - left_sums
            valid = (left_counts >= self.min_samples_leaf) & (
                right_counts >= self.min_samples_leaf
            )
            if not valid.any():
                continue
            with np.errstate(divide="ignore", invalid="ignore"):
                gain = (
                    left_sums**2 / left_counts
                    + right_sums**2 / right_counts
                    - total_sum**2 / n
                )
            gain = np.where(valid, gain, -np.inf)
            j = int(np.argmax(gain))
            if gain[j] > best_gain:
                best_gain = float(gain[j])
                mask = col <= j
                best = (best_gain, int(feature), j, idx[mask], idx[~mask])
        return best

    # ------------------------------------------------------------------
    def predict(self, X: np.ndarray) -> np.ndarray:
        """Leaf values for raw rows, through the flat node table.

        Bit-for-bit equal to :meth:`predict_binned_walk` on the binned
        rows: each split compares against the edge its bin stands for.
        """
        return self.flatten().predict(X)

    def flatten(self):
        """This tree as a cached :class:`repro.models.flat.FlatTree`."""
        if not self._nodes:
            raise RuntimeError("tree is not fitted")
        if self._flat is None:
            from repro.models.flat import FlatTree

            self._flat = FlatTree.from_nodes(self._nodes)
        return self._flat

    def predict_binned_walk(self, codes: np.ndarray) -> np.ndarray:
        """Reference node-walk prediction (kept for equivalence tests)."""
        if not self._nodes:
            raise RuntimeError("tree is not fitted")
        n = len(codes)
        out = np.empty(n, dtype=float)
        node_ids = np.zeros(n, dtype=np.int64)
        active = np.arange(n)
        while len(active):
            still = []
            for node_id in np.unique(node_ids[active]):
                node = self._nodes[node_id]
                members = active[node_ids[active] == node_id]
                if node.is_leaf:
                    out[members] = node.value
                    continue
                go_left = codes[members, node.feature] <= node.bin_threshold
                node_ids[members[go_left]] = node.left
                node_ids[members[~go_left]] = node.right
                still.append(members)
            active = np.concatenate(still) if still else np.empty(0, dtype=np.int64)
        return out

    @property
    def n_internal_nodes(self) -> int:
        return sum(1 for node in self._nodes if not node.is_leaf)

    @property
    def n_leaves(self) -> int:
        return sum(1 for node in self._nodes if node.is_leaf)
