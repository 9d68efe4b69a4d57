"""Flat-array model inference: the GA's fast path.

DAC's whole economics rest on a model query costing milliseconds while
a real run costs minutes (Section 5.5).  The reference prediction path
walks tree nodes in Python — fine for one tree, hopeless for ``nt`` up
to 12 000 of them (Figure 8) times a 60-row GA population per
generation.  This module lowers fitted trees into structure-of-arrays
node tables so a batch prediction is a handful of vectorized gathers:

* :class:`FlatTree` — one tree as parallel arrays (feature, bin
  threshold, children, leaf value).  Every leaf loops to itself, so
  prediction advances every sample one level per iteration for exactly
  ``depth`` iterations with no per-level bookkeeping: the Python-level
  loop runs ``depth`` times, never ``nodes × samples`` times.
* :class:`FlatForest` — a whole ensemble stacked into one node table
  with per-tree root offsets; one traversal moves *all samples × all
  trees* a level at a time, for the forest's deepest tree.
* :class:`MergedBinner` — the union of several
  :class:`~repro.models.tree.BinnedDataset` edge sets with exact
  per-component translation tables, so
  :class:`~repro.models.hierarchical.HierarchicalModel` bins an input
  matrix **once** and re-derives every component's codes with one
  gather instead of re-running ``searchsorted`` per component.

Every function here is **bit-for-bit** equal to the node-walk
reference (``RegressionTree.predict_binned_walk``): the same leaf is
reached through the same ``code <= bin_threshold`` comparisons (a row
that reaches its leaf early stays there), leaf values are gathered
unchanged, and ensemble accumulation replays the reference's
left-to-right float additions (:func:`accumulate`).  That
exactness is what lets checkpointed jobs from the node-walk era resume
on this path with identical report fingerprints
(:func:`repro.store.report_fingerprint`), proven by
``tests/test_models_flat.py``.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

__all__ = [
    "FlatForest",
    "FlatTree",
    "MergedBinner",
    "accumulate",
]


def accumulate(base: float, scale: float, leaf_values: np.ndarray) -> np.ndarray:
    """Sum per-tree predictions exactly as the node-walk loop does.

    The reference ensemble loop computes ``out += scale * tree_pred``
    one tree at a time; float addition is not associative, so matching
    it bit-for-bit requires replaying the same left-to-right order.
    ``np.cumsum`` (``add.accumulate``) is sequential along its axis, so
    one cumsum down ``[base; scale * leaf_values]`` ends on exactly the
    loop's sum.
    """
    leaf_values = np.asarray(leaf_values, dtype=float)
    rows = np.empty((len(leaf_values) + 1, leaf_values.shape[1]))
    rows[0] = base
    np.multiply(scale, leaf_values, out=rows[1:])
    return np.cumsum(rows, axis=0)[-1].copy()


#: Threshold of a lowered leaf: above every bin code, so a leaf's
#: comparison sends its rows "left" — to the leaf itself.
LEAF_THRESHOLD = np.iinfo(np.int32).max


def _descend(feature, threshold, children, pos, codes, depth):
    """Advance every position ``depth`` levels through a node table.

    A leaf's children are the leaf, so rows that reach their leaf early
    stay there with no active-row mask.  A leaf's feature ``-1`` reads
    the code one position before its row's first (``take`` wraps ``-1``
    for row 0), a valid index whose value no longer matters.  Codes are
    gathered from the raveled matrix by linear index, and every table
    lookup is a 1-D ``take``.
    """
    codes = np.asarray(codes)
    flat = codes.ravel()
    row_start = np.arange(len(codes)) * codes.shape[1]
    for _ in range(depth):
        code = flat.take(row_start + feature.take(pos))
        pos = children.take(2 * pos + (code > threshold.take(pos)))
    return pos


class FlatTree:
    """One regression tree as parallel node arrays.

    ``feature[i] < 0`` marks node ``i`` a leaf whose prediction is
    ``value[i]``; otherwise samples with
    ``codes[:, feature[i]] <= threshold[i]`` descend to the left child,
    the rest to the right.  ``children`` interleaves (left, right) so
    the traversal picks a child with a single flat gather; a leaf's
    children are itself, with a threshold above every code, so walking
    ``depth`` levels lands every row on its leaf.
    """

    __slots__ = ("feature", "threshold", "children", "value", "depth")

    def __init__(
        self,
        feature: np.ndarray,
        threshold: np.ndarray,
        children: np.ndarray,
        value: np.ndarray,
        depth: int,
    ):
        self.feature = feature
        self.threshold = threshold
        self.children = children
        self.value = value
        self.depth = depth

    @classmethod
    def from_nodes(cls, nodes: Sequence[object]) -> "FlatTree":
        """Lower a fitted tree's ``_Node`` list into self-looping arrays.

        Children always follow their parent in the list, so one forward
        pass also finds every node's depth.
        """
        n = len(nodes)
        feature = np.empty(n, dtype=np.int32)
        threshold = np.empty(n, dtype=np.int32)
        children = np.empty(2 * n, dtype=np.int32)
        value = np.empty(n, dtype=np.float64)
        depths = [0] * n
        for i, node in enumerate(nodes):
            value[i] = node.value
            if node.feature < 0:
                feature[i] = -1
                threshold[i] = LEAF_THRESHOLD
                children[2 * i] = children[2 * i + 1] = i
            else:
                feature[i] = node.feature
                threshold[i] = node.bin_threshold
                children[2 * i] = node.left
                children[2 * i + 1] = node.right
                depths[node.left] = depths[node.right] = depths[i] + 1
        return cls(feature, threshold, children, value, max(depths))

    @property
    def n_nodes(self) -> int:
        return len(self.feature)

    def predict(self, codes: np.ndarray) -> np.ndarray:
        """Leaf values for pre-binned ``codes`` (n_samples, n_features)."""
        start = np.zeros(len(codes), dtype=np.int32)
        pos = _descend(
            self.feature, self.threshold, self.children, start, codes, self.depth
        )
        return self.value.take(pos)

    def __getstate__(self):
        return (self.feature, self.threshold, self.children, self.value, self.depth)

    def __setstate__(self, state):
        self.__init__(*state)


class FlatForest:
    """Many trees stacked into one node table.

    Per-tree node arrays are concatenated with child indices rebased to
    the global table; ``roots`` holds each tree's root offset and
    ``depth`` the deepest tree's depth.  One traversal then advances an
    (n_trees, n_samples) position matrix ``depth`` levels — the Python
    loop runs ``depth`` times no matter how many trees or samples are in
    flight, and shallower trees idle on their self-looping leaves.
    """

    __slots__ = ("feature", "threshold", "children", "value", "roots", "depth")

    def __init__(
        self,
        feature: np.ndarray,
        threshold: np.ndarray,
        children: np.ndarray,
        value: np.ndarray,
        roots: np.ndarray,
        depth: int,
    ):
        self.feature = feature
        self.threshold = threshold
        self.children = children
        self.value = value
        self.roots = roots
        self.depth = depth

    @classmethod
    def from_trees(cls, trees: Sequence[object]) -> "FlatForest":
        """Stack fitted :class:`~repro.models.tree.RegressionTree` s."""
        flats: List[FlatTree] = [tree.flatten() for tree in trees]
        sizes = np.array([flat.n_nodes for flat in flats], dtype=np.int64)
        offsets = np.concatenate([[0], np.cumsum(sizes)[:-1]]).astype(np.int32)
        feature = np.concatenate([flat.feature for flat in flats])
        threshold = np.concatenate([flat.threshold for flat in flats])
        value = np.concatenate([flat.value for flat in flats])
        children = np.concatenate(
            [flat.children + offset for flat, offset in zip(flats, offsets)]
        ).astype(np.int32)
        depth = max(flat.depth for flat in flats)
        return cls(feature, threshold, children, value, offsets, depth)

    @property
    def n_trees(self) -> int:
        return len(self.roots)

    @property
    def n_nodes(self) -> int:
        return len(self.feature)

    def leaf_values(self, codes: np.ndarray, n_trees: Optional[int] = None) -> np.ndarray:
        """(n_trees, n_samples) leaf values for pre-binned ``codes``.

        ``n_trees`` restricts the traversal to the first trees — the
        boosting convergence curve re-predicts prefixes this way.
        """
        roots = self.roots if n_trees is None else self.roots[:n_trees]
        start = np.repeat(np.asarray(roots, dtype=np.int32)[:, None], len(codes), 1)
        pos = _descend(
            self.feature, self.threshold, self.children, start, codes, self.depth
        )
        return self.value.take(pos)

    def to_sections(self, prefix: str = "") -> dict:
        """The node table as named arrays for the columnar blob format.

        These are exactly the arrays :meth:`leaf_values` gathers from,
        so a forest restored by :meth:`from_sections` — including one
        whose sections are read-only ``np.memmap`` views — traverses
        the identical table and produces bit-identical leaf values.
        The table's ``depth`` is a scalar and travels in the caller's
        JSON meta.
        """
        return {
            prefix + "feature": self.feature,
            prefix + "threshold": self.threshold,
            prefix + "children": self.children,
            prefix + "value": self.value,
            prefix + "roots": self.roots,
        }

    @classmethod
    def from_sections(cls, sections, depth: int, prefix: str = "") -> "FlatForest":
        """Rebuild from stored sections (arrays are used as-is, zero copy).

        The traversal only ever *reads* the node table, so read-only
        memmap sections are safe: gathers (fancy indexing) return fresh
        ndarrays and all mutation happens in per-call position arrays.
        """
        return cls(
            sections[prefix + "feature"],
            sections[prefix + "threshold"],
            sections[prefix + "children"],
            sections[prefix + "value"],
            sections[prefix + "roots"],
            int(depth),
        )

    def __getstate__(self):
        return (
            self.feature,
            self.threshold,
            self.children,
            self.value,
            self.roots,
            self.depth,
        )

    def __setstate__(self, state):
        (
            self.feature,
            self.threshold,
            self.children,
            self.value,
            self.roots,
            self.depth,
        ) = state


class MergedBinner:
    """Bin once, translate everywhere.

    Components of a :class:`HierarchicalModel` each own a
    :class:`~repro.models.tree.BinnedDataset` whose quantile edges were
    fit on *different* bootstrap streams, so their bin codes disagree
    and the reference path re-binned the input per component.  This
    class merges the per-feature edge sets (``M_j = unique(∪ E_cj)``)
    and precomputes, per component, a lookup table from merged code to
    component code.

    Exactness: ``searchsorted(E, x, "right")`` is constant on each
    half-open merged region ``[M[m-1], M[m])`` because every edge of
    ``E`` appears in ``M``; the table entry for region ``m`` is
    therefore ``searchsorted(E, M[m-1], "right")`` (0 for the leftmost
    region), making the translated codes equal to per-component binning
    for every real input — including the region boundaries themselves.
    """

    def __init__(self, binners: Sequence[object]):
        if not binners:
            raise ValueError("need at least one binner")
        n_features = binners[0].n_features
        if any(b.n_features != n_features for b in binners):
            raise ValueError("binners disagree on feature count")
        self.n_features = n_features
        self.edges: List[np.ndarray] = []
        for j in range(n_features):
            merged = np.unique(
                np.concatenate([np.asarray(b.edges[j], dtype=float) for b in binners])
            )
            self.edges.append(merged)
        max_code = max((len(e) for e in self.edges), default=0)
        #: One (n_features, max_merged_code + 1) table per component.
        self.tables: List[np.ndarray] = []
        for binner in binners:
            table = np.zeros((n_features, max_code + 1), dtype=np.int64)
            for j in range(n_features):
                merged = self.edges[j]
                component_codes = np.searchsorted(
                    np.asarray(binner.edges[j], dtype=float), merged, side="right"
                )
                table[j, 1 : len(merged) + 1] = component_codes
                # Values past this feature's last merged edge keep the
                # final component code.
                if len(merged) + 1 <= max_code:
                    table[j, len(merged) + 1 :] = (
                        component_codes[-1] if len(merged) else 0
                    )
            self.tables.append(table)

    def merged_codes(self, X: np.ndarray) -> np.ndarray:
        """Bin a raw feature matrix against the merged edges (once)."""
        from repro.models.tree import bin_with_edges

        return bin_with_edges(np.asarray(X, dtype=float), self.edges)

    def component_codes(self, component: int, merged: np.ndarray) -> np.ndarray:
        """Translate merged codes into one component's codes (a gather)."""
        table = self.tables[component]
        return table[np.arange(self.n_features)[None, :], merged]

