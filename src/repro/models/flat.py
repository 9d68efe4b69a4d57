"""Flat-array model inference: the GA's fast path.

DAC's whole economics rest on a model query costing milliseconds while
a real run costs minutes (Section 5.5).  The reference prediction path
walks tree nodes in Python — fine for one tree, hopeless for ``nt`` up
to 12 000 of them (Figure 8) times a 60-row GA population per
generation.  This module lowers fitted trees into structure-of-arrays
node tables so a batch prediction is a handful of vectorized gathers
over the raw feature rows — no binning:

* :class:`FlatTree` — one tree as parallel arrays (feature, threshold,
  children, leaf value).  Every leaf loops to itself, so prediction
  advances every sample one level per iteration for exactly ``depth``
  iterations with no per-level bookkeeping: the Python-level loop runs
  ``depth`` times, never ``nodes × samples`` times.
* :class:`FlatForest` — a whole ensemble stacked into one node table
  with per-tree root offsets; one traversal moves *all samples × all
  trees* a level at a time, for the forest's deepest tree.

A split's threshold is the bin edge it stands for
(``edges[feature][bin]``), and a row goes right when
``not (x < threshold)``.  That is the node-walk reference's
``code > bin`` test (``RegressionTree.predict_binned_walk``) for every
input: the code ``searchsorted(edges, x, "right")`` counts the edges
``<= x``, so it exceeds ``bin`` exactly when ``edges[bin] <= x``; NaN
and +inf fail ``x < threshold`` and go right, as binning puts them in
the top bin; and no split uses a feature's last bin, so every threshold
is a real edge.  Leaf values are gathered unchanged and ensemble
accumulation replays the reference's left-to-right float additions
(:func:`accumulate`), so every function here is **bit-for-bit** equal
to the node walk — the exactness report fingerprints
(:func:`repro.store.report_fingerprint`) rest on, proven by
``tests/test_models_flat.py``.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

__all__ = [
    "FlatForest",
    "FlatTree",
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


def _descend(feature, threshold, children, pos, X, depth):
    """Advance every position ``depth`` levels through a node table.

    A leaf's children are the leaf, so rows that reach their leaf early
    stay there with no active-row mask, whichever way its threshold
    sends them.  A leaf's feature ``-1`` reads the value one position
    before its row's first (``take`` wraps ``-1`` for row 0), a valid
    index whose value no longer matters.  Values are gathered from the
    raveled matrix by linear index, and every table lookup is a 1-D
    ``take``.
    """
    X = np.asarray(X, dtype=float)
    flat = X.ravel()
    row_start = np.arange(len(X)) * X.shape[1]
    for _ in range(depth):
        x = flat.take(row_start + feature.take(pos))
        pos = children.take(2 * pos + ~(x < threshold.take(pos)))
    return pos


class FlatTree:
    """One regression tree as parallel node arrays.

    ``feature[i] < 0`` marks node ``i`` a leaf whose prediction is
    ``value[i]``; otherwise rows with ``X[:, feature[i]] < threshold[i]``
    descend to the left child, the rest (NaN included) to the right.
    ``children`` interleaves (left, right) so the traversal picks a
    child with a single flat gather; a leaf's children are itself, so
    walking ``depth`` levels lands every row on its leaf.
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
        threshold = np.empty(n, dtype=np.float64)
        children = np.empty(2 * n, dtype=np.int32)
        value = np.empty(n, dtype=np.float64)
        depths = [0] * n
        for i, node in enumerate(nodes):
            value[i] = node.value
            threshold[i] = node.threshold
            if node.feature < 0:
                feature[i] = -1
                children[2 * i] = children[2 * i + 1] = i
            else:
                feature[i] = node.feature
                children[2 * i] = node.left
                children[2 * i + 1] = node.right
                depths[node.left] = depths[node.right] = depths[i] + 1
        return cls(feature, threshold, children, value, max(depths))

    @property
    def n_nodes(self) -> int:
        return len(self.feature)

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Leaf values for raw feature rows ``X`` (n_samples, n_features)."""
        start = np.zeros(len(X), dtype=np.int32)
        pos = _descend(
            self.feature, self.threshold, self.children, start, X, self.depth
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

    def leaf_values(self, X: np.ndarray, n_trees: Optional[int] = None) -> np.ndarray:
        """(n_trees, n_samples) leaf values for raw feature rows ``X``.

        ``n_trees`` restricts the traversal to the first trees — the
        boosting convergence curve re-predicts prefixes this way.
        """
        roots = self.roots if n_trees is None else self.roots[:n_trees]
        start = np.repeat(np.asarray(roots, dtype=np.int32)[:, None], len(X), 1)
        pos = _descend(
            self.feature, self.threshold, self.children, start, X, self.depth
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
