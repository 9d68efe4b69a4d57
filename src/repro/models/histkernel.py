"""Histogram-kernel split search: binned tree *fitting* at NumPy speed.

Fitting is the dominant cost of every collect→refit cycle, and
``RegressionTree._best_split_reference`` loops over all features in
Python and evaluates one node at a time.  This module replaces that
inner loop with a histogram kernel:

* **All features in one shot** — a node's per-``(feature, bin)``
  count/sum histograms come from a flattened-index ``np.bincount`` over
  the whole ``(rows, features)`` code block instead of one Python
  iteration per feature.  A full-feature fit flattens the code matrix
  once (:func:`flat_codes`); each node then gathers its rows.
* **Both children in one pass** — when a split commits, its two
  children are scored together: their flattened blocks are
  concatenated, the right child's cells offset past the left's, so one
  count ``np.bincount`` and one sum ``np.bincount`` fill a
  ``(2, features, bins)`` histogram block, one gain block covers both
  children, and one first-max ``argmax`` per child picks its split.
  Node values come from the per-child target sums the same pass
  computes.  The tree still grows in exactly the reference's
  best-first order, see the determinism notes below.
* **No pass for the last pair** — the children of a tree's
  ``tree_complexity``-th split are valued without a histogram pass.
  Their splits could only join a frontier that is never popped again,
  so no node table depends on them; their mtry draws still run.

Determinism
-----------
The kernel must pick **byte-identical splits** to the reference —
``report_fingerprint`` equality across dedup, crash-resume, and
scenario replay all depend on fitted models being bit-for-bit stable.
Four facts make the batched path exact:

1. ``np.bincount`` (weighted or not) accumulates sequentially in input
   order, and every cell of the concatenated two-child block belongs
   to one child, so each cell's float sum sees the same contributions
   in the same ascending-row order as the reference's per-feature
   bincount.
2. ``np.cumsum`` along an axis accumulates each lane sequentially,
   matching the reference's per-feature prefix sums.
3. A node's total is ``y[idx].sum()``, the pairwise reduction
   ``np.mean`` also uses, so ``total / n`` is the reference's leaf
   mean bit for bit and ``total ** 2 / n`` its parent term.  (It sums
   the node's slice of the pair's one target gather: pairwise
   summation depends only on the values and their order.)
4. A flat ``argmax`` over a child's feature-major ``(features, bins)``
   gain block returns the first feature holding the maximum and the
   first bin within it: the reference's per-feature first-max followed
   by its strictly-greater scan across features.  The one exception is
   a NaN gain (``inf - inf`` on huge targets), which disqualifies only
   its own feature in the reference; the value at the ``argmax`` is NaN
   exactly when one exists, and such a node is replayed per feature.

Best-first growth bounds the batch width: a popped node's children must
be scored before the next heap pop (their gains compete for it), so
the widest frontier the reference semantics admit is the just-expanded
child pair — full per-depth batching would change *which* nodes get
split whenever ``tree_complexity`` binds.  DESIGN.md §17 carries the
full argument.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.telemetry import events as tele

__all__ = ["FrontierEvaluator", "flat_codes", "observe_fit"]

#: Gain floor shared with the reference: a split must beat this strictly.
MIN_GAIN = 1e-12


# ----------------------------------------------------------------------
# NumPy kernel
# ----------------------------------------------------------------------
def flat_codes(binner) -> np.ndarray:
    """Per-cell flat index ``feature * nb_max + code``, ``(rows, features)``.

    Built once per fit over every feature; a node's rows of it are its
    flattened code block.  Gathering rows in sample order keeps every
    histogram cell's contributions in ascending row order — the
    accumulation order of the reference's per-feature ``np.bincount``.
    """
    nb_max = int(binner.n_bins.max()) if binner.n_features else 0
    return binner.codes + np.arange(binner.n_features, dtype=np.int64) * nb_max


def _replay_per_feature(gain: np.ndarray) -> Optional[Tuple[int, int]]:
    """The reference scan over one ``(features, bins)`` gain block.

    Per-feature first-max ``np.argmax`` (NaN-first included, so a NaN
    gain disqualifies its feature, as the reference's ``NaN > best``
    comparison did), then a strictly-greater first-wins pass across
    features.  Only blocks holding a NaN take this path.
    """
    per_feature_bin = gain.argmax(axis=1)
    per_feature_gain = gain[np.arange(len(gain)), per_feature_bin]
    ranked = np.where(np.isnan(per_feature_gain), -np.inf, per_feature_gain)
    pos = int(ranked.argmax())
    if not ranked[pos] > MIN_GAIN:
        return None
    return pos, int(per_feature_bin[pos])


class FrontierEvaluator:
    """Batched split evaluation for one :meth:`fit_binned` call.

    The tree's best-first loop asks it to score the root, then — after
    each committed split — both new children in one histogram pass.
    Every node sees the same candidate features unless the tree draws a
    random-forest subset (mtry) per node; both cases share one code
    path, differing only in how a node's flattened block is gathered.
    """

    def __init__(
        self,
        binner,
        y: np.ndarray,
        min_samples_leaf: int,
        rng: Optional[np.random.Generator],
        split_features: Optional[int],
        features: np.ndarray,
        flat: Optional[np.ndarray] = None,
    ):
        self.codes = binner.codes
        self.y = y
        self.min_samples_leaf = min_samples_leaf
        self.rng = rng
        self.split_features = split_features
        self.features = np.asarray(features)
        self.nb_max = int(binner.n_bins.max()) if binner.n_features else 0
        #: Candidate features are drawn fresh per node iff the reference
        #: would have drawn them (same condition, same RNG stream).
        self.draws = (
            split_features is not None and split_features < len(self.features)
        )
        width = split_features if self.draws else len(self.features)
        self.offsets = np.arange(width, dtype=np.int64) * self.nb_max
        #: Fixed candidates flatten once; ``flat`` is the caller's
        #: :func:`flat_codes` for the identity feature set.
        if self.draws:
            self.flat = None
        elif flat is None:
            self.flat = self.codes[:, self.features] + self.offsets
        else:
            self.flat = flat

    def evaluate(self, *nodes: np.ndarray, search: bool = True) -> List[list]:
        """``[value, split]`` per node, in order.

        ``value`` is the node's mean target; ``split`` is the reference
        tuple ``(gain, feature, bin, left_idx, right_idx)`` or ``None``.
        The size guard and any RNG draw run node by node, in order —
        exactly the reference's sequential left-then-right child loop.
        ``search=False`` values the nodes without the histogram pass:
        every split is ``None``, but the draws still happen, so the RNG
        stream ends where the reference's does.
        """
        rows = nodes[0] if len(nodes) == 1 else np.concatenate(nodes)
        targets = self.y[rows]
        results: List[list] = []
        plans = []
        start = 0
        for idx in nodes:
            y_node = targets[start : start + len(idx)]
            start += len(idx)
            total = y_node.sum()
            results.append([float(total / len(idx)), None])
            if len(idx) >= 2 * self.min_samples_leaf:
                plans.append((len(results) - 1, idx, y_node, total, self._draw()))
        if search and plans and self.nb_max >= 2 and len(self.offsets):
            if len(plans) < len(nodes):
                _, rows, targets, _, _ = plans[0]
            for slot, split in self._best_splits(plans, rows, targets):
                results[slot][1] = split
        return results

    # -- internals -----------------------------------------------------
    def _draw(self) -> Optional[np.ndarray]:
        if self.draws:
            return self.rng.choice(
                self.features, size=self.split_features, replace=False
            )
        return None

    def _best_splits(self, plans, rows: np.ndarray, targets: np.ndarray):
        """Score every planned node in one histogram + gain pass.

        ``rows``/``targets`` are the planned nodes' sample indices and
        targets, concatenated in plan order.  Yields ``(slot, split)``
        for each node that has a split.
        """
        m = len(plans)
        k = len(self.offsets)
        nb = self.nb_max
        cells = k * nb
        sizes = [len(idx) for _, idx, _, _, _ in plans]
        totals = [total for _, _, _, total, _ in plans]
        if self.flat is not None:
            block = self.flat[rows]
        else:
            block = np.concatenate(
                [self.codes[idx[:, None], cand] for _, idx, _, _, cand in plans]
            ) + self.offsets
        if m == 2:
            block[sizes[0] :] += cells  # the right child's own cells
        cell_index = block.ravel()
        counts = np.bincount(cell_index, minlength=m * cells).reshape(m, k, nb)
        sums = np.bincount(
            cell_index, weights=np.repeat(targets, k), minlength=m * cells
        ).reshape(m, k, nb)
        n = np.array(sizes, dtype=float)[:, None]
        total = np.array(totals)[:, None]
        parent = np.array([t**2 / size for t, size in zip(totals, sizes)])[:, None]
        # Prefix tables per feature lane, then one (m, cells) row per
        # node.  The last bin of each feature sends every row left (its
        # right count is 0), so it is always invalid: keeping it makes
        # the block contiguous without changing any argmax.
        left_counts = np.cumsum(counts, axis=2).reshape(m, cells).astype(float)
        left_sums = np.cumsum(sums, axis=2).reshape(m, cells)
        right_counts = n - left_counts
        right_sums = total - left_sums
        msl = self.min_samples_leaf
        valid = (left_counts >= msl) & (right_counts >= msl)
        # In place, the reference's expression and association:
        # (left_sums**2 / left_counts + right_sums**2 / right_counts) - parent
        with np.errstate(divide="ignore", invalid="ignore"):
            gain = np.square(left_sums, out=left_sums)
            gain /= left_counts
            right = np.square(right_sums, out=right_sums)
            right /= right_counts
            gain += right
            gain -= parent
        gain = np.where(valid, gain, -np.inf)
        best = gain.argmax(axis=1)
        start = 0
        for c, (slot, idx, _, _, cand) in enumerate(plans):
            lo, start = start, start + sizes[c]
            at = int(best[c])
            value = gain[c, at]
            if value != value:
                replay = _replay_per_feature(gain[c].reshape(k, nb))
                if replay is None:
                    continue
                pos, bin_index = replay
                value = gain[c, pos * nb + bin_index]
            elif value > MIN_GAIN:
                pos, bin_index = divmod(at, nb)
            else:
                continue
            feature = int((self.features if cand is None else cand)[pos])
            mask = block[lo:start, pos] <= c * cells + pos * nb + bin_index
            yield slot, (float(value), feature, bin_index, idx[mask], idx[~mask])


# ----------------------------------------------------------------------
# Fit telemetry
# ----------------------------------------------------------------------
def observe_fit(model: str, seconds: float, trees: int, nodes: int) -> None:
    """Record one model fit as a ``model.fit`` event (telemetry on),
    which ``repro top`` surfaces as a fit row in the engine panel."""
    if tele.enabled():
        tele.event(
            "model.fit",
            model=model,
            seconds=float(seconds),
            trees=int(trees),
            nodes=int(nodes),
        )

