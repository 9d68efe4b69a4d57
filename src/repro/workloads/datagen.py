"""Input dataset size generation (the paper's DG, Section 3.1).

The collecting component needs ``m`` input datasets whose sizes differ
pairwise by at least 10% (Equation 4):

    |DS_p - DS_q| / min(DS_p, DS_q) >= 10%

The paper sets ``m = 10`` "to achieve a good trade-off between the size
diversity of the input datasets and the time to collect the performance
data".  Geometric spacing guarantees the constraint whenever the total
range allows it; otherwise the generator widens the range symmetrically
until it does.
"""

from __future__ import annotations

from typing import List

import numpy as np

#: Equation (4)'s minimum pairwise relative gap.
MIN_RELATIVE_GAP = 0.10
#: The paper's default number of training dataset sizes.
DEFAULT_NUM_SIZES = 10


class DatasetSizeGenerator:
    """Generates training dataset sizes satisfying Equation (4)."""

    def __init__(self, num_sizes: int = DEFAULT_NUM_SIZES, min_gap: float = MIN_RELATIVE_GAP):
        if num_sizes < 1:
            raise ValueError("need at least one dataset size")
        if min_gap <= 0:
            raise ValueError("minimum gap must be positive")
        self.num_sizes = num_sizes
        self.min_gap = min_gap

    def required_ratio(self) -> float:
        """Smallest high/low ratio that admits ``num_sizes`` sizes."""
        return (1.0 + self.min_gap) ** (self.num_sizes - 1)

    def generate(self, low: float, high: float) -> List[float]:
        """Geometrically spaced sizes in [low, high] honouring the gap.

        If the requested range is too narrow for ``num_sizes`` sizes 10%
        apart, the range is widened symmetrically (in log space) — the
        tuner prefers extra size diversity over silently violating
        Equation (4).
        """
        if low <= 0 or high <= 0 or low > high:
            raise ValueError(f"invalid size range [{low}, {high}]")
        if self.num_sizes == 1:
            return [float(np.sqrt(low * high))]
        needed = self.required_ratio()
        if high / low < needed:
            center = np.sqrt(low * high)
            half = np.sqrt(needed)
            low, high = center / half, center * half
        sizes = np.geomspace(low, high, self.num_sizes)
        return [float(s) for s in sizes]

    @staticmethod
    def satisfies_gap(sizes: List[float], min_gap: float = MIN_RELATIVE_GAP) -> bool:
        """Check Equation (4) over all pairs."""
        for i, a in enumerate(sizes):
            for b in sizes[i + 1 :]:
                small, big = (a, b) if a < b else (b, a)
                if (big - small) / small < min_gap * (1 - 1e-9):
                    return False
        return True
