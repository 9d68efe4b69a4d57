"""Workload base class: natural-unit sizes to concrete job DAGs."""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Tuple

from repro.sparksim.dag import JobSpec


class Workload(ABC):
    """A Spark program whose input is parameterized by a natural size.

    Sizes use the paper's Table-1 units (million pages, million points,
    GB, ...); :meth:`bytes_for` converts to raw dataset bytes and
    :meth:`job` compiles the full stage DAG for one size.
    """

    #: Full program name, e.g. "PageRank".
    name: str
    #: Paper abbreviation, e.g. "PR".
    abbr: str
    #: The five Table-1 evaluation sizes, in natural units.
    paper_sizes: Tuple[float, ...]
    #: Human-readable unit of ``paper_sizes``.
    unit: str

    @abstractmethod
    def bytes_for(self, size: float) -> float:
        """Raw dataset bytes for a natural-unit size."""

    @abstractmethod
    def job(self, size: float) -> JobSpec:
        """Compile the stage DAG for one input size (natural units)."""

    def size_range(self) -> Tuple[float, float]:
        """Tuning range of input sizes (spans the Table-1 evaluation sizes).

        The collecting component trains on sizes drawn from a slightly
        wider band so the five evaluation sizes are interior points of
        the model's support, as in the paper's setup (10 training sizes
        vs. 5 evaluation sizes).
        """
        low, high = min(self.paper_sizes), max(self.paper_sizes)
        return 0.8 * low, 1.1 * high

    def validate_size(self, size: float) -> float:
        if size <= 0:
            raise ValueError(f"{self.name}: size must be positive, got {size}")
        return float(size)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Workload {self.name} ({self.abbr})>"
