"""DAC: the paper's datasize-aware auto-tuner (Section 3).

Three components, mirroring Figure 4:

* **collecting** (:mod:`repro.core.collecting`) — the Configuration
  Generator (CG) + Dataset-size Generator (DG) drive simulated
  executions and collect performance vectors
  ``Pv = {t, c1..c41, dsize}``;
* **modeling** — a :class:`~repro.models.hierarchical.HierarchicalModel`
  fitted on the collected training set;
* **searching** (:mod:`repro.core.ga`) — a genetic algorithm that
  minimizes the model's predicted execution time over the 41-dimensional
  configuration space for the target dataset size.

:class:`~repro.core.tuner.DacTuner` wires them together; baselines
(:mod:`repro.core.baselines`, :mod:`repro.core.rfhoc`,
:mod:`repro.core.expert`) provide the comparison points of Figure 12.
"""

from repro.core.collecting import Collector, TrainingSet
from repro.core.ga import GaResult, GeneticAlgorithm
from repro.core.search import (
    GaSearch,
    PatternSearch,
    RandomSearch,
    RecursiveRandomSearch,
    SearchResult,
    make_strategy,
)
from repro.core.tuner import DacTuner, TuningReport
from repro.core.baselines import default_configuration
from repro.core.expert import ExpertTuner
from repro.core.rfhoc import RfhocTuner

__all__ = [
    "Collector",
    "DacTuner",
    "ExpertTuner",
    "GaResult",
    "GaSearch",
    "GeneticAlgorithm",
    "PatternSearch",
    "RandomSearch",
    "RecursiveRandomSearch",
    "RfhocTuner",
    "SearchResult",
    "TrainingSet",
    "TuningReport",
    "default_configuration",
    "make_strategy",
]
