"""Figure 8: first-order model error vs (nt, lr, tc) for PageRank.

Section 5.2's parameter study: with tree complexity 1, no (lr, nt)
combination beats ~10% error; with tc = 5 the error floor drops and
larger learning rates converge in fewer trees.  The paper settles on
tc=5, lr=0.05, nt=3600.

The experiment exploits that a boosted ensemble's validation-error
*trajectory* gives the whole nt-axis in one fit: training with the
maximum nt records the error after every tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

import numpy as np

from repro.experiments.common import Scale, collected, render_table
from repro.models import GradientBoostedTrees

DEFAULT_LEARNING_RATES = (0.005, 0.01, 0.05)
DEFAULT_TREE_COMPLEXITIES = (1, 5)


@dataclass(frozen=True)
class Fig8Result:
    scale: str
    program: str
    learning_rates: Tuple[float, ...]
    tree_complexities: Tuple[int, ...]
    #: curves[(tc, lr)] = validation error after each tree (index = nt-1)
    curves: Dict[Tuple[int, float], Tuple[float, ...]]

    def min_error(self, tc: int) -> float:
        return min(min(v) for (t, _), v in self.curves.items() if t == tc)

    def best_setting(self) -> Tuple[int, float, int]:
        """(tc, lr, nt) achieving the lowest validation error."""
        best = None
        for (tc, lr), curve in self.curves.items():
            i = int(np.argmin(curve))
            if best is None or curve[i] < best[0]:
                best = (curve[i], tc, lr, i + 1)
        assert best is not None
        return best[1], best[2], best[3]

    def render(self) -> str:
        rows = []
        for (tc, lr), curve in sorted(self.curves.items()):
            i = int(np.argmin(curve))
            rows.append(
                [tc, lr, len(curve), f"{curve[i] * 100:.1f}%", i + 1]
            )
        tc, lr, nt = self.best_setting()
        title = (
            f"Figure 8: HM first-order error vs (nt, lr, tc) on {self.program} "
            f"(best: tc={tc}, lr={lr}, nt={nt})"
        )
        return render_table(["tc", "lr", "max nt", "min error", "argmin nt"], rows, title)

    @property
    def complex_trees_win(self) -> bool:
        """The figure's claim: tc=max beats tc=1's error floor."""
        tc_values = sorted(self.tree_complexities)
        return self.min_error(tc_values[-1]) < self.min_error(tc_values[0])


def run(
    scale: Scale,
    program: str = "PR",
    learning_rates: Sequence[float] = DEFAULT_LEARNING_RATES,
    tree_complexities: Sequence[int] = DEFAULT_TREE_COMPLEXITIES,
) -> Fig8Result:
    train = collected(program, scale.n_train, "train")
    X, y = train.features(), train.log_times()
    curves: Dict[Tuple[int, float], Tuple[float, ...]] = {}
    for tc in tree_complexities:
        for lr in learning_rates:
            model = GradientBoostedTrees(
                n_trees=scale.n_trees,
                learning_rate=lr,
                tree_complexity=tc,
                patience=10**9,  # disable early stop: we want the full curve
            )
            model.fit(X, y)
            curves[(tc, lr)] = tuple(model.validation_errors_)
    return Fig8Result(
        scale=scale.name,
        program=program,
        learning_rates=tuple(learning_rates),
        tree_complexities=tuple(tree_complexities),
        curves=curves,
    )
