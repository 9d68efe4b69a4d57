"""Training sets as CSV files, mirroring the paper's R pipeline.

One row per performance vector (Equation 5): the execution time, the 41
configuration parameter values (by Table-2 name), and the dataset size
in natural units and bytes.  The header records parameter names so files
remain valid if the column order ever changes.
"""

from __future__ import annotations

import csv
import io
from pathlib import Path
from typing import Union

from repro.core.collecting import TrainingSet, value_from_raw

_META_COLUMNS = ("t_seconds", "dsize", "dsize_bytes")


def dumps_training_set(training_set: TrainingSet) -> str:
    """Serialize a training set to CSV text (no filesystem round trip).

    Written straight from the set's columns: each raw parameter value
    goes back to its configuration value through :func:`value_from_raw`.
    """
    params = training_set.space.parameters
    buffer = io.StringIO(newline="")
    writer = csv.writer(buffer)
    writer.writerow([*_META_COLUMNS, *(p.name for p in params)])
    for seconds, datasize, datasize_bytes, *raw in training_set.rows().tolist():
        writer.writerow(
            [
                repr(seconds),
                repr(datasize),
                repr(datasize_bytes),
                *[_serialize(value_from_raw(p, r)) for p, r in zip(params, raw)],
            ]
        )
    return buffer.getvalue()


def save_training_set(training_set: TrainingSet, path: Union[str, Path]) -> None:
    """Write a training set to ``path`` as CSV."""
    Path(path).write_text(dumps_training_set(training_set), newline="")


def _serialize(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)
