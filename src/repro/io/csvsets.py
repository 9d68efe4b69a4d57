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
from typing import List, Union

from repro.common.space import ConfigurationSpace
from repro.core.collecting import PerformanceVector, TrainingSet

_META_COLUMNS = ("t_seconds", "dsize", "dsize_bytes")


def dumps_training_set(training_set: TrainingSet) -> str:
    """Serialize a training set to CSV text (no filesystem round trip)."""
    space = training_set.space
    buffer = io.StringIO(newline="")
    writer = csv.writer(buffer)
    writer.writerow([*_META_COLUMNS, *space.names])
    for v in training_set.vectors:
        writer.writerow(
            [
                repr(v.seconds),
                repr(v.datasize),
                repr(v.datasize_bytes),
                *[_serialize(v.configuration[name]) for name in space.names],
            ]
        )
    return buffer.getvalue()


def save_training_set(training_set: TrainingSet, path: Union[str, Path]) -> None:
    """Write a training set to ``path`` as CSV."""
    Path(path).write_text(dumps_training_set(training_set), newline="")


def load_training_set(
    path: Union[str, Path], space: ConfigurationSpace
) -> TrainingSet:
    """Read a CSV written by :func:`save_training_set`.

    The file's parameter columns must exactly cover ``space``'s names
    (any order); unknown or missing columns raise ``ValueError``.
    """
    path = Path(path)
    with path.open(newline="") as handle:
        return loads_training_set(handle.read(), space, source=str(path))


def loads_training_set(
    text: str, space: ConfigurationSpace, source: str = "<training set>"
) -> TrainingSet:
    """Parse CSV text produced by :func:`dumps_training_set`."""
    path = source  # error messages name the caller's source
    with io.StringIO(text, newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        for column in _META_COLUMNS:
            if column not in header:
                raise ValueError(f"{path}: missing column {column!r}")
        param_columns = [c for c in header if c not in _META_COLUMNS]
        if set(param_columns) != set(space.names):
            missing = set(space.names) - set(param_columns)
            extra = set(param_columns) - set(space.names)
            raise ValueError(
                f"{path}: parameter columns do not match the space "
                f"(missing={sorted(missing)}, unknown={sorted(extra)})"
            )
        index = {name: header.index(name) for name in header}

        vectors: List[PerformanceVector] = []
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise ValueError(f"{path}:{line_no}: wrong column count")
            values = {
                name: _deserialize(space[name], row[index[name]])
                for name in space.names
            }
            vectors.append(
                PerformanceVector(
                    seconds=float(row[index["t_seconds"]]),
                    configuration=space.from_dict(values),
                    datasize=float(row[index["dsize"]]),
                    datasize_bytes=float(row[index["dsize_bytes"]]),
                )
            )
    if not vectors:
        raise ValueError(f"{path}: no data rows")
    return TrainingSet.from_vectors(space, vectors)


def _serialize(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _deserialize(parameter, text: str):
    from repro.common.space import CategoricalParameter, FloatParameter, IntParameter

    if isinstance(parameter, CategoricalParameter):
        if parameter.choices == (False, True):
            if text not in ("true", "false"):
                raise ValueError(f"{parameter.name}: bad boolean {text!r}")
            return text == "true"
        return text
    if isinstance(parameter, FloatParameter):
        return float(text)
    if isinstance(parameter, IntParameter):
        return int(text)
    raise TypeError(f"unsupported parameter type for {parameter.name}")
