"""Generic configuration-space abstraction.

The paper's Configuration Generator (Section 3.1) draws each parameter
uniformly at random within its value range; the Genetic Algorithm
(Section 3.3) and the performance models (Section 3.2) operate on the
numeric encoding of a configuration.  This module provides both views:

* :class:`Parameter` subclasses describe a single knob — its range,
  default, random sampling, and a bijective numeric encoding;
* :class:`ConfigurationSpace` aggregates an ordered list of parameters and
  converts whole configurations to/from feature vectors;
* :class:`Configuration` is an immutable mapping of parameter name to
  value with dict-like access.

The same classes back the Spark space (41 parameters, Table 2) and the
Hadoop-like ODC space used for the Figure 2 sensitivity study.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterator, Mapping, Sequence, Tuple

import numpy as np


class Parameter:
    """A single tunable knob.

    Subclasses implement sampling, validation, and a numeric encoding used
    by the performance models and the GA.  Encodings are *normalized to
    [0, 1]* so that mutation step sizes and model split thresholds are
    comparable across parameters of wildly different scales (e.g. memory
    in MB vs. a boolean flag).
    """

    name: str
    description: str
    default: Any

    def sample(self, rng: np.random.Generator) -> Any:
        """Draw a uniformly random legal value."""
        raise NotImplementedError

    def validate(self, value: Any) -> Any:
        """Return a legal, canonical version of ``value`` or raise ``ValueError``."""
        raise NotImplementedError

    def encode(self, value: Any) -> float:
        """Map a legal value into [0, 1]."""
        raise NotImplementedError

    def decode(self, x: float) -> Any:
        """Inverse of :meth:`encode` (clipping out-of-range inputs)."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}({self.name!r}, default={self.default!r})"


@dataclass(frozen=True, repr=False)
class IntParameter(Parameter):
    """Integer-valued knob uniform over ``[low, high]`` inclusive."""

    name: str
    low: int
    high: int
    default: int
    description: str = ""

    def __post_init__(self) -> None:
        if self.low > self.high:
            raise ValueError(f"{self.name}: low {self.low} > high {self.high}")

    def sample(self, rng: np.random.Generator) -> int:
        return int(rng.integers(self.low, self.high + 1))

    def validate(self, value: Any) -> int:
        ivalue = int(value)
        if ivalue != value and not isinstance(value, (int, np.integer)):
            # Accept exact floats (e.g. 4.0) but reject 4.5.
            if float(value) != ivalue:
                raise ValueError(f"{self.name}: {value!r} is not an integer")
        # The default may legally sit outside the tuning range (e.g.
        # spark.memory.offHeap.size defaults to 0 with range 10-1000).
        if not (self.low <= ivalue <= self.high) and ivalue != self.default:
            raise ValueError(
                f"{self.name}: {ivalue} outside [{self.low}, {self.high}]"
            )
        return ivalue

    def encode(self, value: Any) -> float:
        if self.high == self.low:
            return 0.0
        clipped = min(max(int(value), self.low), self.high)
        return (clipped - self.low) / (self.high - self.low)

    def decode(self, x: float) -> int:
        x = min(max(float(x), 0.0), 1.0)
        return int(round(self.low + x * (self.high - self.low)))


@dataclass(frozen=True, repr=False)
class FloatParameter(Parameter):
    """Real-valued knob uniform over ``[low, high]``."""

    name: str
    low: float
    high: float
    default: float
    description: str = ""

    def __post_init__(self) -> None:
        if self.low > self.high:
            raise ValueError(f"{self.name}: low {self.low} > high {self.high}")

    def sample(self, rng: np.random.Generator) -> float:
        return float(rng.uniform(self.low, self.high))

    def validate(self, value: Any) -> float:
        fvalue = float(value)
        if not (self.low <= fvalue <= self.high) and fvalue != self.default:
            raise ValueError(
                f"{self.name}: {fvalue} outside [{self.low}, {self.high}]"
            )
        return fvalue

    def encode(self, value: Any) -> float:
        if self.high == self.low:
            return 0.0
        clipped = min(max(float(value), self.low), self.high)
        return (clipped - self.low) / (self.high - self.low)

    def decode(self, x: float) -> float:
        x = min(max(float(x), 0.0), 1.0)
        return float(self.low + x * (self.high - self.low))


@dataclass(frozen=True, repr=False)
class CategoricalParameter(Parameter):
    """Knob taking one of a small set of unordered choices."""

    name: str
    choices: Tuple[Any, ...]
    default: Any
    description: str = ""

    def __post_init__(self) -> None:
        if self.default not in self.choices:
            raise ValueError(f"{self.name}: default {self.default!r} not a choice")
        if len(set(self.choices)) != len(self.choices):
            raise ValueError(f"{self.name}: duplicate choices")

    def sample(self, rng: np.random.Generator) -> Any:
        return self.choices[int(rng.integers(0, len(self.choices)))]

    def validate(self, value: Any) -> Any:
        if value not in self.choices:
            raise ValueError(f"{self.name}: {value!r} not in {self.choices}")
        return value

    def encode(self, value: Any) -> float:
        index = self.choices.index(value)
        if len(self.choices) == 1:
            return 0.0
        return index / (len(self.choices) - 1)

    def decode(self, x: float) -> Any:
        x = min(max(float(x), 0.0), 1.0)
        index = int(round(x * (len(self.choices) - 1)))
        return self.choices[index]


def BoolParameter(
    name: str, default: bool, description: str = ""
) -> CategoricalParameter:
    """A true/false knob, modelled as a two-choice categorical."""
    return CategoricalParameter(
        name=name, choices=(False, True), default=bool(default), description=description
    )


class Configuration(Mapping[str, Any]):
    """An immutable assignment of values to every parameter of a space.

    Behaves like a read-only mapping; :meth:`replacing_values` produces
    modified copies.
    """

    __slots__ = ("_space", "_values")

    def __init__(self, space: "ConfigurationSpace", values: Mapping[str, Any]):
        missing = [p.name for p in space.parameters if p.name not in values]
        if missing:
            raise ValueError(f"missing values for parameters: {missing}")
        extra = [name for name in values if name not in space.names_set]
        if extra:
            raise ValueError(f"unknown parameters: {extra}")
        self._space = space
        self._values = {
            p.name: p.validate(values[p.name]) for p in space.parameters
        }

    @property
    def space(self) -> "ConfigurationSpace":
        return self._space

    def __getitem__(self, name: str) -> Any:
        return self._values[name]

    def __iter__(self) -> Iterator[str]:
        return iter(self._values)

    def __len__(self) -> int:
        return len(self._values)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Configuration):
            return NotImplemented
        return self._values == other._values

    def __hash__(self) -> int:
        return hash(tuple(sorted((k, repr(v)) for k, v in self._values.items())))

    def replacing_values(self, overrides: Mapping[str, Any]) -> "Configuration":
        """Return a copy with the exactly-named parameters changed."""
        resolved: Dict[str, Any] = dict(self._values)
        for key, val in overrides.items():
            name = self._space.resolve_name(key)
            resolved[name] = val
        return Configuration(self._space, resolved)

    def as_dict(self) -> Dict[str, Any]:
        return dict(self._values)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        head = ", ".join(f"{k}={v!r}" for k, v in list(self._values.items())[:3])
        return f"Configuration({head}, ... {len(self._values)} params)"


class ConfigurationSpace:
    """An ordered collection of :class:`Parameter` definitions."""

    def __init__(self, parameters: Sequence[Parameter], name: str = "space"):
        names = [p.name for p in parameters]
        if len(set(names)) != len(names):
            raise ValueError("duplicate parameter names")
        self.name = name
        self.parameters: Tuple[Parameter, ...] = tuple(parameters)
        self.names: Tuple[str, ...] = tuple(names)
        self.names_set = frozenset(names)
        self._by_name: Dict[str, Parameter] = {p.name: p for p in parameters}

    # -- lookup ---------------------------------------------------------
    def __len__(self) -> int:
        return len(self.parameters)

    def __contains__(self, name: str) -> bool:
        return name in self.names_set

    def __getitem__(self, name: str) -> Parameter:
        return self._by_name[self.resolve_name(name)]

    def resolve_name(self, key: str) -> str:
        """Accept either exact names or underscore-for-dot aliases."""
        if key in self.names_set:
            return key
        dotted = key.replace("_", ".")
        if dotted in self.names_set:
            return dotted
        raise KeyError(f"unknown parameter {key!r} in space {self.name!r}")

    # -- construction ---------------------------------------------------
    def default(self) -> Configuration:
        """The vendor-default configuration (Table 2 last column)."""
        return Configuration(self, {p.name: p.default for p in self.parameters})

    def random(self, rng: np.random.Generator) -> Configuration:
        """One draw of the paper's Configuration Generator (CG)."""
        return Configuration(self, {p.name: p.sample(rng) for p in self.parameters})

    def from_dict(self, values: Mapping[str, Any]) -> Configuration:
        """Build a configuration from a possibly partial dict (defaults fill gaps)."""
        merged = {p.name: p.default for p in self.parameters}
        for key, val in values.items():
            merged[self.resolve_name(key)] = val
        return Configuration(self, merged)

    # -- numeric view ---------------------------------------------------
    def encode(self, config: Configuration) -> np.ndarray:
        return np.array(
            [p.encode(config[p.name]) for p in self.parameters], dtype=float
        )

    def decode(self, vector: Sequence[float]) -> Configuration:
        vec = np.asarray(vector, dtype=float)
        if vec.shape != (len(self.parameters),):
            raise ValueError(
                f"expected vector of length {len(self.parameters)}, got {vec.shape}"
            )
        values = {
            p.name: p.decode(x) for p, x in zip(self.parameters, vec)
        }
        return Configuration(self, values)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"ConfigurationSpace({self.name!r}, {len(self.parameters)} params)"
