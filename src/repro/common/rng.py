"""Deterministic random-number-generator derivation.

Every stochastic element in the reproduction (simulated measurement noise,
bootstrap samples, GA operators, configuration sampling) draws from a
``numpy.random.Generator``.  To keep experiments reproducible *and* to make
the simulated cluster behave like a real one — the same (program, datasize,
configuration) always produces the same measurement, while different
configurations perturb execution independently — generators are derived
from stable string keys rather than shared globally.
"""

from __future__ import annotations

import hashlib
from typing import Union

import numpy as np

_Seedable = Union[str, int, float, bool, bytes]


def stable_seed(*parts: _Seedable) -> int:
    """Derive a 64-bit seed from arbitrary hashable parts.

    Uses BLAKE2b so the mapping is stable across processes and Python
    versions (unlike the builtin ``hash``, which is salted per process).

    >>> stable_seed("kmeans", 1024) == stable_seed("kmeans", 1024)
    True
    >>> stable_seed("kmeans", 1024) != stable_seed("kmeans", 1025)
    True
    """
    digest = hashlib.blake2b(digest_size=8)
    for part in parts:
        if isinstance(part, bytes):
            digest.update(part)
        elif isinstance(part, float):
            # repr() keeps full precision; format stability matters more
            # than compactness here.
            digest.update(repr(part).encode("utf-8"))
        else:
            digest.update(str(part).encode("utf-8"))
        digest.update(b"\x1f")  # separator so ("ab","c") != ("a","bc")
    return int.from_bytes(digest.digest(), "little")


def derive_rng(*parts: _Seedable) -> np.random.Generator:
    """Return a fresh ``numpy.random.Generator`` keyed by ``parts``."""
    return np.random.default_rng(stable_seed(*parts))

