"""Lookup table of the six evaluated programs (Table 1)."""

from __future__ import annotations

from typing import Dict

from repro.workloads.base import Workload
from repro.workloads.bayes import Bayes
from repro.workloads.kmeans import KMeans
from repro.workloads.nweight import NWeight
from repro.workloads.pagerank import PageRank
from repro.workloads.terasort import TeraSort
from repro.workloads.wordcount import WordCount

#: Table 1 order: PR, KM, BA, NW, WC, TS.
ALL_WORKLOADS: Dict[str, Workload] = {
    w.abbr: w
    for w in (PageRank(), KMeans(), Bayes(), NWeight(), WordCount(), TeraSort())
}


def get_workload(name: str) -> Workload:
    """Look up a workload by abbreviation ("PR") or full name ("PageRank").

    Searches Table 1's six programs first, then the extension workloads
    (:mod:`repro.workloads.extended`).
    """
    from repro.workloads.extended import EXTRA_WORKLOADS

    key = name.strip()
    for registry in (ALL_WORKLOADS, EXTRA_WORKLOADS):
        if key.upper() in registry:
            return registry[key.upper()]
        for workload in registry.values():
            if workload.name.lower() == key.lower():
                return workload
    known = list(ALL_WORKLOADS.values()) + list(EXTRA_WORKLOADS.values())
    raise KeyError(
        f"unknown workload {name!r}; available: "
        + ", ".join(f"{w.abbr} ({w.name})" for w in known)
    )
