"""Correctness checks the benchmark applies to every operation.

The coverage check here is written against the problem definition
alone (a query is covered when the union of the selected classifiers
it contains equals the query), so it does not share code with the
program's own verifier.
"""

from __future__ import annotations

import hashlib
import math
from typing import Dict, FrozenSet, Iterable, List


def uncovered_queries(
    queries: Iterable[FrozenSet[str]], classifiers: Iterable[FrozenSet[str]]
) -> int:
    """Number of queries the classifier set does not cover."""
    by_first: Dict[str, List[FrozenSet[str]]] = {}
    for clf in classifiers:
        if clf:
            by_first.setdefault(min(clf), []).append(clf)
    missing = 0
    for query in queries:
        covered = set()
        for prop in query:
            for clf in by_first.get(prop, ()):
                if clf <= query:
                    covered |= clf
        if len(covered) != len(query):
            missing += 1
    return missing


def solution_digest(classifiers: Iterable[FrozenSet[str]]) -> str:
    """Order-free digest of a classifier set."""
    lines = sorted(",".join(sorted(clf)) for clf in classifiers)
    return hashlib.blake2b("\n".join(lines).encode("utf-8"), digest_size=8).hexdigest()


def priced(cost_of, classifiers: Iterable[FrozenSet[str]]) -> float:
    """Sum of classifier prices, in a fixed order."""
    ordered = sorted(classifiers, key=lambda clf: (len(clf), sorted(clf)))
    return math.fsum(cost_of(clf) for clf in ordered)


def same_cost(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)
