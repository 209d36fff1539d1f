"""Preprocessing step 3 (Observation 3.3): remove classifiers whose
covering contribution is subsumed by a set of shorter classifiers of at
most the same cost.

The implementation lives in the kernel layer
(:class:`repro.core.kernels.DominatedPruner`): frozenset queries in,
frozenset removals/selections out, its decisions written into the
:class:`~repro.core.costs.OverlayCost` it was given, and decisions
bit-identical to the frozenset reference
(:mod:`repro.core.reference` keeps that claim executable).  This module
re-exports it, with the pruning constants, for existing importers.
"""

from __future__ import annotations

from repro.core.kernels import DominatedPruner
from repro.core.kernels.api import (
    FORCED_COVER_MAX_CANDIDATES,
    FORCED_COVER_MAX_LENGTH,
    FORCED_COVER_NODE_BUDGET,
    FULL_ENUMERATION_MAX_LENGTH,
)

__all__ = [
    "DominatedPruner",
    "FORCED_COVER_MAX_CANDIDATES",
    "FORCED_COVER_MAX_LENGTH",
    "FORCED_COVER_NODE_BUDGET",
    "FULL_ENUMERATION_MAX_LENGTH",
]
