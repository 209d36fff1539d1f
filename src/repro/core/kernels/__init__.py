"""Pluggable backends for the batch mask kernels.

Public surface: the contracts in :mod:`repro.core.kernels.api`, the
registry in :mod:`repro.core.kernels.registry`, and the step-3
:class:`DominatedPruner`, which has one implementation for every
backend.  Implementation modules
(``pyjit``, ``array``) are internal — import them only through this
package (reprolint RPL203).
"""

from repro.core.kernels.api import (
    FORCED_COVER_MAX_CANDIDATES,
    FORCED_COVER_MAX_LENGTH,
    FORCED_COVER_NODE_BUDGET,
    FULL_ENUMERATION_MAX_LENGTH,
    KernelBackend,
    MinCoverOutcome,
    describe,
)
from repro.core.kernels.registry import (
    AUTO,
    BACKEND_ENV_VAR,
    available_backends,
    backend_available,
    backend_choices,
    current_backend_name,
    get_backend,
    register_backend,
    resolve_backend_name,
    set_default_backend,
    use_backend,
)
from repro.core.kernels.pyjit import DominatedPruner

__all__ = [
    "AUTO",
    "BACKEND_ENV_VAR",
    "DominatedPruner",
    "FORCED_COVER_MAX_CANDIDATES",
    "FORCED_COVER_MAX_LENGTH",
    "FORCED_COVER_NODE_BUDGET",
    "FULL_ENUMERATION_MAX_LENGTH",
    "KernelBackend",
    "MinCoverOutcome",
    "available_backends",
    "backend_available",
    "backend_choices",
    "current_backend_name",
    "describe",
    "get_backend",
    "register_backend",
    "resolve_backend_name",
    "set_default_backend",
    "use_backend",
]
