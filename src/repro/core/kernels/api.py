"""Typed contracts for the batch mask kernels.

The hot paths the bitset rewrite produced — Chvátal greedy WSC, the
bucketed greedy [CKW'10], the single-query min-cover subset DP and the
sampled greedy's gain counts — share one shape: they take interned
integer bitmasks in and hand deterministic, bit-identical decisions
back.  A :class:`KernelBackend` bundles one implementation of each
behind that contract so the engine can pick an implementation per run
(or per route) without any caller knowing which one it got.
Dominated-classifier pruning (Algorithm 1 step 3) has a single
implementation, the pyjit pruner, which the package exports as
:class:`~repro.core.kernels.DominatedPruner`.

Two backends ship: ``pyjit`` (pure-python mask arithmetic, always
available) and ``array`` (numpy column-packed masks, available when a
numpy with ``bitwise_count`` is importable).  Every backend must be
*bit-identical* to the frozenset reference kernels in
:mod:`repro.core.reference` — same selections, same tie-breaks, same
costs — which the equivalence suite and ``benchmarks/bench_bitspace.py``
keep executable.

Backends are reached only through :mod:`repro.core.kernels.registry`
(reprolint RPL203 enforces that the implementation modules are never
imported directly from outside this package).
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Dict,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    runtime_checkable,
)

if TYPE_CHECKING:  # runtime-import-free: this module sits below
    # core/mincover and setcover in the import graph (both shims import
    # the registry, which imports this), so the model types are
    # annotation-only here.
    from repro.setcover.instance import WSCInstance, WSCSolution

# ----------------------------------------------------------------------
# Dominated-pruning tuning constants (hoisted from preprocess/dominated,
# which re-exports them for backward compatibility).
# ----------------------------------------------------------------------

#: Beyond this classifier length the ``O(3^len)`` full decomposition
#: enumeration switches to the ``O(2^len)`` disjoint-only family (still a
#: sound pruning rule, merely less aggressive).
FULL_ENUMERATION_MAX_LENGTH = 7

#: Forced-cover detection enumerates irredundant covers, which is
#: exponential in the query length; skip it for longer queries.
FORCED_COVER_MAX_LENGTH = 5

#: Per-query budget for the uniqueness search; exhausting it means the
#: query conservatively counts as having multiple covers.
FORCED_COVER_NODE_BUDGET = 3000

#: Queries with more available candidates than this skip the uniqueness
#: test outright — a unique cover among that many candidates is
#: vanishingly rare and the search is the expensive part.
FORCED_COVER_MAX_CANDIDATES = 24


#: ``min_cover_dp`` outcome: ``(cost, chosen candidate indices in
#: selection order)``, or ``None`` when the target mask is unreachable.
MinCoverOutcome = Optional[Tuple[float, List[int]]]


@runtime_checkable
class KernelBackend(Protocol):
    """One complete implementation of the batch kernels.

    Contracts (identical across backends, checked against
    :mod:`repro.core.reference`):

    * ``greedy_wsc`` — Chvátal greedy; ties on cost/fresh resolve to the
      lowest set id;
    * ``bucket_greedy_wsc`` — the CKW'10 bucketed greedy with scalar
      ``math.log`` bucket keys (ULP-exact bucketing is part of the
      bit-identity contract);
    * ``min_cover_dp`` — the single-query subset DP over query-local
      masks; ties break toward fewer sets, then earliest candidate
      order.
    * ``sampled_gains`` — batch fresh-coverage counts
      ``popcount(mask & ~covered)`` over sample-local member masks, the
      gain-estimation primitive of the sampling-based sub-linear greedy
      (exact integer counts, so backends are trivially bit-identical).
    """

    name: str

    def greedy_wsc(self, instance: WSCInstance) -> WSCSolution:
        ...

    def bucket_greedy_wsc(
        self, instance: WSCInstance, epsilon: float = 0.1
    ) -> WSCSolution:
        ...

    def min_cover_dp(
        self, full: int, usable: Sequence[Tuple[int, float]]
    ) -> MinCoverOutcome:
        ...

    def sampled_gains(self, member_masks: Sequence[int], covered: int) -> List[int]:
        ...


def describe(backend: KernelBackend) -> Dict[str, object]:
    """Small introspection dict used by telemetry and the CLI."""
    return {
        "name": backend.name,
        "kernels": [
            "greedy_wsc",
            "bucket_greedy_wsc",
            "min_cover_dp",
            "sampled_gains",
        ],
    }
