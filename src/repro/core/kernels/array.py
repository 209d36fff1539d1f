"""numpy kernel backend: column-packed masks, vectorized sweeps.

Import-guarded — the module always imports, and
:data:`NUMPY_AVAILABLE` tells the registry whether the backend is
usable (it needs a numpy with ``bitwise_count``, i.e. numpy ≥ 2).

Bit-identity strategy, kernel by kernel:

* ``greedy_wsc`` — the lazy-deletion heap's *effective* selection rule
  is "argmin of ``(cost / fresh, set_id)`` over sets with fresh
  coverage": stale entries under-estimate their ratio, get re-keyed on
  pop, and never win; accurate entries pop in exactly that order.  So
  the vectorized variant materialises the rule directly:
  ``np.argmin`` over the ratio vector returns the *first* (lowest id)
  minimum, and ``float64`` division equals Python float division ULP
  for ULP.  Fresh counts update incrementally on the word span the
  selection actually touched, against a contiguous word-major copy.
* ``bucket_greedy_wsc`` — identical control flow to the pure version;
  only the fresh-coverage counts of the current bucket's queue are
  batched (``bitwise_count`` over the queue's rows), recomputed for the
  remaining suffix after each selection.  Bucket keys stay scalar
  ``math.log`` — ``np.log`` may differ in the last ulp, and a one-ulp
  bucket flip would change selections.
* ``min_cover_dp`` — same bound-pruned skeleton as pyjit; each expanded
  state shortlists improving candidates vectorially against a snapshot
  of the DP row, then applies them scalar-and-in-order (the snapshot
  test is a superset of the sequential test because entries only ever
  improve within a round).  Masks wider than 62 bits would overflow
  int64 and fall back to the pyjit implementation.

Both WSC kernels draw their uint64 mask grid from a per-instance cache
(:func:`_packed`) — packing thousands of python-int masks costs as much
as a whole greedy run, and the pure-python kernels already amortise the
equivalent work through ``WSCInstance.member_masks``.
"""

from __future__ import annotations

import math
import weakref
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.kernels import pyjit
from repro.core.kernels.api import MinCoverOutcome
from repro.exceptions import InvalidInstanceError, SolverError
from repro.setcover.instance import WSCInstance, WSCSolution

try:
    import numpy as np
except ImportError:  # pragma: no cover - exercised on numpy-less hosts
    np = None  # type: ignore[assignment]

#: Whether this backend can run here (numpy ≥ 2 for ``bitwise_count``).
NUMPY_AVAILABLE = np is not None and hasattr(np, "bitwise_count")

#: ``min_cover_dp`` masks must fit comfortably in int64.
_DP_MASK_LIMIT = 1 << 62


def _require_numpy() -> None:
    if not NUMPY_AVAILABLE:
        raise SolverError(
            "the 'array' kernel backend requires numpy >= 2 "
            "(with numpy.bitwise_count)"
        )


class _PackedMasks:
    """Column-packed view of a :class:`WSCInstance`'s member masks.

    Packing 2000 python-int masks costs milliseconds — comparable to an
    entire greedy run — so it is cached per instance (weakly, see
    :func:`_packed`) the same way the instance caches
    :meth:`~WSCInstance.member_masks` for the pure-python kernels.
    ``rows`` is ``(num_sets, words)`` uint64; ``transposed`` is its
    contiguous ``(words, num_sets)`` twin, built lazily, so per-word
    slices touch contiguous memory in the greedy update sweep.
    """

    __slots__ = ("masks", "words", "rows", "costs", "_transposed")

    def __init__(self, instance: WSCInstance):
        masks = instance.member_masks()
        words = max(1, (instance.universe_size + 63) // 64)
        nbytes = words * 8
        buf = b"".join(mask.to_bytes(nbytes, "little") for mask in masks)
        self.masks = masks
        self.words = words
        self.rows = np.frombuffer(buf, dtype="<u8").reshape(len(masks), words)
        self.costs = np.asarray(instance.set_costs(), dtype=np.float64)
        self._transposed = None

    @property
    def transposed(self):
        if self._transposed is None:
            self._transposed = np.ascontiguousarray(self.rows.T)
        return self._transposed


_PACK_CACHE: "weakref.WeakKeyDictionary[WSCInstance, _PackedMasks]" = (
    weakref.WeakKeyDictionary()
)


def _packed(instance: WSCInstance) -> _PackedMasks:
    """Packed masks for ``instance``, rebuilt only when the instance's
    mask cache was invalidated (``member_masks`` returns a new list)."""
    entry = _PACK_CACHE.get(instance)
    if entry is None or entry.masks is not instance.member_masks():
        entry = _PackedMasks(instance)
        _PACK_CACHE[instance] = entry
    return entry


def _pack_one(mask: int, words: int):
    return np.frombuffer(mask.to_bytes(words * 8, "little"), dtype="<u8")


def greedy_wsc(instance: WSCInstance) -> WSCSolution:
    """Vectorized Chvátal greedy; selections match the heap variant."""
    _require_numpy()
    instance.validate_coverable()

    universe_size = instance.universe_size
    num_sets = instance.num_sets
    pack = _packed(instance)
    member_masks = pack.masks
    words = pack.words
    packed_T = pack.transposed  # (words, num_sets): word-major, contiguous
    costs = pack.costs

    fresh = np.bitwise_count(pack.rows).sum(axis=1, dtype=np.int64)
    ratios = np.empty(num_sets, dtype=np.float64)
    scratch = np.empty((words, num_sets), dtype=np.uint64)
    covered = 0
    num_covered = 0
    selected: List[int] = []
    total_cost = 0.0

    while num_covered < universe_size:
        if num_sets == 0:
            raise SolverError("greedy ran out of sets before covering the universe")
        np.copyto(ratios, np.inf)
        np.divide(costs, fresh, out=ratios, where=fresh > 0)
        set_id = int(np.argmin(ratios))
        if math.isinf(float(ratios[set_id])):
            # All finite-ratio sets are spent.  The heap variant would
            # still select the lowest-id set with fresh coverage (its
            # infinite-cost entries sort by id); raise only when none.
            if not bool(np.any(fresh > 0)):
                raise SolverError(
                    "greedy ran out of sets before covering the universe"
                )
            set_id = int(np.argmax(fresh > 0))
        fresh_mask = member_masks[set_id] & ~covered
        gained = int(fresh[set_id])
        selected.append(set_id)
        total_cost += float(costs[set_id])
        covered |= fresh_mask
        num_covered += gained
        # Incremental maintenance: only words the selection touched can
        # change any set's fresh count.  The touched words form a span
        # ``[lo, hi)``; interior zero words contribute zero popcount, and
        # the contiguous word-major slice beats a column gather.
        newly = _pack_one(fresh_mask, words)
        touched = np.nonzero(newly)[0]
        if touched.size:
            lo, hi = int(touched[0]), int(touched[-1]) + 1
            block = scratch[: hi - lo]
            np.bitwise_and(packed_T[lo:hi], newly[lo:hi, None], out=block)
            np.bitwise_count(block, out=block)
            fresh -= block.sum(axis=0, dtype=np.int64)

    return WSCSolution(selected, total_cost)


def bucket_greedy_wsc(instance: WSCInstance, epsilon: float = 0.1) -> WSCSolution:
    """Bucketed greedy with batched fresh-coverage counts."""
    _require_numpy()
    if epsilon <= 0:
        raise InvalidInstanceError(f"epsilon must be > 0, got {epsilon}")
    instance.validate_coverable()
    base = 1.0 + epsilon
    log_base = math.log(base)
    flog, ffloor = math.log, math.floor

    def bucket_of(ratio: float) -> int:
        if ratio <= 0:
            return -(10**9)  # zero-cost sets: always the best bucket
        return ffloor(flog(ratio) / log_base)

    universe_size = instance.universe_size
    num_sets = instance.num_sets
    pack = _packed(instance)
    packed = pack.rows
    words = pack.words
    costs = pack.costs
    cost_list = instance.set_costs()

    covered_words = np.zeros(words, dtype=np.uint64)
    scratch = np.empty((num_sets, words), dtype=np.uint64)
    num_covered = 0
    selected: List[int] = []
    total_cost = 0.0

    buckets: Dict[int, List[int]] = {}

    def push(set_id: int, ratio: float) -> None:
        key = bucket_of(ratio)
        if key not in buckets:
            buckets[key] = []
        buckets[key].append(set_id)

    sizes = np.bitwise_count(packed).sum(axis=1, dtype=np.int64).tolist()
    for set_id in range(num_sets):
        size = sizes[set_id]
        if size == 0:
            continue  # degenerate empty set: nothing to cover, no ratio
        push(set_id, cost_list[set_id] / size)

    while num_covered < universe_size:
        if not buckets:
            raise SolverError("bucket greedy ran out of sets")
        current_key = min(buckets)
        queue = buckets.pop(current_key)
        pos = 0
        while pos < len(queue):
            # Batch the fresh counts for the unprocessed suffix; valid
            # until the next selection changes the covered mask.  The
            # ratio vector is float64 division, ULP-identical to the
            # scalar divisions of the pure variant; only sets with fresh
            # coverage (``live``) reach the python scan.
            suffix = queue[pos:]
            ids = np.asarray(suffix, dtype=np.int64)
            rows = scratch[: ids.size]
            np.take(packed, ids, axis=0, out=rows)
            rows &= ~covered_words
            fresh_batch = np.bitwise_count(rows).sum(axis=1, dtype=np.int64)
            live = np.nonzero(fresh_batch)[0]
            ratio_list = (costs[ids[live]] / fresh_batch[live]).tolist()
            advanced = False
            for scan, offset in enumerate(live.tolist()):
                ratio = ratio_list[scan]
                key = bucket_of(ratio)
                if key > current_key:
                    # Migrated to a worse bucket (appended directly —
                    # the key is already in hand, no second bucket_of).
                    set_id = suffix[offset]
                    bucket = buckets.get(key)
                    if bucket is None:
                        buckets[key] = [set_id]
                    else:
                        bucket.append(set_id)
                    continue
                # Within (1+epsilon) of the best current ratio: take it.
                set_id = suffix[offset]
                selected.append(set_id)
                total_cost += cost_list[set_id]
                covered_words |= rows[offset]
                num_covered += int(fresh_batch[offset])
                pos += offset + 1
                advanced = True
                break
            if not advanced:
                pos = len(queue)
            if num_covered == universe_size:
                break

    solution = WSCSolution(selected, total_cost)
    instance.verify_solution(solution)
    return solution


def min_cover_dp(full: int, usable: Sequence[Tuple[int, float]]) -> MinCoverOutcome:
    """Bound-pruned DP with vectorized candidate shortlisting."""
    _require_numpy()
    if full == 0:
        return 0.0, []
    if full >= _DP_MASK_LIMIT or not usable:
        # Too wide for int64 mask arithmetic (or trivially unreachable):
        # the scalar implementation handles arbitrary-width ints.
        return pyjit.min_cover_dp(full, usable)
    tables = pyjit.admissible_tables(full, usable)
    if tables is None:
        return None
    h, incumbent = tables

    num = len(usable)
    masks_arr = np.fromiter((m for m, _ in usable), dtype=np.int64, count=num)
    weights_arr = np.fromiter((w for _, w in usable), dtype=np.float64, count=num)

    size = full + 1
    dp_cost = np.full(size, np.inf)
    dp_count = np.zeros(size, dtype=np.int64)
    back: List[Optional[Tuple[int, int]]] = [None] * size
    dp_cost[0] = 0.0

    for mask in range(size):
        cost_here = float(dp_cost[mask])
        if math.isinf(cost_here):
            continue
        full_cost = float(dp_cost[full])
        if full_cost < incumbent:
            incumbent = full_cost
        if cost_here + h[mask] > incumbent:
            continue
        count_next = int(dp_count[mask]) + 1
        nxt = mask | masks_arr
        new_cost = cost_here + weights_arr
        snap_cost = dp_cost[nxt]
        snap_count = dp_count[nxt]
        # Snapshot shortlist: a superset of the sequentially-applied
        # updates (entries only improve within the round), re-checked
        # scalar and in candidate order below so duplicate targets
        # resolve exactly as the sequential loop would.
        improving = (nxt != mask) & (
            (new_cost < snap_cost)
            | ((new_cost == snap_cost) & (count_next < snap_count))  # reprolint: ignore[RPL103]
        )
        for idx in np.nonzero(improving)[0].tolist():
            target = int(nxt[idx])
            candidate_cost = float(new_cost[idx])
            current_cost = float(dp_cost[target])
            if candidate_cost < current_cost or (
                # Deliberate exact DP tie-break, same judgment as pyjit.
                candidate_cost == current_cost  # reprolint: ignore[RPL103]
                and count_next < int(dp_count[target])
            ):
                dp_cost[target] = candidate_cost
                dp_count[target] = count_next
                back[target] = (mask, int(idx))

    final_cost = float(dp_cost[full])
    if math.isinf(final_cost):
        return None

    chosen: List[int] = []
    mask = full
    while mask:
        prev_mask, idx = back[mask]  # type: ignore[misc]
        chosen.append(idx)
        mask = prev_mask
    chosen.reverse()
    return final_cost, chosen


def sampled_gains(member_masks: Sequence[int], covered: int) -> List[int]:
    """Vectorized fresh-coverage counts: pack the sample-local masks into
    a uint64 matrix once and let ``bitwise_count`` sum per row.  Exact
    integer counts — bit-identical to the pyjit loop by construction."""
    _require_numpy()
    if not member_masks:
        return []
    width = max(mask.bit_length() for mask in member_masks)
    words = max(1, (width + 63) // 64)
    nbytes = words * 8
    buf = b"".join(mask.to_bytes(nbytes, "little") for mask in member_masks)
    rows = np.frombuffer(buf, dtype="<u8").reshape(len(member_masks), words)
    if covered:
        # Restrict ~covered to the packed width so the AND stays exact.
        visible = ~covered & ((1 << (words * 64)) - 1)
        rows = rows & _pack_one(visible, words)
    return np.bitwise_count(rows).sum(axis=1, dtype=np.int64).tolist()


class ArrayBackend:
    """The optional numpy backend."""

    name = "array"

    def __init__(self) -> None:
        _require_numpy()

    def greedy_wsc(self, instance: WSCInstance) -> WSCSolution:
        return greedy_wsc(instance)

    def bucket_greedy_wsc(
        self, instance: WSCInstance, epsilon: float = 0.1
    ) -> WSCSolution:
        return bucket_greedy_wsc(instance, epsilon)

    def min_cover_dp(
        self, full: int, usable: Sequence[Tuple[int, float]]
    ) -> MinCoverOutcome:
        return min_cover_dp(full, usable)

    def sampled_gains(self, member_masks: Sequence[int], covered: int) -> List[int]:
        return sampled_gains(member_masks, covered)
