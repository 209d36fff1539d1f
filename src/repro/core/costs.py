"""Cost models: the paper's weighting function ``W : C_Q → [0, ∞)``.

The paper treats ``W`` as a total function where classifiers that are
infeasible or "not considered" get weight ``∞`` and are omitted from the
input (Section 2.1).  We mirror that with an abstract :class:`CostModel`
whose :meth:`~CostModel.cost` may return ``math.inf``.

Concrete models:

* :class:`TableCost` — an explicit mapping, missing entries cost ``∞``
  (or a configurable default, e.g. for "every classifier exists" toy
  instances).
* :class:`UniformCost` — all classifiers cost the same (the setting of
  the prior work [13] reproduced by the BestBuy dataset).
* :class:`HashCost` — a *lazy* pseudo-random cost, deterministic in
  ``(seed, classifier)``.  The synthetic dataset (Section 6.1) draws
  costs uniformly from ``[1, 50]`` for a universe of classifiers far too
  large to materialise; hashing gives every classifier a stable draw
  without storing any of them.
* :class:`CallableCost` — wrap any user function.
* :class:`ZeroedCost` — decorator granting cost 0 to classifiers built
  solely from already-known properties (Section 2.1, "we assign a cost
  of zero for any classifier testing a property ... for which a
  classifier construction is not necessary").
* :class:`LengthCappedCost` — decorator implementing the *bounded
  classifiers* regime ``k' < k`` (Section 5.3) by pricing longer
  classifiers at ``∞``.
* :class:`OverlayCost` — decorator with per-classifier overrides, used by
  preprocessing to "select" (weight 0) and "remove" (weight ``∞``)
  classifiers without copying the underlying model, and to hand each
  residual component the prices of its own candidate classifiers.
"""

from __future__ import annotations

import hashlib
import math
import struct
from abc import ABC, abstractmethod
from typing import Callable, Dict, Iterable, Mapping, Optional

from repro.core.properties import Classifier, PropertySet, canonical_label
from repro.exceptions import InvalidInstanceError

INFINITY = math.inf


def validate_weight(weight: float, classifier: Classifier | None = None) -> float:
    """Validate a classifier weight: a non-negative real (``inf`` allowed)."""
    if isinstance(weight, bool) or not isinstance(weight, (int, float)):
        raise InvalidInstanceError(f"classifier weight must be numeric, got {weight!r}")
    value = float(weight)
    if math.isnan(value) or value < 0:
        label = canonical_label(classifier) if classifier else "<classifier>"
        raise InvalidInstanceError(f"weight of {label} must be in [0, inf), got {weight!r}")
    return value


def parse_classifier_key(key: object) -> Classifier:
    """Normalise a cost-table key to a classifier.

    Strings are split on whitespace and ``+`` (matching
    :func:`~repro.core.properties.canonical_label`), so ``"adidas"``,
    ``"adidas juventus"`` and ``"adidas+juventus"`` all work; any other
    iterable is taken as a collection of property names.
    """
    if isinstance(key, str):
        parts = key.replace("+", " ").split()
    elif isinstance(key, frozenset):
        parts = list(key)
    else:
        parts = list(key)  # tuples, lists, sets
    clf = frozenset(str(part) for part in parts)
    if not clf:
        raise InvalidInstanceError(f"cost table key {key!r} denotes an empty classifier")
    return clf


def _weight_bytes(value: float) -> bytes:
    """Exact IEEE-754 bits; no string rounding, ``inf`` included."""
    return struct.pack("<d", float(value))


def _token_digest(*parts: bytes) -> bytes:
    """Length-prefixed digest of token parts — unambiguous concatenation."""
    digest = hashlib.blake2b(digest_size=16)
    for part in parts:
        digest.update(len(part).to_bytes(4, "little"))
        digest.update(part)
    return digest.digest()


class CostModel(ABC):
    """Abstract weighting function over classifiers."""

    @abstractmethod
    def cost(self, clf: Classifier) -> float:
        """Return ``W(clf)``; ``math.inf`` means the classifier is unavailable."""

    def content_token(self) -> Optional[bytes]:
        """Canonical digest of this model's pricing content, or ``None``.

        The component-solution cache (:mod:`repro.engine.cache`) keys
        entries by content: two models with equal tokens must price
        *every* classifier identically, in every process, regardless of
        ``PYTHONHASHSEED``.  Models whose content cannot be enumerated
        (opaque callables) return ``None``; the fingerprint then falls
        back to pricing each candidate classifier individually.
        """
        return None

    def is_finite(self, clf: Classifier) -> bool:
        """Whether the classifier participates in the input (finite weight)."""
        return math.isfinite(self.cost(clf))

    def total(self, classifiers: Iterable[Classifier]) -> float:
        """Sum of costs — the paper's ``W(S)``.  ``inf`` if any member is."""
        return sum(self.cost(clf) for clf in classifiers)


class TableCost(CostModel):
    """Explicit cost table; classifiers absent from the table cost ``default``.

    This is the paper's literal input representation: the weighting
    function is given as a list associating a cost with every classifier,
    with infeasible classifiers simply omitted.
    """

    def __init__(
        self,
        table: Mapping[object, float],
        default: float = INFINITY,
    ):
        self._table: Dict[Classifier, float] = {}
        for key, weight in table.items():
            clf = parse_classifier_key(key)
            self._table[clf] = validate_weight(weight, clf)
        self.default = validate_weight(default)
        self._token: Optional[bytes] = None

    def cost(self, clf: Classifier) -> float:
        return self._table.get(clf, self.default)

    def content_token(self) -> Optional[bytes]:
        # The table never mutates after construction (``copy()`` builds a
        # new model), so the digest is computed once.  Entries are fed in
        # canonical-label order — insertion history must not leak in.
        if self._token is None:
            parts = [b"table", _weight_bytes(self.default)]
            for label, weight in sorted(
                (canonical_label(clf), weight) for clf, weight in self._table.items()
            ):
                parts.append(label.encode("utf-8"))
                parts.append(_weight_bytes(weight))
            self._token = _token_digest(*parts)
        return self._token

    def __len__(self) -> int:
        return len(self._table)

    def __contains__(self, clf: Classifier) -> bool:
        return clf in self._table

    def items(self):
        """Iterate over explicitly priced ``(classifier, weight)`` pairs."""
        return self._table.items()

    def copy(self) -> "TableCost":
        return TableCost(dict(self._table), default=self.default)


class UniformCost(CostModel):
    """Every classifier costs ``value`` (optionally only up to a length cap)."""

    def __init__(self, value: float = 1.0, max_length: Optional[int] = None):
        self.value = validate_weight(value)
        if max_length is not None and max_length < 1:
            raise InvalidInstanceError("max_length must be >= 1")
        self.max_length = max_length

    def cost(self, clf: Classifier) -> float:
        if self.max_length is not None and len(clf) > self.max_length:
            return INFINITY
        return self.value

    def content_token(self) -> Optional[bytes]:
        return _token_digest(
            b"uniform", _weight_bytes(self.value), str(self.max_length).encode()
        )


class CallableCost(CostModel):
    """Adapt an arbitrary ``Classifier -> float`` function to a cost model.

    Opaque by construction: :meth:`content_token` stays ``None`` (the
    base default), so cache fingerprints price candidates individually.
    """

    def __init__(self, fn: Callable[[Classifier], float]):
        self._fn = fn

    def cost(self, clf: Classifier) -> float:
        value = self._fn(clf)
        if not math.isfinite(value):
            return INFINITY
        return validate_weight(value, clf)


class HashCost(CostModel):
    """Deterministic pseudo-random integer cost in ``[low, high]``.

    The draw depends only on ``(seed, classifier)`` so the exponentially
    large classifier universe of the synthetic dataset never has to be
    materialised; repeated queries for the same classifier always return
    the same cost, as required for the weighting function to be well
    defined.
    """

    def __init__(
        self,
        low: int = 1,
        high: int = 50,
        seed: int = 0,
        max_length: Optional[int] = None,
    ):
        if low < 0 or high < low:
            raise InvalidInstanceError(f"invalid cost range [{low}, {high}]")
        if max_length is not None and max_length < 1:
            raise InvalidInstanceError("max_length must be >= 1")
        self.low = int(low)
        self.high = int(high)
        self.seed = int(seed)
        self.max_length = max_length

    def cost(self, clf: Classifier) -> float:
        if self.max_length is not None and len(clf) > self.max_length:
            return INFINITY
        label = canonical_label(clf)
        digest = hashlib.blake2b(
            label.encode(),
            digest_size=8,
            salt=self.seed.to_bytes(8, "little", signed=False),
        ).digest()
        draw = int.from_bytes(digest, "little")
        span = self.high - self.low + 1
        return float(self.low + draw % span)

    def content_token(self) -> Optional[bytes]:
        return _token_digest(
            b"hash",
            str((self.low, self.high, self.seed, self.max_length)).encode(),
        )


class ZeroedCost(CostModel):
    """Grant cost 0 to classifiers composed entirely of known properties.

    Per Section 2.1, properties whose values are already recorded need no
    classifier; a classifier testing only such properties is free, but
    mixed classifiers (e.g. ``XY`` with ``x`` known and ``y`` unknown)
    keep their base cost and may still be worth building.
    """

    def __init__(self, base: CostModel, free_properties: Iterable[str]):
        self.base = base
        self.free_properties: PropertySet = frozenset(free_properties)

    def cost(self, clf: Classifier) -> float:
        if clf <= self.free_properties:
            return 0.0
        return self.base.cost(clf)

    def content_token(self) -> Optional[bytes]:
        base = self.base.content_token()
        if base is None:
            return None
        return _token_digest(
            b"zeroed", base, canonical_label(self.free_properties).encode()
        )


class LengthCappedCost(CostModel):
    """Bounded classifiers (Section 5.3): length ``> k'`` priced at ``∞``."""

    def __init__(self, base: CostModel, max_length: int):
        if max_length < 1:
            raise InvalidInstanceError("max_length must be >= 1")
        self.base = base
        self.max_length = int(max_length)

    def cost(self, clf: Classifier) -> float:
        if len(clf) > self.max_length:
            return INFINITY
        return self.base.cost(clf)

    def content_token(self) -> Optional[bytes]:
        base = self.base.content_token()
        if base is None:
            return None
        return _token_digest(b"capped", base, str(self.max_length).encode())


class OverlayCost(CostModel):
    """A cost model with mutable per-classifier overrides.

    Preprocessing models *selecting* a classifier by setting its weight to
    0 and *removing* one by setting its weight to ``∞`` (Section 3); the
    overlay keeps those edits separate from the caller's model.
    """

    def __init__(self, base: CostModel, overrides: Optional[Dict[Classifier, float]] = None):
        self.base = base
        self.overrides: Dict[Classifier, float] = dict(overrides or {})
        self._token: Optional[bytes] = None

    def cost(self, clf: Classifier) -> float:
        if clf in self.overrides:
            return self.overrides[clf]
        return self.base.cost(clf)

    def select(self, clf: Classifier) -> None:
        """Mark ``clf`` as already built (weight 0)."""
        self.overrides[clf] = 0.0
        self._token = None

    def remove(self, clf: Classifier) -> None:
        """Mark ``clf`` as unavailable (weight ``∞``)."""
        self.overrides[clf] = INFINITY
        self._token = None

    def is_removed(self, clf: Classifier) -> bool:
        return self.overrides.get(clf) == INFINITY

    def content_token(self) -> Optional[bytes]:
        # Cached between mutations: a residual component's overlay is
        # never edited after preprocessing builds it, so its digest is
        # computed once.  Mutate overrides only through select/remove —
        # a direct dict write would go unseen.
        base = self.base.content_token()
        if base is None:
            return None
        if self._token is None:
            parts = [b"overlay", base]
            for label, weight in sorted(
                (canonical_label(clf), weight) for clf, weight in self.overrides.items()
            ):
                parts.append(label.encode("utf-8"))
                parts.append(_weight_bytes(weight))
            self._token = _token_digest(*parts)
        return self._token
