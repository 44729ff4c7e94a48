"""HMAC-masked prefix sets and membership verification (sections II.B, IV).

The protocol's only on-the-wire objects are *masked sets*: the HMAC digests
of numericalized prefixes.  Whoever holds two masked sets can test whether
they share an element — and therefore whether a hidden value lies in a hidden
range — but learns nothing else about either.

This module provides:

* :class:`MaskedSet` — an immutable set of digests with intersection tests;
* :class:`MaskSpec` / :func:`mask_specs` — the batch API: describe many
  prefix sets and mask them all in one backend call (:meth:`MaskSpec.family`
  and :meth:`MaskSpec.cover` take their HMAC inputs from memo tables keyed
  by value, so a repeated value costs no prefix encoding);
* :func:`mask_value` — mask the prefix family ``G(x)`` of a value;
* :func:`mask_range` — mask the cover ``Q([a, b])`` of a range, optionally
  padded with random filler digests to a fixed cardinality (the advanced
  scheme pads to ``2w - 2`` so set sizes stop leaking range widths);
* :func:`is_member` — the core check ``H(G(x)) ∩ H(Q([a,b])) ≠ ∅``;
* :func:`find_maxima` — the auctioneer's masked max-bid search.

Batching changes *how* digests are computed, never *what* they are: a
:func:`mask_specs` call returns byte-for-byte what per-digest
:func:`mask_prefixes` calls would.  Genuine (unpadded) digests are also
memoized in :mod:`repro.crypto.cache` keyed on the full
``(key, domain, digest size, message set)`` tuple, so a stationary SU's
repeated submissions skip the HMAC work entirely; padding fillers are
*always* drawn fresh from the caller's RNG so the random stream — and
therefore every downstream draw — is identical with the cache hot, cold,
or disabled.
"""

from __future__ import annotations

import random
from dataclasses import FrozenInstanceError, dataclass, field
from functools import lru_cache
from typing import FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro import obs
from repro.crypto.backend import hmac_digest_pairs
from repro.crypto.cache import cache_enabled, get_mask_cache
from repro.prefix.numericalize import numericalize, numericalized_to_bytes
from repro.prefix.prefixes import Prefix, prefix_family
from repro.prefix.ranges import max_cover_size, range_cover
from repro.utils.rng import fresh_rng

__all__ = [
    "DEFAULT_DIGEST_BYTES",
    "MaskedSet",
    "MaskSpec",
    "mask_specs",
    "mask_spec_digests",
    "pad_masked_set",
    "mask_prefixes",
    "mask_value",
    "mask_range",
    "is_member",
    "find_maxima",
]

DEFAULT_DIGEST_BYTES = 16


class MaskedSet(frozenset[bytes]):
    """An unordered set of equal-length HMAC digests.

    The set *is* a frozenset of its digests, so equality and intersection
    are the set-theoretic ones the protocol needs; ``digest_bytes`` rides in
    one slot, purely for wire-size accounting (Theorem 4).  One set is one
    object for the garbage collector to track, not a record plus the
    frozenset it wraps.

    Equality and hashing cover ``digest_bytes`` too, so empty sets of
    different digest sizes differ; against a plain set or frozenset a
    masked set compares by its digests alone.  Instances are immutable:
    assigning an attribute raises :class:`dataclasses.FrozenInstanceError`.
    """

    __slots__ = ("digest_bytes",)

    digest_bytes: int

    def __new__(
        cls, digests: Iterable[bytes] = (), digest_bytes: int = DEFAULT_DIGEST_BYTES
    ) -> "MaskedSet":
        if digest_bytes < 4:
            raise ValueError("digest truncation below 4 bytes is unsafe")
        self = super().__new__(cls, digests)
        if not set(map(len, self)) <= {digest_bytes}:
            raise ValueError(
                "all digests in a MaskedSet must have digest_bytes length"
            )
        object.__setattr__(self, "digest_bytes", digest_bytes)
        return self

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if isinstance(other, MaskedSet) and self.digest_bytes != other.digest_bytes:
            return False
        return frozenset.__eq__(self, other)

    def __ne__(self, other: object) -> bool:
        return not self == other

    def __hash__(self) -> int:
        return hash((frozenset.__hash__(self), self.digest_bytes))

    def __repr__(self) -> str:
        return (
            f"MaskedSet(digests={frozenset(self)!r}, "
            f"digest_bytes={self.digest_bytes!r})"
        )

    def __reduce__(self) -> Tuple[type, Tuple[Tuple[bytes, ...], int]]:
        # frozenset's own reduction would drop the slot.
        return (type(self), (tuple(self), self.digest_bytes))

    @property
    def digests(self) -> FrozenSet[bytes]:
        """The digests: a read-only view that is the set itself."""
        return self

    def intersects(self, other: "MaskedSet") -> bool:
        """True when the two masked sets share at least one digest."""
        # frozenset.isdisjoint iterates the smaller operand in C — same
        # semantics as probing each digest of the smaller set, without the
        # Python-level loop this sits under (every membership test in every
        # pairwise conflict/ranking scan lands here).
        return not self.isdisjoint(other)

    def wire_bytes(self) -> int:
        """Serialized size in bytes (cardinality x digest length)."""
        return len(self) * self.digest_bytes


def _encode(prefixes: Tuple[Prefix, ...], domain: bytes) -> Tuple[bytes, ...]:
    """The HMAC input of each prefix: domain label, then ``O(p)`` bytes."""
    return tuple(
        domain + numericalized_to_bytes(numericalize(p), p.width)
        for p in prefixes
    )


@lru_cache(maxsize=65536)
def _family_table(
    domain: bytes, x: int, width: int
) -> Tuple[Tuple[Prefix, ...], Tuple[bytes, ...]]:
    prefixes = tuple(prefix_family(x, width))
    return prefixes, _encode(prefixes, domain)


@lru_cache(maxsize=65536)
def _cover_table(
    domain: bytes, low: int, high: int, width: int
) -> Tuple[Tuple[Prefix, ...], Tuple[bytes, ...]]:
    prefixes = tuple(range_cover(low, high, width))
    return prefixes, _encode(prefixes, domain)


@dataclass(frozen=True, slots=True)
class MaskSpec:
    """One prefix set awaiting masking: the unit of the batch API.

    ``prefixes`` keeps input order — digest order must match what a
    per-prefix loop would produce so cached and cold results interleave
    transparently.  The spec carries its HMAC inputs, encoded once when it
    is built: :meth:`of` encodes any prefix set, while :meth:`family` and
    :meth:`cover` look theirs up in memo tables keyed by value.
    """

    key: bytes
    prefixes: Tuple[Prefix, ...]
    domain: bytes = b""
    digest_bytes: int = DEFAULT_DIGEST_BYTES
    _messages: Optional[Tuple[bytes, ...]] = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self._messages is None:
            object.__setattr__(
                self, "_messages", _encode(self.prefixes, self.domain)
            )

    @staticmethod
    def of(
        key: bytes,
        prefixes: Iterable[Prefix],
        *,
        domain: bytes = b"",
        digest_bytes: int = DEFAULT_DIGEST_BYTES,
    ) -> "MaskSpec":
        """Build a spec from any prefix iterable (tuple-ifies for hashing)."""
        return MaskSpec(key, tuple(prefixes), domain, digest_bytes)

    @staticmethod
    def family(
        key: bytes,
        x: int,
        width: int,
        *,
        domain: bytes = b"",
        digest_bytes: int = DEFAULT_DIGEST_BYTES,
    ) -> "MaskSpec":
        """The spec of ``G(x)``; equal to ``of(key, prefix_family(x, width))``."""
        prefixes, messages = _family_table(domain, x, width)
        return MaskSpec(key, prefixes, domain, digest_bytes, messages)

    @staticmethod
    def cover(
        key: bytes,
        low: int,
        high: int,
        width: int,
        *,
        domain: bytes = b"",
        digest_bytes: int = DEFAULT_DIGEST_BYTES,
    ) -> "MaskSpec":
        """The spec of ``Q([low, high])``; equal to
        ``of(key, range_cover(low, high, width))``."""
        prefixes, messages = _cover_table(domain, low, high, width)
        return MaskSpec(key, prefixes, domain, digest_bytes, messages)

    def messages(self) -> Tuple[bytes, ...]:
        """The exact HMAC inputs, in prefix order."""
        return self._messages  # type: ignore[return-value]


def mask_spec_digests(specs: Sequence[MaskSpec]) -> List[Tuple[bytes, ...]]:
    """Truncated digests for every spec, in spec/prefix order.

    The workhorse under every ``mask_*`` entry point: cache-hit specs are
    answered from :mod:`repro.crypto.cache`; the misses are flattened into
    a single :func:`hmac_digest_pairs` backend call and written back.  No
    ``prefix.*`` counters fire here — callers count the :class:`MaskedSet`
    objects they actually build (padded sets count their fillers too).
    """
    results: List[Optional[Tuple[bytes, ...]]] = [None] * len(specs)
    cache = get_mask_cache() if cache_enabled() else None
    pending: List[Tuple[int, Tuple[bytes, ...]]] = []
    for index, spec in enumerate(specs):
        messages = spec.messages()
        if cache is not None:
            hit = cache.get((spec.key, spec.domain, spec.digest_bytes, messages))
            if hit is not None:
                results[index] = hit
                continue
        pending.append((index, messages))

    if pending:
        flat = [
            (specs[index].key, message)
            for index, messages in pending
            for message in messages
        ]
        digests = hmac_digest_pairs(flat)
        cursor = 0
        for index, messages in pending:
            spec = specs[index]
            truncated = tuple(
                d[: spec.digest_bytes]
                for d in digests[cursor : cursor + len(messages)]
            )
            cursor += len(messages)
            results[index] = truncated
            if cache is not None:
                cache.put(
                    (spec.key, spec.domain, spec.digest_bytes, messages), truncated
                )
    return results  # type: ignore[return-value]


def mask_specs(specs: Sequence[MaskSpec]) -> List[MaskedSet]:
    """Mask every spec'd prefix set in one backend batch.

    Equivalent, digest for digest, to calling :func:`mask_prefixes` once
    per spec — the property-test suite asserts exactly that.
    """
    out = []
    for spec, digests in zip(specs, mask_spec_digests(specs)):
        masked = MaskedSet(digests, spec.digest_bytes)
        obs.count("prefix.masked_sets")
        obs.count("prefix.masked_digests", len(masked))
        out.append(masked)
    return out


def _draw_fillers(rng: random.Random, digest_bytes: int, count: int) -> List[bytes]:
    """``count`` fillers from one ``getrandbits`` call, bit-identical to
    ``count`` successive ``getrandbits(8 * digest_bytes)`` draws.

    CPython's ``getrandbits(k)`` fills 32-bit words least significant
    first and keeps only the top ``k % 32`` bits of a last partial word.
    One draw of whole words for every filler therefore holds the words of
    the successive draws in order, least significant first; a partial top
    word is cut back to its leading bytes.
    """
    stride = -(-digest_bytes // 4) * 4  # bytes of whole words per filler
    blob = rng.getrandbits(8 * stride * count).to_bytes(stride * count, "big")
    starts = range(len(blob) - stride, -1, -stride)
    if stride == digest_bytes:
        return [blob[s : s + stride] for s in starts]
    head = digest_bytes - stride + 4  # bytes kept of the top word
    return [blob[s : s + head] + blob[s + 4 : s + stride] for s in starts]


def pad_masked_set(
    digests: Set[bytes],
    *,
    ceiling: int,
    digest_bytes: int,
    rng: random.Random,
) -> MaskedSet:
    """Pad genuine digests with random fillers up to ``ceiling`` and seal.

    Fillers come from the caller's RNG at call time — never from a cache —
    so draw order is bit-identical whether the genuine digests were
    computed or recalled.  All missing fillers come from one draw whose
    bits equal one draw per filler; a filler colliding with an existing
    digest is simply redrawn by the ``while``, as a filler-at-a-time loop
    would redraw it.
    """
    missing = ceiling - len(digests)
    while missing > 0:
        digests.update(_draw_fillers(rng, digest_bytes, missing))
        missing = ceiling - len(digests)
    obs.count("prefix.masked_sets")
    obs.count("prefix.masked_digests", len(digests))
    return MaskedSet(digests, digest_bytes)


def mask_prefixes(
    key: bytes,
    prefixes: Sequence[Prefix],
    *,
    domain: bytes = b"",
    digest_bytes: int = DEFAULT_DIGEST_BYTES,
) -> MaskedSet:
    """HMAC-mask an explicit prefix collection.

    ``domain`` is a context label prepended to every HMAC input.  The paper
    keys x- and y-coordinates identically; we add domain separation as a
    conservative hardening — it never changes protocol results because a
    family and the ranges it is tested against always share a domain.
    """
    return mask_specs(
        [MaskSpec.of(key, prefixes, domain=domain, digest_bytes=digest_bytes)]
    )[0]


def mask_value(
    key: bytes,
    x: int,
    width: int,
    *,
    domain: bytes = b"",
    digest_bytes: int = DEFAULT_DIGEST_BYTES,
) -> MaskedSet:
    """Mask the prefix family ``G(x)`` — always ``width + 1`` digests."""
    return mask_specs(
        [MaskSpec.family(key, x, width, domain=domain, digest_bytes=digest_bytes)]
    )[0]


def mask_range(
    key: bytes,
    low: int,
    high: int,
    width: int,
    *,
    domain: bytes = b"",
    digest_bytes: int = DEFAULT_DIGEST_BYTES,
    pad_to: Optional[int] = None,
    rng: Optional[random.Random] = None,
) -> MaskedSet:
    """Mask the range cover ``Q([low, high])``.

    With ``pad_to`` set (the advanced scheme uses ``2w - 2``), random filler
    digests are appended so the set's cardinality stops revealing how wide
    the range is.  Fillers are drawn from the full digest space, so the
    probability that one collides with a genuine masked prefix — which would
    flip a membership test — is about ``2**-(8*digest_bytes - 6)`` per set
    and is ignored, exactly as the paper does.
    """
    spec = MaskSpec.cover(
        key, low, high, width, domain=domain, digest_bytes=digest_bytes
    )
    digests = mask_spec_digests([spec])[0]
    if pad_to is None:
        masked = MaskedSet(digests, digest_bytes)
        obs.count("prefix.masked_sets")
        obs.count("prefix.masked_digests", len(masked))
        return masked
    ceiling = max(pad_to, max_cover_size(width))
    if rng is None:
        rng = fresh_rng()
    return pad_masked_set(
        set(digests), ceiling=ceiling, digest_bytes=digest_bytes, rng=rng
    )


def is_member(masked_family: MaskedSet, masked_range: MaskedSet) -> bool:
    """The prefix membership check: ``x in [a, b]`` on masked data.

    Correct whenever both sets were produced under the same key and domain:
    ``H(G(x))`` intersects ``H(Q([a, b]))`` iff ``x`` lies in ``[a, b]``
    (up to the negligible filler-collision probability noted above).
    """
    obs.count("prefix.membership_checks")
    return masked_family.intersects(masked_range)


def find_maxima(
    families: Sequence[MaskedSet], tail_ranges: Sequence[MaskedSet]
) -> List[int]:
    """Indices of maximal bids, given masked families and ``[b_a, bmax]`` covers.

    Bid ``i`` is maximal iff its family intersects *every* submitted tail
    range (equation (3) of the paper): ``G(b_i) ∩ Q([b_a, bmax]) ≠ ∅`` means
    ``b_i >= b_a``.  Ties are genuine — equal bids are indistinguishable
    under the masking — so all maximal indices are returned and the caller
    breaks ties (the allocation algorithm picks uniformly at random).
    """
    if len(families) != len(tail_ranges):
        raise ValueError("families and tail_ranges must align")
    obs.count("prefix.find_maxima")
    return [
        i
        for i, family in enumerate(families)
        if all(is_member(family, rng_set) for rng_set in tail_ranges)
    ]
