"""HMAC-masked prefix sets and membership verification (sections II.B, IV).

The protocol's only on-the-wire objects are *masked sets*: the HMAC digests
of numericalized prefixes.  Whoever holds two masked sets can test whether
they share an element — and therefore whether a hidden value lies in a hidden
range — but learns nothing else about either.

This module provides:

* :class:`MaskedSet` — an immutable set of digests with intersection tests;
* :class:`MaskSpec` / :func:`mask_specs` — the batch API for any prefix
  sets: describe many and mask them all in one backend call;
* :func:`family_cache_key` / :func:`cover_cache_key` / :func:`mask_keys` —
  the same batch without spec objects: one cache key per set in, one
  shared sealed set per key out.  The keys' HMAC inputs come from memo
  tables keyed by value, so a repeated value costs no prefix encoding;
* :func:`mask_value` — mask the prefix family ``G(x)`` of a value;
* :func:`mask_range` — mask the cover ``Q([a, b])`` of a range, optionally
  padded with random filler digests to a fixed cardinality (the advanced
  scheme pads to ``2w - 2`` so set sizes stop leaking range widths);
* :func:`is_member` — the core check ``H(G(x)) ∩ H(Q([a,b])) ≠ ∅``;
* :func:`find_maxima` — the auctioneer's masked max-bid search.

Batching changes *how* digests are computed, never *what* they are: a
:func:`mask_specs` call returns byte-for-byte what per-digest
:func:`mask_prefixes` calls would.

Each genuine (unpadded) set is masked once per key epoch.  A masked set is
a pure function of its cache key ``(key, domain, digest size, message
set)``, so :mod:`repro.crypto.cache` stores the sealed :class:`MaskedSet`
under that key and every later request gets the *same* immutable object:
two SUs bidding the same value on one channel hold one family, and the
TTP's re-masked family at charging is that family too.  The hot paths
(bid and location sealing) build those keys straight from the value-keyed
message memos (:func:`family_cache_key`, :func:`cover_cache_key`) and call
:func:`mask_keys` (or, for the advanced scheme's padded tails, the
uncounted :func:`mask_spec_digests`), so no :class:`MaskSpec` is built per
set.

Padded tails are per SU and never cached: :func:`pad_masked_set` starts
from a copy of the shared cover and draws the fillers fresh from the
caller's RNG, so the random stream — and therefore every downstream draw —
is identical with the cache hot, cold, or disabled.  Under
:func:`repro.crypto.cache.cache_disabled` every call builds fresh sets.
"""

from __future__ import annotations

import random
from dataclasses import FrozenInstanceError, dataclass, field
from functools import lru_cache
from typing import FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro import obs
from repro.crypto.backend import hmac_digest_pairs
from repro.crypto.cache import CacheKey, cache_enabled, get_mask_cache
from repro.prefix.numericalize import numericalize, numericalized_to_bytes
from repro.prefix.prefixes import Prefix, prefix_family
from repro.prefix.ranges import max_cover_size, range_cover
from repro.utils.rng import fresh_rng

__all__ = [
    "DEFAULT_DIGEST_BYTES",
    "MaskedSet",
    "MaskSpec",
    "mask_specs",
    "family_cache_key",
    "cover_cache_key",
    "mask_spec_digests",
    "count_masked_sets",
    "mask_keys",
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


def _encode(prefixes: Iterable[Prefix], domain: bytes) -> Tuple[bytes, ...]:
    """The HMAC input of each prefix: domain label, then ``O(p)`` bytes."""
    return tuple(
        domain + numericalized_to_bytes(numericalize(p), p.width)
        for p in prefixes
    )


# The value-keyed message memos.  They keep only the HMAC inputs — what a
# cache key holds — so a remembered value pins no Prefix objects.


@lru_cache(maxsize=65536)
def _family_table(domain: bytes, x: int, width: int) -> Tuple[bytes, ...]:
    return _encode(prefix_family(x, width), domain)


@lru_cache(maxsize=65536)
def _cover_table(domain: bytes, low: int, high: int, width: int) -> Tuple[bytes, ...]:
    return _encode(range_cover(low, high, width), domain)


@dataclass(frozen=True, slots=True)
class MaskSpec:
    """One prefix set awaiting masking: the unit of the batch API.

    ``prefixes`` keeps input order — digest order must match what a
    per-prefix loop would produce so cached and cold results interleave
    transparently.  The spec encodes its HMAC inputs once, when it is
    built; :meth:`cache_key` equals the :func:`family_cache_key` or
    :func:`cover_cache_key` of the same set.
    """

    key: bytes
    prefixes: Tuple[Prefix, ...]
    domain: bytes = b""
    digest_bytes: int = DEFAULT_DIGEST_BYTES
    _messages: Tuple[bytes, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_messages", _encode(self.prefixes, self.domain))

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

    def messages(self) -> Tuple[bytes, ...]:
        """The exact HMAC inputs, in prefix order."""
        return self._messages

    def cache_key(self) -> CacheKey:
        """The mask cache key of this set: what :func:`mask_spec_digests`
        takes.  Equal prefix sets give equal keys however they were built."""
        return (self.key, self.domain, self.digest_bytes, self.messages())


def family_cache_key(
    key: bytes,
    x: int,
    width: int,
    *,
    domain: bytes = b"",
    digest_bytes: int = DEFAULT_DIGEST_BYTES,
) -> CacheKey:
    """The cache key of ``G(x)``: ``MaskSpec.of(key, prefix_family(x,
    width), ...).cache_key()`` without building the spec or the prefixes."""
    return (key, domain, digest_bytes, _family_table(domain, x, width))


def cover_cache_key(
    key: bytes,
    low: int,
    high: int,
    width: int,
    *,
    domain: bytes = b"",
    digest_bytes: int = DEFAULT_DIGEST_BYTES,
) -> CacheKey:
    """The cache key of ``Q([low, high])``: ``MaskSpec.of(key,
    range_cover(low, high, width), ...).cache_key()`` without building the
    spec or the prefixes."""
    return (key, domain, digest_bytes, _cover_table(domain, low, high, width))


def mask_spec_digests(keys: Sequence[CacheKey]) -> List[MaskedSet]:
    """The sealed masked set of every cache key, in key order.

    The workhorse under every ``mask_*`` entry point.  Each key is a set's
    ``(key, domain, digest_bytes, messages)``: :meth:`MaskSpec.cache_key`,
    :func:`family_cache_key` or :func:`cover_cache_key`.  Cache hits return
    the stored set itself; the misses are flattened into a single
    :func:`hmac_digest_pairs` backend call, sealed and written back.  A key
    repeated within one batch misses (and is hashed) each time, as a
    digest-at-a-time loop would, but every copy gets the stored set.

    The sets are shared and immutable; a caller that pads one copies it
    (:func:`pad_masked_set`).  No ``prefix.*`` counters fire here — callers
    count the sets they hand on (:func:`mask_keys` does; padded sets count
    their fillers too).
    """
    cache = get_mask_cache() if cache_enabled() else None
    if cache is None:
        results: List[Optional[MaskedSet]] = [None] * len(keys)
        pending = list(range(len(keys)))
    else:
        lookup = cache.get
        results = [lookup(key) for key in keys]
        pending = [index for index, hit in enumerate(results) if hit is None]

    if pending:
        flat = [
            (keys[index][0], message)
            for index in pending
            for message in keys[index][3]
        ]
        digests = hmac_digest_pairs(flat)
        cursor = 0
        for index in pending:
            cache_key = keys[index]
            digest_bytes = cache_key[2]
            end = cursor + len(cache_key[3])
            masked = MaskedSet(
                [d[:digest_bytes] for d in digests[cursor:end]], digest_bytes
            )
            cursor = end
            if cache is not None:
                masked = cache.put(cache_key, masked)
            results[index] = masked
    return results  # type: ignore[return-value]


def count_masked_sets(sets: Sequence[MaskedSet]) -> None:
    """Count sets handed on unpadded: ``prefix.masked_sets`` and
    ``prefix.masked_digests``."""
    if sets:
        obs.count("prefix.masked_sets", len(sets))
        obs.count("prefix.masked_digests", sum(map(len, sets)))


def mask_keys(keys: Sequence[CacheKey]) -> List[MaskedSet]:
    """:func:`mask_spec_digests`, counted: the entry point for callers that
    hand the shared sets on unpadded."""
    masked = mask_spec_digests(keys)
    count_masked_sets(masked)
    return masked


def mask_specs(specs: Sequence[MaskSpec]) -> List[MaskedSet]:
    """Mask every spec'd prefix set in one backend batch.

    Equivalent, digest for digest, to calling :func:`mask_prefixes` once
    per spec — the property-test suite asserts exactly that.
    """
    return mask_keys([spec.cache_key() for spec in specs])


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

    ``digests`` is filled in place, so pass a fresh set — for a tail, a
    copy of the shared cover, which the padded set then contains.  The
    padded set is the caller's own and is never cached.
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
    """Mask the prefix family ``G(x)`` — always ``width + 1`` digests.

    With the cache on, every call for the same family returns one shared
    set: the TTP's re-mask at charging is the bidder's own family object.
    """
    return mask_keys(
        [family_cache_key(key, x, width, domain=domain, digest_bytes=digest_bytes)]
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
    and is ignored, exactly as the paper does.  The unpadded cover is the
    cache's shared set; a padded one is a fresh set that contains it.
    """
    cache_key = cover_cache_key(
        key, low, high, width, domain=domain, digest_bytes=digest_bytes
    )
    if pad_to is None:
        return mask_keys([cache_key])[0]
    cover = mask_spec_digests([cache_key])[0]
    ceiling = max(pad_to, max_cover_size(width))
    if rng is None:
        rng = fresh_rng()
    return pad_masked_set(
        set(cover), ceiling=ceiling, digest_bytes=digest_bytes, rng=rng
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
