"""One-draw padding and the memoized family/cover HMAC inputs.

Both are pure speed-ups: padding must consume the caller's RNG exactly as
a filler-at-a-time ``while`` loop does, and a memoized cache key must carry
the same HMAC inputs (and so hit the same cache entries) as a spec built
from its prefixes.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.cache import MaskCache, set_mask_cache
from repro.prefix.membership import (
    MaskSpec,
    cover_cache_key,
    family_cache_key,
    mask_keys,
    mask_specs,
    pad_masked_set,
)
from repro.prefix.prefixes import prefix_family
from repro.prefix.ranges import range_cover

KEY = b"memo-key"
BID_DOMAIN = b"lppa/bid/adv"
LOCATION_DOMAINS = (b"lppa/loc/x", b"lppa/loc/y")


def _pad_reference(digests, ceiling, digest_bytes, rng):
    """The filler-at-a-time loop the one-draw padding must equal."""
    digests = set(digests)
    while len(digests) < ceiling:
        digests.add(rng.getrandbits(8 * digest_bytes).to_bytes(digest_bytes, "big"))
    return frozenset(digests)


@settings(max_examples=60, deadline=None)
@given(
    digest_bytes=st.sampled_from((4, 5, 6, 7, 8, 12, 16, 32)),
    ceiling=st.integers(0, 24),
    genuine=st.integers(0, 24),
    seed=st.integers(0, 2**32),
)
def test_one_draw_padding_equals_sequential_loop(
    digest_bytes, ceiling, genuine, seed
):
    start = {
        random.Random(seed ^ i).getrandbits(8 * digest_bytes).to_bytes(
            digest_bytes, "big"
        )
        for i in range(genuine)
    }
    batch_rng, loop_rng = random.Random(seed), random.Random(seed)
    padded = pad_masked_set(
        set(start), ceiling=ceiling, digest_bytes=digest_bytes, rng=batch_rng
    )
    assert padded.digests == _pad_reference(start, ceiling, digest_bytes, loop_rng)
    assert padded.digest_bytes == digest_bytes
    # Same number of bits drawn, so every later draw is unchanged too.
    assert batch_rng.getstate() == loop_rng.getstate()


class _ScriptedRng:
    """Answers ``getrandbits`` from a script and records each request."""

    def __init__(self, answers):
        self.answers = list(answers)
        self.requests = []

    def getrandbits(self, k):
        self.requests.append(k)
        return self.answers.pop(0)


def test_filler_colliding_with_a_genuine_digest_is_redrawn():
    genuine = bytes(range(16))
    filler_1 = bytes([0xA1]) * 16
    filler_2 = bytes([0xB2]) * 16

    def word(d):
        return int.from_bytes(d, "big")

    # The first filler (least significant 128 bits) repeats the genuine
    # digest, so the set grows by one only and one more filler is drawn.
    rng = _ScriptedRng([word(genuine) | word(filler_1) << 128, word(filler_2)])
    padded = pad_masked_set({genuine}, ceiling=3, digest_bytes=16, rng=rng)
    assert rng.requests == [256, 128]
    assert padded.digests == {genuine, filler_1, filler_2}

    loop_rng = _ScriptedRng([word(genuine), word(filler_1), word(filler_2)])
    assert _pad_reference({genuine}, 3, 16, loop_rng) == padded.digests


def test_full_set_draws_nothing():
    rng = _ScriptedRng([])
    digests = {bytes([i]) * 8 for i in range(4)}
    padded = pad_masked_set(set(digests), ceiling=4, digest_bytes=8, rng=rng)
    assert rng.requests == []
    assert padded.digests == digests


def _assert_same_key(memoized, built):
    assert memoized == built.cache_key()


def test_memoized_bid_specs_equal_built_ones_over_the_whole_domain():
    """Every family and tail cover of the 11-bit expanded bid domain."""
    width, emax = 11, 1055
    for x in range(emax + 1):
        _assert_same_key(
            family_cache_key(KEY, x, width, domain=BID_DOMAIN),
            MaskSpec.of(KEY, prefix_family(x, width), domain=BID_DOMAIN),
        )
        _assert_same_key(
            cover_cache_key(KEY, x, emax, width, domain=BID_DOMAIN),
            MaskSpec.of(KEY, range_cover(x, emax, width), domain=BID_DOMAIN),
        )


@pytest.mark.parametrize("width", range(1, 8))
def test_memoized_location_specs_equal_built_ones(width):
    """Every family and every range of the small coordinate widths."""
    top = (1 << width) - 1
    for domain in LOCATION_DOMAINS:
        for low in range(top + 1):
            _assert_same_key(
                family_cache_key(KEY, low, width, domain=domain, digest_bytes=8),
                MaskSpec.of(
                    KEY, prefix_family(low, width), domain=domain, digest_bytes=8
                ),
            )
            for high in range(low, top + 1):
                _assert_same_key(
                    cover_cache_key(KEY, low, high, width, domain=domain),
                    MaskSpec.of(KEY, range_cover(low, high, width), domain=domain),
                )


def test_memoized_specs_validate_like_built_ones():
    with pytest.raises(ValueError):
        family_cache_key(KEY, 16, 4)
    with pytest.raises(ValueError):
        cover_cache_key(KEY, 5, 4, 4)


def test_entry_cached_through_of_is_hit_by_memoized_specs():
    cache = MaskCache()
    previous = set_mask_cache(cache)
    try:
        built = mask_specs(
            [
                MaskSpec.of(KEY, prefix_family(300, 11), domain=BID_DOMAIN),
                MaskSpec.of(KEY, range_cover(300, 1055, 11), domain=BID_DOMAIN),
            ]
        )
        assert (cache.hits, cache.misses) == (0, 2)
        memoized = mask_keys(
            [
                family_cache_key(KEY, 300, 11, domain=BID_DOMAIN),
                cover_cache_key(KEY, 300, 1055, 11, domain=BID_DOMAIN),
            ]
        )
        assert (cache.hits, cache.misses) == (2, 2)
        assert all(m is b for m, b in zip(memoized, built))
    finally:
        set_mask_cache(previous)
