"""HMAC-masked membership verification and max-finding."""

import copy
import pickle
import random
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lppa.codec import decode_masked_set, encode_masked_set
from repro.prefix.membership import (
    MaskedSet,
    find_maxima,
    is_member,
    mask_range,
    mask_value,
)
from repro.prefix.ranges import max_cover_size

KEY = b"test-key"


def test_paper_worked_example():
    """7 in [6, 14]: the masked sets share the digest of 01110."""
    family = mask_value(KEY, 7, 4)
    cover = mask_range(KEY, 6, 14, 4)
    assert is_member(family, cover)


def test_non_membership():
    cover = mask_range(KEY, 6, 14, 4)
    assert not is_member(mask_value(KEY, 5, 4), cover)
    assert not is_member(mask_value(KEY, 15, 4), cover)


def test_different_keys_never_match():
    family = mask_value(b"key-a", 7, 4)
    cover = mask_range(b"key-b", 0, 15, 4)
    assert not is_member(family, cover)


def test_domain_separation():
    family = mask_value(KEY, 7, 4, domain=b"x")
    cover_x = mask_range(KEY, 0, 15, 4, domain=b"x")
    cover_y = mask_range(KEY, 0, 15, 4, domain=b"y")
    assert is_member(family, cover_x)
    assert not is_member(family, cover_y)


def test_padding_fixes_cardinality():
    width = 4
    pad = max_cover_size(width)
    narrow = mask_range(KEY, 10, 14, width, pad_to=pad, rng=random.Random(1))
    wide = mask_range(KEY, 5, 14, width, pad_to=pad, rng=random.Random(2))
    assert len(narrow) == len(wide) == pad


def test_unpadded_cardinality_leaks():
    """The leak the advanced scheme closes: range width shows in set size."""
    assert len(mask_range(KEY, 10, 14, 4)) != len(mask_range(KEY, 5, 14, 4))


def test_padding_preserves_membership_semantics():
    width = 6
    cover = mask_range(
        KEY, 20, 40, width, pad_to=max_cover_size(width), rng=random.Random(3)
    )
    for x in (19, 20, 30, 40, 41):
        assert is_member(mask_value(KEY, x, width), cover) == (20 <= x <= 40)


def test_masked_set_validation():
    with pytest.raises(ValueError):
        MaskedSet(frozenset({b"short"}), digest_bytes=16)
    with pytest.raises(ValueError):
        MaskedSet(frozenset(), digest_bytes=2)


def test_equality_and_hash_cover_digest_bytes():
    assert MaskedSet((), digest_bytes=8) != MaskedSet((), digest_bytes=16)
    assert hash(MaskedSet((), digest_bytes=8)) != hash(MaskedSet((), digest_bytes=16))
    assert len({MaskedSet((), digest_bytes=8), MaskedSet((), digest_bytes=16)}) == 2
    digests = {bytes([i]) * 8 for i in range(3)}
    assert MaskedSet(digests, 8) == MaskedSet(tuple(digests), digest_bytes=8)
    assert hash(MaskedSet(digests, 8)) == hash(MaskedSet(frozenset(digests), 8))
    assert not MaskedSet(digests, 8) != MaskedSet(digests, 8)


def test_keyword_form_and_repr():
    masked = MaskedSet(digests=frozenset({b"abcd"}), digest_bytes=4)
    assert masked.digest_bytes == 4
    assert repr(masked) == "MaskedSet(digests=frozenset({b'abcd'}), digest_bytes=4)"
    assert len(MaskedSet()) == 0


def test_masked_set_is_immutable():
    masked = mask_value(KEY, 7, 4)
    with pytest.raises(FrozenInstanceError):
        masked.digest_bytes = 8  # type: ignore[misc]
    with pytest.raises(FrozenInstanceError):
        masked.extra = 1  # type: ignore[attr-defined]
    with pytest.raises(FrozenInstanceError):
        del masked.digest_bytes
    assert masked.digest_bytes == 16
    assert not hasattr(masked, "__dict__")


@pytest.mark.parametrize("digest_bytes", [8, 16])
def test_pickle_and_deepcopy_keep_digest_bytes(digest_bytes):
    masked = mask_value(KEY, 9, 5, digest_bytes=digest_bytes)
    empty = MaskedSet((), digest_bytes=digest_bytes)
    for original in (masked, empty):
        for clone in (
            pickle.loads(pickle.dumps(original)),
            copy.deepcopy(original),
            copy.copy(original),
        ):
            assert type(clone) is MaskedSet
            assert clone == original
            assert clone.digest_bytes == digest_bytes


def test_digests_view_iterates_the_same_digests():
    masked = mask_range(KEY, 3, 12, 5, pad_to=8, rng=random.Random(4))
    assert sorted(masked.digests) == sorted(masked)
    assert masked.digests == frozenset(masked)
    assert len(masked.digests) == len(masked) == 8


_digest_sets = st.frozensets(st.binary(min_size=6, max_size=6), max_size=8)


@settings(max_examples=100, deadline=None)
@given(_digest_sets, _digest_sets)
def test_set_semantics_agree_with_frozenset(a, b):
    ma, mb = MaskedSet(a, digest_bytes=6), MaskedSet(b, digest_bytes=6)
    assert ma.intersects(mb) == bool(a & b)
    assert is_member(ma, mb) == (not a.isdisjoint(b))
    assert (ma & mb) == (a & b)
    assert (ma | mb) == (a | b)
    assert (ma - mb) == (a - b)
    assert (ma == mb) == (a == b)
    assert (ma <= mb) == (a <= b)
    assert len(ma) == len(a)
    assert ma.wire_bytes() == 6 * len(a)
    assert set(ma) == set(a)


@settings(max_examples=50, deadline=None)
@given(
    st.integers(min_value=4, max_value=20).flatmap(
        lambda n: st.tuples(
            st.just(n), st.frozensets(st.binary(min_size=n, max_size=n), max_size=10)
        )
    )
)
def test_codec_round_trip_is_equal(case):
    digest_bytes, digests = case
    masked = MaskedSet(digests, digest_bytes=digest_bytes)
    decoded, end = decode_masked_set(encode_masked_set(masked))
    assert decoded == masked
    assert type(decoded) is MaskedSet
    assert decoded.digest_bytes == digest_bytes
    assert end == 3 + masked.wire_bytes()


def test_wire_bytes():
    family = mask_value(KEY, 7, 4, digest_bytes=8)
    assert family.wire_bytes() == 5 * 8  # (w + 1) digests of 8 bytes


def test_find_maxima_paper_bids():
    """Fig. 3's bids {6, 10, 0, 5} with bmax = 14: bidder 1 holds the max."""
    bids = [6, 10, 0, 5]
    families = [mask_value(KEY, b, 4) for b in bids]
    tails = [mask_range(KEY, b, 14, 4) for b in bids]
    assert find_maxima(families, tails) == [1]


def test_find_maxima_reports_all_ties():
    bids = [9, 3, 9, 9]
    families = [mask_value(KEY, b, 4) for b in bids]
    tails = [mask_range(KEY, b, 15, 4) for b in bids]
    assert find_maxima(families, tails) == [0, 2, 3]


def test_find_maxima_validates_lengths():
    with pytest.raises(ValueError):
        find_maxima([mask_value(KEY, 1, 4)], [])


def test_pairwise_order_comparison():
    """G(b_i) vs Q([b_j, bmax]) answers b_i >= b_j — the attacker's oracle."""
    width, bmax = 5, 31
    values = [0, 3, 17, 17, 31]
    families = [mask_value(KEY, v, width) for v in values]
    tails = [mask_range(KEY, v, bmax, width) for v in values]
    for i, vi in enumerate(values):
        for j, vj in enumerate(values):
            assert is_member(families[i], tails[j]) == (vi >= vj)


@st.composite
def _value_and_range(draw):
    width = draw(st.integers(min_value=1, max_value=9))
    x = draw(st.integers(min_value=0, max_value=2**width - 1))
    low = draw(st.integers(min_value=0, max_value=2**width - 1))
    high = draw(st.integers(min_value=low, max_value=2**width - 1))
    return width, x, low, high


@settings(max_examples=100, deadline=None)
@given(_value_and_range())
def test_membership_equals_interval_test(case):
    width, x, low, high = case
    family = mask_value(KEY, x, width)
    cover = mask_range(KEY, low, high, width)
    assert is_member(family, cover) == (low <= x <= high)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=63), min_size=1, max_size=10)
)
def test_find_maxima_equals_argmax(bids):
    width, bmax = 6, 63
    families = [mask_value(KEY, b, width) for b in bids]
    tails = [mask_range(KEY, b, bmax, width) for b in bids]
    best = max(bids)
    assert find_maxima(families, tails) == [
        i for i, b in enumerate(bids) if b == best
    ]
