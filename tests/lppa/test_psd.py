"""The masked bid table and its equivalence with the integer view."""

import dataclasses
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.keys import generate_keyring
from repro.lppa.bids_advanced import BidScale, submit_bids_advanced
from repro.lppa.bids_basic import submit_bids_basic
from repro.lppa.fastsim import IntegerMaskedTable
from repro.lppa.policies import UniformReplacePolicy
from repro.lppa.psd import MaskedBidTable, rank_by_ge, rank_masked_column
from repro.prefix.membership import MaskedSet, is_member

SCALE = BidScale(bmax=30, rd=4, cr=8)
KEYRING = generate_keyring(b"psd-test", 3, rd=4, cr=8)


def _world(bid_rows, seed=0):
    """Masked table + the hidden expanded values it encodes."""
    rng = random.Random(seed)
    submissions, values = [], []
    for uid, bids in enumerate(bid_rows):
        submission, disclosure = submit_bids_advanced(
            uid, bids, KEYRING, SCALE, rng
        )
        submissions.append(submission)
        values.append([c.masked_expanded for c in disclosure.channels])
    return MaskedBidTable(submissions), values


def test_ranking_matches_hidden_values():
    table, values = _world([[5, 0, 30], [17, 2, 1], [0, 9, 30], [30, 30, 0]])
    for channel in range(3):
        flat = [u for cls in table.ranking(channel) for u in cls]
        expected = sorted(range(4), key=lambda u: -values[u][channel])
        assert [values[u][channel] for u in flat] == [
            values[u][channel] for u in expected
        ]


def test_max_bidders_tracks_deletions():
    table, values = _world([[5, 0, 0], [17, 0, 0], [9, 0, 0]])
    order = sorted(range(3), key=lambda u: -values[u][0])
    assert table.max_bidders(0) == [order[0]]
    table.remove_row(order[0])
    assert table.max_bidders(0) == [order[1]]
    table.remove_entry(order[1], 0)
    assert table.max_bidders(0) == [order[2]]


def test_bid_ge_is_the_masked_order_oracle():
    table, values = _world([[5, 0, 0], [17, 0, 0]])
    for i in range(2):
        for j in range(2):
            assert table.bid_ge(i, j, 0) == (values[i][0] >= values[j][0])


def test_bid_ge_memo_keeps_channels_and_pairs_apart():
    """Each (channel, i, j) has its own memo slot, and an index outside the
    table is refused rather than read from another slot."""
    table, values = _world([[5, 30, 0], [17, 2, 9], [0, 9, 30]])
    for _ in range(2):  # second pass is answered from the memo
        for channel, i, j in itertools.product(range(3), repeat=3):
            assert table.bid_ge(i, j, channel) == (
                values[i][channel] >= values[j][channel]
            )
    for i, j, channel in [(3, 0, 0), (0, 3, 0), (-1, 0, 0), (0, 0, 3), (0, 0, -1)]:
        with pytest.raises(IndexError):
            table.bid_ge(i, j, channel)


def test_empty_column_raises():
    table, _ = _world([[5, 0, 0]])
    table.remove_row(0)
    assert not table.has_entries()
    with pytest.raises(ValueError):
        table.max_bidders(0)


def test_masked_bid_accessor_and_bounds():
    table, _ = _world([[5, 0, 0]])
    assert table.masked_bid(0, 2).ciphertext
    with pytest.raises(IndexError):
        table.masked_bid(1, 0)
    with pytest.raises(IndexError):
        table.masked_bid(0, 3)


def test_dense_ids_enforced():
    rng = random.Random(0)
    submission, _ = submit_bids_advanced(3, [1, 2, 3], KEYRING, SCALE, rng)
    with pytest.raises(ValueError):
        MaskedBidTable([submission])


def test_integer_table_mirrors_masked_table():
    """The fast simulator's table must behave identically on the same values."""
    bid_rows = [[5, 0, 30], [17, 2, 1], [0, 9, 30]]
    masked, values = _world(bid_rows, seed=42)
    integer = IntegerMaskedTable(values)
    for channel in range(3):
        assert masked.ranking(channel) == integer.ranking(channel)
        assert masked.max_bidders(channel) == integer.max_bidders(channel)
    masked.remove_row(1)
    integer.remove_row(1)
    masked.remove_entry(0, 2)
    integer.remove_entry(0, 2)
    for channel in range(3):
        assert masked.channel_bidders(channel) == integer.channel_bidders(channel)
        if masked.channel_bidders(channel):
            assert masked.max_bidders(channel) == integer.max_bidders(channel)


def test_integer_table_validation():
    with pytest.raises(ValueError):
        IntegerMaskedTable([])
    with pytest.raises(ValueError):
        IntegerMaskedTable([[1, 2], [3]])
    with pytest.raises(ValueError):
        IntegerMaskedTable([[]])


def _oracle_ranking(column):
    """The comparison sort over pairwise membership tests."""
    return rank_by_ge(
        len(column), lambda i, j: is_member(column[i].family, column[j].tail)
    )


_bid_rows = st.lists(
    st.lists(st.integers(min_value=0, max_value=30), min_size=3, max_size=3),
    min_size=1,
    max_size=30,
)


@settings(max_examples=40, deadline=None)
@given(
    bid_rows=_bid_rows,
    seed=st.integers(min_value=0, max_value=2**16),
    replace=st.sampled_from([0.0, 0.3, 1.0]),
)
def test_rank_masked_column_equals_rank_by_ge_on_advanced_columns(
    bid_rows, seed, replace
):
    rng = random.Random(seed)
    submissions = [
        submit_bids_advanced(
            uid, bids, KEYRING, SCALE, rng, policy=UniformReplacePolicy(replace)
        )[0]
        for uid, bids in enumerate(bid_rows)
    ]
    table = MaskedBidTable(submissions)
    for channel in range(3):
        column = table.column(channel)
        expected = _oracle_ranking(column)
        assert rank_masked_column(column) == expected
        assert table.ranking(channel) == expected


@settings(max_examples=25, deadline=None)
@given(bid_rows=_bid_rows, seed=st.integers(min_value=0, max_value=2**16))
def test_rank_masked_column_equals_rank_by_ge_on_basic_columns(bid_rows, seed):
    rng = random.Random(seed)
    submissions = [
        submit_bids_basic(uid, bids, KEYRING, 30, rng)
        for uid, bids in enumerate(bid_rows)
    ]
    table = MaskedBidTable(submissions)
    for channel in range(3):
        assert rank_masked_column(table.column(channel)) == _oracle_ranking(
            table.column(channel)
        )


def _is_total_preorder(column):
    n = len(column)

    def ge(i, j):
        return is_member(column[i].family, column[j].tail)

    total = all(ge(i, j) or ge(j, i) for i, j in itertools.combinations(range(n), 2))
    transitive = all(
        ge(i, k) or not (ge(i, j) and ge(j, k))
        for i, j, k in itertools.permutations(range(n), 3)
    )
    return total and transitive


@settings(max_examples=60, deadline=None)
@given(
    bids=st.lists(st.integers(min_value=0, max_value=30), min_size=2, max_size=7),
    seed=st.integers(min_value=0, max_value=2**16),
    swaps=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=6),
            st.booleans(),
            st.integers(min_value=0, max_value=6),
            st.booleans(),
        ),
        min_size=1,
        max_size=3,
    ),
)
def test_rank_masked_column_fails_closed_on_tampered_columns(bids, seed, swaps):
    """Sets replayed into other bidders' slots: the ranking either raises
    the total-order assertion, or — when the tampered column is still a
    total preorder — equals the comparison sort."""
    rng = random.Random(seed)
    column = [
        submit_bids_advanced(uid, [bid, 0, 0], KEYRING, SCALE, rng)[0]
        .channel_bids[0]
        for uid, bid in enumerate(bids)
    ]
    n = len(column)
    for victim, into_family, source, from_family in swaps:
        donor = column[source % n]
        column[victim % n] = dataclasses.replace(
            column[victim % n],
            **{"family" if into_family else "tail": (
                donor.family if from_family else donor.tail
            )},
        )
    try:
        ranked = rank_masked_column(column)
    except AssertionError:
        return
    if _is_total_preorder(column):
        assert ranked == _oracle_ranking(column)


def test_rank_masked_column_rejects_an_inconsistent_chain():
    """A tail emptied of its genuine digests makes that bidder look below
    everyone while its family still ranks it: the chain check trips."""
    rng = random.Random(5)
    column = [
        submit_bids_advanced(uid, [bid, 0, 0], KEYRING, SCALE, rng)[0]
        .channel_bids[0]
        for uid, bid in enumerate([20, 5, 12])
    ]
    column[1] = dataclasses.replace(
        column[1], tail=MaskedSet(frozenset({bytes(16)}), digest_bytes=16)
    )
    with pytest.raises(AssertionError):
        rank_masked_column(column)
