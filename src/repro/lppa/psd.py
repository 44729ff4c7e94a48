"""Private Spectrum Distribution — the masked bid table (section V.A).

After PPBS the auctioneer holds, for every (bidder, channel), a masked
prefix family and tail cover.  :class:`MaskedBidTable` turns that pile into
the :class:`~repro.auction.table.BidTable` interface, so the greedy
Algorithm 3 in :mod:`repro.auction.allocation` runs on it unchanged.

"Find the maximum of a column" is implemented by first recovering each
channel's total *order* of bidders from the membership relation
(``G(b_i) ∩ Q([b_j, emax]) != ∅  <=>  b_i >= b_j``) — an operation the
curious auctioneer can always perform, which is precisely why the paper's
attacker model (section VI.C) grants the adversary the ordered bid table.
The same ranking is therefore exposed via :meth:`MaskedBidTable.ranking`
as the attack surface for :mod:`repro.attacks.against_lppa`.

:func:`rank_masked_column` recovers that order by counting digests rather
than sorting by pairwise tests, then confirms it with ``2N - 2`` pairwise
tests; :func:`rank_by_ge` is the comparison sort it must agree with.
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter
from typing import Callable, Dict, List, Optional, Sequence, Set

from repro.auction.table import BidTable
from repro.lppa.messages import BidSubmission, MaskedBid
from repro.prefix.membership import is_member

__all__ = ["MaskedBidTable", "rank_by_ge", "rank_masked_column"]


def rank_by_ge(
    n_users: int, ge: Callable[[int, int], bool]
) -> List[List[int]]:
    """Total order of ``range(n_users)`` under ``ge``, as equivalence classes.

    ``ge(i, j)`` answers ``b_i >= b_j``; it must be a total preorder (every
    masked column is, up to the negligible filler-collision probability).
    Classes come best first, members in ascending id order (the sort is
    stable).  This O(N log N) comparison sort is the reference ranking:
    :func:`rank_masked_column` must return list-identical classes, which the
    property tests check.
    """

    def compare(i: int, j: int) -> int:
        i_ge_j = ge(i, j)
        j_ge_i = ge(j, i)
        if i_ge_j and j_ge_i:
            return 0
        if i_ge_j:
            return -1  # i sorts first (descending order)
        if j_ge_i:
            return 1
        raise AssertionError(
            "masked comparison is not total: filler-digest collision?"
        )

    order = sorted(range(n_users), key=functools.cmp_to_key(compare))
    classes: List[List[int]] = []
    for bidder in order:
        if classes and compare(classes[-1][0], bidder) == 0:
            classes[-1].append(bidder)
        else:
            classes.append([bidder])
    return classes


def _column_ge(column: Sequence[MaskedBid], i: int, j: int) -> bool:
    """``b_i >= b_j`` within one column: ``G(b_i) ∩ Q([b_j, emax]) != ∅``."""
    return is_member(column[i].family, column[j].tail)


def rank_masked_column(
    column: Sequence[MaskedBid],
    ge: Optional[Callable[[int, int], bool]] = None,
) -> List[List[int]]:
    """Rank one channel's masked column: :func:`rank_by_ge`'s classes.

    Scores each bidder by ``score_i = Σ_{d ∈ family_i} #{tails holding d}``.
    A genuine tail is the minimal cover of ``[b_j, emax]`` — disjoint
    prefixes — and a family holds one prefix per level, so the family
    meets a tail in at most one digest, and does so iff ``b_i >= b_j``:
    ``score_i = #{j : b_i >= b_j}``, strictly monotone in the bid.  A
    stable sort on ``-score`` therefore yields the classes of
    :func:`rank_by_ge`, members in ascending id order.

    The scores only propose the order; ``ge`` (``b_i >= b_j`` on masked
    sets) confirms it: every member must be mutually ``>=`` its class
    head, and each head strictly above the next.  That is ``2N - 2``
    tests instead of the sort's O(N log N), and a column that is not a
    total preorder along the proposed chain (a tampered digest, a filler
    collision) raises ``AssertionError`` as the comparison sort does.

    Without ``ge`` the column's own :func:`is_member` tests are used (the
    chain never asks one ordered pair twice); :meth:`MaskedBidTable.ranking`
    passes its memoized :meth:`bid_ge`.
    """
    if ge is None:
        ge = functools.partial(_column_ge, column)
    holders = Counter(
        itertools.chain.from_iterable(bid.tail.digests for bid in column)
    )
    scores = [
        sum(holders.get(digest, 0) for digest in bid.family.digests)
        for bid in column
    ]
    classes: List[List[int]] = []
    for bidder in sorted(range(len(column)), key=lambda b: -scores[b]):
        if classes:
            head = classes[-1][0]
            tied = scores[head] == scores[bidder]
            # A tie must be mutual >=; a new head must sit strictly below.
            if not ge(head, bidder) or ge(bidder, head) != tied:
                raise AssertionError(
                    "masked comparison is not total: filler-digest collision?"
                )
            if tied:
                classes[-1].append(bidder)
                continue
        classes.append([bidder])
    return classes


class MaskedBidTable(BidTable):
    """Algorithm 3's table ``T`` over HMAC-masked bids."""

    def __init__(self, submissions: Sequence[BidSubmission]) -> None:
        if not submissions:
            raise ValueError("bid table needs at least one submission")
        widths = {s.n_channels for s in submissions}
        if len(widths) != 1:
            raise ValueError("all submissions must cover the same channels")
        self._n_channels = widths.pop()
        for idx, sub in enumerate(submissions):
            if sub.user_id != idx:
                raise ValueError(
                    f"submissions must be dense: slot {idx} holds user {sub.user_id}"
                )
        self._n_users = len(submissions)
        # Live entries: per channel, the set of bidders still in the column.
        self._live: List[Set[int]] = [
            set(range(self._n_users)) for _ in range(self._n_channels)
        ]
        self._bids: List[List[MaskedBid]] = [
            [sub.channel_bids[ch] for sub in submissions]
            for ch in range(self._n_channels)
        ]
        self._rankings: List[Optional[List[List[int]]]] = [None] * self._n_channels
        # max_bidders cursor: index of the first ranking class that may
        # still contain a live bidder.  Entries are only ever removed, so a
        # fully-dead class stays dead and the cursor moves monotonically.
        self._cursors: List[int] = [0] * self._n_channels
        # Memoized pairwise verdicts: (channel, i, j) -> "b_i >= b_j".  The
        # masked sets are immutable for the round, so each ordered pair
        # needs at most one membership test, shared by ranking()'s chain
        # verification and every later probe (attack layer, tests).  The
        # triple is packed into one int key: a tuple key per pair would be
        # one more object for the garbage collector to track.
        self._ge_cache: Dict[int, bool] = {}

    # BidTable interface --------------------------------------------------------

    @property
    def n_channels(self) -> int:
        return self._n_channels

    def has_entries(self) -> bool:
        return any(self._live)

    def channel_bidders(self, channel: int) -> Set[int]:
        self._check_channel(channel)
        return set(self._live[channel])

    def max_bidders(self, channel: int) -> List[int]:
        self._check_channel(channel)
        live = self._live[channel]
        if not live:
            raise ValueError(f"channel {channel} has no remaining bids")
        ranking = self.ranking(channel)
        cursor = self._cursors[channel]
        while cursor < len(ranking):
            remaining = [b for b in ranking[cursor] if b in live]
            if remaining:
                self._cursors[channel] = cursor
                return remaining
            cursor += 1
        raise AssertionError("ranking must cover every live bidder")

    def has_channel_entries(self, channel: int) -> bool:
        self._check_channel(channel)
        return bool(self._live[channel])

    def remove_row(self, bidder: int) -> None:
        self._check_bidder(bidder)
        for live in self._live:
            live.discard(bidder)

    def remove_entry(self, bidder: int, channel: int) -> None:
        self._check_bidder(bidder)
        self._check_channel(channel)
        self._live[channel].discard(bidder)

    # Masked-order machinery -----------------------------------------------------

    def masked_bid(self, bidder: int, channel: int) -> MaskedBid:
        """The submission material for one entry (used at charging time)."""
        self._check_bidder(bidder)
        self._check_channel(channel)
        return self._bids[channel][bidder]

    def bid_ge(self, i: int, j: int, channel: int) -> bool:
        """``b_i >= b_j`` on this channel, decided purely on masked sets.

        Memoized per ``(channel, i, j)``: the verdict is a pure function of
        the round's immutable submissions, so repeat queries (the ranking's
        equivalence-class pass, attack-layer probes) cost a dict lookup.
        """
        n = self._n_users
        if not (0 <= i < n and 0 <= j < n and 0 <= channel < self._n_channels):
            raise IndexError(f"no entry ({i}, {j}) on channel {channel}")
        key = (channel * n + i) * n + j
        cached = self._ge_cache.get(key)
        if cached is None:
            column = self._bids[channel]
            cached = is_member(column[i].family, column[j].tail)
            self._ge_cache[key] = cached
        return cached

    def ranking(self, channel: int) -> List[List[int]]:
        """Total order of *all* bidders on a channel, best first.

        Returned as equivalence classes: bidders within a class submitted
        equal masked values (mutually >=).  Computed once per channel with
        :func:`rank_masked_column` with ``2N - 2`` memoized :meth:`bid_ge`
        tests and cached — deletions never change the underlying order.
        """
        self._check_channel(channel)
        cached = self._rankings[channel]
        if cached is not None:
            return cached
        classes = rank_masked_column(
            self._bids[channel], ge=lambda i, j: self.bid_ge(i, j, channel)
        )
        self._rankings[channel] = classes
        return classes

    def rankings(self) -> List[List[List[int]]]:
        """All channels' rankings (the attacker's full view of the table)."""
        return [self.ranking(ch) for ch in range(self._n_channels)]

    def column(self, channel: int) -> List[MaskedBid]:
        """One channel's masked column in bidder order."""
        self._check_channel(channel)
        return list(self._bids[channel])

    # Internals -------------------------------------------------------------------

    def _check_channel(self, channel: int) -> None:
        if not 0 <= channel < self._n_channels:
            raise IndexError(f"channel {channel} outside 0..{self._n_channels - 1}")

    def _check_bidder(self, bidder: int) -> None:
        if not 0 <= bidder < self._n_users:
            raise IndexError(f"bidder {bidder} outside 0..{self._n_users - 1}")
