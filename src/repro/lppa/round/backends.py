"""Value backends: what the numbers in a round *are*.

The round core (:mod:`repro.lppa.round.core`) fixes the phase pipeline;
a :class:`ValueBackend` decides how each phase manipulates values:

* a :class:`PrivacyScheme` — one complete wire protocol, round hooks and
  wire half in one object: payload tags and strict codecs, per-SU
  sealing (used by :mod:`repro.net.client` and the in-process bid loop),
  the announcement fields and the trace auditor's size models.  Scheme
  rounds produce :class:`~repro.lppa.round.results.LppaResult`.  Two
  exist, looked up by name in :mod:`repro.lppa.schemes.registry`:

  * :class:`CryptoBackend` (``ppbs``) — the paper's protocol: masked
    location/bid submissions, the HMAC-masked table inside
    :class:`~repro.lppa.auctioneer.Auctioneer`, TTP decryption for
    charging;
  * :class:`~repro.lppa.schemes.bloom.BloomBackend` (``bloom``) —
    Bloom-filter locations and OPE bids.

* :class:`PlainBackend` — the order-isomorphic integer pipeline: the same
  :func:`~repro.lppa.bids_advanced.disguise_and_expand` values without the
  masking plumbing, plus the simulator-only extensions (second pricing,
  allocation-time revalidation).  Produces
  :class:`~repro.lppa.round.results.FastLppaResult`.

Backends are stateless — all per-round data lives on the
:class:`~repro.lppa.round.state.RoundState` — so the module-level
:data:`CRYPTO_BACKEND` / :data:`PLAIN_BACKEND` singletons are shared by
every wrapper.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.analysis.comm_cost import predicted_bid_bits
from repro.auction.allocation import greedy_allocate, greedy_allocate_validated
from repro.auction.conflict import build_conflict_graph
from repro.auction.outcome import AuctionOutcome, WinRecord
from repro.auction.pricing import greedy_allocate_priced, second_price_charge
from repro.geo.grid import Cell, GridSpec
from repro.lppa.auctioneer import Auctioneer
from repro.lppa.bids_advanced import (
    BidScale,
    SubmissionDisclosure,
    disguise_and_expand,
    submit_bids_advanced,
)
from repro.lppa.codec import decode_bids, decode_location, encode_bids, encode_location
from repro.lppa.location import submit_location, submit_locations
from repro.lppa.messages import BidSubmission, LocationSubmission
from repro.lppa.policies import ZeroDisguisePolicy
from repro.lppa.round.results import FastLppaResult, LppaResult
from repro.lppa.round.state import RoundState
from repro.lppa.round.tables import IntegerMaskedTable
from repro.lppa.ttp import TrustedThirdParty

__all__ = [
    "CRYPTO_BACKEND",
    "PLAIN_BACKEND",
    "CryptoBackend",
    "PlainBackend",
    "PrivacyScheme",
    "ValueBackend",
]

#: (event name, visibility, fields) triples emitted as trace ``meta`` records.
TraceMeta = Tuple[str, str, Dict[str, Any]]


class ValueBackend(ABC):
    """One phase pipeline, two value representations (crypto vs plain)."""

    #: Human-readable backend identifier (appears in docs and tests).
    name: str = "abstract"

    @abstractmethod
    def setup(self, state: RoundState) -> None:
        """Fill in the round's setup material (TTP keys / bid scale)."""

    @abstractmethod
    def setup_trace(self, state: RoundState) -> Sequence[TraceMeta]:
        """The trace ``meta`` records announcing this round."""

    @abstractmethod
    def make_locations(self, state: RoundState) -> None:
        """In-process bidder side of the location phase (driver-invoked)."""

    @abstractmethod
    def ingest_locations(self, state: RoundState) -> None:
        """Auctioneer side: turn location material into a conflict graph."""

    @abstractmethod
    def make_bids(self, state: RoundState) -> None:
        """In-process bidder side of the bid phase (driver-invoked)."""

    @abstractmethod
    def ingest_bids(self, state: RoundState) -> None:
        """Auctioneer side: accept the round's bid material."""

    @abstractmethod
    def allocate(self, state: RoundState) -> None:
        """PSD allocation: rankings plus Algorithm 3 over the bid table."""

    @abstractmethod
    def charge_request(self, state: RoundState) -> Optional[List[Any]]:
        """Winner material for the TTP, or ``None`` when charging is local."""

    @abstractmethod
    def finish_charges(
        self, state: RoundState, decisions: Optional[Sequence[Any]]
    ) -> None:
        """Fold charge decisions into the round outcome."""

    @abstractmethod
    def finalize(self, state: RoundState) -> None:
        """Assemble ``state.result`` and the round-end trace arguments."""


class PrivacyScheme(ValueBackend):
    """One complete location-privacy auction protocol, selectable by name.

    Adds the wire half to the round hooks: what one SU seals, how the
    sealed messages travel, and what the trace auditor may expect of
    them.  Each scheme's payloads carry distinct leading tag bytes, so a
    strict decoder for one scheme rejects another scheme's bytes.  The
    in-process bid loop and :meth:`finalize` are shared; every
    submission type exposes ``user_id``, ``wire_bytes()``,
    ``wire_size()``, ``masked_set_bytes()`` and ``trace_fields()``.
    """

    #: Leading payload tag of this scheme's location submissions.
    location_tag: bytes = b""

    #: Leading payload tag of this scheme's bid submissions.
    bid_tag: bytes = b""

    # -- bidder side ---------------------------------------------------------

    @abstractmethod
    def seal_location(
        self,
        user_id: int,
        cell: Cell,
        keyring: Any,
        grid: GridSpec,
        two_lambda: int,
    ) -> Any:
        """Mask one SU's location into this scheme's wire message."""

    @abstractmethod
    def seal_bids(
        self,
        user_id: int,
        bids: Any,
        keyring: Any,
        scale: BidScale,
        rng: random.Random,
        *,
        policy: Optional[ZeroDisguisePolicy] = None,
    ) -> Tuple[Any, SubmissionDisclosure]:
        """Seal one SU's bid vector; returns (wire message, disclosure)."""

    # -- payload codecs (scheme-tagged, strict) ------------------------------

    @abstractmethod
    def encode_location(self, submission: Any) -> bytes:
        """Serialize a location submission (payload of a LOCATION frame)."""

    @abstractmethod
    def decode_location(self, data: bytes) -> Any:
        """Strict inverse of :meth:`encode_location`; raises
        :class:`repro.lppa.codec.CodecError` on malformed bytes."""

    @abstractmethod
    def encode_bids(self, submission: Any) -> bytes:
        """Serialize a bid submission (payload of a BIDS frame)."""

    @abstractmethod
    def decode_bids(self, data: bytes) -> Any:
        """Strict inverse of :meth:`encode_bids`."""

    # -- announcement and auditor hooks --------------------------------------

    def announcement_fields(self) -> Dict[str, Any]:
        """Extra keys the auction announcement (WELCOME) carries.

        PPBS contributes nothing, which keeps its announcement — and the
        trace correlation key derived from it — byte-identical to the
        single-scheme protocol; every other scheme names itself so
        clients can follow.
        """
        return {"scheme": self.name} if self.name != "ppbs" else {}

    @abstractmethod
    def expected_framing(self, kind: str, record: Dict[str, Any]) -> Optional[int]:
        """Framing bytes (wire size minus payload) of one recorded message.

        ``kind`` is the trace message kind (``location_submission``,
        ``bid_submission``, ``charge_request``, ``charge_decision``);
        ``record`` the trace event.  ``None`` means the scheme makes no
        framing claim for this kind (the auditor then skips the check).
        """

    @abstractmethod
    def audit_bid_round(
        self,
        round_idx: int,
        bid_msgs: Any,
        setup_args: Dict[str, Any],
    ) -> Tuple[Optional[Dict[str, Any]], Tuple[str, ...]]:
        """Check one round's recorded bid submissions against the scheme's
        exact size model (Theorem 4 for PPBS; the fixed OPE ciphertext
        width for the Bloom scheme).

        Returns ``(fields, errors)`` where ``fields`` carries the
        per-round audit numbers (``n_users``, ``n_channels``, ``width``,
        ``digest_bytes``, ``predicted_bits``, ``measured_masked_bits``)
        or ``None`` when the round cannot be audited, and ``errors`` the
        divergence strings.  The trace auditor
        (:func:`repro.analysis.trace_audit.audit_comm_cost`) supplies the
        byte totals and wraps the fields into its report rows.
        """

    # -- round hooks shared by every scheme -----------------------------------

    def _setup_ttp(self, state: RoundState) -> None:
        # The net server performs TTP setup once at construction and
        # prefills the state; per-round setup happens for in-process runs.
        if state.scale is None:
            state.ttp, state.keyring, state.scale = TrustedThirdParty.setup(
                state.seed,
                state.n_channels,
                bmax=state.bmax,
                rd=state.rd,
                cr=state.cr,
            )

    def make_bids(self, state: RoundState) -> None:
        assert state.users is not None and state.user_rngs is not None
        assert state.keyring is not None and state.scale is not None
        assert state.policies is not None
        subs = []
        for idx, user in enumerate(state.users):
            submission, disclosure = self.seal_bids(
                idx,
                user.bids,
                state.keyring,
                state.scale,
                state.user_rngs[idx],
                policy=state.policies[idx],
            )
            subs.append(submission)
            state.disclosures.append(disclosure)
        state.bid_subs = subs

    def finalize(self, state: RoundState) -> None:
        assert state.location_subs is not None and state.bid_subs is not None
        assert state.outcome is not None
        # Exact serialized sizes (payload + framing): every submission
        # type's wire_size() equals the length of its codec output.
        framed = sum(s.wire_size() for s in state.location_subs) + sum(
            s.wire_size() for s in state.bid_subs
        )
        state.framed_bytes = framed
        obs.count("lppa.framed_bytes", framed)
        obs.count("lppa.rounds")
        assert state.location_bytes is not None and state.bid_bytes is not None
        assert state.conflict is not None and state.rankings is not None
        state.result = LppaResult(
            outcome=state.outcome,
            conflict_graph=state.conflict,
            rankings=state.rankings,
            disclosures=state.disclosure_tuple(),
            location_bytes=state.location_bytes,
            bid_bytes=state.bid_bytes,
            masked_set_bytes=sum(s.masked_set_bytes() for s in state.bid_subs),
            framed_bytes=framed,
        )
        state.round_end_args = {
            "winners": len(state.outcome.wins),
            "framed_bytes": framed,
            "payload_bytes": state.location_bytes + state.bid_bytes,
        }


# Framing (wire size minus payload) per PPBS message kind — the same
# arithmetic repro.lppa.messages/codec encode: tag + four set headers for a
# location; tag + channel count, plus two set headers + a ciphertext length
# per channel, for bids; two set headers + ciphertext length for the masked
# bid inside a charge request; none for the fixed-size charge decision.
_LOCATION_FRAMING = 1 + 4 * 3
_BID_FRAMING_BASE = 1 + 2
_BID_FRAMING_PER_CHANNEL = 2 * 3 + 2
_CHARGE_REQUEST_FRAMING = 2 * 3 + 2


class CryptoBackend(PrivacyScheme):
    """PPBS, the paper's protocol: prefix-membership masking end to end
    (sections IV-V), masked table, TTP charging."""

    name = "ppbs"
    location_tag = b"L"
    bid_tag = b"B"

    def setup(self, state: RoundState) -> None:
        self._setup_ttp(state)

    def setup_trace(self, state: RoundState) -> Sequence[TraceMeta]:
        scale = state.scale
        assert scale is not None and state.grid is not None
        return (
            # rd/cr/width are hidden from the auctioneer (only bidders and
            # the TTP hold them); the announcement is what everyone sees.
            (
                "protocol_setup",
                "ttp",
                {
                    "n_users": state.n_users,
                    "n_channels": state.n_channels,
                    "bmax": state.bmax,
                    "rd": state.rd,
                    "cr": state.cr,
                    "width": scale.width,
                    "emax": scale.emax,
                    "two_lambda": state.two_lambda,
                },
            ),
            (
                "auction_announcement",
                "public",
                {
                    "n_users": state.n_users,
                    "n_channels": state.n_channels,
                    "bmax": state.bmax,
                    "two_lambda": state.two_lambda,
                    "grid_rows": state.grid.rows,
                    "grid_cols": state.grid.cols,
                },
            ),
        )

    def make_locations(self, state: RoundState) -> None:
        assert state.users is not None and state.keyring is not None
        assert state.grid is not None
        # All SUs share g0, so the whole population's location masking is
        # one batch through the crypto backend (digest-identical to the
        # per-user submit_location loop).
        state.location_subs = submit_locations(
            [user.cell for user in state.users],
            state.keyring.g0,
            state.grid,
            state.two_lambda,
        )

    def ingest_locations(self, state: RoundState) -> None:
        assert state.location_subs is not None
        state.auctioneer = Auctioneer(state.n_channels)
        # The conflict-graph timer isolates the auctioneer-side work from
        # the bidder-side masking that shares this phase — the scale sweep
        # reads it to report the auctioneer's wall time.
        with obs.timer("lppa.conflict_graph"):
            state.conflict = state.auctioneer.receive_locations(
                state.location_subs
            )
        state.location_bytes = sum(s.wire_bytes() for s in state.location_subs)

    def ingest_bids(self, state: RoundState) -> None:
        assert state.auctioneer is not None and state.bid_subs is not None
        state.auctioneer.receive_bids(state.bid_subs)
        state.bid_bytes = sum(s.wire_bytes() for s in state.bid_subs)

    def allocate(self, state: RoundState) -> None:
        assert state.auctioneer is not None and state.alloc_rng is not None
        # channel_rankings/run_allocation emit their own trace events
        # (ranking records, assignment instants, conflict-graph instants
        # having been emitted at ingest time).
        state.rankings = state.auctioneer.channel_rankings()
        state.assignments = state.auctioneer.run_allocation(state.alloc_rng)

    def charge_request(self, state: RoundState) -> Optional[List[Any]]:
        assert state.auctioneer is not None
        return state.auctioneer.charge_material()

    def finish_charges(
        self, state: RoundState, decisions: Optional[Sequence[Any]]
    ) -> None:
        assert state.auctioneer is not None and decisions is not None
        assert state.bid_subs is not None
        state.outcome = state.auctioneer.assemble_outcome(
            decisions, n_users=len(state.bid_subs)
        )

    # -- wire half -------------------------------------------------------------

    def seal_location(
        self,
        user_id: int,
        cell: Cell,
        keyring: Any,
        grid: GridSpec,
        two_lambda: int,
    ) -> LocationSubmission:
        return submit_location(user_id, cell, keyring.g0, grid, two_lambda)

    def seal_bids(
        self,
        user_id: int,
        bids: Any,
        keyring: Any,
        scale: BidScale,
        rng: random.Random,
        *,
        policy: Optional[ZeroDisguisePolicy] = None,
    ) -> Tuple[BidSubmission, SubmissionDisclosure]:
        return submit_bids_advanced(
            user_id, bids, keyring, scale, rng, policy=policy
        )

    def encode_location(self, submission: LocationSubmission) -> bytes:
        return encode_location(submission)

    def decode_location(self, data: bytes) -> LocationSubmission:
        return decode_location(data)

    def encode_bids(self, submission: BidSubmission) -> bytes:
        return encode_bids(submission)

    def decode_bids(self, data: bytes) -> BidSubmission:
        return decode_bids(data)

    def expected_framing(self, kind: str, record: Dict[str, Any]) -> Optional[int]:
        if kind == "location_submission":
            return _LOCATION_FRAMING
        if kind == "bid_submission":
            return _BID_FRAMING_BASE + _BID_FRAMING_PER_CHANNEL * int(
                record.get("n_channels") or 0
            )
        if kind == "charge_request":
            return _CHARGE_REQUEST_FRAMING
        return 0

    def audit_bid_round(
        self,
        round_idx: int,
        bid_msgs: Any,
        setup_args: Dict[str, Any],
    ) -> Tuple[Optional[Dict[str, Any]], Tuple[str, ...]]:
        errors: List[str] = []
        width = int(setup_args["width"])
        n_channels = int(setup_args["n_channels"])
        digest_values = {int(m.get("digest_bytes") or 0) for m in bid_msgs}
        if len(digest_values) != 1:
            errors.append(
                f"round {round_idx}: inconsistent digest_bytes across bid "
                f"submissions: {sorted(digest_values)}"
            )
            return None, tuple(errors)
        digest_bytes = digest_values.pop()
        measured_bits = sum(int(m.get("masked_set_bytes") or 0) for m in bid_msgs) * 8
        predicted = predicted_bid_bits(len(bid_msgs), n_channels, width, digest_bytes)

        # Per-message exactness first: every submission is deterministically
        # padded to (3w - 1) digests per channel, so each must match alone.
        per_user = predicted / len(bid_msgs)
        for msg in bid_msgs:
            got = int(msg.get("masked_set_bytes") or 0) * 8
            if got != per_user:
                errors.append(
                    f"round {round_idx}: su={msg.get('su')} masked material "
                    f"{got} bits != Theorem 4 per-user {per_user} bits"
                )
        if measured_bits != predicted:
            errors.append(
                f"round {round_idx}: measured masked bits {measured_bits} != "
                f"Theorem 4 prediction {predicted} "
                f"(N={len(bid_msgs)}, k={n_channels}, w={width}, "
                f"digest_bytes={digest_bytes})"
            )
        fields = {
            "n_users": len(bid_msgs),
            "n_channels": n_channels,
            "width": width,
            "digest_bytes": digest_bytes,
            "predicted_bits": predicted,
            "measured_masked_bits": measured_bits,
        }
        return fields, tuple(errors)


class PlainBackend(ValueBackend):
    """The integer pipeline: same values, no masking plumbing."""

    name = "plain"

    def setup(self, state: RoundState) -> None:
        if state.scale is None:
            state.scale = BidScale(bmax=state.bmax, rd=state.rd, cr=state.cr)

    def setup_trace(self, state: RoundState) -> Sequence[TraceMeta]:
        return (
            (
                "auction_announcement",
                "public",
                {
                    "n_users": state.n_users,
                    "n_channels": state.n_channels,
                    "bmax": state.bmax,
                    "two_lambda": state.two_lambda,
                    "fastsim": True,
                },
            ),
        )

    def make_locations(self, state: RoundState) -> None:
        """Nothing to synthesize: the plain path reads cells directly."""

    def ingest_locations(self, state: RoundState) -> None:
        if state.conflict is None:
            assert state.users is not None
            with obs.timer("lppa.conflict_graph"):
                state.conflict = build_conflict_graph(
                    [u.cell for u in state.users], state.two_lambda
                )

    def make_bids(self, state: RoundState) -> None:
        assert state.users is not None and state.user_rngs is not None
        assert state.scale is not None and state.policies is not None
        state.disclosures = [
            SubmissionDisclosure(
                user_id=idx,
                channels=tuple(
                    disguise_and_expand(
                        user.bids,
                        state.scale,
                        state.user_rngs[idx],
                        policy=state.policies[idx],
                    )
                ),
            )
            for idx, user in enumerate(state.users)
        ]

    def ingest_bids(self, state: RoundState) -> None:
        """The integer table is built lazily in :meth:`allocate` so its cost
        lands in the ``psd_allocation`` phase, like the masked table's."""

    def allocate(self, state: RoundState) -> None:
        assert state.conflict is not None and state.alloc_rng is not None
        table = IntegerMaskedTable(
            [[c.masked_expanded for c in d.channels] for d in state.disclosures]
        )
        state.table = table
        state.rankings = table.rankings()
        tr = state.tr
        if tr is not None:
            for channel, classes in enumerate(state.rankings):
                tr.ranking(channel, classes)
        if state.pricing == "second":
            state.sales = greedy_allocate_priced(
                table, state.conflict, state.alloc_rng
            )
        elif state.revalidate:
            # §V.B extension: the TTP's invalid-winner notifications feed
            # back into the allocation loop, which retries the channel.
            state.assignments, state.ttp_rejections = greedy_allocate_validated(
                table,
                state.conflict,
                state.alloc_rng,
                lambda bidder, channel: state.true_bid(bidder, channel) > 0,
            )
        else:
            state.assignments = greedy_allocate(
                table, state.conflict, state.alloc_rng
            )

    def charge_request(self, state: RoundState) -> Optional[List[Any]]:
        return None  # charging needs no TTP exchange at integer level

    def finish_charges(
        self, state: RoundState, decisions: Optional[Sequence[Any]]
    ) -> None:
        # Charging follows the TTP's rules: a winner whose *true* offset
        # value lies in the zero band [0, rd] is invalid, pays nothing and
        # does not count as satisfied.
        wins: List[WinRecord] = []
        if state.pricing == "second":
            assert state.sales is not None
            for sale in state.sales:
                valid = state.true_bid(sale.bidder, sale.channel) > 0
                charge = (
                    second_price_charge(sale, state.true_bid) if valid else 0
                )
                wins.append(
                    WinRecord(
                        bidder=sale.bidder,
                        channel=sale.channel,
                        charge=charge,
                        valid=valid,
                    )
                )
        else:
            assert state.assignments is not None
            for a in state.assignments:
                valid = state.true_bid(a.bidder, a.channel) > 0
                wins.append(
                    WinRecord(
                        bidder=a.bidder,
                        channel=a.channel,
                        charge=state.true_bid(a.bidder, a.channel) if valid else 0,
                        valid=valid,
                    )
                )
        tr = state.tr
        if tr is not None:
            for record in wins:
                tr.instant(
                    "assignment",
                    vis="auctioneer",
                    bidder=record.bidder,
                    channel=record.channel,
                )
        obs.count("lppa.winners", len(wins))
        state.wins = wins
        assert state.users is not None
        state.outcome = AuctionOutcome(n_users=len(state.users), wins=tuple(wins))

    def finalize(self, state: RoundState) -> None:
        obs.count("lppa.fast_rounds")
        assert state.outcome is not None and state.conflict is not None
        assert state.rankings is not None
        state.result = FastLppaResult(
            outcome=state.outcome,
            conflict_graph=state.conflict,
            rankings=state.rankings,
            disclosures=state.disclosure_tuple(),
            ttp_rejections=state.ttp_rejections,
        )
        state.round_end_args = {"winners": len(state.outcome.wins)}


#: Shared stateless singletons — every wrapper runs through these instances.
CRYPTO_BACKEND = CryptoBackend()
PLAIN_BACKEND = PlainBackend()
