"""Basic Private Bid Submission protocol (section IV.B).

The first, deliberately imperfect scheme: one shared HMAC key ``gb`` masks
every bid's prefix family ``G(b)`` and tail cover ``Q([b, bmax])``.  The
auctioneer finds the maximum bid of a channel by checking equation (3):
``b_mx`` is maximal iff its family intersects every submitted tail range.

Section IV.C.1 then demonstrates three leaks — cross-channel comparability,
the frequency signature of zero bids, and range-prefix cardinality — that
motivate the advanced scheme in :mod:`repro.lppa.bids_advanced`.  The basic
scheme is kept as a runnable protocol both for the paper's Fig. 3 worked
example and so the leak analyses can be demonstrated in tests.
"""

from __future__ import annotations

import random
from functools import lru_cache
from typing import List, Sequence

from repro import obs
from repro.crypto.keys import KeyRing
from repro.crypto.speck import Speck64128, ctr_encrypt
from repro.lppa.messages import BidSubmission, MaskedBid
from repro.prefix.membership import cover_cache_key, family_cache_key, mask_keys
from repro.prefix.prefixes import bit_width_for

__all__ = [
    "submit_bids_basic",
    "draw_bid_nonce",
    "encrypt_bid_values",
    "encrypt_bid_value",
    "decrypt_bid_value",
]

_BID_DOMAIN = b"lppa/bid"
_PLAINTEXT_BYTES = 4
_COUNTER_ZERO = bytes(4)


@lru_cache(maxsize=64)
def _cipher_for(gc: bytes) -> Speck64128:
    # The 27-round Speck key schedule dominates a single 8-byte CTR
    # encryption; a round encrypts thousands of values under one gc, so
    # keep the expanded schedule around.  After construction Speck64128
    # only memoizes lane-repeated copies of that schedule, so the shared
    # instance is safe.
    return Speck64128(gc)


def draw_bid_nonce(value: int, rng: random.Random) -> bytes:
    """Check that ``value`` fits the wire format, then draw its CTR nonce.

    Sealing callers draw each channel's nonce here, at the point of their
    RNG stream where it has always been drawn, and encrypt every channel
    afterwards in one :func:`encrypt_bid_values` call.
    """
    if value < 0 or value >= 1 << (8 * _PLAINTEXT_BYTES):
        raise ValueError(f"bid value {value} outside the 32-bit wire format")
    return rng.getrandbits(32).to_bytes(4, "big")


def encrypt_bid_values(
    gc: bytes, values: Sequence[int], nonces: Sequence[bytes]
) -> List[bytes]:
    """(nonce || CTR ciphertext) of each value under the TTP key ``gc``.

    ``nonces[i]`` comes from :func:`draw_bid_nonce` for ``values[i]``.  A
    4-byte plaintext needs only the counter-0 keystream block, so one
    :meth:`Speck64128.encrypt_blocks` call seals the whole batch; the
    result equals :func:`ctr_encrypt` under each nonce byte for byte.
    """
    if len(values) != len(nonces):
        raise ValueError(f"{len(values)} bid values but {len(nonces)} nonces")
    obs.count("crypto.speck.encrypt", len(values))
    blocks = _cipher_for(gc).encrypt_blocks(
        [nonce + _COUNTER_ZERO for nonce in nonces]
    )
    return [
        nonce
        + (value ^ int.from_bytes(block[:_PLAINTEXT_BYTES], "big")).to_bytes(
            _PLAINTEXT_BYTES, "big"
        )
        for value, nonce, block in zip(values, nonces, blocks)
    ]


def encrypt_bid_value(gc: bytes, value: int, rng: random.Random) -> bytes:
    """(nonce || CTR ciphertext) of a bid value under the TTP key ``gc``."""
    return encrypt_bid_values(gc, [value], [draw_bid_nonce(value, rng)])[0]


def decrypt_bid_value(gc: bytes, blob: bytes) -> int:
    """Inverse of :func:`encrypt_bid_value` (TTP side)."""
    obs.count("crypto.speck.decrypt")
    if len(blob) != 4 + _PLAINTEXT_BYTES:
        raise ValueError("malformed bid ciphertext")
    nonce, ct = blob[:4], blob[4:]
    cipher = _cipher_for(gc)
    return int.from_bytes(ctr_encrypt(cipher, nonce, ct), "big")


def submit_bids_basic(
    user_id: int,
    bids: Sequence[int],
    keyring: KeyRing,
    bmax: int,
    rng: random.Random,
) -> BidSubmission:
    """Bidder side of the basic scheme: mask each bid under the shared ``gb``.

    No zero disguise, no offset, no expansion, no padding — the masked set
    cardinalities and frequencies leak exactly as section IV.C.1 describes.
    """
    if bmax < 1:
        raise ValueError("bmax must be >= 1")
    width = bit_width_for(bmax)
    keys = []
    for bid in bids:
        if not 0 <= bid <= bmax:
            raise ValueError(f"bid {bid} outside [0, {bmax}]")
        keys.append(family_cache_key(keyring.gb, bid, width, domain=_BID_DOMAIN))
        keys.append(cover_cache_key(keyring.gb, bid, bmax, width, domain=_BID_DOMAIN))
    # One backend batch masks every channel's family and tail (the mask
    # cache's shared sets); ciphertext nonces are then drawn per channel in
    # the original order (masking consumes no randomness, so the RNG
    # stream is unchanged).
    masked = mask_keys(keys)
    channel_bids = [
        MaskedBid(
            family=masked[2 * ch],
            tail=masked[2 * ch + 1],
            ciphertext=encrypt_bid_value(keyring.gc, bid, rng),
        )
        for ch, bid in enumerate(bids)
    ]
    return BidSubmission(user_id=user_id, channel_bids=tuple(channel_bids))
