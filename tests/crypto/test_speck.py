"""Speck64/128, its CTR mode and the lane-batched sealing kernel."""

import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.speck import Speck64128, ctr_decrypt, ctr_encrypt
from repro.lppa.bids_basic import (
    decrypt_bid_value,
    draw_bid_nonce,
    encrypt_bid_value,
    encrypt_bid_values,
)

# The official Speck64/128 test vector (Beaulieu et al., Appendix C):
# key = 1b1a1918 13121110 0b0a0908 03020100, plaintext = 3b726574 7475432d,
# ciphertext = 8c6fa548 454e028b.
OFFICIAL_KEY = struct.pack("<4I", 0x03020100, 0x0B0A0908, 0x13121110, 0x1B1A1918)
OFFICIAL_PT = struct.pack("<2I", 0x7475432D, 0x3B726574)
OFFICIAL_CT = struct.pack("<2I", 0x454E028B, 0x8C6FA548)


def test_official_vector_encrypt():
    assert Speck64128(OFFICIAL_KEY).encrypt_block(OFFICIAL_PT) == OFFICIAL_CT


def test_official_vector_decrypt():
    assert Speck64128(OFFICIAL_KEY).decrypt_block(OFFICIAL_CT) == OFFICIAL_PT


def test_wrong_key_size_rejected():
    with pytest.raises(ValueError):
        Speck64128(b"short")


@pytest.mark.parametrize("bad", [b"", b"7bytes!", b"9 bytes!!"])
def test_wrong_block_size_rejected(bad):
    cipher = Speck64128(OFFICIAL_KEY)
    with pytest.raises(ValueError):
        cipher.encrypt_block(bad)
    with pytest.raises(ValueError):
        cipher.decrypt_block(bad)


@settings(max_examples=50, deadline=None)
@given(key=st.binary(min_size=16, max_size=16), block=st.binary(min_size=8, max_size=8))
def test_block_roundtrip(key, block):
    cipher = Speck64128(key)
    assert cipher.decrypt_block(cipher.encrypt_block(block)) == block


@settings(max_examples=50, deadline=None)
@given(
    key=st.binary(min_size=16, max_size=16),
    nonce=st.binary(min_size=4, max_size=4),
    payload=st.binary(max_size=100),
)
def test_ctr_roundtrip(key, nonce, payload):
    cipher = Speck64128(key)
    assert ctr_decrypt(cipher, nonce, ctr_encrypt(cipher, nonce, payload)) == payload


def test_ctr_distinct_nonces_give_distinct_ciphertexts():
    cipher = Speck64128(OFFICIAL_KEY)
    payload = b"\x00" * 16
    assert ctr_encrypt(cipher, b"aaaa", payload) != ctr_encrypt(cipher, b"bbbb", payload)


def test_ctr_preserves_length():
    cipher = Speck64128(OFFICIAL_KEY)
    for size in (0, 1, 7, 8, 9, 31):
        assert len(ctr_encrypt(cipher, b"nonc", b"x" * size)) == size


def test_ctr_rejects_bad_nonce():
    cipher = Speck64128(OFFICIAL_KEY)
    with pytest.raises(ValueError):
        ctr_encrypt(cipher, b"toolong!", b"payload")


# -- the lane-batched kernel -------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(
    key=st.binary(min_size=16, max_size=16),
    lanes=st.sampled_from((0, 1, 2, 6, 64)),
    data=st.data(),
)
def test_encrypt_blocks_equals_scalar_per_lane(key, lanes, data):
    """Random CTR blocks (nonce || counter) in any lane count encrypt to
    exactly what ``encrypt_block`` gives each one."""
    blocks = [
        data.draw(st.binary(min_size=4, max_size=4))
        + struct.pack("<I", data.draw(st.integers(0, 0xFFFFFFFF)))
        for _ in range(lanes)
    ]
    cipher = Speck64128(key)
    assert cipher.encrypt_blocks(blocks) == [cipher.encrypt_block(b) for b in blocks]


@pytest.mark.parametrize("position", [0, 3, 6])
def test_official_vector_inside_a_batch(position):
    filler = [bytes([i]) * 8 for i in range(6)]
    blocks = filler[:position] + [OFFICIAL_PT] + filler[position:]
    cipher = Speck64128(OFFICIAL_KEY)
    out = cipher.encrypt_blocks(blocks)
    assert out[position] == OFFICIAL_CT
    assert out == [cipher.encrypt_block(b) for b in blocks]


def test_encrypt_blocks_rejects_bad_block_size():
    cipher = Speck64128(OFFICIAL_KEY)
    with pytest.raises(ValueError):
        cipher.encrypt_blocks([OFFICIAL_PT, b"7bytes!"])


@settings(max_examples=30, deadline=None)
@given(
    gc=st.binary(min_size=16, max_size=16),
    value=st.integers(0, 2**32 - 1),
    seed=st.integers(0, 2**32),
)
def test_encrypt_bid_value_is_a_batch_of_one(gc, value, seed):
    """The single-value entry point draws one nonce and seals through the
    batch; both equal the scalar CTR reference and decrypt back."""
    single = encrypt_bid_value(gc, value, random.Random(seed))
    nonce = draw_bid_nonce(value, random.Random(seed))
    assert encrypt_bid_values(gc, [value], [nonce]) == [single]
    assert single == nonce + ctr_encrypt(
        Speck64128(gc), nonce, value.to_bytes(4, "big")
    )
    assert decrypt_bid_value(gc, single) == value


def test_encrypt_bid_values_equals_one_at_a_time():
    gc = bytes(range(16))
    values = [0, 1, 2**31, 2**32 - 1, 12345, 7]
    one_rng, batch_rng = random.Random(5), random.Random(5)
    singles = [encrypt_bid_value(gc, v, one_rng) for v in values]
    nonces = [draw_bid_nonce(v, batch_rng) for v in values]
    assert encrypt_bid_values(gc, values, nonces) == singles
    assert one_rng.getstate() == batch_rng.getstate()


@pytest.mark.parametrize("value", [-1, 2**32])
def test_out_of_range_bid_value_rejected(value):
    with pytest.raises(ValueError):
        encrypt_bid_value(bytes(16), value, random.Random(0))
    with pytest.raises(ValueError):
        draw_bid_nonce(value, random.Random(0))


def test_encrypt_bid_values_needs_one_nonce_per_value():
    with pytest.raises(ValueError):
        encrypt_bid_values(bytes(16), [1, 2], [b"\x00" * 4])
