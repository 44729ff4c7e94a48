"""Speck64/128 block cipher in CTR mode — the TTP's symmetric key ``gc``.

LPPA's charging protocol (PSD, section V.B) requires each bidder to attach a
copy of every bid encrypted under a symmetric key ``gc`` known only to the
TTP.  The auctioneer forwards the winning ciphertext to the TTP, which
decrypts it, strips the ``cr`` expansion and ``rd`` offset, and returns the
charge (or an *invalid winner* notification for a disguised zero).

Speck64/128 (Beaulieu et al., NSA 2013) is used because it is compact enough
to implement from scratch and its 64-bit block comfortably holds the 32-bit
expanded bid plus a per-message random nonce, which gives the
ciphertext-indistinguishability that the paper's ``cr`` trick relies on (the
auctioneer must not be able to match equal plaintext bids by equal
ciphertexts).
"""

from __future__ import annotations

import struct
from typing import Dict, List, Sequence, Tuple

__all__ = ["Speck64128", "ctr_encrypt", "ctr_decrypt"]

_MASK32 = 0xFFFFFFFF
_ROUNDS = 27  # Speck64/128


def _ror(x: int, r: int) -> int:
    return ((x >> r) | (x << (32 - r))) & _MASK32


def _rol(x: int, r: int) -> int:
    return ((x << r) | (x >> (32 - r))) & _MASK32


class Speck64128:
    """Speck with a 64-bit block and 128-bit key.

    The class exposes raw single-block ``encrypt_block``/``decrypt_block``
    plus the CTR-mode helpers used by the protocol, and
    :meth:`encrypt_blocks`, the lane-batched kernel that seals bids.
    """

    block_size = 8
    key_size = 16

    def __init__(self, key: bytes) -> None:
        if len(key) != self.key_size:
            raise ValueError(
                f"Speck64/128 needs a {self.key_size}-byte key, got {len(key)}"
            )
        # Key words l[2], l[1], l[0], k[0] little-endian per the Speck paper.
        k0, l0, l1, l2 = struct.unpack("<4I", key)
        self._round_keys = [k0]
        l = [l0, l1, l2]
        for i in range(_ROUNDS - 1):
            new_l = (self._round_keys[i] + _ror(l[i], 8)) & _MASK32
            new_l ^= i
            new_k = _rol(self._round_keys[i], 3) ^ new_l
            l.append(new_l)
            self._round_keys.append(new_k)
        # Per lane count in use: the 32-bit lane mask and the round keys,
        # each repeated into every lane.
        self._lanes: Dict[int, Tuple[int, Tuple[int, ...]]] = {}

    def encrypt_block(self, block: bytes) -> bytes:
        """Encrypt one 8-byte block."""
        if len(block) != self.block_size:
            raise ValueError("Speck64 block must be 8 bytes")
        y, x = struct.unpack("<2I", block)
        for k in self._round_keys:
            x = ((_ror(x, 8) + y) & _MASK32) ^ k
            y = _rol(y, 3) ^ x
        return struct.pack("<2I", y, x)

    def decrypt_block(self, block: bytes) -> bytes:
        """Decrypt one 8-byte block."""
        if len(block) != self.block_size:
            raise ValueError("Speck64 block must be 8 bytes")
        y, x = struct.unpack("<2I", block)
        for k in reversed(self._round_keys):
            y = _ror(y ^ x, 3)
            x = _rol(((x ^ k) - y) & _MASK32, 8)
        return struct.pack("<2I", y, x)

    def encrypt_blocks(self, blocks: Sequence[bytes]) -> List[bytes]:
        """Encrypt many 8-byte blocks at once; equal to ``encrypt_block`` each.

        The sealing kernel: every bid of a submission is one CTR keystream
        block.  Block ``i``'s words sit in 64-bit lane ``i`` of one Python
        int per Speck word (SWAR), so each of the 27 rounds is a dozen
        whole-int operations whatever the lane count.  A 32-bit word sits
        in the low half of its lane; the high half gives the rotations room
        to wrap and the addition room to carry without reaching the next
        lane, and every result is masked back to 32 bits.
        """
        n = len(blocks)
        if n == 0:
            return []
        if any(len(block) != self.block_size for block in blocks):
            raise ValueError("Speck64 block must be 8 bytes")
        lanes = self._lanes.get(n)
        if lanes is None:
            ones = sum(1 << (64 * i) for i in range(n))
            lanes = (_MASK32 * ones, tuple(k * ones for k in self._round_keys))
            self._lanes[n] = lanes
        m32, keys = lanes
        # A block is its little-endian words y, x: lane i of the whole
        # little-endian int is y_i | x_i << 32.
        words = int.from_bytes(b"".join(blocks), "little")
        y = words & m32
        x = (words >> 32) & m32
        for k in keys:
            # ror(x, 8) and rol(y, 3): copy each lane's word into the
            # lane's high half, shift the pair, keep the low half.
            x = (((((x | (x << 32)) >> 8) & m32) + y) & m32) ^ k
            y = (((y | (y << 32)) >> 29) & m32) ^ x
        out = (y | (x << 32)).to_bytes(8 * n, "little")
        return [out[i : i + 8] for i in range(0, 8 * n, 8)]

    def _keystream(self, nonce: bytes, n_bytes: int) -> bytes:
        if len(nonce) != 4:
            raise ValueError("CTR nonce must be 4 bytes")
        stream = bytearray()
        counter = 0
        while len(stream) < n_bytes:
            block = nonce + struct.pack("<I", counter)
            stream += self.encrypt_block(block)
            counter += 1
        return bytes(stream[:n_bytes])


def ctr_encrypt(cipher: Speck64128, nonce: bytes, plaintext: bytes) -> bytes:
    """Encrypt ``plaintext`` under CTR mode with a caller-chosen nonce.

    The nonce must be unique per message under a given key; the protocol
    layer draws it from the bidder's RNG and prepends it to the ciphertext
    on the wire.
    """
    stream = cipher._keystream(nonce, len(plaintext))
    return bytes(p ^ s for p, s in zip(plaintext, stream))


def ctr_decrypt(cipher: Speck64128, nonce: bytes, ciphertext: bytes) -> bytes:
    """CTR decryption (identical to encryption)."""
    return ctr_encrypt(cipher, nonce, ciphertext)
