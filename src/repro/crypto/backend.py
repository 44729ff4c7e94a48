"""Pluggable HMAC backends with batch APIs: pure and hashlib.

The repository ships its own SHA-256/HMAC (:mod:`repro.crypto.sha256`,
:mod:`repro.crypto.hmac_impl`) so the masking layer is auditable end to end.
Pure-Python compression is ~300x slower than CPython's built-in OpenSSL
binding, however, and a 129-channel, 200-bidder auction performs millions of
HMAC invocations.  The protocol layer therefore routes every digest through
this seam, which dispatches to one of two :class:`CryptoBackend`
implementations:

* ``"hashlib"`` (default) — ``hmac``/``hashlib`` from the standard library,
  with a per-key precomputed HMAC state that batches amortize via
  ``HMAC.copy()`` (the ipad block is compressed once per key, not once per
  message);
* ``"pure"`` — the in-repo reference implementation, same copy() trick;
  it stays as the RFC-vector and cross-backend oracle.

Both backends are bit-identical; the differential suite in
``tests/crypto/test_backend_equivalence.py`` asserts it digest-for-digest,
including full protocol rounds.  Select a backend with
:func:`set_backend` / :func:`use_backend`, the ``REPRO_CRYPTO_BACKEND``
environment variable, or the CLI's ``--crypto-backend`` flag.

The masking layer batches whole prefix sets into
:func:`hmac_digest_batch` / :func:`hmac_digest_pairs`; scalar callers use
:func:`hmac_digest`.  Every digest is counted under the ``crypto.hmac``
metric when :mod:`repro.obs` is collecting (these functions are the choke
point all masking flows through), and each batch call additionally counts
``crypto.hmac_batches``.
"""

from __future__ import annotations

import contextlib
import hashlib
import hmac as _stdlib_hmac
import os
from typing import Dict, Iterator, List, Sequence, Tuple

from repro import obs
from repro.crypto.hmac_impl import HMAC as _PureHMAC

__all__ = [
    "CryptoBackend",
    "PureBackend",
    "HashlibBackend",
    "hmac_digest",
    "hmac_digest_batch",
    "hmac_digest_pairs",
    "available_backends",
    "get_backend",
    "get_backend_instance",
    "set_backend",
    "use_backend",
]


class CryptoBackend:
    """One HMAC-SHA256 execution strategy.

    Subclasses implement :meth:`hmac`; the batch entry points have generic
    loop implementations that subclasses override when they can do better
    (shared-key state reuse).  Whatever the strategy, outputs must be
    bit-identical across backends — that contract is what lets the protocol
    switch backends without moving a wire byte.
    """

    #: Registry name, set by subclasses.
    name: str = ""

    def hmac(self, key: bytes, msg: bytes) -> bytes:
        """HMAC-SHA256 of one message."""
        raise NotImplementedError

    def hmac_batch(self, key: bytes, msgs: Sequence[bytes]) -> List[bytes]:
        """HMAC-SHA256 of every message under one shared key."""
        return [self.hmac(key, m) for m in msgs]

    def hmac_pairs(self, items: Sequence[Tuple[bytes, bytes]]) -> List[bytes]:
        """HMAC-SHA256 of ``(key, msg)`` pairs — keys may differ per item.

        The default groups consecutive same-key runs into
        :meth:`hmac_batch` calls, which matches how the masking layer
        flattens per-channel sets into one request.
        """
        out: List[bytes] = []
        i = 0
        n = len(items)
        while i < n:
            key = items[i][0]
            j = i
            while j < n and items[j][0] == key:
                j += 1
            out.extend(self.hmac_batch(key, [m for _, m in items[i:j]]))
            i = j
        return out


class PureBackend(CryptoBackend):
    """The in-repo reference implementation (auditable, slow)."""

    name = "pure"

    def hmac(self, key: bytes, msg: bytes) -> bytes:
        return _PureHMAC(key, msg).digest()

    def hmac_batch(self, key: bytes, msgs: Sequence[bytes]) -> List[bytes]:
        if not msgs:
            return []
        # Compress the ipad block once per key; copy() per message.
        base = _PureHMAC(key)
        out = []
        for m in msgs:
            h = base.copy()
            h.update(m)
            out.append(h.digest())
        return out


class HashlibBackend(CryptoBackend):
    """The standard library's OpenSSL-backed HMAC (fastest per digest)."""

    name = "hashlib"

    def hmac(self, key: bytes, msg: bytes) -> bytes:
        return _stdlib_hmac.new(key, msg, hashlib.sha256).digest()

    def hmac_batch(self, key: bytes, msgs: Sequence[bytes]) -> List[bytes]:
        if not msgs:
            return []
        base = _stdlib_hmac.new(key, None, hashlib.sha256)
        out = []
        for m in msgs:
            h = base.copy()
            h.update(m)
            out.append(h.digest())
        return out


_FACTORIES = {
    "pure": PureBackend,
    "hashlib": HashlibBackend,
}
_DEFAULT = "hashlib"

_instances: Dict[str, CryptoBackend] = {}


def _canonical(name: str) -> str:
    if name not in _FACTORIES:
        raise ValueError(
            f"backend must be one of {sorted(_FACTORIES)}, got {name!r}"
        )
    return name


def _instance(name: str) -> CryptoBackend:
    backend = _instances.get(name)
    if backend is None:
        backend = _instances[name] = _FACTORIES[name]()
    return backend


def available_backends() -> List[str]:
    """Canonical backend names."""
    return list(_FACTORIES)


_backend = _instance(_canonical(os.environ.get("REPRO_CRYPTO_BACKEND", _DEFAULT)))


def get_backend() -> str:
    """Name of the active HMAC backend."""
    return _backend.name


def get_backend_instance() -> CryptoBackend:
    """The active :class:`CryptoBackend` object."""
    return _backend


def set_backend(name: str) -> None:
    """Select the HMAC backend globally (``pure``/``hashlib``)."""
    global _backend
    _backend = _instance(_canonical(name))


@contextlib.contextmanager
def use_backend(name: str) -> Iterator[None]:
    """Temporarily switch the HMAC backend."""
    previous = get_backend()
    set_backend(name)
    try:
        yield
    finally:
        set_backend(previous)


def hmac_digest(key: bytes, msg: bytes) -> bytes:
    """HMAC-SHA256 digest through the active backend."""
    obs.count("crypto.hmac")
    return _backend.hmac(key, msg)


def hmac_digest_batch(key: bytes, msgs: Sequence[bytes]) -> List[bytes]:
    """HMAC-SHA256 of every message under one key, through the backend."""
    obs.count("crypto.hmac", len(msgs))
    obs.count("crypto.hmac_batches")
    return _backend.hmac_batch(key, msgs)


def hmac_digest_pairs(items: Sequence[Tuple[bytes, bytes]]) -> List[bytes]:
    """HMAC-SHA256 of ``(key, msg)`` pairs, through the backend."""
    obs.count("crypto.hmac", len(items))
    obs.count("crypto.hmac_batches")
    return _backend.hmac_pairs(items)
