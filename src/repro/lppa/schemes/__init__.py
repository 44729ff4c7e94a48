"""Privacy schemes: each wire protocol is one value backend.

* ``ppbs`` — the paper's protocol (prefix-masked locations and bids),
  :data:`~repro.lppa.round.backends.CRYPTO_BACKEND`; always the default.
* ``bloom`` — Bloom-filter locations + order-preserving-encrypted bids,
  :data:`~repro.lppa.schemes.bloom.BLOOM_BACKEND`.

Both are :class:`~repro.lppa.round.backends.PrivacyScheme` instances.
Selection runs through :mod:`repro.lppa.schemes.registry`
(``--scheme`` / ``$REPRO_SCHEME`` / explicit argument).
"""

from __future__ import annotations

from repro.lppa.schemes.registry import (
    DEFAULT_SCHEME,
    SCHEME_ENV,
    available_schemes,
    get_scheme,
    resolve_scheme,
    set_active_scheme,
)

__all__ = [
    "DEFAULT_SCHEME",
    "SCHEME_ENV",
    "available_schemes",
    "get_scheme",
    "resolve_scheme",
    "set_active_scheme",
]
