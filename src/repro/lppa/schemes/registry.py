"""The privacy-scheme registry: scheme name -> backend, selection by precedence.

Each wire protocol is one :class:`~repro.lppa.round.backends.PrivacyScheme`
backend; this module is the single place they are looked up:

* :func:`get_scheme` — name -> backend (``ValueError`` on unknown names,
  listing the known ones);
* :func:`resolve_scheme` — the selection precedence every entry point
  shares: explicit argument > CLI-set active scheme > ``$REPRO_SCHEME`` >
  the default ``ppbs``.
"""

from __future__ import annotations

import os
from typing import Dict, Optional, Tuple

from repro.lppa.round.backends import CRYPTO_BACKEND, PrivacyScheme
from repro.lppa.schemes.bloom import BLOOM_BACKEND

__all__ = [
    "SCHEME_ENV",
    "DEFAULT_SCHEME",
    "available_schemes",
    "get_scheme",
    "resolve_scheme",
    "set_active_scheme",
]

#: Environment variable selecting the scheme when no argument does.
SCHEME_ENV = "REPRO_SCHEME"

#: The paper's protocol.
DEFAULT_SCHEME = "ppbs"

_SCHEMES: Dict[str, PrivacyScheme] = {
    scheme.name: scheme for scheme in (CRYPTO_BACKEND, BLOOM_BACKEND)
}
_active: Optional[str] = None


def available_schemes() -> Tuple[str, ...]:
    """Scheme names, sorted (the ``--scheme`` choices)."""
    return tuple(sorted(_SCHEMES))


def get_scheme(name: str) -> PrivacyScheme:
    """Look one scheme's backend up by name."""
    scheme = _SCHEMES.get(name)
    if scheme is None:
        raise ValueError(
            f"unknown privacy scheme {name!r} "
            f"(registered: {', '.join(sorted(_SCHEMES))})"
        )
    return scheme


def set_active_scheme(name: Optional[str]) -> None:
    """Install a process-wide scheme choice (the CLI's ``--scheme`` flag).

    ``None`` clears it.  The active scheme ranks below an explicit
    argument and above ``$REPRO_SCHEME`` in :func:`resolve_scheme`.
    """
    global _active
    if name is not None:
        get_scheme(name)  # validate eagerly: a typo should fail at the flag
    _active = name


def resolve_scheme(name: Optional[str] = None) -> PrivacyScheme:
    """The shared selection rule: argument > active > env > ``ppbs``."""
    if name is not None:
        return get_scheme(name)
    if _active is not None:
        return get_scheme(_active)
    env = os.environ.get(SCHEME_ENV)
    if env:
        return get_scheme(env)
    return get_scheme(DEFAULT_SCHEME)
