"""Private Location Submission protocol (section IV.A).

Each SU masks its coordinates and interference ranges; the auctioneer
declares a conflict between ``i < j`` when both

    H_g0(G(loc_x^i)) ∩ H_g0(Q([loc_x^j - d, loc_x^j + d])) != ∅
    H_g0(G(loc_y^i)) ∩ H_g0(Q([loc_y^j - d, loc_y^j + d])) != ∅

hold.  Since ``x_i ∈ [x_j - d, x_j + d]`` iff ``|x_i - x_j| <= d``, one
direction of the test suffices and the result is exactly the plaintext
conflict graph — which the tests assert.

The paper states the test pairwise; :func:`build_private_conflict_graph`
evaluates it as a hash join instead.  It indexes every submitted family
digest by user, then looks up each user's range digests: the users whose
x-family meets ``j``'s x-range, intersected with those whose y-family
meets ``j``'s y-range, are exactly the ``i`` for which both tests above
hold.  That is a set identity for any digest sets (tampered ones too), so
the edge set equals the all-pairs scan while the work drops from
``N(N-1)/2`` pair tests to one lookup per range digest plus the hits.  The
join reads only the masked digests the auctioneer receives — never a
plaintext cell or bucket.

The paper's conflict predicate is the *strict* ``|Δ| < 2λ`` on integer
coordinates, so the submitted range uses half-width ``d = 2λ - 1``.
Coordinates are cell indices (non-negative integers, as the paper assumes).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set

from repro.auction.conflict import ConflictGraph
from repro.crypto.cache import CacheKey
from repro.geo.grid import Cell, GridSpec
from repro.lppa.messages import LocationSubmission
from repro.prefix.membership import (
    MaskedSet,
    cover_cache_key,
    family_cache_key,
    mask_keys,
)
from repro.prefix.prefixes import bit_width_for

__all__ = [
    "coordinate_width",
    "submit_location",
    "submit_locations",
    "build_private_conflict_graph",
]

_X_DOMAIN = b"lppa/loc/x"
_Y_DOMAIN = b"lppa/loc/y"


def coordinate_width(grid: GridSpec, two_lambda: int) -> int:
    """Bit width covering every coordinate plus the range overhang.

    Ranges extend up to ``2λ - 1`` beyond the largest coordinate; using a
    width that accommodates the overhang lets us skip clamping on the high
    side (clamping is still applied at 0 on the low side).
    """
    if two_lambda < 1:
        raise ValueError("two_lambda must be >= 1")
    return bit_width_for(max(grid.rows, grid.cols) - 1 + (two_lambda - 1))


def _location_keys(
    cell: Cell, g0: bytes, grid: GridSpec, two_lambda: int
) -> List[CacheKey]:
    """The mask cache keys of one submission's four prefix sets."""
    grid.require(cell)
    width = coordinate_width(grid, two_lambda)
    d = two_lambda - 1
    m, n = cell
    return [
        family_cache_key(g0, m, width, domain=_X_DOMAIN),
        cover_cache_key(g0, max(0, m - d), m + d, width, domain=_X_DOMAIN),
        family_cache_key(g0, n, width, domain=_Y_DOMAIN),
        cover_cache_key(g0, max(0, n - d), n + d, width, domain=_Y_DOMAIN),
    ]


def submit_location(
    user_id: int,
    cell: Cell,
    g0: bytes,
    grid: GridSpec,
    two_lambda: int,
) -> LocationSubmission:
    """Bidder side: mask own coordinates and interference ranges.

    The four sets are the mask cache's shared sets: SUs in the same row,
    column or range hold the same objects.
    """
    x_family, x_range, y_family, y_range = mask_keys(
        _location_keys(cell, g0, grid, two_lambda)
    )
    return LocationSubmission(
        user_id=user_id,
        x_family=x_family,
        x_range=x_range,
        y_family=y_family,
        y_range=y_range,
    )


def submit_locations(
    cells: Sequence[Cell],
    g0: bytes,
    grid: GridSpec,
    two_lambda: int,
) -> List[LocationSubmission]:
    """All users' submissions through one mask batch (in-process drivers).

    Digest-identical to calling :func:`submit_location` per user — the SUs
    share ``g0``, so a whole population's location masking is one backend
    call.  User ids are the dense slot indices, matching what
    :func:`build_private_conflict_graph` expects.
    """
    keys = [
        key
        for cell in cells
        for key in _location_keys(cell, g0, grid, two_lambda)
    ]
    masked = mask_keys(keys)
    return [
        LocationSubmission(
            user_id=i,
            x_family=masked[4 * i],
            x_range=masked[4 * i + 1],
            y_family=masked[4 * i + 2],
            y_range=masked[4 * i + 3],
        )
        for i in range(len(cells))
    ]


def _digest_index(sets: Sequence[MaskedSet]) -> Dict[bytes, List[int]]:
    """Map every digest to the ascending ids of the users whose set holds it."""
    index: Dict[bytes, List[int]] = {}
    for user, masked in enumerate(sets):
        for digest in masked.digests:
            index.setdefault(digest, []).append(user)
    return index


def _hits(index: Dict[bytes, List[int]], masked: MaskedSet) -> Set[int]:
    """Users whose indexed set shares at least one digest with ``masked``."""
    users: Set[int] = set()
    for digest in masked.digests:
        found = index.get(digest)
        if found is not None:
            users.update(found)
    return users


def build_private_conflict_graph(
    submissions: Sequence[LocationSubmission],
) -> ConflictGraph:
    """Auctioneer side: masked membership tests -> conflict graph.

    Pair ``(i, j)``, ``i < j``, is an edge iff ``is_member(si.x_family,
    sj.x_range) and is_member(si.y_family, sj.y_range)`` — decided for all
    pairs at once by the digest join described in the module docstring.

    ``submissions[i].user_id`` must equal ``i`` (the session layer enforces
    the dense numbering; pseudonymised ids are mapped before this point).
    """
    for idx, sub in enumerate(submissions):
        if sub.user_id != idx:
            raise ValueError(
                f"submissions must be dense: slot {idx} holds user {sub.user_id}"
            )
    x_index = _digest_index([sub.x_family for sub in submissions])
    y_index = _digest_index([sub.y_family for sub in submissions])
    edges = set()
    for j, sj in enumerate(submissions):
        x_hits = _hits(x_index, sj.x_range)
        if not x_hits:
            continue
        for i in x_hits.intersection(_hits(y_index, sj.y_range)):
            if i < j:
                edges.add((i, j))
    return ConflictGraph(n_users=len(submissions), edges=frozenset(edges))
