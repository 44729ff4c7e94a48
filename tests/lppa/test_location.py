"""Private location submission: exactness against the plaintext graph."""

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.auction.conflict import build_conflict_graph
from repro.experiments.scale import synthesize_population
from repro.geo.grid import GridSpec
from repro.lppa.location import (
    build_private_conflict_graph,
    coordinate_width,
    submit_location,
    submit_locations,
)
from repro.lppa.messages import LocationSubmission
from repro.lppa.session import run_lppa_auction
from repro.prefix.membership import MaskedSet, is_member

G0 = b"location-key"
GRID = GridSpec(rows=32, cols=32, cell_km=1.0)


def _private_graph(cells, two_lambda, grid=GRID):
    submissions = [
        submit_location(i, cell, G0, grid, two_lambda)
        for i, cell in enumerate(cells)
    ]
    return build_private_conflict_graph(submissions)


def _all_pairs_edges(submissions):
    """The paper's literal pairwise scan: the oracle for the digest join."""
    return frozenset(
        (i, j)
        for j, sj in enumerate(submissions)
        for i, si in enumerate(submissions[:j])
        if is_member(si.x_family, sj.x_range)
        and is_member(si.y_family, sj.y_range)
    )


def test_coordinate_width_accounts_for_overhang():
    assert coordinate_width(GridSpec(rows=100, cols=100), 1) == 7
    assert coordinate_width(GridSpec(rows=100, cols=100), 29) == 7
    assert coordinate_width(GridSpec(rows=100, cols=100), 30) == 8
    with pytest.raises(ValueError):
        coordinate_width(GRID, 0)


def test_conflict_detected():
    graph = _private_graph([(5, 5), (7, 7)], two_lambda=4)
    assert graph.are_conflicting(0, 1)


def test_boundary_distance_is_not_a_conflict():
    """|dx| == 2λ must not conflict (the predicate is strict)."""
    graph = _private_graph([(0, 0), (4, 0)], two_lambda=4)
    assert not graph.are_conflicting(0, 1)
    graph = _private_graph([(0, 0), (3, 3)], two_lambda=4)
    assert graph.are_conflicting(0, 1)


def test_grid_edges_are_handled():
    """Clamping at zero must not produce spurious conflicts or misses."""
    cells = [(0, 0), (1, 1), (31, 31), (30, 29)]
    private = _private_graph(cells, two_lambda=3)
    plain = build_conflict_graph(cells, 3)
    assert private.edges == plain.edges


def test_dense_user_ids_enforced():
    sub = submit_location(5, (0, 0), G0, GRID, 4)
    with pytest.raises(ValueError):
        build_private_conflict_graph([sub])


def test_submission_rejects_cells_outside_grid():
    with pytest.raises(ValueError):
        submit_location(0, (32, 0), G0, GRID, 4)


@settings(max_examples=30, deadline=None)
@given(
    cells=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=31),
            st.integers(min_value=0, max_value=31),
        ),
        min_size=2,
        max_size=8,
    ),
    two_lambda=st.integers(min_value=1, max_value=12),
)
def test_private_graph_equals_plaintext_graph(cells, two_lambda):
    """The central PPBS-location correctness claim."""
    assert _private_graph(cells, two_lambda).edges == build_conflict_graph(
        cells, two_lambda
    ).edges


@settings(max_examples=40, deadline=None)
@given(
    cells=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=31),
            st.integers(min_value=0, max_value=31),
        ),
        min_size=0,
        max_size=25,
    ),
    two_lambda=st.integers(min_value=1, max_value=12),
)
def test_digest_join_equals_all_pairs_scan(cells, two_lambda):
    submissions = submit_locations(cells, G0, GRID, two_lambda)
    assert build_private_conflict_graph(submissions).edges == _all_pairs_edges(
        submissions
    )


# A pool of eight digests makes random sets collide often, so the join
# meets every overlap pattern: shared digests within one axis, across
# users, empty sets, a family meeting a range on one axis only.
_POOL = [bytes([k]) * 16 for k in range(8)]
_random_sets = st.frozensets(st.sampled_from(_POOL), max_size=5).map(
    lambda digests: MaskedSet(digests, digest_bytes=16)
)


@settings(max_examples=60, deadline=None)
@given(
    sets=st.lists(
        st.tuples(_random_sets, _random_sets, _random_sets, _random_sets),
        min_size=0,
        max_size=12,
    )
)
def test_digest_join_equals_all_pairs_scan_on_arbitrary_digest_sets(sets):
    submissions = [
        LocationSubmission(i, *four) for i, four in enumerate(sets)
    ]
    assert build_private_conflict_graph(submissions).edges == _all_pairs_edges(
        submissions
    )


@settings(max_examples=40, deadline=None)
@given(
    cells=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=31),
            st.integers(min_value=0, max_value=31),
        ),
        min_size=2,
        max_size=15,
    ),
    swaps=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=14),
            st.sampled_from(["x_family", "x_range", "y_family", "y_range"]),
            st.integers(min_value=0, max_value=14),
            st.sampled_from(["x_family", "x_range", "y_family", "y_range"]),
        ),
        min_size=1,
        max_size=6,
    ),
)
def test_digest_join_equals_all_pairs_scan_on_tampered_submissions(cells, swaps):
    """Genuine submissions with sets replayed into other users' slots."""
    submissions = submit_locations(cells, G0, GRID, 6)
    n = len(submissions)
    for victim, field, source, source_field in swaps:
        submissions[victim % n] = dataclasses.replace(
            submissions[victim % n],
            **{field: getattr(submissions[source % n], source_field)},
        )
    assert build_private_conflict_graph(submissions).edges == _all_pairs_edges(
        submissions
    )


def test_default_round_never_consults_the_plaintext_cell_prefilter():
    """The round's auctioneer sees only masked digests, yet its conflict
    graph equals the plaintext 2λ graph over the SUs' cells."""
    users, grid = synthesize_population(80, seed=3)
    result = run_lppa_auction(
        users, grid, two_lambda=6, bmax=127, entropy=b"location-privacy"
    )
    assert result.conflict_graph.edges == build_conflict_graph(
        [user.cell for user in users], 6
    ).edges
    assert result.conflict_graph.n_edges > 0
