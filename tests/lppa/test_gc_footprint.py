"""How many objects the cyclic garbage collector tracks per wire record.

Every container the collector tracks is rescanned by each collection of
its generation, so a round's collection cost grows with the number of
tracked objects its submissions hold.  These counts are exact and the
same on any host: a sealed PPBS bid submission is one record, its
channel tuple, one :class:`MaskedBid` per channel and two
:class:`MaskedSet` objects per bid.  A masked set that wrapped a separate
frozenset again would double the last term and fail here.

With a warm mask cache most of those sets are not new: every family and
location set is the cache's shared set, so sealing one more submission
creates only its records and its padded tails.
"""

import dataclasses
import gc
import random

import pytest

from repro.crypto.cache import MaskCache, set_mask_cache
from repro.crypto.keys import generate_keyring
from repro.geo.grid import GridSpec
from repro.lppa.bids_advanced import BidScale, submit_bids_advanced
from repro.lppa.bids_ope import submit_bids_ope
from repro.lppa.location import submit_location
from repro.lppa.location_bloom import submit_location_bloom
from repro.prefix.membership import MaskSpec
from repro.prefix.prefixes import prefix_family

N_CHANNELS = 6
KEYRING = generate_keyring(b"gc-footprint", N_CHANNELS, rd=4, cr=8)
SCALE = BidScale(bmax=30, rd=4, cr=8)
GRID = GridSpec(rows=32, cols=32, cell_km=1.0)
BIDS = [5, 0, 17, 30, 1, 0]


def tracked_objects(root: object) -> int:
    """Objects reachable from ``root`` that the collector tracks.

    Classes are not followed: every instance of a heap type refers to its
    type, and the type reaches the whole module graph.
    """
    seen = set()
    stack = [root]
    tracked = 0
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, type):
            continue
        seen.add(id(obj))
        if gc.is_tracked(obj):
            tracked += 1
            stack.extend(gc.get_referents(obj))
    return tracked


def new_tracked_objects(make):
    """``make()`` and how many tracked objects it created that are still
    alive, counted with the collector off.

    The objects alive before the call stay referenced by ``before``, so no
    new object can reuse one's id.
    """
    gc.disable()
    try:
        before = gc.get_objects()
        seen = set(map(id, before))
        seen.update((id(before), id(seen)))
        made = make()
        after = gc.get_objects()
    finally:
        gc.enable()
    return made, len(set(map(id, after)) - seen)


@pytest.fixture()
def fresh_cache():
    """A fresh process mask cache for one test."""
    fresh = MaskCache()
    previous = set_mask_cache(fresh)
    yield fresh
    set_mask_cache(previous)


def _bid_submission():
    return submit_bids_advanced(0, BIDS, KEYRING, SCALE, random.Random(3))


def test_bid_submission_tracks_one_object_per_masked_set():
    submission, _ = _bid_submission()
    # 1 submission + 1 channel tuple + 6 MaskedBid + 12 MaskedSet.
    assert tracked_objects(submission) == 1 + 1 + N_CHANNELS + 2 * N_CHANNELS


def test_location_submission_tracks_five_objects():
    submission = submit_location(0, (5, 9), KEYRING.g0, GRID, 6)
    # 1 submission + 4 MaskedSet.
    assert tracked_objects(submission) == 5


def test_warm_bid_submission_creates_only_records_and_tails(fresh_cache):
    _bid_submission()
    submission, created = new_tracked_objects(lambda: _bid_submission()[0])
    assert submission.n_channels == N_CHANNELS
    # 1 submission + 1 channel tuple + 6 MaskedBid + 6 padded tails; the
    # six families are the cache's shared sets.
    assert created <= 1 + 1 + N_CHANNELS + N_CHANNELS


def test_warm_location_submission_creates_one_object(fresh_cache):
    def make():
        return submit_location(0, (5, 9), KEYRING.g0, GRID, 6)

    make()
    _, created = new_tracked_objects(make)
    # The submission record; its four sets are the cache's shared sets.
    assert created <= 1


def _records():
    bid, disclosure = _bid_submission()
    location = submit_location(0, (5, 9), KEYRING.g0, GRID, 6)
    ope, _ = submit_bids_ope(1, BIDS, KEYRING, SCALE, random.Random(4))
    bloom = submit_location_bloom(1, (5, 9), KEYRING.g0, GRID, 6)
    return [
        bid,
        bid.channel_bids[0],
        bid.channel_bids[0].family,
        bid.channel_bids[0].tail,
        disclosure,
        disclosure.channels[0],
        location,
        location.x_range,
        ope,
        ope.channel_bids[0],
        bloom,
        MaskSpec.of(b"k", prefix_family(5, 4)),
        prefix_family(5, 4)[0],
    ]


def test_per_su_records_have_no_instance_dict():
    with_dict = [type(r).__name__ for r in _records() if hasattr(r, "__dict__")]
    assert with_dict == []


def test_replace_keeps_working_on_slotted_records():
    bid, _ = _bid_submission()
    moved = dataclasses.replace(bid, user_id=7)
    assert moved.user_id == 7
    assert moved.channel_bids is bid.channel_bids
    location = submit_location(0, (5, 9), KEYRING.g0, GRID, 6)
    assert dataclasses.replace(location, user_id=3).x_family == location.x_family


def test_post_init_checks_survive_slots():
    bid, _ = _bid_submission()
    with pytest.raises(ValueError):
        dataclasses.replace(bid, channel_bids=())
    with pytest.raises(ValueError):
        dataclasses.replace(bid.channel_bids[0], ciphertext=b"abc")
