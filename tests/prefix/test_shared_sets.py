"""The mask cache hands out sealed, shared masked sets.

A masked prefix set is a pure function of ``(key, domain, digest size,
prefix set)``, so with the cache on every request for one set gets the
same immutable :class:`MaskedSet` object — across SUs, and at the TTP's
re-mask during charging.  Padded tails are the one per-SU part: each pads
a copy of the shared cover with fillers from the SU's own RNG and never
enters the cache.  None of this may move a wire byte or an RNG draw.
"""

import random

import pytest

from repro import obs
from repro.crypto.cache import MaskCache, cache_disabled, set_mask_cache
from repro.crypto.keys import generate_keyring
from repro.geo.grid import GridSpec
from repro.lppa import ttp as ttp_module
from repro.lppa.bids_advanced import BidScale, submit_bids_advanced
from repro.lppa.codec import encode_bids, encode_location
from repro.lppa.location import submit_location, submit_locations
from repro.lppa.ttp import ChargeStatus, TrustedThirdParty
from repro.prefix.membership import MaskSpec, mask_range, mask_specs, mask_value
from repro.prefix.prefixes import prefix_family

N_CHANNELS = 6
KEYRING = generate_keyring(b"shared-sets", N_CHANNELS, rd=4, cr=8)
SCALE = BidScale(bmax=30, rd=4, cr=8)
GRID = GridSpec(rows=32, cols=32, cell_km=1.0)
BIDS = [5, 0, 17, 30, 1, 0]
BID_DOMAIN = b"lppa/bid/adv"


@pytest.fixture()
def cache():
    """A fresh process cache for one test."""
    fresh = MaskCache()
    previous = set_mask_cache(fresh)
    yield fresh
    set_mask_cache(previous)


def _seal(user_id, seed, keyring=KEYRING):
    rng = random.Random(seed)
    submission, disclosure = submit_bids_advanced(
        user_id, BIDS, keyring, SCALE, rng
    )
    return submission, disclosure, rng


def test_equal_bids_share_one_family_and_the_ttp_remask_is_it(cache, monkeypatch):
    # Same bids and seed: both SUs mask the same expanded value per channel.
    first, disclosure, _ = _seal(0, 3)
    second, _, _ = _seal(1, 3)
    for a, b in zip(first.channel_bids, second.channel_bids):
        assert a.family is b.family

    remasked = []

    def recording_mask_value(*args, **kwargs):
        family = mask_value(*args, **kwargs)
        remasked.append(family)
        return family

    monkeypatch.setattr(ttp_module, "mask_value", recording_mask_value)
    ttp = TrustedThirdParty(KEYRING, SCALE)
    channel = BIDS.index(17)
    decision = ttp.process_charge(channel, second.channel_bids[channel])
    assert decision.status is ChargeStatus.VALID
    assert disclosure.channels[channel].true_bid == 17
    assert remasked == [first.channel_bids[channel].family]
    assert remasked[0] is first.channel_bids[channel].family


def test_padded_tails_are_per_su_and_never_cached(cache):
    first, disclosure, _ = _seal(0, 3)
    entries = len(cache)
    second, _, _ = _seal(1, 3)
    assert len(cache) == entries  # a warm resubmission stores nothing
    for channel, (a, b) in enumerate(zip(first.channel_bids, second.channel_bids)):
        assert a.tail is not b.tail
        assert len(a.tail) == SCALE.pad_to
        value = disclosure.channels[channel].masked_expanded
        cover = mask_range(
            KEYRING.channel_key(channel), value, SCALE.emax, SCALE.width,
            domain=BID_DOMAIN,
        )
        assert cover < a.tail and cover < b.tail
        assert cover is not a.tail
    # Padding a cached cover again adds no entry either.
    padded = mask_range(
        KEYRING.channel_key(0),
        disclosure.channels[0].masked_expanded,
        SCALE.emax,
        SCALE.width,
        domain=BID_DOMAIN,
        pad_to=SCALE.pad_to,
        rng=random.Random(9),
    )
    assert len(cache) == entries
    assert padded is not first.channel_bids[0].tail


def _sealed_bytes():
    """Wire bytes of one bid and one location submission, plus the bid
    SU's RNG state after sealing."""
    submission, _, rng = _seal(0, 3)
    location = submit_location(0, (5, 9), KEYRING.g0, GRID, 6)
    return encode_bids(submission), encode_location(location), rng.getstate()


def test_wire_bytes_and_rng_equal_warm_cold_and_disabled():
    previous = set_mask_cache(MaskCache())
    try:
        cold = _sealed_bytes()
        warm = _sealed_bytes()
    finally:
        set_mask_cache(previous)
    with cache_disabled():
        disabled = _sealed_bytes()
    assert cold == warm == disabled


def test_population_batch_shares_sets_between_users(cache):
    cells = [(5, 9), (5, 9), (5, 20)]
    one, two, three = submit_locations(cells, KEYRING.g0, GRID, 6)
    assert one.x_family is two.x_family and one.y_range is two.y_range
    assert one.x_family is three.x_family  # same row, other column
    assert one.y_family is not three.y_family
    assert submit_location(0, (5, 9), KEYRING.g0, GRID, 6).x_range is one.x_range


def test_new_key_epoch_serves_no_retired_set(cache):
    old = KEYRING
    new = generate_keyring(b"shared-sets-next", N_CHANNELS, rd=4, cr=8)
    TrustedThirdParty(old, SCALE)
    before = mask_value(old.channel_key(0), 77, SCALE.width, domain=BID_DOMAIN)

    TrustedThirdParty(new, SCALE)  # new fingerprint: old keys retired
    assert len(cache) == 0
    after = mask_value(new.channel_key(0), 77, SCALE.width, domain=BID_DOMAIN)
    with cache_disabled():
        fresh = mask_value(new.channel_key(0), 77, SCALE.width, domain=BID_DOMAIN)
    assert after is not before
    assert after == fresh and after != before

    with obs.collecting() as registry:
        again = mask_value(old.channel_key(0), 77, SCALE.width, domain=BID_DOMAIN)
    assert registry.counters["crypto.mask_cache.misses"] == 1
    assert again is not before and again == before


def test_mask_spec_of_hits_the_same_entry(cache):
    family = mask_value(b"k", 11, 6, domain=BID_DOMAIN)
    with obs.collecting() as registry:
        (built,) = mask_specs(
            [MaskSpec.of(b"k", prefix_family(11, 6), domain=BID_DOMAIN)]
        )
    assert built is family
    assert registry.counters["crypto.mask_cache.hits"] == 1
    assert "crypto.mask_cache.misses" not in registry.counters
    assert len(cache) == 1
