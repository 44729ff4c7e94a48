"""Cross-backend differential suite: bit-exactness is the optimization gate.

Correctness of the masking layer means *identical wire bytes* — a masked
digest either matches its counterpart or the protocol silently breaks.  So
every crypto backend (pure reference, hashlib) must produce, on
shared seeds:

* bit-identical digests and masked tables for every primitive;
* byte-identical encoded wire messages for full submissions;
* identical round results, trace summaries, and audit verdicts for a full
  25-SU auction round, each compared against the pure-python baseline.

Each backend run starts from a cleared masked-digest cache so the backend
under test actually computes its digests instead of replaying another
backend's (which would vacuously pass).
"""

import random

import pytest

from repro import obs
from repro.analysis.trace_audit import audit_comm_cost, audit_privacy
from repro.auction.bidders import generate_users
from repro.crypto.backend import use_backend
from repro.crypto.cache import cache_disabled, get_mask_cache
from repro.crypto.keys import generate_keyring
from repro.geo.datasets import make_database
from repro.geo.grid import GridSpec
from repro.lppa.bids_advanced import BidScale, submit_bids_advanced
from repro.lppa.codec import encode_bids, encode_location
from repro.lppa.location import submit_location, submit_locations
from repro.lppa.session import run_lppa_auction
from repro.prefix.membership import mask_prefixes, mask_range, mask_value
from repro.prefix.prefixes import prefix_family

BACKENDS = ("pure", "hashlib")
REFERENCE = "pure"
OPTIMIZED = tuple(b for b in BACKENDS if b != REFERENCE)

N_USERS = 25
N_CHANNELS = 10
GRID = GridSpec(rows=20, cols=20, cell_km=3.75)


def _fresh(backend):
    """Context for one backend run that must do its own digest work."""
    get_mask_cache().clear()
    return use_backend(backend)


@pytest.fixture(scope="module")
def database():
    return make_database(4, n_channels=N_CHANNELS, grid=GRID)


@pytest.fixture(scope="module")
def users(database):
    return generate_users(database, N_USERS, random.Random(77))


# ---------------------------------------------------------------- primitives


@pytest.mark.parametrize("backend", OPTIMIZED)
def test_mask_value_digests_identical(backend):
    for width in (1, 4, 8, 13):
        for x in (0, 1, (1 << width) - 1, (1 << width) // 3):
            with _fresh(REFERENCE):
                reference = mask_value(b"k", x, width, domain=b"d")
            with _fresh(backend):
                candidate = mask_value(b"k", x, width, domain=b"d")
            assert candidate.digests == reference.digests


@pytest.mark.parametrize("backend", OPTIMIZED)
def test_mask_range_padded_identical(backend):
    # Same pad RNG seed on both sides: fillers must come out identical too.
    with _fresh(REFERENCE):
        reference = mask_range(
            b"k", 100, 900, 10, pad_to=18, rng=random.Random(5)
        )
    with _fresh(backend):
        candidate = mask_range(
            b"k", 100, 900, 10, pad_to=18, rng=random.Random(5)
        )
    assert candidate.digests == reference.digests


@pytest.mark.parametrize("backend", OPTIMIZED)
@pytest.mark.parametrize("digest_bytes", (8, 16, 32))
def test_truncation_identical(backend, digest_bytes):
    family = prefix_family(1234, 12)
    with _fresh(REFERENCE):
        reference = mask_prefixes(b"key", family, digest_bytes=digest_bytes)
    with _fresh(backend):
        candidate = mask_prefixes(b"key", family, digest_bytes=digest_bytes)
    assert candidate == reference


@pytest.mark.parametrize("backend", OPTIMIZED)
def test_keyring_identical(backend):
    with _fresh(REFERENCE):
        reference = generate_keyring(b"diff-seed", N_CHANNELS)
    with _fresh(backend):
        candidate = generate_keyring(b"diff-seed", N_CHANNELS)
    assert candidate == reference


# ------------------------------------------------------------- wire messages


def _location_wire(backend, keyring):
    cells = [(3 * i % GRID.rows, 7 * i % GRID.cols) for i in range(N_USERS)]
    with _fresh(backend):
        subs = submit_locations(cells, keyring.g0, GRID, 6)
        # The scalar path must agree with the population batch.
        scalar = submit_location(0, cells[0], keyring.g0, GRID, 6)
    assert scalar == subs[0]
    return [encode_location(s) for s in subs]


def _bid_wire(backend, keyring, scale):
    blobs = []
    with _fresh(backend):
        for uid in range(N_USERS):
            rng = random.Random(1000 + uid)
            bids = [rng.randrange(scale.bmax + 1) for _ in range(N_CHANNELS)]
            submission, _ = submit_bids_advanced(
                uid, bids, keyring, scale, random.Random(2000 + uid)
            )
            blobs.append(encode_bids(submission))
    return blobs


@pytest.mark.parametrize("backend", OPTIMIZED)
def test_full_submission_wire_bytes_identical(backend):
    keyring = generate_keyring(b"diff-wire", N_CHANNELS)
    scale = BidScale(bmax=127, rd=keyring.rd, cr=keyring.cr)
    assert _location_wire(backend, keyring) == _location_wire(REFERENCE, keyring)
    assert _bid_wire(backend, keyring, scale) == _bid_wire(REFERENCE, keyring, scale)


# ----------------------------------------------------------- full 25-SU round


def _traced_round(backend, users):
    with _fresh(backend):
        with obs.tracing() as recorder:
            result = run_lppa_auction(
                users, GRID, two_lambda=6, bmax=127, entropy="backend-diff:0"
            )
    return recorder, result


@pytest.fixture(scope="module")
def reference_round(users):
    return _traced_round(REFERENCE, users)


@pytest.mark.parametrize("backend", OPTIMIZED)
def test_round_matches_pure_baseline(backend, users, reference_round, database):
    """The acceptance gate: a whole round, digest for digest.

    ``LppaResult`` equality covers the outcome (winners/charges), conflict
    graph, rankings, disclosures and every byte-count; the trace summary
    covers each message's payload and framed wire size; the Theorem-4 comm
    audit and BCM privacy replay must then reach identical verdicts from
    identical adversary-visible streams.
    """
    ref_recorder, ref_result = reference_round
    recorder, result = _traced_round(backend, users)

    assert result == ref_result
    assert recorder.summary() == ref_recorder.summary()

    comm = audit_comm_cost(recorder.events())
    ref_comm = audit_comm_cost(ref_recorder.events())
    assert comm.passed and ref_comm.passed
    assert [r.measured_masked_bits for r in comm.rounds] == [
        r.measured_masked_bits for r in ref_comm.rounds
    ]

    privacy = audit_privacy(recorder.events(), database, fractions=(0.25,))
    ref_privacy = audit_privacy(ref_recorder.events(), database, fractions=(0.25,))
    assert privacy.rounds == ref_privacy.rounds


def test_warm_cache_round_identical_to_cold(users, reference_round):
    """Cache hits must be invisible: same results, same traced bytes — and
    so must bypassing the cache altogether."""
    with use_backend("hashlib"):
        get_mask_cache().clear()
        with obs.tracing() as cold_recorder:
            cold = run_lppa_auction(
                users, GRID, two_lambda=6, bmax=127, entropy="backend-diff:0"
            )
        cache = get_mask_cache()
        assert cache.stats()["entries"] > 0
        hits_before = cache.hits
        with obs.tracing() as warm_recorder:
            warm = run_lppa_auction(
                users, GRID, two_lambda=6, bmax=127, entropy="backend-diff:0"
            )
        assert cache.hits > hits_before
        lookups_before = (cache.hits, cache.misses)
        with cache_disabled(), obs.tracing() as uncached_recorder:
            uncached = run_lppa_auction(
                users, GRID, two_lambda=6, bmax=127, entropy="backend-diff:0"
            )
        assert (cache.hits, cache.misses) == lookups_before
    assert warm == cold
    assert warm_recorder.summary() == cold_recorder.summary()
    assert uncached == cold
    assert uncached_recorder.summary() == cold_recorder.summary()
    # And both equal the pure-backend baseline round.
    assert cold == reference_round[1]
