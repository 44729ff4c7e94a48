"""The pluggable HMAC backend: all implementations, switching semantics."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.backend import (
    available_backends,
    get_backend,
    get_backend_instance,
    hmac_digest,
    hmac_digest_batch,
    hmac_digest_pairs,
    set_backend,
    use_backend,
)

ALL_BACKENDS = ("pure", "hashlib")


def test_default_backend_is_hashlib():
    assert get_backend() == "hashlib"


def test_invalid_backend_rejected():
    with pytest.raises(ValueError):
        set_backend("openssl-but-faster")


def test_all_backends_available():
    assert set(available_backends()) == set(ALL_BACKENDS)


def test_backend_instance_matches_name():
    for name in ALL_BACKENDS:
        with use_backend(name):
            assert get_backend_instance().name == name


def test_use_backend_restores_on_exit():
    before = get_backend()
    with use_backend("pure"):
        assert get_backend() == "pure"
    assert get_backend() == before


def test_use_backend_restores_on_exception():
    before = get_backend()
    with pytest.raises(RuntimeError):
        with use_backend("pure"):
            raise RuntimeError("boom")
    assert get_backend() == before


def test_batch_empty_input():
    for name in ALL_BACKENDS:
        with use_backend(name):
            assert hmac_digest_batch(b"k", []) == []
            assert hmac_digest_pairs([]) == []


@settings(max_examples=30, deadline=None)
@given(key=st.binary(min_size=1, max_size=80), msg=st.binary(max_size=200))
def test_backends_are_bit_identical(key, msg):
    digests = set()
    for name in ALL_BACKENDS:
        with use_backend(name):
            digests.add(hmac_digest(key, msg))
    assert len(digests) == 1


@settings(max_examples=20, deadline=None)
@given(
    key=st.binary(min_size=1, max_size=80),
    msgs=st.lists(st.binary(max_size=120), max_size=12),
)
def test_batch_matches_scalar_on_every_backend(key, msgs):
    reference = [hmac_digest(key, m) for m in msgs]
    for name in ALL_BACKENDS:
        with use_backend(name):
            assert hmac_digest_batch(key, msgs) == reference


@settings(max_examples=20, deadline=None)
@given(
    items=st.lists(
        st.tuples(st.binary(min_size=1, max_size=80), st.binary(max_size=120)),
        max_size=12,
    )
)
def test_pairs_match_scalar_on_every_backend(items):
    reference = [hmac_digest(k, m) for k, m in items]
    for name in ALL_BACKENDS:
        with use_backend(name):
            assert hmac_digest_pairs(items) == reference
