"""Scheme registry: lookup, selection precedence, one backend per scheme."""

import pytest

from repro.lppa.schemes.registry import (
    DEFAULT_SCHEME,
    SCHEME_ENV,
    available_schemes,
    get_scheme,
    resolve_scheme,
    set_active_scheme,
)
from repro.lppa.round.backends import CRYPTO_BACKEND
from repro.lppa.schemes.bloom import BLOOM_BACKEND


@pytest.fixture(autouse=True)
def _clean_selection(monkeypatch):
    """Each test starts with no active scheme and no $REPRO_SCHEME."""
    monkeypatch.delenv(SCHEME_ENV, raising=False)
    set_active_scheme(None)
    yield
    set_active_scheme(None)


def test_builtins_are_registered():
    assert available_schemes() == ("bloom", "ppbs")


def test_each_scheme_is_its_round_backend():
    assert get_scheme("ppbs") is CRYPTO_BACKEND
    assert get_scheme("bloom") is BLOOM_BACKEND


def test_unknown_name_lists_registered_schemes():
    with pytest.raises(ValueError, match=r"registered: bloom, ppbs"):
        get_scheme("nope")


def test_default_is_ppbs():
    assert DEFAULT_SCHEME == "ppbs"
    assert resolve_scheme().name == "ppbs"


def test_env_variable_selects_scheme(monkeypatch):
    monkeypatch.setenv(SCHEME_ENV, "bloom")
    assert resolve_scheme().name == "bloom"


def test_active_scheme_outranks_env(monkeypatch):
    monkeypatch.setenv(SCHEME_ENV, "bloom")
    set_active_scheme("ppbs")
    assert resolve_scheme().name == "ppbs"


def test_explicit_argument_outranks_everything(monkeypatch):
    monkeypatch.setenv(SCHEME_ENV, "ppbs")
    set_active_scheme("ppbs")
    assert resolve_scheme("bloom").name == "bloom"


def test_set_active_scheme_validates_eagerly():
    with pytest.raises(ValueError, match="unknown privacy scheme"):
        set_active_scheme("typo")
    assert resolve_scheme().name == DEFAULT_SCHEME


def test_set_active_scheme_none_clears(monkeypatch):
    set_active_scheme("bloom")
    assert resolve_scheme().name == "bloom"
    set_active_scheme(None)
    assert resolve_scheme().name == DEFAULT_SCHEME


def test_resolving_bad_env_raises(monkeypatch):
    monkeypatch.setenv(SCHEME_ENV, "typo")
    with pytest.raises(ValueError, match="unknown privacy scheme"):
        resolve_scheme()


def test_announcement_fields_preserve_ppbs_welcome_bytes():
    """ppbs announces nothing (keeps pre-seam WELCOME frames byte-identical);
    every other scheme announces its name so clients can follow."""
    assert get_scheme("ppbs").announcement_fields() == {}
    assert get_scheme("bloom").announcement_fields() == {"scheme": "bloom"}


def test_payload_tags_are_distinct_across_schemes():
    tags = []
    for name in available_schemes():
        scheme = get_scheme(name)
        tags.extend([scheme.location_tag, scheme.bid_tag])
    assert len(tags) == len(set(tags))
    assert all(len(tag) == 1 for tag in tags)
