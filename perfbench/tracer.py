"""Layer spans for the benchmark's traced run.

The traced run wraps the public entry points of every layer from here, so
no code under ``src/`` changes.  Callers bind many of these names with
``from ... import``, so :meth:`Tracer.install` replaces every binding of a
wrapped function in every loaded ``repro`` module, not only the defining
module's attribute, and patches methods on the class that defines them.

Span kinds:

* ``span``: a synchronous call.  Its self time is its duration minus the
  time its child spans took.
* ``leaf``: a synchronous call with no wrapped children that runs millions
  of times a round (``is_member``, ``stable_seed``).  It skips the span
  stack and only adds its duration to the layer and to the enclosing span.
* ``async``: a coroutine.  Each resume-to-suspend step is a span on the
  same stack, so self time excludes both child spans and the time the
  coroutine spent suspended; its hook gets that suspended time.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

_clock = time.perf_counter


class LayerStat:
    """Accumulated self time of one layer."""

    __slots__ = ("self_s",)

    def __init__(self) -> None:
        self.self_s = 0.0


class Tracer:
    """Installs layer wrappers and accumulates their spans.

    ``layers`` maps a layer name to its self time; ``counts`` holds what
    the hooks record at the layer boundaries (HMAC messages, Speck blocks,
    frames, TTP decisions, waits, ...).
    """

    def __init__(self) -> None:
        self.layers: Dict[str, LayerStat] = defaultdict(LayerStat)
        self.counts: Dict[str, float] = defaultdict(float)
        self._stack: List[List[float]] = []
        self._patches: List[Tuple[Any, str, Any]] = []

    def total_self_s(self) -> float:
        """Self time of every layer so far (for round attribution)."""
        return sum(stat.self_s for stat in self.layers.values())

    # -- wrappers ------------------------------------------------------------
    #
    # Each wrapper calls ``hook(counts, args, result, seconds)`` after the
    # call: ``seconds`` is the span's duration, or for a coroutine the time
    # it spent suspended.

    def _span(self, fn: Callable, layer: str, hook) -> Callable:
        stack = self._stack
        layer_stat = self.layers[layer]
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = _clock() - t0
                stack.pop()
                layer_stat.self_s += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
            if hook is not None:
                hook(counts, args, result, dt)
            return result

        return wrapper

    def _leaf(self, fn: Callable, layer: str, hook) -> Callable:
        stack = self._stack
        layer_stat = self.layers[layer]
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = _clock()
            result = fn(*args, **kwargs)
            dt = _clock() - t0
            layer_stat.self_s += dt
            if stack:
                stack[-1][0] += dt
            if hook is not None:
                hook(counts, args, result, dt)
            return result

        return wrapper

    def _async(self, fn: Callable, layer: str, hook) -> Callable:
        stack = self._stack
        layer_stat = self.layers[layer]
        counts = self.counts

        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            steps = _Steps(fn(*args, **kwargs), stack, layer_stat)
            t0 = _clock()
            try:
                return await steps
            finally:
                if hook is not None:
                    hook(counts, args, None, _clock() - t0 - steps.active)

        return wrapper

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap every ``(layer, module, qualname, kind, hook)`` of
        :data:`LAYER_SPECS`.

        Installing again after :meth:`uninstall` keeps accumulating into
        the same totals.
        """
        makers = {"span": self._span, "leaf": self._leaf, "async": self._async}
        for layer, module_name, qualname, kind, hook in LAYER_SPECS:
            module = importlib.import_module(module_name)
            owner_name, _, attr = qualname.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(makers[kind](raw.__func__, layer, hook))
                else:
                    wrapped = makers[kind](raw, layer, hook)
                self._patch(owner, attr, wrapped)
                continue
            original = getattr(module, attr)
            wrapped = makers[kind](original, layer, hook)
            for loaded in list(sys.modules.values()):
                name = getattr(loaded, "__name__", "") or ""
                if name != "repro" and not name.startswith("repro."):
                    continue
                namespace = vars(loaded)
                for binding, value in list(namespace.items()):
                    if value is original:
                        self._patch(loaded, binding, wrapped)

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        """Put every original binding back, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


class _Steps:
    """Drives a coroutine one step at a time, each step a span."""

    __slots__ = ("_coro", "_stack", "_layer", "active")

    def __init__(self, coro, stack: List[List[float]], layer: LayerStat) -> None:
        self._coro = coro
        self._stack = stack
        self._layer = layer
        self.active = 0.0

    def __await__(self):
        coro = self._coro
        stack = self._stack
        layer = self._layer
        value: Any = None
        error: Optional[BaseException] = None
        while True:
            frame = [0.0]
            stack.append(frame)
            t0 = _clock()
            try:
                if error is None:
                    yielded = coro.send(value)
                else:
                    yielded = coro.throw(error)
            except StopIteration as stop:
                return stop.value
            finally:
                dt = _clock() - t0
                stack.pop()
                self.active += dt
                layer.self_s += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
            try:
                value = yield yielded
                error = None
            except GeneratorExit:
                coro.close()
                raise
            except BaseException as exc:  # forwarded into the coroutine
                value = None
                error = exc


# -- hooks: work counters recorded at the layer boundary ----------------------


def _count(name: str, amount: Callable[[tuple, Any], float]):
    def hook(counts, args, result, dt):
        counts[name] += amount(args, result)

    return hook


def _hmac_batch(counts, args, result, dt):
    counts["crypto.backend.messages"] += len(result)


def _pairs(counts, args, result, dt):
    n = len(args[0])
    counts["lppa.location.pairs_tested"] += n * (n - 1) // 2
    counts["lppa.location.edges"] += result.n_edges
    counts["lppa.location.conflict_graph_s"] += dt


def _bloom_graph(counts, args, result, dt):
    counts["lppa.location_bloom.conflict_graph_s"] += dt


def _bloom_filters(counts, args, result, dt):
    counts["lppa.location_bloom.filter_build_s"] += dt


def _decision(counts, args, result, dt):
    counts[f"lppa.ttp.decisions.{result.status.name.lower()}"] += 1


def _frame(counts, args, result, dt):
    counts["net.frames.frames"] += 1
    counts["net.frames.bytes"] += len(result)


def _collect(counts, args, result, waited):
    counts["net.server.collect_wait_s"] += waited


def _read(counts, args, result, waited):
    counts["net.transport.read_wait_s"] += waited


def _setup_phase(counts, args, result, dt):
    counts["lppa.round.phase.setup_s"] += dt


def _apply(counts, args, result, dt):
    counts["service.membership.apply_s"] += dt


def _store(counts, args, result, dt):
    counts["service.store.write_s"] += dt


_ONE = _count("crypto.backend.messages", lambda args, result: 1)

#: (layer, module, qualname, kind, hook).  Codec functions of every scheme
#: and the frame envelope form one ``codec`` layer, whose self time is
#: ``net.frames.codec_s``.
LAYER_SPECS = (
    ("utils.rng", "repro.utils.rng", "stable_seed", "leaf",
     _count("utils.rng.calls", lambda a, r: 1)),
    ("crypto.backend", "repro.crypto.backend", "hmac_digest", "leaf", _ONE),
    ("crypto.backend", "repro.crypto.backend", "hmac_digest_batch", "leaf",
     _hmac_batch),
    ("crypto.backend", "repro.crypto.backend", "hmac_digest_pairs", "leaf",
     _hmac_batch),
    ("crypto.speck", "repro.crypto.speck", "Speck64128.encrypt_block", "leaf",
     _count("crypto.speck.blocks", lambda a, r: 1)),
    ("crypto.speck", "repro.crypto.speck", "Speck64128.decrypt_block", "leaf",
     _count("crypto.speck.blocks", lambda a, r: 1)),
    ("crypto.speck", "repro.crypto.speck", "ctr_encrypt", "span", None),
    ("crypto.speck", "repro.crypto.speck", "ctr_decrypt", "span", None),
    ("crypto.ope", "repro.crypto.ope", "OrderPreservingEncoder.__init__",
     "span", None),
    ("crypto.ope", "repro.crypto.ope", "OrderPreservingEncoder.encrypt",
     "leaf", None),
    ("crypto.ope", "repro.crypto.ope", "OrderPreservingEncoder.decrypt",
     "leaf", None),
    ("prefix.membership", "repro.prefix.membership", "mask_spec_digests",
     "span", None),
    ("prefix.membership", "repro.prefix.membership", "mask_specs", "span", None),
    ("prefix.membership", "repro.prefix.membership", "pad_masked_set", "span",
     None),
    ("prefix.membership", "repro.prefix.membership", "mask_prefixes", "span",
     None),
    ("prefix.membership", "repro.prefix.membership", "mask_value", "span", None),
    ("prefix.membership", "repro.prefix.membership", "mask_range", "span", None),
    ("prefix.membership", "repro.prefix.membership", "find_maxima", "span",
     None),
    ("prefix.membership", "repro.prefix.membership", "is_member", "leaf", None),
    ("lppa.location", "repro.lppa.location", "submit_location", "span", None),
    ("lppa.location", "repro.lppa.location", "submit_locations", "span", None),
    ("lppa.location", "repro.lppa.location", "build_private_conflict_graph",
     "span", _pairs),
    ("lppa.location_bloom", "repro.lppa.location_bloom",
     "submit_location_bloom", "span", _bloom_filters),
    ("lppa.location_bloom", "repro.lppa.location_bloom",
     "submit_locations_bloom", "span", _bloom_filters),
    ("lppa.location_bloom", "repro.lppa.location_bloom",
     "build_bloom_conflict_graph", "span", _bloom_graph),
    ("lppa.bids_advanced", "repro.lppa.bids_advanced", "submit_bids_advanced",
     "span", None),
    ("lppa.bids_advanced", "repro.lppa.bids_advanced", "disguise_and_expand",
     "span", None),
    ("lppa.bids_ope", "repro.lppa.bids_ope", "submit_bids_ope", "span", None),
    ("lppa.bids_ope", "repro.lppa.bids_ope", "ope_encoder_for", "span", None),
    ("lppa.psd", "repro.lppa.psd", "MaskedBidTable.bid_ge", "span",
     _count("lppa.psd.bid_compares", lambda a, r: 1)),
    ("lppa.psd", "repro.lppa.psd", "MaskedBidTable.ranking", "span", None),
    ("lppa.psd", "repro.lppa.psd", "MaskedBidTable.rankings", "span", None),
    ("lppa.psd", "repro.lppa.psd", "MaskedBidTable.max_bidders", "span", None),
    ("lppa.psd", "repro.lppa.psd", "rank_by_ge", "span", None),
    ("lppa.psd", "repro.lppa.psd", "rank_masked_column", "span", None),
    ("lppa.ttp", "repro.lppa.ttp", "TrustedThirdParty.setup", "span", None),
    ("lppa.ttp", "repro.lppa.ttp", "TrustedThirdParty.process_charge", "span",
     _decision),
    ("lppa.ttp", "repro.lppa.ttp", "TrustedThirdParty.process_batch", "span",
     None),
    ("lppa.round", "repro.lppa.round.backends", "CryptoBackend.setup", "span",
     _setup_phase),
    ("lppa.round", "repro.lppa.schemes.bloom", "BloomBackend.setup", "span",
     _setup_phase),
    ("codec", "repro.lppa.codec", "encode_location", "span", None),
    ("codec", "repro.lppa.codec", "decode_location", "span", None),
    ("codec", "repro.lppa.codec", "encode_bids", "span", None),
    ("codec", "repro.lppa.codec", "decode_bids", "span", None),
    ("codec", "repro.lppa.location_bloom", "encode_location_bloom", "span",
     None),
    ("codec", "repro.lppa.location_bloom", "decode_location_bloom", "span",
     None),
    ("codec", "repro.lppa.bids_ope", "encode_bids_ope", "span", None),
    ("codec", "repro.lppa.bids_ope", "decode_bids_ope", "span", None),
    ("codec", "repro.net.frames", "encode_frame", "leaf", _frame),
    ("codec", "repro.net.frames", "decode_frame", "leaf", None),
    ("codec", "repro.net.frames", "pack_json", "leaf", None),
    ("codec", "repro.net.frames", "unpack_json", "leaf", None),
    ("net.transport", "repro.net.transport", "MemoryConnection.write", "async",
     _count("net.transport.writes", lambda a, r: 1)),
    ("net.transport", "repro.net.transport", "MemoryConnection.readexactly",
     "async", _read),
    ("net.client", "repro.net.client", "SUClient.connect", "async", None),
    ("net.client", "repro.net.client", "SUClient.run_round", "async", None),
    ("net.server", "repro.net.server", "AuctioneerServer._collect", "async",
     _collect),
    ("service.membership", "repro.service.membership", "MembershipManager.apply",
     "span", _apply),
    ("service.membership", "repro.service.membership", "rotate_ring", "span",
     None),
    ("service.store", "repro.service.store", "EpochStore.record_epoch", "span",
     _store),
    ("service.store", "repro.service.store", "EpochStore.finalize", "span",
     _store),
)
