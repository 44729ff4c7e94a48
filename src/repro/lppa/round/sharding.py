"""Sharded execution of the round core's expensive phases.

Three phases of an LPPA round grow with the population:

* **conflict-graph construction** — the paper's pairwise masked
  membership tests.  The single-process path already evaluates them as a
  near-linear digest join
  (:func:`~repro.lppa.location.build_private_conflict_graph`);
* **bidder-side synthesis** — per-SU location/bid masking (embarrassingly
  parallel: each SU's material is a pure function of its own inputs);
* **psd rankings** — one digest-count ranking per channel
  (:func:`~repro.lppa.psd.rank_masked_column`).

This module shards all three across worker processes through the
process-pool engine (:func:`repro.experiments.engine.run_sweep`) and prunes
the conflict phase with the grid-bucket spatial prefilter
(:mod:`repro.geo.buckets`), so only plausibly co-located SU pairs are
tested pairwise.  The prefilter reads the SUs' plaintext cells, which a
real auctioneer never holds (DESIGN.md §9); it is a simulation shortcut of
scale mode only.

Determinism contract
--------------------
Sharding must be invisible in the results: a sharded round is required to
be **bit-identical** to the single-process path at any shard count.  Three
properties deliver that, and the differential tests pin each one:

* *no randomness in sharded work unless label-addressed* — location masking
  consumes no RNG at all; bid synthesis draws only from the per-SU streams
  of :func:`repro.lppa.entropy.derive_round_rngs`, which are independent by
  construction, so executing SU ``i``'s draws in another process cannot
  perturb SU ``j``'s.  When a round runs with one *shared* RNG (the
  legacy ``rng=`` path), bid synthesis stays serial in the parent — the
  draw interleaving is the contract there, and only a single stream can
  honour it;
* *order-preserving reassembly* — every fan-out partitions work into
  contiguous, deterministic chunks (``shard_slices`` / pair chunks in
  candidate order) and ``run_sweep`` returns results in submission order,
  so concatenation reproduces the serial iteration order exactly;
* *shared kernels* — workers run the same functions the serial path runs
  (:func:`~repro.lppa.location.submit_locations`,
  :func:`~repro.prefix.membership.is_member`,
  :func:`~repro.lppa.psd.rank_masked_column` /
  :func:`~repro.lppa.round.tables.rank_integer_column`), so a verdict
  computed remotely is the same bytes-in/bytes-out computation.

Shipping the inputs: the fork stash
-----------------------------------
Masked submissions and bid-table columns are large; pickling them into
every task would swamp the fan-out's win (measured: a 10k-SU conflict
sweep spends multiples of its compute time serialising masked sets).  The
engine prefers the ``fork`` start method, under which workers inherit the
parent's memory copy-on-write — so each phase front-end parks its bulky
read-only inputs in a module-level **stash** (:func:`_stashed`) and hands
workers only slice indices.  Task functions read the stash via
:func:`_stash`, which raises in a process that did not inherit it (a
``spawn``-start worker); the engine treats that like any other worker
failure and re-runs the sweep serially in the parent, where the stash is
always present — slower, still bit-identical.

Worker-side telemetry is *not* lost: when the parent has an active
:mod:`repro.obs` registry or flight recorder at fan-out time, every task
runs under a fresh worker-local registry + recorder
(:func:`_run_instrumented`) and ships a picklable rollup — counters,
timers (including a per-task ``<sweep>.worker`` wall timer), histograms
and any buffered trace events — back through the ordinary task result.
The front-ends fold counters/timers/histograms into the parent registry
*inside the still-open parent phase scope*, so sharded scoped keys and
totals match the serial path's exactly; worker trace events land in a
separate module-level buffer (:func:`drain_worker_events`) and are never
folded into the parent recorder, so the parent's trace stream — which the
differential trace-equality tests pin across shard counts — is untouched.
Gauges are deliberately not folded: last-write-wins has no cross-process
meaning.

``shards`` semantics: ``None`` (default) is the legacy single-process path,
byte-for-byte untouched.  ``1`` enables *scale mode* (prefilter on, fan-out
code paths active) but runs every chunk serially in the parent — no pool is
ever spawned.  ``>= 2`` fans chunks over that many worker processes.
"""

from __future__ import annotations

import collections
import contextlib
import os
from dataclasses import replace
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    FrozenSet,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro import obs
from repro.obs import trace
from repro.obs.clock import Stopwatch
from repro.obs.hist import Histogram
from repro.obs.registry import MetricsRegistry
from repro.auction.conflict import ConflictGraph, cells_conflict
from repro.geo.buckets import candidate_pairs
from repro.geo.grid import Cell
from repro.lppa.bids_advanced import SubmissionDisclosure, submit_bids_advanced
from repro.lppa.location import submit_locations
from repro.lppa.messages import BidSubmission, LocationSubmission
from repro.lppa.psd import MaskedBidTable, rank_masked_column
from repro.lppa.round.state import RoundState
from repro.lppa.round.tables import IntegerMaskedTable, rank_integer_column
from repro.prefix.membership import is_member

__all__ = [
    "SHARDS_ENV",
    "WORKER_EVENT_CAPACITY",
    "resolve_shards",
    "shard_slices",
    "chunk_pairs",
    "independent_user_rngs",
    "drain_worker_events",
    "sharded_location_submissions",
    "sharded_bid_submissions",
    "sharded_conflict_edges",
    "sharded_plain_conflict",
    "sharded_masked_rankings",
    "sharded_integer_rankings",
]

#: Environment variable consulted when no explicit shard count is given.
SHARDS_ENV = "REPRO_SHARDS"

#: Ring-buffer capacity of each worker-local flight recorder.
WORKER_EVENT_CAPACITY = 4096


def run_sweep(*args, **kwargs):
    """Late-bound :func:`repro.experiments.engine.run_sweep`.

    Imported at call time: the experiments package's ``__init__`` imports
    the fastsim wrapper, which imports this package — a module-level import
    here would close that cycle during interpreter start-up.
    """
    from repro.experiments.engine import run_sweep as _run_sweep

    return _run_sweep(*args, **kwargs)


def resolve_shards(shards: Optional[int] = None) -> Optional[int]:
    """The effective shard count: argument, else ``REPRO_SHARDS``, else None.

    ``None`` means "legacy single-process path" — not one shard.  A shard
    count of 1 runs the scale-mode code (spatial prefilter, chunked phase
    functions) serially in the parent, which is the cheapest way to get the
    prefilter's algorithmic win without any process machinery.
    """
    if shards is None:
        raw = os.environ.get(SHARDS_ENV, "").strip()
        if not raw:
            return None
        try:
            shards = int(raw)
        except ValueError as exc:
            raise ValueError(
                f"{SHARDS_ENV} must be a positive integer, got {raw!r}"
            ) from exc
    if shards < 1:
        raise ValueError(f"shard count must be >= 1, got {shards}")
    return shards


def shard_slices(n: int, shards: int) -> List[Tuple[int, int]]:
    """Contiguous, balanced ``[start, stop)`` slices covering ``range(n)``.

    Sizes differ by at most one, larger slices first; empty slices are
    dropped, so ``shards > n`` degrades to ``n`` singleton slices.  The
    partition is a pure function of ``(n, shards)`` — workers can be handed
    a slice id and nothing else and still agree on the split.
    """
    if shards < 1:
        raise ValueError(f"shard count must be >= 1, got {shards}")
    if n < 0:
        raise ValueError(f"cannot slice {n} items")
    base, extra = divmod(n, shards)
    slices: List[Tuple[int, int]] = []
    start = 0
    for index in range(shards):
        size = base + (1 if index < extra else 0)
        if size == 0:
            break
        slices.append((start, start + size))
        start += size
    return slices


def chunk_pairs(
    pairs: Sequence[Tuple[int, int]], shards: int
) -> List[Sequence[Tuple[int, int]]]:
    """Split a pair list into at most ``shards`` contiguous chunks."""
    return [pairs[start:stop] for start, stop in shard_slices(len(pairs), shards)]


# -- the fork stash -----------------------------------------------------------

_STASH: Optional[Dict[str, Any]] = None


@contextlib.contextmanager
def _stashed(**data: Any) -> Iterator[None]:
    """Park bulky read-only task inputs for the duration of one fan-out.

    Fork-started workers inherit the stash copy-on-write; serial execution
    (``shards=1`` or the engine's fallback) reads it directly from the
    parent.  Restores the previous stash on exit so nested fan-outs cannot
    clobber each other.
    """
    global _STASH
    previous = _STASH
    _STASH = data
    try:
        yield
    finally:
        _STASH = previous


def _stash(key: str) -> Any:
    stash = _STASH
    if stash is None:
        # A spawn-started worker re-imported this module and never inherited
        # the stash.  Raising here makes the engine fall back to serial
        # execution in the parent, where the stash is always set.
        raise RuntimeError(
            "shard stash not inherited by this worker (non-fork start "
            "method); the sweep engine will re-run serially in the parent"
        )
    return stash[key]


# -- worker telemetry ---------------------------------------------------------

#: Worker trace events shipped back by rollups, awaiting :func:`drain_worker_events`.
_worker_events: Deque[Dict[str, Any]] = collections.deque(maxlen=1 << 16)

#: A picklable worker-side telemetry rollup (see :func:`_run_instrumented`).
Rollup = Dict[str, Any]


def _telemetry_spec(name: str) -> Optional[Dict[str, str]]:
    """The per-fan-out telemetry instruction parked in the stash.

    ``None`` — the common case, nothing collecting in the parent — keeps
    every task on the zero-overhead path; otherwise the task knows which
    sweep it serves so its wall timer lands on ``<name>.worker``.
    """
    if obs.get_active() is None and trace.get_active() is None:
        return None
    return {"name": name}


def _run_instrumented(
    spec: Optional[Dict[str, str]], work: Callable[[], Any]
) -> Tuple[Any, Optional[Rollup]]:
    """Run one task body, capturing its telemetry when the parent asked.

    A fresh worker-local registry and flight recorder shadow whatever the
    process inherited (fork copies the parent's active registry — counting
    into that copy would be silently lost; in serial execution it *is* the
    parent's registry, and counting into it directly would bypass the fold
    and double-apply the parent phase scope).  Everything recorded travels
    home as a plain-dict rollup in the task result.
    """
    if spec is None:
        return work(), None
    registry = MetricsRegistry()
    recorder = trace.TraceRecorder(capacity=WORKER_EVENT_CAPACITY)
    recorder.set_correlation(role="shard-worker")
    watch = Stopwatch()
    with obs.collecting(registry, trace=recorder):
        payload = work()
    registry.record_raw_seconds(f"{spec['name']}.worker", watch.elapsed())
    rollup: Rollup = {
        "counters": registry.counters,
        "timers": {k: t.as_dict() for k, t in registry.timers.items()},
        "histograms": {k: h.as_dict() for k, h in registry.histograms.items()},
        "events": recorder.events(),
    }
    return payload, rollup


def _fold_rollups(rollups: Sequence[Optional[Rollup]]) -> None:
    """Fold worker rollups into the parent's registry and event buffer.

    Must run inside the same parent phase scope the serial path would
    record under: ``count``/``record_seconds`` re-apply the current scope,
    so a worker's bare ``prefix.membership_checks`` lands on exactly the
    scoped key the single-process round uses.  Trace events are *buffered*,
    never folded into the parent recorder — the parent's stream must stay
    identical at every shard count.
    """
    registry = obs.get_active()
    for rollup in rollups:
        if rollup is None:
            continue
        if registry is not None:
            for key, value in rollup["counters"].items():
                registry.count(key, value)
            for key, stat in rollup["timers"].items():
                registry.record_seconds(
                    key, stat["seconds"], int(stat["count"])
                )
            path = registry.phase_path()
            for key, payload in rollup["histograms"].items():
                scoped = f"{path}/{key}" if path else key
                registry.merge_histogram_raw(scoped, Histogram.from_dict(payload))
        _worker_events.extend(rollup["events"])


def _split_results(
    results: Sequence[Tuple[Any, Optional[Rollup]]]
) -> List[Any]:
    """Fold the telemetry halves; return the payload halves in order."""
    _fold_rollups([rollup for _, rollup in results])
    return [payload for payload, _ in results]


def drain_worker_events() -> List[Dict[str, Any]]:
    """Remove and return every buffered worker trace event (oldest first).

    ``repro trace merge`` treats the returned list as one extra source;
    events carry ``role="shard-worker"`` but no session (workers never see
    the WELCOME announcement — stamp one before merging if desired).
    """
    events = list(_worker_events)
    _worker_events.clear()
    return events


# -- worker tasks (module-level: picklable by reference) ----------------------


def _location_task(
    spec: Tuple[int, int]
) -> Tuple[List[LocationSubmission], Optional[Rollup]]:
    """Mask one contiguous slice of the population's locations.

    Masking consumes no randomness, so the digests are a pure function of
    the cells — only the dense user ids need re-basing onto the slice
    offset.
    """
    start, stop = spec

    def work() -> List[LocationSubmission]:
        cells: Sequence[Cell] = _stash("cells")
        subs = submit_locations(
            cells[start:stop], _stash("g0"), _stash("grid"), _stash("two_lambda")
        )
        return [replace(sub, user_id=start + sub.user_id) for sub in subs]

    return _run_instrumented(_stash("telemetry"), work)


def _bid_task(
    spec: Tuple[int, int]
) -> Tuple[
    Tuple[List[BidSubmission], List[SubmissionDisclosure]], Optional[Rollup]
]:
    """Synthesize one contiguous slice of bid submissions.

    Each SU draws exclusively from its own RNG stream, so the draws made
    here are byte-identical to the ones the serial loop would make for the
    same users — stream independence is the whole contract.  In a forked
    worker the streams are copy-on-write copies; in serial execution they
    are the parent's own objects, advancing exactly as the legacy loop
    would advance them.
    """
    start, stop = spec

    def work() -> Tuple[List[BidSubmission], List[SubmissionDisclosure]]:
        bid_rows = _stash("bid_rows")
        keyring = _stash("keyring")
        scale = _stash("scale")
        rngs = _stash("rngs")
        policies = _stash("policies")
        subs: List[BidSubmission] = []
        disclosures: List[SubmissionDisclosure] = []
        for user in range(start, stop):
            submission, disclosure = submit_bids_advanced(
                user, bid_rows[user], keyring, scale, rngs[user],
                policy=policies[user],
            )
            subs.append(submission)
            disclosures.append(disclosure)
        return subs, disclosures

    return _run_instrumented(_stash("telemetry"), work)


def _masked_pair_task(
    spec: Tuple[int, int]
) -> Tuple[List[Tuple[int, int]], Optional[Rollup]]:
    """Decide one slice of candidate pairs by masked membership tests."""
    start, stop = spec

    def work() -> List[Tuple[int, int]]:
        pairs: Sequence[Tuple[int, int]] = _stash("pairs")
        subs: Sequence[LocationSubmission] = _stash("subs")
        edges: List[Tuple[int, int]] = []
        for i, j in pairs[start:stop]:
            a, b = subs[i], subs[j]
            if is_member(a.x_family, b.x_range) and is_member(a.y_family, b.y_range):
                edges.append((i, j))
        return edges

    return _run_instrumented(_stash("telemetry"), work)


def _plain_pair_task(
    spec: Tuple[int, int]
) -> Tuple[List[Tuple[int, int]], Optional[Rollup]]:
    """Decide one slice of candidate pairs on plaintext cells."""
    start, stop = spec

    def work() -> List[Tuple[int, int]]:
        pairs: Sequence[Tuple[int, int]] = _stash("pairs")
        cells: Sequence[Cell] = _stash("cells")
        two_lambda: int = _stash("two_lambda")
        return [
            (i, j)
            for i, j in pairs[start:stop]
            if cells_conflict(cells[i], cells[j], two_lambda)
        ]

    return _run_instrumented(_stash("telemetry"), work)


def _masked_rank_task(
    channel: int
) -> Tuple[List[List[int]], Optional[Rollup]]:
    """Rank one masked column (one channel) in a worker."""
    return _run_instrumented(
        _stash("telemetry"),
        lambda: rank_masked_column(_stash("columns")[channel]),
    )


def _integer_rank_task(
    channel: int
) -> Tuple[List[List[int]], Optional[Rollup]]:
    """Rank one integer column (one channel) in a worker."""
    return _run_instrumented(
        _stash("telemetry"),
        lambda: rank_integer_column(_stash("columns")[channel]),
    )


# -- phase front-ends (called by the value backends) --------------------------


def sharded_location_submissions(state: RoundState) -> List[LocationSubmission]:
    """The whole population's location submissions, masked in shards.

    Digest-identical to :func:`~repro.lppa.location.submit_locations` over
    the full population: each chunk masks the same HMAC inputs, and the
    slice order restores the dense id order.
    """
    assert state.users is not None and state.keyring is not None
    assert state.grid is not None and state.shards is not None
    cells = [user.cell for user in state.users]
    with _stashed(
        cells=cells,
        g0=state.keyring.g0,
        grid=state.grid,
        two_lambda=state.two_lambda,
        telemetry=_telemetry_spec("shard.locations"),
    ):
        chunks = _split_results(run_sweep(
            _location_task,
            shard_slices(len(cells), state.shards),
            workers=state.shards,
            chunksize=1,
            name="shard.locations",
        ))
    return [sub for chunk in chunks for sub in chunk]


def independent_user_rngs(state: RoundState) -> bool:
    """True when every bidder draws from its own RNG object.

    The shared-RNG legacy path aliases one ``random.Random`` across all
    users *and* the allocator; its draw interleaving only exists serially,
    so bid synthesis must not fan out.  Entropy-derived rounds
    (:func:`repro.lppa.entropy.derive_round_rngs`) always pass this check.
    """
    if state.user_rngs is None:
        return False
    ids = {id(rng) for rng in state.user_rngs}
    if len(ids) != len(state.user_rngs):
        return False
    return all(state.alloc_rng is not rng for rng in state.user_rngs)


def sharded_bid_submissions(
    state: RoundState,
) -> Tuple[List[BidSubmission], List[SubmissionDisclosure]]:
    """All bid submissions + disclosures, synthesized in shards.

    Falls back to a single serial chunk (still through ``run_sweep``, which
    never spawns a pool for one worker) when the round's RNG streams are
    not per-user independent — see :func:`independent_user_rngs`.  In the
    serial case the stash holds the *actual* RNG objects, so the parent's
    stream state advances exactly as the legacy loop would advance it.
    """
    assert state.users is not None and state.user_rngs is not None
    assert state.keyring is not None and state.scale is not None
    assert state.policies is not None and state.shards is not None
    workers = state.shards if independent_user_rngs(state) else 1
    with _stashed(
        bid_rows=[user.bids for user in state.users],
        keyring=state.keyring,
        scale=state.scale,
        rngs=state.user_rngs,
        policies=state.policies,
        telemetry=_telemetry_spec("shard.bids"),
    ):
        chunks = _split_results(run_sweep(
            _bid_task,
            shard_slices(len(state.users), workers),
            workers=workers,
            chunksize=1,
            name="shard.bids",
        ))
    subs = [sub for chunk in chunks for sub in chunk[0]]
    disclosures = [d for chunk in chunks for d in chunk[1]]
    return subs, disclosures


def sharded_conflict_edges(state: RoundState) -> FrozenSet[Tuple[int, int]]:
    """The private conflict graph's edge set, prefiltered and sharded.

    The grid-bucket prefilter enumerates every plausibly co-located pair
    (a sound superset of the true conflict pairs — see
    :mod:`repro.geo.buckets`); the masked membership tests then decide each
    candidate exactly as the all-pairs scan would, so the resulting edge
    frozenset is identical.  Workers receive only pair-slice indices; the
    masked submissions travel through the fork stash.
    """
    assert state.users is not None and state.location_subs is not None
    assert state.shards is not None
    cells = [user.cell for user in state.users]
    pairs = list(candidate_pairs(cells, state.two_lambda))
    with _stashed(
        pairs=pairs,
        subs=state.location_subs,
        telemetry=_telemetry_spec("shard.conflict"),
    ):
        edge_chunks = _split_results(run_sweep(
            _masked_pair_task,
            shard_slices(len(pairs), state.shards),
            workers=state.shards,
            chunksize=1,
            name="shard.conflict",
        ))
    return frozenset(edge for chunk in edge_chunks for edge in chunk)


def sharded_plain_conflict(
    cells: Sequence[Cell], two_lambda: int, shards: int
) -> ConflictGraph:
    """Plaintext conflict graph via the same prefilter + fan-out."""
    cell_list = list(cells)
    pairs = list(candidate_pairs(cell_list, two_lambda))
    with _stashed(
        pairs=pairs,
        cells=cell_list,
        two_lambda=two_lambda,
        telemetry=_telemetry_spec("shard.conflict"),
    ):
        edge_chunks = _split_results(run_sweep(
            _plain_pair_task,
            shard_slices(len(pairs), shards),
            workers=shards,
            chunksize=1,
            name="shard.conflict",
        ))
    edges = frozenset(edge for chunk in edge_chunks for edge in chunk)
    return ConflictGraph(n_users=len(cell_list), edges=edges)


def sharded_masked_rankings(
    table: MaskedBidTable, shards: int
) -> List[List[List[int]]]:
    """Every channel's ranking, one worker per channel column.

    Identical classes to :meth:`MaskedBidTable.rankings` because worker and
    table share :func:`~repro.lppa.psd.rank_masked_column` — install the
    result via :meth:`MaskedBidTable.set_rankings` before the allocator
    runs.
    """
    with _stashed(
        columns=[table.column(ch) for ch in range(table.n_channels)],
        telemetry=_telemetry_spec("shard.rankings"),
    ):
        return _split_results(run_sweep(
            _masked_rank_task,
            list(range(table.n_channels)),
            workers=shards,
            chunksize=1,
            name="shard.rankings",
        ))


def sharded_integer_rankings(
    table: IntegerMaskedTable, shards: int
) -> List[List[List[int]]]:
    """Plain-path twin of :func:`sharded_masked_rankings`."""
    with _stashed(
        columns=[table.column(ch) for ch in range(table.n_channels)],
        telemetry=_telemetry_spec("shard.rankings"),
    ):
        return _split_results(run_sweep(
            _integer_rank_task,
            list(range(table.n_channels)),
            workers=shards,
            chunksize=1,
            name="shard.rankings",
        ))
