"""Scale sweep: sharded LPPA rounds at 1k–100k SUs (``BENCH_scale``).

ROADMAP item 2: the paper evaluates 100-SU rounds, but a deployed CRN
auction clears far larger regions.  This sweep measures one full-crypto
round per population size through the sharded round core
(:mod:`repro.lppa.round.sharding`) and — where feasible — the legacy
single-process path as a reference, so the scaling curve lands in the perf
trajectory next to the micro benches.

What the numbers mean
---------------------
``round_wall_s`` is the whole round: bidder-side masking, auctioneer-side
conflict graph + psd allocation, and TTP charging.  ``auctioneer_wall_s``
isolates the two auctioneer-side phases scale mode shards (conflict-graph
construction and psd allocation: the ``lppa.conflict_graph`` timer plus the
``psd_allocation`` phase), so the headline ``speedup`` compares *those
phases* against the single-process reference.  Neither path scans all
pairs — the reference runs the masked digest join, scale mode the
grid-bucket prefilter — so the speedup measures the prefilter and process
fan-out against the join.
Bidder-side synthesis is client-side work in a deployment (each SU masks
its own submission) and is identical in both paths; on a small host the
whole-round speedup is therefore diluted by it, which the artifact records
honestly via both wall times.

The population is synthetic (uniform cells, uniform bids) at the paper's
density — the grid side grows as ``ceil(sqrt(10 N))`` so ~10% of cells are
occupied at every size, matching the 100-SU / 100×100-grid evaluation
setup.  All randomness is label-addressed off ``scale:<seed>:<size>``, so
any two runs (and the sharded/reference pair) see the same users.

``verify=True`` additionally runs the reference round under the flight
recorder and demands the sharded round be **bit-identical**: equal
:class:`~repro.lppa.round.results.LppaResult`, equal trace summary, equal
timestamp-stripped event streams and an equal Theorem-4 communication
audit.  The CI ``scale-smoke`` matrix runs exactly this at 1k SUs for
shard counts 1, 2 and 8.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.analysis.trace_audit import audit_comm_cost
from repro.auction.bidders import SecondaryUser
from repro.geo.grid import GridSpec
from repro.lppa.session import run_lppa_auction
from repro.obs.clock import Stopwatch
from repro.obs.registry import MetricsRegistry, PHASE_TIMER_PREFIX
from repro.obs.trace import TraceRecorder

__all__ = [
    "DEFAULT_SIZES",
    "REFERENCE_CEILING",
    "ScalePoint",
    "ScaleVerification",
    "grid_side",
    "synthesize_population",
    "run_scale_point",
    "run_scale_sweep",
    "format_scale_table",
]

#: The committed-baseline sweep sizes.
DEFAULT_SIZES = (1_000, 10_000, 100_000)

#: Largest size for which the single-process reference is run by default.
#: Its conflict graph is a near-linear digest join, so the ceiling only
#: bounds the sweep's wall time: the reference repeats the whole round,
#: bidder-side masking included, for every size it covers.
REFERENCE_CEILING = 10_000

_TWO_LAMBDA = 6
_BMAX = 127
_N_CHANNELS = 6

#: Event keys stripped before comparing sharded vs reference event streams
#: (wall-clock timestamps/durations are the only legitimately varying fields).
_TIME_KEYS = frozenset(("ts", "ts_end", "dur"))


def grid_side(n_users: int) -> int:
    """Grid side keeping the paper's SU density (~10 cells per SU).

    1k SUs land on the paper's own 100×100 lattice; larger populations get
    proportionally larger areas so conflict-degree statistics stay
    comparable across sizes instead of saturating.
    """
    if n_users < 1:
        raise ValueError("need at least one user")
    return max(100, math.isqrt(10 * n_users - 1) + 1)


def synthesize_population(
    n_users: int,
    *,
    n_channels: int = _N_CHANNELS,
    bmax: int = _BMAX,
    seed: int = 0,
) -> Tuple[List[SecondaryUser], GridSpec]:
    """A uniform synthetic population at the paper's density.

    Deterministic in ``(n_users, n_channels, bmax, seed)`` — the sweep's
    sharded and reference rounds must audition the same users, and so must
    any two machines reproducing the committed baseline.
    """
    side = grid_side(n_users)
    grid = GridSpec(rows=side, cols=side)
    rng = random.Random(f"scale:{seed}:{n_users}")
    users = [
        SecondaryUser(
            user_id=i,
            cell=(rng.randrange(side), rng.randrange(side)),
            beta=1.0,
            bids=tuple(rng.randrange(0, bmax + 1) for _ in range(n_channels)),
        )
        for i in range(n_users)
    ]
    return users, grid


@dataclass(frozen=True)
class ScaleVerification:
    """Bit-exactness verdicts of one sharded-vs-reference comparison."""

    result_equal: bool
    trace_summary_equal: bool
    trace_events_equal: bool
    audit_equal: bool

    @property
    def passed(self) -> bool:
        return (
            self.result_equal
            and self.trace_summary_equal
            and self.trace_events_equal
            and self.audit_equal
        )

    def failures(self) -> List[str]:
        """Names of the comparisons that did not come out equal."""
        return [
            name
            for name, ok in (
                ("result", self.result_equal),
                ("trace summary", self.trace_summary_equal),
                ("trace events", self.trace_events_equal),
                ("theorem-4 audit", self.audit_equal),
            )
            if not ok
        ]


@dataclass
class ScalePoint:
    """One population size's measurements."""

    size: int
    shards: int
    grid_side: int
    n_channels: int
    n_edges: int
    winners: int
    round_wall_s: float
    auctioneer_wall_s: float
    reference_round_wall_s: Optional[float] = None
    reference_auctioneer_wall_s: Optional[float] = None
    verification: Optional[ScaleVerification] = None
    extras: Dict[str, Any] = field(default_factory=dict)

    @property
    def speedup(self) -> Optional[float]:
        """Auctioneer-phase speedup vs the single-process reference."""
        if not self.reference_auctioneer_wall_s or not self.auctioneer_wall_s:
            return None
        return self.reference_auctioneer_wall_s / self.auctioneer_wall_s

    @property
    def round_speedup(self) -> Optional[float]:
        """Whole-round speedup (diluted by the shared bidder-side work)."""
        if not self.reference_round_wall_s or not self.round_wall_s:
            return None
        return self.reference_round_wall_s / self.round_wall_s


def _strip_times(events: Sequence[Dict[str, Any]]) -> List[Dict[str, Any]]:
    return [
        {k: v for k, v in event.items() if k not in _TIME_KEYS}
        for event in events
    ]


def _auctioneer_seconds(registry: MetricsRegistry) -> float:
    """Conflict-graph + psd-allocation wall time from one round's registry."""
    total = 0.0
    for key, stat in registry.timers.items():
        if key.endswith("/lppa.conflict_graph") or key == "lppa.conflict_graph":
            total += stat.seconds
        elif key == f"{PHASE_TIMER_PREFIX}/psd_allocation":
            total += stat.seconds
    return total


def _timed_round(
    users: Sequence[SecondaryUser],
    grid: GridSpec,
    *,
    shards: Optional[int],
    entropy: bytes,
    traced: bool,
):
    """One round under a private registry (and optionally the recorder)."""
    recorder = (
        TraceRecorder(capacity=max(65_536, 16 * len(users))) if traced else None
    )
    watch = Stopwatch()
    # NB: an empty TraceRecorder is falsy — select on ``traced``, not on
    # the recorder's truthiness.
    with obs.collecting(
        MetricsRegistry(), trace=recorder if traced else None
    ) as registry:
        result = run_lppa_auction(
            users,
            grid,
            two_lambda=_TWO_LAMBDA,
            bmax=_BMAX,
            entropy=entropy,
            shards=shards,
        )
    wall = watch.elapsed()
    return result, wall, _auctioneer_seconds(registry), recorder


def _verify(reference_recorder, sharded_recorder, ref_result, sh_result):
    ref_events = reference_recorder.events()
    sh_events = sharded_recorder.events()
    return ScaleVerification(
        result_equal=ref_result == sh_result,
        trace_summary_equal=(
            reference_recorder.summary() == sharded_recorder.summary()
        ),
        trace_events_equal=_strip_times(ref_events) == _strip_times(sh_events),
        audit_equal=(
            audit_comm_cost(ref_events, strict=False)
            == audit_comm_cost(sh_events, strict=False)
        ),
    )


def run_scale_point(
    size: int,
    *,
    shards: int,
    n_channels: int = _N_CHANNELS,
    seed: int = 0,
    reference: Optional[bool] = None,
    verify: bool = False,
) -> ScalePoint:
    """Measure one population size; optionally verify against the reference.

    ``reference=None`` auto-enables the single-process reference up to
    :data:`REFERENCE_CEILING` SUs.  ``verify`` implies ``reference`` and
    runs both rounds under the flight recorder.
    """
    if reference is None:
        reference = size <= REFERENCE_CEILING
    if verify:
        reference = True
    users, grid = synthesize_population(
        size, n_channels=n_channels, seed=seed
    )
    entropy = f"scale:{seed}:{size}".encode()

    sh_result, sh_wall, sh_auct, sh_rec = _timed_round(
        users, grid, shards=shards, entropy=entropy, traced=verify
    )
    point = ScalePoint(
        size=size,
        shards=shards,
        grid_side=grid.rows,
        n_channels=n_channels,
        n_edges=sh_result.conflict_graph.n_edges,
        winners=len(sh_result.outcome.wins),
        round_wall_s=sh_wall,
        auctioneer_wall_s=sh_auct,
    )
    if reference:
        ref_result, ref_wall, ref_auct, ref_rec = _timed_round(
            users, grid, shards=None, entropy=entropy, traced=verify
        )
        point.reference_round_wall_s = ref_wall
        point.reference_auctioneer_wall_s = ref_auct
        if verify:
            assert ref_rec is not None and sh_rec is not None
            point.verification = _verify(
                ref_rec, sh_rec, ref_result, sh_result
            )
    _record_point(point)
    return point


def _record_point(point: ScalePoint) -> None:
    """Fold one point into the ambient obs registry (the BENCH artifact)."""
    if obs.get_active() is None:
        return
    prefix = f"scale.{point.size}"
    obs.record_seconds(f"{prefix}.sharded.round", point.round_wall_s)
    obs.record_seconds(f"{prefix}.sharded.auctioneer", point.auctioneer_wall_s)
    obs.count(f"{prefix}.shards", point.shards)
    obs.count(f"{prefix}.edges", point.n_edges)
    obs.count(f"{prefix}.winners", point.winners)
    if point.reference_round_wall_s is not None:
        obs.record_seconds(
            f"{prefix}.reference.round", point.reference_round_wall_s
        )
    if point.reference_auctioneer_wall_s is not None:
        obs.record_seconds(
            f"{prefix}.reference.auctioneer", point.reference_auctioneer_wall_s
        )
    if point.speedup is not None:
        # Speedups are dimensionless; counters carry them as ×1000 fixed
        # point so the artifact schema (int counters / seconds timers)
        # stays untouched.
        obs.count(f"{prefix}.speedup.auctioneer_x1000", int(point.speedup * 1000))
    if point.round_speedup is not None:
        obs.count(f"{prefix}.speedup.round_x1000", int(point.round_speedup * 1000))
    if point.verification is not None:
        obs.count(f"{prefix}.verified", 1 if point.verification.passed else 0)


def run_scale_sweep(
    sizes: Sequence[int] = DEFAULT_SIZES,
    *,
    shards: int,
    n_channels: int = _N_CHANNELS,
    seed: int = 0,
    reference: Optional[bool] = None,
    verify: bool = False,
    progress=None,
) -> List[ScalePoint]:
    """One :func:`run_scale_point` per size, smallest first."""
    points = []
    for size in sorted(sizes):
        if progress is not None:
            progress(size)
        points.append(
            run_scale_point(
                size,
                shards=shards,
                n_channels=n_channels,
                seed=seed,
                reference=reference,
                verify=verify,
            )
        )
    return points


def format_scale_table(points: Sequence[ScalePoint]) -> str:
    """The human-readable sweep summary the CLI prints."""
    lines = [
        f"{'SUs':>8}  {'grid':>9}  {'edges':>9}  {'winners':>8}  "
        f"{'round':>9}  {'auctioneer':>11}  {'ref auct':>9}  {'speedup':>8}",
    ]
    for p in points:
        ref = (
            f"{p.reference_auctioneer_wall_s:9.2f}"
            if p.reference_auctioneer_wall_s is not None
            else f"{'-':>9}"
        )
        speed = f"{p.speedup:7.1f}x" if p.speedup is not None else f"{'-':>8}"
        lines.append(
            f"{p.size:>8}  {p.grid_side:>4}x{p.grid_side:<4}  {p.n_edges:>9}  "
            f"{p.winners:>8}  {p.round_wall_s:8.2f}s  "
            f"{p.auctioneer_wall_s:10.2f}s  {ref}  {speed}"
        )
        if p.verification is not None:
            verdict = (
                "bit-identical to single-process path"
                if p.verification.passed
                else "MISMATCH: " + ", ".join(p.verification.failures())
            )
            lines.append(f"{'':>8}  verify({p.shards} shards): {verdict}")
    return "\n".join(lines)
