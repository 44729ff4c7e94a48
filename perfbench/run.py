"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload round-ppbs-2k --seed 1 --seconds 12 --trace 0

Run from the root of a checkout.  The program is the checkout's own
``src/repro``; the benchmark refuses to run (exit 2) without it.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics
with ``--trace 1``.  The line before it records the run: seed,
interpreter, crypto backend, CPU count, source digest, host calibration
and the sample counts behind each statistic.  The exit code is 1 when a
round failed its correctness oracle.

A ``--trace 1`` run first measures exactly as ``--trace 0`` does (so the
tracing overhead can be stated), then runs one more session with every
layer wrapped (see ``tracer.py``).  Per-layer values are per round of
that session.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import workloads as wl

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"

#: Seeds at or above this value are held out: use them only to confirm a
#: claim that was tuned on lower seeds.
HELDOUT_SEED_MIN = 1000

#: Session index of the traced session, apart from the measured ones.
TRACE_SESSION = 900

#: Environment switches that select other code paths than the default.
_CLEARED_ENV = (
    "REPRO_SHARDS",
    "REPRO_SCHEME",
    "REPRO_MASK_CACHE",
    "REPRO_WORKERS",
    "REPRO_CRYPTO_BACKEND",
)


def calibrate(track: wl.HostTrack) -> float:
    """The host calibration loop's seconds, median of five."""
    return statistics.median(track.sample() for _ in range(5))


def tail(values: Sequence[float]):
    """The highest percentile with at least ten samples beyond it.

    Never below the median: with fewer than 21 samples that rule would
    pick a percentile under the median, so the median's upper neighbour
    is used instead.  Returns ``(value, percentile, samples_beyond)``.
    """
    ordered = sorted(values)
    n = len(ordered)
    k = max(n - 11, n // 2)
    return ordered[k], 100.0 * (k + 1) / n, n - 1 - k


def run_sessions(workload, seed: int, budget_s: float, untimed):
    """Sessions until ``budget_s`` of set-up plus round time is spent."""
    sessions: List[wl.Session] = []
    measured = 0.0
    while measured < budget_s or len(sessions) < workload.min_sessions:
        session = workload.session(seed, len(sessions), untimed)
        sessions.append(session)
        measured += session.measured_s
    return sessions


#: Times the imports in a fresh interpreter; prints its clock readings.
_IMPORT_PROBE = """
import importlib, sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
for name in sys.argv[2:]:
    importlib.import_module(name)
print(t0, time.perf_counter())
"""


def time_imports(modules: Sequence[str], track: wl.HostTrack) -> List[wl.Interval]:
    """The workload's imports, timed three times, each in a fresh
    interpreter (``perf_counter`` is one system-wide clock here, so the
    child's readings line up with the calibration track)."""
    intervals = []
    for _ in range(3):
        track.sample()
        probe = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE, str(ROOT / "src"), *modules],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        track.sample()
        begin, end = (float(x) for x in probe.stdout.split())
        intervals.append(wl.Interval(end - begin, begin, end))
    return intervals


def traced_session(workload, seed: int):
    """One session with every layer wrapped and the obs registry on."""
    from repro import obs
    from repro.crypto.cache import get_mask_cache
    from repro.lppa.bids_ope import reset_ope_cache
    from repro.obs.registry import MetricsRegistry

    import tracer as tr

    # Start from the caches a fresh process has, so the per-layer counts
    # do not depend on how many rounds the measured sessions ran.
    get_mask_cache().clear()
    reset_ope_cache()
    tracer = tr.Tracer()
    registry = MetricsRegistry()

    def untimed(check):
        tracer.uninstall()
        previous = obs.disable()
        try:
            check()
        finally:
            obs.enable(previous)
            tracer.install()

    workload.clock.tracer = tracer
    tracer.install()
    try:
        with obs.collecting(registry):
            session = workload.session(seed, TRACE_SESSION, untimed)
    finally:
        tracer.uninstall()
        workload.clock.tracer = None
    return session, tracer, registry


def steady_rounds(sessions: Sequence[wl.Session]) -> List[wl.RoundRecord]:
    """Completed rounds after each session's first."""
    return [r for s in sessions for r in s.rounds[1:] if r.error is None]


def timings(sessions, imports, scale) -> Dict[str, float]:
    """The timing metrics, each interval's seconds mapped through ``scale``."""
    firsts = [s.rounds[0] for s in sessions if s.rounds and s.rounds[0].error is None]
    steady = steady_rounds(sessions)
    seconds = [scale(r.interval) for r in steady]
    periods = [scale(r.period) for r in steady if r.period is not None]
    return {
        "setup_s": statistics.median(scale(i) for i in imports)
        + statistics.median(scale(s.setup) for s in sessions),
        "first_round_s": statistics.median(scale(r.interval) for r in firsts),
        "round_s_p50": statistics.median(seconds),
        "round_s_tail": tail(seconds)[0],
        "sus_per_s": sum(r.participants for r in steady) / sum(seconds),
        "epoch_s_p50": statistics.median(periods),
    }


def end_to_end(workload, sessions, imports, track, info: Dict) -> Dict[str, float]:
    steady = steady_rounds(sessions)
    _, percentile, beyond = tail([r.interval.seconds for r in steady])
    deterministic = sessions[0].rounds[: workload.deterministic_rounds]
    loops = [d for _, d in track.samples]
    info.update(
        sessions=len(sessions),
        steady_rounds=len(steady),
        periods=sum(1 for r in steady if r.period is not None),
        round_s_tail_percentile=round(percentile, 2),
        round_s_tail_beyond=beyond,
        as_measured=timings(sessions, imports, lambda i: i.seconds),
        host_loop_samples=len(loops),
        host_loop_s={
            "min": min(loops),
            "median": statistics.median(loops),
            "max": max(loops),
        },
    )
    values = timings(
        sessions, imports, lambda i: track.reference(i.seconds, i.begin, i.end)
    )
    values["framed_bytes_per_su"] = sum(
        r.framed_bytes for r in deterministic
    ) / sum(r.participants for r in deterministic)
    values["peak_rss_mib"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    return values


def per_layer(
    session, tracer, registry, traced_p50: float, untraced_p50: float,
    calib_s: float, failed_share: float,
) -> Dict[str, float]:
    rounds = max(1, len(session.rounds))
    totals = registry.totals()
    counts = tracer.counts
    layers = tracer.layers
    timers = registry.timers

    def per_round(value: float) -> float:
        return value / rounds

    def phase(name: str) -> float:
        return per_round(
            sum(
                stat.seconds
                for key, stat in timers.items()
                if key == f"phase/{name}" or key.endswith(f"/phase/{name}")
            )
        )

    hits = totals.get("crypto.mask_cache.hits", 0)
    lookups = hits + totals.get("crypto.mask_cache.misses", 0)
    completed = [r for r in session.rounds if r.error is None]
    wall = sum(r.interval.seconds for r in completed)
    attributed = sum(r.attributed_s for r in completed)
    values = {
        "utils.rng.calls": per_round(counts["utils.rng.calls"]),
        "utils.rng.self_s": per_round(layers["utils.rng"].self_s),
        "crypto.backend.messages": per_round(counts["crypto.backend.messages"]),
        "crypto.backend.self_s": per_round(layers["crypto.backend"].self_s),
        "crypto.cache.hit_ratio": hits / lookups if lookups else 0.0,
        "crypto.cache.evictions": per_round(
            totals.get("crypto.mask_cache.evictions", 0)
        ),
        "crypto.cache.invalidations": per_round(
            totals.get("crypto.mask_cache.invalidations", 0)
        ),
        "crypto.speck.blocks": per_round(counts["crypto.speck.blocks"]),
        "crypto.speck.self_s": per_round(layers["crypto.speck"].self_s),
        "crypto.ope.self_s": per_round(layers["crypto.ope"].self_s),
        "prefix.membership.mask_sets": per_round(totals.get("prefix.masked_sets", 0)),
        "prefix.membership.member_tests": per_round(
            totals.get("prefix.membership_checks", 0)
        ),
        "prefix.membership.self_s": per_round(layers["prefix.membership"].self_s),
        "lppa.location.pairs_tested": per_round(counts["lppa.location.pairs_tested"]),
        "lppa.location.edges": per_round(counts["lppa.location.edges"]),
        "lppa.location.conflict_graph_s": per_round(
            counts["lppa.location.conflict_graph_s"]
        ),
        "lppa.location_bloom.filter_build_s": per_round(
            counts["lppa.location_bloom.filter_build_s"]
        ),
        "lppa.location_bloom.conflict_graph_s": per_round(
            counts["lppa.location_bloom.conflict_graph_s"]
        ),
        "lppa.location_bloom.false_edges": per_round(
            session.notes.get("false_edges", 0)
        ),
        "lppa.bids_advanced.self_s": per_round(layers["lppa.bids_advanced"].self_s),
        "lppa.bids_ope.self_s": per_round(layers["lppa.bids_ope"].self_s),
        "lppa.psd.bid_compares": per_round(counts["lppa.psd.bid_compares"]),
        "lppa.psd.self_s": per_round(layers["lppa.psd"].self_s),
        "lppa.ttp.self_s": per_round(layers["lppa.ttp"].self_s),
        "lppa.ttp.decisions.valid": per_round(counts["lppa.ttp.decisions.valid"]),
        "lppa.ttp.decisions.invalid_zero": per_round(
            counts["lppa.ttp.decisions.invalid_zero"]
        ),
        "lppa.ttp.decisions.cheating": per_round(
            counts["lppa.ttp.decisions.cheating"]
        ),
        "lppa.round.phase.setup_s": per_round(counts["lppa.round.phase.setup_s"]),
        "lppa.round.phase.location_submission_s": phase("location_submission"),
        "lppa.round.phase.bid_submission_s": phase("bid_submission"),
        "lppa.round.phase.psd_allocation_s": phase("psd_allocation"),
        "lppa.round.phase.ttp_charging_s": phase("ttp_charging"),
        "lppa.round.unattributed_share": 1.0 - attributed / wall if wall else 0.0,
        "net.frames.frames": per_round(counts["net.frames.frames"]),
        "net.frames.bytes": per_round(counts["net.frames.bytes"]),
        "net.frames.codec_s": per_round(layers["codec"].self_s),
        "net.transport.writes": per_round(counts["net.transport.writes"]),
        "net.transport.read_wait_s": per_round(counts["net.transport.read_wait_s"]),
        "net.server.collect_wait_s": per_round(counts["net.server.collect_wait_s"]),
        "net.client.self_s": per_round(layers["net.client"].self_s),
        "service.membership.apply_s": per_round(counts["service.membership.apply_s"]),
        "service.membership.rekeys": per_round(totals.get("service.rekeys", 0)),
        "service.store.write_s": per_round(counts["service.store.write_s"]),
        "service.store.bytes_written": per_round(
            session.notes.get("history_bytes", 0)
        ),
        "obs.trace_overhead_share": traced_p50 / untraced_p50 - 1.0,
        "host.calib_s": calib_s,
        "failed_share": failed_share,
    }
    return values


def git_commit() -> Optional[str]:
    """The checkout's commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = git / ref
        if path.is_file():
            return path.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def source_digest() -> str:
    """SHA-256 over every source file of the program, path and content."""
    digest = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def emit(spec: Sequence[Dict], values: Dict[str, float]) -> Dict[str, Dict]:
    """Every metric of ``spec``, in order, with its unit."""
    names = [m["name"] for m in spec]
    if set(names) != set(values):
        raise RuntimeError(
            f"metrics disagree with BENCHMARK.json: "
            f"missing {sorted(set(names) - set(values))}, "
            f"extra {sorted(set(values) - set(names))}"
        )
    out = {}
    for metric in spec:
        value = float(values[metric["name"]])
        if not math.isfinite(value):
            raise RuntimeError(f"{metric['name']} is not finite: {value}")
        out[metric["name"]] = {"value": value, "unit": metric["unit"]}
    return out


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--toy",
        action="store_true",
        help="about 20 SUs and 3 rounds a session (the smoke test)",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for name in _CLEARED_ENV:
        os.environ.pop(name, None)
    sys.path.insert(0, str(ROOT / "src"))
    # Byte-compile first, so the timed imports never include compilation.
    compileall.compile_dir(str(ROOT / "src"), quiet=2)

    track = wl.HostTrack()
    calib_before = calibrate(track)
    workload = wl.make_workload(args.workload, args.toy, track, OUT_DIR)
    imports = time_imports(workload.modules, track)
    for name in workload.modules:
        importlib.import_module(name)

    try:
        sessions = run_sessions(
            workload, args.seed, args.seconds, lambda check: check()
        )
        if not steady_rounds(sessions) or not any(
            s.rounds and s.rounds[0].error is None for s in sessions
        ):
            print("perfbench: rounds did not complete", file=sys.stderr)
            return 1
        info: Dict = {}
        values = end_to_end(workload, sessions, imports, track, info)
        traced = None
        if args.trace:
            traced = traced_session(workload, args.seed)
            sessions = sessions + [traced[0]]
    finally:
        workload.clock.uninstall()
        shutil.rmtree(OUT_DIR, ignore_errors=True)
    calib_after = calibrate(track)

    attempted = sum(max(s.planned, len(s.rounds)) for s in sessions)
    failed = sum(s.failed for s in sessions)
    if traced is not None:
        session, tracer, registry = traced
        completed = [r for r in session.rounds if r.error is None]
        traced_rounds = completed[1:] or completed
        values = per_layer(
            session,
            tracer,
            registry,
            statistics.median(
                track.reference(i.seconds, i.begin, i.end)
                for i in (r.interval for r in traced_rounds)
            ),
            values["round_s_p50"],
            (calib_before + calib_after) / 2,
            failed / attempted,
        )
        info["layers_self_s"] = {
            name: stat.self_s / max(1, len(session.rounds))
            for name, stat in sorted(tracer.layers.items())
        }
    from repro.crypto.backend import get_backend

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "held_out": args.seed >= HELDOUT_SEED_MIN,
        "seconds": args.seconds,
        "trace": args.trace,
        "toy": args.toy,
        "python": platform.python_version(),
        "crypto_backend": get_backend(),
        "nproc": os.cpu_count(),
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
        "host_calib_before_s": calib_before,
        "host_calib_after_s": calib_after,
        **info,
    }
    print(json.dumps({"perfbench_run": record}, sort_keys=True))
    metrics = emit(spec["per_layer" if args.trace else "end_to_end"], values)
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
