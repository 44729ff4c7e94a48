"""Smoke test of the benchmark itself, at toy size (about 20 SUs a round).

    python3 -m pytest perfbench/test_smoke.py -q

Each workload runs with ``--toy`` in a few seconds.  The test asserts that
every metric ``BENCHMARK.json`` names is printed with its unit, that the
deterministic counts repeat for one seed, and that the benchmark refuses
to run where there is no program.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

#: Counts that must read the same on every run with one seed.
DETERMINISTIC = {
    0: ("framed_bytes_per_su",),
    1: (
        "crypto.backend.messages",
        "prefix.membership.member_tests",
        "lppa.location.pairs_tested",
        "lppa.location_bloom.false_edges",
    ),
}


def run(root: Path, workload: str, trace: int, seed: int = 1):
    return subprocess.run(
        [
            sys.executable,
            "perfbench/run.py",
            "--workload",
            workload,
            "--seed",
            str(seed),
            "--seconds",
            "1",
            "--trace",
            str(trace),
            "--toy",
        ],
        cwd=root,
        capture_output=True,
        text=True,
        timeout=170,
    )


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["perfbench_run"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, trace):
    result, record = result_of(run(ROOT, workload, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 2
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in expected]
    for metric in expected:
        printed = result["metrics"][metric["name"]]
        assert printed == {"value": printed["value"], "unit": metric["unit"]}
        assert isinstance(printed["value"], float)
    for metric in SPEC["end_to_end"] if not trace else ():
        assert result["metrics"][metric["name"]]["value"] > 0
    for key in ("seed", "python", "crypto_backend", "nproc", "git_commit",
                "src_sha256", "host_calib_before_s", "host_calib_after_s"):
        assert key in record


@pytest.mark.parametrize("workload", WORKLOADS)
def test_deterministic_counts_repeat_for_one_seed(workload):
    for trace, names in DETERMINISTIC.items():
        first, _ = result_of(run(ROOT, workload, trace, seed=7))
        second, _ = result_of(run(ROOT, workload, trace, seed=7))
        for name in names:
            assert first["metrics"][name] == second["metrics"][name], name


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench",
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = run(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
