"""The scale sweep's ``--verify``: the masked round against the plaintext answer."""

import dataclasses

from repro.auction.conflict import ConflictGraph
from repro.cli import main
from repro.experiments import scale
from repro.experiments.scale import run_scale_point


def test_verify_passes_on_a_300_su_round():
    point = run_scale_point(300, verify=True)
    assert point.verification is not None
    assert point.verification.passed, point.verification.failures()
    assert point.n_edges > 0


def test_verify_reports_a_dropped_conflict_edge(monkeypatch):
    honest_round = scale.run_lppa_auction

    def drop_one_edge(*args, **kwargs):
        result = honest_round(*args, **kwargs)
        graph = result.conflict_graph
        dropped = ConflictGraph(
            n_users=graph.n_users, edges=graph.edges - {min(graph.edges)}
        )
        return dataclasses.replace(result, conflict_graph=dropped)

    monkeypatch.setattr(scale, "run_lppa_auction", drop_one_edge)
    point = run_scale_point(300, verify=True)
    assert point.verification is not None
    assert not point.verification.passed
    assert "conflict graph" in point.verification.failures()


def test_cli_scale_verify_exit_codes(capsys, monkeypatch):
    assert main(["scale", "--sizes", "200", "--verify"]) == 0
    assert "masked round equals the plaintext answer" in capsys.readouterr().out

    honest = scale._verify

    def failing(*args, **kwargs):
        return dataclasses.replace(honest(*args, **kwargs), outcome_equal=False)

    monkeypatch.setattr(scale, "_verify", failing)
    assert main(["scale", "--sizes", "200", "--verify"]) == 1
    assert "NOT verified: outcome" in capsys.readouterr().err
