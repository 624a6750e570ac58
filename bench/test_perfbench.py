"""Tests for the benchmark's own code: span arithmetic and trace transparency."""

import json
from dataclasses import replace

import pytest

import run
from tracing import NAME, PARENT, SOLVE, Reference, SpanSummary, Tracer, self_times
from workloads import ROOT, WORKLOADS, Logistic6k, SaddleLong, SaddleSweep, trajectory_sha


def test_self_times_on_synthetic_span_tree():
    # root [0, 10] > a [1, 4] > a1 [2, 3]; root > b [5, 9]
    spans = [
        ["cli.main", 0.0, 10.0, -1, 0],
        ["solver.run", 1.0, 4.0, 0, 1],
        ["linalg.trs_solve", 2.0, 3.0, 1, 1],
        ["solver.run", 5.0, 9.0, 0, 2],
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    summary = SpanSummary.of(spans)
    assert summary.self_s["solver.run"] == 6.0
    assert summary.calls["solver.run"] == 2
    assert summary.layer_self("solver") == 6.0
    assert summary.root_s == 10.0
    layers = ("cli", "solver", "linalg")
    assert sum(summary.layer_self(layer) for layer in layers) == summary.root_s


def test_tracer_records_parents_and_solve_ids():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    leaf = tracer.wrap("linalg.spectral_norm", lambda: None)
    solve = tracer.wrap("solver.run", lambda: leaf())
    sweep = tracer.wrap("cli.main", lambda: [solve(), solve()])
    sweep()
    names = [s[NAME] for s in tracer.spans]
    assert names == [
        "cli.main",
        "solver.run",
        "linalg.spectral_norm",
        "solver.run",
        "linalg.spectral_norm",
    ]
    assert [s[PARENT] for s in tracer.spans] == [-1, 0, 1, 0, 3]
    assert [s[SOLVE] for s in tracer.spans] == [0, 1, 1, 2, 2]


def _small(workload):
    """The same workload cut to a few dozen iterations."""
    if isinstance(workload, SaddleSweep):
        workload.noises, workload.seeds = ["1e-2"], ["0"]
    elif isinstance(workload, SaddleLong):
        workload.solves = [(n, x0, replace(c, max_iters=30)) for n, x0, c in workload.solves]
    else:
        workload.solves = workload.solves[:1]
    return workload


@pytest.mark.parametrize("make", [SaddleSweep, SaddleLong, Logistic6k])
def test_tracing_changes_no_behaviour(make):
    workload = _small(make(0))
    plain = run.repetition(workload, traced=False)
    paced = run.repetition(workload, traced=False, reference=Reference())
    traced = run.repetition(workload, traced=True, reference=Reference())

    assert all(s.error is None and s.iterations > 0 for s in plain["solves"])
    assert paced["slices"] == sum(s.iterations for s in plain["solves"])
    assert paced["reference_s"] > 0.0 and (plain["slices"], traced["slices"]) == (0, 0)
    for other in (paced, traced):
        assert trajectory_sha(other["solves"]) == trajectory_sha(plain["solves"])
        assert other["samples"] == plain["samples"]
    assert sum(plain["samples"].values()) > 0

    spans = traced["spans"]
    layers = {name.split(".", 1)[0] for name in spans.calls}
    assert set(run.LAYERS) - {"cli"} <= layers <= set(run.LAYERS)
    assert ("cli" in layers) == isinstance(workload, SaddleSweep)
    assert spans.calls["solver.run"] == len(plain["solves"])
    assert sum(spans.layer_self(layer) for layer in layers) == pytest.approx(spans.root_s)
    assert 0.0 <= traced["wall_s"] - spans.root_s < 0.1 * traced["wall_s"]

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert list(WORKLOADS) == list(run.NAMES) == [w["name"] for w in declared["workloads"]]
    assert list(run.per_layer([plain, traced])) == [m["name"] for m in declared["per_layer"]]
    e2e = run.end_to_end([paced], setup_times=[1.0])
    assert list(e2e) == [m["name"] for m in declared["end_to_end"]]
