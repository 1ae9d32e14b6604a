"""Tests of the benchmark itself: seeded inputs, tracer restore, failure counting."""

from __future__ import annotations

import argparse
import dataclasses
import json
import shutil
import subprocess
import sys
from itertools import islice
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import WORKLOADS, Checks, Record  # noqa: E402

ns = run.load_package(ROOT)


def _first_passes(name: str, seed: int, count: int = 2):
    return list(islice(iter(WORKLOADS[name].passes(seed)), count))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_inputs_other_seed_other_inputs(name):
    first = _first_passes(name, 7)
    assert first == _first_passes(name, 7)
    other = _first_passes(name, 8)
    assert other != first
    assert [len(item) for item in other] == [len(item) for item in first]


def test_search_grid_draws_every_guard_pair_once():
    rounds = workloads.search_grid_passes(3)
    pairs = [pair for round_ in rounds for pair in round_]
    assert sorted(pairs) == [(n, k) for n in workloads.GRID_N for k in workloads.GRID_K]
    # every round samples each n once
    assert all(sorted(n for n, _ in round_) == list(workloads.GRID_N) for round_ in rounds)


def test_exhaustive_tree_shapes_are_cayley_counts():
    counts = {}
    for n, edges in workloads.labeled_tree_shapes(6):
        assert len(edges) == n - 1
        counts[n] = counts.get(n, 0) + 1
    assert counts == {1: 1, 2: 1, 3: 3, 4: 16, 5: 125, 6: 1296}


@pytest.mark.parametrize("n", [2, 3, 4])
def test_spec_count_oracle_matches_a_clean_drain(n):
    specs = list(ns.enumerate_specs(n))
    assert len(specs) == workloads.spec_count(n)
    assert workloads.spec_problems(n, specs) == []
    assert workloads.spec_problems(n, specs[:-1]) != []
    assert workloads.spec_problems(n, list(reversed(specs))) != []


def _snapshot():
    sites = [m for key, m in sys.modules.items() if key == "negsphere" or key.startswith("negsphere.")]
    state = {(id(m), key): value for m in sites for key, value in vars(m).items()}
    classes = {value for m in sites for value in vars(m).values() if isinstance(value, type)}
    methods = {(id(cls), key): value for cls in classes for key, value in vars(cls).items()}
    return state, methods


def test_tracer_restores_every_original():
    before = _snapshot()
    original = ns.search.build_tree
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert ns.search.build_tree is not original
        assert ns.fibration.build_tree is ns.search.build_tree
        assert ns.cli.best_sphere is ns.best_sphere
        assert ns.PlumbingGraph.add_edge is not before[1][(id(ns.PlumbingGraph), "add_edge")]
        assert ns.GroupElement.from_lists([[1, 1], [0, 1]]) == ns.generator("a")
        ns.best_sphere(2, 1)
    finally:
        tracer.uninstall()
    assert _snapshot() == before
    assert ns.search.build_tree is original


def test_traced_run_counts_calls_and_accounts_for_wall_time():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        root = tracer.open(tracing.BENCH_SPAN)
        result = ns.best_sphere(6, 3)
        specs = list(ns.enumerate_specs(3))
        tracer.close(root)
    finally:
        tracer.uninstall()
    assert result.best_square == -279
    metrics = tracing.layer_metrics(tracer, tracer.end[0] - tracer.start[0], 0.0)
    assert set(metrics) == set(run.PER_LAYER)
    assert metrics["search.best_sphere.calls"] == 1
    assert metrics["search.enumerate_specs.yielded"] == len(specs)
    assert metrics["fibration.build_tree.calls"] >= 1
    assert metrics["plumbing.blow_up_edge.calls"] == 2
    assert metrics["sl2z.letters"] > 0
    accounted = sum(metrics[f"{layer}.self_s"] for layer in tracing.LAYERS)
    accounted += metrics["bench.self_s"]
    assert accounted == pytest.approx(metrics["trace.wall_s"])


def test_calls_into_another_layer_are_timed_in_that_layer():
    spec = ns.reference_decomposition(3)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        root = tracer.open(tracing.BENCH_SPAN)
        ns.build_tree(spec)
        tracer.close(root)
    finally:
        tracer.uninstall()
    # build_tree's add_vertex/add_edge calls open plumbing spans under it;
    # the graph's own calls into plumbing (copy, add_vertex) are only counted
    assert tracer.counts["plumbing.PlumbingGraph.add_edge.calls"] > 0
    assert tracer.span_seconds("plumbing.PlumbingGraph.add_edge", "fibration.build_tree") > 0
    assert tracer.self_times()["plumbing"] > 0


def test_traced_run_does_the_same_work_whatever_the_seconds(tmp_path):
    sweep = WORKLOADS["rewrite-sweep"]
    small = dataclasses.replace(
        sweep, passes=lambda seed: [trees[:40] for trees in islice(sweep.passes(seed), 3)],
        trace_passes=2)
    counts = []
    for seconds in (0.001, 100.0):
        args = argparse.Namespace(seed=5, seconds=seconds)
        metrics, _, rec, _ = run.traced(ns, small, args, ROOT, {"workdir": tmp_path})
        assert rec.attempted == 80 and rec.failed == 0
        counts.append({k: v for k, v in metrics.items() if run.PER_LAYER[k] == "count"})
    assert counts[0] == counts[1]
    assert counts[0]["plumbing.blow_up_edge.calls"] > 0


def test_errors_are_counted_once_per_layer_left():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with pytest.raises(ns.ValidationError):
            ns.best_sphere(1, 0)
        with pytest.raises(ns.ValidationError):
            ns.reference_decomposition(1)
    finally:
        tracer.uninstall()
    assert tracer.counts["search.errors"] == 1
    assert tracer.counts["fibration.errors"] == 1


def test_injected_wrong_search_answer_is_counted_as_failed(monkeypatch):
    honest = ns.best_sphere

    def off_by_one(n, k, **kwargs):
        return dataclasses.replace(honest(n, k, **kwargs), best_square=honest(n, k).best_square - 1)

    monkeypatch.setattr(ns, "best_sphere", off_by_one)
    rec = Record()
    workloads.run_search_pass(ns, [(2, 0), (3, 4)], rec, Checks(), {})
    assert (rec.attempted, rec.failed) == (2, 2)


def test_injected_missing_spec_is_counted_as_failed(monkeypatch):
    honest = ns.enumerate_specs
    monkeypatch.setattr(ns, "enumerate_specs", lambda n: iter(list(honest(n))[1:]))
    rec = Record()
    workloads.run_enumerate_pass(ns, [2, 3], rec, Checks(), {})
    assert (rec.attempted, rec.failed) == (2, 2)


def test_injected_wrong_smooth_is_counted_as_failed(monkeypatch):
    honest = ns.PlumbingGraph.smooth
    monkeypatch.setattr(ns.PlumbingGraph, "smooth", lambda graph: honest(graph) - any(graph.exceptional))
    rec = Record()
    trees = [((-2, -3), ((0, 1),)), ((-1, -2, -3, -4), ((0, 1), (1, 2), (1, 3)))]
    workloads.run_rewrite_pass(ns, trees, rec, Checks(), {})
    assert (rec.attempted, rec.failed) == (2, 2)


def test_clean_passes_have_no_failures(tmp_path):
    for name, first in (("search-grid", [(2, 1), (6, 3)]), ("enumerate-specs", [2, 3]),
                        ("rewrite-sweep", _first_passes("rewrite-sweep", 1, 1)[0][:30]),
                        ("paper-session", [("small", 6, 3), ("small", 5, 0)])):
        rec = Record()
        WORKLOADS[name].run_pass(ns, first, rec, Checks(), {"workdir": tmp_path})
        assert rec.attempted > 0 and rec.failed == 0, (name, rec.problems)


def test_benchmark_json_matches_the_metrics_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_refuses_a_checkout_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "search-grid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""
