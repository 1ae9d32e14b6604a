"""Acceptance criteria, one test per criterion, one printed line each."""

import random
import time
from fractions import Fraction

import pytest

from negsphere import sl2z
from negsphere.fibers import catalog, fiber
from negsphere.fibration import (
    betti,
    build_tree,
    closed_form_square,
    construction_square,
    reference_decomposition,
)
from negsphere.plumbing import PlumbingGraph, oracle_square
from negsphere.search import best_sphere, blowup_guarantee, conjecture_check

from treegen import all_labeled_trees, random_tree_graph, tree_graph


def _report(number: int, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {detail}")


def _best_of_runs(fn, runs: int = 5) -> float:
    elapsed = []
    for _ in range(runs):
        start = time.perf_counter()
        fn()
        elapsed.append(time.perf_counter() - start)
    return min(elapsed)


@pytest.fixture(scope="module")
def search_grid():
    start = time.perf_counter()
    results = {
        (n, k): best_sphere(n, k)
        for n in range(2, 13)
        for k in range(0, 11)
    }
    return results, time.perf_counter() - start


def test_criterion_1_group_relations():
    def relations():
        assert sl2z.word_to_matrix("aba") == sl2z.word_to_matrix("bab")
        assert sl2z.is_identity(sl2z.word_to_matrix("ab" * 6))

    runtime = _best_of_runs(relations)
    ok = runtime < 1e-3
    _report(1, ok, f"aba = bab and (ab)^6 = 1, exact, {runtime * 1000:.3f} ms")
    assert ok


def test_criterion_2_s_table():
    start = time.perf_counter()
    discrepancies = []
    ok = True
    for n in range(2, 21):
        graph, _ = build_tree(reference_decomposition(n))
        smooth = graph.smooth()
        oracle = oracle_square(graph, graph.two_coloring())
        value = construction_square(n)
        ok = ok and smooth == oracle == value
        if n % 5 == 0:
            printed = closed_form_square(n)
            ok = ok and printed - value == 4
            discrepancies.append(f"n={n}: {value} vs printed {printed}")
    ok = ok and construction_square(2) == -86 and construction_square(6) == -262
    runtime = time.perf_counter() - start
    ok = ok and runtime < 1.0
    _report(
        2,
        ok,
        f"s-table 2..20 exact (s(2)=-86, s(6)=-262; {'; '.join(discrepancies)}), "
        f"{runtime:.2f} s",
    )
    assert ok


def test_criterion_3_oracle_equivalence():
    start = time.perf_counter()
    checked = 0
    ok = True
    for n, edges in all_labeled_trees(8):
        graph = tree_graph(n, edges)
        coloring = graph.two_coloring()
        ok = ok and graph.smooth() == oracle_square(graph, coloring)
        checked += 1
    rng = random.Random(13371337)
    for _ in range(1000):
        graph = random_tree_graph(rng, max_vertices=40)
        ok = ok and graph.smooth() == oracle_square(graph, graph.two_coloring())
        checked += 1
    runtime = time.perf_counter() - start
    ok = ok and runtime < 30.0
    _report(3, ok, f"smooth == v^T Q v on {checked} trees (exhaustive <= 8 "
                   f"vertices + 1000 random <= 40), {runtime:.1f} s")
    assert ok


def test_criterion_4_blowup_deltas():
    start = time.perf_counter()
    rewrites = 0
    ok = True
    for n, edges in all_labeled_trees(8):
        graph = tree_graph(n, edges)
        smooth = graph.smooth()
        for e in graph.edges:
            ok = ok and graph.blow_up_edge(e).smooth() == smooth - 5
            rewrites += 1
        for v in range(n):
            ok = ok and graph.blow_up_point_on_vertex(v).smooth() == smooth - 4
            rewrites += 1
    # two-sphere identity x + y - 2 - 5k over every blow-up sequence
    identity_checks = 0
    for x in range(-6, 0):
        for y in range(-6, 0):
            frontier = [PlumbingGraph.from_weights([x, y], [(0, 1)])]
            for k in range(0, 5):
                for graph in frontier:
                    ok = ok and graph.smooth() == x + y - 2 - 5 * k
                    identity_checks += 1
                if k < 4:
                    frontier = [g.blow_up_edge(e) for g in frontier for e in g.edges]
    runtime = time.perf_counter() - start
    _report(4, ok, f"-5 per edge / -4 per point over {rewrites} rewrites; "
                   f"x+y-2-5k on {identity_checks} chains, {runtime:.1f} s")
    assert ok


def test_criterion_5_example_battery():
    from negsphere.fibration import FibrationSpec

    checks = []

    spec_k3 = FibrationSpec(n=2, fibers=("E8t", "E8t", "IV"))
    tree_k3, used = build_tree(spec_k3, resolutions={2: "resolve"})
    checks.append(("E(2)#1", tree_k3.smooth() == -92 and tree_k3.vertex_count == 23
                   and used == 1))

    spec_e6 = FibrationSpec(n=6, fibers=("E8t",) * 7 + ("II_cusp",))
    partial, _ = build_tree(spec_e6, resolutions={7: "skip"})
    checks.append(("E(6) partial -258", partial.smooth() == -258))

    reference, _ = build_tree(reference_decomposition(6))
    checks.append(("E(6)#1 tube -266",
                   reference.blow_up_point_on_vertex(0).smooth() == -266))
    checks.append(("E(6)#1 edge -267",
                   reference.blow_up_edge(min(reference.edges)).smooth() == -267))
    replaced, _ = build_tree(spec_e6, resolutions={7: "replace"})
    checks.append(("E(6)#1 replacement -269", replaced.smooth() == -269))

    three_edges = reference
    for _ in range(3):
        three_edges = three_edges.blow_up_edge(min(three_edges.edges))
    checks.append(("E(6)#3 edges -277", three_edges.smooth() == -277))
    resolved, _ = build_tree(spec_e6, resolutions={7: "resolve"})
    checks.append(("E(6)#3 cusp resolved -278", resolved.smooth() == -278))
    replaced_edges = replaced
    for _ in range(2):
        replaced_edges = replaced_edges.blow_up_edge(min(replaced_edges.edges))
    checks.append(("E(6)#3 replacement+edges -279", replaced_edges.smooth() == -279))

    ok = all(good for _, good in checks)
    failing = [name for name, good in checks if not good]
    _report(5, ok, "examples -92/-258/-266/-267/-269/-277/-278/-279 all exact"
            if ok else f"failing: {failing}")
    assert ok


def test_criterion_6_search_rediscovery(search_grid):
    results, grid_runtime = search_grid
    ok = results[(2, 0)].best_square == -86
    ok = ok and results[(2, 1)].best_square <= -92
    ok = ok and results[(6, 1)].best_square <= -269
    ok = ok and results[(6, 3)].best_square <= -279
    dominated = all(
        results[(n, k)].best_square <= blowup_guarantee(n, k)
        for n in range(2, 13)
        for k in range(0, 11)
    )
    ok = ok and dominated and grid_runtime < 300.0
    _report(6, ok, f"rediscovered -86/-92/-269/-279; grid n<=12, k<=10 never "
                   f"worse than s(n)-5k; grid in {grid_runtime:.1f} s")
    assert ok


def test_criterion_7_conjecture_screen(search_grid):
    results, _ = search_grid
    worst = None
    ok = True
    for (n, k), result in results.items():
        ratio, satisfies = conjecture_check(result)
        ok = ok and satisfies
        assert ratio == Fraction(result.best_square, betti(n, k).b2)
        if worst is None or ratio < worst:
            worst = ratio
    _report(7, ok, f"all {len(results)} spheres satisfy [S]^2 >= -5*b2; "
                   f"most negative ratio {worst} ~ {float(worst):.4f}")
    assert ok


def test_criterion_8_catalog_consistency():
    def consistency():
        for entry in catalog():
            assert entry.euler == len(entry.word)
            for option in entry.options:
                if option.choice == "use":
                    assert option.fragment.euler_characteristic() == entry.euler
        for name, blowups, weights in (
            ("II_cusp", 3, [-6, -3, -2, -1]),
            ("III", 2, [-4, -4, -2, -1]),
            ("IV", 1, [-3, -3, -3, -1]),
        ):
            option = fiber(name).option("resolve")
            fragment, used = option.fragment, option.blowups
            assert used == blowups
            assert sorted(fragment.graph.weights) == weights
            assert fragment.graph.edge_count == 3

    runtime = _best_of_runs(consistency)
    ok = runtime < 1e-3
    _report(8, ok, f"8 catalog entries and 3 resolution recipes exact, "
                   f"{runtime * 1000:.3f} ms")
    assert ok
