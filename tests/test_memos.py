"""The one per-process memo of ``fibration``: ``build_tree``'s weights and edges
per (spec, each fiber's fragment), which holds only specs that passed ``validate``.
The memo changes how often work is done, never what a call returns or raises."""

import random

import pytest

from negsphere import fibration, sl2z
from negsphere.fibers import fiber
from negsphere.fibration import FibrationSpec, ValidationError, build_tree, validate
from negsphere.search import MAX_K, MAX_N, best_sphere, enumerate_specs

from conftest import _empty_memos

GUARD_GRID = [(n, k) for n in range(2, MAX_N + 1) for k in range(MAX_K + 1)]


def _outputs(n, k):
    result = best_sphere(n, k)
    return result.to_json_dict(), result.graph.to_json_dict(), result.graph.to_dot()


def test_searches_with_empty_and_warm_memos_agree():
    pairs = random.Random(30).sample(GUARD_GRID, 200)
    cold = []
    for pair in pairs:
        _empty_memos()
        cold.append(_outputs(*pair))
    for _ in range(2):  # the first pass fills the memos, the second only reads them
        assert [_outputs(*pair) for pair in pairs] == cold
    assert fibration._tree_parts.cache_info().hits > 0


def test_a_tree_built_twice_is_equal_and_owns_its_lists():
    spec = FibrationSpec(6, ("E8t",) * 7 + ("II_cusp",))
    first, spent = build_tree(spec, {7: "replace"})
    second, _ = build_tree(spec, {7: "replace"})
    assert spent == 1 and fibration._tree_parts.cache_info().hits == 1
    assert first == second and first.edges == second.edges
    assert second._tree is None and second._coloring is None
    edges = set(first.edges)
    u, v = next((u, v) for u in range(first.vertex_count) for v in range(u + 1, first.vertex_count)
                if (u, v) not in edges)
    first.add_edge(u, v)
    first.weights[0] -= 1
    third, _ = build_tree(spec, {7: "replace"})
    assert second == third and (u, v) not in second.edges + third.edges
    assert second.weights[0] == third.weights[0] == -6


@pytest.mark.parametrize("spec, message", [
    (FibrationSpec(2, ("E8t", "E8t", "E6t", "I0star")), "euler sum"),
    (FibrationSpec(2, ("I1_nodal",) * 24), "monodromy is not the identity"),
])
def test_an_invalid_spec_raises_on_every_validation(spec, message):
    for _ in range(3):
        with pytest.raises(ValidationError, match=message):
            build_tree(spec)
    assert fibration._tree_parts.cache_info().currsize == 0


def test_a_repeated_build_multiplies_no_word(monkeypatch):
    fibers = ("E8t",) * 7 + ("II_cusp",)
    words = []
    multiply = sl2z.word_to_matrix
    monkeypatch.setattr(sl2z, "word_to_matrix", lambda word: words.append(word) or multiply(word))
    build_tree(FibrationSpec(6, fibers), {7: "resolve"})  # the miss validates the spec
    assert len(words) == 1
    build_tree(FibrationSpec(6, fibers), {7: "resolve"})  # an equal spec, not the same object
    build_tree(FibrationSpec(6, fibers), {7: "replace"})  # another fragment, another entry
    assert len(words) == 2
    for _ in range(2):  # validate alone keeps no memo
        validate(FibrationSpec(6, fibers))
    assert len(words) == 4


def _fragments(spec, resolutions):
    """The key ``build_tree``'s memo files a tree under."""
    return spec, tuple(option.fragment for option in fibration.fiber_options(spec, resolutions))


def test_each_memo_holds_at_most_its_bound():
    specs = [spec for n in (2, 3, 4) for spec in enumerate_specs(n)]
    plans = [{i: "skip" for i, name in enumerate(spec.fibers) if fiber(name).default is None}
             for spec in specs]
    trees = {_fragments(spec, plan) for spec, plan in zip(specs, plans)}
    assert len(trees) > fibration._MEMO_SIZE
    for spec, plan in zip(specs, plans):
        build_tree(spec, plan)
    info = fibration._tree_parts.cache_info()
    assert info.maxsize == fibration._MEMO_SIZE
    assert info.misses == len(trees) and info.currsize == fibration._MEMO_SIZE


def test_build_tree_resolves_the_options_once_on_a_miss_and_on_a_hit(monkeypatch):
    calls = []
    options = fibration.fiber_options
    monkeypatch.setattr(fibration, "fiber_options",
                        lambda *args: calls.append(args) or options(*args))
    spec = FibrationSpec(6, ("E8t",) * 7 + ("II_cusp",))
    for built in (1, 2):
        build_tree(spec, {7: "replace"})
        info = fibration._tree_parts.cache_info()
        assert (info.misses, info.hits, len(calls)) == (1, built - 1, built)


def test_plans_that_attach_the_same_fragments_share_one_entry():
    # the cusp is skipped either way; the second plan also names fiber 0's default
    spec = FibrationSpec(6, ("E8t",) * 7 + ("II_cusp",))
    plans = {7: "skip"}, {0: "use", 7: "skip"}
    assert _fragments(spec, plans[0]) == _fragments(spec, plans[1])
    (first, spent), (second, spent_too) = (build_tree(spec, plan) for plan in plans)
    info = fibration._tree_parts.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 1, 1)
    assert first == second and spent == spent_too == 0
