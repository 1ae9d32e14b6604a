"""The per-process memos of ``fibration``: ``validate``'s verdict per (n, fibers)
and ``build_tree``'s weights and edges per (n, fibers, resolution items).  A memo
changes how often work is done, never what a call returns or raises."""

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
            validate(spec)
    assert fibration._validate.cache_info().currsize == 0


def test_a_repeated_validation_multiplies_no_word(monkeypatch):
    fibers = ("E8t",) * 7 + ("II_cusp",)
    validate(FibrationSpec(6, fibers))
    words = []
    multiply = sl2z.word_to_matrix
    monkeypatch.setattr(sl2z, "word_to_matrix", lambda word: words.append(word) or multiply(word))
    validate(FibrationSpec(6, fibers))  # an equal spec, not the same object
    build_tree(FibrationSpec(6, fibers), {7: "resolve"})
    assert words == []
    validate(FibrationSpec(6, fibers[::-1]))  # another listing is another key
    assert len(words) == 1


def test_each_memo_holds_at_most_its_bound():
    specs = [spec for n in (2, 3, 4) for spec in enumerate_specs(n)]
    assert len(specs) > fibration._MEMO_SIZE
    for spec in specs:
        validate(spec)
        build_tree(spec, {i: "skip" for i, name in enumerate(spec.fibers)
                          if fiber(name).default is None})
    for memo in (fibration._validate, fibration._tree_parts):
        info = memo.cache_info()
        assert info.maxsize == fibration._MEMO_SIZE
        assert info.misses == len(specs) and info.currsize == fibration._MEMO_SIZE
