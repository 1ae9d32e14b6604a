import dataclasses
import itertools
import json
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from negsphere import fibration
from negsphere.cli import main
from negsphere.fibers import FIBER_ORDER, catalog, fiber
from negsphere.fibration import (
    ASSUMED_REALIZABLE,
    FibrationSpec,
    PAPER_VERIFIED,
    ValidationError,
    WORKED_EXAMPLES,
    betti,
    build_tree,
    closed_form_square,
    construction_square,
    reference_decomposition,
    validate,
)
from negsphere.plumbing import PlumbingGraph, oracle_square
from negsphere.search import (
    BlowupPlan,
    SearchResult,
    best_sphere,
    enumerate_specs,
    replay_plan,
)


def spec_of(n, *names):
    return FibrationSpec(n=n, fibers=tuple(names))


def test_validate_k3_with_type_iv():
    validate(spec_of(2, "E8t", "E8t", "IV"))


def test_validate_euler_mismatch():
    with pytest.raises(ValidationError, match=r"euler sum 34 != 24"):
        validate(spec_of(2, "E8t", "E8t", "E6t", "I0star"))


def test_validate_e6_with_cusp():
    validate(spec_of(6, *(["E8t"] * 7), "II_cusp"))


def test_validate_rejects_small_n():
    with pytest.raises(ValidationError, match="at least 2"):
        validate(spec_of(1, "E8t", "II_cusp"))


def test_validate_nonidentity_monodromy():
    # 24 nodal fibers have the right Euler sum but word a^24 != 1
    with pytest.raises(ValidationError, match="not the identity"):
        validate(spec_of(2, *(["I1_nodal"] * 24)))


def test_reference_decomposition_residues():
    assert reference_decomposition(5).fibers == ("E8t",) * 6
    assert reference_decomposition(6).fibers == ("E8t",) * 6 + ("I0star", "I0star")
    assert reference_decomposition(2).fibers == ("E8t", "E6t", "I0star")
    assert reference_decomposition(8).fibers == ("E8t",) * 9 + ("I0star",)
    assert reference_decomposition(4).fibers == ("E8t",) * 4 + ("E6t",)
    assert reference_decomposition(2).provenance == PAPER_VERIFIED


def test_a_spec_is_its_n_and_fibers():
    assert [f.name for f in dataclasses.fields(FibrationSpec)] == ["n", "fibers"]
    for n in range(2, 31):
        reference = reference_decomposition(n)
        assert FibrationSpec(n, reference.fibers) == reference
        assert FibrationSpec(n, reference.fibers).provenance == PAPER_VERIFIED


@pytest.mark.parametrize("row", [row for row in WORKED_EXAMPLES if row.fibers is not None]
                         + [row for row in WORKED_EXAMPLES if row.fibers is None][:2])
def test_every_order_of_a_worked_example_has_its_provenance(row):
    canonical = row.fibers or reference_decomposition(row.n).fibers
    orders = set(itertools.permutations(canonical))
    assert canonical in orders and len(orders) > 1
    for fibers in orders:
        spec = FibrationSpec(row.n, fibers)
        # each row makes its choice on the one fiber of that type
        choices = {fibers.index(canonical[i]): c for i, c in row.choices.items()}
        assert spec.provenance == PAPER_VERIFIED
        plan = BlowupPlan(choices, row.edge_blowups)
        assert SearchResult(row.n, row.k, row.square, spec, plan).provenance == PAPER_VERIFIED


@given(st.integers(-3, 40), st.lists(st.sampled_from([e.name for e in catalog()]), max_size=12))
@example(n=1, fibers=["I0star", "I0star"])
@example(n=0, fibers=[])
@example(n=10**12, fibers=["E8t"] * 6)
@example(n=2, fibers=["I0star", "E6t", "E8t"])
def test_reading_provenance_never_raises(n, fibers):
    spec = FibrationSpec(n, fibers)
    assert spec.provenance in (PAPER_VERIFIED, ASSUMED_REALIZABLE)
    assert spec.provenance == spec.canonical().provenance
    if n < 2:
        assert spec.provenance == ASSUMED_REALIZABLE


def test_reference_decomposition_validates_up_to_30():
    for n in range(2, 31):
        validate(reference_decomposition(n))


def test_reference_decomposition_is_validated_once_per_n(monkeypatch):
    monkeypatch.setattr(fibration, "_REFERENCE_SPECS", {})
    calls = []
    monkeypatch.setattr(fibration, "validate", lambda spec: calls.append(spec.n) or validate(spec))
    first = reference_decomposition(7)
    assert reference_decomposition(7) is first
    assert reference_decomposition(8) is reference_decomposition(8)
    assert calls == [7, 8]


def test_memoised_reference_equals_a_fresh_build(monkeypatch):
    memoised = {n: reference_decomposition(n) for n in range(2, 31)}
    monkeypatch.setattr(fibration, "_REFERENCE_SPECS", {})
    for n, spec in memoised.items():
        fresh = reference_decomposition(n)
        validate(fresh)
        assert fresh == spec and fresh.provenance == PAPER_VERIFIED


def test_reference_decomposition_does_not_cache_errors():
    for _ in range(2):
        with pytest.raises(ValidationError, match="at least 2"):
            reference_decomposition(1)
    assert 1 not in fibration._REFERENCE_SPECS


def test_construction_square_anchors():
    assert construction_square(2) == -86
    assert construction_square(6) == -262
    assert construction_square(5) == -221


def test_construction_matches_tree_and_oracle():
    for n in range(2, 31):
        graph, _ = build_tree(reference_decomposition(n))
        smooth = graph.smooth()
        assert smooth == construction_square(n)
        assert oracle_square(graph, graph.two_coloring()) == smooth


def test_closed_form_values():
    assert closed_form_square(2) == Fraction(-86)
    assert closed_form_square(6) == Fraction(-262)
    assert closed_form_square(5) == Fraction(-217)


def test_closed_form_discrepancy_only_at_multiples_of_five():
    for n in range(2, 31):
        built = construction_square(n)
        printed = closed_form_square(n)
        if n % 5 == 0:
            assert printed - built == 4
        else:
            assert printed == built


def test_build_k3_blowup_tree():
    graph, blowups = build_tree(spec_of(2, "E8t", "E8t", "IV"), resolutions={2: "resolve"})
    assert graph.vertex_count == 23
    assert blowups == 1
    assert graph.smooth() == -92
    weights = sorted(graph.weights)
    assert weights.count(-2) == 19 and weights.count(-3) == 3 and weights.count(-1) == 1


def test_build_e6_partial_tree():
    spec = spec_of(6, *(["E8t"] * 7), "II_cusp")
    graph, blowups = build_tree(spec, resolutions={7: "skip"})
    assert graph.vertex_count == 64
    assert blowups == 0
    assert graph.smooth() == -258


def test_build_e6_with_replacement():
    spec = spec_of(6, *(["E8t"] * 7), "II_cusp")
    graph, blowups = build_tree(spec, resolutions={7: "replace"})
    assert blowups == 1
    assert graph.smooth() == -269


def test_build_e6_blowup_strategies():
    graph, _ = build_tree(reference_decomposition(6))
    assert graph.blow_up_point_on_vertex(0).smooth() == -266
    assert graph.blow_up_edge(min(graph.edges)).smooth() == -267


def test_build_requires_resolution_choice():
    with pytest.raises(ValidationError, match="requires a resolution choice"):
        build_tree(spec_of(2, "E8t", "E8t", "IV"))


def test_build_rejects_replace_on_type_iv():
    with pytest.raises(ValidationError, match="applies only to II_cusp"):
        build_tree(spec_of(2, "E8t", "E8t", "IV"), resolutions={2: "replace"})


def test_build_rejects_nodal_fiber_in_use():
    # a valid decomposition whose canonical-order word is the identity
    spec = spec_of(2, "E7t", "E6t", "I0star", "I1_nodal")
    validate(spec)
    with pytest.raises(ValidationError, match="does not take a resolution choice"):
        build_tree(spec, resolutions={3: "use"})


def test_build_skips_nodal_fiber_by_default():
    spec = spec_of(2, "E7t", "E6t", "I0star", "I1_nodal")
    graph, blowups = build_tree(spec)
    # section + E7t + E6t + I0star fragments, nodal fiber dropped
    assert graph.vertex_count == 1 + 8 + 7 + 5
    assert blowups == 0
    assert graph.smooth() == -2 - 32 - 28 - 20


def test_build_rejects_choice_on_fragment_fiber():
    with pytest.raises(ValidationError, match="does not take a resolution choice"):
        build_tree(spec_of(2, "E8t", "E6t", "I0star"), resolutions={0: "resolve"})


def test_build_use_subset():
    spec = spec_of(2, "E8t", "E6t", "I0star")
    graph, _ = build_tree(spec, resolutions={1: "skip", 2: "skip"})
    assert graph.vertex_count == 10  # section + E8t fragment
    assert graph.smooth() == -2 - 36


def test_attachment_vertex_independence():
    # a section joined to any vertex of any catalog fragment smooths alike
    for entry in catalog():
        for option in entry.options:
            frag = option.fragment
            if frag is None:
                continue
            values = set()
            for vertex in range(frag.graph.vertex_count):
                edges = [(u + 1, v + 1) for u, v in frag.graph.edges] + [(0, vertex + 1)]
                values.add(PlumbingGraph.from_weights([-2] + frag.graph.weights, edges).smooth())
            assert values == {-2 + option.contribution}, (entry.name, option.choice)


def test_catalog_graphs_are_never_edited(tmp_path, capsys):
    # every tree, search and catalog print shares the catalog's graphs
    graphs = [option.fragment.graph for entry in catalog() for option in entry.options
              if option.fragment is not None]
    before = [repr(graph) for graph in graphs]
    for row in WORKED_EXAMPLES:
        spec = reference_decomposition(row.n) if row.fibers is None else spec_of(row.n, *row.fibers)
        build_tree(spec, row.choices)
    for n, k in ((2, 1), (6, 3), (30, 50)):
        best_sphere(n, k)
    assert main(["catalog", "--json", "--dot", str(tmp_path / "catalog.dot")]) == 0
    assert [repr(graph) for graph in graphs] == before


def test_validity_is_order_independent_for_ab_powers():
    rng = random.Random(42)
    fibers = ["E8t", "E8t", "IV"]
    for _ in range(6):
        rng.shuffle(fibers)
        validate(FibrationSpec(n=2, fibers=tuple(fibers)))
    mixed = ["E8t"] * 6 + ["I0star", "I0star"]
    for _ in range(10):
        rng.shuffle(mixed)
        validate(FibrationSpec(n=6, fibers=tuple(mixed)))


def _verdict(fibers):
    try:
        validate(FibrationSpec(n=2, fibers=fibers))
    except ValidationError:
        return False
    return True


def test_validity_depends_on_the_multiset_only():
    multisets = [fibers for size in range(1, 6)
                 for fibers in itertools.combinations_with_replacement(FIBER_ORDER, size)
                 if sum(fiber(name).euler for name in fibers) == 24]
    assert len(multisets) == 56
    orders = {fibers: set(itertools.permutations(fibers)) for fibers in multisets}
    assert sum(map(len, orders.values())) == 1943
    split = [fibers for fibers, listed in orders.items() if len(set(map(_verdict, listed))) != 1]
    assert split == []

    # two multisets, each listed out of canonical order and in it: the first
    # builds in both orders, the second is rejected in both
    for fibers in (("E8t", "E7t", "II_cusp", "III"), ("E8t", "E7t", "III", "II_cusp")):
        graph, _ = build_tree(spec_of(2, *fibers), {2: "skip", 3: "skip"})
        assert graph.smooth() == -70
    for fibers in (("E8t", "E8t", "I1_nodal", "III"), ("E8t", "E8t", "III", "I1_nodal")):
        with pytest.raises(ValidationError, match="not the identity"):
            validate(spec_of(2, *fibers))


def test_betti_values():
    assert betti(2, 0).b2 == 22
    assert betti(2, 6).b2 == 28
    assert betti(6, 3).b2 == 73
    assert betti(2, 0).b2plus == 3
    assert betti(6, 0).b2plus == 11


def test_betti_rejects_bad_input():
    with pytest.raises(ValidationError, match="at least 2"):
        betti(1, 0)
    with pytest.raises(ValidationError, match=">= 0"):
        betti(2, -1)


def test_spec_json_round_trip():
    spec = reference_decomposition(7)
    data = json.loads(json.dumps(spec.to_json_dict()))
    assert FibrationSpec.from_json_dict(data) == spec


@pytest.mark.parametrize("claim", [None, 5, ["paper_verified"], {"paper_verified": True}])
def test_spec_reader_names_a_provenance_claim_that_is_not_a_string(claim):
    data = dict(reference_decomposition(2).to_json_dict(), provenance=claim)
    with pytest.raises(ValidationError) as info:
        FibrationSpec.from_json_dict(data)
    assert str(info.value) == f"spec 'provenance' must be a string, got {claim!r}"


def test_spec_rejects_unknown_fiber():
    with pytest.raises(ValueError, match="unknown fiber type"):
        FibrationSpec(n=2, fibers=("E8t", "nope"))


def test_spec_names_the_first_unknown_fiber_after_many_valid_ones():
    with pytest.raises(ValueError, match=r"^unknown fiber type 'X'; known: E8t, "):
        FibrationSpec(n=2, fibers=["E8t"] * 40 + ["X", "Y"])


@pytest.mark.parametrize("call, what, value", [
    (lambda value: best_sphere(2, 1, value), "allowed", "IV"),
    (lambda value: FibrationSpec(2, value), "spec 'fibers'", "E8t"),
    (lambda value: FibrationSpec(2, value), "spec 'fibers'", None),
    (lambda value: FibrationSpec(2, value), "spec 'fibers'", 5),
], ids=["allowed-str", "fibers-str", "fibers-none", "fibers-int"])
def test_a_bare_name_or_a_non_collection_is_no_fiber_list(call, what, value):
    with pytest.raises(ValidationError) as caught:
        call(value)
    assert str(caught.value) == f"{what} must be a collection of fiber names, got {value!r}"


@pytest.mark.parametrize("call, what, value", [
    (lambda value: FibrationSpec(2, value), "spec 'fibers'", [["E8t"]]),
    (lambda value: best_sphere(2, 1, value), "allowed", [["IV"]]),
    (lambda value: FibrationSpec(2, value), "spec 'fibers'", {"E8t": 1}),
    (lambda value: best_sphere(2, 1, value), "allowed", {"IV": 1}),
    (lambda value: FibrationSpec(2, value), "spec 'fibers'", (["E8t"],)),
    (lambda value: FibrationSpec(2, value), "spec 'fibers'", ("E8t", 5)),
], ids=["fibers-nested-list", "allowed-nested-list", "fibers-mapping", "allowed-mapping",
        "fibers-tuple-of-a-list", "fibers-tuple-with-an-int"])
def test_a_mapping_or_a_name_that_is_no_string_is_no_fiber_list(call, what, value):
    # a mapping is not read as its keys, and an unhashable name gives no bare TypeError
    with pytest.raises(ValidationError) as caught:
        call(value)
    assert str(caught.value) == f"{what} must be a collection of fiber names, got {value!r}"


def test_spec_stores_a_list_of_names_as_a_tuple():
    spec = FibrationSpec(n=2, fibers=["E8t", "E8t", "IV"])
    assert spec.fibers == ("E8t", "E8t", "IV") and type(spec.fibers) is tuple
    assert spec == spec_of(2, "E8t", "E8t", "IV") and hash(spec) == hash(spec_of(2, "E8t", "E8t", "IV"))


def test_canonical_sorting():
    spec = FibrationSpec(n=2, fibers=("IV", "E8t", "E8t"))
    assert spec.canonical().fibers == ("E8t", "E8t", "IV")


def test_build_rejects_resolution_index_past_last_fiber():
    with pytest.raises(ValidationError, match="out of range"):
        build_tree(reference_decomposition(2), resolutions={3: "skip"})


@pytest.mark.parametrize("resolutions, message", [
    ({9: "skip", 2: "replace"}, "fiber index 9 out of range"),
    ({2: "replace", 9: "skip"}, "applies only to II_cusp"),
    # a bad choice is reported before a fiber that lacks one (fiber 2 is IV)
    ({0: "resolve"}, "fiber 0 .* does not take a resolution choice"),
])
def test_build_reports_the_first_bad_resolution_in_plan_order(resolutions, message):
    with pytest.raises(ValidationError, match=message):
        build_tree(spec_of(2, "E8t", "E8t", "IV"), resolutions=resolutions)


def _options_one_by_one(spec, resolutions):
    """Each fiber's option by the per-index rule: every entry of
    ``resolutions``, in plan order, before the first fiber's default."""
    checked = {i: fibration.fiber_option(spec, i, c) for i, c in resolutions.items()}
    return [checked[i] if i in checked else fibration.fiber_option(spec, i)
            for i in range(len(spec.fibers))]


def _outcome(call, *args):
    try:
        return "ok", call(*args)
    except ValidationError as exc:
        return "error", str(exc)


_EXTENDED_SPECS = [spec for n in (2, 3) for spec in enumerate_specs(n, FIBER_ORDER)]
_CHOICES = sorted({o.choice for t in catalog() for o in t.options})


@st.composite
def _specs_and_resolutions(draw):
    """A valid spec over every catalog type, its fibers in any order, and
    resolutions naming some fibers' own choices (so a fiber without a
    default may lack its entry), with at most one bad entry put anywhere."""
    spec = draw(st.sampled_from(_EXTENDED_SPECS))
    spec = spec_of(spec.n, *draw(st.permutations(spec.fibers)))
    # a fiber without a default lacks its entry one time in ten
    items = [(i, draw(st.sampled_from([o.choice for o in fiber(name).options])))
             for i, name in enumerate(spec.fibers)
             if (draw(st.integers(0, 9)) if fiber(name).default is None else draw(st.booleans()))]
    i = draw(st.integers(0, len(spec.fibers) - 1))
    bad = draw(st.none() | st.sampled_from([
        (i, "bogus"),  # unknown
        (i, draw(st.sampled_from(_CHOICES))),  # valid, or another type's
        (len(spec.fibers) + draw(st.integers(0, 3)), "skip"),  # out of range
        (-1, "skip"),
        (draw(st.sampled_from(["0", 1.5, True, None])), "skip"),  # not an integer
    ]))
    if bad is not None:
        items.insert(draw(st.integers(0, len(items))), bad)
    return spec, dict(items)


@given(_specs_and_resolutions())
def test_property_fiber_options_match_the_per_index_rule(case):
    spec, resolutions = case
    want = _outcome(_options_one_by_one, spec, resolutions)
    assert _outcome(fibration.fiber_options, spec, resolutions) == want
    built = _outcome(build_tree, spec, resolutions)
    if want[0] == "ok":
        assert built[0] == "ok" and built[1][1] == sum(o.blowups for o in want[1])
    else:
        assert built == want


def test_construction_square_is_oracle_checked(monkeypatch):
    # a smoothing that is off by one must not reach a reported square
    smooth = PlumbingGraph.smooth
    monkeypatch.setattr(PlumbingGraph, "smooth", lambda graph: smooth(graph) - 1)
    with pytest.raises(AssertionError, match="oracle"):
        construction_square(2)


def _assembled(spec, resolutions):
    """The tree of ``spec`` made by one constructor call, which checks it
    edge by edge, labelled by hand, and the trace ``build_tree`` records for it."""
    weights, labels, edges = [-spec.n], ["section"], []
    trace = [{"op": "section", "n": spec.n, "vertex": 0}]
    for i, name in enumerate(spec.fibers):
        option = fibration.fiber_option(spec, i, resolutions.get(i))
        fragment = option.fragment
        if fragment is None:
            continue
        offset = len(weights)
        weights += fragment.graph.weights
        labels += [f"{name}[{i}].{lab}" for lab in fragment.graph.labels]
        edges += [(offset + u, offset + v) for u, v in fragment.graph.edges]
        edges.append((0, offset + fragment.attachment))
        trace.append({
            "op": "attach_fiber", "fiber": i, "name": name,
            "choice": "fragment" if option.choice == "use" else option.choice,
            "vertices": [offset, len(weights) - 1],
            "attached_at": offset + fragment.attachment, "blowups": option.blowups,
        })
    return PlumbingGraph(weights, edges, labels), trace


def _json_after(trace, graph):
    """``graph``'s JSON form with ``trace`` ahead of its own (blow-up) records."""
    data = graph.to_json_dict()
    data["trace"] = trace + data["trace"]
    return data


def _equivalence_cases():
    """(spec, resolutions): the reference specs for n = 2..7, the worked
    examples' specs and two extended specs (E7t, III, I1_nodal), each fiber in turn
    taking every option of its type while the others keep their defaults
    (or, lacking one, their type's first option)."""
    specs = [reference_decomposition(n) for n in range(2, 8)]
    specs += [spec_of(row.n, *row.fibers) for row in WORKED_EXAMPLES if row.fibers]
    specs += [spec_of(2, "E8t", "E7t", "III", "II_cusp"),
              spec_of(2, "E8t", "E6t", "III", "II_cusp", "I1_nodal")]
    for spec in specs:
        types = [fiber(name) for name in spec.fibers]
        base = {i: t.options[0].choice for i, t in enumerate(types) if t.default is None}
        for i, t in enumerate(types):
            for option in t.options:
                yield spec, {**base, i: option.choice}


def test_equivalence_cases_cover_every_catalog_option():
    covered = {(spec.fibers[i], choice)
               for spec, resolutions in _equivalence_cases() for i, choice in resolutions.items()}
    assert covered == {(t.name, o.choice) for t in catalog() for o in t.options}


def test_build_tree_matches_an_assembly_one_vertex_at_a_time():
    for spec, resolutions in _equivalence_cases():
        graph, _ = build_tree(spec, resolutions)
        expected, trace = _assembled(spec, resolutions)
        assert graph.to_json_dict() == _json_after(trace, expected), (spec, resolutions)
        assert graph.smooth() == expected.smooth() == oracle_square(graph, graph.two_coloring())


def _rewritten(graph, edge_blowups=3):
    """``graph`` after a point blow-up on the section and ``edge_blowups``
    blow-ups of the section's smallest edge, none of which reads provenance."""
    graph = graph.blow_up_point_on_vertex(0)
    for _ in range(edge_blowups):
        graph = graph.blow_up_edge(min(e for e in graph.edges if e[0] == 0))
    return graph


def test_build_tree_provenance_read_first_after_rewrites_matches_the_assembly():
    for spec, resolutions in _equivalence_cases():
        tree, _ = build_tree(spec, resolutions)
        rewritten = _rewritten(tree)
        expected, trace = _assembled(spec, resolutions)
        want = _json_after(trace, _rewritten(expected))
        assert rewritten.to_json_dict() == want, (spec, resolutions)
        # every read is fresh: edits to what one read returned reach no later read
        rewritten.trace[0]["op"] = "edited"
        rewritten.labels[0] = "edited"
        assert tree.to_json_dict() == _json_after(trace, expected), (spec, resolutions)
        assert rewritten.to_json_dict() == want


def test_a_search_formats_no_label_until_the_winner_labels_are_read(monkeypatch):
    fragments = {id(o.fragment.graph) for t in catalog() for o in t.options if o.fragment}
    reads = []
    labels = PlumbingGraph.labels

    def counted(graph):
        if id(graph) in fragments:
            reads.append(id(graph))
        return labels.fget(graph)

    monkeypatch.setattr(PlumbingGraph, "labels", property(counted))
    result = best_sphere(30, 50)
    assert reads == []
    # a trace read, and so the result's JSON form, formats no label either
    assert result.trace and result.to_json_dict()["trace"] == result.trace
    assert reads == []
    read = result.graph.labels
    fragments_read = len(reads)
    attached = [rec for rec in result.trace if rec["op"] == "attach_fiber"]
    assert fragments_read == len(attached) > 0
    built, _ = _assembled(result.spec, result.plan.resolutions)
    added = range(built.vertex_count, result.graph.vertex_count)
    assert read == built.labels + [f"e{w}" for w in added]
    assert result.graph.exceptional == built.exceptional + [True] * len(added)


def _worked_and_won():
    """The worked examples' graphs and seeded search winners' (default and
    extended fibers), each with the spec and plan it was replayed from."""
    for row in WORKED_EXAMPLES:
        spec = reference_decomposition(row.n) if row.fibers is None else spec_of(row.n, *row.fibers)
        plan = BlowupPlan(row.choices, row.edge_blowups, row.point_blowups)
        yield spec, plan, replay_plan(spec, plan, k=row.k)
    rng = random.Random(29)
    pairs = [(rng.randint(2, 30), rng.randint(0, 50), None) for _ in range(12)]
    pairs += [(rng.randint(2, 6), rng.randint(0, 10), FIBER_ORDER) for _ in range(4)]
    for n, k, allowed in pairs:
        result = best_sphere(n, k, allowed)
        yield result.spec, result.plan, result.graph


def test_the_trace_only_recipe_gives_the_full_recipes_trace():
    for spec, plan, graph in _worked_and_won():
        options = fibration.fiber_options(spec, plan.resolutions)
        labels, trace = fibration._tree_provenance(spec, options)
        assert fibration._tree_provenance(spec, options, labels=False) == (None, trace)
        assert graph._base(False) == (None, trace)
        assert len(labels) == build_tree(spec, plan.resolutions)[0].vertex_count
        # the graph's trace read, with its blow-up records, is the full read's trace
        assert graph.trace == graph._provenance()[1] == graph.to_json_dict()["trace"]
        assert graph.trace[:len(trace)] == trace
