import pytest

from negsphere import sl2z
from negsphere.fibers import (
    AB_POWER_FIBERS,
    FIBER_ORDER,
    FiberType,
    PlumbingFragment,
    catalog,
    catalog_json,
    fiber,
)
from negsphere.plumbing import PlumbingGraph
from negsphere.search import DEFAULT_FIBERS

EXPECTED_WORDS = {
    "E8t": "ab" * 5,
    "E7t": "ab" * 4 + "a",
    "E6t": "ab" * 4,
    "I0star": "ab" * 3,
    "IV": "ab" * 2,
    "III": "aba",
    "II_cusp": "ab",
    "I1_nodal": "a",
}


def test_catalog_has_eight_entries_in_order():
    names = [entry.name for entry in catalog()]
    assert names == list(FIBER_ORDER)
    assert len(names) == 8


def test_words_and_euler_numbers():
    for entry in catalog():
        assert entry.word == EXPECTED_WORDS[entry.name]
        assert entry.euler == len(entry.word)


def test_a_fiber_type_whose_euler_number_is_not_its_word_length_is_refused():
    # verify-paper's catalog item has no row for this: no such type can be built
    with pytest.raises(ValueError, match=r"^X: Euler number 3 != word length 2$"):
        FiberType("X", "ab", 3, ())


def test_fragment_and_resolution_presence():
    for entry in catalog():
        for option in entry.options:
            assert entry.option(option.choice) is option
    nodal = fiber("I1_nodal")
    for choice in ("use", "resolve"):
        with pytest.raises(ValueError):
            nodal.option(choice)


@pytest.mark.parametrize("name,vertices", [("E8t", 9), ("E7t", 8), ("E6t", 7), ("I0star", 5)])
def test_fragment_shapes(name, vertices):
    fragment = fiber(name).option("use").fragment
    assert fragment.graph.vertex_count == vertices
    assert fragment.graph.edge_count == vertices - 1
    assert all(w == -2 for w in fragment.graph.weights)
    # the fragment Euler characteristic 2V - E equals the fiber's Euler number
    assert fragment.euler_characteristic() == fiber(name).euler


def test_i0star_is_a_star():
    fragment = fiber("I0star").option("use").fragment
    degrees = [0] * fragment.graph.vertex_count
    for u, v in fragment.graph.edges:
        degrees[u] += 1
        degrees[v] += 1
    assert sorted(degrees) == [1, 1, 1, 1, 4]


def test_attachment_is_a_leaf():
    for option in (o for entry in catalog() for o in entry.options if o.choice == "use"):
        fragment = option.fragment
        degree = sum(1 for e in fragment.graph.edges if fragment.attachment in e)
        assert degree == 1


def test_resolve_cusp():
    option = fiber("II_cusp").option("resolve")
    fragment, blowups = option.fragment, option.blowups
    assert blowups == 3
    assert sorted(fragment.graph.weights) == [-6, -3, -2, -1]
    assert fragment.graph.edge_count == 3
    # the (-1)-sphere meets the other three
    minus_one = fragment.graph.weights.index(-1)
    neighbors = sorted(
        fragment.graph.weights[u if v == minus_one else v]
        for u, v in fragment.graph.edges
        if minus_one in (u, v)
    )
    assert neighbors == [-6, -3, -2]
    # the section still meets the proper transform of the fiber
    assert fragment.graph.weights[fragment.attachment] == -6


def test_resolve_iii():
    option = fiber("III").option("resolve")
    fragment, blowups = option.fragment, option.blowups
    assert blowups == 2
    assert sorted(fragment.graph.weights) == [-4, -4, -2, -1]
    center = fragment.graph.weights.index(-1)
    assert all(center in e for e in fragment.graph.edges)
    assert fragment.graph.weights[fragment.attachment] == -4


def test_resolve_iv():
    option = fiber("IV").option("resolve")
    fragment, blowups = option.fragment, option.blowups
    assert blowups == 1
    assert sorted(fragment.graph.weights) == [-3, -3, -3, -1]
    center = fragment.graph.weights.index(-1)
    assert all(center in e for e in fragment.graph.edges)
    assert fragment.graph.weights[fragment.attachment] == -3


def test_resolved_euler_characteristics():
    # chi(resolved fragment) = euler(fiber) + blow-ups used
    for entry in catalog():
        for option in entry.options:
            if option.choice == "resolve":
                assert option.fragment.euler_characteristic() == entry.euler + option.blowups


def test_resolve_rejects_other_types():
    for name in ("E8t", "E6t", "I0star", "I1_nodal"):
        with pytest.raises(ValueError, match="does not take a resolution choice"):
            fiber(name).option("resolve")


def test_cusp_replacement():
    option = fiber("II_cusp").option("replace")
    fragment, blowups = option.fragment, option.blowups
    assert fragment.graph.weights == [-9]
    assert fragment.graph.edge_count == 0
    assert blowups == 1
    # attached through one section edge it contributes -9 - 2 = -11
    assert sum(fragment.graph.weights) - 2 * fragment.graph.edge_count - 2 == -11


def test_unknown_fiber_name():
    with pytest.raises(ValueError, match="unknown fiber type"):
        fiber("II*")


def test_word_products_land_in_center():
    # concatenations of (ab)-power words land in {+1, -1} according to the
    # total (ab)-power mod 6 / mod 3
    minus_one = sl2z.GroupElement(-1, 0, 0, -1)
    cases = {
        "II_cusp II_cusp (ab)^10": fiber("II_cusp").word * 2 + "ab" * 10,  # (ab)^12
        "IV IV IV (ab)^3": fiber("IV").word * 3 + "ab" * 3,  # (ab)^9
        "I0star I0star": fiber("I0star").word * 2,  # (ab)^6
    }
    assert sl2z.word_to_matrix(cases["II_cusp II_cusp (ab)^10"]) == sl2z.IDENTITY
    assert sl2z.word_to_matrix(cases["IV IV IV (ab)^3"]) == minus_one
    assert sl2z.word_to_matrix(cases["I0star I0star"]) == sl2z.IDENTITY


def test_catalog_json():
    data = catalog_json()
    assert len(data) == 8
    by_name = {item["name"]: item for item in data}
    assert by_name["E8t"]["word"] == "ababababab"
    choices = {name: {o["choice"]: o for o in item["options"]} for name, item in by_name.items()}
    assert "use" in choices["E8t"] and "resolve" not in choices["E8t"]
    assert choices["II_cusp"]["resolve"]["blowups"] == 3
    assert "use" not in choices["I1_nodal"]


def test_fragment_dot_output():
    text = fiber("I0star").option("use").fragment.graph.to_dot()
    assert text.startswith("graph plumbing {")
    assert '[label="-2"]' in text
    assert "--" in text


def test_option_adjusted_gains():
    # contribution of the attached fragment plus 5 per blow-up, per option
    gains = {
        (entry.name, option.choice): option.adjusted_gain
        for entry in catalog() for option in entry.options
    }
    assert gains == {
        ("E8t", "use"): -36, ("E8t", "skip"): 0,
        ("E7t", "use"): -32, ("E7t", "skip"): 0,
        ("E6t", "use"): -28, ("E6t", "skip"): 0,
        ("I0star", "use"): -20, ("I0star", "skip"): 0,
        ("IV", "resolve"): -13, ("IV", "skip"): 0,
        ("III", "resolve"): -9, ("III", "skip"): 0,
        ("II_cusp", "resolve"): -5, ("II_cusp", "replace"): -6, ("II_cusp", "skip"): 0,
        ("I1_nodal", "skip"): 0,
    }


@pytest.mark.parametrize(
    "weights, edges, attachment",
    [
        ((-2, -2, -2), ((0, 1), (1, 2), (0, 2)), 0),  # cycle
        ((-2, -2), (), 0),  # disconnected pair
        ((-2, -2), ((0, 0),), 0),  # self-loop
        ((-2, -2, -2), ((0, 1), (1, 0)), 0),  # duplicate edge
        ((-2, -2), ((0, 1),), 2),  # attachment out of range
    ],
    ids=["cycle", "disconnected", "self-loop", "duplicate-edge", "attachment"],
)
def test_fragment_rejects_malformed_shapes(weights, edges, attachment):
    with pytest.raises(ValueError):
        PlumbingFragment(PlumbingGraph(weights, edges), attachment=attachment)


def test_catalog_json_lists_options_in_tie_break_order():
    by_name = {item["name"]: item for item in catalog_json()}
    options = by_name["II_cusp"]["options"]
    assert [o["choice"] for o in options] == ["resolve", "replace", "skip"]
    replace = options[1]
    assert replace["blowups"] == 1 and replace["adjusted_gain"] == -6
    assert [v["weight"] for v in replace["fragment"]["vertices"]] == [-9]
    assert replace["fragment"]["edges"] == []
    assert options[2]["fragment"] is None
    assert [o["choice"] for o in by_name["E8t"]["options"]] == ["use", "skip"]


def test_ab_power_fibers_are_the_default_search_set():
    assert AB_POWER_FIBERS == {"E8t", "E6t", "I0star", "IV", "II_cusp"}
    assert DEFAULT_FIBERS == ("E8t", "E6t", "I0star", "IV", "II_cusp")
