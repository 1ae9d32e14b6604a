import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from negsphere.fibers import fiber
from negsphere.plumbing import PlumbingError, PlumbingGraph, checked_square, oracle_square
from negsphere.search import best_sphere

from treegen import random_tree_graph


def chain(*weights):
    edges = [(i, i + 1) for i in range(len(weights) - 1)]
    return PlumbingGraph.from_weights(list(weights), edges)


def test_blow_up_edge_on_two_chain():
    g = chain(-2, -2)
    out = g.blow_up_edge((0, 1))
    assert out.weights == [-3, -3, -1]
    assert sorted(out.edges) == [(0, 2), (1, 2)]
    assert g.weights == [-2, -2]  # input untouched


def test_blow_up_edge_smooth_drop():
    g = chain(-2, -2)
    assert g.smooth() == -6
    assert g.blow_up_edge((0, 1)).smooth() == -11


def test_two_generations_of_edge_blowups():
    # x + y - 2 - 5k with x = y = -2, k = 2, for every second-edge choice
    first = chain(-2, -2).blow_up_edge((0, 1))
    for e in first.edges:
        assert first.blow_up_edge(e).smooth() == -16


def test_blow_up_point_on_single_vertex():
    g = PlumbingGraph.from_weights([-2])
    out = g.blow_up_point_on_vertex(0)
    assert out.weights == [-3, -1]
    assert out.edges == [(0, 1)]
    assert out.smooth() == -6


def test_blow_up_point_three_times():
    g = PlumbingGraph.from_weights([-2])
    for _ in range(3):
        g = g.blow_up_point_on_vertex(0)
    assert g.smooth() == -14


def test_rewrite_bookkeeping():
    g = chain(-2, -3, -4)
    before = (g.vertex_count, g.edge_count, sum(g.weights))
    edged = g.blow_up_edge((1, 2))
    assert (edged.vertex_count, edged.edge_count) == (before[0] + 1, before[1] + 1)
    assert sum(edged.weights) == before[2] - 3
    pointed = g.blow_up_point_on_vertex(1)
    assert (pointed.vertex_count, pointed.edge_count) == (before[0] + 1, before[1] + 1)
    assert sum(pointed.weights) == before[2] - 2
    assert edged.is_tree() and pointed.is_tree()


def test_blow_up_missing_edge():
    g = chain(-2, -2, -2)
    with pytest.raises(PlumbingError, match="no edge"):
        g.blow_up_edge((0, 2))
    # edge ends follow add_edge's rule: ints only, so (0, True) is not (0, 1)
    for edge in ((0, True), (0, 1.0), (False, 1), (0, "1")):
        with pytest.raises(PlumbingError, match=r"^edge ends must be integers, got \(.*\)$"):
            g.blow_up_edge(edge)
    # anything but a pair is not an edge: one PlumbingError, not an unpacking error
    for edge, shown in ((5, "5"), (None, "None"), ((0, 1, 2), r"\(0, 1, 2\)")):
        with pytest.raises(PlumbingError, match=rf"^an edge must be two ends, got {shown}$"):
            chain(-2, -2).blow_up_edge(edge)


def test_blow_up_missing_vertex():
    with pytest.raises(PlumbingError, match="no vertex"):
        chain(-2, -2).blow_up_point_on_vertex(5)
    for vertex in (True, 0.0, "0", None):
        with pytest.raises(PlumbingError, match=r"^a vertex must be an integer, got .*$"):
            chain(-2, -2).blow_up_point_on_vertex(vertex)


def test_two_coloring_single_vertex():
    assert PlumbingGraph.from_weights([-2]).two_coloring() == (1,)


def test_two_coloring_path():
    assert chain(-2, -2, -2).two_coloring() == (1, -1, 1)


def test_two_coloring_triangle_fails():
    g = PlumbingGraph.from_weights([-2, -2, -2], [(0, 1), (1, 2), (0, 2)])
    with pytest.raises(PlumbingError, match="not bipartite"):
        g.two_coloring()


def test_two_coloring_disconnected_fails():
    g = PlumbingGraph.from_weights([-2, -2])
    with pytest.raises(PlumbingError, match="disconnected"):
        g.two_coloring()


def test_smooth_single_vertex():
    assert PlumbingGraph.from_weights([-2]).smooth() == -2


def test_smooth_k3_tree():
    # section (-2) joined to the E8t, E6t and I0star fragments: 22 vertices,
    # built by the constructor, which checks the edges one by one
    weights, edges = [-2], []
    for name in ("E8t", "E6t", "I0star"):
        fragment = fiber(name).option("use").fragment
        offset = len(weights)
        weights += fragment.graph.weights
        edges += [(offset + u, offset + v) for u, v in fragment.graph.edges]
        edges.append((0, offset + fragment.attachment))
    g = PlumbingGraph(weights, edges)
    assert g.vertex_count == 22
    assert g.smooth() == -86
    assert oracle_square(g, g.two_coloring()) == -86


def test_smooth_rejects_cycle():
    g = PlumbingGraph.from_weights([-2, -2, -2], [(0, 1), (1, 2), (0, 2)])
    with pytest.raises(PlumbingError, match="cycle"):
        g.smooth()


def test_smooth_rejects_disconnected():
    g = PlumbingGraph.from_weights([-2, -2])
    with pytest.raises(PlumbingError, match="disconnected"):
        g.smooth()


def test_smooth_rejects_an_odd_cycle_beside_an_unreached_vertex():
    # fewer edges than vertices, so a cycle means some vertex is unreached
    g = PlumbingGraph.from_weights([-2] * 4, [(0, 1), (1, 2), (0, 2)])
    with pytest.raises(PlumbingError, match="disconnected"):
        g.smooth()
    assert not g.is_tree()


def test_reader_rejects_positive_genus():
    with pytest.raises(PlumbingError, match="genus"):
        PlumbingGraph.from_json_dict({"vertices": [{"weight": -2, "genus": 1}]})


def test_smooth_rejects_empty():
    with pytest.raises(PlumbingError, match="empty"):
        PlumbingGraph().smooth()


_EMPTY = "cannot smooth an empty graph"
_CYCLE = "graph has a cycle; smoothing would not give a sphere"
_APART = "graph is disconnected; smoothing would not give a sphere"


# each graph with every tree flag it can hold: only a coloring of a connected
# graph with a tree's edge count sets the flag true, and a direct edit of the
# lists after that changes a count (see the test below)
@pytest.mark.parametrize("weights, edges, flags, message", [
    ([], [], (None, True, False), _EMPTY),
    ([-2] * 3, [(0, 1), (1, 2), (0, 2)], (None, True, False), _CYCLE),
    ([-2] * 4, [(0, 1), (1, 2), (2, 3), (0, 3)], (None, True, False), _CYCLE),
    ([-2] * 3, [(0, 1)], (None, True, False), _APART),
    ([-2] * 4, [(0, 1), (1, 2), (0, 2)], (None, False), _APART),
    ([-2] * 5, [(0, 1), (1, 2), (2, 3), (0, 3)], (None, False), _APART),
])
def test_smooth_raises_its_errors_in_order_whatever_flag_is_cached(weights, edges, flags, message):
    for flag in flags:
        g = PlumbingGraph.from_weights(weights, edges)
        g._tree = flag
        for _ in range(2):  # the first call may cache a flag; the second reads it
            with pytest.raises(PlumbingError) as info:
                g.smooth()
            assert str(info.value) == message


@pytest.mark.parametrize("edit, message", [
    (lambda g: g.edges.append((0, 2)), _CYCLE),
    (lambda g: g.edges.pop(), _APART),
    (lambda g: g.weights.append(-2), _APART),
    (lambda g: g.weights.pop(), _CYCLE),
    (lambda g: (g.weights.clear(), g.edges.clear()), _EMPTY),
])
def test_a_count_edit_after_smooth_is_never_hidden_by_the_cached_flag(edit, message):
    g = chain(-2, -2, -2)
    assert g.smooth() == -10 and g._tree is True
    edit(g)
    with pytest.raises(PlumbingError) as info:
        g.smooth()
    assert str(info.value) == message


def test_oracle_single_vertex():
    g = PlumbingGraph.from_weights([-2])
    assert oracle_square(g, (1,)) == -2


def test_oracle_chain_hand_value():
    # v^T Q v = (-3 - 1 - 3) + 2 * (-1) * 2 = -11, evaluated by hand
    g = chain(-3, -1, -3)
    assert oracle_square(g, (1, -1, 1)) == -11
    assert oracle_square(g, (-1, 1, -1)) == -11  # global sign flip


def test_oracle_rejects_bad_colorings():
    g = chain(-2, -2)
    with pytest.raises(PlumbingError, match="entries"):
        oracle_square(g, (1,))
    with pytest.raises(PlumbingError, match="expected"):
        oracle_square(g, (1, 0))
    with pytest.raises(PlumbingError, match="share a color"):
        oracle_square(g, (1, 1))


def test_oracle_matches_smooth_on_random_trees():
    rng = random.Random(987123)
    for _ in range(1000):
        g = random_tree_graph(rng, max_vertices=40)
        coloring = g.two_coloring()
        value = g.smooth()
        assert oracle_square(g, coloring) == value
        flipped = tuple(-c for c in coloring)
        assert oracle_square(g, flipped) == value


def test_blowup_deltas_on_random_trees():
    rng = random.Random(555001)
    for _ in range(200):
        g = random_tree_graph(rng, max_vertices=25)
        s = g.smooth()
        for e in g.edges:
            assert g.blow_up_edge(e).smooth() == s - 5
        for v in range(g.vertex_count):
            assert g.blow_up_point_on_vertex(v).smooth() == s - 4


def test_determinism_of_traces():
    def run():
        g = chain(-2, -2, -2)
        g = g.blow_up_edge((0, 1))
        g = g.blow_up_point_on_vertex(2)
        return g

    a, b = run(), run()
    assert a.trace == b.trace
    assert a.to_json_dict() == b.to_json_dict()


def test_two_rewrites_write_this_json():
    g = chain(-2, -3, -4).blow_up_edge((0, 1)).blow_up_point_on_vertex(3)
    assert g.to_json_dict() == {
        "vertices": [
            {"label": "v0", "weight": -3, "genus": 0, "exceptional": False},
            {"label": "v1", "weight": -4, "genus": 0, "exceptional": False},
            {"label": "v2", "weight": -4, "genus": 0, "exceptional": False},
            {"label": "e3", "weight": -2, "genus": 0, "exceptional": True},
            {"label": "e4", "weight": -1, "genus": 0, "exceptional": True},
        ],
        "edges": [[1, 2], [0, 3], [1, 3], [3, 4]],
        "trace": [
            {"op": "blow_up_edge", "edge": [0, 1], "new_vertex": 3},
            {"op": "blow_up_point", "vertex": 3, "new_vertex": 4},
        ],
    }


def test_json_round_trip():
    # the second graph's empty label must come back empty, not as "v0"
    for g in (chain(-2, -3, -4).blow_up_edge((0, 1)),
              PlumbingGraph([-2, -3], [(0, 1)], labels=["", "b"])):
        data = json.loads(json.dumps(g.to_json_dict()))
        back = PlumbingGraph.from_json_dict(data)
        assert back.weights == g.weights
        assert back.edges == g.edges
        assert back.trace == g.trace
        assert back.exceptional == g.exceptional
        assert back == g


@pytest.mark.parametrize("data, message", [
    ([], "graph must be a JSON object, got list"),
    ({"vertices": ["v0"]}, "vertex 0 must be a JSON object, got str"),
    ({"vertices": [{"label": "v0"}]}, "vertex 0 needs an integer weight"),
    ({"vertices": [{"weight": -2.7}]}, "vertex 0 needs an integer weight"),
    ({"vertices": [{"weight": "-3"}]}, "vertex 0 needs an integer weight"),
    ({"vertices": [{"weight": True}]}, "vertex 0 needs an integer weight"),
    ({"vertices": [{"weight": -2, "exceptional": "false"}]}, "boolean 'exceptional'"),
    ({"vertices": [{"weight": -2, "exceptional": 1}]}, "boolean 'exceptional'"),
    ({"vertices": [{"weight": -2, "genus": False}]}, "genus 0"),
    ({"vertices": [{"weight": -2, "genus": -1}]}, "genus 0"),
    ({"vertices": [{"weight": -2}, {"weight": -3}], "edges": [[0, 1.9]]},
     "edge ends must be integers, got [0, 1.9]"),
    ({"vertices": [{"weight": -2}, {"weight": -3}], "edges": [[False, 1]]},
     "edge ends must be integers"),
    ({"vertices": 5}, "graph 'vertices' must be a JSON list, got int"),
    ({"edges": 7}, "graph 'edges' must be a JSON list, got int"),
    ({"trace": 3}, "graph 'trace' must be a JSON list, got int"),
    ({"trace": [1]}, "trace record 0 must be a JSON object, got int"),
    ({"vertices": [{"weight": -2}], "edges": [[0]]}, "an edge must be a list of two ends, got [0]"),
    ({"vertices": [{"weight": -2, "label": 5}]}, "a string label"),
])
def test_reader_rejects_what_to_json_dict_never_writes(data, message):
    with pytest.raises(PlumbingError) as info:
        PlumbingGraph.from_json_dict(data)
    assert message in str(info.value) and "\n" not in str(info.value)


def test_reader_takes_integral_floats():
    data = {"vertices": [{"weight": -2.0, "genus": 0.0}, {"weight": -3}], "edges": [[0, 1.0]]}
    g = PlumbingGraph.from_json_dict(data)
    assert (g.weights, g.edges, g.exceptional) == ([-2, -3], [(0, 1)], [False, False])
    assert all(type(x) is int for x in g.weights + list(g.edges[0]))


def test_dot_marks_exceptional_vertices():
    g = chain(-2, -2).blow_up_edge((0, 1))
    text = g.to_dot()
    assert "shape=box" in text
    assert text.count("--") == 2


def test_no_self_loops_or_duplicate_edges():
    g = PlumbingGraph.from_weights([-2, -2])
    with pytest.raises(PlumbingError, match="self-loop"):
        g.add_edge(0, 0)
    g.add_edge(0, 1)
    with pytest.raises(PlumbingError, match="already present"):
        g.add_edge(1, 0)


@st.composite
def plumbing_trees(draw):
    n = draw(st.integers(min_value=1, max_value=20))
    weights = draw(st.lists(st.integers(-9, -1), min_size=n, max_size=n))
    if n == 1:
        return PlumbingGraph.from_weights(weights)
    seq = draw(st.lists(st.integers(0, n - 1), min_size=n - 2, max_size=n - 2))
    from treegen import prufer_edges

    return PlumbingGraph.from_weights(weights, prufer_edges(tuple(seq), n))


@settings(max_examples=200, deadline=None)
@given(plumbing_trees())
def test_property_oracle_equals_smooth(g):
    assert oracle_square(g, g.two_coloring()) == g.smooth()


@settings(max_examples=100, deadline=None)
@given(plumbing_trees(), st.integers(0, 10**6))
def test_property_blowup_deltas(g, pick):
    s = g.smooth()
    if g.edges:
        e = g.edges[pick % len(g.edges)]
        out = g.blow_up_edge(e)
        assert out.smooth() == s - 5
        assert out.is_tree()
    v = pick % g.vertex_count
    out = g.blow_up_point_on_vertex(v)
    assert out.smooth() == s - 4
    assert out.is_tree()


# -- facts derived once and carried by rewrites ---------------------------------


def _outcome(fn):
    try:
        return fn()
    except PlumbingError as exc:
        return ("error", str(exc))


def _facts(g):
    return g.is_tree(), _outcome(g.two_coloring), _outcome(g.smooth)


def _fresh(g):
    return PlumbingGraph.from_json_dict(g.to_json_dict())


def _observe(g):
    """The facts of g, read on a copy that holds what g has derived so
    far, so that g itself derives nothing new."""
    clone = _fresh(g)
    clone._tree, clone._coloring = g._tree, g._coloring
    return _facts(clone)


_OPS = ("vertex", "edge", "blow_up_edge", "blow_up_point", "smooth", "two_coloring", "facts")


@settings(max_examples=400, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(_OPS), st.integers(0, 10**6), st.integers(0, 10**6)),
                max_size=30))
def test_property_derived_facts_match_a_fresh_graph(ops):
    g = PlumbingGraph()
    for op, x, y in ops:
        n = g.vertex_count
        if op == "vertex":
            g.add_tree(PlumbingGraph([-(x % 9) - 1]), [f"v{n}"])
        elif op == "edge" and n:
            try:
                g.add_edge(x % n, y % n)
            except PlumbingError:
                pass  # a self-loop or a duplicate leaves the graph as it was
        elif op == "blow_up_edge" and g.edges:
            g = g.blow_up_edge(g.edges[x % len(g.edges)])
        elif op == "blow_up_point" and n:
            g = g.blow_up_point_on_vertex(x % n)
        elif op == "smooth":
            _outcome(g.smooth)
        elif op == "two_coloring":
            _outcome(g.two_coloring)
        elif op == "facts":
            assert _facts(g) == _facts(_fresh(g))
        assert _observe(g) == _facts(_fresh(g))
    assert _facts(g) == _facts(_fresh(g))


def _state(g):
    return g.to_json_dict(), g._tree, g._coloring


def _a_missing_edge(g):
    """Two vertices of g with no edge between them, adding a vertex if g has none."""
    present = set(g.edges)
    for v in range(g.vertex_count):
        for u in range(v):
            if (u, v) not in present:
                return u, v
    return 0, g.add_tree(PlumbingGraph([-3]), ["new"])


# the ways a caller can change a graph in place
_EDITS = {
    "add_tree": lambda g: g.add_tree(PlumbingGraph([-3]), ["new"]),
    "add_edge": lambda g: g.add_edge(*_a_missing_edge(g)),
    "trace": lambda g: g.trace.append({"op": "edit"}),
    "label": lambda g: g.labels.__setitem__(0, "edited"),
    "flag": lambda g: g.exceptional.__setitem__(0, not g.exceptional[0]),
}


@settings(max_examples=200, deadline=None)
@given(plumbing_trees(), st.integers(0, 10**6), st.sampled_from(("none", "is_tree", "coloring")),
       st.sampled_from(sorted(_EDITS)))
def test_property_rewrites_leave_their_input_alone(g, pick, derived, edit):
    if derived == "is_tree":
        g.is_tree()
    elif derived == "coloring":
        g.two_coloring()
    before = _state(g)
    outs = []
    if g.edges:
        outs.append(g.blow_up_edge(g.edges[pick % len(g.edges)]))
        assert _state(g) == before
    outs.append(g.blow_up_point_on_vertex(pick % g.vertex_count))
    assert _state(g) == before
    # nor does an edit of the input reach the outputs afterwards
    written = [out.to_json_dict() for out in outs]
    _EDITS[edit](g)
    assert [out.to_json_dict() for out in outs] == written


def _chain_input(lazy):
    """chain(-2, -3, -4), or a rewrite of it whose provenance is still a log."""
    g = chain(-2, -3, -4)
    return g.blow_up_point_on_vertex(2) if lazy else g


@pytest.mark.parametrize("lazy", [False, True])
@pytest.mark.parametrize("edit", sorted(_EDITS))
def test_edits_after_a_rewrite_do_not_reach_across_it(edit, lazy):
    # read on twins, so that the graphs under test stay unread until the edit
    want_g = _chain_input(lazy).to_json_dict()
    want_h = _chain_input(lazy).blow_up_edge((0, 1)).to_json_dict()
    want_p = _chain_input(lazy).blow_up_point_on_vertex(0).to_json_dict()

    g = _chain_input(lazy)
    h, pointed = g.blow_up_edge((0, 1)), g.blow_up_point_on_vertex(0)
    _EDITS[edit](g)
    assert (h.to_json_dict(), pointed.to_json_dict()) == (want_h, want_p)

    g = _chain_input(lazy)
    h, pointed = g.blow_up_edge((0, 1)), g.blow_up_point_on_vertex(0)
    _EDITS[edit](h)
    assert (g.to_json_dict(), pointed.to_json_dict()) == (want_g, want_p)


def test_trace_records_are_not_shared_across_a_rewrite_or_a_json_dict():
    g = PlumbingGraph([-2, -2], [(0, 1)], trace=[{"op": "section"}])
    h = g.blow_up_edge((0, 1))
    g.trace[0]["op"] = "edited"
    assert h.to_json_dict()["trace"][0] == {"op": "section"}

    # the rewrite's output, read first, edits records of its own
    g = PlumbingGraph([-2, -2], [(0, 1)], trace=[{"op": "section"}])
    h = g.blow_up_edge((0, 1))
    h.trace[0]["op"] = "edited"
    assert g.to_json_dict()["trace"] == [{"op": "section"}]

    payload = h.to_json_dict()
    payload["trace"][0]["op"] = "edited again"
    payload["trace"][1]["edge"].append(9)
    assert h.trace == [{"op": "edited"}, {"op": "blow_up_edge", "edge": [0, 1], "new_vertex": 2}]

    result = best_sphere(6, 3)
    first = dict(result.trace[0])
    result.to_json_dict()["trace"][0]["op"] = "edited"
    assert result.trace[0] == first and result.graph.trace[0] == first


def test_a_long_blow_up_log_reads_back_without_recursion():
    g = chain(-2, -2)
    labels, flags, trace = list(g.labels), list(g.exceptional), list(g.trace)
    for step in range(5000):
        w = g.vertex_count
        if step % 10 == 9:
            edge = g.edges[0]
            g = g.blow_up_edge(edge)
            trace.append({"op": "blow_up_edge", "edge": list(edge), "new_vertex": w})
        else:
            g = g.blow_up_point_on_vertex(0)
            trace.append({"op": "blow_up_point", "vertex": 0, "new_vertex": w})
        labels.append(f"e{w}")
        flags.append(True)
    assert g.labels == labels and g.exceptional == flags and g.trace == trace
    assert g.labels is g.labels and g.exceptional is g.exceptional and g.trace is g.trace


def test_provenance_takes_part_in_equality_and_graphs_stay_unhashable():
    base = PlumbingGraph([-2, -3], [(0, 1)], trace=[{"op": "a"}])
    for other in (PlumbingGraph([-2, -3], [(0, 1)], ["v0", "x"], trace=[{"op": "a"}]),
                  PlumbingGraph([-2, -3], [(0, 1)], exceptional=[False, True], trace=[{"op": "a"}]),
                  PlumbingGraph([-2, -3], [(0, 1)], trace=[{"op": "b"}])):
        assert other != base and base != other
    lazy = chain(-2, -3).blow_up_edge((0, 1)).blow_up_point_on_vertex(2)
    twin = chain(-2, -3).blow_up_edge((0, 1)).blow_up_point_on_vertex(2)
    assert repr(twin) == repr(_fresh(twin)) and lazy == twin
    for edit in ("label", "flag", "trace"):
        edited = chain(-2, -3).blow_up_edge((0, 1)).blow_up_point_on_vertex(2)
        _EDITS[edit](edited)
        assert edited != lazy
    for g in (base, lazy):
        with pytest.raises(TypeError):
            hash(g)


def test_closing_a_cycle_after_smooth_is_rejected():
    g = chain(-2, -2, -2)
    assert g.smooth() == -10 and g.is_tree()
    g.add_edge(0, 2)
    assert not g.is_tree()
    with pytest.raises(PlumbingError, match="cycle"):
        g.smooth()
    with pytest.raises(PlumbingError, match="not bipartite"):
        g.two_coloring()


def test_an_even_cycle_colors_but_is_no_tree():
    g = PlumbingGraph.from_weights([-2] * 4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert g.two_coloring() == (1, -1, 1, -1)
    assert not g.is_tree()
    for out in (g.blow_up_point_on_vertex(0), g.blow_up_edge((0, 1))):
        assert not out.is_tree()
        with pytest.raises(PlumbingError, match="cycle"):
            out.smooth()


def test_a_vertex_added_after_smooth_makes_the_graph_disconnected():
    g = chain(-2, -2)
    g.smooth()
    g.add_tree(PlumbingGraph([-3]), ["v2"])
    with pytest.raises(PlumbingError, match="disconnected"):
        g.smooth()


def test_an_edge_removed_behind_the_cache_is_seen_by_the_edge_count():
    g = chain(-2, -2, -2)
    assert checked_square(g) == -10
    g.edges.pop()
    assert not g.is_tree()
    with pytest.raises(PlumbingError, match="disconnected"):
        g.smooth()
    with pytest.raises(PlumbingError, match="disconnected"):
        checked_square(g)


def test_duplicate_edge_rejected_after_a_blow_up_copy():
    g = chain(-2, -2, -2)
    out = g.blow_up_edge((0, 1))
    with pytest.raises(PlumbingError, match="already present"):
        out.add_edge(2, 1)
    with pytest.raises(PlumbingError, match="already present"):
        out.add_edge(3, 0)  # an edge the blow-up made
    out.add_edge(0, 1)  # the blown-up edge is gone, so it may come back
    with pytest.raises(PlumbingError, match="already present"):
        g.add_edge(1, 0)  # the input keeps its edges


def test_point_blow_up_extends_the_coloring():
    g = chain(-2, -2, -2)
    g.two_coloring()
    out = g.blow_up_point_on_vertex(1)
    assert out.two_coloring() == (1, -1, 1, 1) == _fresh(out).two_coloring()


def _count_traversals(monkeypatch):
    """Patch two_coloring to record each call that has to traverse."""
    traversals = []
    original = PlumbingGraph.two_coloring

    def counting(self):
        if self._coloring is None:
            traversals.append(self.vertex_count)
        return original(self)

    monkeypatch.setattr(PlumbingGraph, "two_coloring", counting)
    return traversals


def test_checked_square_traverses_each_graph_once(monkeypatch):
    traversals = _count_traversals(monkeypatch)
    g = chain(-2, -3, -4, -5)
    assert checked_square(g) == g.smooth() == -20
    assert traversals == [4]
    out = g.blow_up_edge((1, 2)).blow_up_edge((0, 1))  # stays a tree, coloring dropped
    assert checked_square(out) == out.smooth() == -30
    assert traversals == [4, 6]
    pointed = out.blow_up_point_on_vertex(5)  # tree flag carried
    assert checked_square(pointed) == -34
    assert traversals == [4, 6, 7]


def test_add_edge_to_a_missing_vertex_is_rejected():
    g = PlumbingGraph.from_weights([-2, -2])
    with pytest.raises(PlumbingError, match=r"edge \(0, 2\) references a missing vertex"):
        g.add_edge(0, 2)


def test_from_weights_rejects_misaligned_labels():
    with pytest.raises(PlumbingError, match="must align"):
        PlumbingGraph.from_weights([-2, -2], [(0, 1)], labels=["only"])


def test_constructor_defaults_labels_and_flags_and_normalises_edges():
    g = PlumbingGraph([-2.0, -3], [(1, 0)])
    assert g == PlumbingGraph.from_weights([-2, -3], [(0, 1)])
    assert repr(g) == ("PlumbingGraph(weights=[-2, -3], labels=['v0', 'v1'], "
                       "exceptional=[False, False], edges=[(0, 1)], trace=[])")
    assert g._edge_set == {(0, 1)} and g._tree is None and g._coloring is None
    empty = PlumbingGraph()
    assert (empty.weights, empty.edges, empty._edge_set) == ([], [], None)


@pytest.mark.parametrize("fields, message", [
    ({"edges": [(0, 5)]}, "edge (0, 5) references a missing vertex"),
    ({"edges": [(0, -1)]}, "edge (0, -1) references a missing vertex"),
    ({"edges": [(0, 0)]}, "self-loops are not allowed"),
    ({"edges": [(0, 1), (1, 0)]}, "edge (0, 1) already present"),
    ({"labels": ["a"]}, "must align, got 2, 1 and 2"),
    ({"exceptional": [True]}, "must align, got 2, 2 and 1"),
    # once taken unchecked: (0, -1) wrapped round to a "tree" smoothing to -6
    ({"labels": ["a", "b"], "exceptional": [False, False], "edges": [(0, -1)]},
     "edge (0, -1) references a missing vertex"),
    # once taken unchecked: (0, True) smoothed to -6, (0, 1.0) raised a bare TypeError
    ({"edges": [(0, True)]}, "edge ends must be integers, got (0, True)"),
    ({"edges": [(0, 1.0)]}, "edge ends must be integers, got (0, 1.0)"),
    ({"edges": [("0", 1)]}, "edge ends must be integers, got ('0', 1)"),
])
def test_constructor_rejects_bad_edges_and_misaligned_lists(fields, message):
    with pytest.raises(PlumbingError) as info:
        PlumbingGraph(weights=[-2, -2], **fields)
    assert message in str(info.value) and "\n" not in str(info.value)


def _star(center, *leaves):
    """A star tree: vertex 0 of weight ``center`` joined to one leaf per weight."""
    edges = [(0, i) for i in range(1, len(leaves) + 1)]
    return PlumbingGraph.from_weights([center, *leaves], edges)


def test_add_tree_appends_a_shifted_block():
    g = chain(-2, -3)
    offset = g.add_tree(_star(-4, -5, -6), ["c", "x", "y"])
    g.add_edge(1, offset)
    assert offset == 2
    assert g.weights == [-2, -3, -4, -5, -6]
    assert g.labels == ["v0", "v1", "c", "x", "y"]
    assert g.exceptional == [False] * 5
    assert g.edges == [(0, 1), (2, 3), (2, 4), (1, 2)]
    assert g.trace == []


@pytest.mark.parametrize("tree, labels, message", [
    (PlumbingGraph.from_weights([-2, -2, -2], [(0, 1), (1, 2), (0, 2)]), ["a", "b", "c"],
     "add_tree takes a connected tree"),
    (PlumbingGraph.from_weights([-2, -2, -2, -2], [(0, 1), (2, 3)]), ["a", "b", "c", "d"],
     "add_tree takes a connected tree"),
    (PlumbingGraph.from_weights([-2, -2, -2, -2], [(0, 1), (1, 2), (0, 2)]), ["a", "b", "c", "d"],
     "add_tree takes a connected tree"),
    (chain(-2, -2), ["a"], "1 labels for a tree of 2 vertices"),
    (chain(-2, -2), ["a", "b", "c"], "3 labels for a tree of 2 vertices"),
])
def test_add_tree_rejects_a_non_tree_and_misaligned_labels(tree, labels, message):
    g = chain(-2, -2)
    before = _state(g)
    with pytest.raises(PlumbingError) as info:
        g.add_tree(tree, labels)
    assert message in str(info.value) and "\n" not in str(info.value)
    assert _state(g) == before


@pytest.mark.parametrize("edge_set_first", [False, True])
def test_add_tree_extends_the_duplicate_check(edge_set_first):
    g = PlumbingGraph.from_weights([-1, -1] if edge_set_first else [-1])
    if edge_set_first:
        g.add_edge(0, 1)  # the edge set exists before the block comes
    assert (g._edge_set is not None) == edge_set_first
    offset = g.add_tree(chain(-2, -2, -2), ["a", "b", "c"])
    with pytest.raises(PlumbingError, match="already present"):
        g.add_edge(offset + 2, offset + 1)
    with pytest.raises(PlumbingError, match="already present"):
        g.add_edge(offset, offset + 1)
    g.add_edge(0, offset)


def test_add_tree_drops_the_derived_facts():
    g = chain(-2, -2)
    assert g.is_tree() and g.two_coloring() == (1, -1)
    offset = g.add_tree(chain(-3, -3), ["a", "b"])
    assert not g.is_tree()  # two components until they are joined
    assert _outcome(g.two_coloring) == ("error", "graph is disconnected")
    g.add_edge(1, offset)
    assert g.is_tree() and g.two_coloring() == (1, -1, 1, -1)


@settings(max_examples=100, deadline=None)
@given(plumbing_trees(), plumbing_trees(), st.integers(0, 10**6), st.integers(0, 10**6))
def test_property_add_tree_then_rewrites_match_a_fresh_graph(host, tree, x, y):
    host.is_tree()  # the host's derived facts must not survive the block
    offset = host.add_tree(tree, [f"t{i}" for i in range(tree.vertex_count)])
    host.add_edge(x % offset, offset + y % tree.vertex_count)
    vertex = x % host.vertex_count
    out = host.blow_up_point_on_vertex(vertex)
    assert _state(out) == _state(_fresh(host).blow_up_point_on_vertex(vertex))
    assert checked_square(out) == checked_square(_fresh(out))
    assert checked_square(host) == checked_square(_fresh(host))


# -- the edge lookup starts where the last edge blow-up cut ----------------------


@settings(max_examples=200, deadline=None)
@given(plumbing_trees(), st.lists(st.tuples(st.booleans(), st.integers(0, 10**6)), max_size=25))
def test_property_resumed_edge_lookup_matches_a_fresh_graph(g, steps):
    # a graph read back from JSON starts its lookup at position 0
    for on_edge, pick in steps:
        if on_edge and g.edges:
            e = g.edges[pick % len(g.edges)]
            out = g.blow_up_edge(e)
            assert out == _fresh(g).blow_up_edge(e)
        else:
            out = g.blow_up_point_on_vertex(pick % g.vertex_count)
        for e in g.edges:
            assert g.blow_up_edge(e) == _fresh(g).blow_up_edge(e)
        g = out


def _cut_at_2():
    """chain(-2, -2, -2, -2) with (2, 3) blown up: the lookup starts at position 2."""
    g = chain(-2, -2, -2, -2).blow_up_edge((2, 3))
    assert g.edges == [(0, 1), (1, 2), (2, 4), (3, 4)] and g._cut == 2
    return g


def test_resumed_lookup_past_the_end_of_the_edges():
    g = _cut_at_2()
    g.edges.pop()
    g.edges.pop()
    assert g.edges == [(0, 1), (1, 2)] and g._cut == len(g.edges)
    for e in g.edges:
        assert g.blow_up_edge(e) == _fresh(g).blow_up_edge(e)


def test_resumed_lookup_wraps_round_to_an_edge_before_the_cut():
    g = _cut_at_2()
    out = g.blow_up_edge((0, 1))
    assert out == _fresh(g).blow_up_edge((0, 1)) and out._cut == 0
    assert out.edges == [(1, 2), (2, 4), (3, 4), (0, 5), (1, 5)]


def test_resumed_lookup_after_add_edge_and_add_tree():
    g = _cut_at_2()
    offset = g.add_tree(chain(-3, -3), ["x", "y"])
    g.add_edge(4, offset)
    assert g._cut == 2 and g.blow_up_point_on_vertex(0)._cut == 2  # a point blow-up keeps it
    for e in g.edges:
        assert g.blow_up_edge(e) == _fresh(g).blow_up_edge(e)


def test_resumed_lookup_names_a_missing_edge():
    g = _cut_at_2()
    for missing in ((0, 2), (2, 3), (4, 0)):
        with pytest.raises(PlumbingError, match=rf"^no edge \({min(missing)}, {max(missing)}\) "
                                                rf"to blow up$"):
            g.blow_up_edge(missing)
    g.edges.clear()
    with pytest.raises(PlumbingError, match=r"^no edge \(0, 1\) to blow up$"):
        g.blow_up_edge((0, 1))
