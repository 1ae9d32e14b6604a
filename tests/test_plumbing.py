import copy
import dataclasses
import random

import pytest
from hypothesis import given, settings, strategies as st

from negsphere.fibers import fiber
from negsphere.fibration import build_tree, reference_decomposition
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
    """A graph constructed from g's weights and edges: it has derived nothing
    yet, and its edge lookup starts at position 0."""
    return PlumbingGraph(g.weights, g.edges)


def _shape(g):
    return g.weights, g.edges


def _observe(g):
    """The facts of g, read on a copy that holds what g has derived so
    far, so that g itself derives nothing new."""
    clone = _fresh(g)
    clone._tree, clone._coloring = g._tree, g._coloring
    return _facts(clone)


_REFUSED = "^a block is appended only to a graph no blow-up made$"


def _append_or_refuse(g, tree):
    """Append ``tree`` to g; a graph a blow-up made (one with an exceptional
    sphere) refuses, and is left as it was."""
    if not any(g.exceptional):
        return g._append(tree)
    before = copy.deepcopy(_shape(g))
    with pytest.raises(PlumbingError, match=_REFUSED):
        g._append(tree)
    assert _shape(g) == before


_OPS = ("vertex", "edge", "blow_up_edge", "blow_up_point", "smooth", "two_coloring", "facts")


@settings(max_examples=400, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(_OPS), st.integers(0, 10**6), st.integers(0, 10**6)),
                max_size=30))
def test_property_derived_facts_match_a_fresh_graph(ops):
    g = PlumbingGraph()
    for op, x, y in ops:
        n = g.vertex_count
        if op == "vertex":
            _append_or_refuse(g, PlumbingGraph([-(x % 9) - 1]))
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
    return 0, g._append(PlumbingGraph([-3]))


# the ways a caller can change a graph in place, and edits of what its reads
# return, which must change nothing
_EDITS = {
    "append": lambda g: _append_or_refuse(g, PlumbingGraph([-3])),
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


def test_provenance_takes_part_in_equality_and_graphs_stay_unhashable():
    base = PlumbingGraph([-2, -3], [(0, 1)])
    lazy = chain(-2, -3).blow_up_edge((0, 1)).blow_up_point_on_vertex(2)
    twin = chain(-2, -3).blow_up_edge((0, 1)).blow_up_point_on_vertex(2)
    assert lazy == twin and repr(lazy) == repr(twin)
    # same weights and edges, other labels; same labels, no blow-up log
    for one, other in ((base, PlumbingGraph([-2, -3], [(0, 1)], ["v0", "x"])),
                       (lazy, PlumbingGraph(lazy.weights, lazy.edges, lazy.labels))):
        assert one != other and other != one
    for g in (base, lazy):
        with pytest.raises(TypeError):
            hash(g)


def _scribble(value):
    """Edit in place every list and dict within ``value``, a read's result."""
    items = value.values() if isinstance(value, dict) else value
    for item in list(items):
        if isinstance(item, (list, dict)):
            _scribble(item)
    if isinstance(value, dict):
        value["edited"] = True
    else:
        value.append("edited")


_READS = {
    "labels": lambda result: result.graph.labels,
    "exceptional": lambda result: result.graph.exceptional,
    "trace": lambda result: result.graph.trace,
    "to_json_dict": lambda result: result.graph.to_json_dict(),
    "result trace": lambda result: result.trace,
    "result to_json_dict": lambda result: result.to_json_dict(),
}


@pytest.mark.parametrize("make", [
    lambda: PlumbingGraph([-2, -3, -4], [(0, 1), (1, 2)], ["a", "b", "c"]),
    lambda: build_tree(reference_decomposition(2))[0],
    lambda: chain(-2, -3, -4).blow_up_edge((0, 1)).blow_up_point_on_vertex(3).blow_up_edge((1, 3)),
], ids=["constructed", "build_tree", "rewrite chain"])
def test_every_read_hands_out_fresh_lists_and_records(make):
    result = dataclasses.replace(best_sphere(6, 3), graph=make())
    want = {name: copy.deepcopy(read(result)) for name, read in _READS.items()}
    for read in _READS.values():
        _scribble(read(result))
        assert {name: again(result) for name, again in _READS.items()} == want
    assert result.graph == make() and repr(result.graph) == repr(make())


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
    g._append(PlumbingGraph([-3]))
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
    ({"labels": ["a"]}, "must align, got 2 and 1"),
    ({"labels": ["a", "b", "c"]}, "must align, got 2 and 3"),
    # once taken unchecked: (0, -1) wrapped round to a "tree" smoothing to -6
    ({"labels": ["a", "b"], "edges": [(0, -1)]}, "edge (0, -1) references a missing vertex"),
    # once taken unchecked: (0, True) smoothed to -6, (0, 1.0) raised a bare TypeError
    ({"edges": [(0, True)]}, "edge ends must be integers, got (0, True)"),
    ({"edges": [(0, 1.0)]}, "edge ends must be integers, got (0, 1.0)"),
    ({"edges": [("0", 1)]}, "edge ends must be integers, got ('0', 1)"),
    # once a bare ValueError or TypeError from unpacking; now blow_up_edge's rule
    ({"edges": [(0, 1, 2)]}, "an edge must be two ends, got (0, 1, 2)"),
    ({"edges": [5]}, "an edge must be two ends, got 5"),
    ({"edges": [(0,)]}, "an edge must be two ends, got (0,)"),
    ({"edges": 7}, "an edge must be two ends, got 7"),
])
def test_constructor_rejects_bad_edges_and_misaligned_lists(fields, message):
    with pytest.raises(PlumbingError) as info:
        PlumbingGraph(weights=[-2, -2], **fields)
    assert message in str(info.value) and "\n" not in str(info.value)


def _star(center, *leaves):
    """A star tree: vertex 0 of weight ``center`` joined to one leaf per weight."""
    edges = [(0, i) for i in range(1, len(leaves) + 1)]
    return PlumbingGraph.from_weights([center, *leaves], edges)


def test_append_adds_a_shifted_block():
    # build_tree's step: a catalog tree appended, then joined by add_edge
    g = chain(-2, -3)
    offset = g._append(_star(-4, -5, -6))
    g.add_edge(1, offset)
    assert offset == 2
    assert g.weights == [-2, -3, -4, -5, -6]
    assert g.labels == ["v0", "v1", "v2", "v3", "v4"]
    assert g.exceptional == [False] * 5
    assert g.edges == [(0, 1), (2, 3), (2, 4), (1, 2)]
    assert g.trace == []


@pytest.mark.parametrize("tree", [
    PlumbingGraph.from_weights([-2, -2, -2], [(0, 1), (1, 2), (0, 2)]),
    PlumbingGraph.from_weights([-2, -2, -2, -2], [(0, 1), (2, 3)]),
    PlumbingGraph.from_weights([-2, -2, -2, -2], [(0, 1), (1, 2), (0, 2)]),
], ids=["cycle", "forest", "cycle-beside-a-vertex"])
def test_append_rejects_a_non_tree(tree):
    g = chain(-2, -2)
    before = _state(g)
    with pytest.raises(PlumbingError, match="^only a connected tree is appended as a block$"):
        g._append(tree)
    assert _state(g) == before


@pytest.mark.parametrize("edge_set_first", [False, True])
def test_append_extends_the_duplicate_check(edge_set_first):
    g = PlumbingGraph.from_weights([-1, -1] if edge_set_first else [-1])
    if edge_set_first:
        g.add_edge(0, 1)  # the edge set exists before the block comes
    assert (g._edge_set is not None) == edge_set_first
    offset = g._append(chain(-2, -2, -2))
    with pytest.raises(PlumbingError, match="already present"):
        g.add_edge(offset + 2, offset + 1)
    with pytest.raises(PlumbingError, match="already present"):
        g.add_edge(offset, offset + 1)
    g.add_edge(0, offset)


def test_append_and_add_edge_drop_the_derived_facts():
    g = chain(-2, -2)
    assert g.is_tree() and g.two_coloring() == (1, -1)
    offset = g._append(chain(-3, -3))
    assert not g.is_tree()  # two components until they are joined
    assert _outcome(g.two_coloring) == ("error", "graph is disconnected")
    g.add_edge(1, offset)
    assert g.is_tree() and g.two_coloring() == (1, -1, 1, -1)


@settings(max_examples=100, deadline=None)
@given(plumbing_trees(), plumbing_trees(), st.integers(0, 10**6), st.integers(0, 10**6))
def test_property_append_then_rewrites_match_a_fresh_graph(host, tree, x, y):
    host.is_tree()  # the host's derived facts must not survive the block
    offset = host._append(tree)
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
    # a constructed graph starts its lookup at position 0
    for on_edge, pick in steps:
        if on_edge and g.edges:
            e = g.edges[pick % len(g.edges)]
            out = g.blow_up_edge(e)
            assert _shape(out) == _shape(_fresh(g).blow_up_edge(e))
        else:
            out = g.blow_up_point_on_vertex(pick % g.vertex_count)
        for e in g.edges:
            assert _shape(g.blow_up_edge(e)) == _shape(_fresh(g).blow_up_edge(e))
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
        assert _shape(g.blow_up_edge(e)) == _shape(_fresh(g).blow_up_edge(e))


def test_resumed_lookup_wraps_round_to_an_edge_before_the_cut():
    g = _cut_at_2()
    out = g.blow_up_edge((0, 1))
    assert _shape(out) == _shape(_fresh(g).blow_up_edge((0, 1))) and out._cut == 0
    assert out.edges == [(1, 2), (2, 4), (3, 4), (0, 5), (1, 5)]


def test_resumed_lookup_after_add_edge_and_append():
    # the block goes in before the blow-up, since a graph a blow-up made refuses it
    g = chain(-2, -2, -2, -2)
    offset = g._append(chain(-3, -3))
    g = g.blow_up_edge((2, 3))
    assert g.edges == [(0, 1), (1, 2), (4, 5), (2, 6), (3, 6)] and g._cut == 2
    _append_or_refuse(g, chain(-3, -3))
    g.add_edge(6, offset)
    assert g._cut == 2 and g.blow_up_point_on_vertex(0)._cut == 2  # a point blow-up keeps it
    for e in g.edges:
        assert _shape(g.blow_up_edge(e)) == _shape(_fresh(g).blow_up_edge(e))


def test_append_to_a_graph_a_blow_up_made_is_refused():
    g = PlumbingGraph.from_weights([-2, -2], [(0, 1)]).blow_up_point_on_vertex(0)
    before = g.to_json_dict()
    with pytest.raises(PlumbingError, match=_REFUSED):
        g._append(PlumbingGraph([-3]))
    assert g.to_json_dict() == before and g.exceptional == [False, False, True]


def test_resumed_lookup_names_a_missing_edge():
    g = _cut_at_2()
    for missing in ((0, 2), (2, 3), (4, 0)):
        with pytest.raises(PlumbingError, match=rf"^no edge \({min(missing)}, {max(missing)}\) "
                                                rf"to blow up$"):
            g.blow_up_edge(missing)
    g.edges.clear()
    with pytest.raises(PlumbingError, match=r"^no edge \(0, 1\) to blow up$"):
        g.blow_up_edge((0, 1))
