"""Rewrite engine for trees of embedded spheres.

A plumbing graph records spheres (vertices weighted by self-intersection)
meeting transversely in single points (edges); every vertex is a sphere.
Both blow-ups are one step: blowing up a point lowers by one the square
of each sphere through it (two at a crossing, one at a generic point) and
adds a (-1)-sphere meeting each of them once.  ``smooth`` computes the
self-intersection of the single sphere obtained by orienting the
components via a two-coloring (so every intersection is negative) and
smoothing every crossing.

A graph is built by its constructor, which checks every edge through
``add_edge``; it changes only through ``add_edge`` and the rewrites, which
return new graphs and never mutate their input.  Facts derived from the
edges (the edge set behind the duplicate check, whether the graph is a
tree, its two-coloring) are computed at most once per graph: ``add_edge``
extends the edge set and drops the other two, and a rewrite carries the
tree flag only (a blow-up keeps a tree a tree).  Cycles are rejected only
when smoothing, not at construction time, leaving intermediate
experiments unrestricted.

An edge blow-up looks its edge up from the position where the edge
blow-up that made the graph deleted its own (0 for a constructed graph),
then wraps round to the front: a replay that walks the edges in list
order never rescans the ones it has passed.

A rewrite copies only the weights and the edges, which decide the
smoothed square, in one straight pass: copy the weights, append the new
sphere's -1, then one loop over the blown-up ends lowers each and appends
its edge.  ``smooth`` tests the common case first (a tree's edge count,
then the carried tree flag) and walks its three errors only when that
test fails.  A graph's provenance is an immutable base plus the log of
the blow-ups that made it: the base is the constructor's labels (default
v0, v1, ...) or a recipe, as ``fibration.build_tree`` leaves, that makes
fresh labels and trace, so a tree that is replayed and never read formats
no label.  Labels, exceptional flags and trace are derived from the two
into fresh lists on every read; a sphere is exceptional exactly when a
blow-up made it.
"""

from __future__ import annotations

from operator import mul

from .inputs import as_int


class PlumbingError(ValueError):
    """A plumbing operation was applied outside its domain."""


class PlumbingGraph:
    __slots__ = ("weights", "edges", "_base", "_log", "_edge_set", "_tree", "_coloring", "_cut")
    __hash__ = None  # mutable, so not hashable

    # -- construction ------------------------------------------------------

    def __init__(self, weights=(), edges=(), labels=None) -> None:
        """Weights follow the package's integer rule and each edge goes through
        ``add_edge``; labels default to v0, v1, ..."""
        self.weights = [w if type(w) is int else as_int(w, "a weight", PlumbingError)
                        for w in weights]
        if labels is not None:
            labels = tuple(labels)
            if len(labels) != len(self.weights):
                raise PlumbingError(f"weights and labels must align, got "
                                    f"{len(self.weights)} and {len(labels)}")
        self.edges = []
        self._base, self._log = labels, None
        self._edge_set = self._tree = self._coloring = None
        self._cut = 0
        for edge in edges if hasattr(edges, "__iter__") else [edges]:
            try:  # blow_up_edge's rule and message, copied: a helper call there slows each rewrite
                u, v = edge
            except (TypeError, ValueError):
                raise PlumbingError(f"an edge must be two ends, got {edge!r}") from None
            self.add_edge(u, v)

    @classmethod
    def from_weights(cls, weights, edges=(), labels=None) -> "PlumbingGraph":
        return cls(weights, edges, labels)

    def add_edge(self, u: int, v: int) -> None:
        if not (type(u) is int and type(v) is int):
            raise PlumbingError(f"edge ends must be integers, got ({u!r}, {v!r})")
        n = len(self.weights)
        if not (0 <= u < n and 0 <= v < n):
            raise PlumbingError(f"edge ({u}, {v}) references a missing vertex")
        if u == v:
            raise PlumbingError("self-loops are not allowed")
        key = (u, v) if u <= v else (v, u)
        if self._edge_set is None:
            self._edge_set = set(self.edges)
        if key in self._edge_set:
            raise PlumbingError(f"edge {key} already present (tangencies not modelled)")
        self._edge_set.add(key)
        self.edges.append(key)
        self._tree = self._coloring = None

    @classmethod
    def _deferred(cls, provenance, weights, edges) -> "PlumbingGraph":
        """Fresh lists of ``weights`` and ``edges``, a checked graph's, taken unchecked, with
        the labels and trace ``provenance(labels)`` returns on every read (see ``_provenance``)."""
        graph = cls()
        graph.weights, graph.edges, graph._base = list(weights), list(edges), provenance
        return graph

    # -- provenance: labels, exceptional flags and trace ---------------------

    labels = property(lambda self: self._provenance()[0])
    trace = property(lambda self: self._provenance(labels=False)[1])

    @property
    def exceptional(self) -> list[bool]:
        """True exactly for the spheres a blow-up made: rewrites only append,
        so those are the vertices from the oldest blow-up's new sphere on."""
        link, first = self._log, len(self.weights)
        while link is not None:
            link, first = link[0], link[2]
        return [i >= first for i in range(len(self.weights))]

    def _provenance(self, labels=True) -> tuple[list | None, list]:
        """Fresh labels and trace: the base's, then one label and one record per
        blow-up in the log, walked by a loop (it may be thousands of links long,
        or empty).  Without ``labels``, as for a trace read, no label is made."""
        link, links = self._log, []
        while link is not None:
            links.append(link)
            link = link[0]
        links.reverse()  # oldest blow-up first
        base = self._base
        names, trace = base(labels) if callable(base) else (base, [])
        if labels:
            if names is None:
                names = [f"v{i}" for i in range(links[0][2] if links else len(self.weights))]
            names = [*names, *(f"e{w}" for _, _, w in links)]
        trace += [
            {"op": "blow_up_edge", "edge": list(ends), "new_vertex": w} if len(ends) == 2
            else {"op": "blow_up_point", "vertex": ends[0], "new_vertex": w}
            for _, ends, w in links]
        return names, trace

    def __eq__(self, other):
        """Weights, edges, labels and trace; the flags follow from the trace."""
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.weights, self.edges, self._provenance())
                == (other.weights, other.edges, other._provenance()))

    def __repr__(self) -> str:
        labels, trace = self._provenance()
        return (f"PlumbingGraph(weights={self.weights!r}, labels={labels!r}, "
                f"exceptional={self.exceptional!r}, edges={self.edges!r}, trace={trace!r})")

    # -- basic queries -----------------------------------------------------

    @property
    def vertex_count(self) -> int:
        return len(self.weights)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def is_tree(self) -> bool:
        """Connected with one edge fewer than vertices: the two-coloring's
        traversal reaches every vertex.  The traversal runs at most once per
        graph; the O(1) count check runs every call, so a direct edit of the
        lists that changes a count is never hidden by the cached flag."""
        if len(self.edges) != len(self.weights) - 1:
            return False
        if self._tree is None:
            try:
                self.two_coloring()  # sets the flag
            except PlumbingError:
                self._tree = False
        return self._tree

    # -- rewrites ----------------------------------------------------------

    def _blow_up(self, ends, edges, cut) -> "PlumbingGraph":
        """Blow up a point on the spheres ``ends``: each square drops by 1 and
        the new (-1)-sphere w meets each end once.  ``edges`` is a new list,
        the edges the output keeps; the output takes it, appends w's edges
        and carries the tree flag, since the new sphere keeps a tree a tree.
        ``cut`` is where the output's next edge lookup starts: the position
        an edge blow-up deleted its edge from, or a point blow-up's input's.

        Only weights and edges are copied: the output shares its input's
        base and adds a link (previous, ends, w) to its log."""
        weights = self.weights.copy()
        w = len(weights)
        weights.append(-1)
        for end in ends:
            weights[end] -= 1
            edges.append((end, w))
        # unchecked, as ``_deferred``'s copy of a checked graph: a blow-up
        # keeps every edge in range, loop-free and distinct
        out = object.__new__(PlumbingGraph)
        out.weights = weights
        out.edges = edges
        out._base = self._base
        out._log = (self._log, ends, w)
        out._edge_set = None
        out._tree = self._tree
        out._coloring = None
        out._cut = cut
        return out

    def blow_up_edge(self, edge: tuple[int, int]) -> "PlumbingGraph":
        """Blow up the intersection point the edge stands for.

        The two endpoint weights drop by 1 and the exceptional (-1)-sphere
        is inserted between them; smoothing afterwards loses exactly 5.

        The edge is looked up from the position where the edge blow-up that
        made this graph deleted its own edge (0 for a constructed graph),
        wrapping round to the front.  Edges are distinct, so the lookup
        finds the one position a scan from the front would; a replay that
        blows up edges in list order never rescans the edges it passed.
        """
        try:
            u, v = edge
        except (TypeError, ValueError):
            raise PlumbingError(f"an edge must be two ends, got {edge!r}") from None
        if not (type(u) is int and type(v) is int):
            raise PlumbingError(f"edge ends must be integers, got ({u!r}, {v!r})")
        key = (u, v) if u <= v else (v, u)
        start = self._cut
        try:
            i = self.edges.index(key, start)
        except ValueError:
            try:
                i = self.edges.index(key, 0, start)
            except ValueError:
                raise PlumbingError(f"no edge {key} to blow up") from None
        edges = self.edges.copy()
        del edges[i]
        return self._blow_up(key, edges, i)

    def blow_up_point_on_vertex(self, vertex: int) -> "PlumbingGraph":
        """Blow up a generic point of one sphere.

        The sphere's weight drops by 1 and the exceptional (-1)-sphere
        hangs off it as a new leaf; smoothing afterwards loses exactly 4
        (the tube-with-a-(-4)-sphere baseline).
        """
        if type(vertex) is not int:
            raise PlumbingError(f"a vertex must be an integer, got {vertex!r}")
        if not 0 <= vertex < len(self.weights):
            raise PlumbingError(f"no vertex {vertex} to blow up")
        return self._blow_up((vertex,), self.edges.copy(), self._cut)

    # -- smoothing ---------------------------------------------------------

    def two_coloring(self) -> tuple[int, ...]:
        """Proper +-1 coloring with the lowest-index vertex getting +1.

        Encodes the orientation choice making every intersection negative.
        Raises for odd cycles (not bipartite) and for disconnected input.
        Derived at most once per graph; a success also settles ``is_tree``.
        """
        if self._coloring is not None:
            return self._coloring
        n = len(self.weights)
        if n == 0:
            raise PlumbingError("cannot color an empty graph")
        adj: list[list[int]] = [[] for _ in range(n)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        colors = [0] * n
        colors[0] = 1
        stack = [0]
        count = 1
        while stack:
            u = stack.pop()
            cu = colors[u]
            for w in adj[u]:
                if colors[w] == 0:
                    colors[w] = -cu
                    count += 1
                    stack.append(w)
                elif colors[w] == cu:
                    raise PlumbingError("not bipartite (odd cycle present)")
        if count != n:
            raise PlumbingError("graph is disconnected")
        self._coloring = tuple(colors)
        self._tree = len(self.edges) == n - 1
        return self._coloring

    def smooth(self) -> int:
        """Self-intersection of the sphere obtained by smoothing all crossings.

        Valid only for a connected tree; the result is sum(weights) -
        2 * edge_count, one -2 per smoothed negative crossing.
        The edge count is tested first, then the carried tree flag, and
        ``is_tree`` runs only when the flag is not true; the errors (empty,
        cycle, disconnected, in that order) are walked only on a failure.
        """
        n = len(self.weights)
        m = len(self.edges)
        if m == n - 1 and (self._tree or self.is_tree()):
            return sum(self.weights) - 2 * m
        if n == 0:
            raise PlumbingError("cannot smooth an empty graph")
        if m >= n:
            raise PlumbingError("graph has a cycle; smoothing would not give a sphere")
        raise PlumbingError("graph is disconnected; smoothing would not give a sphere")

    # -- serialization -----------------------------------------------------

    def to_json_dict(self) -> dict:
        labels, trace = self._provenance()
        flags = self.exceptional
        return {
            "vertices": [
                {"label": labels[i], "weight": weight, "genus": 0, "exceptional": flags[i]}
                for i, weight in enumerate(self.weights)
            ],
            "edges": [list(e) for e in self.edges],
            "trace": trace,
        }

    def to_dot(self) -> str:
        """Graphviz text; vertex label = weight, blow-up vertices boxed."""
        return dot_graph("plumbing", [("v", self.weights, self.edges, self.exceptional)])


def dot_graph(name: str, components) -> str:
    """Graphviz text, vertex label = weight.  ``components`` holds
    (prefix, weights, edges, boxed) tuples: vertex i is named prefix + i
    and boxed when ``boxed[i]`` is true (an empty ``boxed`` boxes none)."""
    lines = [f"graph {name} {{"]
    for prefix, weights, edges, boxed in components:
        for i, w in enumerate(weights):
            marker = ", shape=box" if boxed and boxed[i] else ""
            lines.append(f'  {prefix}{i} [label="{w}"{marker}];')
        for u, v in edges:
            lines.append(f"  {prefix}{u} -- {prefix}{v};")
    lines.append("}")
    return "\n".join(lines)


def checked_square(graph: PlumbingGraph) -> int:
    """``graph.smooth()`` confirmed by ``oracle_square``; every square the
    package reports passes through here.  A mismatch is a program fault,
    not bad input, so it raises AssertionError.  One traversal at most:
    the oracle reads the coloring the tree check derived."""
    square = graph.smooth()
    oracle = oracle_square(graph, graph.two_coloring())
    if square != oracle:
        raise AssertionError(f"smooth {square} != quadratic-form oracle {oracle}")
    return square


def oracle_square(graph: PlumbingGraph, coloring) -> int:
    """Homology square of the smoothed class, computed from the intersection form.

    With v the vector of coloring signs and Q the intersection matrix
    (diagonal = weights, one off-diagonal 1 per edge), returns v^T Q v.
    Independent of ``smooth``: no tree structure is assumed, only a valid
    proper coloring.  Entries follow the package's integer rule; the checks
    run in C on a coloring of ints, as ``checked_square`` passes.
    """
    colors = tuple(coloring)
    n = graph.vertex_count
    if len(colors) != n:
        raise PlumbingError(f"coloring has {len(colors)} entries for {n} vertices")
    if not {*map(type, colors)} <= {int}:
        colors = tuple(as_int(c, f"coloring entry {i}", PlumbingError) for i, c in enumerate(colors))
    if colors.count(1) + colors.count(-1) != n:
        i = next(i for i, c in enumerate(colors) if c not in (1, -1))
        raise PlumbingError(f"coloring entry {i} is {colors[i]}, expected +1 or -1")
    total = sum(map(mul, graph.weights, map(mul, colors, colors)))
    for u, v in graph.edges:
        if colors[u] == colors[v]:
            raise PlumbingError(f"adjacent vertices {u}, {v} share a color")
        total += 2 * colors[u] * colors[v]
    return total
