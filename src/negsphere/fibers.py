"""Catalog of the singular elliptic-fiber types used by the constructions.

Each catalog entry carries the fiber's monodromy word and Euler number,
plus its options: the normal-crossing types E8t/E7t/E6t/I0star are used
as trees of (-2)-spheres shaped like the affine Dynkin diagrams, the
cuspidal/tangential types II_cusp, III, IV are resolved by blow-ups into
such trees (or, for II_cusp, replaced by a (-9)-sphere), and any fiber
may be skipped.  The nodal type I1_nodal is tracked for monodromy
accounting only: a nodal sphere is not embedded, so it is always skipped.
"""

from __future__ import annotations

from dataclasses import dataclass

from .inputs import as_int
from .plumbing import PlumbingGraph
from .sl2z import normalize_word


@dataclass(frozen=True, slots=True, eq=False)
class PlumbingFragment:
    """A connected tree of spheres, plus the vertex where a section attaches.

    ``graph`` is the checked tree (every genus is 0); ``attachment`` is the
    vertex a section of the ambient fibration meets in one transverse
    point.  Catalog graphs are shared by every caller: read them, never
    edit them.  Equality is identity, since a graph is not hashable.
    """

    graph: PlumbingGraph
    attachment: int

    def __post_init__(self) -> None:
        if type(self.attachment) is not int:
            object.__setattr__(self, "attachment",
                               as_int(self.attachment, "attachment vertex", ValueError))
        if not self.graph.is_tree():
            raise ValueError("fragment is not a connected tree")
        if not 0 <= self.attachment < self.graph.vertex_count:
            raise ValueError("attachment vertex out of range")

    def euler_characteristic(self) -> int:
        """Euler characteristic of the configuration: 2V - E.

        Each sphere contributes 2; each normal crossing identifies one
        point of two spheres and removes 1.
        """
        return 2 * self.graph.vertex_count - self.graph.edge_count

    def to_json_dict(self) -> dict:
        return {
            "vertices": [
                {"label": lab, "weight": w, "genus": 0}
                for lab, w in zip(self.graph.labels, self.graph.weights)
            ],
            "edges": [list(e) for e in self.graph.edges],
            "attachment": self.attachment,
        }


@dataclass(frozen=True, slots=True)
class FiberOption:
    """One way a fiber enters the section's tree: the choice name plans
    use, the fragment attached (None: nothing) and the blow-ups it costs."""

    choice: str
    fragment: PlumbingFragment | None
    blowups: int = 0

    @property
    def contribution(self) -> int:
        """Change of the smoothed square when attached: the fragment's own
        smoothed square, plus the one section edge."""
        if self.fragment is None:
            return 0
        return self.fragment.graph.smooth() - 2

    @property
    def adjusted_gain(self) -> int:
        """Contribution plus 5 per blow-up: how much the option beats
        spending its blow-ups on edges instead."""
        return self.contribution + 5 * self.blowups


_SKIP = FiberOption("skip", None)


@dataclass(frozen=True, slots=True)
class FiberType:
    """A singular fiber type; its options are in tie-break order, and the
    first is the default unless it costs blow-ups."""

    name: str
    word: str
    euler: int
    options: tuple[FiberOption, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "word", normalize_word(self.word))
        if self.euler != len(self.word):
            raise ValueError(
                f"{self.name}: Euler number {self.euler} != word length {len(self.word)}"
            )

    @property
    def default(self) -> FiberOption | None:
        first = self.options[0]
        return None if first.blowups else first

    def _find(self, choice: str) -> FiberOption | None:
        return next((o for o in self.options if o.choice == choice), None)

    def option(self, choice: str | None = None) -> FiberOption:
        """The option ``choice`` names; None names the default."""
        found = self.default if choice is None else self._find(choice)
        if found is not None:
            return found
        choices = "/".join(o.choice for o in self.options)
        if choice is None:
            raise ValueError(f"requires a resolution choice ({choices})")
        takers = [e.name for e in _CATALOG if e._find(choice)]
        where = f"it applies only to {', '.join(takers)}" if takers else "unknown choice"
        raise ValueError(
            f"does not take a resolution choice {choice!r} ({where}; {self.name} takes {choices})"
        )


def _dynkin_affine_e8() -> PlumbingFragment:
    # trivalent center 0; arms of length 1 (v1), 2 (v2-v3), 5 (v4..v8)
    edges = ((0, 1), (0, 2), (2, 3), (0, 4), (4, 5), (5, 6), (6, 7), (7, 8))
    return PlumbingFragment(PlumbingGraph([-2] * 9, edges), attachment=8)


def _dynkin_affine_e7() -> PlumbingFragment:
    # center 0; short leaf v1; two arms of length 3 (v2..v4 and v5..v7)
    edges = ((0, 1), (0, 2), (2, 3), (3, 4), (0, 5), (5, 6), (6, 7))
    return PlumbingFragment(PlumbingGraph([-2] * 8, edges), attachment=4)


def _dynkin_affine_e6() -> PlumbingFragment:
    # center 0; three arms of length 2
    edges = ((0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6))
    return PlumbingFragment(PlumbingGraph([-2] * 7, edges), attachment=2)


def _dynkin_affine_d4() -> PlumbingFragment:
    # center 0 with four leaves
    edges = ((0, 1), (0, 2), (0, 3), (0, 4))
    return PlumbingFragment(PlumbingGraph([-2] * 5, edges), attachment=1)


def _resolved_cusp() -> FiberOption:
    # three blow-ups at the cusp point: the fiber becomes a (-6)-sphere
    # meeting a (-1)-sphere which also meets a (-2)- and a (-3)-sphere;
    # the section still meets the (-6) proper transform of the fiber
    graph = PlumbingGraph([-6, -1, -2, -3], [(0, 1), (1, 2), (1, 3)],
                          labels=["fiber", "e3", "e1", "e2"])
    fragment = PlumbingFragment(graph, attachment=0)
    return FiberOption("resolve", fragment, blowups=3)


def _resolved_iii() -> FiberOption:
    # two blow-ups at the tangency: a central (-1)-sphere met by two
    # (-4)-spheres and a (-2)-sphere
    fragment = PlumbingFragment(PlumbingGraph([-1, -4, -4, -2], [(0, 1), (0, 2), (0, 3)]),
                                attachment=1)
    return FiberOption("resolve", fragment, blowups=2)


def _resolved_iv() -> FiberOption:
    # one blow-up at the triple point: a central (-1)-sphere met by three
    # (-3)-spheres
    fragment = PlumbingFragment(PlumbingGraph([-1, -3, -3, -3], [(0, 1), (0, 2), (0, 3)]),
                                attachment=1)
    return FiberOption("resolve", fragment, blowups=1)


def _cusp_replacement() -> FiberOption:
    # swap the cusp fiber for the complement of a cuspidal cubic: gluing the
    # two cone-on-trefoil neighbourhoods with reversed orientation costs one
    # blow-up and leaves a single (-9)-sphere meeting the section once
    fragment = PlumbingFragment(PlumbingGraph([-9]), attachment=0)
    return FiberOption("replace", fragment, blowups=1)


_CATALOG = (
    FiberType("E8t", "ab" * 5, 10, (FiberOption("use", _dynkin_affine_e8()), _SKIP)),
    FiberType("E7t", "ab" * 4 + "a", 9, (FiberOption("use", _dynkin_affine_e7()), _SKIP)),
    FiberType("E6t", "ab" * 4, 8, (FiberOption("use", _dynkin_affine_e6()), _SKIP)),
    FiberType("I0star", "ab" * 3, 6, (FiberOption("use", _dynkin_affine_d4()), _SKIP)),
    FiberType("IV", "ab" * 2, 4, (_resolved_iv(), _SKIP)),
    FiberType("III", "aba", 3, (_resolved_iii(), _SKIP)),
    FiberType("II_cusp", "ab", 2, (_resolved_cusp(), _cusp_replacement(), _SKIP)),
    FiberType("I1_nodal", "a", 1, (_SKIP,)),
)

#: Fiber names whose monodromy words are powers of (ab).  Powers of one
#: element commute, so validity of a fibration built from them does not
#: depend on fiber order.
AB_POWER_FIBERS = frozenset(
    entry.name for entry in _CATALOG if entry.word == "ab" * (entry.euler // 2)
)

_BY_NAME = {entry.name: entry for entry in _CATALOG}

#: Canonical fiber order: strictly descending Euler number.
FIBER_ORDER = tuple(entry.name for entry in _CATALOG)
_ORDER_INDEX = {name: i for i, name in enumerate(FIBER_ORDER)}


def catalog() -> tuple[FiberType, ...]:
    """All eight fiber types, in canonical (descending Euler) order."""
    return _CATALOG


def fiber(name: str) -> FiberType:
    try:
        return _BY_NAME[name]
    except KeyError:
        raise ValueError(
            f"unknown fiber type {name!r}; known: {', '.join(FIBER_ORDER)}"
        ) from None


def order_index(name: str) -> int:
    fiber(name)
    return _ORDER_INDEX[name]


def catalog_json() -> list[dict]:
    """Catalog as JSON-ready dictionaries (words as plain strings), each
    type's options in tie-break order; the ``fragment`` and ``resolution``
    keys repeat its ``use`` and ``resolve`` options, when it has them."""
    out = []
    for entry in _CATALOG:
        item: dict = {"name": entry.name, "word": entry.word, "euler": entry.euler}
        use, resolution = entry._find("use"), entry._find("resolve")
        if use is not None:
            item["fragment"] = use.fragment.to_json_dict()
        if resolution is not None:
            item["resolution"] = {
                "blowups": resolution.blowups,
                "fragment": resolution.fragment.to_json_dict(),
            }
        item["options"] = [
            {"choice": o.choice, "blowups": o.blowups, "adjusted_gain": o.adjusted_gain,
             "fragment": None if o.fragment is None else o.fragment.to_json_dict()}
            for o in entry.options
        ]
        out.append(item)
    return out
