"""Elliptic fibrations on E(n): validation, reference decompositions, trees.

E(n) (n >= 2, simply connected, with section) fibers over the sphere with
total monodromy (ab)^{6n} and Euler characteristic 12n.  A fibration spec
lists singular fibers whose Euler numbers sum to 12n and whose monodromy
words, taken in canonical order, multiply to the identity.  From a spec
we assemble the plumbing tree: one section sphere of self-intersection
-n joined to each used fiber's fragment at its attachment vertex.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from operator import attrgetter
from typing import NamedTuple

from . import sl2z
from .fibers import FiberOption, catalog, fiber
from .inputs import ValidationError, as_int, as_nk, json_object
from .plumbing import PlumbingGraph, checked_square

PAPER_VERIFIED = "paper_verified"
ASSUMED_REALIZABLE = "assumed_realizable"


# per name: Euler number, monodromy word and canonical rank, read straight
# from the catalog once ``FibrationSpec`` has checked every name
_EULER = {entry.name: entry.euler for entry in catalog()}
_WORD = {entry.name: entry.word for entry in catalog()}
_RANK = {entry.name: i for i, entry in enumerate(catalog())}
_NAMES = frozenset(_EULER)
# entries kept by each per-process memo (``_validate`` per spec, ``_tree_parts`` per
# fragment tuple), least recently used dropped first: 40 trees win the guard grid
_MEMO_SIZE = 256


@dataclass(frozen=True, slots=True)
class FibrationSpec:
    """A multiset of singular fibers, listed in any order, claimed to fibrate E(n)."""

    n: int
    fibers: tuple[str, ...]

    def __post_init__(self) -> None:
        if type(self.n) is not int:
            object.__setattr__(self, "n", as_int(self.n, "spec 'n'"))
        if type(self.fibers) is not tuple:
            object.__setattr__(self, "fibers", _fiber_names(self.fibers, "spec 'fibers'"))
        try:
            known = _NAMES.issuperset(self.fibers)
        except TypeError:  # an unhashable element of a tuple given as it is
            known = False
        if not known:
            _fiber_names(self.fibers, "spec 'fibers'")  # raises for a name that is not a string
            for name in self.fibers:
                fiber(name)  # raises, naming the first unknown type

    @property
    def provenance(self) -> str:
        """``paper_verified`` when the source builds on this fiber multiset
        (see ``documented_choices``), else ``assumed_realizable``."""
        return ASSUMED_REALIZABLE if documented_choices(self) is None else PAPER_VERIFIED

    def canonical(self) -> "FibrationSpec":
        """Same multiset of fibers, sorted in canonical order."""
        return FibrationSpec(self.n, tuple(sorted(self.fibers, key=_RANK.__getitem__)))

    def euler_sum(self) -> int:
        return sum(map(_EULER.__getitem__, self.fibers))

    def to_json_dict(self) -> dict:
        return {"n": self.n, "fibers": list(self.fibers), "provenance": self.provenance}

    @classmethod
    def from_json_dict(cls, data: dict) -> "FibrationSpec":
        json_object(data, "spec", ("n", "fibers", "provenance"))
        for key in ("n", "fibers"):
            if key not in data:
                raise ValidationError(f"spec has no {key!r} entry")
        fibers = data["fibers"]
        if not isinstance(fibers, list) or not all(isinstance(nm, str) for nm in fibers):
            raise ValidationError(f"spec 'fibers' must be a list of fiber names, got {fibers!r}")
        claim = data.get("provenance", ASSUMED_REALIZABLE)  # checked, never stored
        if not isinstance(claim, str):
            raise ValidationError(f"spec 'provenance' must be a string, got {claim!r}")
        if claim not in (PAPER_VERIFIED, ASSUMED_REALIZABLE):
            raise ValidationError(f"unknown provenance {claim!r}")
        return cls(data["n"], fibers)


def _fiber_names(value, what: str) -> tuple:
    """``value`` as a tuple of strings; a string, a mapping, a non-iterable
    or an element that is not a string raises ValidationError."""
    if hasattr(value, "__iter__") and not isinstance(value, (str, Mapping)):
        names = tuple(value)
        if all(isinstance(name, str) for name in names):
            return names
        if isinstance(value, Iterator):  # spent: name what it held
            value = names
    raise ValidationError(f"{what} must be a collection of fiber names, got {value!r}")


def _trivial_monodromy(fibers) -> bool:
    """Whether the fibers' monodromy words, multiplied in canonical order, give
    the identity: one verdict per multiset.  Names must be catalog names."""
    ordered = sorted(fibers, key=_RANK.__getitem__)
    return sl2z.is_identity(sl2z.word_to_matrix("".join(map(_WORD.__getitem__, ordered))))


def validate(spec: FibrationSpec) -> None:
    """Check the two fibration invariants; raise ValidationError naming the failure.
    Memoised per (n, fibers); a failure is never stored, so it raises every time."""
    _validate(spec)


@lru_cache(maxsize=_MEMO_SIZE)
def _validate(spec: FibrationSpec) -> None:  # a spec hashes and compares as (n, fibers)
    as_nk(spec.n)
    total = spec.euler_sum()
    if total != 12 * spec.n:
        raise ValidationError(f"euler sum {total} != {12 * spec.n}")
    if not _trivial_monodromy(spec.fibers):
        raise ValidationError("total monodromy is not the identity")


# Decompositions of the residual (ab)^{6r} block, r = n mod 5, as fiber
# multisets; the (ab)^{30} blocks always split into six E8t fibers.
_RESIDUE_FIBERS = {
    0: (),
    1: ("I0star", "I0star"),
    2: ("E8t", "E6t", "I0star"),
    3: ("E8t", "E8t", "E8t", "I0star"),
    4: ("E8t", "E8t", "E8t", "E8t", "E6t"),
}


# Validated reference specs by n, filled on first use.  Invalid n are
# never stored, so they raise on every call.
_REFERENCE_SPECS: dict[int, FibrationSpec] = {}
# the slots' own setters, with which ``search.enumerate_specs`` builds its specs in place
_SET_N, _SET_FIBERS = FibrationSpec.n.__set__, FibrationSpec.fibers.__set__


def reference_decomposition(n: int) -> FibrationSpec:
    """The fixed fibration realizing the minimal smoothed square in E(n).

    Memoised per n: the 12n-letter monodromy word is validated once per
    process and every later call returns the same frozen spec.
    """
    n, _ = as_nk(n)
    spec = _REFERENCE_SPECS.get(n)
    if spec is None:
        k, r = divmod(n, 5)
        fibers = ("E8t",) * (6 * k) + _RESIDUE_FIBERS[r]
        spec = FibrationSpec(n=n, fibers=fibers)
        validate(spec)
        _REFERENCE_SPECS[n] = spec
    return spec


class WorkedExample(NamedTuple):
    """A construction the source works out in E(n) # k CP2bar; ``fibers``
    is in canonical order, or None for the reference tree."""

    n: int
    k: int
    fibers: tuple[str, ...] | None
    choices: dict[int, str]
    edge_blowups: int
    point_blowups: int
    square: int
    what: str
    vertices: int | None = None


_E6_CUSP = ("E8t",) * 7 + ("II_cusp",)

#: The source's worked examples, replayed one by one by ``verify-paper``.
#: Their choices on multisets other than the reference decomposition are
#: the documented constructions behind ``paper_verified`` provenance.
WORKED_EXAMPLES = (
    WorkedExample(2, 0, None, {}, 0, 0, -86, "reference tree"),
    WorkedExample(2, 1, ("E8t", "E8t", "IV"), {2: "resolve"}, 0, 0, -92,
                  "type-IV fiber resolved", vertices=23),
    WorkedExample(6, 0, None, {}, 0, 0, -262, "reference tree"),
    WorkedExample(6, 0, _E6_CUSP, {7: "skip"}, 0, 0, -258, "seven E8t fibers, cusp left out",
                  vertices=64),
    WorkedExample(6, 1, None, {}, 0, 1, -266, "point blow-up on the section (tube)"),
    WorkedExample(6, 1, None, {}, 1, 0, -267, "one edge blow-up"),
    WorkedExample(6, 1, _E6_CUSP, {7: "replace"}, 0, 0, -269, "cusp replaced by a (-9)-sphere"),
    WorkedExample(6, 3, None, {}, 3, 0, -277, "three edge blow-ups"),
    WorkedExample(6, 3, _E6_CUSP, {7: "resolve"}, 0, 0, -278, "cusp resolved"),
    WorkedExample(6, 3, _E6_CUSP, {7: "replace"}, 2, 0, -279, "cusp replaced, two edge blow-ups"),
)


def documented_choices(spec: FibrationSpec) -> set | None:
    """The (type, choice) pairs the source's constructions make on the
    fiber multiset of ``spec`` (listed in any order), or None when it builds
    none there.  A reference tree uses every fiber as it is; a worked
    example makes its row's choices.  Never raises: the reference is built
    only for n >= 2 and only when it has as many fibers as ``spec``."""
    n, fibers = spec.n, spec.canonical().fibers
    size = 6 * (n // 5) + len(_RESIDUE_FIBERS[n % 5])  # of the reference
    if n >= 2 and len(fibers) == size and fibers == reference_decomposition(n).fibers:
        return {(name, "use") for name in fibers}
    documented = {(name, row.choices.get(i, "use")) for row in WORKED_EXAMPLES
                  if (row.n, row.fibers) == (n, fibers) for i, name in enumerate(fibers)}
    return documented or None


def fiber_option(spec: FibrationSpec, i: int, choice: str | None = None) -> FiberOption:
    """The catalog option ``choice`` names for fiber ``i`` of ``spec``
    (None names the fiber type's default)."""
    i = i if type(i) is int else as_int(i, "fiber index")
    if not 0 <= i < len(spec.fibers):
        raise ValidationError(f"fiber index {i} out of range for {len(spec.fibers)} fibers")
    name = spec.fibers[i]
    try:
        return fiber(name).option(choice)
    except ValueError as exc:
        raise ValidationError(f"fiber {i} ({name}) {exc}") from None


def fiber_options(spec: FibrationSpec, resolutions=None) -> list[FiberOption]:
    """Each fiber's catalog option, in fiber order: every entry of ``resolutions``
    (see ``build_tree``) is checked first, then each other fiber takes its type's default."""
    resolutions = {} if resolutions is None else json_object(resolutions, "resolutions")
    chosen = {i: fiber_option(spec, i, choice) for i, choice in resolutions.items()}
    defaults = {}
    for i, name in enumerate(spec.fibers):
        if i not in chosen and name not in defaults:
            defaults[name] = fiber_option(spec, i)
    return [chosen.get(i) or defaults[name] for i, name in enumerate(spec.fibers)]


def build_tree(spec: FibrationSpec, resolutions=None) -> tuple[PlumbingGraph, int]:
    """Assemble the plumbing tree of a fibration and count blow-ups spent.

    ``resolutions`` maps fiber index -> a choice from the fiber type's
    catalog options: "use" (attach as is), "resolve" (blow up the singular
    point until normal crossing), "replace" (swap in the (-9)-sphere of the
    cuspidal-cubic gluing) or "skip" (leave the fiber out of the tree).
    A fiber without an entry takes its type's default; II_cusp/III/IV have
    none and need an entry, and I1_nodal is always skipped: the options
    are ``fiber_options``'s.  The section meets each fragment at its catalog
    attachment vertex (the smoothed value is independent of this choice).

    Returns the tree and the blow-ups its options consume (resolutions and
    replacements).  Every call validates the spec, then checks the resolutions.
    The weights and edges are memoised per (n, each fiber's fragment), so plans
    that attach the same fragments share an entry; each call gets fresh lists,
    with no tree flag or coloring, and the labels and trace are
    ``_tree_provenance``'s, made on every read.
    """
    validate(spec)
    options = fiber_options(spec, resolutions)
    parts = _tree_parts(spec.n, tuple(map(attrgetter("fragment"), options)))  # a key built in C
    graph = PlumbingGraph._deferred(partial(_tree_provenance, spec, options), *parts)
    return graph, sum(option.blowups for option in options)


@lru_cache(maxsize=_MEMO_SIZE)
def _tree_parts(n: int, fragments: tuple) -> tuple[tuple, tuple]:
    """``build_tree``'s weights and edges, checked by one constructor call: the
    section, then each fragment (None attaches nothing) shifted past the vertices
    before it, its edges followed by its edge to the section."""
    weights, edges = [-n], []
    for fragment in fragments:
        if fragment is not None:
            offset = len(weights)
            weights += fragment.graph.weights
            edges += [(u + offset, v + offset) for u, v in fragment.graph.edges]
            edges.append((0, offset + fragment.attachment))
    graph = PlumbingGraph(weights, edges)
    return tuple(graph.weights), tuple(graph.edges)


def _tree_provenance(spec: FibrationSpec, options, labels=True) -> tuple[list | None, list]:
    """The labels (None without ``labels``: a trace read formats none) and trace
    of the tree ``build_tree`` assembled from ``options``, fragment after fragment."""
    names = ["section"] if labels else None
    trace = [{"op": "section", "n": spec.n, "vertex": 0}]
    end = 1  # one past the last vertex placed
    for i, (name, option) in enumerate(zip(spec.fibers, options)):
        fragment = option.fragment
        if fragment is None:
            continue
        offset, end = end, end + fragment.graph.vertex_count
        if labels:
            names += [f"{name}[{i}].{lab}" for lab in fragment.graph.labels]
        trace.append({"op": "attach_fiber", "fiber": i, "name": name,
                      "choice": "fragment" if option.choice == "use" else option.choice,
                      "vertices": [offset, end - 1],
                      "attached_at": offset + fragment.attachment, "blowups": option.blowups})
    return names, trace


def construction_square(n: int) -> int:
    """Self-intersection of the smoothed reference tree in E(n), checked
    against the quadratic-form oracle."""
    graph, _ = build_tree(reference_decomposition(n))
    return checked_square(graph)


def closed_form_square(n: int) -> Fraction:
    """Literal evaluation of the closed form -44.2*n + 0.8*(5 - r), r = n mod 5.

    Exact rational arithmetic.  Differs from ``construction_square`` by
    exactly +4 when n is divisible by 5 (the residual term does not vanish
    there); elsewhere the two agree.
    """
    n, _ = as_nk(n)
    r = n % 5
    return Fraction(-221 * n, 5) + Fraction(4 * (5 - r), 5)


@dataclass(frozen=True, slots=True)
class AmbientSurface:
    """Standard invariants of E(n) blown up k times."""

    n: int
    k: int
    b2: int
    b2plus: int


def betti(n: int, k: int = 0) -> AmbientSurface:
    """Second Betti numbers of E(n) # k CP2bar: b2 = 12n - 2 + k, b2+ = 2n - 1."""
    n, k = as_nk(n, k)
    return AmbientSurface(n=n, k=k, b2=12 * n - 2 + k, b2plus=2 * n - 1)
