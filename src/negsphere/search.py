"""Branch-and-bound minimizer over fibrations and blow-up strategies.

For X = E(n) # k CP2bar the search ranges over every multiset of catalog
fibers with Euler sum 12n, every catalog option (use/resolve/replace/skip)
for every fiber, and every way to spend leftover blow-ups on edges (-5
each) or points (-4 each, only ever forced on a bare section).  The
blow-up budget is spent exactly.

The optimizer works on each option's adjusted gain (see
``fibers.FiberOption``): its smoothed contribution plus 5 per blow-up it
consumes, i.e. how much it beats spending the same blow-ups on edges.
The branch-and-bound walks fiber-count vectors in the order
``enumerate_specs`` yields them, which is also the tie-break order.  Its
bound charges every unplaced Euler unit the best per-unit adjusted rate
among the types still to be placed (-18/5 while E8t is among them); it
only prunes, never decides.
Every winner is replayed through the tree builder and rewrites and
cross-checked against the quadratic-form oracle before being reported.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction

from .fibers import AB_POWER_FIBERS, FIBER_ORDER, catalog, fiber, order_index
from .fibration import (
    ASSUMED_REALIZABLE,
    PAPER_VERIFIED,
    FibrationSpec,
    ValidationError,
    _SET_FIBERS,
    _SET_N,
    _fiber_names,
    _trivial_monodromy,
    betti,
    build_tree,
    construction_square,
    documented_choices,
    fiber_options,
)
from .inputs import as_int, as_nk, json_key_int, json_object
from .plumbing import PlumbingError, PlumbingGraph, checked_square

#: Searched by default: the types whose words are powers of (ab), so a
#: multiset's validity does not depend on fiber order.
DEFAULT_FIBERS = tuple(name for name in FIBER_ORDER if name in AB_POWER_FIBERS)

#: Conjectured universal slope: [S]^2 >= CANDIDATE_CONSTANT * b2(X).
CANDIDATE_CONSTANT = -5

#: Desk-scale guard: default limits on n and on the blow-up count k.
MAX_N = 30
MAX_K = 50


class NoSolutionError(LookupError):
    """No valid fibration decomposition exists for the requested search."""


# -- plan and result objects -------------------------------------------------


@dataclass(frozen=True)
class BlowupPlan:
    """How the blow-up budget is spent for one fibration spec.

    ``resolutions`` maps fiber index -> one of the choices its fiber
    type's catalog options offer; a fiber without an entry takes the
    type's default (see ``fibration.fiber_options``).  Whatever the
    resolutions do not consume is spent as ``edge_blowups`` (then
    ``point_blowups``); resolutions + edges + points must equal k.
    Hashable, consistently with ``==``: the hash reads the resolutions as
    sorted items.
    """

    resolutions: dict[int, str] = field(default_factory=dict)
    edge_blowups: int = 0
    point_blowups: int = 0

    def __post_init__(self) -> None:
        for what in ("edge_blowups", "point_blowups"):
            count = as_int(getattr(self, what), f"plan {what!r}")
            if count < 0:
                raise ValidationError(f"{what} must be >= 0, got {count}")
            object.__setattr__(self, what, count)
        resolutions = {as_int(i, "plan resolution index"): c
                       for i, c in json_object(self.resolutions, "plan 'resolutions'").items()}
        for i, choice in resolutions.items():
            if i < 0:
                raise ValidationError(f"resolution fiber index must be >= 0, got {i}")
            if not isinstance(choice, str):
                raise ValidationError(f"plan choice for fiber {i} must be a string, got {choice!r}")
        object.__setattr__(self, "resolutions", resolutions)

    def __hash__(self) -> int:
        return hash((tuple(sorted(self.resolutions.items())),
                     self.edge_blowups, self.point_blowups))

    def total_blowups(self, spec: FibrationSpec) -> int:
        options = fiber_options(spec, self.resolutions)
        return sum(o.blowups for o in options) + self.edge_blowups + self.point_blowups

    def to_json_dict(self) -> dict:
        return {
            "resolutions": {str(i): c for i, c in sorted(self.resolutions.items())},
            "edge_blowups": self.edge_blowups,
            "point_blowups": self.point_blowups,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "BlowupPlan":
        json_object(data, "plan", ("resolutions", "edge_blowups", "point_blowups"))
        resolutions: dict[int, str] = {}
        for key, choice in json_object(data.get("resolutions", {}), "plan 'resolutions'").items():
            i = json_key_int(key, "plan resolution index")
            if i in resolutions:
                raise ValidationError(f"plan resolution index {i} is given twice (as {key!r})")
            resolutions[i] = choice
        return cls(resolutions, data.get("edge_blowups", 0), data.get("point_blowups", 0))


@dataclass(frozen=True)
class SearchResult:
    """A search's winner, or any (spec, plan) ``realize`` replays.  ``graph``
    is the replayed, oracle-checked plumbing graph; it is left out of ``==``
    and of the JSON form, which carries its ``trace``.  ``ratio`` and
    ``provenance`` are derived from the other fields.  Not hashable."""

    n: int
    k: int
    best_square: int
    spec: FibrationSpec
    plan: BlowupPlan
    graph: PlumbingGraph | None = field(default=None, compare=False, repr=False)

    __hash__ = None

    @property
    def ratio(self) -> Fraction:
        """Exact best_square / b2 of E(n) # k CP2bar."""
        return Fraction(self.best_square, betti(self.n, self.k).b2)

    @property
    def provenance(self) -> str:
        """``paper_verified`` when the source builds on the fiber multiset of
        ``spec`` (in any order) and every fiber takes a choice the source
        makes there, else ``assumed_realizable``; a plan ``build_tree``
        rejects raises.  This and ``FibrationSpec.provenance`` are the two
        readers of ``fibration.documented_choices``."""
        spec = self.spec
        options, documented = fiber_options(spec, self.plan.resolutions), documented_choices(spec)
        on_pattern = documented is not None and all(
            (name, option.choice) in documented for name, option in zip(spec.fibers, options))
        return PAPER_VERIFIED if on_pattern else ASSUMED_REALIZABLE

    @property
    def trace(self) -> list[dict]:
        """``graph``'s trace, a fresh list of fresh records on every read;
        empty without a graph."""
        return [] if self.graph is None else self.graph.trace

    def to_json_dict(self) -> dict:
        ratio = self.ratio
        return {
            "n": self.n,
            "k": self.k,
            "best_square": self.best_square,
            "spec": self.spec.to_json_dict(),
            "plan": self.plan.to_json_dict(),
            "ratio": {"num": ratio.numerator, "den": ratio.denominator},
            "provenance": self.provenance,
            "trace": self.trace,
        }


# -- option tables (derived from the catalog) ----------------------------------

_OPTIONS = {entry.name: entry.options for entry in catalog()}
# per type: index of the best option that costs no blow-ups (skip always
# does), the earliest on ties; fibers not given a costly option take it
_FREE = {
    name: min((o.adjusted_gain, i) for i, o in enumerate(options) if not o.blowups)[1]
    for name, options in _OPTIONS.items()
}
_BEST_ADJ = {name: min(o.adjusted_gain for o in options) for name, options in _OPTIONS.items()}


def _resolve_allowed(allowed) -> tuple[str, ...]:
    names = DEFAULT_FIBERS if allowed is None else _fiber_names(allowed, "allowed")
    names = tuple(sorted(set(names), key=order_index))
    if not names:
        raise ValueError("empty allowed fiber set")
    return names


# -- spec enumeration ---------------------------------------------------------


def enumerate_specs(n: int, allowed=None):
    """Yield every valid fibration spec over the allowed fiber types.

    ``allowed`` names the fiber types to walk (any catalog types, in any
    order); None walks the five (ab)-power types, ``DEFAULT_FIBERS``.
    Each multiset with Euler sum 12n is emitted exactly once, fibers in
    canonical order.  With only (ab)-power types the monodromy is
    automatically (ab)^{6n} = 1; with E7t, III or I1_nodal allowed each
    candidate's words are multiplied in canonical order, as ``validate``
    does, and non-trivial products are dropped.  That check, n and every
    name are settled once per call, so each spec is built in place,
    unchecked.  As in ``_dfs_best``, the walk is one loop in this frame with
    ``counts`` as its stack, leading counts descending; each prefix's
    fibers (``heads``) go down and back up with it.
    """
    n, _ = as_nk(n)
    names = _resolve_allowed(allowed)
    eulers = tuple(fiber(nm).euler for nm in names)
    ab_only = AB_POWER_FIBERS.issuperset(names)
    runs = [[(name,) * c for c in range(12 * n // e + 1)] for name, e in zip(names, eulers)]
    last, e_last, last_runs = len(names) - 1, eulers[-1], runs[-1]
    counts = [0] * len(names)
    heads = [()] * len(names)  # fibers of counts[:pos]: the head above plus one run
    new, set_n, set_fibers = object.__new__, _SET_N, _SET_FIBERS
    pos, remaining = 0, 12 * n
    while True:
        if pos < last:  # take the largest count that fits
            c = counts[pos] = remaining // eulers[pos]
            remaining -= c * eulers[pos]
            pos += 1
            heads[pos] = heads[pos - 1] + runs[pos - 1][c]
            continue
        if remaining % e_last == 0:
            fibers = heads[last] + last_runs[remaining // e_last]
            if ab_only or _trivial_monodromy(fibers):
                spec = new(FibrationSpec)
                set_n(spec, n)
                set_fibers(spec, fibers)
                yield spec
        while pos:  # back up: the deepest nonzero count drops by one
            pos -= 1
            if counts[pos]:
                counts[pos] -= 1
                remaining += eulers[pos]
                pos += 1
                heads[pos] = heads[pos - 1] + runs[pos - 1][counts[pos - 1]]
                break
        else:
            return


# -- per-spec plan optimization ----------------------------------------------


def _best_plan_for_counts(n, k, names, counts):
    """Exact minimum over plans for one fiber multiset; budget spent exactly.

    Every fiber takes its type's free option (``_FREE``) unless it is given
    an option that costs blow-ups.  One count is enumerated per costly
    option of a present type, never one per free option.  The last costly
    option goes straight to its bound when it beats its type's free option
    and attaches a fragment: then every extra fiber on it lowers the value.

    Returns (value, plan) with plan = (option counts per type,
    edge_blowups, point_blowups).  Ties go to the plan whose per-fiber
    option indices come first (more fibers on earlier options).
    """
    value = -n - 5 * k
    attached = False
    rows = []  # per type: fibers on each option; the free option holds the rest
    costly = []  # (row, option index, free index, option, gain over the free option)
    for name, c in zip(names, counts):
        options, f = _OPTIONS[name], _FREE[name]
        row = [0] * len(options)
        row[f] = c
        rows.append(row)
        if c:
            value += c * options[f].adjusted_gain
            attached = attached or options[f].fragment is not None
            costly += [
                (row, i, f, option, option.adjusted_gain - options[f].adjusted_gain)
                for i, option in enumerate(options) if option.blowups
            ]
    best: list = []

    def walk(d: int, budget: int, value: int, attached: bool):
        if d == len(costly):
            # bare section: no edge exists until one point blow-up
            point = 1 if budget and not attached else 0
            # the rows fix the blow-up split, so they settle every tie
            key = (value + point, tuple(-c for row in rows for c in row))
            if not best or key < best[0]:
                best[:] = [key, (tuple(map(tuple, rows)), budget - point, point)]
            return
        row, i, f, option, delta = costly[d]
        top = min(row[f], budget // option.blowups)
        greedy = d == len(costly) - 1 and delta < 0 and option.fragment is not None
        for c in range(top, top - 1 if greedy else -1, -1):
            row[i], row[f] = c, row[f] - c
            walk(d + 1, budget - c * option.blowups, value + c * delta,
                 attached or (c > 0 and option.fragment is not None))
            row[i], row[f] = 0, row[f] + c

    walk(0, k, value, attached)
    (value, _ranks), plan = best
    return value, plan


def _plan_from_counts(names, plan) -> BlowupPlan:
    rows, edge, point = plan
    choices = [
        option.choice
        for name, row in zip(names, rows)
        for option, c in zip(_OPTIONS[name], row)
        for _ in range(c)
    ]
    # a plan spells out every choice but using a fiber as it is
    resolutions = {i: choice for i, choice in enumerate(choices) if choice != "use"}
    return BlowupPlan(resolutions=resolutions, edge_blowups=edge, point_blowups=point)


# -- the branch-and-bound search ----------------------------------------------


def _dfs_best(n, k, names):
    """(best, nodes): the best (value, fibers, plan) over all specs, or
    None, and the count of nodes whose bound the walk tested.

    The walk is ``enumerate_specs``'s, in this frame: its order is the
    tie-break order, so only a strictly smaller value replaces the best.
    Every node but a leaf tests its bound: the placed counts at their types'
    best adjusted gains, plus each unplaced Euler unit at the best rate among
    the types at or after ``pos`` (only those can fill it), scaled by the lcm
    of the Euler numbers to stay integral.  A bound no better than the best
    skips the node's subtree.
    """
    eulers = tuple(fiber(nm).euler for nm in names)
    adj = tuple(_BEST_ADJ[nm] for nm in names)
    scale = math.lcm(*eulers)
    m = len(names)
    rates = [0] * (m + 1)  # every best adjusted gain is <= 0 (skip gives 0)
    for pos in reversed(range(m)):
        rates[pos] = min(rates[pos + 1], adj[pos] * (scale // eulers[pos]))
    last, e_last = m - 1, eulers[-1]
    counts = [0] * m
    partial = [(-n - 5 * k) * scale] + [0] * m  # scaled bound of counts[:pos]
    heads = [()] * m  # fibers of counts[:pos]; ~25 nodes a search do not pay for a run table
    ab_only = AB_POWER_FIBERS.issuperset(names)
    best, nodes = None, 0
    pos, remaining = 0, 12 * n
    while True:
        if pos:
            partial[pos] = partial[pos - 1] + counts[pos - 1] * adj[pos - 1] * scale
            heads[pos] = heads[pos - 1] + (names[pos - 1],) * counts[pos - 1]
        nodes += 1
        if best is None or partial[pos] + rates[pos] * remaining < best[0] * scale:
            if pos < last:  # take the largest count that fits
                c = counts[pos] = remaining // eulers[pos]
                remaining -= c * eulers[pos]
                pos += 1
                continue
            if remaining % e_last == 0:  # the last type takes what is left
                counts[last] = remaining // e_last
                fibers = heads[last] + (names[last],) * counts[last]
                if ab_only or _trivial_monodromy(fibers):
                    value, plan = _best_plan_for_counts(n, k, names, tuple(counts))
                    if best is None or value < best[0]:
                        best = (value, fibers, plan)
        while pos:  # back up: the deepest nonzero count drops by one
            pos -= 1
            if counts[pos]:
                counts[pos] -= 1
                remaining += eulers[pos]
                pos += 1
                break
        else:
            return best, nodes


def check_desk_scale(n: int, k: int, max_n: int = MAX_N, max_k: int = MAX_K) -> None:
    """Raise ValueError when (n, k) exceeds the desk-scale guard."""
    n, k = as_int(n, "n"), as_int(k, "blow-up count")
    max_n, max_k = as_int(max_n, "max_n"), as_int(max_k, "max_k")
    if n > max_n or k > max_k:
        raise ValueError(
            f"(n={n}, k={k}) exceeds the desk-scale guard "
            f"(max_n={max_n}, max_k={max_k}); raise the limits to override"
        )


def blowup_guarantee(n: int, k: int) -> int:
    """Self-intersection guaranteed in E(n) # k CP2bar by edge blow-ups
    on the reference tree: construction_square(n) - 5k."""
    n, k = as_nk(n, k)
    return construction_square(n) - 5 * k


def replay_plan(spec: FibrationSpec, plan: BlowupPlan, k: int) -> PlumbingGraph:
    """Rebuild the final plumbing graph of (spec, plan) through the tree
    builder and the rewrite engine, after checking that the plan spends
    the budget ``k`` exactly.  Point blow-ups land on the section (first,
    so a bare section grows an edge); edge blow-ups always hit the
    currently smallest edge.

    A queue of section edges stands in for a heap of all edges: every
    fragment hangs off the section (vertex 0), so (0, *) edges sort first,
    and blowing up (0, v) adds (0, w), w the new largest vertex, and (v, w)."""
    k = as_nk(spec.n, k)[1]
    graph, spent = build_tree(spec, resolutions=plan.resolutions)
    if spent + plan.edge_blowups + plan.point_blowups != k:
        raise ValidationError(
            f"plan spends {spent + plan.edge_blowups + plan.point_blowups} "
            f"blow-ups, budget is {k}"
        )
    for _ in range(plan.point_blowups):
        graph = graph.blow_up_point_on_vertex(0)
    section = deque(e for e in graph.edges if e[0] == 0)  # ascending
    for _ in range(plan.edge_blowups):
        if not section:
            raise PlumbingError("no edge available for an edge blow-up")
        graph = graph.blow_up_edge(section.popleft())
        section.append((0, graph.vertex_count - 1))
    return graph


def realize(spec: FibrationSpec, plan: BlowupPlan, k: int) -> SearchResult:
    """(spec, plan) replayed on the budget ``k`` by ``replay_plan``, its square
    checked by ``checked_square``: the one path to every reported sphere."""
    graph = replay_plan(spec, plan, k)
    return SearchResult(spec.n, int(k), checked_square(graph), spec, plan, graph)


def best_sphere(
    n: int,
    k: int,
    allowed=None,
    *,
    max_n: int = MAX_N,
    max_k: int = MAX_K,
) -> SearchResult:
    """Most negative smoothed sphere found in E(n) # k CP2bar.

    ``allowed`` names the fiber types searched, as for ``enumerate_specs``
    (None: the five (ab)-power types).  Minimizes over every valid fiber
    multiset of those types, usage subset, resolution choice and exact
    spending of the blow-up budget.  Ties break to the
    first spec ``enumerate_specs`` would yield (the lexicographically
    smallest canonical spec), then to its first plan, so results are
    reproducible bit for bit.  The winner is realized (see ``realize``)
    and its checked square compared with the model's value before it is
    returned.
    """
    n, k = as_nk(n, k)
    check_desk_scale(n, k, max_n, max_k)
    names = _resolve_allowed(allowed)
    found, _nodes = _dfs_best(n, k, names)
    if found is None:
        raise NoSolutionError(
            f"no valid fibration decomposition for n={n} over fibers {list(names)}"
        )
    value, fibers, plan_counts = found
    result = realize(FibrationSpec(n=n, fibers=fibers), _plan_from_counts(names, plan_counts), k)
    if result.best_square != value:
        raise AssertionError(
            f"replay mismatch: model {value}, checked square {result.best_square}")
    return result


def conjecture_check(result: SearchResult) -> tuple[Fraction, bool]:
    """Exact ratio best_square / b2 and whether [S]^2 >= -5 * b2 holds."""
    ratio = result.ratio
    return ratio, ratio >= CANDIDATE_CONSTANT  # b2 > 0
