"""Branch-and-bound minimizer over fibrations and blow-up strategies.

For X = E(n) # k CP2bar the search ranges over every multiset of catalog
fibers with Euler sum 12n, every choice of which fibers to attach, every
resolution/replacement choice for II_cusp/III/IV fibers, and every way
to spend leftover blow-ups on edges (-5 each) or points (-4 each, only
ever forced on a bare section).  The blow-up budget is spent exactly.

The optimizer works on a per-fiber "adjusted gain": the fiber's smoothed
contribution plus 5 per blow-up its resolution consumes, i.e. how much it
beats spending the same blow-ups on edges.  The branch bound charges the
best per-letter adjusted rate (-18/5, an E8t fiber) to all unassigned
monodromy letters and -5 to every blow-up; it only prunes, never decides.
Every winner is replayed through the tree builder and rewrites and
cross-checked against the quadratic-form oracle before being reported.
"""

from __future__ import annotations

import concurrent.futures
from dataclasses import dataclass, field
from fractions import Fraction

from . import sl2z
from .fibers import (
    AB_POWER_FIBERS,
    FRAGMENT_FIBERS,
    RESOLVABLE_FIBERS,
    PlumbingFragment,
    cusp_replacement,
    fiber,
    order_index,
)
from .fibration import (
    ASSUMED_REALIZABLE,
    PAPER_VERIFIED,
    FibrationSpec,
    ValidationError,
    _json_int,
    _json_object,
    betti,
    build_tree,
    construction_square,
    reference_decomposition,
)
from .plumbing import PlumbingError, PlumbingGraph, oracle_square

DEFAULT_FIBERS = ("E8t", "E6t", "I0star", "IV", "II_cusp")
EXTENDED_ONLY_FIBERS = ("E7t", "III", "I1_nodal")

#: Conjectured universal slope: [S]^2 >= CANDIDATE_CONSTANT * b2(X).
CANDIDATE_CONSTANT = -5


class NoSolutionError(LookupError):
    """No valid fibration decomposition exists for the requested search."""


# -- plan and result objects -------------------------------------------------


@dataclass(frozen=True)
class BlowupPlan:
    """How the blow-up budget is spent for one fibration spec.

    ``resolutions`` maps fiber index -> choice: "resolve"/"replace"/"skip"
    for II_cusp/III/IV (replace only for II_cusp), "use"/"skip" for
    fragment fibers (default "use"), "skip" for I1_nodal.  Whatever the
    resolutions do not consume is spent as ``edge_blowups`` (then
    ``point_blowups``); resolutions + edges + points must equal k.
    """

    resolutions: dict[int, str] = field(default_factory=dict)
    edge_blowups: int = 0
    point_blowups: int = 0

    def __post_init__(self) -> None:
        for what, count in (("edge_blowups", self.edge_blowups),
                            ("point_blowups", self.point_blowups)):
            if count < 0:
                raise ValidationError(f"{what} must be >= 0, got {count}")
        for i in self.resolutions:
            if i < 0:
                raise ValidationError(f"resolution fiber index must be >= 0, got {i}")

    def blowup_cost(self, spec: FibrationSpec) -> int:
        cost = 0
        for i, choice in self.resolutions.items():
            if i >= len(spec.fibers):
                raise ValidationError(
                    f"resolution fiber index {i} out of range for {len(spec.fibers)} fibers"
                )
            name = spec.fibers[i]
            if choice == "resolve":
                cost += fiber(name).resolution.blowups
            elif choice == "replace":
                cost += cusp_replacement()[1]
        return cost

    def total_blowups(self, spec: FibrationSpec) -> int:
        return self.blowup_cost(spec) + self.edge_blowups + self.point_blowups

    def to_json_dict(self) -> dict:
        return {
            "resolutions": {str(i): c for i, c in sorted(self.resolutions.items())},
            "edge_blowups": self.edge_blowups,
            "point_blowups": self.point_blowups,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "BlowupPlan":
        _json_object(data, "plan")
        resolutions = _json_object(data.get("resolutions", {}), "plan 'resolutions'")
        return cls(
            resolutions={
                _json_int(i, "plan resolution index"): str(c) for i, c in resolutions.items()
            },
            edge_blowups=_json_int(data.get("edge_blowups", 0), "plan 'edge_blowups'"),
            point_blowups=_json_int(data.get("point_blowups", 0), "plan 'point_blowups'"),
        )


@dataclass(frozen=True)
class SearchResult:
    n: int
    k: int
    best_square: int
    spec: FibrationSpec
    plan: BlowupPlan
    trace: list[dict]
    ratio: Fraction
    provenance: str

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "best_square": self.best_square,
            "spec": self.spec.to_json_dict(),
            "plan": self.plan.to_json_dict(),
            "ratio": {"num": self.ratio.numerator, "den": self.ratio.denominator},
            "provenance": self.provenance,
            "trace": list(self.trace),
        }


# -- adjusted-gain tables (derived from the catalog, not hand-entered) -------


def _contribution(fragment: PlumbingFragment) -> int:
    # smoothed contribution of an attached fragment: weights, internal
    # edges, plus the one section edge
    return sum(fragment.weights) - 2 * fragment.edge_count - 2


_FRAG_ADJ = {name: _contribution(fiber(name).fragment) for name in FRAGMENT_FIBERS}
_RES_ADJ = {
    name: _contribution(fiber(name).resolution.fragment)
    + 5 * fiber(name).resolution.blowups
    for name in RESOLVABLE_FIBERS
}
_REP_ADJ = _contribution(cusp_replacement()[0]) + 5 * cusp_replacement()[1]

_BEST_ADJ = dict(_FRAG_ADJ)
for _name in RESOLVABLE_FIBERS:
    _BEST_ADJ[_name] = _RES_ADJ[_name]
_BEST_ADJ["II_cusp"] = min(_BEST_ADJ["II_cusp"], _REP_ADJ)
_BEST_ADJ["I1_nodal"] = 0


def _resolve_allowed(allowed, extended: bool) -> tuple[str, ...]:
    if allowed is None:
        allowed = DEFAULT_FIBERS + (EXTENDED_ONLY_FIBERS if extended else ())
    names = tuple(sorted(set(allowed), key=order_index))
    if not names:
        raise ValueError("empty allowed fiber set")
    if not extended:
        outside = [nm for nm in names if nm not in DEFAULT_FIBERS]
        if outside:
            raise ValueError(
                f"fiber types {outside} have order-dependent words and require "
                "extended mode"
            )
    return names


# -- spec enumeration ---------------------------------------------------------


def _iter_counts(eulers: tuple[int, ...], total: int):
    """All count vectors with sum(count * euler) == total, lexicographically
    by the expanded canonical fiber sequence (descending leading counts)."""
    m = len(eulers)
    counts = [0] * m

    def walk(pos: int, remaining: int):
        if pos == m:
            if remaining == 0:
                yield tuple(counts)
            return
        e = eulers[pos]
        for c in range(remaining // e, -1, -1):
            counts[pos] = c
            yield from walk(pos + 1, remaining - c * e)
        counts[pos] = 0

    yield from walk(0, total)


def _expand(names: tuple[str, ...], counts: tuple[int, ...]) -> tuple[str, ...]:
    out: list[str] = []
    for nm, c in zip(names, counts):
        out.extend([nm] * c)
    return tuple(out)


def _needs_word_check(names, counts) -> bool:
    return any(c > 0 and nm not in AB_POWER_FIBERS for nm, c in zip(names, counts))


def _word_is_trivial(names, counts) -> bool:
    word = "".join(fiber(nm).word * c for nm, c in zip(names, counts))
    return sl2z.is_identity(sl2z.word_to_matrix(word))


def _reference_names(n: int) -> tuple[str, ...]:
    return reference_decomposition(n).fibers


def _verified_multiset(n: int, names_sorted: tuple[str, ...]) -> bool:
    if names_sorted == _reference_names(n):
        return True
    if n == 2 and names_sorted == ("E8t", "E8t", "IV"):
        return True
    if n == 6 and names_sorted == ("E8t",) * 7 + ("II_cusp",):
        return True
    return False


def enumerate_specs(n: int, allowed=None, *, extended: bool = False):
    """Yield every valid fibration spec over the allowed fiber types.

    Each multiset with Euler sum 12n is emitted exactly once, fibers in
    canonical order.  With only (ab)-power fiber types the monodromy is
    automatically (ab)^{6n} = 1; extended types (E7t, III, I1_nodal) make
    the product order-dependent, so each candidate's canonical-order word
    is checked and non-trivial products are dropped.
    """
    if n < 2:
        raise ValidationError(f"n must be at least 2, got {n}")
    names = _resolve_allowed(allowed, extended)
    eulers = tuple(fiber(nm).euler for nm in names)
    for counts in _iter_counts(eulers, 12 * n):
        if _needs_word_check(names, counts) and not _word_is_trivial(names, counts):
            continue
        fibers = _expand(names, counts)
        provenance = PAPER_VERIFIED if _verified_multiset(n, fibers) else ASSUMED_REALIZABLE
        yield FibrationSpec(n=n, fibers=fibers, provenance=provenance)


# -- per-spec plan optimization ----------------------------------------------


def _plan_ranks(names, counts, plan_tuple) -> tuple:
    # canonical tie-break key: choice ranks per fiber (use/resolve=0,
    # replace=1, skip=2), then blow-up split
    i_iv, t_iii, m_res, j_rep, edge, point = plan_tuple
    ranks: list[int] = []
    for nm, c in zip(names, counts):
        if nm in FRAGMENT_FIBERS:
            ranks.extend([0] * c)
        elif nm == "IV":
            ranks.extend([0] * i_iv + [2] * (c - i_iv))
        elif nm == "III":
            ranks.extend([0] * t_iii + [2] * (c - t_iii))
        elif nm == "II_cusp":
            ranks.extend([0] * m_res + [1] * j_rep + [2] * (c - m_res - j_rep))
        else:  # I1_nodal
            ranks.extend([2] * c)
    return (tuple(ranks), edge, point)


def _best_plan_for_counts(n, k, names, counts):
    """Exact minimum over plans for one fiber multiset; budget spent exactly.

    Returns (value, plan_key, plan_tuple) with plan_tuple =
    (iv_resolved, iii_resolved, cusps_resolved, cusps_replaced,
    edge_blowups, point_blowups).
    """
    by_name = dict(zip(names, counts))
    free_adj = 0
    has_fragment = False
    for nm in FRAGMENT_FIBERS:
        c = by_name.get(nm, 0)
        if c:
            free_adj += _FRAG_ADJ[nm] * c
            has_fragment = True
    n_iv = by_name.get("IV", 0)
    n_iii = by_name.get("III", 0)
    n_cusp = by_name.get("II_cusp", 0)
    base = -n - 5 * k + free_adj

    best = None
    for i in range(min(n_iv, k) + 1):
        for t in range(min(n_iii, (k - i) // 2) + 1):
            for m in range(min(n_cusp, (k - i - 2 * t) // 3) + 1):
                # replacing a cusp always beats leaving its blow-up to an
                # edge, so take as many replacements as cusps/budget allow
                j = min(n_cusp - m, k - i - 2 * t - 3 * m)
                spent = i + 2 * t + 3 * m + j
                leftover = k - spent
                value = (
                    base
                    + i * _RES_ADJ["IV"]
                    + t * _RES_ADJ["III"]
                    + m * _RES_ADJ["II_cusp"]
                    + j * _REP_ADJ
                )
                point = 0
                if leftover and not (has_fragment or i + t + m + j):
                    # bare section: no edge exists until one point blow-up
                    point = 1
                    value += 1
                plan_tuple = (i, t, m, j, leftover - point, point)
                key = (value, _plan_ranks(names, counts, plan_tuple))
                if best is None or key < best[0]:
                    best = (key, plan_tuple)
    (value, plan_key), plan_tuple = best
    return value, plan_key, plan_tuple


def _plan_from_tuple(names, counts, plan_tuple) -> BlowupPlan:
    i_iv, t_iii, m_res, j_rep, edge, point = plan_tuple
    resolutions: dict[int, str] = {}
    index = 0
    for nm, c in zip(names, counts):
        for _ in range(c):
            if nm == "IV":
                resolutions[index] = "resolve" if i_iv > 0 else "skip"
                i_iv -= 1 if i_iv > 0 else 0
            elif nm == "III":
                resolutions[index] = "resolve" if t_iii > 0 else "skip"
                t_iii -= 1 if t_iii > 0 else 0
            elif nm == "II_cusp":
                if m_res > 0:
                    resolutions[index] = "resolve"
                    m_res -= 1
                elif j_rep > 0:
                    resolutions[index] = "replace"
                    j_rep -= 1
                else:
                    resolutions[index] = "skip"
            elif nm == "I1_nodal":
                resolutions[index] = "skip"
            index += 1
    return BlowupPlan(resolutions=resolutions, edge_blowups=edge, point_blowups=point)


# -- the branch-and-bound search ----------------------------------------------


def _dfs_best(n, k, names, first_count=None):
    """Best (key, counts, plan_tuple) over all specs, or None.

    key = (value, expanded-spec index tuple, plan key); smaller wins.
    ``first_count`` pins the count of names[0] (used to split work).
    """
    eulers = tuple(fiber(nm).euler for nm in names)
    best_adj = tuple(_BEST_ADJ[nm] for nm in names)
    rate = min(Fraction(best_adj[i], eulers[i]) for i in range(len(names)))
    rate_num, rate_den = rate.numerator, rate.denominator
    base = -n - 5 * k
    total = 12 * n
    m = len(names)
    best: list = [None]
    counts = [0] * m

    def leaf():
        tcounts = tuple(counts)
        if _needs_word_check(names, tcounts) and not _word_is_trivial(names, tcounts):
            return
        value, plan_key, plan_tuple = _best_plan_for_counts(n, k, names, tcounts)
        spec_key = tuple(
            idx for idx, c in enumerate(tcounts) for _ in range(c)
        )
        key = (value, spec_key, plan_key)
        if best[0] is None or key < best[0][0]:
            best[0] = (key, tcounts, plan_tuple)

    def walk(pos: int, remaining: int, partial_opt: int):
        if best[0] is not None:
            bound = (base + partial_opt) * rate_den + rate_num * remaining
            if bound >= best[0][0][0] * rate_den:
                return
        if pos == m:
            if remaining == 0:
                leaf()
            return
        e = eulers[pos]
        start = remaining // e
        if pos == 0 and first_count is not None:
            if first_count > start:
                return
            counts[0] = first_count
            walk(1, remaining - first_count * e, partial_opt + first_count * best_adj[0])
            counts[0] = 0
            return
        for c in range(start, -1, -1):
            counts[pos] = c
            walk(pos + 1, remaining - c * e, partial_opt + c * best_adj[pos])
        counts[pos] = 0

    walk(0, total, 0)
    return best[0]


def _pool_worker(args):
    n, k, names, first_count = args
    return _dfs_best(n, k, names, first_count=first_count)


def _documented_plan(n, fibers_sorted, plan: BlowupPlan) -> bool:
    """Whether (spec, plan) matches a construction pattern built explicitly
    in the source constructions (reference trees plus the E(2)/E(6)
    cusp and type-IV examples, with leftover edge/point blow-ups)."""
    if not _verified_multiset(n, fibers_sorted):
        return False
    for i, name in enumerate(fibers_sorted):
        choice = plan.resolutions.get(i)
        if name in FRAGMENT_FIBERS:
            if choice not in (None, "use"):
                return False
        elif name == "IV":
            if choice != "resolve":
                return False
        elif name == "II_cusp":
            if choice not in ("skip", "replace", "resolve"):
                return False
        else:
            return False
    return True


def blowup_guarantee(n: int, k: int) -> int:
    """Self-intersection guaranteed in E(n) # k CP2bar by edge blow-ups
    on the reference tree: construction_square(n) - 5k."""
    if k < 0:
        raise ValidationError(f"blow-up count must be >= 0, got {k}")
    return construction_square(n) - 5 * k


def replay_plan(spec: FibrationSpec, plan: BlowupPlan, k: int | None = None) -> PlumbingGraph:
    """Rebuild the final plumbing graph of (spec, plan) through the tree
    builder and the rewrite engine.  Point blow-ups land on the section
    (first, so a bare section grows an edge); edge blow-ups always hit the
    currently smallest edge.  With ``k`` given, checks the budget is spent
    exactly."""
    use: list[int] = []
    resolutions: dict[int, str] = {}
    for i, name in enumerate(spec.fibers):
        choice = plan.resolutions.get(i)
        if name in FRAGMENT_FIBERS:
            if choice in (None, "use"):
                use.append(i)
            elif choice != "skip":
                raise ValidationError(f"fiber {i} ({name}): bad choice {choice!r}")
        elif name in RESOLVABLE_FIBERS:
            if choice is None:
                raise ValidationError(
                    f"fiber {i} ({name}) requires a resolution choice"
                )
            if choice != "skip":
                use.append(i)
                resolutions[i] = choice
        else:  # I1_nodal
            if choice not in (None, "skip"):
                raise ValidationError(f"fiber {i} ({name}): bad choice {choice!r}")
    graph, spent = build_tree(spec, use=use, resolutions=resolutions)
    if k is not None and spent + plan.edge_blowups + plan.point_blowups != k:
        raise ValidationError(
            f"plan spends {spent + plan.edge_blowups + plan.point_blowups} "
            f"blow-ups, budget is {k}"
        )
    for _ in range(plan.point_blowups):
        graph = graph.blow_up_point_on_vertex(0)
    for _ in range(plan.edge_blowups):
        if not graph.edges:
            raise PlumbingError("no edge available for an edge blow-up")
        graph = graph.blow_up_edge(min(graph.edges))
    return graph


def best_sphere(
    n: int,
    k: int,
    allowed=None,
    *,
    extended: bool = False,
    max_n: int = 30,
    max_k: int = 50,
    threads: int = 1,
) -> SearchResult:
    """Most negative smoothed sphere found in E(n) # k CP2bar.

    Minimizes over every valid fiber multiset, usage subset, resolution
    choice and exact spending of the blow-up budget.  Ties break to the
    lexicographically smallest canonical spec, then plan, so results are
    reproducible bit for bit (and schedule-independent under ``threads``).
    The winner is replayed through the builder and rewrites and checked
    against the quadratic-form oracle before being returned.
    """
    if n < 2:
        raise ValidationError(f"n must be at least 2, got {n}")
    if k < 0:
        raise ValidationError(f"blow-up count must be >= 0, got {k}")
    if n > max_n or k > max_k:
        raise ValueError(
            f"(n={n}, k={k}) exceeds the desk-scale guard "
            f"(max_n={max_n}, max_k={max_k}); raise the limits to override"
        )
    names = _resolve_allowed(allowed, extended)

    if threads > 1:
        e0 = fiber(names[0]).euler
        jobs = [(n, k, names, c) for c in range(12 * n // e0, -1, -1)]
        with concurrent.futures.ProcessPoolExecutor(max_workers=threads) as pool:
            results = [r for r in pool.map(_pool_worker, jobs) if r is not None]
        found = min(results, key=lambda item: item[0]) if results else None
    else:
        found = _dfs_best(n, k, names)

    if found is None:
        raise NoSolutionError(
            f"no valid fibration decomposition for n={n} over fibers {list(names)}"
        )
    (value, _spec_key, _plan_key), counts, plan_tuple = found

    fibers = _expand(names, counts)
    spec_prov = PAPER_VERIFIED if _verified_multiset(n, fibers) else ASSUMED_REALIZABLE
    spec = FibrationSpec(n=n, fibers=fibers, provenance=spec_prov)
    plan = _plan_from_tuple(names, counts, plan_tuple)

    graph = replay_plan(spec, plan, k=k)
    square = graph.smooth()
    oracle = oracle_square(graph, graph.two_coloring())
    if not (square == oracle == value):
        raise AssertionError(
            f"replay mismatch: model {value}, smooth {square}, oracle {oracle}"
        )

    provenance = (
        PAPER_VERIFIED if _documented_plan(n, fibers, plan) else ASSUMED_REALIZABLE
    )
    return SearchResult(
        n=n,
        k=k,
        best_square=value,
        spec=spec,
        plan=plan,
        trace=list(graph.trace),
        ratio=Fraction(value, betti(n, k).b2),
        provenance=provenance,
    )


def conjecture_check(result: SearchResult) -> tuple[Fraction, bool]:
    """Exact ratio best_square / b2 and whether [S]^2 >= -5 * b2 holds."""
    b2 = betti(result.n, result.k).b2
    ratio = Fraction(result.best_square, b2)
    return ratio, result.best_square >= CANDIDATE_CONSTANT * b2
