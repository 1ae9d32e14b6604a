import dataclasses
import itertools
import json
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from negsphere import fibration, search
from negsphere.fibers import FIBER_ORDER, fiber
from negsphere.fibration import (
    ASSUMED_REALIZABLE,
    FibrationSpec,
    PAPER_VERIFIED,
    ValidationError,
    WORKED_EXAMPLES,
    _trivial_monodromy,
    betti,
    build_tree,
    reference_decomposition,
    validate,
)
from negsphere.plumbing import PlumbingError, checked_square, oracle_square
from negsphere.search import (
    BlowupPlan,
    NoSolutionError,
    SearchResult,
    best_sphere,
    blowup_guarantee,
    conjecture_check,
    enumerate_specs,
    replay_plan,
)


def test_blowup_guarantee_values():
    assert blowup_guarantee(2, 1) == -91
    assert blowup_guarantee(6, 3) == -277
    assert blowup_guarantee(6, 0) == -262


def test_blowup_guarantee_rejects_bad_input():
    with pytest.raises(ValidationError):
        blowup_guarantee(1, 0)
    with pytest.raises(ValidationError):
        blowup_guarantee(2, -1)


# Independent enumeration oracle: naive nested loops over type counts.
def naive_spec_count(n, eulers):
    total = 12 * n
    count = 0
    ranges = [range(total // e + 1) for e in eulers]
    for combo in itertools.product(*ranges):
        if sum(c * e for c, e in zip(combo, eulers)) == total:
            count += 1
    return count


def test_enumerate_specs_count_matches_naive_oracle():
    specs = list(enumerate_specs(2))
    expected = naive_spec_count(2, [10, 8, 6, 4, 2])
    assert len(specs) == expected == 47


def test_enumerate_specs_examples():
    got = [s.fibers for s in enumerate_specs(2, allowed=("E8t", "IV"))]
    assert ("E8t", "E8t", "IV") in got
    assert got == [("E8t", "E8t", "IV"), ("IV",) * 6]
    assert list(enumerate_specs(2, allowed=("E8t",))) == []


def test_enumerate_specs_all_validate():
    for n in (2, 3):
        for spec in enumerate_specs(n):
            validate(spec)
    for spec in enumerate_specs(2, FIBER_ORDER):
        validate(spec)


def test_enumerate_specs_canonical_unique_sorted():
    specs = [s.fibers for s in enumerate_specs(3)]
    assert len(set(specs)) == len(specs)
    keyed = [tuple(("E8t", "E7t", "E6t", "I0star", "IV", "III", "II_cusp", "I1_nodal").index(nm) for nm in f) for f in specs]
    assert keyed == sorted(keyed)


def test_enumerate_specs_provenance():
    by_fibers = {s.fibers: s.provenance for s in enumerate_specs(2)}
    assert by_fibers[("E8t", "E6t", "I0star")] == PAPER_VERIFIED
    assert by_fibers[("E8t", "E8t", "IV")] == PAPER_VERIFIED
    assert by_fibers[("E6t", "E6t", "E6t")] == ASSUMED_REALIZABLE


def coin_change_count(total, coins=(10, 8, 6, 4, 2)):
    ways = [1] + [0] * total
    for coin in coins:
        for value in range(coin, total + 1):
            ways[value] += ways[value - coin]
    return ways[total]


def test_enumerate_specs_yields_every_default_multiset_with_its_provenance():
    for n in range(2, 13):
        specs = list(enumerate_specs(n))
        assert len(specs) == coin_change_count(12 * n)
        # the source builds on the reference multiset and on its worked examples' ones
        documented = {reference_decomposition(n).fibers} | {
            row.fibers for row in WORKED_EXAMPLES if row.n == n and row.fibers is not None}
        assert {s.fibers for s in specs if s.provenance == PAPER_VERIFIED} == documented
        assert all(s.provenance in (PAPER_VERIFIED, ASSUMED_REALIZABLE) for s in specs)
    assert len(specs) == 13811


def count_vectors(eulers, total):
    """Every count vector with sum(count * euler) == total, in no set order."""
    if len(eulers) == 1:
        return [(total // eulers[0],)] if total % eulers[0] == 0 else []
    return [(c, *rest) for c in range(total // eulers[0] + 1)
            for rest in count_vectors(eulers[1:], total - c * eulers[0])]


@pytest.mark.parametrize("n", [2, 3])
def test_extended_enumeration_is_a_per_spec_monodromy_filter(n):
    names = ("E8t", "E7t", "E6t", "I0star", "IV", "III", "II_cusp", "I1_nodal")
    multisets = [tuple(nm for nm, c in zip(names, counts) for _ in range(c))
                 for counts in sorted(count_vectors([fiber(nm).euler for nm in names], 12 * n),
                                      reverse=True)]
    expected = [FibrationSpec(n, fibers) for fibers in multisets if _trivial_monodromy(fibers)]
    assert list(enumerate_specs(n, names)) == expected


def recursive_iter_counts(eulers, total, prune=None):
    """The count walk that ``enumerate_specs`` and ``search._dfs_best`` each
    run as one loop in their own frame, kept as their reference: one nested
    generator frame per placed type.  ``prune(pos, remaining, counts)``, when
    given, is asked at every node but a leaf; a true answer skips its subtree."""
    m = len(eulers)
    counts = [0] * m

    def walk(pos, remaining):
        if pos == m:
            yield tuple(counts)
            return
        if prune is not None and prune(pos, remaining, counts):
            return
        e = eulers[pos]
        if pos == m - 1:
            if remaining % e == 0:
                counts[pos] = remaining // e
                yield from walk(m, 0)
                counts[pos] = 0
            return
        for c in range(remaining // e, -1, -1):
            counts[pos] = c
            yield from walk(pos + 1, remaining - c * e)
        counts[pos] = 0

    yield from walk(0, total)


def list_expand(names, counts):
    out = []
    for name, c in zip(names, counts):
        out.extend([name] * c)
    return tuple(out)


def reference_best(n, k, names):
    """``search._dfs_best``'s (best, nodes) by the recursive walk and this
    copy of the bound its docstring gives, in exact fractions."""
    eulers = [fiber(name).euler for name in names]
    adj = [min(option.adjusted_gain for option in fiber(name).options) for name in names]
    best, nodes = None, 0

    def prune(pos, remaining, counts):
        nonlocal nodes
        nodes += 1
        placed = -n - 5 * k + sum(c * a for c, a in zip(counts[:pos], adj))
        rate = min([Fraction(0), *map(Fraction, adj[pos:], eulers[pos:])])
        return best is not None and placed + rate * remaining >= best[0]

    for counts in recursive_iter_counts(eulers, 12 * n, prune):
        fibers = list_expand(names, counts)
        if _trivial_monodromy(fibers):
            value, plan = search._best_plan_for_counts(n, k, names, counts)
            if best is None or value < best[0]:
                best = (value, fibers, plan)
    return best, nodes


def test_the_flat_walk_yields_and_prunes_as_the_recursive_walk():
    # every non-empty set of catalog types at n = 2, the one-type sets (a walk
    # that never descends) included, and the default types at larger n
    cases = [(2, k, names) for size in range(1, len(FIBER_ORDER) + 1)
             for names in itertools.combinations(FIBER_ORDER, size) for k in (0, 1, 3)]
    cases += [(n, k, search.DEFAULT_FIBERS) for n in range(2, 9) for k in (0, 1, 3, 10)]
    for n, k, names in cases:
        assert search._dfs_best(n, k, names) == reference_best(n, k, names), (n, k, names)


def reference_specs(n, names):
    eulers = tuple(fiber(name).euler for name in names)
    fibers = (list_expand(names, counts) for counts in recursive_iter_counts(eulers, 12 * n))
    return [FibrationSpec(n, f) for f in fibers if _trivial_monodromy(f)]


@pytest.mark.parametrize("n, names", [
    *(pytest.param(n, search.DEFAULT_FIBERS, id=f"default-{n}") for n in range(2, 13)),
    *(pytest.param(n, FIBER_ORDER, id=f"all-types-{n}") for n in range(2, 6)),
])
def test_enumerate_specs_joins_the_specs_of_the_reference_walk(n, names):
    allowed = None if names == search.DEFAULT_FIBERS else names
    assert list(enumerate_specs(n, allowed)) == reference_specs(n, names)


def test_enumerate_specs_joins_the_reference_walk_for_every_allowed_set():
    # every non-empty set of catalog types, the one-type sets (a walk that never
    # descends) and the two-type ones included, listed shuffled with a repeat
    rng = random.Random(31)
    for size in range(1, len(FIBER_ORDER) + 1):
        for names in itertools.combinations(FIBER_ORDER, size):
            listed = [*names, rng.choice(names)]
            rng.shuffle(listed)
            assert list(enumerate_specs(2, listed)) == reference_specs(2, names), listed


@pytest.mark.parametrize("n, allowed", [
    *(pytest.param(n, None, id=f"default-{n}") for n in range(2, 10)),
    *(pytest.param(n, FIBER_ORDER, id=f"all-types-{n}") for n in range(2, 6)),
])
def test_enumerated_specs_are_the_specs_the_checked_constructor_builds(n, allowed):
    # enumerate_specs builds its specs without re-checking n and the names
    for spec in enumerate_specs(n, allowed):
        checked = FibrationSpec(n, spec.fibers)
        assert type(spec) is FibrationSpec
        assert (spec, hash(spec), repr(spec)) == (checked, hash(checked), repr(checked))
        for name, value in (("n", n + 1), ("fibers", ())):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(spec, name, value)


def test_enumerate_specs_rejects_empty_set():
    with pytest.raises(ValueError, match="empty"):
        list(enumerate_specs(2, allowed=()))


def test_best_sphere_k3():
    result = best_sphere(2, 0)
    assert result.best_square == -86
    assert result.spec.fibers == reference_decomposition(2).fibers
    assert result.plan.resolutions == {}
    assert result.plan.edge_blowups == 0 and result.plan.point_blowups == 0
    assert result.provenance == PAPER_VERIFIED
    assert result.ratio == Fraction(-43, 11)


def test_best_sphere_k3_one_blowup():
    result = best_sphere(2, 1)
    assert result.best_square == -92
    assert result.spec.fibers == ("E8t", "E8t", "IV")
    assert result.plan.resolutions[2] == "resolve"
    assert result.provenance == PAPER_VERIFIED


def test_best_sphere_e6():
    result = best_sphere(6, 1)
    assert result.best_square == -269
    assert result.spec.fibers == ("E8t",) * 7 + ("II_cusp",)
    assert result.plan.resolutions[7] == "replace"

    result = best_sphere(6, 3)
    assert result.best_square == -279
    assert result.plan.resolutions[7] == "replace"
    assert result.plan.edge_blowups == 2
    assert result.provenance == PAPER_VERIFIED


def test_best_never_worse_than_guarantee():
    for n in range(2, 9):
        for k in range(0, 5):
            assert best_sphere(n, k).best_square <= blowup_guarantee(n, k)


def test_budget_monotonicity():
    for n in (2, 3, 6):
        previous = best_sphere(n, 0).best_square
        for k in range(1, 6):
            current = best_sphere(n, k).best_square
            assert current <= previous - 5
            previous = current


def test_budget_spent_exactly():
    for n, k in ((2, 0), (2, 3), (5, 4), (7, 2)):
        result = best_sphere(n, k)
        assert result.plan.total_blowups(result.spec) == k


def test_replay_soundness():
    for n, k in ((2, 1), (6, 3), (4, 2)):
        result = best_sphere(n, k)
        graph = replay_plan(result.spec, result.plan, k=k)
        assert graph.smooth() == result.best_square
        assert oracle_square(graph, graph.two_coloring()) == result.best_square
        json.dumps(result.to_json_dict())  # trace and plan are serializable


# Unpruned brute force: enumerate usage counts, resolution splits and
# blow-up splits per spec, build every graph, smooth it.  No bounds, no
# dominance shortcuts; values come from the rewrite engine.
def brute_force_best(n, k, allowed=None):
    values = [brute_force_spec_best(spec, k) for spec in enumerate_specs(n, allowed)]
    return min((v for v in values if v is not None), default=None)


def brute_force_spec_best(spec, k):
    best = None
    names = spec.fibers
    per_type: dict[str, int] = {}
    for nm in names:
        per_type[nm] = per_type.get(nm, 0) + 1
    type_options = []
    type_names = sorted(per_type, key=lambda nm: names.index(nm))
    for nm in type_names:
        c = per_type[nm]
        if any(o.choice == "use" for o in fiber(nm).options):
            type_options.append([("use", u) for u in range(c + 1)])
        elif nm in ("IV", "III"):
            type_options.append([("resolve", u) for u in range(c + 1)])
        elif nm == "II_cusp":
            type_options.append(
                [("cusp", (m, j)) for m in range(c + 1) for j in range(c - m + 1)]
            )
        else:
            type_options.append([("skip", 0)])
    for combo in itertools.product(*type_options):
        resolutions = {}
        index = 0
        cost = 0
        for nm, (kind, pick) in zip(type_names, combo):
            c = per_type[nm]
            if kind == "use":
                for slot in range(c):
                    resolutions[index + slot] = "use" if slot < pick else "skip"
            elif kind == "resolve":
                cost += pick * fiber(nm).option("resolve").blowups
                for slot in range(c):
                    resolutions[index + slot] = "resolve" if slot < pick else "skip"
            elif kind == "cusp":
                m, j = pick
                cost += 3 * m + j
                for slot in range(c):
                    if slot < m:
                        resolutions[index + slot] = "resolve"
                    elif slot < m + j:
                        resolutions[index + slot] = "replace"
                    else:
                        resolutions[index + slot] = "skip"
            else:
                for slot in range(c):
                    resolutions[index + slot] = "skip"
            index += c
        if cost > k:
            continue
        leftover = k - cost
        for point in range(leftover + 1):
            plan = BlowupPlan(
                resolutions=dict(resolutions),
                edge_blowups=leftover - point,
                point_blowups=point,
            )
            try:
                value = replay_plan(spec, plan, k=k).smooth()
            except PlumbingError:
                continue  # edge blow-up demanded on an edgeless graph
            if best is None or value < best:
                best = value
    return best


@pytest.mark.parametrize("k", [0, 1])
def test_pruned_search_matches_brute_force(k):
    assert best_sphere(2, k).best_square == brute_force_best(2, k)


@pytest.mark.parametrize("n, k", [(3, 0), (3, 1), (4, 0), (4, 1)])
def test_pruned_search_matches_brute_force_up_to_n4(n, k):
    assert best_sphere(n, k).best_square == brute_force_best(n, k)


# At (2, 0) the branch-and-bound drops six leaves for their monodromy word.
@pytest.mark.parametrize("n, k", [(2, 0), (2, 1), (3, 0)])
def test_pruned_extended_search_matches_brute_force(n, k):
    assert best_sphere(n, k, FIBER_ORDER).best_square == brute_force_best(n, k, FIBER_ORDER)


# Restricted searches tie often (IV + II_cusp on E(2) at k = 0: seven specs
# reach -2), and with E7t, III and I1_nodal a multiset whose word is not
# the identity would otherwise win.
@pytest.mark.parametrize("allowed", [("IV", "II_cusp"), ("E8t", "E7t", "III", "I1_nodal")])
def test_search_wins_with_the_first_enumerated_spec_of_least_square(allowed):
    for n, k in ((2, 0), (2, 1), (3, 0)):
        specs = list(enumerate_specs(n, allowed))
        values = [brute_force_spec_best(spec, k) for spec in specs]
        least = min(v for v in values if v is not None)
        result = best_sphere(n, k, allowed)
        assert (result.best_square, result.spec.fibers) == (least, specs[values.index(least)].fibers)


@pytest.mark.parametrize("n, k, message", [
    (1, 0, "n must be at least 2"),
    (2, -1, "blow-up count must be >= 0"),
])
def test_best_sphere_rejects_bad_input(n, k, message):
    with pytest.raises(ValidationError, match=message):
        best_sphere(n, k)


def test_replay_rejects_a_plan_spending_another_budget():
    plan = BlowupPlan(edge_blowups=1)
    assert replay_plan(reference_decomposition(2), plan, k=1).smooth() == -91
    with pytest.raises(ValidationError, match="plan spends 1 blow-ups, budget is 2"):
        replay_plan(reference_decomposition(2), plan, k=2)


def _replayed_by_min_scan(spec, plan):
    """``replay_plan`` without its heap: every edge blow-up scans for the
    smallest edge."""
    graph, _ = build_tree(spec, plan.resolutions)
    for _ in range(plan.point_blowups):
        graph = graph.blow_up_point_on_vertex(0)
    for _ in range(plan.edge_blowups):
        if not graph.edges:
            raise PlumbingError("no edge available for an edge blow-up")
        graph = graph.blow_up_edge(min(graph.edges))
    return graph


def _json_or_error(replay, spec, plan):
    try:
        return replay(spec, plan).to_json_dict()
    except PlumbingError as exc:
        return ("error", str(exc))


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 8), st.integers(0, 40), st.integers(0, 2), st.booleans())
def test_property_heap_replay_matches_a_min_scan(n, edge_blowups, point_blowups, bare):
    spec = reference_decomposition(n)
    resolutions = {i: "skip" for i in range(len(spec.fibers))} if bare else {}
    plan = BlowupPlan(resolutions, edge_blowups=edge_blowups, point_blowups=point_blowups)
    k = edge_blowups + point_blowups  # the reference fibers' use and skip cost none
    assert (_json_or_error(lambda spec, plan: replay_plan(spec, plan, k), spec, plan)
            == _json_or_error(_replayed_by_min_scan, spec, plan))


def test_conjecture_check():
    ratio, ok = conjecture_check(best_sphere(2, 0))
    assert ratio == Fraction(-43, 11)
    assert ok

    # ratio and provenance are derived, never passed in
    assert [f.name for f in dataclasses.fields(SearchResult)] == [
        "n", "k", "best_square", "spec", "plan", "graph"]
    fake = SearchResult(n=2, k=0, best_square=-120, spec=reference_decomposition(2), plan=BlowupPlan())
    ratio, ok = conjecture_check(fake)
    assert ratio == fake.ratio == Fraction(-60, 11)
    assert not ok
    # the bound itself: -5 * b2 holds, one less does not
    assert conjecture_check(dataclasses.replace(fake, best_square=-110)) == (Fraction(-5), True)
    assert not conjecture_check(dataclasses.replace(fake, best_square=-111))[1]


@pytest.mark.parametrize("n, k", random.Random(17).sample(
    [(n, k) for n in range(2, 31) for k in range(51)], 12) + [(2, 0), (6, 3), (30, 50)])
def test_result_ratio_and_provenance_are_derived_from_its_fields(n, k):
    result = best_sphere(n, k)
    assert result.ratio == Fraction(result.best_square, betti(n, k).b2)
    payload = result.to_json_dict()
    assert payload["ratio"] == {"num": result.ratio.numerator, "den": result.ratio.denominator}
    assert payload["provenance"] == result.provenance
    assert payload["spec"]["provenance"] == result.spec.provenance


def test_extended_search_not_worse_than_default():
    default = best_sphere(2, 1).best_square
    extended = best_sphere(2, 1, FIBER_ORDER).best_square
    assert extended <= default


def test_no_solution_reported():
    with pytest.raises(NoSolutionError, match="no valid fibration"):
        best_sphere(2, 0, allowed=("E8t",))


def test_desk_scale_guard():
    with pytest.raises(ValueError, match="desk-scale guard"):
        best_sphere(40, 0)
    with pytest.raises(ValueError, match="desk-scale guard"):
        best_sphere(2, 60)
    assert best_sphere(2, 51, max_k=60).best_square <= -86 - 5 * 51


def test_cusp_only_search_spends_budget_on_bare_section():
    # only cusps allowed: with k = 0 the sphere is the bare section
    result = best_sphere(2, 0, allowed=("II_cusp",))
    assert result.best_square == -2
    assert result.spec.fibers == ("II_cusp",) * 12
    # with k = 1 one replacement beats a point blow-up
    result = best_sphere(2, 1, allowed=("II_cusp",))
    assert result.best_square == -13


def test_point_blowup_forced_on_bare_section():
    # type III fibers need 2 blow-ups each; with k = 1 none can be used,
    # so the single blow-up must hit a point of the bare section
    result = best_sphere(2, 1, allowed=("III",))
    assert result.best_square == -6
    assert result.plan.point_blowups == 1
    assert result.plan.edge_blowups == 0


def test_search_results_deterministic_across_calls():
    first = best_sphere(3, 2)
    second = best_sphere(3, 2)
    assert first == second


def test_branch_and_bound_node_count_over_the_guard_grid(monkeypatch):
    # a weaker bound (or a prune that tests ">" for ">=") still finds every
    # optimum, so only the walk's size shows it
    walks, plans = [], []
    dfs_best, best_plan = search._dfs_best, search._best_plan_for_counts
    monkeypatch.setattr(search, "_dfs_best",
                        lambda *args: walks.append(dfs_best(*args)) or walks[-1])
    monkeypatch.setattr(search, "_best_plan_for_counts",
                        lambda *args: plans.append(args) or best_plan(*args))
    for n in range(2, 31):
        for k in range(51):
            best_sphere(n, k)
    assert (sum(nodes for _best, nodes in walks), len(plans)) == (36198, 1506)


def test_branch_and_bound_node_count_over_every_fiber_type():
    nodes = sum(search._dfs_best(n, k, FIBER_ORDER)[1] for n in range(2, 13) for k in range(11))
    assert nodes == 2751


def test_enumerate_specs_validates_the_reference_once(monkeypatch):
    monkeypatch.setattr(fibration, "_REFERENCE_SPECS", {})
    calls = []
    monkeypatch.setattr(fibration, "validate", lambda spec: calls.append(spec.n) or validate(spec))
    specs = list(enumerate_specs(5))
    assert len(specs) > 100
    assert len(calls) <= 1
    verified = [s.fibers for s in specs if s.provenance == PAPER_VERIFIED]
    assert verified == [("E8t",) * 6]


def test_plan_blowup_cost_reads_the_catalog():
    spec = FibrationSpec(n=6, fibers=("E8t",) * 7 + ("II_cusp",))
    for choice in ("replace", "resolve", "skip"):
        plan = BlowupPlan({7: choice}, edge_blowups=2, point_blowups=1)
        assert plan.total_blowups(spec) == fiber("II_cusp").option(choice).blowups + 3
    with pytest.raises(ValidationError, match="out of range"):
        BlowupPlan({8: "skip"}).total_blowups(spec)
    # the cusp has no default: the budget of a plan without its entry is refused
    with pytest.raises(ValidationError, match=r"^fiber 7 \(II_cusp\) requires a resolution choice"):
        BlowupPlan(edge_blowups=2).total_blowups(spec)


_E2_TWO_CUSPS = FibrationSpec(n=2, fibers=("E8t", "E8t", "II_cusp", "II_cusp"))


@pytest.mark.parametrize("spec, plan", [
    (reference_decomposition(2), BlowupPlan({99: "skip"})),  # source-documented multiset
    (_E2_TWO_CUSPS, BlowupPlan({99: "skip", 2: "skip", 3: "skip"})),  # undocumented multiset
    (_E2_TWO_CUSPS, BlowupPlan({2: "resolve"})),  # fiber 3 lacks its entry
    (reference_decomposition(6), BlowupPlan({0: "replace"}, edge_blowups=1)),
], ids=["out-of-range-documented", "out-of-range-undocumented", "missing-default", "bad-choice"])
def test_a_plan_build_tree_rejects_is_rejected_alike_by_every_reader(spec, plan):
    with pytest.raises(ValidationError) as built:
        build_tree(spec, plan.resolutions)
    for reader in (lambda spec, plan: SearchResult(spec.n, 0, 0, spec, plan).provenance,
                   lambda spec, plan: plan.total_blowups(spec)):
        with pytest.raises(ValidationError) as read:
            reader(spec, plan)
        assert str(read.value) == str(built.value)


@pytest.mark.parametrize("kwargs", [
    {"edge_blowups": -3}, {"point_blowups": -1}, {"resolutions": {-1: "skip"}},
])
def test_plan_rejects_negative_counts_and_indices(kwargs):
    with pytest.raises(ValidationError):
        BlowupPlan(**kwargs)


def test_resolutions_must_be_a_dict():
    with pytest.raises(ValidationError, match=r"^plan 'resolutions' must be a JSON object, got list$"):
        BlowupPlan(resolutions=[(0, "use")])
    with pytest.raises(ValidationError, match=r"^resolutions must be a JSON object, got list$"):
        build_tree(reference_decomposition(2), [(0, "use")])


@pytest.mark.parametrize("choice", [None, ["resolve"], 2, b"resolve"])
def test_plan_choices_must_be_strings(choice):
    message = f"^plan choice for fiber 2 must be a string, got {re.escape(repr(choice))}$"
    with pytest.raises(ValidationError, match=message):
        BlowupPlan({2: choice})
    with pytest.raises(ValidationError, match=message):
        BlowupPlan.from_json_dict({"resolutions": {"2": choice}})


def test_replay_rejects_resolution_index_past_last_fiber():
    with pytest.raises(ValidationError, match="index 9 out of range"):
        replay_plan(reference_decomposition(2), BlowupPlan({9: "resolve"}), k=3)


def test_equal_plans_hash_equal_and_work_as_set_members():
    a = BlowupPlan({7: "replace", 2: "resolve"}, edge_blowups=2)
    b = BlowupPlan({2: "resolve", 7: "replace"}, edge_blowups=2)
    assert a == b and hash(a) == hash(b)
    plans = {a, b, BlowupPlan({7: "replace", 2: "resolve"}, point_blowups=2), BlowupPlan()}
    assert len(plans) == 3
    assert b in plans and BlowupPlan({}) in plans
    assert BlowupPlan({1: "skip"}) not in plans


def test_search_result_stays_unhashable_and_graph_is_not_compared():
    result = best_sphere(6, 3)
    assert checked_square(result.graph) == result.best_square
    assert result.trace == result.graph.trace
    with pytest.raises(TypeError):
        hash(result)
    assert dataclasses.replace(result, graph=None) == result
    assert dataclasses.replace(result, graph=None).trace == []
    assert "graph" not in result.to_json_dict()
