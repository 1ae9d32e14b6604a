"""The fixed battery of checks behind the ``verify-paper`` subcommand.

Every documented value the package claims to reproduce is recomputed
here from scratch: group relations, the catalog, the s(n) table with its
closed-form comparison, the worked E(2)/E(6) examples (one item per row
of ``fibration.WORKED_EXAMPLES``), blow-up deltas, search rediscovery and
the ratio screen.  Each item reports PASS/FAIL with the numbers it saw.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, partial

from . import sl2z
from .fibers import catalog, fiber
from .fibration import (
    WORKED_EXAMPLES,
    FibrationSpec,
    betti,
    closed_form_square,
    construction_square,
    reference_decomposition,
)
from .plumbing import PlumbingGraph
from .search import (
    BlowupPlan,
    best_sphere,
    blowup_guarantee,
    conjecture_check,
    realize,
)


def _check_group_relations():
    aba = sl2z.word_to_matrix("aba")
    bab = sl2z.word_to_matrix("bab")
    ab6 = sl2z.word_to_matrix("ab" * 6)
    ok = aba == bab and sl2z.is_identity(ab6)
    return ok, f"aba = bab = {aba.to_lists()}, (ab)^6 = {ab6.to_lists()}"


def _check_torsion_sign():
    ab3 = sl2z.word_to_matrix("ab" * 3)
    minus_identity = sl2z.GroupElement(-1, 0, 0, -1)
    aba = sl2z.word_to_matrix("aba")
    ok = ab3 == minus_identity and sl2z.compose(aba, aba) == ab3
    return ok, f"(ab)^3 = {ab3.to_lists()}, (aba)^2 = (ab)^3: {ok}"


def _check_catalog():
    problems = []
    for entry in catalog():
        for option in entry.options:
            if option.choice == "use":
                if option.fragment.euler_characteristic() != entry.euler:
                    problems.append(f"{entry.name}: fragment chi != euler")
                if any(w != -2 for w in option.fragment.graph.weights):
                    problems.append(f"{entry.name}: fragment weight != -2")
            elif option.choice == "resolve":
                chi = option.fragment.euler_characteristic()
                if chi != entry.euler + option.blowups:
                    problems.append(f"{entry.name}: resolved chi != euler + blowups")
    detail = "; ".join(problems) or f"{len(catalog())} entries, words/fragments consistent"
    return not problems, detail


def _check_resolutions():
    expected = {
        "II_cusp": (3, (-6, -1, -2, -3)),
        "III": (2, (-1, -4, -4, -2)),
        "IV": (1, (-1, -3, -3, -3)),
    }
    details = []
    ok = True
    for name, (blowups, weights) in expected.items():
        option = fiber(name).option("resolve")
        graph, used = option.fragment.graph, option.blowups
        good = (
            used == blowups
            and sorted(graph.weights) == sorted(weights)
            and graph.edge_count == 3
        )
        ok = ok and good
        details.append(f"{name}: {used} blow-ups, weights {graph.weights}")
    return ok, "; ".join(details)


def _check_cusp_replacement():
    option = fiber("II_cusp").option("replace")
    ok = option.fragment.graph.weights == [-9] and option.blowups == 1
    return ok, f"single sphere {option.fragment.graph.weights[0]}, {option.blowups} blow-up"


def _check_s_table(square):
    # construction_square raises when smoothing and the oracle disagree
    squares = [square(n) for n in range(2, 21)]
    return True, f"n = 2..20: smoothing = quadratic form, s(n) from {squares[0]} to {squares[-1]}"


def _check_closed_form(square):
    details = []
    ok = True
    for n in range(2, 21):
        built = square(n)
        printed = closed_form_square(n)
        if n % 5 == 0:
            good = printed - built == 4
            details.append(f"n={n}: construction {built}, closed form {printed}")
        else:
            good = printed == built
        ok = ok and good
    return ok, "; ".join(details) + " (multiples of 5 differ by +4, construction wins)"


def _check_chain_identity():
    # x + y - 2 - 5k for two spheres meeting once, over every blow-up sequence
    for x in range(-6, 0):
        for y in range(-6, 0):
            frontier = [PlumbingGraph([x, y], [(0, 1)])]
            for k in range(0, 5):
                for graph in frontier:
                    if graph.smooth() != x + y - 2 - 5 * k:
                        return False, f"x={x}, y={y}, k={k}: {graph.smooth()}"
                if k < 4:
                    frontier = [g.blow_up_edge(e) for g in frontier for e in g.edges]
    return True, "x, y in -6..-1, k <= 4, every edge sequence"


def _check_worked_example(row):
    spec = (reference_decomposition(row.n) if row.fibers is None
            else FibrationSpec(row.n, row.fibers))
    plan = BlowupPlan(row.choices, row.edge_blowups, row.point_blowups)
    result = realize(spec, plan, row.k)  # the budget must be spent exactly
    square, vertices = result.best_square, result.graph.vertex_count
    ok = square == row.square and row.vertices in (None, vertices)
    return ok, f"{vertices} vertices, budget {row.k} spent, smooth = oracle = {square}"


def _check_guarantees():
    values = blowup_guarantee(2, 1), blowup_guarantee(6, 0), blowup_guarantee(6, 3)
    ok = values == (-91, -262, -277)
    return ok, f"(2,1) -> {values[0]}, (6,0) -> {values[1]}, (6,3) -> {values[2]}"


def _check_search_rediscovery(search):
    targets = {(2, 0): -86, (2, 1): -92, (6, 1): -269, (6, 3): -279}
    details = []
    ok = True
    for (n, k), bound in targets.items():
        found = search(n, k).best_square
        ok = ok and found <= bound
        details.append(f"E({n})#{k}: {found} (target <= {bound})")
    return ok, "; ".join(details)


def _check_ratio_screen(search):
    r20 = search(2, 0)
    r63 = search(6, 3)
    ratio20, ok20 = conjecture_check(r20)
    ratio63, ok63 = conjecture_check(r63)
    ok = ratio20 == Fraction(-43, 11) and ok20 and ratio63 == Fraction(-279, 73) and ok63
    return ok, (
        f"E(2): {r20.best_square}/{betti(2, 0).b2} = {ratio20}; "
        f"E(6)#3: {r63.best_square}/{betti(6, 3).b2} = {ratio63}; both >= -5*b2"
    )


def _battery(square, search):
    """(name, check) pairs in battery order; ``square(n)`` is the reference
    tree's checked square, shared by the s-table and closed-form items, and
    ``search(n, k)`` is ``best_sphere``, shared by the last two items."""
    return (
        ("group braid relation aba = bab and torsion (ab)^6 = 1", _check_group_relations),
        ("(ab)^3 is minus the identity and (aba)^2 = (ab)^3", _check_torsion_sign),
        ("catalog words, Euler numbers and fragment consistency", _check_catalog),
        ("resolution recipes for II_cusp, III, IV", _check_resolutions),
        ("cusp replacement gives a (-9)-sphere for one blow-up", _check_cusp_replacement),
        ("s-table n = 2..20 agrees with the quadratic-form oracle",
         partial(_check_s_table, square)),
        ("closed form vs construction (difference only at multiples of 5)",
         partial(_check_closed_form, square)),
        ("two-sphere blow-up identity x + y - 2 - 5k", _check_chain_identity),
        *(
            (f"E({row.n})#{row.k} worked example: {row.what} gives {row.square}",
             partial(_check_worked_example, row))
            for row in WORKED_EXAMPLES
        ),
        ("blow-up guarantees: (2,1) -91, (6,0) -262, (6,3) -277", _check_guarantees),
        ("search rediscovery: -86, -92, -269, -279",
         partial(_check_search_rediscovery, search)),
        ("ratio screen: -43/11 and -279/73, both above -5",
         partial(_check_ratio_screen, search)),
    )


def run_battery() -> list[dict]:
    """Run every check; returns [{name, passed, detail}] in battery order.
    Each reference tree is built, and each (n, k) searched, once per run (a
    failed call is retried)."""
    report = []
    for name, check in _battery(cache(construction_square), cache(best_sphere)):
        try:
            passed, detail = check()
        except Exception as exc:  # a crash is a failure, not an abort
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        report.append({"name": name, "passed": bool(passed), "detail": detail})
    return report
