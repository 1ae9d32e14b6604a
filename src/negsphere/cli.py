"""Command-line front door: formula, build, search, verify-paper, conjecture, catalog."""

from __future__ import annotations

import argparse
import functools
import json
import sys
from collections import Counter
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _encode_str

from .fibers import FIBER_ORDER, catalog, catalog_json, fiber
from .fibration import (
    FibrationSpec,
    ValidationError,
    betti,
    closed_form_square,
    construction_square,
    fiber_options,
)
from .plumbing import dot_graph
from .search import (
    CANDIDATE_CONSTANT,
    MAX_K,
    MAX_N,
    BlowupPlan,
    NoSolutionError,
    best_sphere,
    check_desk_scale,
    conjecture_check,
    realize,
)
from .verify import run_battery

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_INVALID = 2


_FLAGS = {
    "--json": {"action": "store_true", "help": "emit machine-readable JSON"},
    "--dot": {"metavar": "PATH", "help": "write the relevant graph(s) as Graphviz DOT"},
    "--extended-fibers": {"action": "store_const", "const": FIBER_ORDER, "dest": "allowed",
                          "help": "admit E7t/III/I1_nodal (ordered-product validation)"},
    "--max-n": {"type": int, "default": MAX_N, "help": "desk-scale guard / grid limit for n"},
    "--max-k": {"type": int, "default": MAX_K, "help": "desk-scale guard / grid limit for k"},
}


def _add_flags(sub: argparse.ArgumentParser, *flags: str) -> None:
    """Register the named flags: each subcommand takes only those its handler reads."""
    for flag in flags:
        sub.add_argument(flag, **_FLAGS[flag])


@functools.cache  # built on the first main call, then reused: parsing leaves it unchanged
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="negsphere",
        description="Exact constructions and searches of very negative spheres "
        "in elliptic surfaces E(n) and their blow-ups.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("formula", help="s(n): smoothed square of the reference tree")
    p.add_argument("n", type=int)
    _add_flags(p, "--json", "--max-n")
    p.set_defaults(handler=_cmd_formula)

    p = commands.add_parser("build", help="build and smooth the tree of a fibration spec file")
    p.add_argument("specfile", help="JSON file {n, fibers: [names], provenance}")
    p.add_argument("--plan", metavar="PATH",
                   help="JSON plan {resolutions: {index: choice}, edge_blowups, point_blowups}")
    _add_flags(p, "--json", "--dot", "--max-n", "--max-k")
    p.set_defaults(handler=_cmd_build)

    p = commands.add_parser("search", help="minimize the smoothed square in E(n) # k CP2bar")
    p.add_argument("n", type=int)
    p.add_argument("k", type=int)
    _add_flags(p, *_FLAGS)
    p.set_defaults(handler=_cmd_search)

    p = commands.add_parser("verify-paper", help="run the full battery of documented values")
    _add_flags(p, "--json")
    p.set_defaults(handler=_cmd_verify)

    p = commands.add_parser("conjecture", help="ratio screen [S]^2 >= -5*b2 over an (n, k) grid")
    _add_flags(p, "--json", "--extended-fibers", "--max-n", "--max-k")
    p.set_defaults(handler=_cmd_conjecture, max_n=12, max_k=10)

    p = commands.add_parser("catalog", help="list the singular fiber catalog")
    _add_flags(p, "--json", "--dot")
    p.set_defaults(handler=_cmd_catalog)

    return parser


def _write_indented(value, put, newline: str) -> None:
    """Pass ``put`` the pieces of ``json.dumps(value, indent=2, sort_keys=True)``,
    nested at ``newline`` (a newline and the current indent).  A module-level
    function, not a closure calling itself: that closure would be a reference
    cycle holding every piece until the cyclic collector runs."""
    if isinstance(value, str):
        put(_encode_str(value))
    elif value is None:
        put("null")
    elif value is True:
        put("true")
    elif value is False:
        put("false")
    elif isinstance(value, int):
        put(int.__repr__(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            put("[]")
            return
        inner = newline + "  "
        comma, sep = "," + inner, "[" + inner
        for item in value:
            put(sep)
            sep = comma
            _write_indented(item, put, inner)
        put(newline + "]")
    elif isinstance(value, dict):
        if not value:
            put("{}")
            return
        inner = newline + "  "
        comma, sep = "," + inner, "{" + inner
        for key, item in sorted(value.items()):
            if not isinstance(key, str):
                if not (key is None or isinstance(key, (int, float))):
                    raise TypeError(f"keys must be str, int, float, bool or None, "
                                    f"not {key.__class__.__name__}")
                key = json.dumps(key)  # the stdlib's own spelling: true, null, NaN, 1e+16
            put(sep)
            sep = comma
            put(_encode_str(key))
            put(": ")
            _write_indented(item, put, inner)
        put(newline + "}")
    else:  # floats, and the stdlib's TypeError for what JSON cannot hold
        put(json.dumps(value))


def _indented(value) -> str:
    """``json.dumps(value, indent=2, sort_keys=True)``, written in one pass.
    Before Python 3.13 the stdlib indents through its generator-based Python
    encoder, which takes 1.4-2 times as long as this writer."""
    pieces: list[str] = []
    _write_indented(value, pieces.append, "\n")
    return "".join(pieces)


# From 3.13 the C encoder indents and beats the writer; delete it with 3.12 support.
_dumps = (functools.partial(json.dumps, indent=2, sort_keys=True)
          if sys.version_info >= (3, 13) else _indented)


def _print_json(payload) -> None:
    print(_dumps(payload))


def _write_dot(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text + "\n")


# -- handlers ------------------------------------------------------------------


def _cmd_formula(args) -> int:
    check_desk_scale(args.n, 0, max_n=args.max_n)
    built = construction_square(args.n)
    printed = closed_form_square(args.n)
    if args.json:
        _print_json(
            {
                "n": args.n,
                "construction": built,
                "closed_form": {"num": printed.numerator, "den": printed.denominator},
                "agree": printed == built,
            }
        )
        return EXIT_OK
    print(f"s({args.n}) = {built}  (smoothed reference tree)")
    if printed == built:
        print(f"closed form: {printed}  (agrees)")
    else:
        print(f"closed form: {printed}  (construction differs by {built - printed}; "
              "the tree value is authoritative)")
    return EXIT_OK


def _spec_summary(spec: FibrationSpec) -> str:
    counts = Counter(spec.fibers)  # first-seen order
    return " + ".join(f"{count} x {name}" for name, count in counts.items())


def _unique_keys(pairs) -> dict:
    """A JSON object whose keys are distinct; a repeated key would otherwise
    silently keep its last value."""
    data = {}
    for key, value in pairs:
        if key in data:
            raise ValidationError(f"JSON key {key!r} is given twice")
        data[key] = value
    return data


def _read_json(path: str):
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return json.load(handle, object_pairs_hook=_unique_keys)
        except RecursionError:
            raise ValidationError(f"{path}: JSON nested too deeply to read") from None


def _cmd_build(args) -> int:
    spec = FibrationSpec.from_json_dict(_read_json(args.specfile))
    plan = BlowupPlan.from_json_dict(_read_json(args.plan)) if args.plan else BlowupPlan()
    missing = [i for i, nm in enumerate(spec.fibers) if fiber(nm).default is None]
    if missing and not args.plan:
        raise ValidationError(
            f"spec has fibers without a default choice at indices {missing}; provide --plan"
        )
    spent = plan.total_blowups(spec)
    check_desk_scale(spec.n, spent, args.max_n, args.max_k)
    result = realize(spec, plan, spent)  # validates the spec; ignores the file's provenance
    graph, square, provenance = result.graph, result.best_square, result.provenance
    if args.dot:
        _write_dot(args.dot, graph.to_dot())
    if args.json:
        _print_json(
            {
                "spec": spec.to_json_dict(),
                "plan": plan.to_json_dict(),
                "provenance": provenance,
                "vertices": graph.vertex_count,
                "edges": graph.edge_count,
                "blowups_used": spent,
                "smooth": square,
                "oracle": square,
                "graph": graph.to_json_dict(),
            }
        )
        return EXIT_OK
    print(f"spec: E({spec.n}) with {_spec_summary(spec)}  [{provenance}]")
    print(f"tree: {graph.vertex_count} vertices, {graph.edge_count} edges, "
          f"{spent} blow-ups used")
    print(f"smoothed self-intersection: {square}  (the quadratic-form oracle agrees)")
    return EXIT_OK


def _running_totals(result) -> str:
    """The model's sum, step by step; AssertionError unless it ends at the checked square."""
    spec, plan = result.spec, result.plan
    total = -spec.n
    steps = [f"section {total}"]
    groups = Counter()  # (name, option) in first-seen order
    for name, option in zip(spec.fibers, fiber_options(spec, plan.resolutions)):
        if option.fragment is not None:
            groups[name, option] += 1
    for (name, option), count in groups.items():
        total += option.contribution * count
        verb = {"resolve": " resolved", "replace": " replaced"}.get(option.choice, "")
        steps.append(f"+{count} x {name}{verb} -> {total}")
    if plan.point_blowups:
        total -= 4 * plan.point_blowups
        steps.append(f"{plan.point_blowups} point blow-ups -> {total}")
    if plan.edge_blowups:
        total -= 5 * plan.edge_blowups
        steps.append(f"{plan.edge_blowups} edge blow-ups -> {total}")
    if total != result.best_square:
        raise AssertionError(f"running total {total} != checked square {result.best_square}")
    return "; ".join(steps)


def _cmd_search(args) -> int:
    result = best_sphere(args.n, args.k, args.allowed, max_n=args.max_n, max_k=args.max_k)
    ratio, satisfies = conjecture_check(result)
    if args.dot:
        _write_dot(args.dot, result.graph.to_dot())
    if args.json:
        payload = result.to_json_dict()
        payload["satisfies_candidate_bound"] = satisfies
        _print_json(payload)
        return EXIT_OK
    totals = _running_totals(result)  # checked before anything is printed
    print(f"best sphere in E({args.n}) # {args.k} CP2bar: self-intersection {result.best_square}")
    print(f"spec: {_spec_summary(result.spec)} (Euler sum {result.spec.euler_sum()} "
          f"= 12*{args.n})  [{result.provenance}]")
    res_bits = [
        f"{result.spec.fibers[i]}[{i}] -> {choice}"
        for i, choice in sorted(result.plan.resolutions.items())
    ]
    plan_bits = res_bits + [
        f"edge blow-ups: {result.plan.edge_blowups}",
        f"point blow-ups: {result.plan.point_blowups}",
    ]
    print(f"plan: {'; '.join(plan_bits)} (budget {args.k} spent exactly)")
    print(f"running total: {totals}")
    b2 = betti(args.n, args.k).b2
    print(f"b2 = {b2}, ratio = {ratio} ~ {float(ratio):.4f}, "
          f"candidate bound {CANDIDATE_CONSTANT}: "
          f"{'satisfied' if satisfies else 'VIOLATED'}")
    return EXIT_OK if satisfies else EXIT_VERIFICATION


def _cmd_verify(args) -> int:
    report = run_battery()
    all_passed = all(item["passed"] for item in report)
    if args.json:
        _print_json({"items": report, "all_passed": all_passed})
    else:
        for item in report:
            status = "PASS" if item["passed"] else "FAIL"
            print(f"{status}  {item['name']}: {item['detail']}")
        print(f"{'all checks passed' if all_passed else 'FAILURES PRESENT'} "
              f"({sum(i['passed'] for i in report)}/{len(report)})")
    return EXIT_OK if all_passed else EXIT_VERIFICATION


def _cmd_conjecture(args) -> int:
    max_n, max_k = args.max_n, args.max_k
    if max_n < 2:
        raise ValidationError(f"--max-n must be at least 2, got {max_n}")
    if max_k < 0:
        raise ValidationError(f"--max-k must be >= 0, got {max_k}")
    rows = []
    violations = 0
    for n in range(2, max_n + 1):
        for k in range(0, max_k + 1):
            result = best_sphere(n, k, args.allowed,
                                 max_n=max(max_n, MAX_N), max_k=max(max_k, MAX_K))
            ratio, satisfies = conjecture_check(result)
            violations += 0 if satisfies else 1
            rows.append(
                {
                    "n": n,
                    "k": k,
                    "best_square": result.best_square,
                    "b2": betti(n, k).b2,
                    "ratio": {"num": ratio.numerator, "den": ratio.denominator},
                    "satisfies": satisfies,
                }
            )
    if args.json:
        _print_json({"rows": rows, "violations": violations})
    else:
        for row in rows:
            ratio = Fraction(row["ratio"]["num"], row["ratio"]["den"])
            mark = "ok" if row["satisfies"] else "VIOLATION"
            print(f"n={row['n']:>2} k={row['k']:>2}  best={row['best_square']:>6}  "
                  f"b2={row['b2']:>3}  ratio={ratio} ~ {float(ratio):.4f}  {mark}")
        print(f"{len(rows)} cases, {violations} violations of [S]^2 >= {CANDIDATE_CONSTANT}*b2")
    return EXIT_OK if violations == 0 else EXIT_VERIFICATION


def _cmd_catalog(args) -> int:
    if args.dot:
        first = [(entry.name, entry.options[0].fragment) for entry in catalog()]
        _write_dot(args.dot, dot_graph("fiber_fragments", [
            (f"{name}_", frag.graph.weights, frag.graph.edges, ())
            for name, frag in first if frag is not None
        ]))
    if args.json:
        _print_json(catalog_json())
        return EXIT_OK
    print(f"{'name':<10} {'word':<12} {'euler':>5}  options (adjusted gain, blow-ups)")
    for entry in catalog():
        options = ", ".join(f"{o.choice} ({o.adjusted_gain}, {o.blowups})" for o in entry.options)
        print(f"{entry.name:<10} {entry.word:<12} {entry.euler:>5}  {options}")
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except NoSolutionError as exc:
        print(f"no solution: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION
    except AssertionError as exc:  # a cross-check failed: the oracle or the replay disagreed
        print(f"verification failed: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION
    except (ValueError, OverflowError, OSError) as exc:
        # ValidationError, PlumbingError and JSONDecodeError are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    raise SystemExit(main())
