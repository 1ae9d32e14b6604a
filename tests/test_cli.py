import argparse
import contextlib
import dataclasses
import io
import json
import time
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

from negsphere import cli, fibration, verify
from negsphere import search as search_module
from negsphere.cli import main
from negsphere.fibers import FIBER_ORDER, fiber
from negsphere.fibration import (
    WORKED_EXAMPLES,
    FibrationSpec,
    ValidationError,
    reference_decomposition,
)
from negsphere.plumbing import PlumbingGraph, checked_square
from negsphere.search import (
    BlowupPlan,
    best_sphere,
    conjecture_check,
    realize,
    replay_plan,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_formula_human(capsys):
    code, out, _ = run(capsys, "formula", "2")
    assert code == 0
    assert "s(2) = -86" in out


def test_formula_discrepancy(capsys):
    code, out, _ = run(capsys, "formula", "5")
    assert code == 0
    assert "-221" in out and "-217" in out


def test_formula_json(capsys):
    code, out, _ = run(capsys, "formula", "5", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["construction"] == -221
    assert payload["closed_form"] == {"num": -217, "den": 1}
    assert payload["agree"] is False


def test_search_human(capsys):
    code, out, _ = run(capsys, "search", "2", "1")
    assert code == 0
    assert "-92" in out
    assert "IV" in out and "resolve" in out


def test_search_json_round_trips(capsys):
    code, out, _ = run(capsys, "search", "6", "3", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["best_square"] == -279
    assert payload["ratio"] == {"num": -279, "den": 73}
    spec = FibrationSpec.from_json_dict(payload["spec"])
    plan = BlowupPlan.from_json_dict(payload["plan"])
    graph = replay_plan(spec, plan, k=payload["k"])
    assert graph.smooth() == payload["best_square"]
    assert payload["satisfies_candidate_bound"] is True


def test_search_writes_dot(tmp_path, capsys):
    dot = tmp_path / "win.dot"
    code, out, _ = run(capsys, "search", "6", "3", "--dot", str(dot))
    assert code == 0
    text = dot.read_text()
    assert text.startswith("graph")
    assert "shape=box" in text  # the two edge blow-ups are marked


def test_search_extended_fibers_searches_every_catalog_type(capsys):
    code, out, _ = run(capsys, "search", "2", "1", "--extended-fibers", "--json")
    assert code == 0
    result = best_sphere(2, 1, FIBER_ORDER)
    expected = result.to_json_dict()
    expected["satisfies_candidate_bound"] = conjecture_check(result)[1]
    assert json.loads(out) == expected


def test_build_replays_example(tmp_path, capsys):
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps({
        "n": 6,
        "fibers": ["E8t"] * 7 + ["II_cusp"],
        "provenance": "paper_verified",
    }))
    plan_file = tmp_path / "plan.json"
    plan_file.write_text(json.dumps({
        "resolutions": {"7": "replace"},
        "edge_blowups": 2,
        "point_blowups": 0,
    }))
    code, out, _ = run(capsys, "build", str(spec_file), "--plan", str(plan_file))
    assert code == 0
    assert "-279" in out


def build_files(tmp_path, spec, plan):
    spec_file, plan_file = tmp_path / "spec.json", tmp_path / "plan.json"
    spec_file.write_text(json.dumps(spec))
    plan_file.write_text(json.dumps(plan))
    return str(spec_file), "--plan", str(plan_file)


K3_IV = {"n": 2, "fibers": ["E8t", "E8t", "IV"]}
E3_OFF_TABLE = ["II_cusp", "E6t", "IV", "E8t", "II_cusp", "E6t", "II_cusp"]


@pytest.mark.parametrize("spec, plan, derived", [
    # the source builds nothing on E8t + 2 x E6t + IV + 3 x II_cusp
    ({"n": 3, "fibers": E3_OFF_TABLE, "provenance": "paper_verified"},
     {"resolutions": {"0": "skip", "2": "resolve", "4": "skip", "6": "skip"}},
     "assumed_realizable"),
    # the E(2) type-IV worked example, fibers listed out of canonical order
    ({"n": 2, "fibers": ["IV", "E8t", "E8t"], "provenance": "assumed_realizable"},
     {"resolutions": {"0": "resolve"}}, "paper_verified"),
])
def test_build_derives_provenance_ignoring_the_file(tmp_path, capsys, spec, plan, derived):
    argv = build_files(tmp_path, spec, plan)
    code, out, _ = run(capsys, "build", *argv)
    assert code == 0
    assert f"[{derived}]" in out and spec["provenance"] not in out
    code, out, _ = run(capsys, "build", *argv, "--json")
    payload = json.loads(out)
    assert payload["spec"]["provenance"] == payload["provenance"] == derived
    assert payload["spec"]["fibers"] == spec["fibers"]


def test_build_provenance_agrees_with_search_and_enumeration(capsys):
    by_fibers = {s.fibers: s.provenance for s in search_module.enumerate_specs(3)}
    e3 = FibrationSpec(3, tuple(E3_OFF_TABLE)).canonical().fibers
    assert by_fibers[e3] == "assumed_realizable"
    code, out, _ = run(capsys, "search", "2", "1", "--json")
    found = json.loads(out)
    assert found["spec"]["fibers"] == ["E8t", "E8t", "IV"]
    assert found["provenance"] == found["spec"]["provenance"] == "paper_verified"


def test_build_off_pattern_plan_keeps_the_multiset_provenance(tmp_path, capsys):
    argv = build_files(tmp_path, K3_IV, {"resolutions": {"2": "skip"}})
    code, out, _ = run(capsys, "build", *argv, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["spec"]["provenance"] == "paper_verified"
    assert payload["provenance"] == "assumed_realizable"


def test_build_writes_dot(tmp_path, capsys):
    dot = tmp_path / "tree.dot"
    argv = build_files(tmp_path, K3_IV, {"resolutions": {"2": "resolve"}})
    code, out, _ = run(capsys, "build", *argv, "--dot", str(dot))
    assert code == 0 and "-92" in out
    text = dot.read_text()
    assert text.startswith("graph") and text.count("--") == 22  # 23 vertices, a tree


def test_build_json_graph(tmp_path, capsys):
    spec = {"n": 2, "fibers": ["E8t", "E6t", "I0star"]}
    plan = {"edge_blowups": 2, "point_blowups": 1}
    code, out, _ = run(capsys, "build", *build_files(tmp_path, spec, plan), "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["smooth"] == payload["oracle"] == -86 - 2 * 5 - 4
    replayed = replay_plan(FibrationSpec.from_json_dict(spec), BlowupPlan.from_json_dict(plan),
                           k=payload["blowups_used"])
    assert payload["graph"] == replayed.to_json_dict()
    weights = [vertex["weight"] for vertex in payload["graph"]["vertices"]]
    assert sum(weights) - 2 * len(payload["graph"]["edges"]) == payload["smooth"]


def test_build_invalid_spec_exit_code(tmp_path, capsys):
    spec_file = tmp_path / "bad.json"
    spec_file.write_text(json.dumps({"n": 2, "fibers": ["E8t", "E8t", "E6t", "I0star"]}))
    code, _, err = run(capsys, "build", str(spec_file))
    assert code == 2
    assert "euler sum 34 != 24" in err


def test_build_needs_plan_for_resolvables(tmp_path, capsys):
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps({"n": 2, "fibers": ["E8t", "E8t", "IV"]}))
    code, _, err = run(capsys, "build", str(spec_file))
    assert code == 2
    assert "provide --plan" in err


def test_build_unknown_fiber_exit_code(tmp_path, capsys):
    spec_file = tmp_path / "bad.json"
    spec_file.write_text(json.dumps({"n": 2, "fibers": ["X9"]}))
    code, _, err = run(capsys, "build", str(spec_file))
    assert code == 2
    assert "unknown fiber type" in err


def test_verify_paper(capsys):
    code, out, _ = run(capsys, "verify-paper")
    assert code == 0
    assert "FAIL" not in out
    assert out.count("PASS") >= 16
    assert "E(2)" in out and "-86" in out
    assert "-279" in out
    assert "construction -221" in out and "closed form -217" in out


def test_verify_paper_json(capsys):
    code, out, _ = run(capsys, "verify-paper", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["all_passed"] is True
    assert all(item["passed"] for item in payload["items"])


def test_conjecture_grid(capsys):
    code, out, _ = run(capsys, "conjecture", "--max-n", "3", "--max-k", "1")
    assert code == 0
    assert "VIOLATION" not in out
    assert "0 violations" in out


def test_conjecture_json(capsys):
    code, out, _ = run(capsys, "conjecture", "--max-n", "3", "--max-k", "1", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["violations"] == 0
    assert len(payload["rows"]) == 2 * 2
    assert payload["rows"][0] == {
        "n": 2, "k": 0, "best_square": -86, "b2": 22,
        "ratio": {"num": -43, "den": 11}, "satisfies": True,
    }


def test_catalog_table(capsys):
    code, out, _ = run(capsys, "catalog")
    assert code == 0
    for name in ("E8t", "E7t", "E6t", "I0star", "IV", "III", "II_cusp", "I1_nodal"):
        assert name in out


def test_catalog_json_and_dot(tmp_path, capsys):
    dot = tmp_path / "catalog.dot"
    code, out, _ = run(capsys, "catalog", "--json", "--dot", str(dot))
    assert code == 0
    payload = json.loads(out)
    assert len(payload) == 8
    assert payload[0]["word"] == "ababababab"
    text = dot.read_text()
    assert "E8t_0" in text and "II_cusp_0" in text


# -- the --json format ---------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [("formula", "30"), ("search", "30", "50"), ("build",), ("verify-paper",), ("conjecture",),
     ("catalog",)],
    ids=lambda argv: argv[0],
)
def test_json_output_is_the_stdlibs_compact_sorted_text(tmp_path, capsys, argv):
    if argv == ("build",):  # the search 30 50 winner
        found = best_sphere(30, 50).to_json_dict()
        spec, plan = tmp_path / "spec.json", tmp_path / "plan.json"
        spec.write_text(json.dumps(found["spec"]))
        plan.write_text(json.dumps(found["plan"]))
        argv = ("build", str(spec), "--plan", str(plan))
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 0
    assert out == json.dumps(json.loads(out), sort_keys=True) + "\n"
    assert out.isascii()


def test_search_guard_exit_code(capsys):
    code, _, err = run(capsys, "search", "40", "0")
    assert code == 2
    assert "desk-scale guard" in err


def test_missing_file_exit_code(capsys):
    code, _, err = run(capsys, "build", "/nonexistent/spec.json")
    assert code == 2


def test_exit_codes_stable(capsys):
    first = run(capsys, "formula", "7")
    second = run(capsys, "formula", "7")
    assert first == second


def _smooth_one_too_low(monkeypatch):
    smooth = PlumbingGraph.smooth
    monkeypatch.setattr(PlumbingGraph, "smooth", lambda graph: smooth(graph) - 1)


def _model_one_too_low(monkeypatch):
    best_plan = search_module._best_plan_for_counts

    def low(*args):
        value, plan = best_plan(*args)
        return value - 1, plan

    monkeypatch.setattr(search_module, "_best_plan_for_counts", low)


def _reported_square_one_too_low(monkeypatch):
    best_sphere = cli.best_sphere

    def low(*args, **kwargs):
        result = best_sphere(*args, **kwargs)
        return dataclasses.replace(result, best_square=result.best_square - 1)

    monkeypatch.setattr(cli, "best_sphere", low)


E6_CUSP_REPLACED = ({"n": 6, "fibers": ["E8t"] * 7 + ["II_cusp"]},
                    {"resolutions": {"7": "replace"}, "edge_blowups": 2})


@pytest.mark.parametrize("mutant, argv, message", [
    (_smooth_one_too_low, ["formula", "6"], "smooth -263 != quadratic-form oracle -262"),
    (_smooth_one_too_low, ["search", "2", "0"], "smooth -87 != quadratic-form oracle -86"),
    (_smooth_one_too_low, ["build"], "smooth -280 != quadratic-form oracle -279"),
    (_model_one_too_low, ["search", "6", "3"], "replay mismatch: model -280, checked square -279"),
    (_reported_square_one_too_low, ["search", "6", "3"], "running total -279 != checked square -280"),
], ids=["smooth-formula", "smooth-search", "smooth-build", "model-search",
        "running-total-search"])
def test_a_failed_cross_check_exits_1_with_one_line(tmp_path, capsys, monkeypatch, mutant, argv,
                                                     message):
    # a program fault, not bad input: reported as a verification failure, without a traceback
    if argv == ["build"]:
        argv = [*argv, *build_files(tmp_path, *E6_CUSP_REPLACED)]
    mutant(monkeypatch)
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (1, "", f"verification failed: {message}\n")


@pytest.mark.parametrize("row", WORKED_EXAMPLES, ids=lambda row: f"E{row.n}#{row.k}-{row.what}")
def test_search_running_total_ends_at_the_checked_square(row):
    spec = (reference_decomposition(row.n) if row.fibers is None
            else FibrationSpec(row.n, row.fibers))
    plan = BlowupPlan(row.choices, row.edge_blowups, row.point_blowups)
    square = checked_square(replay_plan(spec, plan, k=row.k))
    totals = cli._running_totals(SimpleNamespace(spec=spec, plan=plan, best_square=square))
    assert int(totals.split()[-1]) == square == row.square
    # a square one off the model's sum is a failed cross-check
    message = f"^running total {square} != checked square {square + 1}$"
    with pytest.raises(AssertionError, match=message):
        cli._running_totals(SimpleNamespace(spec=spec, plan=plan, best_square=square + 1))


@pytest.mark.parametrize("spec, plan, message", [
    (K3_IV, [], "plan must be a JSON object"),
    (K3_IV, {"resolutions": []}, "plan 'resolutions' must be a JSON object"),
    ({"n": 2}, None, "spec has no 'fibers' entry"),
    ([], None, "spec must be a JSON object"),
    ({"n": 2, "fibers": "E8t"}, None, "must be a list of fiber names"),
    (K3_IV, {"resolutions": {"2": "resolve"}, "edge_blowups": -3}, "edge_blowups must be >= 0"),
    (K3_IV, {"resolutions": {"2": "resolve"}, "point_blowups": -1}, "point_blowups must be >= 0"),
    (K3_IV, {"resolutions": {"2": "resolve"}, "edge_blowups": 2.5}, "must be an integer"),
    (K3_IV, {"resolutions": {"2": "resolve", "9": "skip"}}, "index 9 out of range"),
    ({"n": "six", "fibers": ["E8t"]}, None, "spec 'n' must be an integer"),
    (K3_IV, {"resolutions": {"2": "resolve"}, "edge_blowups": [1]}, "must be an integer"),
    (dict(K3_IV, provenance="verified"), None, "unknown provenance 'verified'"),
    ({"n": "1_0", "fibers": ["E8t"] * 12}, None, "spec 'n' must be an integer, got '1_0'"),
    (dict(K3_IV, n="2"), None, "spec 'n' must be an integer, got '2'"),
    (K3_IV, {"resolutions": {"2": "resolve"}, "edge_blowups": " 2 "},
     "plan 'edge_blowups' must be an integer, got ' 2 '"),
    (K3_IV, {"resolutions": {"2": "resolve"}, "point_blowups": "1"},
     "plan 'point_blowups' must be an integer, got '1'"),
    (K3_IV, {"resolutions": {" 2 ": "resolve"}}, "plan resolution index must be an integer"),
    (K3_IV, {"resolutions": {"+2": "resolve"}}, "plan resolution index must be an integer"),
    (K3_IV, {"resolutions": {"2_0": "resolve"}}, "plan resolution index must be an integer"),
    (K3_IV, {"resolutions": {"-1": "skip"}}, "resolution fiber index must be >= 0, got -1"),
    (K3_IV, {"resolutions": {"2": "resolve", "02": "skip"}},
     "plan resolution index 2 is given twice (as '02')"),
    (K3_IV, {"resolutions": {"2": None}}, "plan choice for fiber 2 must be a string, got None"),
    (K3_IV, {"resolutions": {"2": ["resolve"]}},
     "plan choice for fiber 2 must be a string, got ['resolve']"),
    (dict(K3_IV, provenance=None), None, "spec 'provenance' must be a string, got None"),
    (dict(K3_IV, provenance=5), None, "spec 'provenance' must be a string, got 5"),
    (dict(K3_IV, provenance=["paper_verified"]), None,
     "spec 'provenance' must be a string, got ['paper_verified']"),
    # a misspelled key is an error, never a default silently taken
    (K3_IV, {"resolutions": {"2": "resolve"}, "edge_blowup": 2},
     "plan has an unknown key 'edge_blowup' (known: resolutions, edge_blowups, point_blowups)"),
    (K3_IV, {"resolution": {"2": "resolve"}}, "plan has an unknown key 'resolution'"),
    (dict(K3_IV, provnance="paper_verified"), None,
     "spec has an unknown key 'provnance' (known: n, fibers, provenance)"),
    (dict(K3_IV, k=1), None, "spec has an unknown key 'k'"),
])
def test_build_malformed_input_exits_2_with_one_line(tmp_path, capsys, spec, plan, message):
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps(spec))
    argv = ["build", str(spec_file)]
    if plan is not None:
        plan_file = tmp_path / "plan.json"
        plan_file.write_text(json.dumps(plan))
        argv += ["--plan", str(plan_file)]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert message in err
    assert "Traceback" not in err and err.count("\n") == 1


@pytest.mark.parametrize("spec_text, plan_text, message", [
    ('{"n": 2, "n": 6, "fibers": ["E8t", "E8t", "IV"]}', None, "JSON key 'n' is given twice"),
    ('{"n": 2, "fibers": ["E8t", "E8t", "IV"]}', '{"edge_blowups": 1, "edge_blowups": 2}',
     "JSON key 'edge_blowups' is given twice"),
    ('{"n": 2, "fibers": ["E8t", "E8t", "IV"]}', '{"resolutions": {"2": "resolve", "2": "skip"}}',
     "JSON key '2' is given twice"),
    pytest.param("[" * 100000, None, "spec.json: JSON nested too deeply to read",
                 id="deeply-nested-spec"),
    pytest.param('{"n": 2, "fibers": ["E8t", "E8t", "IV"]}', "[" * 100000,
                 "plan.json: JSON nested too deeply to read", id="deeply-nested-plan"),
])
def test_build_repeated_json_key_exits_2_with_one_line(tmp_path, capsys, spec_text, plan_text,
                                                       message):
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(spec_text)
    argv = ["build", str(spec_file)]
    if plan_text is not None:
        plan_file = tmp_path / "plan.json"
        plan_file.write_text(plan_text)
        argv += ["--plan", str(plan_file)]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert message in err
    assert "Traceback" not in err and err.count("\n") == 1


_JUNK = (st.none() | st.booleans() | st.integers(-2, 60) | st.floats()
         | st.sampled_from(["", "2", "use", "E8t "]))
_FILE_VALUES = st.recursive(
    _JUNK, lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=2), children, max_size=3), max_leaves=6)
# valid multisets in any order, so that many files reach the tree builder
_VALID_SPECS = st.sampled_from(
    [(row.n, row.fibers) for row in WORKED_EXAMPLES if row.fibers]
    + [(n, fibration.reference_decomposition(n).fibers) for n in range(2, 8)]
).flatmap(lambda nf: st.permutations(nf[1]).map(lambda fibers: {"n": nf[0], "fibers": fibers}))
_SPECS = _FILE_VALUES | _VALID_SPECS | st.fixed_dictionaries({}, optional={
    "n": st.integers(-1, 40) | _JUNK,
    "fibers": st.lists(st.sampled_from(FIBER_ORDER) | _JUNK, max_size=12) | _JUNK,
    "provenance": st.sampled_from(["paper_verified", "assumed_realizable"]) | _JUNK,
})
_PLANS = st.none() | st.builds(BlowupPlan, edge_blowups=st.integers(0, 3)).map(
    BlowupPlan.to_json_dict) | _FILE_VALUES | st.fixed_dictionaries({}, optional={
    "resolutions": st.dictionaries(st.integers(-1, 12).map(str) | st.text(max_size=2),
                                   st.sampled_from(["use", "resolve", "replace", "skip"]) | _JUNK,
                                   max_size=3) | _JUNK,
    "edge_blowups": st.integers(-1, 60) | _JUNK,
    "point_blowups": st.integers(-1, 60) | _JUNK,
})


@settings(max_examples=150, deadline=None)
@given(spec=_SPECS, plan=_PLANS, as_json=st.booleans())
def test_build_on_any_json_files_exits_0_or_2_with_one_error_line(tmp_path_factory, spec, plan,
                                                                  as_json):
    folder = tmp_path_factory.mktemp("build")
    spec_file = folder / "spec.json"
    spec_file.write_text(json.dumps(spec))
    argv = ["build", str(spec_file)] + ["--json"] * as_json
    if plan is not None:
        plan_file = folder / "plan.json"
        plan_file.write_text(json.dumps(plan))
        argv += ["--plan", str(plan_file)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    if code == 0:
        assert out.getvalue() and err.getvalue() == ""
    else:
        assert code == 2, (code, err.getvalue())
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1


@pytest.mark.parametrize("flags, message", [
    (("--max-n", "1"), "--max-n must be at least 2"),
    (("--max-n", "3", "--max-k", "-1"), "--max-k must be >= 0"),
])
def test_conjecture_empty_grid_exits_2(capsys, flags, message):
    code, out, err = run(capsys, "conjecture", *flags)
    assert code == 2
    assert out == ""
    assert message in err and "Traceback" not in err


@pytest.mark.parametrize("plan, flags", [
    ({"edge_blowups": 1e300}, ("--max-k", "50")),
    ({"edge_blowups": 1000000000}, ()),
])
def test_build_huge_plan_exits_2_quickly(tmp_path, capsys, plan, flags):
    spec_file, plan_file = tmp_path / "spec.json", tmp_path / "plan.json"
    spec_file.write_text(json.dumps({"n": 2, "fibers": ["E8t", "E8t", "E6t", "I0star"]}))
    plan_file.write_text(json.dumps(plan))
    start = time.perf_counter()
    code, out, err = run(capsys, "build", str(spec_file), "--plan", str(plan_file), *flags)
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert "desk-scale guard" in err and err.count("\n") == 1


def test_formula_guard_exits_2_quickly(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "formula", "5000")
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert "desk-scale guard" in err and err.count("\n") == 1
    code, out, _ = run(capsys, "formula", "30")
    assert code == 0 and "s(30) =" in out


_FLIPPED = {"paper_verified": "assumed_realizable", "assumed_realizable": "paper_verified"}


@pytest.mark.parametrize("n, k", [(2, 50), (6, 3)])
def test_build_replays_a_search_plan_at_the_guard(tmp_path, capsys, n, k):
    found_dot, built_dot = tmp_path / "found.dot", tmp_path / "built.dot"
    code, out, _ = run(capsys, "search", str(n), str(k), "--json", "--dot", str(found_dot))
    assert code == 0
    found = json.loads(out)
    # the spec file claims the opposite provenance, which build must ignore
    spec = dict(found["spec"], provenance=_FLIPPED[found["spec"]["provenance"]])
    argv = build_files(tmp_path, spec, found["plan"])
    code, out, _ = run(capsys, "build", *argv, "--json", "--dot", str(built_dot))
    assert code == 0
    built = json.loads(out)
    assert built["smooth"] == built["oracle"] == found["best_square"]
    assert built["blowups_used"] == k
    assert built["provenance"] == found["provenance"]
    assert built["spec"]["provenance"] == found["spec"]["provenance"]
    assert built["graph"]["trace"] == found["trace"]
    assert built_dot.read_bytes() == found_dot.read_bytes()  # boxed blow-up spheres included


_SPECS_UP_TO_4 = [spec for n in (2, 3, 4) for spec in search_module.enumerate_specs(n)]
# the 4 multisets the source builds on, where the plan decides the provenance
_DOCUMENTED_UP_TO_4 = [spec for spec in _SPECS_UP_TO_4 if spec.provenance == "paper_verified"]


@st.composite
def _spec_and_plan(draw):
    """A spec of E(2..4) and a plan that replays: every fiber takes a choice
    its type offers, and edge blow-ups find an edge."""
    spec = draw(st.sampled_from(_DOCUMENTED_UP_TO_4) | st.sampled_from(_SPECS_UP_TO_4))
    choices = [draw(st.sampled_from([o.choice for o in fiber(name).options]))
               for name in spec.fibers]
    bare = all(fiber(name).option(c).fragment is None for name, c in zip(spec.fibers, choices))
    points = draw(st.integers(0, 2))
    edges = draw(st.integers(0, 0 if bare and not points else 3))
    return spec, BlowupPlan(dict(enumerate(choices)), edges, points)


@settings(max_examples=60, deadline=None)
@given(_spec_and_plan())
@example((reference_decomposition(2), BlowupPlan()))  # on the source's pattern
@example((reference_decomposition(2), BlowupPlan({2: "skip"}, 1)))  # off it, same multiset
def test_build_json_is_realize_at_the_plans_own_budget(tmp_path_factory, spec_and_plan):
    spec, plan = spec_and_plan
    k = plan.total_blowups(spec)
    argv = build_files(tmp_path_factory.mktemp("realize"), spec.to_json_dict(), plan.to_json_dict())
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["build", *argv, "--json", "--max-k", str(k)]) == 0
    built = json.loads(out.getvalue())
    result = realize(spec, plan, k)
    assert (built["smooth"], built["blowups_used"], built["provenance"], built["graph"]) == (
        result.best_square, k, result.provenance, result.graph.to_json_dict())
    for budget in (k - 1, k + 1):
        if budget >= 0:
            with pytest.raises(ValidationError,
                               match=f"^plan spends {k} blow-ups, budget is {budget}$"):
                realize(spec, plan, budget)


def test_build_validates_the_spec_once(tmp_path, capsys, monkeypatch):
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps({"n": 6, "fibers": ["E8t"] * 7 + ["II_cusp"]}))
    plan_file = tmp_path / "plan.json"
    plan_file.write_text(json.dumps({"resolutions": {"7": "replace"}}))
    calls = []
    validate = fibration.validate
    for module in (fibration, cli):  # count a handler's own imported reference too
        monkeypatch.setattr(module, "validate", lambda spec: calls.append(spec.n) or validate(spec),
                            raising=False)
    code, out, _ = run(capsys, "build", str(spec_file), "--plan", str(plan_file))
    assert code == 0 and "-269" in out
    assert calls == [6]


@pytest.mark.parametrize(
    "argv",
    [
        ["verify-paper", "--dot", "x.dot"],
        ["verify-paper", "--max-n", "3"],
        ["formula", "2", "--dot", "x.dot"],
        ["formula", "2", "--max-k", "3"],
        ["formula", "2", "--extended-fibers"],
        ["catalog", "--max-n", "3"],
        ["catalog", "--extended-fibers"],
        ["conjecture", "--dot", "x.dot"],
        ["build", "spec.json", "--extended-fibers"],
    ],
)
def test_flags_a_subcommand_does_not_read_exit_2(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "x.dot").exists()


def test_verify_paper_replays_every_worked_example(capsys):
    code, out, _ = run(capsys, "verify-paper", "--json")
    assert code == 0
    passed = [item["name"] for item in json.loads(out)["items"] if item["passed"]]
    for row in WORKED_EXAMPLES:
        label = f"E({row.n})#{row.k} worked example: {row.what} gives {row.square}"
        assert passed.count(label) == 1


def test_search_dot_replays_the_winner_once(tmp_path, capsys, monkeypatch):
    dot_file = tmp_path / "t.dot"
    calls = []
    replay = search_module.replay_plan
    for module in (search_module, cli):
        monkeypatch.setattr(module, "replay_plan",
                            lambda *a, **kw: calls.append(a[0].n) or replay(*a, **kw),
                            raising=False)
    code, _, _ = run(capsys, "search", "6", "3", "--dot", str(dot_file))
    assert code == 0
    assert calls == [6]
    monkeypatch.undo()
    result = search_module.best_sphere(6, 3)
    expected = replay_plan(result.spec, result.plan, k=3).to_dot() + "\n"
    assert dot_file.read_text(encoding="utf-8") == expected


def test_verify_paper_builds_each_reference_tree_once(capsys, monkeypatch):
    calls = []
    square = fibration.construction_square
    for module in (fibration, search_module, verify):
        monkeypatch.setattr(module, "construction_square",
                            lambda n: calls.append(n) or square(n))
    code, out, _ = run(capsys, "verify-paper")
    assert code == 0 and "(20/20)" in out
    # n = 2..20 once each for the closed-form item, plus the guarantees
    assert sorted(set(calls)) == list(range(2, 21))
    assert len(calls) <= 22


def test_verify_paper_searches_each_pair_once(capsys, monkeypatch):
    calls = []
    search = search_module.best_sphere
    monkeypatch.setattr(verify, "best_sphere", lambda n, k: calls.append((n, k)) or search(n, k))
    code, out, _ = run(capsys, "verify-paper")
    assert code == 0 and "(20/20)" in out
    assert sorted(calls) == [(2, 0), (2, 1), (6, 1), (6, 3)]


# -- one parser per process ---------------------------------------------------


def test_main_builds_its_parser_once(capsys, monkeypatch):
    run(capsys, "formula", "3")
    built = []
    init = argparse.ArgumentParser.__init__
    monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                        lambda self, *a, **kw: built.append(kw.get("prog")) or init(self, *a, **kw))
    for argv in (["formula", "3"], ["search", "2", "1", "--json"], ["catalog"]):
        assert run(capsys, *argv)[0] == 0
    with pytest.raises(SystemExit):
        main(["catalog", "--max-n", "3"])
    assert built == []


def test_subcommand_defaults_do_not_leak_between_calls(capsys):
    assert run(capsys, "conjecture", "--json")[0] == 0  # defaults max_n=12, max_k=10
    code, out, _ = run(capsys, "search", "30", "50", "--json")
    assert code == 0 and json.loads(out)["n"] == 30
    assert run(capsys, "formula", "30")[0] == 0
    for argv in (["search", "31", "0"], ["search", "2", "51"], ["formula", "31"]):
        code, _, err = run(capsys, *argv)
        assert code == 2 and "desk-scale guard" in err


def _usage_exit(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


def test_a_usage_error_leaves_the_parser_as_a_first_call_finds_it(capsys):
    cli._build_parser.cache_clear()
    first = run(capsys, "formula", "3", "--json")
    usage = _usage_exit(capsys, ["catalog", "--max-n", "3"])
    assert usage[0] == 2 and "unrecognized arguments: --max-n 3" in usage[2]
    assert run(capsys, "formula", "3", "--json") == first
    cli._build_parser.cache_clear()
    assert _usage_exit(capsys, ["catalog", "--max-n", "3"]) == usage


@pytest.mark.parametrize("argv", [["--help"], ["search", "--help"], ["conjecture", "--help"]])
def test_help_is_the_same_on_a_first_call_and_after_other_commands(capsys, argv):
    cli._build_parser.cache_clear()
    first = _usage_exit(capsys, argv)
    assert first[0] == 0 and first[1].startswith("usage: negsphere")
    for other in (["conjecture", "--max-n", "3", "--max-k", "1"], ["formula", "4", "--json"]):
        run(capsys, *other)
    _usage_exit(capsys, ["formula"])
    assert _usage_exit(capsys, argv) == first
