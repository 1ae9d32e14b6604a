"""One integer rule for files and library calls.

Every constructor, JSON reader and entry point that takes a number reads it
by the same rule: an int, or a float that equals an int, is that int; a
bool, a fraction, a string, None or a list is not an integer.  So each call
either raises a ValueError with a one-line message or gives exactly what
the call on the int gives, down to the JSON it writes (2.0 and 2 differ
there).
"""

import dataclasses
import json
import math
from collections.abc import Hashable

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from negsphere.fibration import (
    FibrationSpec,
    ValidationError,
    betti,
    build_tree,
    reference_decomposition,
)
from negsphere.fibers import PlumbingFragment
from negsphere.plumbing import PlumbingGraph, oracle_square
from negsphere.search import (
    BlowupPlan,
    best_sphere,
    check_desk_scale,
    enumerate_specs,
    replay_plan,
)
from negsphere.sl2z import GroupElement

_SCALARS = (
    st.none() | st.booleans() | st.integers(-1, 3) | st.integers(-1, 3).map(float)
    | st.floats(-4, 4).filter(lambda x: x != round(x))
    | st.sampled_from([math.nan, math.inf, -math.inf])
    | st.integers(-1, 3).map(str) | st.sampled_from(["2.0", " 2 ", "1_0", ""])
)
# n and k stay at most 3, so each search and enumeration is quick
_JSON_LIKE = _SCALARS | st.lists(_SCALARS, max_size=2)

_REFERENCE = reference_decomposition(2)  # E8t, E6t, I0star: each takes "use"


def _replayed(plan):
    k = plan.total_blowups(_REFERENCE)
    return [plan.to_json_dict(), replay_plan(_REFERENCE, plan, k).to_json_dict()]


_SITES = {
    "PlumbingGraph weight": lambda v: PlumbingGraph([v, -2], [(0, 1)]).to_json_dict(),
    "PlumbingGraph.from_weights weight":
        lambda v: PlumbingGraph.from_weights([v]).to_json_dict(),
    "oracle_square coloring entry":
        lambda v: oracle_square(PlumbingGraph([-2, -3], [(0, 1)]), [v, -1]),
    "PlumbingFragment attachment":
        lambda v: PlumbingFragment(PlumbingGraph([-2, -2], [(0, 1)]), v).to_json_dict(),
    "GroupElement diagonal": lambda v: GroupElement(v, 0, 0, v).to_lists(),
    "GroupElement corner": lambda v: GroupElement(1, v, 0, 1).to_lists(),
    "GroupElement.from_lists corner":
        lambda v: GroupElement.from_lists([[1, v], [0, 1]]).to_lists(),
    "FibrationSpec n": lambda v: FibrationSpec(v, _REFERENCE.fibers).to_json_dict(),
    "FibrationSpec.from_json_dict n": lambda v: FibrationSpec.from_json_dict(
        {"n": v, "fibers": list(_REFERENCE.fibers)}).to_json_dict(),
    "BlowupPlan edge_blowups": lambda v: _replayed(BlowupPlan(edge_blowups=v)),
    "BlowupPlan point_blowups": lambda v: _replayed(BlowupPlan(point_blowups=v)),
    "BlowupPlan resolution index": lambda v: _replayed(BlowupPlan({v: "use"})),
    "BlowupPlan.from_json_dict edge_blowups":
        lambda v: _replayed(BlowupPlan.from_json_dict({"edge_blowups": v})),
    "BlowupPlan.from_json_dict point_blowups":
        lambda v: _replayed(BlowupPlan.from_json_dict({"point_blowups": v})),
    "replay_plan k":
        lambda v: replay_plan(_REFERENCE, BlowupPlan(edge_blowups=1), k=v).to_json_dict(),
    "build_tree resolution index": lambda v: build_tree(_REFERENCE, {v: "use"})[0].to_json_dict(),
    "reference_decomposition n": lambda v: reference_decomposition(v).to_json_dict(),
    "betti n": lambda v: dataclasses.asdict(betti(v, 1)),
    "betti k": lambda v: dataclasses.asdict(betti(2, v)),
    "enumerate_specs n": lambda v: [spec.to_json_dict() for spec in enumerate_specs(v)],
    "best_sphere n": lambda v: best_sphere(v, 1).to_json_dict(),
    "best_sphere k": lambda v: best_sphere(2, v).to_json_dict(),
    "best_sphere max_n": lambda v: best_sphere(2, 0, max_n=v).to_json_dict(),
    "best_sphere max_k": lambda v: best_sphere(2, 1, max_k=v).to_json_dict(),
    "check_desk_scale n": lambda v: check_desk_scale(v, 0),
    "check_desk_scale k": lambda v: check_desk_scale(2, v),
}
# the value is a dict key there, so it must be hashable
_KEY_SITES = {"BlowupPlan resolution index", "build_tree resolution index"}


def _integer(value):
    """The int a value stands for by the rule, or None (written apart from
    the package's own rule, which this test checks)."""
    if type(value) is int:
        return value
    if type(value) is float and math.isfinite(value) and value == int(value):
        return int(value)
    return None


def _outcome(site, value):
    """("ok", the output's JSON text), or the ValueError's class name and message."""
    try:
        return "ok", json.dumps(_SITES[site](value))
    except ValueError as exc:
        return type(exc).__name__, str(exc)


@settings(max_examples=400, deadline=None)
@given(site=st.sampled_from(sorted(_SITES)), value=_JSON_LIKE)
@example(site="PlumbingGraph weight", value=1.9)
@example(site="PlumbingGraph weight", value="3")
@example(site="PlumbingGraph weight", value=True)
@example(site="oracle_square coloring entry", value=1.0)
@example(site="oracle_square coloring entry", value=True)
@example(site="PlumbingFragment attachment", value=1.5)
@example(site="PlumbingFragment attachment", value=True)
@example(site="PlumbingFragment attachment", value="1")
@example(site="GroupElement diagonal", value=1.0)
@example(site="GroupElement corner", value=0.0)
@example(site="best_sphere k", value=True)
@example(site="FibrationSpec n", value=2.0)
@example(site="betti k", value=1.5)
@example(site="replay_plan k", value=True)
@example(site="best_sphere n", value=2.5)
@example(site="enumerate_specs n", value=2.0)
@example(site="reference_decomposition n", value="x")
@example(site="best_sphere max_n", value="30")
@example(site="build_tree resolution index", value="0")
@example(site="BlowupPlan edge_blowups", value=1.5)
@example(site="BlowupPlan resolution index", value="0")
@example(site="check_desk_scale n", value="3")
@example(site="check_desk_scale k", value=True)
def test_every_entry_point_reads_numbers_by_the_integer_rule(site, value):
    assume(site not in _KEY_SITES or isinstance(value, Hashable))
    kind, text = _outcome(site, value)
    if kind != "ok":
        assert text and "\n" not in text
    as_int = _integer(value)
    if as_int is None:
        assert kind != "ok", f"{site} took {value!r}: {text}"
    else:
        assert (kind, text) == _outcome(site, as_int)


@pytest.mark.parametrize("call, message", [
    (lambda: FibrationSpec(2, (x for x in [["E8t"]])),
     "spec 'fibers' must be a collection of fiber names, got (['E8t'],)"),
    (lambda: best_sphere(2, 1, (x for x in [["IV"]])),
     "allowed must be a collection of fiber names, got (['IV'],)"),
    (lambda: list(enumerate_specs(2, iter([3]))),
     "allowed must be a collection of fiber names, got (3,)"),
], ids=["spec-generator", "best_sphere-generator", "enumerate_specs-iterator"])
def test_a_bad_iterator_is_named_by_what_it_held(call, message):
    # the iterator is spent by the time the message is built, so its repr
    # would hide the bad name
    with pytest.raises(ValidationError) as caught:
        call()
    assert str(caught.value) == message
