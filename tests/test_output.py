import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellkit.cli import build_parser
from bellkit.output import dumps, json_value
from bellkit.reports import IdentityReport

from oracles import certify_th1_grid

#: strings heavy in what JSON escapes: quotes, backslashes, control and non-ASCII characters
TEXT = st.text(st.sampled_from('a"\\/\n\t\r\x00\x08\x1f\x7f é€ 😀')) | st.text()

JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | TEXT,
    lambda inner: (
        st.lists(inner, max_size=4)
        | st.lists(inner, max_size=4).map(tuple)
        | st.dictionaries(TEXT, inner, max_size=4)
    ),
    max_leaves=25,
)


@settings(max_examples=200, deadline=None)
@given(JSON)
def test_writer_is_json_dumps_with_indent_two(value):
    assert dumps(value) == json.dumps(value, indent=2)


def test_a_shared_tuple_renders_at_each_depth():
    t = (1, "x", (2, None))
    value = {"a": t, "b": [t, {"c": t}], "d": (t, t)}
    assert dumps(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("value", [1.5, [0.0], {"a": float("nan")}, (1, -0.0)])
def test_floats_are_refused(value):
    with pytest.raises(TypeError):
        dumps(value)


class _Str(str):
    pass


class _Int(int):
    pass


@pytest.mark.parametrize(
    "value", [_Str("a"), [_Int(1)], {"a": type("D", (dict,), {})()}, (type("L", (list,), {})(),),
              {_Str("k"): 1}, type("T", (tuple,), {})()],
)
def test_subclasses_are_refused(value):
    # values are told apart by exact type; json.dumps would accept these
    with pytest.raises(TypeError):
        dumps(value)


@pytest.mark.parametrize("value", [Fraction(1, 2), [Fraction(1)], {"a": (Fraction(3),)}])
def test_fractions_need_the_default(value):
    assert dumps(value) == json.dumps(value, indent=2, default=json_value)


def _as_reference(value):
    """The standard library's text of ``value``, with the writer's converter."""
    return json.dumps(value, indent=2, default=json_value)


def _payload(argv: str) -> dict:
    args = build_parser().parse_args(argv.split())
    return args.handler(args)[0]


@pytest.mark.parametrize(
    "argv",
    [
        "verify bell-conv --n 5 --k 3 --x random --seed 4",
        "verify bell-conv --n 4 --k 2 --alpha 1/2,-1,2 --tau=-7/3 --x factorials",
        "verify vanishing-sum --v 2,1,1",
        "verify hagen-rothe",
        "verify chu-vandermonde",
        "verify general-binomial-demo",
        "verify general-binomial-demo --v 3,1 --counterexample",
        "verify negative-one --n 5 --alpha=-1,1,0",
        "verify th1c --n 4 --alpha=-2,1,-1/3",
        "transform roundtrip --n-max 6 --x random --seed 3 --a 2 --b 3",
        "bell --n 5 --k 2 --symbolic",
    ],
)
def test_cli_payloads_render_as_json_dumps(argv):
    payload = _payload(argv)
    assert dumps(payload) == _as_reference(payload)
    for rep in payload.get("reports", ()):
        assert dumps(rep) == _as_reference(rep)


def test_every_report_of_the_grid_renders_as_json_dumps():
    result = certify_th1_grid(5)
    assert result.skipped_pairs == [] and len(result.reports) > 1000
    payload = {"reports": result.reports, "summary": result.summary()}
    assert dumps(payload) == _as_reference(payload)
    for rep in result.reports:
        assert dumps(rep) == _as_reference(rep)


def test_equal_params_render_by_their_own_type():
    # (1,), (Fraction(1),) and (True,) are equal and hash alike
    reports = [
        IdentityReport("t", {"v": v, "x": v[0]}, 0, 0) for v in [(1,), (Fraction(1),), (True,)]
    ]
    text = dumps({"reports": reports})
    assert text == _as_reference({"reports": reports})
    assert [r["params"]["v"] for r in json.loads(text)["reports"]] == [[1], ["1"], [True]]


def test_csv_and_json_share_the_key_order():
    rep = IdentityReport("t", {"v": (2, 1)}, Fraction(1, 2), Fraction(1, 2))
    assert tuple(json_value(rep)) == IdentityReport.KEYS
    assert tuple(json.loads(dumps(rep))) == IdentityReport.KEYS


def test_an_adjacent_repeated_value_renders_as_json_dumps():
    shared, t = [Fraction(1, 3), {"x": (1, None)}], (None,)
    value = {"a": shared, "b": shared, "c": [shared, shared], "d": None, "e": None, "f": t, "g": t}
    assert dumps(value) == _as_reference(value)


def test_report_sides_become_fractions_and_pass_on_exact_equality():
    rep = IdentityReport("t", {}, 3, Fraction(6, 2))
    assert type(rep.lhs) is Fraction and type(rep.rhs) is Fraction and rep.passed
    assert IdentityReport("t", {}, Fraction(1, 3), Fraction(2, 6)).passed
    assert not IdentityReport("t", {}, Fraction(1, 3), Fraction(10**30 + 1, 3 * 10**30)).passed
    assert not IdentityReport("t", {}, 0, Fraction(-1, 10**30)).passed


def test_a_shared_side_renders_as_both_sides():
    side = Fraction(-7, 3)
    rep = IdentityReport("t", {"tau": side}, side, side)
    assert rep.lhs is rep.rhs is side and rep.passed
    shown = json.loads(dumps(rep))
    assert shown["lhs"] == shown["rhs"] == shown["params"]["tau"] == "-7/3"
    payload = {"reports": [rep, rep]}
    assert dumps(payload) == _as_reference(payload)
