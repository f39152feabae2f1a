import csv
import io
import json
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellkit.cli import build_parser
from bellkit.identities import DEFAULT_ALPHAS, AffineForm, certify_double_sums, grid_vs
from bellkit.output import dumps, json_value, write_reports
from bellkit.reports import GridResult, IdentityReport, PoleError, ReportRun
from bellkit.sequences import SequenceSpec

from oracles import certify_th1_grid, reports_of

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


def _verify_payload(name: str, reports) -> dict:
    """The ``verify`` payload of ``reports``, read into a list, and their summary."""
    grid = reports if isinstance(reports, GridResult) else GridResult(reports)
    reports = list(reports_of(grid.runs()))
    return {"command": "verify", "identity": name, "reports": reports, "summary": grid.summary()}


def _handled(argv: str):
    args = build_parser().parse_args(argv.split())
    return args.handler(args)


def _written(name: str, reports, fmt: str = "json") -> str:
    out = io.StringIO()
    write_reports(name, reports, out, fmt)
    return out.getvalue()


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
    head, body = _handled(argv)
    if not isinstance(head, str):
        assert dumps(head) == _as_reference(head)
        return
    # a verify handler's reports are made as they are written: build them twice
    payload = _verify_payload(*_handled(argv))
    assert _written(head, body) == _as_reference(payload)
    for rep in payload["reports"]:
        assert dumps(rep) == _as_reference(rep)


def test_every_report_of_the_grid_renders_as_json_dumps():
    reports, result = certify_th1_grid(5)
    assert result.skipped_pairs == [] and len(reports) > 1000
    payload = {"reports": reports, "summary": result.summary()}
    assert dumps(payload) == _as_reference(payload)
    for rep in reports:
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


# --- the streamed writer ------------------------------------------------------

#: every v of weighted sum at most 6
GRID_VS = [v for n in range(1, 7) for v in grid_vs(n)]
#: alphas that vanish inside the support of some v, so pairs are skipped
POLE_ALPHAS = (AffineForm(-1, 1), AffineForm(-2, 1, Fraction(-1, 3)), AffineForm(3, -1))
SMALL = st.fractions(min_value=-3, max_value=3, max_denominator=4)
ALPHAS = (
    st.sampled_from(DEFAULT_ALPHAS + POLE_ALPHAS)
    | st.builds(AffineForm, SMALL, SMALL, SMALL)
)


class _Chunks(io.StringIO):
    """A text stream that counts its writes."""

    writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


def _streamed(grid: GridResult) -> tuple[str, int]:
    """The CLI's JSON payload of ``grid`` as written, and the number of writes."""
    out = _Chunks()
    write_reports("t", grid, out, "json")
    return out.getvalue(), out.writes


def _cell(value):
    """A report field's JSON value as its CSV cell."""
    if isinstance(value, dict):
        return ";".join(f"{k}={v}" for k, v in value.items())
    if isinstance(value, list):
        return ";".join(",".join(map(str, triple)) for triple in value)
    return value


def _csv_of(text: str) -> str:
    """The CSV of a JSON ``verify`` payload's reports, read back from the whole text."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(IdentityReport.KEYS)
    for rep in json.loads(text)["reports"]:
        writer.writerow(map(_cell, rep.values()))
    return out.getvalue()


@settings(max_examples=60, deadline=None)
@given(
    vs=st.lists(st.sampled_from(GRID_VS), min_size=1, max_size=3),
    alphas=st.lists(ALPHAS, min_size=1, max_size=3),
    variant=st.sampled_from(["A", "B", "C", "negative-one"]),
    tau=st.none() | SMALL,
)
def test_a_streamed_grid_is_json_dumps_of_the_materialised_payload(vs, alphas, variant, tau):
    try:
        streamed = certify_double_sums(vs, alphas, variant, tau=tau)
    except PoleError:
        return  # an explicit tau at a pole: raised before any report
    payload = _verify_payload("t", certify_double_sums(vs, alphas, variant, tau=tau))
    text, writes = _streamed(streamed)
    assert text == _as_reference(payload)
    assert streamed.summary() == payload["summary"]
    # the envelope, one write per run or lone report, then the summary
    assert writes == 2 + sum(1 for _ in certify_double_sums(vs, alphas, variant, tau=tau).runs())
    # CSV holds the cells of the same reports, one run read back at a time
    assert _written("t", certify_double_sums(vs, alphas, variant, tau=tau), "csv") == _csv_of(text)


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("variant", "ABC")
def test_a_sweep_is_written_from_its_runs(variant, fmt, monkeypatch):
    # the writer reads runs: it makes at most one report object per run
    vs = grid_vs(5)
    runs = sum(1 for _ in certify_double_sums(vs, DEFAULT_ALPHAS, variant).runs())
    made = []
    post_init = IdentityReport.__post_init__
    monkeypatch.setattr(IdentityReport, "__post_init__", lambda rep: made.append(1) or post_init(rep))
    grid = certify_double_sums(vs, DEFAULT_ALPHAS, variant)
    assert write_reports("t", grid, io.StringIO(), fmt) is False
    assert grid.all_passed() and grid.checked > runs > 0
    assert len(made) <= runs


def _run(name, params, taus_and_sides, skipped=()):
    """The ReportRun of ``name`` with ``params(tau)``: (tau, lhs, rhs) at each
    tau, and no left side when lhs is rhs at every tau."""
    sides = [(tau, Fraction(rhs)) for tau, _, rhs in taus_and_sides]
    lhs = [side if lhs is rhs else Fraction(lhs)
           for (_, lhs, rhs), (_, side) in zip(taus_and_sides, sides)]
    exact = all(a is side for a, (_, side) in zip(lhs, sides))
    return ReportRun(name, params, sides, skipped, None if exact else lhs)


def test_runs_render_each_report_by_its_own_values():
    v = (2, 1)
    alpha = AffineForm(1, 1)
    third = Fraction(1, 3)
    runs = [
        # a failing report in the middle of a run, and sides that are one object
        _run("th1a", lambda tau: {"v": v, "alpha": alpha, "tau": tau, "k": 3},
             [(Fraction(i, 2), lhs, rhs)
              for i, (lhs, rhs) in enumerate([(third, third), (1, 2), (5, 5)])],
             skipped=((0, 0, Fraction(1)),)),
        # a failing lone report between two runs, with the next run's param keys
        IdentityReport("lone", {"v": v, "tau": Fraction(5, 2)}, 1, Fraction(3, 2)),
        # a run of one report
        _run("th1b", lambda tau: {"v": v, "tau": tau}, [(Fraction(-7, 3), 0, 0)]),
        # consecutive runs whose fixed values are equal but of different types
        _run("t%s", lambda tau: {"v": (1,), "x": 1, "tau": tau},
             [(Fraction(t), t, t) for t in (1, 2)]),
        _run("t%s", lambda tau: {"v": (Fraction(1),), "x": Fraction(1), "tau": tau},
             [(Fraction(t), t, t) for t in (1, 2)]),
        _run("t%s", lambda tau: {"v": (True,), "x": True, "tau": tau},
             [(Fraction(t), t, t) for t in (1, 2)]),
        # lone reports, written whole
        IdentityReport("100%", {"tau": Fraction(1, 2)}, 1, 1),
        IdentityReport("100%", {"tau": Fraction(1, 2)}, 1, 1),
    ]
    assert runs[0].lhs[0] is runs[0].sides[0][1] and runs[2].lhs is None
    reports = list(reports_of(runs))
    assert not reports[1].passed and runs[0].failed == 1 and not reports[3].passed
    assert reports[:3] == list(runs[0]) and reports[3] is runs[1]
    text, writes = _streamed(GridResult(runs))
    assert text == _as_reference(_verify_payload("t", runs))
    assert writes == 2 + 8 == 2 + len(runs)
    rows = io.StringIO()
    assert write_reports("t", runs, rows, "csv") is True  # reports[1] and [3] failed
    assert rows.getvalue() == _csv_of(text)
    shown = json.loads(text)["reports"]
    assert [r["params"]["v"] for r in shown[5:11:2]] == [[1], ["1"], [True]]
    assert [r["params"]["x"] for r in shown[5:11:2]] == [1, "1", True]
    assert shown[1]["lhs"] == "1" and shown[1]["rhs"] == "2" and shown[1]["pass"] is False
    assert shown[3]["lhs"] == "1" and shown[3]["rhs"] == "3/2" and shown[3]["pass"] is False
    assert shown[3]["params"] == {"v": [2, 1], "tau": "5/2"}
    assert json.loads(text)["summary"]["failed"] == 2


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_a_written_lone_report_is_not_held(fmt):
    # each report's param is its own object: the writer must let go of it
    alive, refs = [], []

    def reports():
        for i in range(50):
            alive.append(sum(ref() is not None for ref in refs))
            x = SequenceSpec([i, 1])
            refs.append(weakref.ref(x))
            yield IdentityReport("t", {"x": x}, i, i)

    assert write_reports("t", reports(), io.StringIO(), fmt) is False
    assert len(alive) == 50 and max(alive) <= 1


def test_an_empty_stream_is_an_empty_list():
    text, writes = _streamed(GridResult(r for r in ()))
    assert text == _as_reference(_verify_payload("t", ()))
    assert json.loads(text)["reports"] == [] and writes == 2
    rows = io.StringIO()
    assert write_reports("t", (), rows, "csv") is False
    assert rows.getvalue() == ",".join(IdentityReport.KEYS) + "\n"
