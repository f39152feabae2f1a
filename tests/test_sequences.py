"""``SequenceSpec``: integer pairs, the one-pass parser and the kept text.

``SequenceSpec.from_values`` reads a list of canonical ``rat_str`` text in
one pass and any other list with ``rat`` entry by entry.  Each list must
give what ``tests/oracles.py``'s ``rat_reference`` gives entry by entry: the
same values, or the first refused entry's exception type and message.
"""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import bellkit.cli
import bellkit.sequences
from bellkit.cli import load_sequence
from bellkit.egf import TruncatedEGF
from bellkit.reports import InputError
from bellkit.sequences import SequenceSpec, named_sequence, random_rationals
from bellkit.transforms import TransformParams, forward_transform, inverse_transform

from oracles import RAT_ALPHABET, outcome, rat_reference, short_strings

#: canonical rat_str text, as bellkit writes it
CANONICAL = ["1/2", "-3", "0", "17/9", "-5/12", "123456789/1000003", "1"]

#: plain text that is not canonical, the refusals and edge cases included
NON_CANONICAL = [
    "2/4", "007", "-0", "5/1", "1/0", "0/5", "-0/3", "1/-2", "1/07",
    "1" * 5000, "-" + "1" * 5000, "1/" + "1" * 5000,
    " 1", "+2", "1.5", "1e5", "−7/3", "1_0", "١", "1\n", "1\n2", "\n", "", "x/y",
    3, -4, Fraction(2, 6), True, 0.5, None, ["1"],
]


def parsed(items):
    """``outcome`` of ``from_values``, with its values as a tuple of Fractions."""
    return outcome(lambda v: SequenceSpec.from_values(v).values, items)


def reference(items):
    """``outcome`` of ``rat_reference`` entry by entry: the values, or the first refusal."""
    return outcome(lambda v: tuple(rat_reference(item) for item in v), items)


def same_as_reference(items) -> None:
    got, want = parsed(items), reference(items)
    assert got == want, (items, got, want)
    if got[0] == "value":
        assert all(type(v) is Fraction for v in got[2])
        assert SequenceSpec.from_values(items).to_json_obj() == [str(v) for v in got[2]]


class TestConstructor:
    @pytest.mark.parametrize(
        "values, message",
        [
            ((0.5, True, "1/3"), "sequence entry 1 must be an int or Fraction, got 0.5"),
            ((1, True, "1/3"), "sequence entry 2 must be an int or Fraction, got True"),
            ((1, Fraction(1, 2), "1/3"), "sequence entry 3 must be an int or Fraction, got '1/3'"),
        ],
        ids=["float", "bool", "str"],
    )
    def test_refuses_entries_that_are_not_rationals(self, values, message):
        with pytest.raises(InputError) as info:
            SequenceSpec(values)
        assert str(info.value) == message

    def test_holds_lowest_terms_with_a_positive_denominator(self):
        x = SequenceSpec((Fraction(-2, 6), 4, Fraction(0)))
        assert x.numerators == (-1, 4, 0) and x.denominators == (3, 1, 1)
        assert x.values == (Fraction(-1, 3), 4, 0) and x[1] == Fraction(-1, 3)
        assert repr(x) == "SequenceSpec((-1/3, 4, 0))"

    def test_is_immutable(self):
        x = SequenceSpec.from_values(["1/2"])
        with pytest.raises(AttributeError):
            x.numerators = (3,)


class TestOnePassParser:
    @pytest.mark.parametrize("entry", NON_CANONICAL, ids=repr)
    def test_a_non_canonical_entry_among_canonical_text(self, entry):
        for at in (0, 3, len(CANONICAL)):
            same_as_reference(CANONICAL[:at] + [entry] + CANONICAL[at:])

    def test_canonical_lists(self):
        same_as_reference([])
        for items in (CANONICAL, CANONICAL * 20, ["-" + "9" * 4300 + "/7"]):
            same_as_reference(items)
            assert SequenceSpec.from_values(items).text == tuple(items)

    def test_two_refusals_report_the_first(self):
        same_as_reference(["1", "1/0", "x"])
        same_as_reference(["1", "1" * 5000, "1/0"])

    def test_every_short_string(self):
        for text in short_strings(RAT_ALPHABET, 3):
            same_as_reference([text])
            same_as_reference(["1/2", text, "3"])

    @given(st.lists(st.one_of(
        st.text(alphabet=RAT_ALPHABET, max_size=8),
        st.from_regex(r"-?[0-9]{1,12}(/[0-9]{1,12})?", fullmatch=True),
        st.sampled_from(CANONICAL),
    ), max_size=8))
    def test_hypothesis_lists(self, items):
        same_as_reference(items)

    def test_a_canonical_file_calls_rat_zero_times(self, tmp_path, monkeypatch):
        rng = random.Random(7)
        values = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(120)]
        text = [str(v) for v in values]
        f = tmp_path / "x.json"
        f.write_text(json.dumps(text))
        calls, fractions = [], []

        def counted(value):
            calls.append(value)
            return rat_reference(value)

        def built(*args):
            fractions.append(args)
            return Fraction(*args)

        monkeypatch.setattr(bellkit.sequences, "rat", counted)
        monkeypatch.setattr(bellkit.cli, "rat", counted)
        monkeypatch.setattr(bellkit.sequences, "Fraction", built)
        x = load_sequence(str(f))
        # neither loading nor writing the text back builds a Fraction
        assert x.prefix(60).text == tuple(text[:60])
        assert x.prefix(60).to_json_obj() == text[:60] and x.to_json_obj() == text
        assert calls == [] and fractions == []
        monkeypatch.setattr(bellkit.sequences, "Fraction", Fraction)
        assert x.values == tuple(values)
        # a non-canonical entry sends the whole list through rat
        f.write_text(json.dumps([str(v) for v in values[:-1]] + ["2/4"]))
        assert load_sequence(str(f)).values == tuple(values[:-1]) + (Fraction(1, 2),)
        assert len(calls) == 120


def routes():
    """A sequence from each way of making one, with its name."""
    values = (Fraction(-3, 4), 2, Fraction(0), Fraction(5, 7), -1, Fraction(1, 9))
    canonical = SequenceSpec.from_values([str(v) for v in values])
    yield "ints and Fractions", SequenceSpec(values)
    yield "canonical text", canonical
    yield "non-canonical text", SequenceSpec.from_values(["-6/8", "002", "-0", "5/7", "-1/1", 1])
    yield "prefix of canonical text", canonical.prefix(4)
    yield "prefix of values", SequenceSpec(values).prefix(3)
    yield "named", named_sequence("factorials", 6)
    yield "random", random_rationals(6, 3)
    yield "forward transform", forward_transform(canonical, TransformParams(1, 1), 6)
    yield "inverse transform", inverse_transform(canonical, TransformParams(2, 3), 6)
    yield "series tail", SequenceSpec(TruncatedEGF.from_sequence(canonical).coeffs[1:])


@pytest.mark.parametrize("name, x", list(routes()), ids=[name for name, _ in routes()])
def test_json_text_is_str_of_each_value(name, x):
    assert x.to_json_obj() == [str(v) for v in x.values]
    assert repr(x) == f"SequenceSpec(({', '.join(map(str, x.values))}))"


@given(st.lists(st.fractions(max_denominator=10**6), max_size=10))
def test_equality_and_hash_do_not_depend_on_the_route(values):
    made = SequenceSpec(values)
    for read in (SequenceSpec.from_values([str(v) for v in values]),
                 SequenceSpec.from_values([f"{v.numerator * 2}/{v.denominator * 2}" for v in values]),
                 SequenceSpec(tuple(v.numerator if v.denominator == 1 else v for v in values))):
        assert read == made and hash(read) == hash(made)
    if values:
        other = SequenceSpec(values[:-1] + [values[-1] + 1])
        assert other != made
