import random
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, strategies as st

from bellkit.rationals import binomial_general, falling, rat, rat_str
from bellkit.reports import InputError


small_rationals = st.fractions(
    min_value=-6, max_value=6, max_denominator=8
)


class TestBinomialGeneral:
    def test_integer_case(self):
        assert binomial_general(5, 2) == 10

    @pytest.mark.parametrize("t", [0, 7, -3, Fraction(1, 2), Fraction(-22, 7)])
    def test_empty_product(self, t):
        assert binomial_general(t, 0) == 1

    def test_negative_one_alternates(self):
        assert binomial_general(-1, 3) == -1
        assert all(binomial_general(-1, j) == (-1) ** j for j in range(10))

    def test_half(self):
        # falling factorial by hand: (1/2)(-1/2) / 2!
        assert binomial_general(Fraction(1, 2), 2) == Fraction(-1, 8)

    def test_negative_lower_index_rejected(self):
        with pytest.raises(ValueError):
            binomial_general(3, -1)

    def test_matches_comb_for_integers(self):
        from math import comb

        for t in range(12):
            for j in range(12):
                assert binomial_general(t, j) == comb(t, j)

    @given(t=small_rationals, j=st.integers(min_value=1, max_value=8))
    def test_pascal(self, t, j):
        assert binomial_general(t, j) == binomial_general(t - 1, j) + binomial_general(
            t - 1, j - 1
        )

    @given(t=small_rationals, j=st.integers(min_value=0, max_value=8))
    def test_reflection(self, t, j):
        assert binomial_general(-t, j) == (-1) ** j * binomial_general(t + j - 1, j)

    @given(t=small_rationals, j=st.integers(min_value=0, max_value=8))
    def test_canonical_form(self, t, j):
        value = Fraction(binomial_general(t, j))
        assert value.denominator > 0
        # Fraction guarantees lowest terms; re-normalizing must be a no-op
        assert Fraction(value.numerator, value.denominator) == value


def falling_factorial_binomial(t: Fraction, j: int) -> Fraction:
    """C(t, j) as a Fraction product (t)(t-1)...(t-j+1) / j!; the oracle."""
    value = Fraction(1)
    for i in range(j):
        value *= t - i
    return value / factorial(j)


class TestBinomialGeneralAgainstOracle:
    def test_seeded_rationals(self):
        rng = random.Random(20)
        for _ in range(400):
            t = Fraction(rng.randint(-60, 60), rng.randint(1, 12))
            for j in range(16):
                got = binomial_general(t, j)
                assert got == falling_factorial_binomial(t, j)
                if t.denominator == 1:
                    assert type(got) is int
                    assert binomial_general(t.numerator, j) == got
                else:
                    assert type(got) is Fraction

    def test_falling_is_the_scaled_fraction_product(self):
        # falling(p, j, q) = q^j (p/q)(p/q - 1)...(p/q - j + 1), an int for every sign of p
        rng = random.Random(21)
        for _ in range(400):
            p, q = rng.randint(-60, 60), rng.randint(1, 12)
            for j in range(16):
                got = falling(p, j, q)
                assert type(got) is int
                assert got == falling_factorial_binomial(Fraction(p, q), j) * factorial(j) * q**j


class TestRatParsing:
    @pytest.mark.parametrize(
        "text,value",
        [
            ("3/4", Fraction(3, 4)),
            ("-2/5", Fraction(-2, 5)),
            ("−2/5", Fraction(-2, 5)),  # unicode minus
            ("7", Fraction(7)),
            (" 5/10 ", Fraction(1, 2)),
            ("1.5", Fraction(3, 2)),
        ],
    )
    def test_parse(self, text, value):
        assert rat(text) == value

    def test_rejects_float(self):
        with pytest.raises(ValueError):
            rat(0.5)

    @pytest.mark.parametrize("text", ["1e5000", "-1E-5000", "2.5e5000"])
    def test_rejects_exponent_notation(self, text):
        # Fraction("1e99999999") would build 10**99999999 before returning
        with pytest.raises(InputError, match=f"exponent notation in '{text}'"):
            rat(text)

    def test_rejects_bool(self):
        # bool is an int subclass, so Fraction(True) would silently give 1
        for value in (True, False):
            with pytest.raises(ValueError):
                rat(value)

    @given(q=small_rationals)
    def test_roundtrip(self, q):
        assert rat(rat_str(q)) == q

    def test_str_format(self):
        assert rat_str(Fraction(10, 2)) == "5"
        assert rat_str(Fraction(-3, 9)) == "-1/3"
