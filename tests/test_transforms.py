import math
import random
import re
from fractions import Fraction
from math import factorial

import pytest

import oracles

from bellkit import transforms
from bellkit.bell import bell_columns
from bellkit.rationals import binomial_general
from bellkit.reports import InputError, PoleError
from bellkit.sequences import SequenceSpec, SequenceTooShort, ones, random_rationals
from bellkit.transforms import (
    TransformParams,
    _inverse_entry,
    egf_apply_poly,
    forward_transform,
    inverse_transform,
    lambda_identity_check,
    q_function,
    q_product_check,
    q_recurrence_check,
)

from oracles import bell_eval


Z = random_rationals(10, seed=42)


class TestQFunction:
    @pytest.mark.parametrize("b", [-2, 0, 1, 3])
    @pytest.mark.parametrize("lam", [0, -1, Fraction(5, 7)])
    def test_first_entry(self, b, lam):
        assert q_function(1, b, lam, Z) == Z[1]

    def test_logarithmic_case(self):
        assert q_function(2, 0, -1, Z) == Z[2] - Z[1] ** 2

    def test_shifted_case(self):
        assert q_function(2, 1, 2, Z) == Z[2] + 4 * Z[1] ** 2

    def test_too_short(self):
        with pytest.raises(SequenceTooShort):
            q_function(4, 0, 1, ones(2))


class TestQRecurrence:
    def test_lambda_zero_collapses(self):
        rep = q_recurrence_check(2, 0, Z)
        assert rep.passed and rep.lhs == Z[2]

    @pytest.mark.parametrize("lam", [0, 1, 2, 5])
    def test_n_one(self, lam):
        rep = q_recurrence_check(1, lam, Z)
        assert rep.passed and rep.lhs == Z[1]

    def test_generic(self):
        assert q_recurrence_check(3, 2, Z).passed
        assert q_recurrence_check(5, 3, Z).passed

    def test_rejects_non_natural(self):
        with pytest.raises(ValueError):
            q_recurrence_check(3, -1, Z)

    @pytest.mark.parametrize("n", [0, -1])
    def test_rejects_n_below_one(self, n):
        with pytest.raises(ValueError, match=f"^n must be positive, got {n}$"):
            q_recurrence_check(n, 2, Z)

    @pytest.mark.parametrize("lam", ["2", True, 2.0])
    def test_rejects_lambda_of_another_type(self, lam):
        # the type is checked before the sign: "2" < 0 would raise TypeError,
        # and True < 0 would let a bool through as 1
        with pytest.raises(InputError, match="^lam must be a nonnegative integer, got "):
            q_recurrence_check(3, lam, Z)


class TestQProduct:
    def test_order_one_squares(self):
        rep = q_product_check(1, 1, 2, -1, Fraction(1, 3), Fraction(5), Z)
        assert rep.passed and rep.lhs == Z[1] ** 2

    def test_mixed_orders(self):
        assert q_product_check(1, 2, 0, 0, 1, 1, Z).passed

    def test_generic_rational(self):
        rep = q_product_check(
            2, 2, 1, -1, Fraction(3, 7), Fraction(-2, 5), Z
        )
        assert rep.passed

    def test_pole(self):
        # lam2 + b2*l + 1 = 0 at l = 1
        with pytest.raises(PoleError):
            q_product_check(2, 2, 0, 1, 0, -2, Z)

    @pytest.mark.parametrize(
        "lam1, lam2, message, where",
        [
            # l = 1 is checked before any k - l, and every k - l before l = 2
            (-3, -2, "lam2 + 1*1 + 1 = 0", ("l", 1)),
            (-3, -4, "lam1 + 1*2 + 1 = 0", ("k-l", 2)),
            (-5, -4, "lam2 + 1*3 + 1 = 0", ("l", 3)),
        ],
    )
    def test_first_pole_in_term_order(self, lam1, lam2, message, where):
        with pytest.raises(PoleError, match=rf"^{re.escape(message)}$") as err:
            q_product_check(3, 3, 1, 1, lam1, lam2, Z)
        assert err.value.where == where


class TestForward:
    def test_first_entry_unchanged(self):
        for a, b in [(0, 1), (1, 1), (2, 3), (-1, 2), (0, 0)]:
            y = forward_transform(Z, TransformParams(a, b), 6)
            assert y[1] == Z[1]

    def test_hand_second_entry(self):
        y = forward_transform(Z, TransformParams(1, 1), 2)
        assert y[2] == Z[2] + 4 * Z[1] ** 2

    def test_zero_a_matches_plain_weighted_sum(self):
        y = forward_transform(Z, TransformParams(0, 1), 6)
        for n in range(1, 7):
            assert y[n] == q_function(n, 1, 0, Z)

    def test_zero_zero_is_identity(self):
        y = forward_transform(Z, TransformParams(0, 0), 8)
        assert y.values == Z.values[:8]


class TestInverse:
    def test_first_entry(self):
        x = inverse_transform(Z, TransformParams(1, 1), 1)
        assert x[1] == Z[1]

    def test_hand_second_entry(self):
        y = forward_transform(Z, TransformParams(1, 1), 2)
        x = inverse_transform(y, TransformParams(1, 1), 2)
        assert x[2] == y[2] - 4 * y[1] ** 2 == Z[2]

    def test_roundtrip_both_directions(self):
        params = TransformParams(2, 3)
        x = random_rationals(8, seed=77)
        y = forward_transform(x, params, 8)
        assert inverse_transform(y, params, 8).values == x.values
        x2 = inverse_transform(Z.prefix(8), params, 8)
        assert forward_transform(x2, params, 8).values == Z.values[:8]

    def test_rejects_zero_zero(self):
        with pytest.raises(ValueError):
            inverse_transform(Z, TransformParams(0, 0), 3)

    def test_pole_names_offending_entry(self):
        with pytest.raises(PoleError) as err:
            inverse_transform(Z, TransformParams(1, -2), 4)
        assert "n = 2" in str(err.value)

    @pytest.mark.parametrize(
        "a, b, height",
        [pytest.param(2, 3, 9, id="2-3"), pytest.param(0, 1, 9, id="0-1")]
        + [
            pytest.param(a, b, 10**6, id=f"{a}-{b}-1e6")
            for a, b in [(0, 1), (1, 1), (2, 3), (1, 0)]
        ],
    )
    def test_exact_roundtrip_at_sixty(self, a, b, height):
        # p(60) = 966,467 partitions: out of reach of the definition sum
        params = TransformParams(a, b)
        if height == 9:
            x = random_rationals(60, seed=60 + a)
        else:  # numerators up to 9 over denominators up to 10^6
            rng = random.Random(60 + a + b)
            x = SequenceSpec(
                tuple(Fraction(rng.randint(-9, 9), rng.randint(1, height)) for _ in range(60))
            )
        y = forward_transform(x, params, 60)
        assert inverse_transform(y, params, 60).values == x.values

    def test_pole_free_entries_still_invert(self):
        params = TransformParams(1, -2)
        x = random_rationals(5, seed=13)
        y = forward_transform(x, params, 5)
        table_y = bell_columns(y, 5)
        for n in (1, 3, 4, 5):
            assert _inverse_entry(params, n, table_y) == x[n]


class TestFirstUnitVector:
    """At e1 = (1, 0, 0, ...), B(n, k) is 1 at k = n and 0 otherwise, so the
    forward transform is y_n = C((a+b)n, n-1) (n-1)!, a scaled Fuss-Catalan
    number: a check of the weights at large n, not of the kernel's sums."""

    PAIRS = [(2, 3), (0, 1), (-1, 2), (1, 0)]

    @staticmethod
    def closed_form(a, b, n_max):
        return tuple(
            Fraction(math.comb((a + b) * n, n - 1) * factorial(n - 1))
            for n in range(1, n_max + 1)
        )

    @pytest.mark.parametrize("a, b", PAIRS)
    def test_forward_to_two_hundred(self, a, b):
        e1 = SequenceSpec([1] + [0] * 199)
        y = forward_transform(e1, TransformParams(a, b), 200)
        assert y.values == self.closed_form(a, b, 200)

    @pytest.mark.parametrize("a, b", [pair for pair in PAIRS if pair != (-1, 2)])
    def test_inverse_gives_e1_back_to_one_hundred(self, a, b):
        # (a, b) = (-1, 2) has its pole a*n + b = 0 at n = 2
        y = SequenceSpec(self.closed_form(a, b, 100))
        assert inverse_transform(y, TransformParams(a, b), 100).values == (1,) + (0,) * 99


class TestBEqualsOneSpecialization:
    """At b = 1 the inverse weights collapse to a single shifted binomial."""

    def _sum(self, seq, a, n, sign=False):
        total = Fraction(0)
        for k in range(1, n + 1):
            w = binomial_general(a * n + k, k - 1) * factorial(k - 1)
            if sign:
                w *= (-1) ** k
            total += w * bell_eval(n, k, seq)
        return total

    def test_inverse_weight_collapses(self):
        # a = -1 is excluded: a*1 + 1 = 0 makes the inverse prefactor undefined
        for a in (0, 1, 2):
            params = TransformParams(a, 1)
            y = forward_transform(Z, params, 5)
            x = inverse_transform(y, params, 5)
            for n in range(1, 6):
                direct = sum(
                    (
                        binomial_general(-a * n - 2, k - 1)
                        * factorial(k - 1)
                        * bell_eval(n, k, y)
                        for k in range(1, n + 1)
                    ),
                    Fraction(0),
                )
                assert direct == x[n] == Z[n]

    def test_symmetric_relation_under_negation(self):
        # applying the sign-alternating form twice returns the input
        for a in (0, 1, 2):
            for n_max in (4, 5):
                y_sym = SequenceSpec(
                    tuple(self._sum(Z, a, n, sign=True) for n in range(1, n_max + 1))
                )
                back = tuple(
                    self._sum(y_sym, a, n, sign=True) for n in range(1, n_max + 1)
                )
                assert back == Z.values[:n_max]


class TestLambdaIdentity:
    def test_base_case(self):
        rep = lambda_identity_check(Z, TransformParams(1, 1), 1, Fraction(9, 4))
        assert rep.passed and rep.lhs == Z[1]

    @pytest.mark.parametrize("k0", [1, 2, 3])
    def test_k0_variants(self, k0):
        rep = lambda_identity_check(
            Z, TransformParams(1, 1), 4, Fraction(5, 2), k0
        )
        assert rep.passed

    def test_composition_consistency(self):
        # the identity in its packaged form: the b=0 weighted sum of the
        # transformed sequence equals the shifted weighted sum of the source
        for a, b in [(0, 1), (1, 1), (2, 3), (-1, 2), (1, 0)]:
            params = TransformParams(a, b)
            y = forward_transform(Z, params, 5)
            for n in range(1, 6):
                for lam in (Fraction(0), Fraction(1), Fraction(-3, 2)):
                    assert q_function(n, 0, lam, y) == q_function(
                        n, b, lam + a * n, Z
                    )

    def test_rejects_bad_k0(self):
        with pytest.raises(ValueError):
            lambda_identity_check(Z, TransformParams(1, 1), 3, 1, 0)

    @pytest.mark.parametrize("n", [0, -1])
    def test_rejects_n_below_one(self, n):
        # n = 0 used to certify an empty sum
        with pytest.raises(ValueError, match=f"^n must be positive, got {n}$"):
            lambda_identity_check(Z, TransformParams(1, 1), n, 2)


class TestLogPotential:
    """The logarithmic and potential polynomials by the package's route:
    q_function at b = 0 and lam = -1, and r times q_function at lam = r - 1."""

    def test_log_first_three(self):
        L = [q_function(n, 0, -1, Z) for n in (1, 2, 3)]
        assert L[0] == Z[1]
        assert L[1] == Z[2] - Z[1] ** 2
        assert L[2] == Z[3] - 3 * Z[1] * Z[2] + 2 * Z[1] ** 3

    def test_potential_r_one_is_identity(self):
        assert tuple(q_function(n, 0, 0, Z) for n in range(1, 7)) == Z.values[:6]

    def test_potential_square(self):
        assert 2 * q_function(2, 0, 1, Z) == 2 * Z[2] + 2 * Z[1] ** 2


class TestNegativeLengths:
    def test_prefix_and_require_refuse_negative(self):
        # a negative length used to slice off the tail: values[:-1]
        with pytest.raises(ValueError, match="nonnegative"):
            Z.prefix(-1)
        with pytest.raises(ValueError, match="nonnegative"):
            Z.require(-1)
        assert Z.prefix(0).values == ()

    @pytest.mark.parametrize("transform", [forward_transform, inverse_transform])
    def test_transforms_refuse_negative_n_max(self, transform):
        with pytest.raises(ValueError, match="nonnegative"):
            transform(Z, TransformParams(1, 1), -1)


class TestParams:
    @pytest.mark.parametrize("a, b", [
        (Fraction(1, 2), 1), (1.5, 1), (True, 1), (1, Fraction(2)), (1, 2.0), (0, False),
    ])
    def test_refuses_non_int_parameters(self, a, b):
        # a = 1/2 used to give a forward transform and a TypeError on inversion
        with pytest.raises(InputError, match="must be an int"):
            TransformParams(a, b)


PARAMS = TransformParams(1, 1)

#: (argument name, call taking its value) for each integer argument of the
#: public functions of ``transforms``
INT_ARGUMENTS = [
    ("n", lambda v: q_function(v, 1, 1, Z)),
    ("b", lambda v: q_function(3, v, 1, Z)),
    ("n", lambda v: q_recurrence_check(v, 1, Z)),
    ("n1", lambda v: q_product_check(v, 2, 1, 1, 1, 1, Z)),
    ("n2", lambda v: q_product_check(2, v, 1, 1, 1, 1, Z)),
    ("b1", lambda v: q_product_check(2, 2, v, 1, 1, 1, Z)),
    ("b2", lambda v: q_product_check(2, 2, 1, v, 1, 1, Z)),
    ("n_max", lambda v: forward_transform(Z, PARAMS, v)),
    ("n_max", lambda v: inverse_transform(Z, PARAMS, v)),
    ("n", lambda v: lambda_identity_check(Z, PARAMS, v, 1)),
    ("k0", lambda v: lambda_identity_check(Z, PARAMS, 3, 1, v)),
]


class TestIntegerArguments:
    @pytest.mark.parametrize("value", [Fraction(2), Fraction(1, 2), 2.0, True])
    @pytest.mark.parametrize("name, call", INT_ARGUMENTS)
    def test_refuses_non_int(self, name, call, value):
        # True used to run as 1, and 2.0 or 1/2 to end in a TypeError
        with pytest.raises(InputError, match=re.escape(f"{name} must be an int, got {value!r}")):
            call(value)


class TestOneBellTablePerSequence:
    @pytest.mark.parametrize("call, tables", [
        (lambda: q_function(5, 1, 2, Z), [5]),
        (lambda: q_recurrence_check(5, 2, Z), [5]),
        (lambda: q_product_check(3, 5, 1, 2, 1, 2, Z), [5]),
        (lambda: forward_transform(Z, PARAMS, 6), [6]),
        (lambda: inverse_transform(Z, PARAMS, 6), [6]),
        (lambda: lambda_identity_check(Z, PARAMS, 5, 2), [5, 5]),  # one for x, one for y
        (lambda: egf_apply_poly([1, 2, 3], PARAMS, Z.prefix(6)), [6]),
    ])
    def test_bell_table_count(self, monkeypatch, call, tables):
        calls = []

        def counted(x, n_max):
            calls.append(n_max)
            return bell_columns(x, n_max)

        monkeypatch.setattr(transforms, "bell_columns", counted)
        call()
        assert calls == tables


def _seq(length, seed, height, zeros=()):
    rng = random.Random(seed)
    values = [Fraction(rng.randint(-height, height), rng.randint(1, height)) for _ in range(length)]
    for j in zeros:
        values[j] = Fraction(0)
    return SequenceSpec(tuple(values))


#: heights <= 9 and <= 10^6, zero entries, an all-zero prefix, and one
#: sequence too short for n_max = 12
ORACLE_SEQUENCES = (
    _seq(12, 1, 9),
    _seq(12, 2, 10**6),
    _seq(12, 3, 9, zeros=(1, 4, 5, 9)),
    _seq(12, 4, 10**6, zeros=range(4)),
    _seq(7, 5, 10**6),
)

#: rationals with denominators up to 12
ORACLE_LAMBDAS = (0, -1, 4, Fraction(7, 12), Fraction(-5, 11), Fraction(3, 8), Fraction(-13, 6))


def outcome(fn, *args):
    """The value of fn(*args), or the type, message and pole of the error it raises."""
    try:
        value = fn(*args)
    except ValueError as exc:
        return type(exc), str(exc), getattr(exc, "where", None)
    return getattr(value, "values", value)


class TestAgainstFractionOracle:
    """The integer sums over one denominator equal the Fraction loops of
    ``tests/oracles.py`` exactly, errors included."""

    @pytest.mark.parametrize("a", range(-3, 4))
    @pytest.mark.parametrize("b", range(-3, 4))
    def test_transform_pair(self, a, b):
        params = TransformParams(a, b)
        for x in ORACLE_SEQUENCES:
            for n_max in (0, 1, 2, 3, 7, 12):
                assert outcome(forward_transform, x, params, n_max) == outcome(
                    oracles.forward_transform, x, a, b, n_max
                )
                assert outcome(inverse_transform, x, params, n_max) == outcome(
                    oracles.inverse_transform, x, a, b, n_max
                )

    @pytest.mark.parametrize(
        "n_max, height, pairs",
        [
            (26, 9, ((0, 1), (1, 1), (2, 3), (1, 0), (-2, 3))),
            (26, 10**6, ((0, 1), (2, 3), (-1, -2))),
            (60, 9, ((2, 3), (0, -1))),
        ],
    )
    def test_transform_pair_spot_checks(self, n_max, height, pairs):
        x = _seq(n_max, n_max + height, height, zeros=(2, 7))
        for a, b in pairs:
            params = TransformParams(a, b)
            y = forward_transform(x, params, n_max)
            assert y.values == oracles.forward_transform(x, a, b, n_max).values
            assert outcome(inverse_transform, y, params, n_max) == outcome(
                oracles.inverse_transform, y, a, b, n_max
            )

    @pytest.mark.parametrize("b", range(-3, 4))
    def test_q_function(self, b):
        for x in ORACLE_SEQUENCES[::2] + ORACLE_SEQUENCES[-1:]:
            for n in (0, 1, 2, 5, 8, 12):
                for lam in ORACLE_LAMBDAS:
                    assert outcome(q_function, n, b, lam, x) == outcome(
                        oracles.q_function, n, b, lam, x
                    )

    @pytest.mark.parametrize("k0", [1, 2, 3])
    @pytest.mark.parametrize("a, b", [(0, 1), (1, 1), (2, 3), (-1, 2), (3, -3), (0, 0)])
    def test_lambda_identity(self, k0, a, b):
        params = TransformParams(a, b)
        for x in ORACLE_SEQUENCES[1:4]:
            for n in (1, 2, 3, 6, 12):
                for lam in ORACLE_LAMBDAS[2:6]:
                    rep = lambda_identity_check(x, params, n, lam, k0)
                    assert rep.passed
                    assert (rep.lhs, rep.rhs) == oracles.lambda_identity_sides(
                        x, a, b, n, lam, k0
                    )
        short = ORACLE_SEQUENCES[-1]
        assert outcome(lambda_identity_check, short, params, 12, 1, k0) == outcome(
            oracles.lambda_identity_sides, short, a, b, 12, 1, k0
        )

    def test_log_and_potential_polynomials(self):
        # the oracles' log and power sums, which the EGF tests read, against
        # the package's route to them
        for x in ORACLE_SEQUENCES:
            for n_max in (1, 5, len(x)):
                orders = range(1, n_max + 1)
                assert oracles.log_polynomials(x, n_max).values == tuple(
                    q_function(n, 0, -1, x) for n in orders
                )
                for r in map(Fraction, ORACLE_LAMBDAS):
                    assert oracles.potential_polynomials(r, x, n_max).values == tuple(
                        r * q_function(n, 0, r - 1, x) for n in orders
                    )
