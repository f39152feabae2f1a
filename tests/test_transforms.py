from fractions import Fraction

import pytest

from bellkit.identities import PoleError
from bellkit.sequences import SequenceSpec, SequenceTooShort, ones, random_rationals
from bellkit.transforms import (
    TransformParams,
    forward_transform,
    inverse_transform,
    inverse_value,
    lambda_identity_check,
    log_polynomials,
    potential_polynomials,
    q_function,
    q_product_check,
    q_recurrence_check,
)


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

    @pytest.mark.parametrize("a, b", [(2, 3), (0, 1)])
    def test_exact_roundtrip_at_sixty(self, a, b):
        # p(60) = 966,467 partitions: out of reach of the definition sum
        params = TransformParams(a, b)
        x = random_rationals(60, seed=60 + a)
        y = forward_transform(x, params, 60)
        assert inverse_transform(y, params, 60).values == x.values

    def test_pole_free_entries_still_invert(self):
        params = TransformParams(1, -2)
        x = random_rationals(5, seed=13)
        y = forward_transform(x, params, 5)
        for n in (1, 3, 4, 5):
            assert inverse_value(y, params, n) == x[n]


class TestBEqualsOneSpecialization:
    """At b = 1 the inverse weights collapse to a single shifted binomial."""

    def _sum(self, seq, a, n, sign=False):
        from math import factorial

        from bellkit.bell import bell_eval
        from bellkit.rationals import binomial_general

        total = Fraction(0)
        for k in range(1, n + 1):
            w = binomial_general(a * n + k, k - 1) * factorial(k - 1)
            if sign:
                w *= (-1) ** k
            total += w * bell_eval(n, k, seq)
        return total

    def test_inverse_weight_collapses(self):
        from math import factorial

        from bellkit.bell import bell_eval
        from bellkit.rationals import binomial_general

        # a = -1 is excluded: a*1 + 1 = 0 makes the inverse prefactor undefined
        for a in (0, 1, 2):
            params = TransformParams(a, 1)
            y = forward_transform(Z, params, 5)
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
                assert direct == inverse_value(y, params, n) == Z[n]

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


class TestLogPotential:
    def test_log_first_three(self):
        L = log_polynomials(Z, 3)
        assert L[1] == Z[1]
        assert L[2] == Z[2] - Z[1] ** 2
        assert L[3] == Z[3] - 3 * Z[1] * Z[2] + 2 * Z[1] ** 3

    def test_potential_r_one_is_identity(self):
        P = potential_polynomials(1, Z, 6)
        assert P.values == Z.values[:6]

    def test_potential_square(self):
        P = potential_polynomials(2, Z, 2)
        assert P[2] == 2 * Z[2] + 2 * Z[1] ** 2

    def test_potential_r_zero(self):
        P = potential_polynomials(0, Z, 5)
        assert all(v == 0 for v in P.values)
