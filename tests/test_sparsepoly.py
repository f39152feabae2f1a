from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from bellkit.reports import InputError
from bellkit.sparsepoly import SparsePoly


def random_poly(draw):
    n_terms = draw(st.integers(min_value=0, max_value=4))
    terms = {}
    for _ in range(n_terms):
        exps = tuple(
            draw(st.integers(min_value=0, max_value=3)) for _ in range(draw(st.integers(1, 3)))
        )
        terms[exps] = terms.get(exps, 0) + draw(
            st.fractions(min_value=-5, max_value=5, max_denominator=6)
        )
    return SparsePoly(terms)


polys = st.composite(random_poly)()


class TestConstruction:
    def test_trailing_zeros_canonicalized(self):
        assert SparsePoly({(1, 0, 0): 2}) == SparsePoly({(1,): 2})

    def test_zero_coefficients_dropped(self):
        p = SparsePoly({(1,): 0, (2,): 3})
        assert len(p) == 1

    def test_duplicate_keys_accumulate(self):
        p = SparsePoly([((1, 0), 2), ((1,), 3)])
        assert p == SparsePoly({(1,): 5})

    def test_rejects_negative_exponents(self):
        with pytest.raises(ValueError):
            SparsePoly({(-1,): 1})

    @pytest.mark.parametrize("make", [
        lambda: SparsePoly.monomial((1.5,)),
        lambda: SparsePoly({(1,): 0.5}),
        lambda: SparsePoly({(-1,): 0}),
        lambda: SparsePoly({(1, 2.0): 1}),
        lambda: SparsePoly({(True,): 1}),
        lambda: SparsePoly.monomial((1,), True),
        lambda: SparsePoly.constant(0.0),
    ], ids=["float-exponent", "float-coefficient", "negative-exponent-zero-coefficient",
            "float-exponent-later", "bool-exponent", "bool-coefficient", "float-constant"])
    def test_each_term_is_checked_before_zeros_are_dropped(self, make):
        with pytest.raises(InputError):
            make()

    def test_variable(self):
        assert SparsePoly.variable(3) == SparsePoly({(0, 0, 1): 1})


class TestArithmetic:
    def test_add_sub(self):
        x1, x2 = SparsePoly.variable(1), SparsePoly.variable(2)
        p = 3 * x1 * x2
        assert p - 3 * x1 * x2 == SparsePoly.zero()
        assert (p + 1) - 1 == p

    def test_mul_expands(self):
        x1, x2 = SparsePoly.variable(1), SparsePoly.variable(2)
        assert (x1 + x2) * (x1 - x2) == x1 ** 2 - x2 ** 2

    def test_pow(self):
        x1 = SparsePoly.variable(1)
        assert (x1 + 1) ** 3 == x1 ** 3 + 3 * x1 ** 2 + 3 * x1 + 1

    @given(p=polys, q=polys)
    def test_commutativity(self, p, q):
        assert p + q == q + p
        assert p * q == q * p

    @given(p=polys, q=polys, r=polys)
    def test_associativity_and_distributivity(self, p, q, r):
        assert (p + q) + r == p + (q + r)
        assert p * (q + r) == p * q + p * r


class TestEvaluation:
    def test_evaluate(self):
        p = SparsePoly({(1, 0, 1): 4, (0, 2): 3})
        assert p.evaluate((1, 1, 1)) == 7
        assert p.evaluate((Fraction(1, 2), 2, 0)) == 12

    def test_needs_enough_values(self):
        with pytest.raises(ValueError):
            SparsePoly.variable(3).evaluate((1, 2))

    @given(p=polys, q=polys)
    def test_evaluation_is_ring_homomorphism(self, p, q):
        point = (2, Fraction(-1, 3), 5)
        assert (p + q).evaluate(point) == p.evaluate(point) + q.evaluate(point)
        assert (p * q).evaluate(point) == p.evaluate(point) * q.evaluate(point)


class TestStructure:
    def test_total_degree(self):
        assert SparsePoly.zero().total_degree() == 0
        assert SparsePoly.constant(5).total_degree() == 0
        assert SparsePoly({(1, 2): 1, (4,): 1}).total_degree() == 4

    def test_sorted_terms_graded_lex(self):
        p = SparsePoly({(1, 0, 1): 4, (0, 2): 3, (1,): 1})
        assert [e for e, _ in p.sorted_terms()] == [(1,), (0, 2), (1, 0, 1)]

    def test_json_serialization(self):
        p = SparsePoly({(1, 0, 1): 4, (0, 2): Fraction(1, 2)})
        assert p.to_json_obj() == [
            {"coeff": "1/2", "exps": [0, 2]},
            {"coeff": "4", "exps": [1, 0, 1]},
        ]

    def test_repr(self):
        assert repr(SparsePoly({(1, 1): 3})) == "3*x1*x2"
        assert repr(SparsePoly.zero()) == "0"
        assert repr(SparsePoly({(2,): -1})) == "-x1^2"
