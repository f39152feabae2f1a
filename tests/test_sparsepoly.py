from fractions import Fraction

import pytest

from bellkit.reports import InputError
from bellkit.sparsepoly import SparsePoly

from oracles import poly_value


class TestConstruction:
    def test_trailing_zeros_canonicalized(self):
        assert SparsePoly({(1, 0, 0): 2}) == SparsePoly({(1,): 2})

    def test_zero_coefficients_dropped(self):
        p = SparsePoly({(1,): 0, (2,): 3})
        assert p.terms == {(2,): 3}

    def test_duplicate_keys_accumulate(self):
        p = SparsePoly({(1, 0): 2, (1,): 3})
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
        lambda: SparsePoly({(): 0.0}),
    ], ids=["float-exponent", "float-coefficient", "negative-exponent-zero-coefficient",
            "float-exponent-later", "bool-exponent", "bool-coefficient", "float-constant"])
    def test_each_term_is_checked_before_zeros_are_dropped(self, make):
        with pytest.raises(InputError):
            make()


class TestEqualityAndHash:
    @pytest.mark.parametrize("flag", [True, False])
    def test_a_bool_is_never_equal(self, flag):
        for poly in (SparsePoly({(): 1}), SparsePoly({}), SparsePoly({(1,): 1})):
            assert not poly == flag and poly != flag


class TestEvaluation:
    """``oracles.poly_value``, which the Bell and vanishing-sum tests read."""

    def test_evaluate(self):
        p = SparsePoly({(1, 0, 1): 4, (0, 2): 3})
        assert poly_value(p, (1, 1, 1)) == 7
        assert poly_value(p, (Fraction(1, 2), 2, 0)) == 12

    def test_needs_enough_values(self):
        with pytest.raises(ValueError):
            poly_value(SparsePoly({(0, 0, 1): 1}), (1, 2))


class TestStructure:
    def test_total_degree(self):
        assert SparsePoly({}).total_degree() == 0
        assert SparsePoly({(): 5}).total_degree() == 0
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
        assert repr(SparsePoly({})) == "0"
        assert repr(SparsePoly({(2,): -1})) == "-x1^2"
