import random
from fractions import Fraction
from math import comb

import pytest

from bellkit import egf
from bellkit.egf import TruncatedEGF, egf_log, egf_pow
from bellkit.reports import InputError
from bellkit.sequences import SequenceSpec, random_rationals
from bellkit.transforms import TransformParams, egf_apply_poly, forward_transform, q_function

import oracles
from oracles import bell_eval, egf_polyval, egf_product


X = random_rationals(10, seed=8)
Z = TruncatedEGF.from_sequence(X)


def seeded(n, seed, height, zeros=0.0, first_zero=False):
    """n rationals with numerators and denominators up to ``height``, either sign."""
    rng = random.Random(seed)
    values = [
        Fraction(0)
        if rng.random() < zeros
        else Fraction(rng.choice((-1, 1)) * rng.randint(1, height), rng.randint(1, height))
        for _ in range(n)
    ]
    if first_zero:
        values[0] = Fraction(0)
    return SequenceSpec(tuple(values))


#: heights <= 9 and <= 10^6, zero entries (x_1 among them), negative entries
ORACLE_ORDER = 30
ORACLE_SEQUENCES = {
    "small": seeded(ORACLE_ORDER, 1, 9),
    "small-zeros": seeded(ORACLE_ORDER, 2, 9, zeros=0.3, first_zero=True),
    "tall": seeded(ORACLE_ORDER, 3, 10**6),
    "tall-zeros": seeded(ORACLE_ORDER, 4, 10**6, zeros=0.3, first_zero=True),
    "integers": SequenceSpec(tuple(Fraction((-1) ** j * j) for j in range(1, ORACLE_ORDER + 1))),
}
ORACLE_POWERS = [
    0, 1, -1, 2, Fraction(1, 2), Fraction(-5, 2), Fraction(5, 3), Fraction(999983, 1000003)
]
#: the Bell-route comparisons run at this order, on heights <= 9 and <= 10^6
BELL_ROUTE_ORDER = 20
BELL_ROUTE_SEQUENCES = [
    random_rationals(BELL_ROUTE_ORDER, seed=8),
    seeded(BELL_ROUTE_ORDER, 5, 10**6, zeros=0.2),
]


#: the benchmark's order: on heights <= 9, many j share each d_j, so each
#: group sum of the kernels holds several terms
FULL_ORDER = 120
FULL_SEQUENCE = seeded(FULL_ORDER, 6, 9, zeros=0.2, first_zero=True)
FULL_POWERS = [Fraction(-5, 2), Fraction(5, 3), 2, Fraction(999983, 1000003)]
#: heights <= 10^6, at half that order to keep the Fraction oracles quick
TALL_ORDER = 60
TALL_SEQUENCE = seeded(TALL_ORDER, 7, 10**6, zeros=0.2)


def oracle_egf_log(z):
    """log Z from Z (log Z)' = Z', one Fraction operation per term."""
    n_max = z.order
    out = [Fraction(0)] * (n_max + 1)
    for n in range(n_max):
        acc = z.coeffs[n + 1]
        for m in range(1, n + 1):
            acc -= comb(n, m) * z.coeffs[m] * out[n + 1 - m]
        out[n + 1] = acc
    return TruncatedEGF(tuple(out))


def oracle_egf_pow(z, r):
    """Z^r from (Z^r)' Z = r Z' Z^r, one Fraction operation per term."""
    r = Fraction(r)
    n_max = z.order
    out = [Fraction(0)] * (n_max + 1)
    out[0] = Fraction(1)
    for n in range(n_max):
        acc = r * sum(
            (comb(n, m) * z.coeffs[m + 1] * out[n - m] for m in range(n + 1)),
            Fraction(0),
        )
        for m in range(n):
            acc -= comb(n, m) * out[m + 1] * z.coeffs[n - m]
        out[n + 1] = acc
    return TruncatedEGF(tuple(out))


def constant(c, order):
    """The series c + 0 t + ... + 0 t^order."""
    return TruncatedEGF((c,) + (0,) * order)


def check_every_order(kernel, oracle, x):
    """kernel equals oracle on 1 + sum x_n t^n/n! truncated at every order 0..len(x).

    The oracle runs once, at the full order: each of its coefficients reads
    only lower ones, so its prefixes are its values at the lower orders.
    """
    expected = oracle(TruncatedEGF.from_sequence(x)).coeffs
    for n in range(len(x) + 1):
        got = kernel(TruncatedEGF.from_sequence(x.prefix(n)))
        assert got == TruncatedEGF(expected[: n + 1]), f"order {n}"


class TestSeriesArithmetic:
    def test_binomial_convolution_rule(self):
        # oracles.egf_product, the series product the tests compare against
        a = TruncatedEGF((1, 2, 3))
        b = TruncatedEGF((1, Fraction(1, 2), 5))
        product = egf_product(a, b)
        for n in range(3):
            assert product.coeffs[n] == sum(
                comb(n, m) * a.coeffs[m] * b.coeffs[n - m] for m in range(n + 1)
            )

    def test_order_is_min(self):
        a = TruncatedEGF((1, 2, 3, 4))
        b = TruncatedEGF((1, 1))
        assert egf_product(a, b).order == 1

    def test_needs_a_constant_coefficient(self):
        with pytest.raises(InputError, match="a series needs at least the constant coefficient"):
            TruncatedEGF(())

    def test_from_sequence(self):
        assert Z.order == 10
        assert Z.coeffs[0] == 1 and Z.coeffs[1:] == X.values


class TestLog:
    def test_identity_series(self):
        one = constant(1, 5)
        assert egf_log(one).coeffs == (Fraction(0),) * 6

    def test_log_one_plus_t(self):
        z = TruncatedEGF((1, 1, 0, 0))
        # log(1+t) = t - t^2/2 + t^3/3 ... so the EGF coefficients are
        # 0, 1, -1, 2 (n! / n with alternating sign)
        assert egf_log(z).coeffs == (
            Fraction(0),
            Fraction(1),
            Fraction(-1),
            Fraction(2),
        )

    def test_matches_bell_route(self):
        # the package's weighted Bell sum at b = 0, lam = -1, and the oracle's
        orders = range(1, BELL_ROUTE_ORDER + 1)
        for x in BELL_ROUTE_SEQUENCES:
            logs = egf_log(TruncatedEGF.from_sequence(x)).coeffs[1:]
            assert logs == tuple(q_function(n, 0, -1, x) for n in orders)
            assert logs == oracles.log_polynomials(x, BELL_ROUTE_ORDER).values

    @pytest.mark.parametrize("name", ORACLE_SEQUENCES)
    def test_matches_fraction_recurrence_at_every_order(self, name):
        check_every_order(egf_log, oracle_egf_log, ORACLE_SEQUENCES[name])

    def test_matches_fraction_recurrence_at_full_order(self):
        for x in (FULL_SEQUENCE, TALL_SEQUENCE):
            z = TruncatedEGF.from_sequence(x)
            assert egf_log(z) == oracle_egf_log(z)

    def test_requires_unit_constant(self):
        with pytest.raises(ValueError, match="constant coefficient must be 1, got 2$"):
            egf_log(TruncatedEGF((2, 1)))


class TestPow:
    def test_square_matches_multiplication(self):
        assert egf_pow(Z, 2) == egf_product(Z, Z)

    def test_inverse(self):
        inv = egf_pow(Z, -1)
        assert egf_product(inv, Z) == constant(1, 10)

    def test_square_root_roundtrip(self):
        root = egf_pow(Z, Fraction(1, 2))
        assert egf_product(root, root) == Z

    @pytest.mark.parametrize("r", [2, -1, Fraction(1, 2), Fraction(5, 3)])
    def test_matches_bell_route(self, r):
        # r times the package's weighted Bell sum at b = 0, lam = r - 1, and the oracle's
        orders = range(1, BELL_ROUTE_ORDER + 1)
        for x in BELL_ROUTE_SEQUENCES:
            powers = egf_pow(TruncatedEGF.from_sequence(x), r).coeffs[1:]
            assert powers == tuple(r * q_function(n, 0, r - 1, x) for n in orders)
            assert powers == oracles.potential_polynomials(r, x, BELL_ROUTE_ORDER).values

    @pytest.mark.parametrize("name", ORACLE_SEQUENCES)
    @pytest.mark.parametrize("r", ORACLE_POWERS, ids=str)
    def test_matches_fraction_recurrence_at_every_order(self, r, name):
        check_every_order(
            lambda z: egf_pow(z, r), lambda z: oracle_egf_pow(z, r), ORACLE_SEQUENCES[name]
        )

    @pytest.mark.parametrize("r", FULL_POWERS, ids=str)
    def test_matches_fraction_recurrence_at_full_order(self, r):
        z = TruncatedEGF.from_sequence(FULL_SEQUENCE)
        assert egf_pow(z, r) == oracle_egf_pow(z, r)

    def test_matches_fraction_recurrence_on_tall_heights(self):
        z = TruncatedEGF.from_sequence(TALL_SEQUENCE)
        r = Fraction(-5, 2)
        assert egf_pow(z, r) == oracle_egf_pow(z, r)

    def test_requires_unit_constant(self):
        with pytest.raises(ValueError, match="constant coefficient must be 1, got 0$"):
            egf_pow(TruncatedEGF((0, 1)), 2)


class TestGroupDivision:
    """A final scale without one of its factors leaves a group sum that is not
    a multiple of its divisor: the kernels raise ``ArithmeticError``, which
    ``python -O`` keeps, in place of returning a wrong coefficient."""

    #: the only denominator 11 sits at j = 31, so T_31 holds one factor 11
    X = SequenceSpec(seeded(30, 1, 9).values + (Fraction(1, 11),))

    @pytest.fixture(autouse=True)
    def short_scale(self, monkeypatch):
        full = egf._final_scale
        monkeypatch.setattr(egf, "_final_scale", lambda z, q: full(z, q) // 11)

    def test_log_raises(self):
        with pytest.raises(ArithmeticError, match="does not divide"):
            egf_log(TruncatedEGF.from_sequence(self.X))

    @pytest.mark.parametrize("r", [2, Fraction(5, 3)], ids=str)
    def test_pow_raises(self, r):
        with pytest.raises(ArithmeticError, match="does not divide"):
            egf_pow(TruncatedEGF.from_sequence(self.X), r)


class TestExpLogInverse:
    def test_complete_bell_sum_exponentiates_log(self):
        # rebuild Z from its log coefficients through the Bell route
        for seed in (1, 2, 3):
            x = random_rationals(8, seed=seed)
            z = TruncatedEGF.from_sequence(x)
            logz = SequenceSpec(egf_log(z).coeffs[1:])
            rebuilt = [Fraction(1)]
            for n in range(1, 9):
                rebuilt.append(
                    sum(
                        (bell_eval(n, k, logz) for k in range(1, n + 1)),
                        Fraction(0),
                    )
                )
            assert tuple(rebuilt) == z.coeffs


class TestPolyval:
    """``oracles.egf_polyval``, Horner's rule, the reference for ``egf_apply_poly``."""

    def test_quadratic(self):
        coeffs = [Fraction(2), Fraction(-1), Fraction(1, 3)]
        square = egf_product(Z, Z)
        direct = TruncatedEGF(tuple(
            2 * (n == 0) - z + Fraction(1, 3) * s
            for n, (z, s) in enumerate(zip(Z.coeffs, square.coeffs))
        ))
        assert egf_polyval(coeffs, Z) == direct

    def test_empty(self):
        assert egf_polyval([], Z) == constant(0, Z.order)


class TestApplyPoly:
    PARAMS = TransformParams(1, 1)

    def _apply(self, f_coeffs, n_max=6, seed=8):
        """F(Z) from egf_apply_poly, after checking that its Z is 1 + forward(x)."""
        x = random_rationals(n_max, seed=seed)
        z, fz = egf_apply_poly(f_coeffs, self.PARAMS, x)
        assert z == TruncatedEGF.from_sequence(forward_transform(x, self.PARAMS, n_max))
        return z, fz

    def test_identity_polynomial(self):
        z, fz = self._apply([0, 1])
        assert fz == z

    def test_constant_polynomial(self):
        z, fz = self._apply([3])
        assert fz == constant(3, z.order)

    def test_square_matches_series_square(self):
        z, fz = self._apply([0, 0, 1])
        assert fz == egf_product(z, z)

    @pytest.mark.parametrize(
        "coeffs",
        [
            [Fraction(1), Fraction(-2), Fraction(1, 2)],
            [Fraction(0), Fraction(1), Fraction(2), Fraction(-1, 3)],
        ],
    )
    def test_matches_horner(self, coeffs):
        z, fz = self._apply(coeffs)
        assert fz == egf_polyval(coeffs, z)
