import collections
import copy
import functools
import io
import itertools
import json
import random
import re
from fractions import Fraction
from math import comb

import pytest

from bellkit.bell import bell_columns, stirling1_unsigned, stirling2
from bellkit.identities import (
    CONVOLUTION_VARIANTS,
    DEFAULT_ALPHAS,
    AffineForm,
    Th1Plan,
    bell_convolution_plan,
    certify_double_sums,
    check_alpha_constant,
    check_bell_convolution,
    check_general_binomial,
    check_hagen_rothe,
    check_negative_one,
    check_stirling_recurrence,
    check_th1,
    check_vanishing_sum,
    check_zerosum,
    grid_vs,
    tau_samples,
    th1_plan,
    th1a_weight,
    vanishing_sum_monomials,
)
from bellkit import identities
from bellkit.output import dumps, json_value, write_reports
from bellkit.partitions import enumerate_pi, strip_trailing_zeros
from bellkit.rationals import binomial_general, rat, rat_str
from bellkit.reports import GridResult, IdentityReport, InputError, PoleError, ReportRun
from bellkit.sequences import SequenceSpec, factorials, naturals, ones, random_rationals
from bellkit.sparsepoly import SparsePoly

from oracles import (
    bell_eval,
    bell_triangle,
    certify_th1_grid,
    hagen_rothe_reference,
    poly_value,
    reports_of,
    w_coefficient,
)


class TestAffineForm:
    def test_call(self):
        a = AffineForm(5, 2, -1)
        assert a(0, 5) == 0
        assert a(3, 1) == 10

    def test_parse(self):
        assert AffineForm.parse("1,1") == AffineForm(1, 1, 0)
        assert AffineForm.parse("5, 2, -1") == AffineForm(5, 2, -1)
        assert AffineForm.parse("1/2,0,3/4") == AffineForm(
            Fraction(1, 2), 0, Fraction(3, 4)
        )

    def test_describe(self):
        assert AffineForm(1).describe() == "1"
        assert AffineForm(1, 1).describe() == "1 + l"
        assert AffineForm(5, 2, -1).describe() == "5 + 2*l - m"
        assert AffineForm(0, 1, 0).describe() == "l"


class TestVanishingSum:
    def test_one_variable_linear(self):
        rep = check_vanishing_sum((2,), SparsePoly({(1,): 1}))
        assert rep.passed and rep.lhs == 0

    def test_two_variable_sum(self):
        # expand by hand over the 2x2 box:
        # (0,0): +0, (0,1): -C(1,1)*1, (1,0): -C(1,1)*1, (1,1): +C(1,1)C(1,1)*2
        p = SparsePoly({(1,): 1, (0, 1): 1})
        manual = 0 - 1 - 1 + 2
        rep = check_vanishing_sum((1, 1), p)
        assert rep.lhs == manual == 0 and rep.passed

    def test_one_variable_quadratic(self):
        rep = check_vanishing_sum((3,), SparsePoly({(2,): 1}))
        # 0 - 3 + 12 - 9
        assert rep.passed

    def test_degree_bound_enforced(self):
        with pytest.raises(ValueError):
            check_vanishing_sum((2,), SparsePoly({(2,): 1}))

    def test_too_many_variables_rejected(self):
        with pytest.raises(ValueError):
            check_vanishing_sum((3,), SparsePoly({(0, 1): 1}))

    def test_random_low_degree_polys(self):
        import random

        rng = random.Random(5)
        for v in [(3,), (2, 1), (1, 1, 1), (2, 2)]:
            bound = sum(v)
            for _ in range(5):
                terms = {}
                for _ in range(4):
                    deg = rng.randrange(bound)
                    exps = [0] * len(v)
                    for _ in range(deg):
                        exps[rng.randrange(len(v))] += 1
                    terms[tuple(exps)] = Fraction(
                        rng.randint(-5, 5), rng.randint(1, 5)
                    )
                assert check_vanishing_sum(v, SparsePoly(terms)).passed


class TestTh1:
    def test_variant_a_example(self):
        rep = check_th1("A", (2, 1), AffineForm(1, 1), 5)
        assert rep.passed and rep.lhs == rep.rhs == 10

    def test_variant_b_tau_zero(self):
        rep = check_th1("B", (2, 1), AffineForm(1, 1), 0)
        assert rep.passed and rep.rhs == 0

    def test_constant_alpha_tau_k(self):
        for v in [(3,), (1, 1), (0, 2, 1)]:
            k = sum(v)
            rep = check_th1("A", v, AffineForm(1), k)
            assert rep.passed and rep.rhs == 1

    def test_pole_reported(self):
        # alpha = l vanishes at every (0, m) with nonzero weight, m = 0 included
        with pytest.raises(PoleError) as err:
            check_th1("A", (2, 1), AffineForm(0, 1), 5)
        assert err.value.where == (0, 0)

    def test_pole_ignores_zero_weight_points(self):
        # alpha = 5 + 2l - m vanishes at (0, 5) but the weight is zero there
        rep = check_th1("A", (1, 2), AffineForm(5, 2, -1), Fraction(7, 2))
        assert rep.passed

    def test_rejects_bad_variant(self):
        for variant in ("X", "D"):
            message = f"variant must be 'A', 'B' or 'C', got {variant!r}"
            with pytest.raises(InputError, match=re.escape(message)):
                check_th1(variant, (1,), AffineForm(1), 1)

    @pytest.mark.parametrize("v, shown", [((0, 0), "()"), ((1, -1), "(1, -1)")])
    def test_rejects_a_zero_or_negative_v(self, v, shown):
        message = f"v must be nonzero with nonnegative entries, got {shown}"
        with pytest.raises(InputError, match=re.escape(message)):
            th1_plan(v, AffineForm(1))

    def test_b_from_a_by_alpha_reflection(self):
        # replacing alpha by tau - alpha swaps the two summand shapes
        tau = Fraction(13, 3)
        for v in [(2, 1), (0, 2)]:
            for alpha in (AffineForm(1, 1), AffineForm(1, 0, 1)):
                reflected = AffineForm(tau - alpha.c0, -alpha.c1, -alpha.c2)
                a = check_th1("A", v, alpha, tau)
                b = check_th1("B", v, reflected, tau)
                assert a.passed and b.passed and a.lhs == b.lhs


class TestTh1c:
    def test_example(self):
        rep = check_th1("C", (2, 1), AffineForm(1, 1), 7)
        assert rep.passed

    def test_hand_evaluated_two_by_two(self):
        # v=(1): terms (0,0) and (1,1); both sides equal 9/2 at tau=3
        rep = check_th1("C", (1,), AffineForm(1), 3)
        assert rep.passed and rep.lhs == Fraction(9, 2)

    def test_constant_alpha_reduces_to_splitting(self):
        # with constant alpha = r and tau = k the convolution layer carries
        # the same content as the splitting identity
        x = random_rationals(6, seed=3)
        for n, k, r in [(4, 2, 1), (5, 3, 2), (6, 3, 3)]:
            conv = check_bell_convolution("cor33_first", n, k, AffineForm(r), k, x)
            split = check_alpha_constant(n, k, r, x)
            assert conv.passed and split.passed
            assert split.lhs == comb(k, r) * conv.lhs

    def test_tau_pole_reported(self):
        with pytest.raises(PoleError):
            check_th1("C", (2, 1), AffineForm(1, 1), 2)  # alpha(1, m) = 2 = tau


class TestHagenRothe:
    def test_chu_vandermonde_tiny(self):
        rep = check_hagen_rothe("chu_vandermonde", 1, 1, 0, 2)
        assert rep.passed and rep.lhs == 1

    def test_symmetric_hand_case(self):
        rep = check_hagen_rothe("symmetric", 1, 1, 1, 2)
        assert rep.passed and rep.lhs == 3

    def test_asymmetric_z_zero_is_chu(self):
        rep = check_hagen_rothe("asymmetric", 2, 3, 0, 2)
        chu = check_hagen_rothe("chu_vandermonde", 2, 3, 0, 2)
        assert rep.passed and chu.passed
        assert rep.lhs == chu.lhs == 10

    def test_rational_parameters(self):
        rep = check_hagen_rothe(
            "symmetric", Fraction(1, 2), Fraction(3, 4), Fraction(2, 3), 3
        )
        assert rep.passed

    def test_pole(self):
        with pytest.raises(PoleError):
            check_hagen_rothe("symmetric", 0, 1, 1, 2)  # x + 0*z = 0

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            check_hagen_rothe("nope", 1, 1, 1, 1)

    def test_negative_k_refused(self):
        with pytest.raises(InputError, match="k must be nonnegative, got -1$"):
            check_hagen_rothe("asymmetric", 1, 2, 1, -1)

    @pytest.mark.parametrize("k", [Fraction(2), True], ids=["fraction", "bool"])
    def test_k_must_be_an_int(self, k):
        with pytest.raises(InputError, match=re.escape(f"k must be an int, got {k!r}")):
            check_hagen_rothe("asymmetric", 1, 2, 1, k)

    def test_chu_vandermonde_refuses_a_nonzero_z(self):
        with pytest.raises(InputError, match="chu_vandermonde is the z = 0 case, got z = 5"):
            check_hagen_rothe("chu_vandermonde", 1, 2, 5, 2)

    #: small rationals of both signs, so that x + l*z, y + j*z and x + y + k*z vanish
    GRID_VALUES = sorted({Fraction(p, q) for p in range(-3, 4) for q in (1, 2)})

    @staticmethod
    def _outcome(check, *args):
        try:
            return check(*args)
        except PoleError as exc:
            return (str(exc), exc.where)

    def test_matches_the_three_loop_reference_poles_included(self):
        rng = random.Random(2215)
        poles = collections.Counter()
        for _ in range(3000):
            variant = rng.choice(["symmetric", "asymmetric", "chu_vandermonde"])
            x, y, z = (rng.choice(self.GRID_VALUES) for _ in range(3))
            z = 0 if variant == "chu_vandermonde" else z
            k = rng.randrange(6)
            got = self._outcome(check_hagen_rothe, variant, x, y, z, k)
            assert got == self._outcome(hagen_rothe_reference, variant, x, y, z, k)
            if isinstance(got, tuple):
                poles[variant, got[0].split(" + ")[0], got[1] == ("rhs",)] += 1
        # every pole of each variant is reached: x + l*z, y + j*z and the right side
        assert set(poles) == {
            ("symmetric", "x", True), ("symmetric", "x", False),
            ("symmetric", "y", False), ("asymmetric", "x", False),
        }

    def test_the_paper_specialisations(self):
        # with v = (k,), W(m, l; v) is C(k, l) at m = l and 0 elsewhere, so
        # variant A at alpha = x + (k - l)*z and tau = x + y + k*z is the
        # asymmetric sum, th1c there is tau/(x*y) times the symmetric one,
        # and variant A at alpha = x and tau = x + y is Chu-Vandermonde
        compared = 0
        values = self.GRID_VALUES
        for x, y, z, k in itertools.product(values, values, values, range(1, 4)):
            tau, alpha = x + y + k * z, AffineForm(x + k * z, -z)
            pairs = [
                ("asymmetric", 1, functools.partial(check_th1, "A", (k,), alpha, tau)),
                ("symmetric", tau and x * y / tau, functools.partial(check_th1, "C", (k,), alpha, tau)),
            ]
            if z == 0 and x:
                chu = functools.partial(check_th1, "A", (k,), AffineForm(x), x + y)
                pairs.append(("chu_vandermonde", 1, chu))
            for variant, scale, paper in pairs:
                rep, twin = self._outcome(check_hagen_rothe, variant, x, y, z, k), self._outcome(paper)
                if isinstance(rep, tuple) or isinstance(twin, tuple):
                    continue
                assert (rep.lhs, rep.rhs) == (scale * twin.lhs, scale * twin.rhs)
                compared += 1
        assert compared > 5000


class TestNegativeOne:
    def test_double_sum_example(self):
        rep = check_negative_one((2, 1), AffineForm(1, 0, 1))
        assert rep.passed and rep.lhs == 1

    def test_reciprocal_binomial(self):
        # alpha(l, m) = l + 2 with k = 3 means z = 5
        rep = check_negative_one((2, 1), AffineForm(2, 1))
        assert rep.passed
        assert rep.params["z"] == 5
        assert rep.params["reciprocal_lhs"] == Fraction(1, 10)
        assert rep.params["reciprocal_rhs"] == Fraction(1, 10)

    def test_single_entry_vector(self):
        rep = check_negative_one((1,), AffineForm(3, 1, 1))
        assert rep.passed and rep.lhs == 1

    def test_pole(self):
        with pytest.raises(PoleError):
            check_negative_one((2, 1), AffineForm(0, 1))

    def test_is_variant_b_at_tau_minus_one(self):
        # term by term, (-1)^k times variant B's left side at tau = -1:
        # C(a, l) C(a+k-l, k-l) / C(k, l) = C(a+k-l, k), C(-1-a, j) = (-1)^j C(a+j, j)
        rng = random.Random(2605)
        seeded = [AffineForm(*(Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(3)))
                  for _ in range(4)]
        compared = 0
        for alpha in (*DEFAULT_ALPHAS, AffineForm(2, 1), *seeded):
            for n in range(1, 9):
                for v in grid_vs(n):
                    try:
                        rep, twin = check_negative_one(v, alpha), check_th1("B", v, alpha, -1)
                    except PoleError:
                        continue
                    assert rep.lhs == (-1) ** sum(v) * twin.lhs, (v, alpha)
                    compared += 1
        assert compared > 600


class TestGeneralBinomial:
    def test_reproduces_variant_a(self):
        v, alpha, tau = (2, 1), AffineForm(1, 1), Fraction(5)
        rep = check_general_binomial(v, th1a_weight(v, alpha), 1, tau)
        twin = check_th1("A", v, alpha, tau)
        assert rep.passed and rep.lhs == twin.lhs and rep.rhs == twin.rhs

    def test_single_term_tautology(self):
        v = (2, 1)
        n, k = 4, 3

        def p(m, l, tau):
            if l == k and m == n:
                return (-1) ** l * 6 * binomial_general(rat(tau), k)
            return 0

        rep = check_general_binomial(v, p, 1, Fraction(7, 2))
        assert rep.passed

    def test_degree_violation_fails(self):
        v = (2, 1)
        k = 3
        rep = check_general_binomial(v, lambda m, l, t: rat(t) ** k, (-1) ** k, 5)
        assert not rep.passed


class TestBellConvolution:
    def test_first_variant_ones(self):
        rep = check_bell_convolution("cor33_first", 4, 2, AffineForm(1, 1), 3, ones(4))
        assert rep.passed and rep.lhs == 21

    def test_partial_fraction_variant(self):
        x = random_rationals(3, seed=9)
        rep = check_bell_convolution("cor34", 3, 2, AffineForm(1, 1), 5, x)
        assert rep.passed

    def test_diagonal_collapse(self):
        x = random_rationals(3, seed=4)
        tau = Fraction(7, 3)
        rep = check_bell_convolution("cor33_second", 3, 3, AffineForm(1, 0, 1), tau, x)
        assert rep.passed
        assert rep.rhs == binomial_general(tau, 3) * x[1] ** 3

    def test_matches_alpha_constant_reduction(self):
        x = naturals(8)
        for n in range(1, 9):
            for k in range(1, n + 1):
                for r in range(1, k + 1):
                    conv = check_bell_convolution(
                        "cor33_first", n, k, AffineForm(r), k, x
                    )
                    split = check_alpha_constant(n, k, r, x)
                    assert conv.passed and split.passed
                    assert split.lhs == comb(k, r) * conv.lhs

    def test_pole(self):
        with pytest.raises(PoleError):
            check_bell_convolution("cor34", 3, 2, AffineForm(1, 1), 1, ones(3))

    @pytest.mark.parametrize("k", [0, 4])
    def test_plan_needs_k_in_one_to_n(self, k):
        with pytest.raises(InputError, match=f"need 1 <= k <= n, got k={k}, n=3"):
            bell_convolution_plan(3, k, AffineForm(1), ones(3))


class TestAlphaConstant:
    def test_ones_case(self):
        rep = check_alpha_constant(4, 2, 1, ones(4))
        assert rep.passed and rep.lhs == 14

    def test_r_equals_k_boundary(self):
        x = random_rationals(5, seed=21)
        for n in range(2, 6):
            for k in range(1, n + 1):
                rep = check_alpha_constant(n, k, k, x)
                assert rep.passed

    def test_naturals(self):
        rep = check_alpha_constant(6, 3, 2, naturals(6))
        assert rep.passed

    def test_range_violation(self):
        with pytest.raises(ValueError):
            check_alpha_constant(4, 2, 3, ones(4))

    @pytest.mark.parametrize(
        "x",
        [
            random_rationals(7, seed=5),
            random_rationals(7, seed=23),
            SequenceSpec.from_values(["-3/2", 0, "5/7", 0, -4, "1/3", 2]),
        ],
        ids=["seed5", "seed23", "zeros"],
    )
    def test_sides_equal_the_definition_sum(self, x):
        # both sides read Bell convolution weights; bell_eval shares no code with them
        for n in range(1, 8):
            for k in range(1, n + 1):
                value = bell_eval(n, k, x)
                # c(n, k) and S(n, k): the definition sum at x_j = (j-1)! and at x_j = 1
                stirling = {"first": bell_eval(n, k, factorials(7)), "second": bell_eval(n, k, ones(7))}
                for r in range(1, k + 1):
                    rep = check_alpha_constant(n, k, r, x)
                    assert rep.lhs == rep.rhs == comb(k, r) * value
                    for kind, s in stirling.items():
                        assert check_stirling_recurrence(n, k, r, kind).lhs == comb(k, r) * s


class TestZerosum:
    def test_smallest_case(self):
        rep = check_zerosum(2, 1, random_rationals(2, seed=2))
        assert rep.passed and rep.lhs == 0

    def test_ones(self):
        assert check_zerosum(4, 2, ones(4)).passed

    def test_random(self):
        assert check_zerosum(5, 3, random_rationals(3, seed=17)).passed

    def test_range_violation(self):
        with pytest.raises(ValueError):
            check_zerosum(1, 1, ones(1))


class TestStirlingRecurrence:
    def test_second_kind(self):
        rep = check_stirling_recurrence(4, 2, 1, "second")
        assert rep.passed and rep.lhs == 14

    def test_first_kind(self):
        rep = check_stirling_recurrence(4, 2, 1, "first")
        assert rep.passed and rep.lhs == 22

    def test_boundary_r_equals_k(self):
        for kind in ("first", "second"):
            assert check_stirling_recurrence(5, 3, 3, kind).passed

    def test_bad_kind(self):
        with pytest.raises(ValueError):
            check_stirling_recurrence(4, 2, 1, "third")

    def test_indices_out_of_order(self):
        with pytest.raises(InputError, match="need 0 < r <= k <= n, got r=1, k=5, n=4"):
            check_stirling_recurrence(4, 5, 1, "second")

    def test_sides_are_the_stirling_sums(self):
        for kind, s in (("first", stirling1_unsigned), ("second", stirling2)):
            for n in range(1, 9):
                for k in range(1, n + 1):
                    for r in range(1, k + 1):
                        rep = check_stirling_recurrence(n, k, r, kind)
                        assert rep.lhs == comb(k, r) * s(n, k)
                        assert rep.rhs == sum(
                            comb(n, m) * s(m, k - r) * s(n - m, r)
                            for m in range(k - r, n - r + 1)
                        )
                        assert rep.passed


class TestGrid:
    def test_small_grid_clean(self):
        reports, result = certify_th1_grid(4)
        assert result.all_passed()
        assert result.skipped_pairs == []
        # p(1)+...+p(4) = 11 vectors, 5 alphas, 3 variants, 2k+2 taus each
        expected = sum(
            5 * 3 * (2 * sum(v) + 2)
            for n in range(1, 5)
            for k in range(1, n + 1)
            for v in enumerate_pi(n, k, n)
        )
        assert len(reports) == result.checked == expected

    def test_each_variant_samples_as_its_own_sweep(self):
        # C's tau poles must not move A's and B's samples
        reports, _ = certify_th1_grid(5)
        vs = [v for n in range(1, 6) for v in grid_vs(n)]
        for variant in "ABC":
            got = [rep for rep in reports if rep.name == f"th1{variant.lower()}"]
            own = list(reports_of(certify_double_sums(vs, DEFAULT_ALPHAS, variant).runs()))
            assert [(rep.params, rep.skipped_poles) for rep in got] == [
                (rep.params, rep.skipped_poles) for rep in own
            ]
            if variant == "C":
                assert any(rep.skipped_poles for rep in got)
                continue
            pairs = itertools.groupby(got, lambda rep: (rep.params["v"], rep.params["alpha"]))
            for (v, _), run in pairs:
                run = list(run)
                assert [rep.params["tau"] for rep in run] == [
                    Fraction(i, 2) for i in range(2 * sum(v) + 2)
                ]
                assert all(rep.skipped_poles == () for rep in run)

    def test_support_pole_detection(self):
        # the only weighted-sum-7 vector hitting alpha = 5 + 2l - m
        assert th1_plan((0,) * 6 + (1,), AffineForm(5, 2, -1)).pole == (1, 7)
        assert th1_plan((2, 1), AffineForm(5, 2, -1)).pole is None

    def test_tau_samples_avoid_and_record(self):
        # the poles 1 and 3/2 as numerators over d = 2
        taus, skipped = tau_samples(4, {2: (0, 1), 3: (1, 2)}, 2)
        assert taus == [Fraction(0), Fraction(1, 2), Fraction(2), Fraction(5, 2)]
        assert skipped == [(0, 1, Fraction(1)), (1, 2, Fraction(3, 2))]

    def test_tau_samples_skip_only_candidates(self):
        # negative values and denominators other than 1 and 2 are never
        # candidates: over d = 12 the keys are -1, -1/2, 1/3, 5/3, 2, 1/2, 7/4
        first = {
            -12: (0, 0), -6: (0, 1), 4: (1, 1), 20: (1, 2), 24: (2, 2), 6: (1, 3), 21: (2, 3),
        }
        taus, skipped = tau_samples(5, first, 12)
        assert taus == [Fraction(i, 2) for i in (0, 2, 3, 5, 6)]
        assert skipped == [(1, 3, Fraction(1, 2)), (2, 2, Fraction(2))]
        assert all(isinstance(tau, Fraction) for _, _, tau in skipped)
        assert tau_samples(3, {}, 1) == ([Fraction(0), Fraction(1, 2), Fraction(1)], [])
        assert tau_samples(0, {0: (0, 0)}, 1) == ([], [])


def oracle_double_sum(variant, v, alpha, tau=None, triples=None):
    """The double sum term by term over (l, m), W(m, l; v) recomputed at each.

    The reference the merged-term plans are checked against; variant is
    "A", "B", "C" or "negative-one" (which ignores tau).  ``triples``, if
    given, are the (l, m, weight) it sums in place of every (l, m,
    ``w_coefficient(m, l, v)``), so an edited support has a reference too.
    See :func:`_oracle_sum` for what it returns and raises.
    """
    v = strip_trailing_zeros(v)
    k = sum(v)
    n = sum(j * e for j, e in enumerate(v, start=1))
    return _oracle_sum(variant, n, k, _w_triples(v) if triples is None else triples, alpha, tau)


def _w_triples(v):
    """Every (l, m, W(m, l; v)) of the box 0 <= l <= k, l <= m <= n, l-major."""
    k, n = sum(v), sum(j * e for j, e in enumerate(v, start=1))
    return [(l, m, w_coefficient(m, l, v)) for l in range(k + 1) for m in range(l, n + 1)]


def oracle_bell_plan_sum(variant, n, k, h, triples, alpha, tau):
    """The double sum ``variant`` term by term over the (l, m, t) triples of a
    Bell convolution plan, each weight t / h: the reference for an edited
    plan whose row denominator h is not 1."""
    return _oracle_sum(variant, n, k, [(l, m, Fraction(t, h)) for l, m, t in triples], alpha, tau)


def _oracle_sum(variant, n, k, triples, alpha, tau):
    """(lhs, rhs) of the double sum over the (l, m, weight) triples, l-major.

    The right side is C(tau, k) times the weight at l = k (W(n, k; v) = 1,
    or B(n, k) in a Bell convolution), times variant C's prefactor; for
    negative-one it is 1.  Raises the PoleError the checker should raise,
    with the same message: at the first (l, m) of nonzero weight where
    alpha is 0 (or tau, for C, after checking alpha(k, n) and tau =
    alpha(0, 0)).
    """
    a00, akn = alpha(0, 0), alpha(k, n)
    if variant == "C":
        if akn == 0:
            raise PoleError(f"alpha({k},{n}) = 0", where=(k, n))
        if tau == a00:
            raise PoleError(f"tau = alpha(0,0) = {rat_str(tau)}", where=(0, 0))
    lhs = Fraction(0)
    for l, m, w in triples:
        if not w:
            continue
        a = alpha(l, m)
        if a == 0:
            raise PoleError(f"alpha({l},{m}) = 0", where=(l, m))
        if variant == "A":
            term = (
                (akn / a)
                * binomial_general(a, k - l)
                * binomial_general(tau - a, l)
                / comb(k, l)
            )
        elif variant == "B":
            term = (
                (a00 / a)
                * binomial_general(tau - a, k - l)
                * binomial_general(a, l)
                / comb(k, l)
            )
        elif variant == "C":
            if a == tau:
                raise PoleError(f"alpha({l},{m}) = tau = {rat_str(tau)}", where=(l, m))
            term = (
                tau
                * binomial_general(a, k - l)
                * binomial_general(tau - a, l)
                / (a * (tau - a) * comb(k, l))
            )
        else:
            term = (-1) ** l * (a00 / a) * binomial_general(a + k - l, k)
        lhs += term * w
    if variant == "negative-one":
        return lhs, Fraction(1)
    rhs = binomial_general(tau, k) * sum(w for l, _, w in triples if l == k)
    if variant == "C":
        rhs *= (tau - a00 + akn) / (akn * (tau - a00))
    return lhs, rhs


def _vectors_up_to(n_max):
    for n in range(1, n_max + 1):
        for k in range(1, n + 1):
            for v in enumerate_pi(n, k, n):
                yield strip_trailing_zeros(v)


def _pole_at(check, *args):
    """The ``where`` of the PoleError ``check(*args)`` raises, or None."""
    try:
        check(*args)
    except PoleError as err:
        return err.where
    return None


def _outcome(check, *args):
    """(lhs, rhs) of ``check(*args)``, or the message and ``where`` of its PoleError."""
    try:
        result = check(*args)
    except PoleError as err:
        return str(err), err.where
    return result if isinstance(result, tuple) else (result.lhs, result.rhs)


#: alphas vanishing at some contributing (l, m) for some v with n <= 5
POLE_ALPHAS = (AffineForm(-1, 1), AffineForm(-2, 1, Fraction(-1, 3)), AffineForm(3, -1))

#: negative and fractional alphas, one with denominators near 10^6
WIDE_ALPHAS = (
    AffineForm(Fraction(-3, 7), Fraction(1, 2), Fraction(-2, 5)),
    AffineForm(-5, Fraction(-1, 3)),
    AffineForm(Fraction(7, 999983), 1, Fraction(-1, 1000000)),
)

#: taus with denominators up to 10^6
WIDE_TAUS = (
    Fraction(-7, 3), Fraction(999999, 1000000), Fraction(-123457, 999983), Fraction(31, 65536)
)


class TestPlanAgainstOracle:
    def test_every_variant_every_v_up_to_five(self):
        for v in _vectors_up_to(5):
            k = sum(v)
            for alpha in DEFAULT_ALPHAS + POLE_ALPHAS + WIDE_ALPHAS:
                plan = th1_plan(v, alpha)
                assert plan.pole is None or alpha not in DEFAULT_ALPHAS
                checks = {
                    variant: functools.partial(check_th1, variant, plan=plan) for variant in "ABC"
                }
                taus, _ = tau_samples(2 * k + 2, plan.first, plan.d)
                for tau in taus + [*WIDE_TAUS, alpha(0, 0), alpha(1, 1)]:
                    for variant, check in checks.items():
                        assert _outcome(check, v, alpha, tau) == _outcome(
                            oracle_double_sum, variant, v, alpha, tau
                        )
                assert _outcome(
                    functools.partial(check_negative_one, plan=plan), v, alpha
                ) == _outcome(oracle_double_sum, "negative-one", v, alpha)

    def test_merging_is_a_real_regrouping(self):
        # alpha = 1 + l takes one value per l, so each l-column merges to one term
        plan = th1_plan((2, 2), AffineForm(1, 1))
        weights = [w_coefficient(m, l, (2, 2)) for l in range(5) for m in range(l, 7)]
        assert len(plan.merged) == 5 < sum(1 for w in weights if w)
        assert sum(w for _, _, w in plan.merged) == sum(weights)

    def test_pole_witnesses_match_the_oracle(self):
        for v in _vectors_up_to(5):
            for alpha in DEFAULT_ALPHAS + POLE_ALPHAS:
                pole = _pole_at(oracle_double_sum, "negative-one", v, alpha)
                assert th1_plan(v, alpha).pole == pole
                assert _pole_at(check_th1, "A", v, alpha, 5) == pole
                for tau in (Fraction(0), Fraction(1), Fraction(2), Fraction(5, 2)):
                    assert _pole_at(check_th1, "C", v, alpha, tau) == _pole_at(
                        oracle_double_sum, "C", v, alpha, tau
                    )

    def test_explicit_tau_raises_at_poles(self):
        with pytest.raises(PoleError) as err:
            certify_double_sums([(2, 1)], [AffineForm(-1, 1)], "A", tau=Fraction(5))
        assert err.value.where == (1, 1)
        result = certify_double_sums([(2, 1)], [AffineForm(-1, 1)], "A")
        assert list(reports_of(result.runs())) == [] and result.skipped_pairs == [
            ((2, 1), AffineForm(-1, 1), (1, 1))
        ]

    # a tuple or list of variants is refused, not swept
    @pytest.mark.parametrize("variant, tau", [("D", None), ("a", 2), (("A",), None), (["B"], 2)])
    def test_unknown_variant_is_refused_at_the_call(self, variant, tau):
        with pytest.raises(InputError) as err:
            certify_double_sums([(2, 1)], [AffineForm(1)], variant, tau=tau)
        assert str(err.value) == (
            f"unknown variant {variant!r}, expected one of ('A', 'B', 'C', 'negative-one')"
        )


def _oracle_samples(variant, v, alpha):
    """The taus the certifier samples for (v, alpha), and the (l, m, tau) it skips.

    The first 2k+2 of 0, 1/2, 1, ...; for variant C those where the oracle
    raises a pole are skipped and recorded with the oracle's ``where``.
    """
    count, taus, skipped = 2 * sum(v) + 2, [], []
    for i in itertools.count():
        if len(taus) == count:
            return taus, skipped
        tau = Fraction(i, 2)
        where = _pole_at(oracle_double_sum, "C", v, alpha, tau) if variant == "C" else None
        if where is None:
            taus.append(tau)
        else:
            skipped.append((*where, tau))


class TestCertifierAgainstOracle:
    """Every report of ``certify_double_sums`` against the term-by-term oracle."""

    ALPHAS = DEFAULT_ALPHAS + POLE_ALPHAS + WIDE_ALPHAS

    @pytest.mark.parametrize("variant", ["A", "B", "C", "negative-one"])
    def test_every_report_up_to_five(self, variant):
        vs = list(_vectors_up_to(5))
        result = certify_double_sums(vs, self.ALPHAS, variant)
        reports, skipped_pairs = reports_of(result.runs()), []
        for v in vs:
            for alpha in self.ALPHAS:
                pole = _pole_at(oracle_double_sum, "negative-one", v, alpha)
                if pole is not None:
                    skipped_pairs.append((v, alpha, pole))
                    continue
                if variant == "negative-one":
                    rep = next(reports)
                    assert (rep.lhs, rep.rhs) == oracle_double_sum(variant, v, alpha)
                    assert rep.passed and rep.params["v"] == v and rep.params["alpha"] == alpha
                    continue
                taus, skipped = _oracle_samples(variant, v, alpha)
                for tau in taus:
                    rep = next(reports)
                    assert rep.name == f"th1{variant.lower()}" and rep.params["tau"] == tau
                    assert rep.params["v"] == v and rep.params["alpha"] == alpha
                    assert (rep.lhs, rep.rhs) == oracle_double_sum(variant, v, alpha, tau)
                    assert rep.passed and rep.skipped_poles == tuple(skipped)
        assert next(reports, None) is None
        assert result.skipped_pairs == skipped_pairs

    def test_explicit_wide_taus(self):
        # check_th1 meets WIDE_TAUS in TestPlanAgainstOracle
        for v in _vectors_up_to(4):
            for alpha in self.ALPHAS:
                for tau in WIDE_TAUS:
                    for variant in "ABC":
                        assert _outcome(
                            lambda: next(reports_of(
                                certify_double_sums([v], [alpha], variant, tau=tau).runs()
                            ))
                        ) == _outcome(oracle_double_sum, variant, v, alpha, tau)

    def test_a_perturbed_weight_fails_with_both_sides_shown(self):
        # alpha = 1/2 + l takes odd numerators over 2, so no falling factorial
        # of it vanishes and the perturbed term counts in every variant
        v, alpha = (2, 1, 1), AffineForm(Fraction(1, 2), 1)
        plan = th1_plan(v, alpha)
        mutant = copy.copy(plan)
        l, a, w = plan.merged[0]
        mutant.merged = ((l, a, w + 1),) + plan.merged[1:]
        taus, _ = tau_samples(2 * plan.k + 2, plan.first, plan.d)
        checks = {variant: functools.partial(check_th1, variant) for variant in "ABC"}
        for variant, check in checks.items():
            affected = 0
            for tau in taus:
                good = check(v, alpha, tau, plan=plan)
                bad = check(v, alpha, tau, plan=mutant)
                assert good.passed and bad.rhs == good.rhs
                if bad.lhs == good.lhs:  # the perturbed term vanishes at this tau
                    continue
                affected += 1
                shown = json.loads(dumps(bad))
                assert not bad.passed and shown["pass"] is False
                assert shown["lhs"] == rat_str(bad.lhs) != shown["rhs"] == rat_str(good.rhs)
            # the perturbation adds a nonzero function of tau with at most k zeros
            assert affected >= len(taus) - plan.k

    def test_each_plan_variant_derives_its_coefficients_once(self, monkeypatch):
        # one difference per (plan, variant) run, whether it passes or fails:
        # each variant's sweep in turn, plan by plan
        asked = []
        difference = Th1Plan.difference
        monkeypatch.setattr(
            Th1Plan, "difference",
            lambda plan, variant: asked.append(variant) or difference(plan, variant),
        )
        stock = _swept(grid_vs(5), DEFAULT_ALPHAS)
        assert all(rep.passed for rep in reports_of(stock))
        assert asked == _run_variants(stock)
        asked.clear()
        runs = _swept(grid_vs(5), DEFAULT_ALPHAS, tau=Fraction(7, 3))
        assert asked == _run_variants(runs) and len(runs) == len(asked) > 0
        assert all(len(run) == 1 for run in runs)
        for variant in "ABC":
            asked.clear()
            assert check_th1(variant, (2, 1), AffineForm(1, 1), Fraction(7, 3)).passed
            assert asked == [variant]
        # the weight at l = k, W(n, k; v) = 1, doubled: every plan fails, and
        # hands out its reports one by one, each plan's together
        asked.clear()
        support = identities._w_support
        monkeypatch.setattr(identities, "_w_support", lambda v: _top_doubled(support(v)))
        reports = _swept(grid_vs(5), DEFAULT_ALPHAS)
        assert all(type(rep) is IdentityReport for rep in reports)
        plans = [list(group) for _, group in itertools.groupby(
            reports, lambda rep: (rep.name, rep.params["v"], rep.params["alpha"])
        )]
        assert [(plan[0].name, len(plan)) for plan in plans] == [
            (run.name, len(run)) for run in stock
        ]
        assert all(not all(rep.passed for rep in plan) for plan in plans)
        assert asked == _run_variants(stock)

    def test_a_perturbed_copy_fails_after_the_original_was_evaluated(self):
        # the copy must not read anything the original's evaluation left behind
        v, alpha, tau = (2, 1, 1), AffineForm(Fraction(1, 2), 1), Fraction(7, 2)
        plan = th1_plan(v, alpha)
        good = check_th1("A", v, alpha, tau, plan=plan)
        mutant = copy.copy(plan)
        l, a, w = plan.merged[0]
        mutant.merged = ((l, a, w + 1),) + plan.merged[1:]
        bad = check_th1("A", v, alpha, tau, plan=mutant)
        assert good.passed and not bad.passed
        assert bad.rhs == good.rhs and bad.lhs != good.lhs


def _swept(vs, alphas, tau=None):
    """The runs of one sweep per variant A, B and C, in that order."""
    sweeps = [certify_double_sums(vs, alphas, variant, tau=tau) for variant in "ABC"]
    return [run for sweep in sweeps for run in sweep.runs()]


def _run_variants(runs):
    """The variant of each run of th1 reports, in order; each is one ReportRun."""
    assert all(type(run) is ReportRun for run in runs)
    return [run.name[-1].upper() for run in runs]


def _top_doubled(support):
    """A support whose last weight, W(n, k; v) = 1 at (l, m) = (k, n), is 2."""
    l, m, w = support[-1]
    return support[:-1] + ((l, m, 2 * w),)


def _oracle_reports(variant, v, alpha, plan, triples):
    """The reports the sweep should make for (v, alpha, variant): the two
    sides :func:`oracle_double_sum` gives over ``triples`` at each tau the
    sweep samples, with the C poles it skips."""
    first = plan.first if variant == "C" else {}
    taus, skipped = tau_samples(2 * plan.k + 2, first, plan.d)
    reports = []
    for tau in taus:
        params = {"v": v, "alpha": alpha, "tau": tau, "n": plan.n, "k": plan.k}
        sides = oracle_double_sum(variant, v, alpha, tau, triples)
        reports.append(IdentityReport(f"th1{variant.lower()}", params, *sides))
        reports[-1].skipped_poles = tuple(skipped)
    return reports


def _perturbed(v, w_support):
    """(support, triples) with the weight at one (l, m) raised by 1, for each
    (l, m) in turn: the support as ``w_support`` gives it, and the oracle's
    triples from ``w_coefficient``.  The last is the weight at l = k."""
    support = w_support(v)
    for l, m, w in support:
        yield (
            tuple((l2, m2, w2 + ((l2, m2) == (l, m))) for l2, m2, w2 in support),
            [(l2, m2, w2 + ((l2, m2) == (l, m))) for l2, m2, w2 in _w_triples(v)],
        )


class TestCertificate:
    """``Th1Plan.difference``, which gives every report's left side, held
    against the term-by-term oracle on the stock and on perturbed supports."""

    #: 24 rational forms; some vanish on the support, and C samples hit many
    RATIONAL_ALPHAS = tuple(
        AffineForm(c0, c1, c2)
        for c0 in (Fraction(-3, 2), -1, Fraction(-1, 3), Fraction(1, 2), 2, Fraction(7, 3))
        for c1 in (-1, Fraction(1, 2))
        for c2 in (Fraction(-1, 3), 1)
    )

    @pytest.mark.parametrize("variant", "ABC")
    def test_every_report_up_to_seven_is_the_evaluators(self, variant):
        alphas = DEFAULT_ALPHAS + self.RATIONAL_ALPHAS
        vs = list(_vectors_up_to(7))
        result = certify_double_sums(vs, alphas, variant)
        reports, pole_pairs, skipped_taus = reports_of(result.runs()), 0, 0
        for v in vs:
            triples = _w_triples(v)
            for alpha in alphas:
                plan = th1_plan(v, alpha)
                if plan.pole is not None:
                    pole_pairs += 1
                    continue
                assert not any(plan.difference(variant))
                for want in _oracle_reports(variant, v, alpha, plan, triples):
                    rep = next(reports)
                    assert rep.passed and want.passed
                    assert (rep.name, rep.params, rep.lhs, rep.rhs, rep.skipped_poles) == (
                        want.name, want.params, want.lhs, want.rhs, want.skipped_poles
                    )
                    skipped_taus += len(rep.skipped_poles)
        assert next(reports, None) is None and len(result.skipped_pairs) == pole_pairs > 0
        assert (skipped_taus > 0) == (variant == "C")

    @pytest.mark.parametrize("variant", "ABC")
    def test_a_perturbed_weight_never_certifies_and_writes_as_evaluated(
        self, variant, monkeypatch
    ):
        # alpha = 1/2 + l takes odd numerators over 2, so no falling factorial
        # of it vanishes and a perturbed weight changes every variant
        alpha, w_support = AffineForm(Fraction(1, 2), 1), identities._w_support
        for v in _vectors_up_to(4):
            for support, triples in _perturbed(v, w_support):
                monkeypatch.setattr(identities, "_w_support", lambda _, s=support: s)
                plan = th1_plan(v, alpha)
                assert any(plan.difference(variant))
                written, summed = io.StringIO(), io.StringIO()
                write_reports("th1", certify_double_sums([v], [alpha], variant), written, "json")
                expected = _oracle_reports(variant, v, alpha, plan, triples)
                write_reports("th1", expected, summed, "json")
                assert written.getvalue() == summed.getvalue()
                assert json.loads(written.getvalue())["summary"]["failed"] > 0

    @pytest.mark.parametrize("variant", "AB")
    @pytest.mark.parametrize("perturbed", ["top doubled", "a lower weight raised"])
    def test_runs_that_share_right_sides_write_their_own_left_sides(
        self, variant, perturbed, monkeypatch
    ):
        # Three v of k = 3, the middle one with one weight changed.  Every run
        # of A or B at k = 3 with the same weight at l = k shares one list of
        # right sides.  The middle v's failing plans hand out lone reports:
        # the doubled weight at l = k gives them right sides of their own,
        # one at each tau, with left sides that differ by alpha, and a raised
        # weight at (l, m) = (0, 0) leaves them the right sides of the passing
        # runs.  The writer must write each report with its own left side, in
        # JSON and in CSV.
        vs, target = grid_vs(4, 3) + grid_vs(5, 3), (1, 2)
        assert target in vs and vs[1] == target
        support, triples = identities._w_support(target), _w_triples(target)
        if perturbed == "top doubled":
            support, where = _top_doubled(support), (3, 5)
        else:
            support, where = ((0, 0, 2),) + support[1:], (0, 0)
        triples = [(l, m, w * 2 if where == (3, 5) else w + 1) if (l, m) == where else (l, m, w)
                   for l, m, w in triples]
        w_support = identities._w_support
        monkeypatch.setattr(identities, "_w_support",
                            lambda v: support if v == target else w_support(v))
        items = list(certify_double_sums(vs, DEFAULT_ALPHAS, variant).runs())
        runs = [item for item in items if type(item) is ReportRun]
        lone = [item for item in items if type(item) is IdentityReport]
        bad = [rep for rep in lone if not rep.passed]
        assert len(runs) + len(lone) == len(items) and len(bad) > 0
        assert all(rep.params["v"] == target for rep in lone)
        assert all(run.sides is runs[0].sides for run in runs)
        right = dict(runs[0].sides)
        if perturbed == "top doubled":
            # every plan of the middle v fails, and at tau = 1/2 its reports
            # share a right side that is not the runs' and differ in left side
            half = [rep for rep in lone if rep.params["tau"] == Fraction(1, 2)]
            assert len(half) == len(DEFAULT_ALPHAS) and len({rep.rhs for rep in half}) == 1
            assert half[0].rhs != right[Fraction(1, 2)] and len({rep.lhs for rep in half}) > 1
        else:
            # a failing report has the right side of the passing runs
            assert all(rep.rhs == right[rep.params["tau"]] for rep in lone)
        expected = [
            rep
            for v in vs
            for alpha in DEFAULT_ALPHAS
            for rep in _oracle_reports(variant, v, alpha, th1_plan(v, alpha),
                                       triples if v == target else _w_triples(v))
        ]
        summary = GridResult(expected)
        payload = {"command": "verify", "identity": "th1",
                   "reports": list(reports_of(summary.runs())),
                   "summary": summary.summary()}
        oracle = json.dumps(payload, indent=2, default=json_value)
        for fmt in ("json", "csv"):
            written, summed = io.StringIO(), io.StringIO()
            write_reports("th1", certify_double_sums(vs, DEFAULT_ALPHAS, variant), written, fmt)
            write_reports("th1", expected, summed, fmt)
            assert written.getvalue() == summed.getvalue()
            if fmt == "json":
                assert written.getvalue() == oracle
        assert payload["summary"]["failed"] == len(bad) > 0

    @pytest.mark.parametrize("variant", "ABC")
    @pytest.mark.parametrize("perturbed", ["top doubled", "a lower weight raised"])
    def test_a_run_is_a_certificate(self, variant, perturbed, monkeypatch):
        # every v's weight at l = k doubled, or at (l, m) = (0, 0) raised: a
        # run passes every report, and the failing plans' reports come out
        # one by one, as the oracle orders them, with C's skipped poles
        alphas, w_support = DEFAULT_ALPHAS[:2] + self.RATIONAL_ALPHAS[::6], identities._w_support
        if perturbed == "top doubled":
            edit = _top_doubled
        else:
            def edit(support):
                (l, m, w), *rest = support
                return ((l, m, w + 1), *rest)
        monkeypatch.setattr(identities, "_w_support", lambda v: edit(w_support(v)))
        vs = list(_vectors_up_to(4))
        items = list(certify_double_sums(vs, alphas, variant).runs())
        assert all(rep.passed for run in items if type(run) is ReportRun for rep in run)
        # a raised weight at (0, 0) is multiplied by C(alpha(0, 0), k) in A
        # and C, which vanishes at alpha(0, 0) = 1 < k: those plans still hold
        runs = any(type(run) is ReportRun for run in items)
        assert runs == (perturbed != "top doubled" and variant != "B")
        expected = [
            rep
            for v in vs
            for alpha in alphas
            if (plan := th1_plan(v, alpha)).pole is None
            for rep in _oracle_reports(variant, v, alpha, plan, edit(tuple(_w_triples(v))))
        ]
        assert list(reports_of(items)) == expected
        failing = [rep for rep in items if type(rep) is IdentityReport and not rep.passed]
        assert failing == [rep for rep in expected if not rep.passed] != []
        assert any(rep.skipped_poles for rep in failing) == (variant == "C")

    def test_it_holds_exactly_when_every_sample_passes(self, monkeypatch):
        # any alpha and any one weight perturbed: a perturbed term whose factor
        # vanishes changes nothing, and then the certificate still holds
        alphas, w_support = DEFAULT_ALPHAS + self.RATIONAL_ALPHAS[::4], identities._w_support
        for v in _vectors_up_to(4):
            for support, triples in _perturbed(v, w_support):
                monkeypatch.setattr(identities, "_w_support", lambda _, s=support: s)
                for variant in "ABC":
                    reports = reports_of(certify_double_sums([v], alphas, variant).runs())
                    for alpha in alphas:
                        plan = th1_plan(v, alpha)
                        if plan.pole is not None:
                            continue
                        passed = []
                        for want in _oracle_reports(variant, v, alpha, plan, triples):
                            rep = next(reports)
                            assert (rep.params["tau"], rep.lhs, rep.rhs) == (
                                want.params["tau"], want.lhs, want.rhs
                            )
                            passed.append(rep.passed)
                        assert (not any(plan.difference(variant))) == all(passed)
                    assert next(reports, None) is None

    @pytest.mark.parametrize("variant, index", [("A", -1), ("B", 0), ("C", -1), ("C", 0)])
    def test_a_term_off_its_alpha_has_no_integer_certificate(self, variant, index):
        # at l = k (l = 0 for B and C's tail) alpha(l, m) / alpha cancels only
        # at m = n (m = 0): an edited plan that moves the term has none
        plan = th1_plan((2, 1), AffineForm(1, 1))
        mutant = copy.copy(plan)
        terms = list(plan.merged)
        l, a, w = terms[index]
        terms[index] = (l, a + 1, w)
        mutant.merged = tuple(terms)
        assert not any(plan.difference(variant))
        for edited in (
            lambda: mutant.difference(variant),
            lambda: check_th1(variant, (2, 1), AffineForm(1, 1), Fraction(7, 3), plan=mutant),
        ):
            with pytest.raises(ValueError) as err:
                edited()
            assert type(err.value) is ValueError
            assert str(err.value) == f"an edited plan: its term at l = {l} is off its alpha"


def _degree_grid(k):
    """The integer alphas c0 + c1*l + c2*m with c0 in 1..k+1 and c1, c2 in
    0..k: k + 1 values of each coefficient, and alpha >= 1 on any support."""
    return (AffineForm(c0, c1, c2)
            for c0 in range(1, k + 2) for c1 in range(k + 1) for c2 in range(k + 1))


class TestEveryAffineAlpha:
    """Each coefficient of an integer alpha's ``difference`` is a polynomial
    of total degree at most k in (c0, c1, c2), so zero vectors on
    :func:`_degree_grid` prove A, B and C for every affine alpha."""

    def test_every_alpha_holds_up_to_eight(self):
        vectors = 0
        for v in _vectors_up_to(8):
            _, n, k = identities._vnk(v)
            support = (v, n, k, 1, identities._w_support(v))
            for alpha in _degree_grid(k):
                plan = Th1Plan(support, alpha)
                assert plan.pole is None
                for variant in "ABC":
                    assert not any(plan.difference(variant)), (v, alpha, variant)
                    vectors += 1
        assert vectors == 22971

    def test_every_raised_weight_fails_on_the_grid(self):
        # each weight of each v with n <= 6 raised by 1, in each variant:
        # some grid point must show a nonzero vector
        cases = 0
        for v in _vectors_up_to(6):
            _, n, k = identities._vnk(v)
            stock = identities._w_support(v)
            for i, (l, m, w) in enumerate(stock):
                support = stock[:i] + ((l, m, w + 1),) + stock[i + 1:]
                for variant in "ABC":
                    cases += 1
                    assert any(any(Th1Plan((v, n, k, 1, support), alpha).difference(variant))
                               for alpha in _degree_grid(k)), (v, support, variant)
        assert cases == 414


def oracle_bell_convolution(variant, n, k, alpha, tau, x):
    """The Bell convolution term by term over (l, m), as its own loop.

    The reference ``check_bell_convolution``, which runs the double-sum
    plans, is checked against; returns (lhs, rhs) and raises the PoleError
    the checker should raise, with the same message.
    """
    bell = bell_triangle(x, n)
    a00, akn = alpha(0, 0), alpha(k, n)
    if variant == "cor34":
        if akn == 0:
            raise PoleError(f"alpha({k},{n}) = 0", where=(k, n))
        if tau == a00:
            raise PoleError(f"tau = alpha(0,0) = {rat_str(tau)}", where=(0, 0))
    lhs = Fraction(0)
    for l in range(k + 1):
        for m in range(l, n + 1):
            bp = bell(m, l) * bell(n - m, k - l)
            if bp == 0:
                continue
            a = alpha(l, m)
            if a == 0:
                raise PoleError(f"alpha({l},{m}) = 0", where=(l, m))
            if variant == "cor33_first":
                term = (akn / a) * binomial_general(a, k - l) * binomial_general(tau - a, l)
            elif variant == "cor33_second":
                term = (a00 / a) * binomial_general(tau - a, k - l) * binomial_general(a, l)
            else:
                if a == tau:
                    raise PoleError(f"alpha({l},{m}) = tau = {rat_str(tau)}", where=(l, m))
                term = (
                    tau
                    * binomial_general(a, k - l)
                    * binomial_general(tau - a, l)
                    / (a * (tau - a))
                )
            lhs += term * comb(n, m) / comb(k, l) * bp
    rhs = binomial_general(tau, k) * bell(n, k)
    if variant == "cor34":
        rhs *= (tau - a00 + akn) / (akn * (tau - a00))
    return lhs, rhs


class TestBellConvolutionAgainstOracle:
    SEQUENCES = (
        random_rationals(6, seed=31),
        SequenceSpec.from_values([0, 2, "-1/3", 0, 1, 5]),
        SequenceSpec.from_values([3, 0, "1/2", -2, 0, 1]),
        # heights up to 10^6
        SequenceSpec.from_values(
            ["-999983/1000000", "123457/999999", 0, "1000000/7", "-1/999983", "65537/2"]
        ),
    )

    def test_every_variant_n_up_to_six(self):
        for n in range(1, 7):
            for k in range(1, n + 1):
                for alpha in DEFAULT_ALPHAS + POLE_ALPHAS + WIDE_ALPHAS[::2]:
                    taus = {alpha(0, 0), alpha(1, 1), alpha(1, n), alpha(k, n)}
                    for tau in taus | {Fraction(0), Fraction(5, 2), WIDE_TAUS[2]}:
                        for x in self.SEQUENCES:
                            for variant in CONVOLUTION_VARIANTS:
                                self._agree(variant, n, k, alpha, tau, x)

    @staticmethod
    def _agree(*args):
        assert _outcome(check_bell_convolution, *args) == _outcome(
            oracle_bell_convolution, *args
        )

    def test_a_shared_plan_changes_nothing(self):
        for n in range(1, 6):
            for k in range(1, n + 1):
                for alpha in DEFAULT_ALPHAS + POLE_ALPHAS:
                    for x in self.SEQUENCES:
                        plan = bell_convolution_plan(n, k, alpha, x)
                        for tau in (alpha(0, 0), alpha(1, 1), Fraction(5, 2)):
                            for variant in CONVOLUTION_VARIANTS:
                                args = (variant, n, k, alpha, tau, x)
                                shared = _outcome(
                                    lambda *a: check_bell_convolution(*a, plan=plan), *args
                                )
                                assert shared == _outcome(check_bell_convolution, *args)

    def test_weights_are_integers_over_the_row_denominator(self):
        for x in self.SEQUENCES:
            _, h = bell_columns(x, 6)
            for n in range(1, 7):
                for k in range(1, n + 1):
                    plan = bell_convolution_plan(n, k, AffineForm(Fraction(1, 2), 1), x)
                    assert plan.h == h[n]
                    assert all(type(t) is int for _, _, t in plan.merged)
        plan = th1_plan((2, 1, 1), AffineForm(Fraction(1, 2), 1))
        assert plan.h == 1 and all(type(t) is int for _, _, t in plan.merged)

    def test_a_copy_with_another_h_misstates_both_sides(self):
        # every weight is read over plan.h, on the left and on the right side
        x, alpha, tau = self.SEQUENCES[0], AffineForm(1, 1), Fraction(5, 2)
        plan, (_, h) = bell_convolution_plan(5, 3, alpha, x), bell_columns(x, 5)
        mutant = copy.copy(plan)
        mutant.h = 2 * h[5]
        for variant in CONVOLUTION_VARIANTS:
            args = (variant, 5, 3, alpha, tau, x)
            good = check_bell_convolution(*args, plan=plan)
            bad = check_bell_convolution(*args, plan=mutant)
            assert (good.lhs, good.rhs) == oracle_bell_convolution(*args) and good.rhs
            assert (bad.lhs, bad.rhs) == (good.lhs / 2, good.rhs / 2)

    def test_an_edited_plan_fails_as_its_terms_sum(self):
        # each weight t in turn raised by 1: the left side, now off the right,
        # must still be the sum of the plan's terms over its h
        failed = 0
        for x in self.SEQUENCES:
            for n in range(1, 6):
                for k in range(1, n + 1):
                    h, triples = identities._bell_weights(n, k, range(k + 1), x)
                    for i, (l, m, t) in enumerate(triples):
                        edited = triples[:i] + ((l, m, t + 1),) + triples[i + 1:]
                        for alpha in (AffineForm(Fraction(1, 2), 1), DEFAULT_ALPHAS[4]):
                            plan = Th1Plan((None, n, k, h, edited), alpha)
                            for tau in (Fraction(7, 3), WIDE_TAUS[2]):
                                for variant, th1 in CONVOLUTION_VARIANTS.items():
                                    got = _outcome(lambda: check_bell_convolution(
                                        variant, n, k, alpha, tau, x, plan=plan))
                                    assert got == _outcome(
                                        oracle_bell_plan_sum, th1, n, k, h, edited, alpha, tau
                                    )
                                    shown = type(got[0]) is Fraction  # not a PoleError
                                    failed += h > 1 and shown and got[0] != got[1]
        assert failed > 0


class TestVanishingSumMonomials:
    def test_every_monomial_below_the_bound_once_by_degree(self):
        for v in [(1,), (3,), (2, 1), (1, 1, 1), (0, 2, 1)]:
            exps = list(vanishing_sum_monomials(v))
            degrees = [sum(e) for e in exps]
            assert degrees == sorted(degrees) and max(degrees) == sum(v) - 1
            assert all(len(e) == len(v) for e in exps) and len(set(exps)) == len(exps)
            # monomials of degree < s in d variables: C(s - 1 + d, d)
            assert len(exps) == comb(sum(v) - 1 + len(v), len(v))


def oracle_vanishing_sum(v, P):
    """The alternating sum of P over the box [0, v_1] x ... x [0, v_d], point by point."""
    total = Fraction(0)
    for point in itertools.product(*(range(e + 1) for e in v)):
        coeff = 1
        for vj, ij in zip(v, point):
            coeff *= comb(vj, ij)
        total += (-1) ** sum(point) * coeff * poly_value(P, point)
    return total


class TestVanishingSumAgainstOracle:
    """The checker sums each term of P as a product of one sum per coordinate;
    the box loop is the oracle."""

    @staticmethod
    def _vectors():
        """Every v of length <= 3 with entries in 0..5, and every v of length
        4 and 5 with positive entries, of sum 1..5."""
        for d in range(1, 6):
            low = 0 if d <= 3 else 1
            for v in itertools.product(range(low, 6), repeat=d):
                if 1 <= sum(v) <= 5:
                    yield v

    def test_every_monomial_sum_up_to_five(self):
        for v in self._vectors():
            for exps in vanishing_sum_monomials(v):
                P = SparsePoly.monomial(exps)
                rep = check_vanishing_sum(v, P)
                assert rep.lhs == oracle_vanishing_sum(v, P) == 0 and rep.passed
