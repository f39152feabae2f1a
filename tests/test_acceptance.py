"""Acceptance suite: every criterion checked exactly, tolerance zero.

Each test prints one PASS line on success; pytest reports FAIL otherwise.
All equalities are exact rational comparisons.
"""

import itertools
import time
from fractions import Fraction
from math import comb

from bellkit.bell import stirling1_unsigned, stirling2
from bellkit.egf import TruncatedEGF, egf_apply_poly, egf_log, egf_polyval, egf_pow
from bellkit.identities import (
    AffineForm,
    check_alpha_constant,
    check_bell_convolution,
    check_hagen_rothe,
    check_stirling_recurrence,
    check_vanishing_sum,
    check_zerosum,
    vanishing_sum_monomials,
)
from bellkit.sequences import random_rationals
from bellkit.sparsepoly import SparsePoly
from bellkit.transforms import (
    TransformParams,
    _inverse_entry,
    _rows,
    forward_transform,
    inverse_transform,
    lambda_identity_check,
    q_product_check,
    q_recurrence_check,
)

from oracles import bell_eval, bell_recursive, bell_triangle, certify_th1_grid
from test_bell import count_permutations_with_cycles, count_set_partitions

AB_PAIRS = ((0, 1), (1, 1), (2, 3), (-1, 2), (1, 0))


def _announce(number: int, label: str, started: float) -> None:
    print(f"ACCEPTANCE {number} ({label}): PASS ({time.perf_counter() - started:.1f}s)")


def test_criterion_1_bell_oracle_equivalence():
    started = time.perf_counter()
    for seed in range(20):
        x = random_rationals(12, seed=seed)
        bell = bell_triangle(x, 12)
        for n in range(1, 13):
            for k in range(1, n + 1):
                # definition sum vs recurrence: the two oracles
                assert bell_recursive(n, k, x) == bell_eval(n, k, x)
                # the production kernel as a third route
                assert bell(n, k) == bell_eval(n, k, x)
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"budget exceeded: {elapsed:.1f}s"
    _announce(1, "bell kernel and both oracles agree, n <= 12, 20 sequences", started)


def test_criterion_2_stirling_cross_checks():
    started = time.perf_counter()
    assert stirling2(4, 2) == 7
    assert stirling1_unsigned(4, 2) == 11
    for n in range(1, 16):
        for k in range(1, n + 1):
            assert stirling2(n, k) == k * stirling2(n - 1, k) + stirling2(n - 1, k - 1)
    for n in range(0, 9):
        for k in range(0, n + 1):
            assert stirling2(n, k) == count_set_partitions(n, k)
            assert stirling1_unsigned(n, k) == count_permutations_with_cycles(n, k)
    _announce(2, "stirling triangle + brute-force counters", started)


def test_criterion_3_th1_grid_certification():
    started = time.perf_counter()
    reports, result = certify_th1_grid(7)
    assert result.all_passed() and result.checked == len(reports), result.summary()
    # the only inadmissible combination on this grid: the weight vector
    # concentrated at slot 7 makes 5 + 2l - m vanish at the contributing
    # point (1, 7), independently of tau
    assert result.skipped_pairs == [
        ((0, 0, 0, 0, 0, 0, 1), AffineForm(5, 2, -1), (1, 7))
    ]
    for report in reports:
        if report.passed:
            assert report.lhs == report.rhs
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"budget exceeded: {elapsed:.1f}s"
    _announce(
        3,
        f"binomial double sums on {len(reports)} samples, n <= 7",
        started,
    )


def test_criterion_4_hagen_rothe_grid():
    started = time.perf_counter()
    xs = [Fraction(1), Fraction(2), Fraction(3), Fraction(1, 2), Fraction(5, 2), Fraction(7, 3)]
    ys = [Fraction(1), Fraction(2), Fraction(4), Fraction(1, 3), Fraction(3, 2), Fraction(8, 5)]
    zs = [Fraction(0), Fraction(1), Fraction(1, 2), Fraction(2, 3)]
    checked = 0
    for k in range(1, 7):
        for x, y, z in itertools.product(xs, ys, zs):
            sym = check_hagen_rothe("symmetric", x, y, z, k)
            asym = check_hagen_rothe("asymmetric", x, y, z, k)
            assert sym.passed and asym.passed
            checked += 2
            if z == 0:
                chu = check_hagen_rothe("chu_vandermonde", x, y, z, k)
                assert chu.passed and chu.lhs == asym.lhs and chu.rhs == asym.rhs
                checked += 1
    _announce(4, f"hagen-rothe 6x6x4 grid, k <= 6, {checked} checks", started)


def test_criterion_5_convolution_family():
    started = time.perf_counter()
    taus = [Fraction(7, 2), Fraction(-3, 2)]
    for seed in range(10):
        x = random_rationals(8, seed=100 + seed)
        for n in range(1, 9):
            for k in range(1, n + 1):
                for variant in ("cor33_first", "cor33_second", "cor34"):
                    rep = check_bell_convolution(
                        variant, n, k, AffineForm(1, 1), taus[seed % 2], x
                    )
                    assert rep.passed, rep
                if n >= 2:
                    assert check_zerosum(n, k, x).passed
                for r in range(1, k + 1):
                    assert check_alpha_constant(n, k, r, x).passed
    for n in range(1, 9):
        for k in range(1, n + 1):
            for r in range(1, k + 1):
                assert check_stirling_recurrence(n, k, r, "second").passed
                assert check_stirling_recurrence(n, k, r, "first").passed
    # constant-alpha convolution at tau = k carries the splitting identity
    x = random_rationals(8, seed=500)
    for n in range(1, 9):
        for k in range(1, n + 1):
            for r in range(1, k + 1):
                conv = check_bell_convolution("cor33_first", n, k, AffineForm(r), k, x)
                split = check_alpha_constant(n, k, r, x)
                assert conv.passed and split.passed
                assert split.lhs == comb(k, r) * conv.lhs
    _announce(5, "bell convolutions, splitting, zerosum, stirling recurrences", started)


def test_criterion_6_lambda_composition():
    started = time.perf_counter()
    checked = 0
    for a, b in AB_PAIRS:
        params = TransformParams(a, b)
        for seed in (0, 1):
            for n in range(1, 9):
                x = random_rationals(n, seed=200 + seed)
                lambdas = [Fraction(2 * j - 3, 2) for j in range(n + 1)]
                assert len(set(lambdas)) == n + 1
                for k0 in (1, 2, 3):
                    for lam in lambdas:
                        rep = lambda_identity_check(x, params, n, lam, k0)
                        assert rep.passed, rep
                        checked += 1
    _announce(6, f"lambda composition at n+1 points, {checked} checks", started)


def test_criterion_7_inverse_pair_roundtrip():
    started = time.perf_counter()
    n_max = 10
    for seed in range(50):
        x = random_rationals(n_max, seed=300 + seed)
        y_free = random_rationals(n_max, seed=700 + seed)
        for a, b in AB_PAIRS:
            params = TransformParams(a, b)
            poles = [n for n in range(1, n_max + 1) if a * n + b == 0]
            y = forward_transform(x, params, n_max)
            if not poles:
                assert inverse_transform(y, params, n_max).values == x.values
                x_rec = inverse_transform(y_free, params, n_max)
                assert forward_transform(x_rec, params, n_max).values == y_free.values
            else:
                # entries at the poles are excluded; all others still invert
                rows_y = _rows(y, n_max)
                for n in range(1, n_max + 1):
                    if n not in poles:
                        assert _inverse_entry(params, n, rows_y[n]) == x[n]
                prefix = min(poles) - 1
                if prefix >= 1:
                    x_rec = inverse_transform(y_free.prefix(prefix), params, prefix)
                    assert (
                        forward_transform(x_rec, params, prefix).values
                        == y_free.values[:prefix]
                    )
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"budget exceeded: {elapsed:.1f}s"
    _announce(7, "inverse pair roundtrips, n_max = 10, 50 seeds", started)


def test_criterion_8_series_duality():
    started = time.perf_counter()
    from bellkit.transforms import log_polynomials, potential_polynomials

    for seed in range(10):
        x = random_rationals(10, seed=400 + seed)
        z = TruncatedEGF.from_sequence(x)
        assert egf_log(z).coeffs[1:] == log_polynomials(x, 10).values
        for r in (Fraction(2), Fraction(-1), Fraction(1, 2), Fraction(5, 3)):
            assert egf_pow(z, r).coeffs[1:] == potential_polynomials(r, x, 10).values
    params = TransformParams(1, 1)
    quadratic = [Fraction(1), Fraction(-2), Fraction(1, 2)]
    cubic = [Fraction(0), Fraction(1), Fraction(2), Fraction(-1, 3)]
    for seed in range(3):
        x = random_rationals(6, seed=450 + seed)
        y = forward_transform(x, params, 6)
        for f_coeffs in (quadratic, cubic):
            z, fz = egf_apply_poly(f_coeffs, params, x)
            assert z == TruncatedEGF.from_sequence(y)
            assert fz == egf_polyval(f_coeffs, z)
    _announce(8, "series log/pow duality + polynomial application", started)


def _vectors_with_sum_at_most(total: int, max_dim: int):
    """Canonical nonzero vectors (no trailing zeros) with entry sum <= total."""
    for d in range(1, max_dim + 1):
        for v in itertools.product(range(total + 1), repeat=d):
            if 0 < sum(v) <= total and v[-1] != 0:
                yield v


def test_criterion_9_low_level_sum_checks():
    started = time.perf_counter()
    checked = 0
    for v in _vectors_with_sum_at_most(6, max_dim=4):
        for exps in vanishing_sum_monomials(v):
            rep = check_vanishing_sum(v, SparsePoly.monomial(exps))
            assert rep.passed, (v, exps)
            checked += 1
    import random

    rng = random.Random(9)
    for n in range(1, 7):
        z = random_rationals(n, seed=600 + n)
        for lam in range(0, 4):
            assert q_recurrence_check(n, lam, z).passed
    for n1 in range(1, 7):
        for n2 in range(1, 7):
            z = random_rationals(max(n1, n2), seed=650 + 7 * n1 + n2)
            b1, b2 = rng.randint(-2, 2), rng.randint(-2, 2)
            # odd/2 is never an integer, so the affine denominators cannot vanish
            lam1 = Fraction(2 * rng.randint(-6, 6) + 1, 2)
            lam2 = Fraction(2 * rng.randint(-6, 6) + 1, 2)
            assert q_product_check(n1, n2, b1, b2, lam1, lam2, z).passed
    _announce(9, f"vanishing sums ({checked} monomial cases), q recurrence + product", started)
