import itertools
import math
import random
import subprocess
import sys
import textwrap
from fractions import Fraction
from math import factorial
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import bellkit.bell
import bellkit.partitions
from bellkit.bell import bell_columns, bell_symbolic, bell_value, stirling1_unsigned, stirling2
from bellkit.partitions import enumerate_pi
from bellkit.reports import InputError
from bellkit.sequences import SequenceSpec, SequenceTooShort, ones, random_rationals
from bellkit.sparsepoly import SparsePoly
from bellkit.transforms import TransformParams, forward_transform

import oracles
from oracles import bell_eval, bell_recursive, bell_triangle, poly_value
from test_partitions import partitions_into_exact_parts


def count_set_partitions(n, k):
    """Brute force: enumerate restricted growth strings of length n."""
    if n == 0:
        return 1 if k == 0 else 0
    count = 0

    def grow(prefix, maxval):
        nonlocal count
        if len(prefix) == n:
            if maxval + 1 == k:
                count += 1
            return
        for v in range(maxval + 2):
            grow(prefix + [v], max(maxval, v))

    grow([0], 0)
    return count


def count_permutations_with_cycles(n, k):
    """Brute force: count permutations of n symbols with exactly k cycles."""
    count = 0
    for perm in itertools.permutations(range(n)):
        seen = [False] * n
        cycles = 0
        for start in range(n):
            if not seen[start]:
                cycles += 1
                j = start
                while not seen[j]:
                    seen[j] = True
                    j = perm[j]
        if cycles == k:
            count += 1
    return count


rational_seq = st.lists(
    st.fractions(min_value=-4, max_value=4, max_denominator=6),
    min_size=10,
    max_size=10,
)


class TestBellSymbolic:
    def test_3_2(self):
        assert bell_symbolic(3, 2) == SparsePoly({(1, 1): 3})

    def test_4_2(self):
        assert bell_symbolic(4, 2) == SparsePoly({(1, 0, 1): 4, (0, 2): 3})

    @pytest.mark.parametrize("n", range(1, 7))
    def test_k_equals_one(self, n):
        assert bell_symbolic(n, 1) == SparsePoly({(0,) * (n - 1) + (1,): 1})

    @pytest.mark.parametrize("n", range(1, 7))
    def test_diagonal(self, n):
        assert bell_symbolic(n, n) == SparsePoly({(n,): 1})

    def test_rejects_bad_indices(self):
        with pytest.raises(ValueError):
            bell_symbolic(3, 0)
        with pytest.raises(ValueError):
            bell_symbolic(3, 4)

    def test_coefficients_positive_integers(self):
        for n in range(1, 13):
            for k in range(1, n + 1):
                for _, c in bell_symbolic(n, k).terms.items():
                    assert c.denominator == 1 and c > 0

    def test_term_count_is_partition_count(self):
        for n in range(1, 13):
            for k in range(1, n + 1):
                assert len(bell_symbolic(n, k).terms) == partitions_into_exact_parts(n, k)


class TestBellEval:
    def test_all_ones(self):
        assert bell_eval(4, 2, ones(3)) == 7

    def test_boundaries(self):
        empty = SequenceSpec(())
        assert bell_eval(0, 0, empty) == 1
        assert bell_eval(3, 0, empty) == 0
        assert bell_eval(3, 5, empty) == 0

    def test_too_short(self):
        with pytest.raises(SequenceTooShort):
            bell_eval(5, 2, ones(3))

    def test_matches_symbolic(self):
        x = random_rationals(9, seed=11)
        for n in range(1, 10):
            for k in range(1, n + 1):
                assert bell_eval(n, k, x) == poly_value(bell_symbolic(n, k), x.values)


class TestBellRecursive:
    def test_all_ones(self):
        assert bell_recursive(4, 2, ones(3)) == 7

    @pytest.mark.parametrize("n", range(1, 6))
    def test_collapses_at_k_one(self, n):
        x = random_rationals(n, seed=n)
        assert bell_recursive(n, 1, x) == x[n]

    def test_against_definition(self):
        x = SequenceSpec.from_values(range(1, 7))
        assert bell_recursive(6, 3, x) == bell_eval(6, 3, x)

    @settings(max_examples=30, deadline=None)
    @given(values=rational_seq, n=st.integers(1, 10), data=st.data())
    def test_oracle_equivalence(self, values, n, data):
        k = data.draw(st.integers(1, n))
        x = SequenceSpec(tuple(values))
        assert bell_recursive(n, k, x) == bell_eval(n, k, x)


def seeded_sequence(length, seed, max_den, zero_at=None):
    """Signed rationals with denominators up to max_den, optionally one zero x_j."""
    rng = random.Random(seed)
    values = [
        Fraction(rng.randint(-3 * max_den, 3 * max_den), rng.randint(1, max_den))
        for _ in range(length)
    ]
    if zero_at is not None:
        values[zero_at - 1] = Fraction(0)
    return SequenceSpec(tuple(values))


TABLE_SEQUENCES = [
    seeded_sequence(12, 1, 9),
    seeded_sequence(12, 2, 9, zero_at=2),
    seeded_sequence(12, 3, 10**6),
    seeded_sequence(12, 4, 10**6, zero_at=1),
    SequenceSpec.from_values([-1, 0, 2, "-1/2", 0, 3, "7/3", -5, 1, "1/9", 0, -2]),
]


class TestBellTable:
    """``bell_value`` reads one entry of the triangle ``bell_columns`` builds."""

    @pytest.mark.parametrize("x", TABLE_SEQUENCES)
    def test_matches_both_oracles(self, x):
        for n in range(13):
            for k in range(n + 1):
                value = bell_value(x, n, k)
                assert value == bell_eval(n, k, x)
                if k >= 1:
                    assert value == bell_recursive(n, k, x)

    @pytest.mark.parametrize("length", range(13))
    def test_short_sequence_reaches_what_the_definition_sum_reaches(self, length):
        # B(n, k) needs only x_1 ... x_{n-k+1}, as in bell_eval
        x = seeded_sequence(length, 10 + length, 10**6)
        for n in range(13):
            for k in range(n + 1):
                if k == 0 or n - k + 1 <= length:
                    assert bell_value(x, n, k) == bell_eval(n, k, x)
                else:
                    with pytest.raises(SequenceTooShort):
                        bell_eval(n, k, x)
                    with pytest.raises(SequenceTooShort, match=f"{n - k + 1} required"):
                        bell_value(x, n, k)

    def test_conventions(self):
        x = ones(5)
        assert bell_value(x, 0, 0) == 1
        assert bell_value(x, 4, 0) == 0
        assert bell_value(x, 3, 5) == 0
        assert bell_value(x, 4, 2) == 7
        assert isinstance(bell_value(x, 4, 2), Fraction)
        for n, k in ((-1, 0), (2, -1)):
            with pytest.raises(InputError, match=f"indices must be nonnegative, got n={n}, k={k}"):
                bell_value(x, n, k)
        with pytest.raises(SequenceTooShort):
            bell_value(x, 7, 1)

    def test_shares_no_code_with_the_oracles(self, monkeypatch):
        x = TABLE_SEQUENCES[2]
        expected = {(n, k): bell_eval(n, k, x) for n in range(10) for k in range(n + 1)}

        def forbidden(*args, **kwargs):
            raise AssertionError("bell_value must not reach the oracle routes")

        monkeypatch.setattr(bellkit.partitions, "enumerate_pi", forbidden)
        monkeypatch.setattr(bellkit.bell, "enumerate_pi", forbidden)
        monkeypatch.setattr(bellkit.bell, "_term_coefficient", forbidden)
        monkeypatch.setattr(oracles, "enumerate_pi", forbidden)
        monkeypatch.setattr(oracles, "comb", forbidden)
        assert {key: bell_value(x, *key) for key in expected} == expected
        with pytest.raises(AssertionError):
            bell_eval(5, 2, x)
        with pytest.raises(AssertionError):
            bell_recursive(5, 2, x)


KERNEL_N = 12
KERNEL_SEQUENCES = {
    "heights-1e6": seeded_sequence(KERNEL_N, 31, 10**6),
    "forward-image": forward_transform(
        seeded_sequence(KERNEL_N, 32, 10**6), TransformParams(1, 1), KERNEL_N
    ),
    "zeros": SequenceSpec(
        tuple(
            Fraction(0) if j % 3 == 1 else v
            for j, v in enumerate(seeded_sequence(KERNEL_N, 33, 10**6).values, start=1)
        )
    ),
    "huge-x1": SequenceSpec(
        (Fraction(-7, 10**40 + 1),) + tuple(Fraction(v) for v in range(-5, KERNEL_N - 6))
    ),
    "short": seeded_sequence(5, 34, 10**6),
}


def divides(a: int, b: int, what: str) -> None:
    # an explicit raise: the check must not vanish under ``python -O``
    if b % a:
        raise AssertionError(f"{what}: {a} does not divide {b}")


class TestBellColumns:
    """``bell_columns`` puts row n over h_n, the lcm over the partitions of n
    of the products of their parts' denominators."""

    @pytest.mark.parametrize("x", KERNEL_SEQUENCES.values(), ids=KERNEL_SEQUENCES.keys())
    def test_entries_match_both_oracles(self, x):
        num, h = bell_columns(x, KERNEL_N)
        bell = bell_triangle(x, KERNEL_N)
        for n in range(KERNEL_N + 1):
            for k in range(n + 1):
                if k == 0 or n - k + 1 <= len(x):
                    assert Fraction(num[k][n], h[n]) == bell_eval(n, k, x)
                    if k >= 1:
                        assert Fraction(num[k][n], h[n]) == bell_recursive(n, k, x)
                else:  # out of reach: held as 0, and every reader refuses it
                    assert num[k][n] == 0
                    with pytest.raises(SequenceTooShort):
                        bell_value(x, n, k)
                    with pytest.raises(SequenceTooShort):
                        bell(n, k)

    @pytest.mark.parametrize("x", KERNEL_SEQUENCES.values(), ids=KERNEL_SEQUENCES.keys())
    def test_row_denominators(self, x):
        _, h = bell_columns(x, KERNEL_N)
        d = [1] + [v.denominator for v in x.values] + [1] * KERNEL_N
        if h[0] != 1 or len(h) != KERNEL_N + 1:
            raise AssertionError(f"h_0 = {h[0]}, {len(h)} rows")
        for n in range(1, KERNEL_N + 1):
            divides(d[n], h[n], f"d_{n} | h_{n}")
            for m in range(1, n):
                divides(h[m] * h[n - m], h[n], f"h_{m} h_{n - m} | h_{n}")
            # the least such scale: the lcm over the index vectors of weighted sum n
            hull = 1
            for k in range(1, n + 1):
                for i in enumerate_pi(n, k, n - k + 1):
                    hull = math.lcm(hull, math.prod(d[j] ** ij for j, ij in enumerate(i, 1)))
            if h[n] != hull:
                raise AssertionError(f"h_{n} = {h[n]}, the partition hull is {hull}")

    def test_rows_past_the_sequence_take_a_denominator_of_one(self):
        # x_3, x_4 and x_5 add no denominator: h_3 = h_1 h_2 = 135, where 2 would give 270
        _, h = bell_columns(SequenceSpec.from_values(["1/3", "1/5"]), 5)
        assert h == [1, 3, 45, 135, 2025, 6075]


class TestIntegralityGuards:
    """The guards raise explicit errors, so they survive ``python -O``."""

    def test_guards_hold_under_optimize(self):
        script = textwrap.dedent(
            """
            import sys
            from fractions import Fraction

            import bellkit.bell as b
            from bellkit.sequences import SequenceSpec

            def raises(fn, *args):
                try:
                    fn(*args)
                except ArithmeticError:
                    return True
                return False

            halves = lambda n: SequenceSpec((Fraction(1, 2),) * n)
            # n = 1 with index vector (0, 1) asks for 1!/2!, not an integer
            ok = [raises(b._term_coefficient, 1, (0, 1))]
            b.ones = halves
            ok.append(raises(b.stirling2, 2, 1))
            b.factorials = halves
            ok.append(raises(b.stirling1_unsigned, 2, 1))
            print(sys.flags.optimize, ok)
            """
        )
        result = subprocess.run(
            [sys.executable, "-O", "-c", script],
            capture_output=True,
            text=True,
            cwd=Path(bellkit.bell.__file__).resolve().parents[1],
            timeout=60,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "1 [True, True, True]"


class TestHomogeneity:
    @settings(max_examples=25, deadline=None)
    @given(
        values=rational_seq,
        c=st.fractions(min_value=-3, max_value=3, max_denominator=5),
        n=st.integers(1, 10),
        data=st.data(),
    )
    def test_scaling(self, values, c, n, data):
        k = data.draw(st.integers(1, n))
        x = SequenceSpec(tuple(values))
        scaled = SequenceSpec(tuple(c * v for v in values))
        graded = SequenceSpec(tuple(c ** j * v for j, v in enumerate(values, start=1)))
        base = bell_eval(n, k, x)
        assert bell_eval(n, k, scaled) == c ** k * base
        assert bell_eval(n, k, graded) == c ** n * base


class TestStirling2:
    def test_known_value(self):
        assert stirling2(4, 2) == 7

    def test_brute_force(self):
        for n in range(0, 9):
            for k in range(0, n + 1):
                assert stirling2(n, k) == count_set_partitions(n, k)

    def test_triangle_recurrence(self):
        for n in range(1, 16):
            for k in range(1, n + 1):
                assert stirling2(n, k) == k * stirling2(n - 1, k) + stirling2(
                    n - 1, k - 1
                )

    @pytest.mark.parametrize("n", range(1, 8))
    def test_edges(self, n):
        assert stirling2(n, n) == 1
        assert stirling2(n, 1) == 1


class TestStirling1:
    def test_known_value(self):
        # 4*x1*x3 + 3*x2^2 at (1, 1, 2) = 8 + 3
        assert stirling1_unsigned(4, 2) == 11

    def test_brute_force(self):
        for n in range(0, 8):
            for k in range(0, n + 1):
                assert stirling1_unsigned(n, k) == count_permutations_with_cycles(n, k)

    def test_triangle_recurrence(self):
        for n in range(1, 13):
            for k in range(1, n + 1):
                assert stirling1_unsigned(n, k) == (n - 1) * stirling1_unsigned(
                    n - 1, k
                ) + stirling1_unsigned(n - 1, k - 1)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_edges(self, n):
        assert stirling1_unsigned(n, 1) == factorial(n - 1)
        assert stirling1_unsigned(n, n) == 1
