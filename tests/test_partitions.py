import itertools
from math import comb

import pytest

from bellkit.identities import _w_support, grid_vs
from bellkit.partitions import enumerate_pi, strip_trailing_zeros

from oracles import w_coefficient


def brute_force_pi(m, l, d):
    """Exhaustive scan over the full box; the independent oracle."""
    out = []
    for i in itertools.product(range(m + 1), repeat=d):
        if sum(i) == l and sum(j * e for j, e in enumerate(i, start=1)) == m:
            out.append(i)
    return out


def partitions_into_exact_parts(n, k):
    """Recursive counter: partitions of n into exactly k parts."""
    if n == 0 and k == 0:
        return 1
    if n <= 0 or k <= 0:
        return 0
    return partitions_into_exact_parts(n - 1, k - 1) + partitions_into_exact_parts(
        n - k, k
    )


def comb0(n, j):
    return comb(n, j) if 0 <= j <= n else 0


class TestEnumeratePi:
    def test_single_solution(self):
        assert enumerate_pi(3, 2, 2) == [(1, 1)]

    @pytest.mark.parametrize("n,d", [(1, 1), (3, 2), (4, 4), (5, 3)])
    def test_forced_all_first(self, n, d):
        assert enumerate_pi(n, n, d) == [(n,) + (0,) * (d - 1)]

    @pytest.mark.parametrize("d", [1, 2, 5])
    def test_count_exceeding_weight_impossible(self, d):
        assert enumerate_pi(2, 3, d) == []

    def test_matches_brute_force_and_lex_order(self):
        for m in range(8):
            for l in range(8):
                for d in range(1, 5):
                    got = enumerate_pi(m, l, d)
                    assert got == sorted(brute_force_pi(m, l, d))
                    assert all(len(v) == d for v in got)

    def test_counts_partitions(self):
        for n in range(0, 21):
            for k in range(0, n + 1):
                if n == 0 or k == 0:
                    continue
                assert len(enumerate_pi(n, k, n)) == partitions_into_exact_parts(n, k)

    def test_rejects_zero_dimension(self):
        with pytest.raises(ValueError):
            enumerate_pi(3, 2, 0)


class TestStripTrailingZeros:
    def test_basic(self):
        assert strip_trailing_zeros((2, 1, 0, 0)) == (2, 1)
        assert strip_trailing_zeros((0, 0)) == ()
        assert strip_trailing_zeros((1, 0, 1)) == (1, 0, 1)


class TestWCoefficient:
    def test_examples(self):
        # pi_2(2,2) = {(2,0)}: C(2,2)C(1,0) = 1
        assert w_coefficient(2, 2, (2, 1)) == 1
        # pi_2(3,2) = {(1,1)}: C(2,1)C(1,1) = 2
        assert w_coefficient(3, 2, (2, 1)) == 2

    def test_zero_when_count_zero_but_weight_positive(self):
        for m in range(1, 7):
            assert w_coefficient(m, 0, (2, 1)) == 0
            assert w_coefficient(m, 0, (1,)) == 0

    def test_corner_value(self):
        assert w_coefficient(0, 0, (2, 1)) == 1
        assert w_coefficient(0, 0, (5,)) == 1

    def test_rejects_zero_vector(self):
        with pytest.raises(ValueError):
            w_coefficient(1, 1, (0, 0))

    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError):
            w_coefficient(1, 1, (2, -1))

    def test_trailing_zero_equivalence(self):
        for m in range(6):
            for l in range(4):
                assert w_coefficient(m, l, (2, 1)) == w_coefficient(m, l, (2, 1, 0, 0))

    def test_row_sums(self):
        # summing over m recovers a plain binomial coefficient
        for n in range(1, 8):
            for k in range(1, n + 1):
                for v in enumerate_pi(n, k, n):
                    v = strip_trailing_zeros(v)
                    for l in range(k + 1):
                        total = sum(
                            w_coefficient(m, l, v) for m in range(l, n + 1)
                        )
                        assert total == comb(k, l)

    def test_two_entry_closed_form(self):
        # v concentrated on two adjacent slots gamma, gamma+1 has a product form
        for gamma in (1, 2, 3):
            for k in range(1, 6):
                for z in range(0, k + 1):
                    v = [0] * (gamma + 1)
                    v[gamma - 1] = z
                    v[gamma] = k - z
                    n = gamma * z + (gamma + 1) * (k - z)
                    for l in range(k + 1):
                        for m in range(l, n + 1):
                            expected = comb0(z, (gamma + 1) * l - m) * comb0(
                                k - z, m - gamma * l
                            )
                            assert w_coefficient(m, l, v) == expected


def definition_support(v):
    """(l, m, W) for every nonzero W(m, l; v), l-major and m-minor, from the
    definition sum: the order in which the double sums read them."""
    k = sum(v)
    n = sum(j * e for j, e in enumerate(v, start=1))
    cells = ((l, m, w_coefficient(m, l, v)) for l in range(k + 1) for m in range(l, n + 1))
    return tuple(cell for cell in cells if cell[2])


class TestWSupport:
    """The generating-function product against the definition sum, in order."""

    def test_every_small_vector(self):
        count = 0
        for d in range(1, 5):
            for head in itertools.product(range(5), repeat=d - 1):
                for last in range(1, 5):
                    v = head + (last,)
                    assert _w_support(v) == definition_support(v), v
                    count += 1
        assert count == 624

    def test_every_grid_vector(self):
        for n in range(1, 10):
            for v in grid_vs(n):
                assert _w_support(v) == definition_support(v), v
