"""Constrained index vectors and binomial-product coefficients.

An index vector i = (i_1, ..., i_d) of nonnegative integers carries two
statistics: the entry sum i_1 + ... + i_d and the weighted sum
1*i_1 + 2*i_2 + ... + d*i_d.  ``enumerate_pi(m, l, d)`` lists every vector
of length d with entry sum l and weighted sum m; such vectors are the
multiplicity encodings of the partitions of m into l parts, and they index
both the monomials of partial Bell polynomials and the binomial-product
sums computed by ``w_coefficient``.
"""

from __future__ import annotations

from math import comb

IndexVector = tuple[int, ...]


def strip_trailing_zeros(v) -> IndexVector:
    """Canonical form of an index vector: drop trailing zero entries."""
    v = tuple(v)
    end = len(v)
    while end and v[end - 1] == 0:
        end -= 1
    return v[:end]


def enumerate_pi(m: int, l: int, d: int) -> list[IndexVector]:
    """All length-d vectors i >= 0 with sum(i) = l and sum(j*i_j) = m.

    Returned in lexicographic order on (i_1, ..., i_d); empty when the two
    constraints have no solution.
    """
    if d < 1:
        raise ValueError(f"dimension must be positive, got {d}")
    if m < 0 or l < 0:
        return []
    out: list[IndexVector] = []
    vec = [0] * d

    def fill(pos: int, count: int, weight: int) -> None:
        if pos == d:
            # last coordinate is forced
            if d * count == weight:
                vec[d - 1] = count
                out.append(tuple(vec))
            return
        for i in range(min(count, weight // pos) + 1):
            c, w = count - i, weight - pos * i
            # positions pos+1..d can realize (c, w) iff (pos+1)*c <= w <= d*c
            if (pos + 1) * c <= w <= d * c:
                vec[pos - 1] = i
                fill(pos + 1, c, w)
        vec[pos - 1] = 0

    fill(1, l, m)
    return out


def w_coefficient(m: int, l: int, v) -> int:
    """Sum of products comb(v_1, i_1)...comb(v_d, i_d) over enumerate_pi(m, l, d).

    Zero when the index set is empty (in particular for l = 0 < m), and 1 at
    (m, l) = (0, 0).  Vectors equal up to trailing zeros give equal results.
    This definition sum is the oracle of ``identities._w_support``, which
    reads W(m, l; v) as the coefficient of s^l t^m in prod_j (1 + s t^j)^{v_j}.
    """
    v = tuple(int(e) for e in v)
    if any(e < 0 for e in v):
        raise ValueError(f"entries must be nonnegative, got {v}")
    v = strip_trailing_zeros(v)
    if not v:
        raise ValueError("v must have at least one positive entry")
    if m < 0 or l < 0:
        return 0
    total = 0
    for i in enumerate_pi(m, l, len(v)):
        p = 1
        for vj, ij in zip(v, i):
            p *= comb(vj, ij)
            if p == 0:
                break
        total += p
    return total
