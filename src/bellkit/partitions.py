"""Constrained index vectors.

An index vector i = (i_1, ..., i_d) of nonnegative integers carries two
statistics: the entry sum i_1 + ... + i_d and the weighted sum
1*i_1 + 2*i_2 + ... + d*i_d.  ``enumerate_pi(m, l, d)`` lists every vector
of length d with entry sum l and weighted sum m; such vectors are the
multiplicity encodings of the partitions of m into l parts, and they index
the monomials of partial Bell polynomials.
"""

from __future__ import annotations

from .reports import InputError

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
        raise InputError(f"dimension must be positive, got {d}")
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
