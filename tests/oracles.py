"""Independent routes the tests hold the package against.

No code path of ``bellkit`` calls these.  ``bell_eval`` is the definition
sum of a partial Bell polynomial and ``bell_recursive`` a different one-step
recurrence, both checked against ``bell_columns`` and ``bell_value`` and
sharing no code with them; ``w_coefficient`` is the definition sum of
W(m, l; v), checked against the generating-function product of
``identities._w_support``; ``certify_th1_grid`` sweeps every v up to a
weighted sum through ``certify_double_sums``, once per variant.
``reports_of`` reads the reports out of what ``GridResult.runs`` yields:
each run's by iterating it, and each lone report as itself.
``hagen_rothe_reference``
is the Hagen-Rothe and Chu-Vandermonde checker as one loop per variant,
with the pole order, messages and ``where`` that ``check_hagen_rothe``
keeps in its one loop.

``bell_triangle`` is not an independent route: it is the ``Fraction``
triangle of one ``bell_columns`` call, each entry num[k][n] over its row
denominator h[n], for tests that read many entries of one sequence without
rebuilding the triangle per entry.  The weighted Bell
sums of ``bellkit.transforms`` (``q_function``, the transform pair, the two
sides of the lambda identity) are held against ``Fraction`` loops over its
entries: one ``Fraction`` product and sum per (n, k), where the package adds
integers over one denominator.  ``log_polynomials`` and
``potential_polynomials`` are the same loops at b = 0, lam = -1 and at
lam = r - 1 times r, the Bell side of the log and power series.

``egf_product`` is the binomial convolution of two truncated series and
``egf_polyval`` Horner's rule on it: F(Z) for a polynomial F, the reference
for ``transforms.egf_apply_poly``.  ``poly_value`` evaluates a
``SparsePoly`` term by term.

``rat_reference`` and ``rat_str_reference`` are the parser and writer of
``bellkit.rationals`` as a specification: a string goes through
``Fraction(str)`` after the unicode minus, stripping and the refusal of
exponent notation, and floats and bools are refused.  ``rat`` is that
function today; the comparison pins it, so any fast path added to ``rat``
later must match it on every short string.  ``rat_mismatches`` lists the
inputs on which ``rat`` differs from it in value, exception type or
message.  It needs neither pytest nor hypothesis, so any interpreter can run
it over ``short_strings(RAT_ALPHABET, 4)`` with ``src`` and ``tests`` on
``sys.path``.

Checks raise explicitly instead of using ``assert``: pytest rewrites
asserts only in test modules, and ``python -O`` strips the rest.  This
module is not collected as a test module.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, product
from math import comb, factorial
from typing import Iterator

from bellkit.bell import bell_columns
from bellkit.egf import TruncatedEGF
from bellkit.identities import DEFAULT_ALPHAS, TH1_VARIANTS, certify_double_sums, grid_vs
from bellkit.partitions import enumerate_pi, strip_trailing_zeros
from bellkit.rationals import binomial_general, rat
from bellkit.reports import GridResult, IdentityReport, InputError, PoleError, ReportRun
from bellkit.sequences import SequenceSpec


def bell_triangle(x: SequenceSpec, n_max: int):
    """``bell(n, k)`` -> B(n, k)(x) for n <= n_max, from one ``bell_columns(x, n_max)``.

    Same conventions and errors as ``bellkit.bell.bell_value``.
    """
    num, h = bell_columns(x, n_max)
    rows = [[Fraction(num[k][n], h[n]) for k in range(n + 1)] for n in range(n_max + 1)]

    def bell(n: int, k: int) -> Fraction:
        if n < 0 or k < 0:
            raise InputError(f"indices must be nonnegative, got n={n}, k={k}")
        if n > n_max:
            raise InputError(f"table holds n <= {n_max}, got n={n}")
        if k > n:
            return Fraction(0)
        if k:
            x.require(n - k + 1)
        return rows[n][k]

    return bell


def bell_eval(n: int, k: int, x: SequenceSpec) -> Fraction:
    """Value of B(n, k) at x, by the definition sum

        sum over i of n!/(i_1! i_2! ...) * (x_1/1!)^{i_1} * (x_2/2!)^{i_2} * ...

    Conventions: B(0, 0) = 1, B(n, 0) = 0 for n > 0, B(n, k) = 0 for k > n.
    Needs x_1 ... x_{n-k+1}.
    """
    if n < 0 or k < 0:
        raise ValueError(f"indices must be nonnegative, got n={n}, k={k}")
    if k == 0:
        return Fraction(1 if n == 0 else 0)
    if k > n:
        return Fraction(0)
    need = n - k + 1
    x.require(need)
    total = Fraction(0)
    for i in enumerate_pi(n, k, need):
        term = Fraction(factorial(n))
        for j, (xj, ij) in enumerate(zip(x.values, i), start=1):
            if ij:
                term *= (xj / factorial(j)) ** ij / factorial(ij)
        total += term
    return total


def bell_recursive(n: int, k: int, x: SequenceSpec) -> Fraction:
    """Value of B(n, k) at x via the recurrence

        B(n, k) = (1/k) * sum_{m=k-1}^{n-1} C(n, m) x_{n-m} B(m, k-1)

    with base B(m, 0) = [m == 0].  Must agree with ``bell_eval`` exactly.
    """
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    x.require(n - k + 1)
    memo: dict[tuple[int, int], Fraction] = {}

    def value(nn: int, kk: int) -> Fraction:
        if kk == 0:
            return Fraction(1 if nn == 0 else 0)
        key = (nn, kk)
        if key not in memo:
            acc = Fraction(0)
            for m in range(kk - 1, nn):
                acc += comb(nn, m) * x[nn - m] * value(m, kk - 1)
            memo[key] = acc / kk
        return memo[key]

    return value(n, k)


def w_coefficient(m: int, l: int, v) -> int:
    """Sum of products comb(v_1, i_1)...comb(v_d, i_d) over enumerate_pi(m, l, d).

    Zero when the index set is empty (in particular for l = 0 < m), and 1 at
    (m, l) = (0, 0).  Vectors equal up to trailing zeros give equal results.
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


def reports_of(items) -> Iterator[IdentityReport]:
    """The reports of ``items``, runs and lone reports such as
    ``GridResult.runs()`` yields, in order, made as they are read."""
    for item in items:
        if isinstance(item, ReportRun):
            yield from item
        else:
            yield item


def certify_th1_grid(n_max: int) -> tuple[list[IdentityReport], GridResult]:
    """Certify the double-sum identities for every v with weighted sum <= n_max.

    Each variant A, B and C is one sweep: each (v, alpha), alpha in
    ``DEFAULT_ALPHAS``, is checked at 2k+2 pole-free tau values; since both
    sides are polynomials in tau of degree at most 2k+1 after clearing the
    finitely many linear denominators, passing on such a grid certifies the
    identity for all tau.  Combinations where alpha vanishes at a
    nonzero-weight (l, m) are tau-independent poles: each sweep records and
    skips them, never checks them.  Returns every report, variant by
    variant, and a result read from the three sweeps, whose counts and
    skipped pairs then cover them all.
    """
    vs = [v for n in range(1, n_max + 1) for v in grid_vs(n)]
    sweeps = [certify_double_sums(vs, DEFAULT_ALPHAS, variant) for variant in TH1_VARIANTS]
    result = GridResult(chain.from_iterable(sweep.runs() for sweep in sweeps))
    reports = list(reports_of(result.runs()))
    result.skipped_pairs = [pair for sweep in sweeps for pair in sweep.skipped_pairs]
    return reports, result


def q_sum(n: int, b: int, lam, bell, k0: int = 1) -> Fraction:
    """sum_{k=k0}^{n} C(lam + b*k, k-k0) (k-1)! B(n, k) over a ``bell_triangle``."""
    total = Fraction(0)
    for k in range(k0, n + 1):
        total += binomial_general(lam + b * k, k - k0) * factorial(k - 1) * bell(n, k)
    return total


def q_function(n: int, b: int, lam, z: SequenceSpec) -> Fraction:
    if n < 1:
        raise InputError(f"n must be positive, got {n}")
    z.require(n)
    return q_sum(n, b, rat(lam), bell_triangle(z, n))


def forward_transform(x: SequenceSpec, a: int, b: int, n_max: int) -> SequenceSpec:
    x.require(n_max)
    bell = bell_triangle(x, n_max)
    return SequenceSpec(tuple(q_sum(n, b, a * n, bell) for n in range(1, n_max + 1)))


def inverse_transform(y: SequenceSpec, a: int, b: int, n_max: int) -> SequenceSpec:
    """The inverse with the pole and (0, 0) errors of ``transforms.inverse_transform``."""
    if a == 0 and b == 0:
        raise InputError("(a, b) = (0, 0) has no inverse transform")
    y.require(n_max)
    bell = bell_triangle(y, n_max)
    out = []
    for n in range(1, n_max + 1):
        den = a * n + b
        if den == 0:
            raise PoleError(f"a*n + b = 0 at n = {n}", where=("n", n))
        total = Fraction(0)
        for k in range(1, n + 1):
            total += (
                Fraction(a * n + b * k, den)
                * binomial_general(-a * n - b, k - 1)
                * factorial(k - 1)
                * bell(n, k)
            )
        out.append(total)
    return SequenceSpec(tuple(out))


def lambda_identity_sides(x: SequenceSpec, a: int, b: int, n: int, lam, k0: int = 1):
    """Both sides of ``transforms.lambda_identity_check`` at n >= 1 and k0 >= 1."""
    x.require(n)
    lam = rat(lam)
    bell_y = bell_triangle(forward_transform(x, a, b, n), n)
    return q_sum(n, 0, lam, bell_y, k0), q_sum(n, b, lam + a * n, bell_triangle(x, n), k0)


def log_polynomials(z: SequenceSpec, n_max: int) -> SequenceSpec:
    z.require(n_max)
    bell = bell_triangle(z, n_max)
    return SequenceSpec(tuple(q_sum(n, 0, Fraction(-1), bell) for n in range(1, n_max + 1)))


def potential_polynomials(r, z: SequenceSpec, n_max: int) -> SequenceSpec:
    z.require(n_max)
    r = rat(r)
    bell = bell_triangle(z, n_max)
    return SequenceSpec(tuple(r * q_sum(n, 0, r - 1, bell) for n in range(1, n_max + 1)))


def egf_product(a: TruncatedEGF, b: TruncatedEGF) -> TruncatedEGF:
    """The binomial convolution sum_m C(n, m) a_m b_{n-m}, at the lower order."""
    return TruncatedEGF(tuple(
        sum((comb(n, m) * a.coeffs[m] * b.coeffs[n - m] for m in range(n + 1)), Fraction(0))
        for n in range(min(a.order, b.order) + 1)
    ))


def egf_polyval(f_coeffs, z: TruncatedEGF) -> TruncatedEGF:
    """F(Z) for F(w) = sum c_l w^l by Horner's rule; no c_l gives the zero series."""
    coeffs = [rat(c) for c in f_coeffs] or [Fraction(0)]
    acc = TruncatedEGF((coeffs[-1],) + (Fraction(0),) * z.order)
    for c in reversed(coeffs[:-1]):
        acc = egf_product(acc, z)
        acc = TruncatedEGF((acc.coeffs[0] + c,) + acc.coeffs[1:])
    return acc


def poly_value(poly, values) -> Fraction:
    """The value of a ``SparsePoly`` at x_j = values[j-1], term by term."""
    if poly.max_index() > len(values):
        raise InputError(f"need {poly.max_index()} variable values, got {len(values)}")
    total = Fraction(0)
    for exps, coeff in poly.terms.items():
        for value, e in zip(values, exps):
            coeff *= Fraction(value) ** e
        total += coeff
    return total


def hagen_rothe_reference(variant: str, xp, yp, zp, k: int) -> IdentityReport:
    """``check_hagen_rothe`` as three loops, one per variant, in ``Fraction``s.

    Chu-Vandermonde here ignores z and reports it; the package refuses a
    nonzero z there.
    """
    x, y, z = rat(xp), rat(yp), rat(zp)
    if k < 0:
        raise InputError(f"k must be nonnegative, got {k}")
    params = {"variant": variant, "x": x, "y": y, "z": z, "k": k}

    if variant == "chu_vandermonde":
        lhs = sum(
            (binomial_general(x, l) * binomial_general(y, k - l) for l in range(k + 1)),
            Fraction(0),
        )
        return IdentityReport("chu-vandermonde", params, lhs, binomial_general(x + y, k))

    if variant == "symmetric":
        total = x + y + k * z
        if total == 0:
            raise PoleError("x + y + k*z = 0", where=("rhs",))
        lhs = Fraction(0)
        for l in range(k + 1):
            xl, yl = x + l * z, y + (k - l) * z
            if xl == 0:
                raise PoleError(f"x + {l}*z = 0", where=(l,))
            if yl == 0:
                raise PoleError(f"y + {k - l}*z = 0", where=(l,))
            lhs += (
                (x / xl)
                * binomial_general(xl, l)
                * (y / yl)
                * binomial_general(yl, k - l)
            )
        rhs = (x + y) / total * binomial_general(total, k)
        return IdentityReport("hagen-rothe-symmetric", params, lhs, rhs)

    if variant == "asymmetric":
        lhs = Fraction(0)
        for l in range(k + 1):
            xl = x + l * z
            if xl == 0:
                raise PoleError(f"x + {l}*z = 0", where=(l,))
            lhs += (x / xl) * binomial_general(xl, l) * binomial_general(
                y + (k - l) * z, k - l
            )
        rhs = binomial_general(x + y + k * z, k)
        return IdentityReport("hagen-rothe-asymmetric", params, lhs, rhs)

    raise InputError(f"unknown variant {variant!r}")


#: characters that reach every branch of ``rat`` on strings: digits, both
#: signs, the unicode minus, "/", space, ".", "_", "e" and an Arabic-Indic one
RAT_ALPHABET = "0129-+/ ._e\u2212\u0661"


def rat_reference(value) -> Fraction:
    """``rat``'s specification: after its two refusals, ``Fraction(value)``."""
    if isinstance(value, str):
        value = value.replace("−", "-").strip()
        if "e" in value or "E" in value:
            raise InputError(f"refusing exponent notation in {value!r}; write p/q")
    if isinstance(value, (float, bool)):
        kind = type(value).__name__
        raise InputError(f"refusing {kind} input {value!r}; pass a string or int")
    return Fraction(value)


def rat_str_reference(value) -> str:
    """``rat_str`` written out from the numerator and denominator."""
    f = value if isinstance(value, (int, Fraction)) else Fraction(value)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


def outcome(fn, value):
    """``("value", type, result)`` of ``fn(value)``, or ``("raises", type, message)``."""
    try:
        got = fn(value)
    except Exception as exc:  # the type and message are what is compared
        return ("raises", type(exc), str(exc))
    return ("value", type(got), got)


def short_strings(alphabet: str, max_len: int):
    """Every string over ``alphabet`` of length 0 to ``max_len``."""
    for size in range(max_len + 1):
        for chars in product(alphabet, repeat=size):
            yield "".join(chars)


def rat_mismatches(strings) -> list:
    """``(text, rat's outcome, rat_reference's outcome)`` where the two differ."""
    out = []
    for text in strings:
        got, want = outcome(rat, text), outcome(rat_reference, text)
        if got != want:
            out.append((text, got, want))
    return out
