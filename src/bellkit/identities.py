"""Exact certification of binomial-sum and Bell-convolution identities.

Every checker evaluates both sides of one identity instance in exact
rational arithmetic and returns an :class:`~bellkit.reports.IdentityReport`
whose ``passed`` flag is the exact equality ``lhs == rhs``.  Nothing is
approximate: a report either certifies the instance or exhibits the two
differing values.  The report, grid and error types live in
:mod:`bellkit.reports`.

The identity families:

* vanishing alternating sums against low-degree polynomials,
* the two parametrized binomial double sums (variants A and B) with an
  affine weight alpha(l, m), their partial-fraction combination, and the
  classical Hagen-Rothe / Chu-Vandermonde and reciprocal-binomial
  specializations,
* the abstract version with caller-supplied weight polynomials p(m, l, tau),
* the convolution formulas for partial Bell polynomials: the double sums
  above with the weight W(m, l; v) replaced by C(n, m) B(m, l) B(n-m, k-l),
  evaluated by the same code; and the constant-alpha splitting identity,
  whose two sides are the same weights at l = k and at l = k - r, and whose
  values at x_j = (j-1)! and x_j = 1 are the Stirling recurrences.

Pole policy: a summation term is *absent* when its weight (the
binomial-product coefficient, or the Bell-polynomial product) vanishes;
a vanishing denominator at a term that is actually present raises
:class:`~bellkit.reports.PoleError` rather than producing a bogus report.
The grid certifier skips and records pole parameter values instead of
erroring.

The double sums and the negative-one sum are added up in integers.  Every
term is an integer over a denominator known before the sum starts: the
denominator of its tau-independent factor times a power of q*d, where q is
tau's denominator and d the common denominator of alpha's coefficients.
One common denominator, the ``math.lcm`` of the factors' denominators
times the highest power of q*d, is a multiple of each term's, so each term
scaled to it has an exact integer numerator.  Adding integers rounds
nothing: their total over that denominator is the exact sum.  The right
side is an integer numerator over a denominator too, and the two sides are
compared by cross-multiplying.  A passing report holds one reduced
``Fraction``, the right side, as both ``lhs`` and ``rhs``; a failing one
holds both sides, each reduced.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from math import comb, factorial, gcd, lcm, prod
from typing import Callable

from .bell import bell_columns
from .partitions import IndexVector, enumerate_pi, strip_trailing_zeros
from .rationals import binomial_general, falling, rat, rat_str
from .reports import GridResult, IdentityReport, InputError, PoleError
from .sequences import SequenceSpec, factorials, ones
from .sparsepoly import SparsePoly


@dataclass(frozen=True)
class AffineForm:
    """An affine weight alpha(l, m) = c0 + c1*l + c2*m with rational coefficients."""

    c0: Fraction
    c1: Fraction = Fraction(0)
    c2: Fraction = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "c0", rat(self.c0))
        object.__setattr__(self, "c1", rat(self.c1))
        object.__setattr__(self, "c2", rat(self.c2))

    def __call__(self, l, m) -> Fraction:
        return self.c0 + self.c1 * l + self.c2 * m

    @classmethod
    def parse(cls, text: str) -> "AffineForm":
        """Parse "c0,c1,c2" (missing trailing coefficients default to 0; an empty one is refused)."""
        parts = [p.strip() for p in text.split(",")]
        if not 1 <= len(parts) <= 3 or "" in parts:
            raise InputError(f"expected 1-3 comma-separated rationals, got {text!r}")
        coeffs = [rat(p) for p in parts] + [Fraction(0)] * (3 - len(parts))
        return cls(*coeffs)

    def describe(self) -> str:
        """alpha as text, such as "5 + 2*l - m"; computed once per object."""
        return self._text

    @cached_property
    def _text(self) -> str:
        pieces = []
        if self.c0 or not (self.c1 or self.c2):
            pieces.append(rat_str(self.c0))
        for c, name in ((self.c1, "l"), (self.c2, "m")):
            if c == 1:
                pieces.append(f"+ {name}")
            elif c == -1:
                pieces.append(f"- {name}")
            elif c:
                sign = "-" if c < 0 else "+"
                pieces.append(f"{sign} {rat_str(abs(c))}*{name}")
        text = " ".join(pieces)
        return text[2:] if text.startswith("+ ") else text


#: the affine forms used by the stock certification grid
DEFAULT_ALPHAS: tuple[AffineForm, ...] = (
    AffineForm(1),
    AffineForm(1, 1),
    AffineForm(1, 0, 1),
    AffineForm(1, 1, 1),
    AffineForm(5, 2, -1),
)


def _vnk(v) -> tuple[IndexVector, int, int]:
    v = strip_trailing_zeros(int(e) for e in v)
    if not v or any(e < 0 for e in v):
        raise InputError(f"v must be nonzero with nonnegative entries, got {v}")
    k = sum(v)
    n = sum(j * e for j, e in enumerate(v, start=1))
    return v, n, k


def check_vanishing_sum(v, P: SparsePoly) -> IdentityReport:
    """Alternating binomial sum of P over the box [0,v_1] x ... x [0,v_d].

    The sum vanishes for every polynomial P of total degree below
    v_1 + ... + v_d; the checker refuses inputs above that degree bound
    (the identity genuinely fails there).
    """
    v = tuple(int(e) for e in v)
    if any(e < 0 for e in v):
        raise InputError(f"entries must be nonnegative, got {v}")
    bound = sum(v)
    if P.total_degree() >= bound:
        raise InputError(
            f"polynomial degree {P.total_degree()} is not below sum(v) = {bound}"
        )
    if P.max_index() > len(v):
        raise InputError(
            f"polynomial uses x_{P.max_index()} but v has only {len(v)} entries"
        )
    # over the box, each term of P is a product of one sum per coordinate
    total = Fraction(0)
    for exps, coeff in P.terms.items():
        for vj, e in itertools.zip_longest(v, exps, fillvalue=0):
            coeff *= sum((-1) ** i * comb(vj, i) * i**e for i in range(vj + 1))
        total += coeff
    return IdentityReport(
        "vanishing-sum",
        {"v": v, "P": P, "degree": P.total_degree()},
        total,
        0,
    )


def vanishing_sum_monomials(v):
    """Exponents of every monomial of total degree below sum(v) in len(v)
    variables, by ascending degree: the polynomials the vanishing sum kills."""

    def of_degree(dim: int, degree: int):
        if dim == 1:
            yield (degree,)
            return
        for e in range(degree + 1):
            for rest in of_degree(dim - 1, degree - e):
                yield (e,) + rest

    for degree in range(sum(v)):
        yield from of_degree(len(v), degree)


def _w_support(v: IndexVector) -> tuple[tuple[int, int, int], ...]:
    """(l, m, W(m, l; v)) for every nonzero W, l-major and m-minor.

    W(m, l; v) is the coefficient of s^l t^m in prod_j (1 + s t^j)^{v_j}:
    expanding the j-th factor picks i_j of its v_j terms s t^j in
    C(v_j, i_j) ways.  The coefficients are positive, so none is dropped.
    """
    poly = {(0, 0): 1}
    for j, vj in enumerate(v, start=1):
        row = [comb(vj, i) for i in range(vj + 1)]
        out: dict[tuple[int, int], int] = {}
        for (l, m), c in poly.items():
            for i, b in enumerate(row):
                key = (l + i, m + i * j)
                out[key] = out.get(key, 0) + c * b
        poly = out
    return tuple((l, m, w) for (l, m), w in sorted(poly.items()))


class Th1Plan:
    """The tau-independent part of the double sums at one (v, alpha).

    ``support`` is (v, n, k, h, its (l, m, t) triples of nonzero integer t):
    the weight t / h is W(m, l; v) over h = 1 in :func:`th1_plan`, and
    C(n, m) B(m, l) B(n-m, k-l) over the Bell row denominator h_n, with v
    None, in :func:`bell_convolution_plan`.  alpha is evaluated in
    integers: alpha(l, m) = A / d, where d is the common denominator of
    alpha's coefficients and A an integer numerator; ``a00`` and ``akn`` are
    the A of alpha(0, 0) and alpha(k, n).  Summation terms with equal
    (l, alpha(l, m)) differ only in their weight, so they are merged, in
    first-appearance order, into one term (l, A, t) of ``merged`` carrying
    the summed t; the sums are exact, so merging cannot change a value.
    ``first`` maps each A that alpha takes on the support to the first
    (l, m), l-major and m-minor, taking it; ``pole`` is its (l, m) at A = 0,
    where alpha vanishes at nonzero weight (None if there is none).
    Nothing derived from these is stored: ``pole`` and :meth:`coefficients`
    are computed at each read, so an edited copy evaluates as edited.
    """

    def __init__(self, support, alpha: AffineForm):
        self.v, self.n, self.k, self.h, terms = support
        self.alpha = alpha
        coeffs = (alpha.c0, alpha.c1, alpha.c2)
        self.d = d = lcm(*(c.denominator for c in coeffs))
        c0, c1, c2 = (c.numerator * (d // c.denominator) for c in coeffs)
        self.a00, self.akn = c0, c0 + c1 * self.k + c2 * self.n
        self.first: dict[int, tuple[int, int]] = {}
        merged: dict[tuple[int, int], int] = {}
        for l, m, t in terms:
            a = c0 + c1 * l + c2 * m
            self.first.setdefault(a, (l, m))
            merged[l, a] = merged.get((l, a), 0) + t
        self.merged = tuple((l, a, t) for (l, a), t in merged.items())

    @property
    def pole(self) -> tuple[int, int] | None:
        return self.first.get(0)

    def coefficients(self, variant: str) -> tuple[int, int, list, list]:
        """Variant A, B or C as integers: (L, J, terms, tails).

        Each term (A, j, w) adds (w / L) * (tau - A/d)_j, where (t)_j is the
        falling factorial t(t-1)...(t-j+1) and J is the largest j; each tail
        (A, w), variant C's l = 0 term, adds (w / L) / (tau - A/d).  Variants
        A and B sum c * C(tau - a, j) over the merged terms whose
        tau-independent factor c is nonzero, with j! folded into w.  Variant
        C is tau times the sum of c * C(tau - a, l) / (tau - a); for l > 0
        that term is (c / l) * C(tau - a - 1, l - 1), so it needs no division
        by tau - a.  Needs ``pole`` to be None; computed anew at each call.

        With C(a, r) = P / (d^r r!), where P = A (A - d) ... (A - (r-1)d),
        and r! C(k, l) j! = k! for r + j = k, each c / j! (c / l! for C) is
        one quotient lead * P t / (A d^r k! h) for a merged weight t / h,
        where lead is d * alpha(k, n) for A, d * alpha(0, 0) for B (with
        r = l) and d for C (r = k - l); each quotient is reduced by its gcd
        and L is the lcm of what is left.
        """
        k, d, fkh = self.k, self.d, factorial(self.k) * self.h
        lead = {"A": self.akn, "B": self.a00, "C": d}[variant]
        terms, tails = [], []
        for l, num, t in self.merged:
            r = l if variant == "B" else k - l
            top = lead * falling(num, r, d) * t
            if not top:
                continue
            bottom = num * d**r * fkh
            c = (top // (g := gcd(top, bottom)), bottom // g)
            if variant != "C":
                terms.append((num, k - r, c))
            elif l == 0:
                tails.append((num, c))
            else:
                terms.append((num + d, l - 1, c))
        scale = lcm(*(c[1] for *_, c in terms + tails))
        return (
            scale,
            max((j for _, j, _ in terms), default=0),
            [(num, j, top * (scale // bottom)) for num, j, (top, bottom) in terms],
            [(num, top * (scale // bottom)) for num, (top, bottom) in tails],
        )

    def params(self, tau: Fraction) -> dict:
        return {"v": self.v, "alpha": self.alpha, "tau": tau, "n": self.n, "k": self.k}


def th1_plan(v, alpha: AffineForm) -> Th1Plan:
    """The plan of one (v, alpha); reuse it for every tau and variant there."""
    v, n, k = _vnk(v)
    return Th1Plan((v, n, k, 1, _w_support(v)), alpha)


def _raise_at_pole(plan: Th1Plan, variant: str | None = None, tau: Fraction | None = None) -> None:
    """Raise :class:`PoleError` at the first pole of ``variant`` at ``tau``.

    The order: for variant C, alpha(k, n) = 0 and then tau = alpha(0, 0);
    then the first (l, m) where alpha is 0 or (for variant C) equal to tau.
    Any other variant has only alpha's poles.  tau = p/q equals alpha = A/d
    exactly when p*d = A*q.
    """
    if variant == "C":
        p, q = tau.numerator, tau.denominator
        pd = p * plan.d
        if plan.akn == 0:
            raise PoleError(f"alpha({plan.k},{plan.n}) = 0", where=(plan.k, plan.n))
        if pd == plan.a00 * q:
            raise PoleError(f"tau = alpha(0,0) = {rat_str(tau)}", where=(0, 0))
        # the first contributing (l, m) where alpha is 0 or tau decides the error
        hit = None if pd % q else plan.first.get(pd // q)
        if hit is not None and (plan.pole is None or hit < plan.pole):
            l, m = hit
            raise PoleError(f"alpha({l},{m}) = tau = {rat_str(tau)}", where=hit)
    if plan.pole is not None:
        l, m = plan.pole
        raise PoleError(f"alpha({l},{m}) = 0", where=plan.pole)


def _th1_reports(plan: Th1Plan, variant: str, taus, name: str, params, skipped=()):
    """The report ``name`` with ``params(tau)`` of variant A, B or C at each tau.

    Each tau first raises :class:`PoleError` at its first pole, in the order
    of :func:`_raise_at_pole`.  The left side sums the terms of one call to
    ``plan.coefficients(variant)`` in integers: times q*d, tau - A/d - i is
    p*d - A*q - i*q*d at tau = p/q.  The right side is C(tau, k) =
    falling(p, k, q) / (q^k k!) times the weight at l = k, an integer over
    ``plan.h``; for C, times d (x + akn q) / (akn x), with x = p d - a00 q.
    The sides are compared by cross-multiplying; when equal, one reduced
    ``Fraction`` is both ``lhs`` and ``rhs``.  The reports share one ``run``
    object, so the writer renders their fixed text once.
    """
    k, d, fkh = plan.k, plan.d, factorial(plan.k) * plan.h
    if plan.pole is None:  # with an alpha pole there are none, and the first tau raises
        scale, j_max, terms, tails = plan.coefficients(variant)
    run = object()
    # at l = k only m = n has weight: W(n, k; v) = 1, C(n, n) B(n, k) B(0, 0) = B(n, k),
    # each an integer over plan.h
    top = sum(w for l, _, w in plan.merged if l == k)
    for tau in taus:
        _raise_at_pole(plan, variant, tau)
        p, q = tau.numerator, tau.denominator
        pd, step = p * d, q * d
        powers = [step**i for i in range(j_max + 1)]
        ln = 0
        for num, j, w in terms:
            x = pd - num * q
            for _ in range(j):
                w *= x
                x -= step
            ln += w * powers[j_max - j]
        ld = scale * powers[j_max]
        for num, w in tails:
            x = pd - num * q
            ln, ld = ln * scale * x + w * step * ld, ld * scale * x
        rn, rd = falling(p, k, q) * top, q**k * fkh
        if variant == "C":
            ln, ld = p * ln, q * ld
            x = pd - plan.a00 * q
            rn, rd = rn * d * (x + plan.akn * q), rd * plan.akn * x
        if ln * rd == rn * ld:
            lhs = rhs = Fraction(rn, rd)
        else:
            lhs, rhs = Fraction(ln, ld), Fraction(rn, rd)
        report = IdentityReport(name, params(tau), lhs, rhs)
        report.skipped_poles = skipped
        report.run = run
        yield report


def check_th1(
    variant: str, v, alpha: AffineForm, tau, *, plan: Th1Plan | None = None
) -> IdentityReport:
    """Variant A or B of the parametrized binomial double sum.

    Both variants equal the generalized binomial C(tau, k), where
    k = sum(v).  Raises :class:`PoleError` when alpha vanishes at a
    contributing (l, m).  ``plan``, if given, is ``th1_plan(v, alpha)``.
    """
    if variant not in ("A", "B"):
        raise InputError(f"variant must be 'A' or 'B', got {variant!r}")
    plan = plan or th1_plan(v, alpha)
    return next(_th1_reports(plan, variant, [rat(tau)], f"th1{variant.lower()}", plan.params))


def check_th1c(
    v, alpha: AffineForm, tau, *, plan: Th1Plan | None = None
) -> IdentityReport:
    """Partial-fraction combination of the two double-sum variants.

    ``plan``, if given, is ``th1_plan(v, alpha)``.
    """
    plan = plan or th1_plan(v, alpha)
    return next(_th1_reports(plan, "C", [rat(tau)], "th1c", plan.params))


def check_hagen_rothe(variant: str, xp, yp, zp, k: int) -> IdentityReport:
    """Hagen-Rothe convolution identities and their z = 0 Chu-Vandermonde case."""
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


def check_negative_one(
    v, alpha: AffineForm, *, plan: Th1Plan | None = None
) -> IdentityReport:
    """The alternating double sum that collapses to the constant 1.

    When alpha(l, m) = l + c0 with z = c0 + k an integer above k, the same
    instance yields the reciprocal-binomial expansion of 1/C(z, k), which is
    then verified as well.  ``plan``, if given, is ``th1_plan(v, alpha)``.
    """
    plan = plan or th1_plan(v, alpha)
    _raise_at_pole(plan)
    k, d = plan.k, plan.d
    # each term is (-1)^l d alpha(0,0) P w / (A d^k k!), with C(a + k - l, k) =
    # P / (d^k k!) and P = (A + (k-l)d)(A + (k-l-1)d)...(A + (1-l)d)
    scale = lcm(*(a for _, a, _ in plan.merged))
    total = 0
    for l, a, w in plan.merged:
        total += (-1) ** l * prod(a + (k - l - i) * d for i in range(k)) * w * (scale // a)
    lhs = Fraction(plan.a00 * total, scale * d**k * factorial(k))
    params = {"v": plan.v, "alpha": alpha, "n": plan.n, "k": k}
    passed_extra = True
    if alpha.c1 == 1 and alpha.c2 == 0:
        z = alpha.c0 + k
        if z.denominator == 1 and z > k:
            recip = sum(
                (
                    Fraction((-1) ** (l - 1) * comb(k, l) * l, 1) / (z - k + l)
                    for l in range(1, k + 1)
                ),
                Fraction(0),
            )
            expected = Fraction(1) / binomial_general(z.numerator, k)
            params["z"] = z
            params["reciprocal_lhs"] = recip
            params["reciprocal_rhs"] = expected
            passed_extra = recip == expected
    report = IdentityReport("negative-one", params, lhs, 1)
    report.passed = report.passed and passed_extra
    return report


def check_general_binomial(v, p: Callable, gamma_k, tau) -> IdentityReport:
    """Abstract double sum with caller-supplied weight polynomials p(m, l, tau).

    The caller asserts the degree hypotheses on p (not machine-checkable for
    an opaque callable) and supplies gamma_k, the coefficient of tau^k in
    (-1)^k p(n, k, tau).  A failing report therefore does not localize which
    hypothesis was violated.
    """
    v, n, k = _vnk(v)
    tau = rat(tau)
    gamma_k = rat(gamma_k)
    lhs = Fraction(0)
    for l, m, w in _w_support(v):
        lhs += Fraction((-1) ** l, factorial(k)) * rat(p(m, l, tau)) * w
    rhs = gamma_k * binomial_general(tau, k)
    return IdentityReport(
        "general-binomial",
        {
            "v": v,
            "p": getattr(p, "__name__", "<callable>"),
            "gamma_k": gamma_k,
            "tau": tau,
            "n": n,
            "k": k,
        },
        lhs,
        rhs,
    )


def th1a_weight(v, alpha: AffineForm) -> Callable:
    """The p(m, l, tau) that reproduces variant A inside the abstract sum."""
    v, n, k = _vnk(v)

    def p(m, l, tau):
        a = alpha(l, m)
        if a == 0:
            raise PoleError(f"alpha({l},{m}) = 0", where=(l, m))
        return (
            (-1) ** l
            * factorial(k)
            * (alpha(k, n) / a)
            * binomial_general(a, k - l)
            * binomial_general(rat(tau) - a, l)
            / comb(k, l)
        )

    p.__name__ = f"th1a_weight(alpha = {alpha.describe()})"
    return p


#: each Bell convolution and the double-sum variant it specialises
CONVOLUTION_VARIANTS = {"cor33_first": "A", "cor33_second": "B", "cor34": "C"}


def _bell_weights(n: int, k: int, ls, x: SequenceSpec) -> tuple[int, tuple]:
    """h_n and each nonzero (l, m, t), l in ``ls``: C(n, m) B(m, l) B(n-m, k-l) = t / h_n at x."""
    x.require(n)
    # B(m, l) = num[l][m] / h[m], and h[m] h[n-m] divides h[n]
    num, h = bell_columns(x, n)
    return h[n], tuple(
        (l, m, comb(n, m) * (h[n] // (h[m] * h[n - m])) * top)
        for l in ls
        for m in range(l, n + 1)
        if (top := num[l][m] * num[k - l][n - m])
    )


def bell_convolution_plan(n: int, k: int, alpha: AffineForm, x: SequenceSpec) -> Th1Plan:
    """The plan of the Bell convolutions at (n, k, alpha, x); reuse it for every variant."""
    if not 1 <= k <= n:
        raise InputError(f"need 1 <= k <= n, got k={k}, n={n}")
    return Th1Plan((None, n, k, *_bell_weights(n, k, range(k + 1), x)), alpha)


def check_bell_convolution(
    variant: str, n: int, k: int, alpha: AffineForm, tau, x: SequenceSpec,
    *, plan: Th1Plan | None = None,
) -> IdentityReport:
    """Convolution of two partial Bell polynomials against a single one.

    Each variant is the double sum that :data:`CONVOLUTION_VARIANTS` names
    for it, with the weight W(m, l; v) replaced by C(n, m) B(m, l)
    B(n-m, k-l), so it shares that sum's terms, pole order and right side:
    ``cor33_first`` and ``cor33_second`` equal C(tau, k) * B(n, k), and
    ``cor34`` is the partial-fraction version with variant C's prefactor.
    ``plan``, if given, is ``bell_convolution_plan(n, k, alpha, x)``.
    """
    if variant not in CONVOLUTION_VARIANTS:
        raise InputError(
            f"variant must be one of {tuple(CONVOLUTION_VARIANTS)}, got {variant!r}"
        )
    plan = plan or bell_convolution_plan(n, k, alpha, x)
    params = {"variant": variant, "n": n, "k": k, "alpha": alpha, "tau": rat(tau), "x": x}
    sums = _th1_reports(plan, CONVOLUTION_VARIANTS[variant], [params["tau"]],
                        f"bell-convolution-{variant}", lambda tau: params)
    return next(sums)


def _splitting(n: int, k: int, r: int, x: SequenceSpec) -> tuple[Fraction, Fraction]:
    """Both sides of C(k, r) B(n, k) = sum_m C(n, m) B(m, k-r) B(n-m, r) at x.

    Each side adds the Bell convolution weights at one l; at l = k only
    m = n has weight, and it is B(n, k).
    """
    h, weights = _bell_weights(n, k, (k - r, k), x)
    lhs = comb(k, r) * sum(t for l, _, t in weights if l == k)
    return Fraction(lhs, h), Fraction(sum(t for l, _, t in weights if l < k), h)


def check_alpha_constant(n: int, k: int, r: int, x: SequenceSpec) -> IdentityReport:
    """Splitting identity C(k, r) B(n, k) = sum_m C(n, m) B(m, k-r) B(n-m, r)."""
    if not 0 < r <= k <= n:
        raise InputError(f"need 0 < r <= k <= n, got r={r}, k={k}, n={n}")
    return IdentityReport(
        "alpha-constant", {"n": n, "k": k, "r": r, "x": x}, *_splitting(n, k, r, x)
    )


def check_zerosum(n: int, k: int, x: SequenceSpec) -> IdentityReport:
    """The weighted sum that cancels to zero term group by term group:

        sum_{m=k-1}^{n-1} [ C(n, m)/k - C(n-1, m) ] x_{n-m} B(m, k-1) = 0.
    """
    if not 1 <= k <= n or n < 2:
        raise InputError(f"need 1 <= k <= n and n >= 2, got k={k}, n={n}")
    x.require(n - k + 1)
    # x_{n-m} B(m, k-1) = x_{n-m} num[k-1][m] / h[m], and d_{n-m} h[m] divides h[n]
    num, h = bell_columns(x, n)
    top = sum((comb(n, m) - k * comb(n - 1, m)) * x[n - m].numerator * num[k - 1][m]
              * (h[n] // (x[n - m].denominator * h[m])) for m in range(k - 1, n))
    return IdentityReport("zerosum", {"n": n, "k": k, "x": x}, Fraction(top, k * h[n]), 0)


def check_stirling_recurrence(n: int, k: int, r: int, kind: str) -> IdentityReport:
    """The splitting identity at x_j = (j-1)! (first kind) or x_j = 1 (second)."""
    if not 0 < r <= k <= n:
        raise InputError(f"need 0 < r <= k <= n, got r={r}, k={k}, n={n}")
    if kind not in ("first", "second"):
        raise InputError(f"kind must be 'first' or 'second', got {kind!r}")
    x = factorials(n) if kind == "first" else ones(n)
    return IdentityReport(
        "stirling-recurrence",
        {"n": n, "k": k, "r": r, "kind": kind},
        *_splitting(n, k, r, x),
    )


# --- grid certification -----------------------------------------------------

TH1_VARIANTS = ("A", "B", "C")


def tau_samples(count: int, first: dict, d: int) -> tuple[list[Fraction], list[tuple]]:
    """First ``count`` values of 0, 1/2, 1, 3/2, ... that are no pole A / d.

    ``first`` maps the integer numerator A of each pole value A / d to the
    (l, m) witnessing it, as :attr:`Th1Plan.first` does; skipped candidates
    are reported as (l, m, tau) triples.  The candidate i/2 equals A / d
    exactly when 2A = i*d, so it is matched by the integer i = 2A / d.
    """
    halves = {2 * a // d: where for a, where in first.items() if 2 * a % d == 0}
    chosen: list[Fraction] = []
    skipped: list[tuple] = []
    i = 0
    while len(chosen) < count:
        if i in halves:
            skipped.append((*halves[i], Fraction(i, 2)))
        else:
            chosen.append(Fraction(i, 2))
        i += 1
    return chosen, skipped


def certify_double_sums(vs, alphas, variants=TH1_VARIANTS, tau=None) -> GridResult:
    """Check each variant at every (v, alpha): v-major, then alpha, variant, tau.

    ``variants`` holds "A", "B", "C" (the th1 double sums) and
    "negative-one".  The result makes its reports as they are read: the
    support of one v and the :class:`Th1Plan` of one (v, alpha) are built
    when the sweep reaches them and dropped when it moves on, and each th1
    variant of a plan runs at all its taus through the evaluator that
    ``check_th1`` and ``check_th1c`` use.  Its counts and ``skipped_pairs``
    grow as it is read.

    With ``tau`` None, each th1 variant is checked at 2k+2 pole-free tau
    values from :func:`tau_samples`; variant C's tau poles are skipped and
    recorded on its reports, and a pair where alpha vanishes at a
    nonzero-weight (l, m) is recorded in ``skipped_pairs`` and not checked.
    With an explicit ``tau`` every pair is checked there, and a pole raises
    :class:`PoleError`.  Every error is raised by this call, before the
    first report: each variant and each v is validated, and with an
    explicit ``tau`` each plan's poles are checked, in the order the sweep
    meets them.
    """
    tau = None if tau is None else rat(tau)
    alphas, variants = tuple(alphas), tuple(variants)
    accepted = (*TH1_VARIANTS, "negative-one")
    for variant in variants:
        if variant not in accepted:
            raise InputError(f"unknown variant {variant!r}, expected one of {accepted}")
    vnks = []
    for v in vs:
        vnks.append(_vnk(v))
        if tau is not None:
            # the sweep builds these plans again: keeping them would hold them all at once
            support = (*vnks[-1], 1, _w_support(vnks[-1][0]))
            for alpha in alphas:
                plan = Th1Plan(support, alpha)
                for variant in variants:
                    _raise_at_pole(plan, variant, tau)
    skipped_pairs: list[tuple] = []
    return GridResult(_sweep(vnks, alphas, variants, tau, skipped_pairs), skipped_pairs)


def _sweep(vnks, alphas, variants, tau, skipped_pairs):
    """The reports of :func:`certify_double_sums`, over validated (v, n, k)."""
    sampled = tau is None and any(variant in TH1_VARIANTS for variant in variants)
    taus, skipped = [tau], ()
    for v, n, k in vnks:
        support = (v, n, k, 1, _w_support(v))
        for alpha in alphas:
            plan = Th1Plan(support, alpha)
            if tau is None and plan.pole is not None:
                skipped_pairs.append((v, alpha, plan.pole))
                continue
            if sampled:
                first = plan.first if "C" in variants else {}
                taus, skipped = tau_samples(2 * k + 2, first, plan.d)
                skipped = tuple(skipped)
            for variant in variants:
                if variant == "negative-one":
                    yield check_negative_one(v, alpha, plan=plan)
                else:
                    yield from _th1_reports(
                        plan, variant, taus, f"th1{variant.lower()}", plan.params,
                        skipped if variant == "C" else (),
                    )


def grid_vs(n: int, k: int | None = None) -> list[IndexVector]:
    """Every v with weighted sum n and entry sum k (every k in 1..n if None)."""
    ks = range(1, n + 1) if k is None else (k,)
    return [strip_trailing_zeros(v) for j in ks for v in enumerate_pi(n, j, n)]
