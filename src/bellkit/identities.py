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

Each variant of a (v, alpha) plan or of a Bell convolution is one
identity between rational functions of tau; cleared of denominators, its
lhs - rhs is one integer coefficient vector in a falling-factorial basis
(:meth:`Th1Plan.difference`), computed once per plan and variant.  The
right side at each tau is an integer falling factorial over a known
denominator, and the left side is the right side plus that vector's value
at tau over the factor that cleared it.  When every coefficient is 0, the
identity holds at every tau and the left side is not computed: the plan
and variant's reports are one :class:`~bellkit.reports.ReportRun`, a
certificate whose ``params(tau)`` places tau and whose reports hold the
right side, one reduced ``Fraction``, as both ``lhs`` and ``rhs``.
Otherwise one Horner pass in integers gives each tau's excess, and each
report is a lone report that holds both sides, each reduced, and is
written whole, as is the one report of a single-tau check.  The
negative-one sum is added up in integers over one common denominator.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from math import comb, factorial, lcm
from typing import Callable

from .bell import bell_columns
from .partitions import IndexVector, enumerate_pi, strip_trailing_zeros
from .rationals import binomial_general, falling, rat, rat_str
from .reports import GridResult, IdentityReport, InputError, PoleError, ReportRun
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
    Nothing derived from these is stored: ``pole``, ``top`` and
    :meth:`difference` are computed at each read, so an edited copy
    evaluates as edited.
    """

    def __init__(self, support, alpha: AffineForm):
        self.v, self.n, self.k, self.h, terms = support
        self.alpha = alpha
        ratios = [c.as_integer_ratio() for c in (alpha.c0, alpha.c1, alpha.c2)]
        (p0, q0), (p1, q1), (p2, q2) = ratios
        self.d = d = lcm(q0, q1, q2)
        c0, c1, c2 = p0 * (d // q0), p1 * (d // q1), p2 * (d // q2)
        self.a00, self.akn = c0, c0 + c1 * self.k + c2 * self.n
        self.first = first = {}
        merged: dict[tuple[int, int], int] = {}
        for l, m, t in terms:
            a = c0 + c1 * l + c2 * m
            if a not in first:
                first[a] = (l, m)
            merged[l, a] = merged.get((l, a), 0) + t
        self.merged = tuple([(l, a, t) for (l, a), t in merged.items()])

    @property
    def pole(self) -> tuple[int, int] | None:
        return self.first.get(0)

    @property
    def top(self) -> int:
        """The weight at l = k, over ``h``: only m = n has weight there."""
        return sum(t for l, _, t in self.merged if l == self.k)

    def difference(self, variant: str) -> list[int]:
        """Variant A, B or C's lhs - rhs as integer coefficients in the basis
        [u]_i = u (u - d) ... (u - (i-1) d) of polynomials in u = d tau.

        The identity holds at every tau exactly when every coefficient is 0.
        It is multiplied by k! h d^k, and variant C's by akn (u - a00) more,
        which clears C's l = 0 tail and its right side's prefactor.  With
        C(a, r) = P / (d^r r!) at a = A/d, where P = falling(A, r, d), and
        r! C(k, l) j! = k! for r + j = k, a merged term (l, A, t) of A or B is
        then c [u - A]_j, where c = lead t P / A, r = k - l (r = l for B) and
        lead is akn for A and a00 for B.  For C, lead is d akn and r = k - l;
        as C(tau - a, l) / (tau - a) = (tau - a - 1)_{l-1} / l!, a term with
        l > 0 is u (u - a00) c [u - A - d]_{l-1}, and the l = 0 tail is c u.
        The Vandermonde convolution for falling factorials
        (Graham, Knuth and Patashnik, ch. 5) expands [u - S]_j as the sum
        over e of C(j, e) falling(-S, e, d) [u]_{j-e}.  P / A is falling(A -
        d, r - 1, d) for r > 0; at r = 0 the only weight sits at alpha(k, n)
        (alpha(0, 0) for B), where lead / A is an integer.  The right side is
        top [u]_k for A and B, and d top [u]_k (u - a00 + akn) for C.  C needs
        two products: (u - s) [u]_i = [u]_{i+1} + (i d - s) [u]_i, and u [u]_i
        likewise with s = 0.

        For integer alpha (d = 1) each coefficient is a polynomial of total
        degree at most k in (c0, c1, c2): lead (degree 1), P / A (r - 1) and
        the expansion of [u - S]_j (at most j) multiply to at most k, lead / A
        is 1 at r = 0, C's factor u - a00 lifts its l > 0 terms, which have
        j = l - 1, to at most k, and the right side has degree at most 1.
        Zero at k + 1 values of each of c0, c1 and c2 is then zero
        everywhere: zero vectors at c0 in 1..k+1 and c1, c2 in 0..k, where
        alpha >= 1 meets no pole, prove the identity for every affine alpha
        and every tau off its poles.

        Raises ValueError when a term at r = 0, or C's tail, sits at another
        alpha: only an edited plan has one.  Needs ``pole`` to be None.
        """
        k, d, akn, a00 = self.k, self.d, self.akn, self.a00
        lead = {"A": akn, "B": a00, "C": d * akn}[variant]
        out, tail = [0] * (k + 1), 0
        for l, num, t in self.merged:
            r = l if variant == "B" else k - l
            if r:
                c = lead * t * falling(num - d, r - 1, d)
            elif num == (a00 if variant == "B" else akn):
                c = lead // num * t
            else:
                raise ValueError(f"an edited plan: its term at l = {l} is off its alpha")
            if variant == "C":
                if l == 0:
                    if num != a00:
                        raise ValueError("an edited plan: its term at l = 0 is off its alpha")
                    tail += c
                    continue
                num, j = num + d, l - 1
            else:
                j = k - r
            for e in range(j + 1):  # c is now its first value times C(j, e) falling(-num, e, d)
                out[j - e] += c
                c = c * (j - e) * (-num - e * d) // (e + 1)
        if variant != "C":
            out[k] -= self.top
            return out
        # u ((u - a00) P + tail) - d top [u]_k (u - a00 + akn), for P = out
        cleared = [0] * (k + 1)
        for i, c in enumerate(out[:k]):
            cleared[i + 1] += c
            cleared[i] += (d * i - a00) * c
        cleared[0] += tail
        diff = [0] * (k + 2)
        for i, c in enumerate(cleared):
            diff[i + 1] += c
            diff[i] += d * i * c
        diff[k + 1] -= d * self.top
        diff[k] -= d * self.top * (d * k - a00 + akn)
        return diff

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


def _right_sides(plan: Th1Plan, variant: str, taus) -> list[tuple[Fraction, Fraction]]:
    """(tau, the right side of variant A, B or C there) for each tau.

    The right side is C(tau, k) = falling(p, k, q) / (q^k k!) at tau = p/q,
    times the weight ``top`` over ``plan.h``; for C, times d (x + akn q) /
    (akn x), with x = p d - a00 q.
    """
    k, d, top, fkh = plan.k, plan.d, plan.top, factorial(plan.k) * plan.h
    sides = []
    for tau in taus:
        p, q = tau.numerator, tau.denominator
        rn, rd = falling(p, k, q) * top, q**k * fkh
        if variant == "C":
            x = p * d - plan.a00 * q
            rn, rd = rn * d * (x + plan.akn * q), rd * plan.akn * x
        sides.append((tau, Fraction(rn, rd)))
    return sides


def _th1_run(plan: Th1Plan, variant: str, sides, name: str, params,
             skipped=()) -> ReportRun | list[IdentityReport]:
    """The reports ``name`` with ``params(tau)`` and ``skipped`` poles of
    variant A, B or C at each (tau, right side) of ``sides``, from
    :func:`_right_sides` at pole-free taus: a run when they all pass, and
    otherwise a list of lone reports, in the order of ``sides``.

    The left side is the right side plus ``plan.difference(variant)`` at
    u = d tau over the factor that cleared it: k! h d^k, and for C also akn
    (u - a00).  A zero vector makes the right side both sides at every tau,
    which the run certifies.  Otherwise one Horner pass in the falling
    basis, where u - i d = d (p - i q) / q at tau = p/q, gives the vector's
    value times q^K for its degree K; over q^k k! h d^k, and for C akn
    (p d - a00 q) more, that is the excess.
    """
    diff = plan.difference(variant)
    if not any(diff):
        return ReportRun(name, params, sides, skipped)
    k, d = plan.k, plan.d
    clear = factorial(k) * plan.h * d**k
    reports = []
    for tau, rhs in sides:
        p, q = tau.numerator, tau.denominator
        num, power = 0, 1
        for i in reversed(range(len(diff))):
            num, power = num * d * (p - i * q) + diff[i] * power, power * q
        bottom = q**k * clear
        if variant == "C":
            bottom *= plan.akn * (p * d - plan.a00 * q)
        lhs = rhs + Fraction(num, bottom)
        reports.append(IdentityReport(name, params(tau), lhs, rhs, skipped))
    return reports


def _check_at(plan: Th1Plan, variant: str, tau: Fraction, name: str, params) -> IdentityReport:
    """The report ``name`` with ``params(tau)`` of variant A, B or C of
    ``plan`` at ``tau``, after :func:`_raise_at_pole`: the one report of
    :func:`_th1_run`."""
    _raise_at_pole(plan, variant, tau)
    return next(iter(_th1_run(plan, variant, _right_sides(plan, variant, [tau]), name, params)))


def check_th1(
    variant: str, v, alpha: AffineForm, tau, *, plan: Th1Plan | None = None
) -> IdentityReport:
    """Variant A, B or C of the parametrized binomial double sum.

    A and B equal the generalized binomial C(tau, k), where k = sum(v); C is
    their partial-fraction combination.  Raises :class:`PoleError` at the
    first pole, in the order of :func:`_raise_at_pole`.  ``plan``, if given,
    is ``th1_plan(v, alpha)``.
    """
    if variant not in TH1_VARIANTS:
        raise InputError(f"variant must be 'A', 'B' or 'C', got {variant!r}")
    plan = plan or th1_plan(v, alpha)
    return _check_at(plan, variant, rat(tau), f"th1{variant.lower()}", plan.params)


def check_hagen_rothe(variant: str, xp, yp, zp, k: int) -> IdentityReport:
    """Hagen-Rothe identities and their z = 0 Chu-Vandermonde case: sums over l
    of C(x + l*z, l) C(y + (k-l)*z, k-l), each term weighted by x/(x + l*z)
    (asymmetric), by that and y/(y + (k-l)*z) (symmetric), or by neither."""
    x, y, z = rat(xp), rat(yp), rat(zp)
    if type(k) is not int or k < 0:
        raise InputError(f"k must be {'nonnegative' if type(k) is int else 'an int'}, got {k!r}")
    if variant not in ("symmetric", "asymmetric", "chu_vandermonde"):
        raise InputError(f"unknown variant {variant!r}")
    chu, symmetric = variant == "chu_vandermonde", variant == "symmetric"
    if chu and z:
        raise InputError(f"chu_vandermonde is the z = 0 case, got z = {rat_str(z)}")
    total = x + y + k * z
    if symmetric and total == 0:
        raise PoleError("x + y + k*z = 0", where=("rhs",))
    lhs = Fraction(0)
    for l in range(k + 1):
        xl, yl = x + l * z, y + (k - l) * z
        term = binomial_general(xl, l) * binomial_general(yl, k - l)
        if not chu:
            if xl == 0:
                raise PoleError(f"x + {l}*z = 0", where=(l,))
            term *= x / xl
        if symmetric:
            if yl == 0:
                raise PoleError(f"y + {k - l}*z = 0", where=(l,))
            term *= y / yl
        lhs += term
    rhs = binomial_general(total, k) * ((x + y) / total if symmetric else 1)
    name = "chu-vandermonde" if chu else f"hagen-rothe-{variant}"
    params = {"variant": variant, "x": x, "y": y, "z": z, "k": k}
    return IdentityReport(name, params, lhs, rhs)


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
    # P / (d^k k!) and P = falling(A + (k-l)d, k, d)
    scale = lcm(*(a for _, a, _ in plan.merged))
    total = 0
    for l, a, w in plan.merged:
        term = falling(a + (k - l) * d, k, d) * w * (scale // a)
        total += -term if l % 2 else term
    lhs = Fraction(plan.a00 * total, scale * d**k * factorial(k))
    params = {"v": plan.v, "alpha": alpha, "n": plan.n, "k": k}
    passed_extra = True
    if alpha.c1 == 1 and alpha.c2 == 0:
        z = alpha.c0 + k
        if z.denominator == 1 and z > k:
            # sum over l of (-1)^(l-1) C(k, l) l / (z - k + l), over the lcm of its denominators
            low = z.numerator - k
            common = lcm(*range(low + 1, low + k + 1))
            recip = Fraction(
                sum((-1) ** (l - 1) * comb(k, l) * l * (common // (low + l))
                    for l in range(1, k + 1)),
                common,
            )
            expected = Fraction(1, comb(z.numerator, k))
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
    return _check_at(
        plan or bell_convolution_plan(n, k, alpha, x), CONVOLUTION_VARIANTS[variant], rat(tau),
        f"bell-convolution-{variant}",
        lambda tau: {"variant": variant, "n": n, "k": k, "alpha": alpha, "tau": tau, "x": x},
    )


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
    p, d = x.numerators, x.denominators  # x_j = p[j-1] / d[j-1]
    top = sum((comb(n, m) - k * comb(n - 1, m)) * p[n - m - 1] * num[k - 1][m]
              * (h[n] // (d[n - m - 1] * h[m])) for m in range(k - 1, n))
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


def tau_samples(
    count: int, first: dict, d: int, grid: list[Fraction] | None = None
) -> tuple[list[Fraction], list[tuple]]:
    """First ``count`` values of 0, 1/2, 1, 3/2, ... that are no pole A / d.

    ``first`` maps the integer numerator A of each pole value A / d to the
    (l, m) witnessing it, as :attr:`Th1Plan.first` does; skipped candidates
    are reported as (l, m, tau) triples.  The candidate i/2 equals A / d
    exactly when 2A = i*d, so it is matched by the integer i = 2A / d.
    ``grid``, if given, holds the candidate i/2 at index i and is extended
    as needed, so that a sweep makes each candidate once.
    """
    grid = [] if grid is None else grid
    halves = {2 * a // d: where for a, where in first.items() if 2 * a % d == 0}
    chosen: list[Fraction] = []
    skipped: list[tuple] = []
    i = 0
    while len(chosen) < count:
        if i == len(grid):
            grid.append(Fraction(i, 2))
        if i in halves:
            skipped.append((*halves[i], grid[i]))
        else:
            chosen.append(grid[i])
        i += 1
    return chosen, skipped


def certify_double_sums(vs, alphas, variant, tau=None) -> GridResult:
    """Check one variant at every (v, alpha): v-major, then alpha, then tau.

    ``variant`` is "A", "B" or "C" (a th1 double sum) or "negative-one";
    to check several, call once for each.  The result makes its runs and
    lone reports as they are read: per (v, alpha), a th1 variant's run, or
    its failing reports one by one, and negative-one's one report.  The
    support of one v and the :class:`Th1Plan` of one (v, alpha) are built
    when the sweep reaches them and dropped when it moves on.  Its counts
    and ``skipped_pairs`` grow as it is read.

    With ``tau`` None, a th1 variant is checked at 2k+2 pole-free tau
    values from :func:`tau_samples`: 0, 1/2, ..., k + 1/2 for A and B,
    while C skips its tau poles and records them on its reports.  A pair
    where alpha vanishes at a nonzero-weight (l, m) is recorded in
    ``skipped_pairs`` and not checked.  Each plan makes its reports from
    its right sides and :meth:`Th1Plan.difference`, as ``check_th1`` does at
    one tau: a zero vector proves every tau at once, and makes the run; a
    nonzero one gives each tau's left side, so a failing report shows where
    the sides differ.  With an explicit ``tau`` each pair is checked at
    ``tau`` alone, and a pole raises :class:`PoleError`.  Every error is
    raised by this call, before the first report: the variant and every v
    are validated, and then, with an explicit ``tau``, each plan's poles in
    the order the sweep meets them.
    """
    tau, alphas = None if tau is None else rat(tau), tuple(alphas)
    accepted = (*TH1_VARIANTS, "negative-one")
    if variant not in accepted:
        raise InputError(f"unknown variant {variant!r}, expected one of {accepted}")
    vnks = [_vnk(v) for v in vs]
    if tau is not None:
        # the sweep builds these plans again: keeping them would hold them all at once
        for plan in _plans(vnks, alphas):
            _raise_at_pole(plan, variant, tau)
    skipped_pairs: list[tuple] = []
    return GridResult(_sweep(vnks, alphas, variant, tau, skipped_pairs), skipped_pairs)


def _plans(vnks, alphas):
    """The :class:`Th1Plan` of each (v, alpha), v-major; one support per v."""
    for v, n, k in vnks:
        support = (v, n, k, 1, _w_support(v))
        for alpha in alphas:
            yield Th1Plan(support, alpha)


def _sweep(vnks, alphas, variant, tau, skipped_pairs):
    """The runs and lone reports of :func:`certify_double_sums`, over
    validated (v, n, k).

    Each plan is one :func:`_th1_run` at its taus, made with no pole check:
    the sampled taus avoid every pole, and ``certify_double_sums`` has
    raised an explicit tau's; a negative-one plan is one report.  The
    sampled taus are read from one ``grid`` of halves.  For A and B every
    plan of one k has the same taus, and the right sides there depend only
    on (k, top, h): they are made once per sweep.
    """
    grid: list[Fraction] = []
    sides: dict[tuple[int, int, int] | None, list[tuple[Fraction, Fraction]]] = {}
    for plan in _plans(vnks, alphas):
        if tau is None and plan.pole is not None:
            skipped_pairs.append((plan.v, plan.alpha, plan.pole))
            continue
        if variant == "negative-one":
            yield check_negative_one(plan.v, plan.alpha, plan=plan)
            continue
        key = None if variant == "C" else (plan.k, plan.top, plan.h)
        rights, skipped = sides.get(key), ()
        if rights is None:
            taus = [tau]
            if tau is None:
                taus, skipped = tau_samples(
                    2 * plan.k + 2, plan.first if variant == "C" else {}, plan.d, grid
                )
            rights = _right_sides(plan, variant, taus)
            if key is not None:
                sides[key] = rights
        run = _th1_run(plan, variant, rights, f"th1{variant.lower()}", plan.params,
                       tuple(skipped))
        yield from (run,) if type(run) is ReportRun else run


def grid_vs(n: int, k: int | None = None) -> list[IndexVector]:
    """Every v with weighted sum n and entry sum k (every k in 1..n if None)."""
    ks = range(1, n + 1) if k is None else (k,)
    return [strip_trailing_zeros(v) for j in ks for v in enumerate_pi(n, j, n)]
