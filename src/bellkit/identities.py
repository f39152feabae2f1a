"""Exact certification of binomial-sum and Bell-convolution identities.

Every checker evaluates both sides of one identity instance in exact
rational arithmetic and returns an :class:`IdentityReport` whose ``passed``
flag is the exact equality ``lhs == rhs``.  Nothing is approximate: a
report either certifies the instance or exhibits the two differing values.

The identity families:

* vanishing alternating sums against low-degree polynomials,
* the two parametrized binomial double sums (variants A and B) with an
  affine weight alpha(l, m), their partial-fraction combination, and the
  classical Hagen-Rothe / Chu-Vandermonde and reciprocal-binomial
  specializations,
* the abstract version with caller-supplied weight polynomials p(m, l, tau),
* the convolution formulas for partial Bell polynomials obtained from the
  above, including the constant-alpha splitting identity and the Stirling
  recurrences it implies.

Pole policy: a summation term is *absent* when its weight (the
binomial-product coefficient, or the Bell-polynomial product) vanishes;
a vanishing denominator at a term that is actually present raises
:class:`PoleError` rather than producing a bogus report.  Grid certifiers
avoid and record pole parameter values instead of erroring.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, factorial
from typing import Callable

from .bell import bell_table, stirling1_unsigned, stirling2
from .partitions import IndexVector, enumerate_pi, strip_trailing_zeros, w_coefficient
from .rationals import binomial_general, rat, rat_str
from .sequences import SequenceSpec
from .sparsepoly import SparsePoly


class PoleError(ValueError):
    """A denominator vanished at a contributing summation term."""

    def __init__(self, message: str, where=None):
        super().__init__(message)
        self.where = where


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
        """Parse "c0,c1,c2" (missing trailing coefficients default to 0)."""
        parts = [p.strip() for p in text.split(",") if p.strip()]
        if not 1 <= len(parts) <= 3:
            raise ValueError(f"expected 1-3 comma-separated rationals, got {text!r}")
        coeffs = [rat(p) for p in parts] + [Fraction(0)] * (3 - len(parts))
        return cls(*coeffs)

    def describe(self) -> str:
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


@dataclass
class IdentityReport:
    """Outcome of one identity check at one parameter point."""

    name: str
    params: dict
    lhs: Fraction
    rhs: Fraction
    passed: bool
    skipped_poles: tuple = ()

    def to_json_obj(self) -> dict:
        return {
            "identity": self.name,
            "params": {k: _jsonable(v) for k, v in self.params.items()},
            "lhs": rat_str(self.lhs),
            "rhs": rat_str(self.rhs),
            "pass": self.passed,
            "skipped_poles": [list(map(_jsonable, t)) for t in self.skipped_poles],
        }


def _jsonable(value):
    if isinstance(value, Fraction):
        return rat_str(value)
    if isinstance(value, (tuple, list)):
        return [_jsonable(v) for v in value]
    if isinstance(value, AffineForm):
        return value.describe()
    if isinstance(value, SequenceSpec):
        return value.to_json_obj()
    if isinstance(value, SparsePoly):
        return repr(value)
    return value


def _report(name, params, lhs, rhs, skipped=()) -> IdentityReport:
    lhs, rhs = Fraction(lhs), Fraction(rhs)
    return IdentityReport(name, params, lhs, rhs, lhs == rhs, tuple(skipped))


def _vnk(v) -> tuple[IndexVector, int, int]:
    v = strip_trailing_zeros(int(e) for e in v)
    if not v or any(e < 0 for e in v):
        raise ValueError(f"v must be nonzero with nonnegative entries, got {v}")
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
        raise ValueError(f"entries must be nonnegative, got {v}")
    bound = sum(v)
    if P.total_degree() >= bound:
        raise ValueError(
            f"polynomial degree {P.total_degree()} is not below sum(v) = {bound}"
        )
    if P.max_index() > len(v):
        raise ValueError(
            f"polynomial uses x_{P.max_index()} but v has only {len(v)} entries"
        )
    total = Fraction(0)
    for point in itertools.product(*(range(e + 1) for e in v)):
        coeff = 1
        for vj, ij in zip(v, point):
            coeff *= comb(vj, ij)
        total += (-1) ** sum(point) * coeff * P.evaluate(point)
    return _report(
        "vanishing-sum",
        {"v": v, "P": P, "degree": P.total_degree()},
        total,
        0,
    )


def _w_support(v, n: int, k: int):
    """(l, m, W) triples over the summation rectangle, nonzero W only."""
    for l in range(k + 1):
        for m in range(l, n + 1):
            w = w_coefficient(m, l, v)
            if w:
                yield l, m, w


def check_th1(variant: str, v, alpha: AffineForm, tau) -> IdentityReport:
    """Variant A or B of the parametrized binomial double sum.

    Both variants equal the generalized binomial C(tau, k), where
    k = sum(v).  Raises :class:`PoleError` when alpha vanishes at a
    contributing (l, m).
    """
    if variant not in ("A", "B"):
        raise ValueError(f"variant must be 'A' or 'B', got {variant!r}")
    v, n, k = _vnk(v)
    tau = rat(tau)
    a_corner = alpha(k, n) if variant == "A" else alpha(0, 0)
    lhs = Fraction(0)
    for l, m, w in _w_support(v, n, k):
        a = alpha(l, m)
        if a == 0:
            raise PoleError(f"alpha({l},{m}) = 0", where=(l, m))
        if variant == "A":
            prod = binomial_general(a, k - l) * binomial_general(tau - a, l)
        else:
            prod = binomial_general(tau - a, k - l) * binomial_general(a, l)
        lhs += (a_corner / a) * prod * w / comb(k, l)
    return _report(
        f"th1{variant.lower()}",
        {"v": v, "alpha": alpha, "tau": tau, "n": n, "k": k},
        lhs,
        binomial_general(tau, k),
    )


def check_th1c(v, alpha: AffineForm, tau) -> IdentityReport:
    """Partial-fraction combination of the two double-sum variants."""
    v, n, k = _vnk(v)
    tau = rat(tau)
    a00, akn = alpha(0, 0), alpha(k, n)
    if akn == 0:
        raise PoleError(f"alpha({k},{n}) = 0", where=(k, n))
    if tau == a00:
        raise PoleError(f"tau = alpha(0,0) = {rat_str(tau)}", where=(0, 0))
    lhs = Fraction(0)
    for l, m, w in _w_support(v, n, k):
        a = alpha(l, m)
        if a == 0:
            raise PoleError(f"alpha({l},{m}) = 0", where=(l, m))
        if a == tau:
            raise PoleError(f"alpha({l},{m}) = tau = {rat_str(tau)}", where=(l, m))
        lhs += (
            tau
            * binomial_general(a, k - l)
            * binomial_general(tau - a, l)
            / (a * (tau - a) * comb(k, l))
            * w
        )
    rhs = (tau - a00 + akn) / (akn * (tau - a00)) * binomial_general(tau, k)
    return _report(
        "th1c",
        {"v": v, "alpha": alpha, "tau": tau, "n": n, "k": k},
        lhs,
        rhs,
    )


def check_hagen_rothe(variant: str, xp, yp, zp, k: int) -> IdentityReport:
    """Hagen-Rothe convolution identities and their z = 0 Chu-Vandermonde case."""
    x, y, z = rat(xp), rat(yp), rat(zp)
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    params = {"variant": variant, "x": x, "y": y, "z": z, "k": k}

    if variant == "chu_vandermonde":
        lhs = sum(
            (binomial_general(x, l) * binomial_general(y, k - l) for l in range(k + 1)),
            Fraction(0),
        )
        return _report("chu-vandermonde", params, lhs, binomial_general(x + y, k))

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
        return _report("hagen-rothe-symmetric", params, lhs, rhs)

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
        return _report("hagen-rothe-asymmetric", params, lhs, rhs)

    raise ValueError(f"unknown variant {variant!r}")


def check_negative_one(v, alpha: AffineForm) -> IdentityReport:
    """The alternating double sum that collapses to the constant 1.

    When alpha(l, m) = l + c0 with z = c0 + k an integer above k, the same
    instance yields the reciprocal-binomial expansion of 1/C(z, k), which is
    then verified as well.
    """
    v, n, k = _vnk(v)
    a00 = alpha(0, 0)
    lhs = Fraction(0)
    for l, m, w in _w_support(v, n, k):
        a = alpha(l, m)
        if a == 0:
            raise PoleError(f"alpha({l},{m}) = 0", where=(l, m))
        lhs += (-1) ** l * (a00 / a) * binomial_general(a + k - l, k) * w
    params = {"v": v, "alpha": alpha, "n": n, "k": k}
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
    report = _report("negative-one", params, lhs, 1)
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
    for l, m, w in _w_support(v, n, k):
        lhs += Fraction((-1) ** l, factorial(k)) * rat(p(m, l, tau)) * w
    rhs = gamma_k * binomial_general(tau, k)
    return _report(
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


CONVOLUTION_VARIANTS = ("cor33_first", "cor33_second", "cor34")


def check_bell_convolution(
    variant: str, n: int, k: int, alpha: AffineForm, tau, x: SequenceSpec
) -> IdentityReport:
    """Convolution of two partial Bell polynomials against a single one.

    ``cor33_first`` and ``cor33_second`` equate the weighted double sum with
    C(tau, k) * B(n, k); ``cor34`` is the partial-fraction version with its
    own right-hand prefactor.
    """
    if variant not in CONVOLUTION_VARIANTS:
        raise ValueError(f"variant must be one of {CONVOLUTION_VARIANTS}, got {variant!r}")
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    x.require(n)
    tau = rat(tau)
    bell = bell_table(x, n)
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
                term = (
                    (akn / a)
                    * binomial_general(a, k - l)
                    * binomial_general(tau - a, l)
                    * comb(n, m)
                    / comb(k, l)
                )
            elif variant == "cor33_second":
                term = (
                    (a00 / a)
                    * binomial_general(tau - a, k - l)
                    * binomial_general(a, l)
                    * comb(n, m)
                    / comb(k, l)
                )
            else:
                if a == tau:
                    raise PoleError(
                        f"alpha({l},{m}) = tau = {rat_str(tau)}", where=(l, m)
                    )
                term = (
                    tau
                    * binomial_general(a, k - l)
                    * binomial_general(tau - a, l)
                    * comb(n, m)
                    / (a * (tau - a) * comb(k, l))
                )
            lhs += term * bp
    rhs = binomial_general(tau, k) * bell(n, k)
    if variant == "cor34":
        rhs *= (tau - a00 + akn) / (akn * (tau - a00))
    return _report(
        f"bell-convolution-{variant}",
        {"variant": variant, "n": n, "k": k, "alpha": alpha, "tau": tau, "x": x},
        lhs,
        rhs,
    )


def check_alpha_constant(n: int, k: int, r: int, x: SequenceSpec) -> IdentityReport:
    """Splitting identity C(k, r) B(n, k) = sum_m C(n, m) B(m, k-r) B(n-m, r)."""
    if not 0 < r <= k <= n:
        raise ValueError(f"need 0 < r <= k <= n, got r={r}, k={k}, n={n}")
    x.require(n)
    bell = bell_table(x, n)
    lhs = comb(k, r) * bell(n, k)
    rhs = sum(
        (comb(n, m) * bell(m, k - r) * bell(n - m, r) for m in range(k - r, n - r + 1)),
        Fraction(0),
    )
    return _report(
        "alpha-constant", {"n": n, "k": k, "r": r, "x": x}, lhs, rhs
    )


def check_zerosum(n: int, k: int, x: SequenceSpec) -> IdentityReport:
    """The weighted sum that cancels to zero term group by term group:

        sum_{m=k-1}^{n-1} [ C(n, m)/k - C(n-1, m) ] x_{n-m} B(m, k-1) = 0.
    """
    if not 1 <= k <= n or n < 2:
        raise ValueError(f"need 1 <= k <= n and n >= 2, got k={k}, n={n}")
    x.require(n - k + 1)
    bell = bell_table(x, n - 1)
    lhs = Fraction(0)
    for m in range(k - 1, n):
        weight = Fraction(comb(n, m), k) - comb(n - 1, m)
        lhs += weight * x[n - m] * bell(m, k - 1)
    return _report("zerosum", {"n": n, "k": k, "x": x}, lhs, 0)


def check_stirling_recurrence(n: int, k: int, r: int, kind: str) -> IdentityReport:
    """The splitting identity specialized to Stirling numbers of either kind."""
    if not 0 < r <= k <= n:
        raise ValueError(f"need 0 < r <= k <= n, got r={r}, k={k}, n={n}")
    if kind not in ("first", "second"):
        raise ValueError(f"kind must be 'first' or 'second', got {kind!r}")
    s = stirling1_unsigned if kind == "first" else stirling2
    lhs = comb(k, r) * s(n, k)
    rhs = sum(comb(n, m) * s(m, k - r) * s(n - m, r) for m in range(k - r, n - r + 1))
    return _report(
        "stirling-recurrence", {"n": n, "k": k, "r": r, "kind": kind}, lhs, rhs
    )


# --- grid certification -----------------------------------------------------

TH1_VARIANTS = ("A", "B", "C")


def support_alpha_pole(v, alpha: AffineForm):
    """First (l, m) with nonzero weight where alpha vanishes, or None."""
    v, n, k = _vnk(v)
    for l, m, _ in _w_support(v, n, k):
        if alpha(l, m) == 0:
            return (l, m)
    return None


def _support_alpha_values(v, alpha: AffineForm) -> dict[Fraction, tuple[int, int]]:
    v, n, k = _vnk(v)
    values: dict[Fraction, tuple[int, int]] = {}
    for l, m, _ in _w_support(v, n, k):
        values.setdefault(alpha(l, m), (l, m))
    return values


def tau_samples(count: int, avoid: dict) -> tuple[list[Fraction], list[tuple]]:
    """First ``count`` values of 0, 1/2, 1, 3/2, ... outside ``avoid``.

    ``avoid`` maps pole values to the (l, m) witnessing them; skipped
    candidates are reported as (l, m, tau) triples.
    """
    chosen: list[Fraction] = []
    skipped: list[tuple] = []
    step = Fraction(1, 2)
    candidate = Fraction(0)
    while len(chosen) < count:
        if candidate in avoid:
            l, m = avoid[candidate]
            skipped.append((l, m, candidate))
        else:
            chosen.append(candidate)
        candidate += step
    return chosen, skipped


@dataclass
class GridResult:
    """Aggregate of a certification sweep."""

    reports: list[IdentityReport] = field(default_factory=list)
    skipped_pairs: list[tuple] = field(default_factory=list)

    @property
    def n_failed(self) -> int:
        return sum(1 for r in self.reports if not r.passed)

    def all_passed(self) -> bool:
        return self.n_failed == 0

    def summary(self) -> dict:
        return {
            "checked": len(self.reports),
            "passed": len(self.reports) - self.n_failed,
            "failed": self.n_failed,
            "skipped_pairs": [
                {
                    "v": list(v),
                    "alpha": alpha.describe(),
                    "pole_at": list(where),
                }
                for v, alpha, where in self.skipped_pairs
            ],
        }


def certify_th1_grid(
    n_max: int,
    alphas: tuple[AffineForm, ...] = DEFAULT_ALPHAS,
    variants: tuple[str, ...] = TH1_VARIANTS,
    samples: int | None = None,
) -> GridResult:
    """Certify the double-sum identities for every v with weighted sum <= n_max.

    Each (v, alpha, variant) combination is checked at 2k+2 pole-free tau
    values (or ``samples`` of them); since both sides are polynomials in tau
    of degree at most 2k+1 after clearing the finitely many linear
    denominators, passing on such a grid certifies the identity for all tau.
    Combinations where alpha vanishes at a nonzero-weight (l, m) are
    tau-independent poles: they are recorded and skipped, never checked.
    """
    result = GridResult()
    for n in range(1, n_max + 1):
        for k in range(1, n + 1):
            for raw_v in enumerate_pi(n, k, n):
                v = strip_trailing_zeros(raw_v)
                for alpha in alphas:
                    pole = support_alpha_pole(v, alpha)
                    if pole is not None:
                        result.skipped_pairs.append((v, alpha, pole))
                        continue
                    count = samples if samples is not None else 2 * k + 2
                    avoid = _support_alpha_values(v, alpha) if "C" in variants else {}
                    taus, skipped = tau_samples(count, avoid)
                    for variant in variants:
                        for tau in taus:
                            if variant == "C":
                                rep = check_th1c(v, alpha, tau)
                                rep.skipped_poles = tuple(skipped)
                            else:
                                rep = check_th1(variant, v, alpha, tau)
                            result.reports.append(rep)
    return result
