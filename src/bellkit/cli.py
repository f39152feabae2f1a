"""Command-line interface: computation plus identity certification.

Output is JSON by default (CSV with ``--format csv``); exit status is 0 on
success, 1 when some identity check reports a failure, and 2 for usage or
input errors.  Rational flag values accept "p/q" strings; negative values
are easiest passed as ``--tau=-7/3``.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from fractions import Fraction
from pathlib import Path

from .bell import bell_symbolic, bell_table, stirling1_unsigned, stirling2
from .egf import TruncatedEGF, egf_apply_poly, egf_log, egf_pow
from .identities import (
    DEFAULT_ALPHAS,
    AffineForm,
    GridResult,
    IdentityReport,
    PoleError,
    certify_double_sums,
    check_alpha_constant,
    check_bell_convolution,
    check_general_binomial,
    check_hagen_rothe,
    check_stirling_recurrence,
    check_th1,
    check_vanishing_sum,
    check_zerosum,
    th1a_weight,
    vanishing_sum_monomials,
)
from .partitions import enumerate_pi, strip_trailing_zeros
from .rationals import rat, rat_str
from .sequences import NAMED_SEQUENCES, SequenceSpec, SequenceTooShort, named_sequence
from .sparsepoly import SparsePoly
from .transforms import (
    TransformParams,
    forward_transform,
    inverse_transform,
    lambda_identity_check,
    q_function,
    q_product_check,
    q_recurrence_check,
)


class UsageError(Exception):
    """Bad flags or unreadable input; maps to exit status 2."""


def load_sequence(path_or_keyword: str, n_max: int | None = None, seed: int | None = None) -> SequenceSpec:
    """Resolve a --x argument: a named sequence or a JSON file of rationals."""
    if path_or_keyword in NAMED_SEQUENCES:
        if n_max is None:
            raise UsageError(f"sequence {path_or_keyword!r} requires --n-max (or --n)")
        if path_or_keyword == "random" and seed is None:
            raise UsageError("sequence 'random' requires --seed")
        return named_sequence(path_or_keyword, n_max, seed)
    path = Path(path_or_keyword)
    try:
        data = json.loads(path.read_text())
    except OSError as exc:
        raise UsageError(f"cannot read sequence file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"sequence file {path} is not valid JSON: {exc}") from exc
    if isinstance(data, list) and len(data) == 1 and isinstance(data[0], list):
        data = data[0]
    if not isinstance(data, list):
        raise UsageError(f"sequence file {path} must hold a JSON array")
    try:
        seq = SequenceSpec.from_values(data)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise UsageError(f"malformed entry in {path}: {exc}") from exc
    if n_max is not None and len(seq) < n_max:
        raise UsageError(f"sequence file {path} has {len(seq)} entries, {n_max} required")
    return seq


def _parse_rat(text: str, flag: str) -> Fraction:
    try:
        return rat(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"{flag} expects a rational like 5 or -7/3, got {text!r}") from exc


def _parse_int(value, flag: str) -> int:
    f = _parse_rat(str(value), flag)
    if f.denominator != 1:
        raise UsageError(f"{flag} must be an integer, got {value!r}")
    return f.numerator


def _parse_vec(text: str, flag: str) -> tuple[int, ...]:
    try:
        entries = tuple(int(p) for p in text.split(",") if p.strip())
    except ValueError as exc:
        raise UsageError(f"{flag} expects comma-separated integers, got {text!r}") from exc
    if not entries:
        raise UsageError(f"{flag} must not be empty")
    return entries


def _parse_rats(text: str, flag: str) -> list[Fraction]:
    return [_parse_rat(p, flag) for p in text.split(",") if p.strip()]


def _parse_alpha(text: str) -> AffineForm:
    try:
        return AffineForm.parse(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"--alpha expects c0,c1,c2 rationals, got {text!r}") from exc


def _need(args, name: str, flag: str | None = None):
    value = getattr(args, name.replace("-", "_"), None)
    if value is None:
        raise UsageError(f"--{flag or name} is required for this command")
    return value


def _sequence_for(args, length: int) -> SequenceSpec:
    source = args.x if args.x is not None else "ones"
    n_max = args.n_max if args.n_max is not None else length
    return load_sequence(source, n_max, args.seed)


# --- command handlers --------------------------------------------------------


def cmd_bell(args):
    n, k = _need(args, "n"), _need(args, "k")
    if args.symbolic:
        poly = bell_symbolic(n, k)
        return {
            "command": "bell",
            "n": n,
            "k": k,
            "polynomial": poly.to_json_obj(),
            "pretty": repr(poly),
        }, False
    x = _sequence_for(args, max(n - k + 1, 1))
    value = bell_table(x, n)(n, k)
    return {"command": "bell", "n": n, "k": k, "value": rat_str(value)}, False


def cmd_stirling(args):
    n, k = _need(args, "n"), _need(args, "k")
    fn = stirling1_unsigned if args.kind == "first" else stirling2
    return {
        "command": "stirling",
        "kind": args.kind,
        "n": n,
        "k": k,
        "value": str(fn(n, k)),
    }, False


def cmd_q(args):
    n = _need(args, "n")
    lam = _parse_rat(_need(args, "lam", "lambda"), "--lambda")
    x = _sequence_for(args, n)
    value = q_function(n, args.b or 0, lam, x)
    return {
        "command": "q",
        "n": n,
        "b": args.b or 0,
        "lambda": rat_str(lam),
        "value": rat_str(value),
    }, False


def cmd_transform(args):
    params = TransformParams(args.a or 0, args.b or 0)
    n_max = args.n_max if args.n_max is not None else args.n
    if n_max is None:
        if args.x is not None and args.x not in NAMED_SEQUENCES:
            n_max = len(load_sequence(args.x))
        else:
            raise UsageError("--n-max (or --n) is required for this command")
    if args.mode == "forward":
        x = _sequence_for(args, n_max)
        y = forward_transform(x, params, n_max)
        return {
            "command": "transform-forward",
            "a": params.a,
            "b": params.b,
            "input": x.prefix(n_max).to_json_obj(),
            "output": y.to_json_obj(),
        }, False
    if args.mode == "inverse":
        y = _sequence_for(args, n_max)
        x = inverse_transform(y, params, n_max)
        return {
            "command": "transform-inverse",
            "a": params.a,
            "b": params.b,
            "input": y.prefix(n_max).to_json_obj(),
            "output": x.to_json_obj(),
        }, False
    if args.mode == "roundtrip":
        x = _sequence_for(args, n_max)
        y = forward_transform(x, params, n_max)
        back = inverse_transform(y, params, n_max)
        recovered = back.values == x.prefix(n_max).values
        return {
            "command": "transform-roundtrip",
            "a": params.a,
            "b": params.b,
            "x": x.prefix(n_max).to_json_obj(),
            "forward": y.to_json_obj(),
            "recovered": back.to_json_obj(),
            "exact_match": recovered,
        }, not recovered
    # mode == "lambda"
    n = _need(args, "n")
    lam = _parse_rat(_need(args, "lam", "lambda"), "--lambda")
    x = _sequence_for(args, n)
    report = lambda_identity_check(x, params, n, lam, args.k0 or 1)
    return _reports_payload("transform-lambda", [report]), not report.passed


def cmd_series(args):
    n_max = _need(args, "n-max")
    if args.mode == "log":
        x = _sequence_for(args, n_max)
        z = TruncatedEGF.from_sequence(x.prefix(n_max))
        return {
            "command": "series-log",
            "input": z.to_json_obj(),
            "output": egf_log(z).to_json_obj(),
        }, False
    if args.mode == "pow":
        r = _parse_rat(_need(args, "r"), "--r")
        x = _sequence_for(args, n_max)
        z = TruncatedEGF.from_sequence(x.prefix(n_max))
        return {
            "command": "series-pow",
            "r": rat_str(r),
            "input": z.to_json_obj(),
            "output": egf_pow(z, r).to_json_obj(),
        }, False
    # mode == "apply-poly"
    coeffs = _parse_rats(_need(args, "coeffs"), "--coeffs")
    params = TransformParams(args.a or 0, args.b or 0)
    x = _sequence_for(args, n_max)
    y = forward_transform(x.prefix(n_max), params, n_max)
    z = TruncatedEGF.from_sequence(y)
    result = egf_apply_poly(z, coeffs, params, x.prefix(n_max))
    return {
        "command": "series-apply-poly",
        "a": params.a,
        "b": params.b,
        "f_coeffs": [rat_str(c) for c in coeffs],
        "series": z.to_json_obj(),
        "output": result.to_json_obj(),
    }, False


# --- verify ------------------------------------------------------------------


def _reports_payload(name: str, reports: list[IdentityReport], skipped_pairs=()) -> dict:
    return {
        "command": "verify",
        "identity": name,
        "reports": [r.to_json_obj() for r in reports],
        "summary": GridResult(list(reports), list(skipped_pairs)).summary(),
    }


def _grid_vs(args) -> list[tuple[int, ...]]:
    if args.v is not None:
        return [strip_trailing_zeros(_parse_vec(args.v, "--v"))]
    n = _need(args, "n")
    ks = [args.k] if args.k is not None else list(range(1, n + 1))
    out = []
    for k in ks:
        out.extend(strip_trailing_zeros(v) for v in enumerate_pi(n, k, n))
    if not out:
        raise UsageError(f"no index vectors for n={n}, k={args.k}")
    return out


def _verify_double_sum(name: str, result: GridResult):
    payload = _reports_payload(name, result.reports, result.skipped_pairs)
    return payload, not result.all_passed()


def _verify_th1(args, variant: str):
    alphas = [_parse_alpha(args.alpha)] if args.alpha else list(DEFAULT_ALPHAS)
    vs = _grid_vs(args)
    tau = _parse_rat(args.tau, "--tau") if args.tau is not None else None
    result = certify_double_sums(vs, alphas, (variant,), tau=tau)
    return _verify_double_sum(f"th1{variant.lower()}", result)


def _verify_hagen_rothe(args, variants):
    ks = [args.k] if args.k is not None else [1, 2, 3, 4]
    if args.xp is not None or args.yp is not None:
        xs = [_parse_rat(_need(args, "xp"), "--xp")]
        ys = [_parse_rat(_need(args, "yp"), "--yp")]
        zs = [_parse_rat(args.zp, "--zp")] if args.zp is not None else [Fraction(0)]
    else:
        xs = [Fraction(1), Fraction(2), Fraction(5, 2)]
        ys = [Fraction(1), Fraction(3), Fraction(1, 2)]
        zs = [Fraction(0), Fraction(1), Fraction(1, 3)]
    reports = []
    for variant in variants:
        for k in ks:
            for x in xs:
                for y in ys:
                    for z in zs if variant != "chu_vandermonde" else [Fraction(0)]:
                        reports.append(check_hagen_rothe(variant, x, y, z, k))
    return reports


def _verify_negative_one(args):
    vs = _grid_vs(args)
    if args.alpha:
        alphas = [_parse_alpha(args.alpha)]
    else:
        # include the shifted-by-l form that triggers the reciprocal check
        alphas = list(DEFAULT_ALPHAS) + [AffineForm(2, 1)]
    result = certify_double_sums(vs, alphas, ("negative-one",))
    return _verify_double_sum("negative-one", result)


def _verify_vanishing_sum(args):
    v = _parse_vec(_need(args, "v"), "--v")
    if sum(v) < 1:
        raise UsageError("--v must have positive sum")
    reports = [
        check_vanishing_sum(v, SparsePoly.monomial(exps))
        for exps in vanishing_sum_monomials(v)
    ]
    return _reports_payload("vanishing-sum", reports), any(not r.passed for r in reports)


def _verify_bell_conv(args):
    n, k = _need(args, "n"), _need(args, "k")
    alpha = _parse_alpha(args.alpha) if args.alpha else AffineForm(1, 1)
    tau = (
        _parse_rat(args.tau, "--tau")
        if args.tau is not None
        else Fraction(2 * k + 3, 2)
    )
    x = _sequence_for(args, n)
    variants = [args.variant] if args.variant else list(
        ("cor33_first", "cor33_second", "cor34")
    )
    reports = [check_bell_convolution(vr, n, k, alpha, tau, x) for vr in variants]
    return _reports_payload("bell-conv", reports), any(not r.passed for r in reports)


def _verify_general_binomial(args):
    v = strip_trailing_zeros(_parse_vec(args.v, "--v")) if args.v else (2, 1)
    alpha = _parse_alpha(args.alpha) if args.alpha else AffineForm(1, 1)
    tau = _parse_rat(args.tau, "--tau") if args.tau is not None else Fraction(5)
    k = sum(v)
    reports = []
    if args.counterexample:
        # weight of tau-degree k at every (m, l): violates the hypotheses,
        # so the abstract identity is expected to fail here
        def bad_weight(m, l, t):
            return rat(t) ** k

        bad_weight.__name__ = "tau^k (degree hypothesis violated)"
        reports.append(check_general_binomial(v, bad_weight, (-1) ** k, tau))
    else:
        rep = check_general_binomial(v, th1a_weight(v, alpha), 1, tau)
        twin = check_th1("A", v, alpha, tau)
        rep.params["matches_th1a"] = rep.lhs == twin.lhs and rep.rhs == twin.rhs
        reports.extend([rep, twin])
    return _reports_payload("general-binomial", reports), any(
        not r.passed for r in reports
    )


def cmd_verify(args):
    name = args.identity
    if name in ("th1a", "th1b", "th1c"):
        return _verify_th1(args, name[-1].upper())
    if name == "hagen-rothe":
        variants = [args.variant] if args.variant else ["symmetric", "asymmetric"]
        reports = _verify_hagen_rothe(args, variants)
        return _reports_payload(name, reports), any(not r.passed for r in reports)
    if name == "chu-vandermonde":
        reports = _verify_hagen_rothe(args, ["chu_vandermonde"])
        return _reports_payload(name, reports), any(not r.passed for r in reports)
    if name == "negative-one":
        return _verify_negative_one(args)
    if name == "vanishing-sum":
        return _verify_vanishing_sum(args)
    if name == "bell-conv":
        return _verify_bell_conv(args)
    if name == "alpha-constant":
        n, k, r = _need(args, "n"), _need(args, "k"), _parse_int(_need(args, "r"), "--r")
        x = _sequence_for(args, n)
        rep = check_alpha_constant(n, k, r, x)
        return _reports_payload(name, [rep]), not rep.passed
    if name == "zerosum":
        n, k = _need(args, "n"), _need(args, "k")
        x = _sequence_for(args, n)
        rep = check_zerosum(n, k, x)
        return _reports_payload(name, [rep]), not rep.passed
    if name == "stirling-rec":
        n, k, r = _need(args, "n"), _need(args, "k"), _parse_int(_need(args, "r"), "--r")
        kinds = [args.kind] if args.kind else ["second", "first"]
        reports = [check_stirling_recurrence(n, k, r, kd) for kd in kinds]
        return _reports_payload(name, reports), any(not r.passed for r in reports)
    if name == "q-recurrence":
        n = _need(args, "n")
        lam = _parse_int(_need(args, "lam", "lambda"), "--lambda")
        x = _sequence_for(args, n)
        rep = q_recurrence_check(n, lam, x)
        return _reports_payload(name, [rep]), not rep.passed
    if name == "q-product":
        n1, n2 = _need(args, "n"), args.n2 or _need(args, "n")
        lam1 = _parse_rat(_need(args, "lam", "lambda"), "--lambda")
        lam2 = _parse_rat(args.lambda2, "--lambda2") if args.lambda2 else lam1
        x = _sequence_for(args, max(n1, n2))
        rep = q_product_check(n1, n2, args.b or 0, args.b2 or 0, lam1, lam2, x)
        return _reports_payload(name, [rep]), not rep.passed
    if name == "general-binomial-demo":
        return _verify_general_binomial(args)
    raise UsageError(f"unknown identity {name!r}")


# --- plumbing ------------------------------------------------------------------


def _emit_csv(payload: dict, stream) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    if "reports" in payload:
        writer.writerow(["identity", "params", "lhs", "rhs", "pass", "skipped_poles"])
        for rep in payload["reports"]:
            params = ";".join(f"{k}={v}" for k, v in rep["params"].items())
            skipped = ";".join(
                ",".join(str(x) for x in triple) for triple in rep["skipped_poles"]
            )
            writer.writerow(
                [rep["identity"], params, rep["lhs"], rep["rhs"], rep["pass"], skipped]
            )
        return
    writer.writerow(["key", "value"])
    for key, value in payload.items():
        writer.writerow([key, json.dumps(value) if isinstance(value, (list, dict)) else value])


def _add_sequence_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--x", help="sequence: ones|factorials|identity-j|random or a JSON file path")
    p.add_argument("--seed", type=int, help="seed for --x random")
    p.add_argument("--n-max", dest="n_max", type=int, help="number of sequence entries")


def _add_format_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("json", "csv"), default="json")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bellkit",
        description="Exact partial Bell polynomials, transforms, and identity certification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bell", help="partial Bell polynomial, symbolic or evaluated")
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--symbolic", action="store_true")
    _add_sequence_flags(p)
    _add_format_flag(p)
    p.set_defaults(handler=cmd_bell)

    p = sub.add_parser("stirling", help="Stirling numbers of either kind")
    p.add_argument("--kind", choices=("first", "second"), default="second")
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    _add_format_flag(p)
    p.set_defaults(handler=cmd_stirling)

    p = sub.add_parser("q", help="weighted Bell sum q_function(n, b, lambda, x)")
    p.add_argument("--n", type=int)
    p.add_argument("--b", type=int, default=0)
    p.add_argument("--lambda", dest="lam")
    _add_sequence_flags(p)
    _add_format_flag(p)
    p.set_defaults(handler=cmd_q)

    p = sub.add_parser("transform", help="forward/inverse sequence transforms")
    p.add_argument("mode", choices=("forward", "inverse", "roundtrip", "lambda"))
    p.add_argument("--a", type=int, default=0)
    p.add_argument("--b", type=int, default=0)
    p.add_argument("--n", type=int)
    p.add_argument("--lambda", dest="lam")
    p.add_argument("--k0", type=int, default=1)
    _add_sequence_flags(p)
    _add_format_flag(p)
    p.set_defaults(handler=cmd_transform)

    p = sub.add_parser("series", help="truncated EGF log/pow/apply-poly")
    p.add_argument("mode", choices=("log", "pow", "apply-poly"))
    p.add_argument("--r")
    p.add_argument("--coeffs", help="polynomial coefficients c0,c1,...")
    p.add_argument("--a", type=int, default=0)
    p.add_argument("--b", type=int, default=0)
    _add_sequence_flags(p)
    _add_format_flag(p)
    p.set_defaults(handler=cmd_series)

    p = sub.add_parser("verify", help="certify identity instances exactly")
    p.add_argument(
        "identity",
        choices=(
            "th1a",
            "th1b",
            "th1c",
            "hagen-rothe",
            "chu-vandermonde",
            "negative-one",
            "vanishing-sum",
            "bell-conv",
            "alpha-constant",
            "zerosum",
            "stirling-rec",
            "q-recurrence",
            "q-product",
            "general-binomial-demo",
        ),
    )
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--r")
    p.add_argument("--a", type=int, default=0)
    p.add_argument("--b", type=int, default=0)
    p.add_argument("--tau")
    p.add_argument("--lambda", dest="lam")
    p.add_argument("--lambda2")
    p.add_argument("--n2", type=int)
    p.add_argument("--b2", type=int, default=0)
    p.add_argument("--alpha", help="affine form c0,c1,c2 meaning c0 + c1*l + c2*m")
    p.add_argument("--v", help="index vector, e.g. 2,1")
    p.add_argument("--k0", type=int, default=1)
    p.add_argument("--kind", choices=("first", "second"))
    p.add_argument(
        "--variant",
        help="identity variant (symmetric|asymmetric for hagen-rothe; cor33_first|cor33_second|cor34 for bell-conv)",
    )
    p.add_argument("--xp", help="rational x parameter (hagen-rothe)")
    p.add_argument("--yp", help="rational y parameter (hagen-rothe)")
    p.add_argument("--zp", help="rational z parameter (hagen-rothe)")
    p.add_argument("--counterexample", action="store_true",
                   help="run the hypothesis-violating demo (expected to fail)")
    _add_sequence_flags(p)
    _add_format_flag(p)
    p.set_defaults(handler=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        payload, failed = args.handler(args)
    except UsageError as exc:
        print(f"bellkit: {exc}", file=sys.stderr)
        return 2
    except (PoleError, SequenceTooShort, ValueError) as exc:
        print(f"bellkit: {exc}", file=sys.stderr)
        return 2
    if args.format == "csv":
        buf = io.StringIO()
        _emit_csv(payload, buf)
        sys.stdout.write(buf.getvalue())
    else:
        print(json.dumps(payload, indent=2))
    return 1 if failed else 0


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
