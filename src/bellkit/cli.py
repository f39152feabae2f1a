"""Command-line interface: computation plus identity certification.

Output is JSON by default (CSV with ``--format csv``); exit status is 0 on
success, 1 when some identity check reports a failure, and 2 for bad flags
or input: argparse's errors and every :class:`~bellkit.reports.InputError`,
poles included.  Any other exception is a fault of the program and is not
caught.  Rational flag values accept "p/q" strings; negative values are
easiest passed as ``--tau=-7/3``.  An empty flag value is an error, not a
request for the default.

Each leaf (a subcommand, mode or ``verify`` identity) takes only the options
its handler reads, after the mode or identity, and reports any other option
with its own usage line.  ``FLAGS`` defines each option once; ``VERIFY`` and
``COMMANDS`` give each leaf its handler and options.  A handler returns a
payload and whether it failed, which ``output.dumps`` writes as JSON or
``output.csv_text`` as CSV; a ``verify`` handler, and ``transform lambda``,
return an identity's name and its reports instead, which
``output.write_reports`` writes in either format as they are made, and the
exit status is read once they are written.  Such a handler raises every
:class:`InputError` before it returns, so nothing reaches stdout on exit 2.
A list flag refuses an empty item, as in ``--v 2,,1``.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import sys
from fractions import Fraction
from pathlib import Path

from .bell import bell_symbolic, bell_value, stirling1_unsigned, stirling2
from .egf import TruncatedEGF, egf_log, egf_pow
from .identities import (
    CONVOLUTION_VARIANTS,
    DEFAULT_ALPHAS,
    AffineForm,
    bell_convolution_plan,
    certify_double_sums,
    check_alpha_constant,
    check_bell_convolution,
    check_general_binomial,
    check_hagen_rothe,
    check_stirling_recurrence,
    check_th1,
    check_vanishing_sum,
    check_zerosum,
    grid_vs,
    th1a_weight,
    vanishing_sum_monomials,
)
from .output import csv_text, dumps, write_reports
from .partitions import strip_trailing_zeros
from .rationals import rat
from .reports import GridResult, InputError
from .sequences import NAMED_SEQUENCES, SequenceSpec, named_sequence, require_length
from .sparsepoly import SparsePoly
from .transforms import (
    TransformParams,
    egf_apply_poly,
    forward_transform,
    inverse_transform,
    lambda_identity_check,
    q_function,
    q_product_check,
    q_recurrence_check,
)


def load_sequence(path_or_keyword: str, n_max: int | None = None, seed: int | None = None) -> SequenceSpec:
    """Resolve a --x argument: a named sequence or a JSON file of rationals.

    A file entry that ``rat`` refuses is named by its 1-based index, as in
    "malformed entry in x.json: Fraction(1, 0) (entry 2)".
    """
    if seed is not None and path_or_keyword != "random":
        raise InputError("--seed is read only with --x random")
    if n_max is not None:
        require_length(n_max)
    if path_or_keyword in NAMED_SEQUENCES:
        if n_max is None:
            raise InputError(f"sequence {path_or_keyword!r} requires --n-max (or --n)")
        if path_or_keyword == "random" and seed is None:
            raise InputError("sequence 'random' requires --seed")
        return named_sequence(path_or_keyword, n_max, seed)
    path = Path(path_or_keyword)
    try:
        text = path.read_text()
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8, or a NUL in the path
        raise InputError(f"cannot read sequence file {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"sequence file {path} is not valid JSON: {exc}") from exc
    except ValueError as exc:  # an integer literal beyond int's digit limit (4300 by default)
        raise InputError(f"malformed entry in {path}: {exc}") from exc
    except RecursionError as exc:  # arrays nested beyond the interpreter's recursion limit
        raise InputError(f"sequence file {path} is nested too deeply: {exc}") from exc
    if isinstance(data, list) and len(data) == 1 and isinstance(data[0], list):
        data = data[0]
    if not isinstance(data, list):
        raise InputError(f"sequence file {path} must hold a JSON array")
    refusals = (ValueError, TypeError, ZeroDivisionError)
    try:
        seq = SequenceSpec.from_values(data)
    except refusals as exc:
        for j, value in enumerate(data, start=1):  # find the entry rat refused
            try:
                rat(value)
            except refusals:
                raise InputError(f"malformed entry in {path}: {exc} (entry {j})") from exc
        raise
    if n_max is not None and len(seq) < n_max:
        raise InputError(f"sequence file {path} has {len(seq)} entries, {n_max} required")
    return seq


def _parse_rat(text: str, flag: str) -> Fraction:
    try:
        return rat(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"{flag} expects a rational like 5 or -7/3, got {text!r}") from exc


def _opt_rat(text: str | None, flag: str, default=None):
    """The rational ``text``, or ``default`` when the flag is absent."""
    return default if text is None else _parse_rat(text, flag)


def _parse_int(value, flag: str) -> int:
    f = _parse_rat(str(value), flag)
    if f.denominator != 1:
        raise InputError(f"{flag} must be an integer, got {value!r}")
    return f.numerator


def _items(text: str, flag: str) -> list[str]:
    """The comma-separated items of a list flag; an empty item is refused, not dropped."""
    if not text.strip():
        raise InputError(f"{flag} must not be empty")
    items = text.split(",")
    if not all(p.strip() for p in items):
        raise InputError(f"{flag} has an empty item, got {text!r}")
    return items


def _index(value: int, flag: str) -> int:
    """``value``, refused if it is too large for an index: Python's int takes any size."""
    if abs(value) > sys.maxsize:
        raise InputError(f"{flag} is out of range for an index, got {value}")
    return value


def _parse_vec(text: str, flag: str) -> tuple[int, ...]:
    items = _items(text, flag)
    try:
        vec = [int(p) for p in items]
    except ValueError as exc:
        raise InputError(f"{flag} expects comma-separated integers, got {text!r}") from exc
    return tuple(_index(e, flag) for e in vec)


def _parse_rats(text: str, flag: str) -> list[Fraction]:
    return [_parse_rat(p, flag) for p in _items(text, flag)]


def _parse_alpha(text: str) -> AffineForm:
    try:
        return AffineForm.parse(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"--alpha expects c0,c1,c2 rationals, got {text!r}") from exc


def _need(args, name: str, flag: str | None = None):
    value = getattr(args, name.replace("-", "_"))
    if value is None:
        raise InputError(f"--{flag or name} is required for this command")
    return value


def _sequence_for(args, length: int | None) -> SequenceSpec:
    """The --x sequence, with --n-max entries or else ``length``.

    A negative ``length`` (from a negative --n) asks for no entries, so that
    the handler's own check reports n; a negative --n-max is refused.
    """
    source = args.x if args.x is not None else "ones"
    if args.n_max is not None:
        n_max = args.n_max
    else:
        n_max = None if length is None else max(length, 0)
    return load_sequence(source, n_max, args.seed)


# --- command handlers --------------------------------------------------------


def cmd_bell(args):
    n, k = _need(args, "n"), _need(args, "k")
    if args.symbolic:
        if args.x is not None or args.seed is not None or args.n_max is not None:
            raise InputError("give --symbolic or --x/--seed/--n-max, not both")
        poly = bell_symbolic(n, k)
        return {
            "command": "bell",
            "n": n,
            "k": k,
            "polynomial": poly.to_json_obj(),
            "pretty": repr(poly),
        }, False
    x = _sequence_for(args, max(n - k + 1, 1))
    value = bell_value(x, n, k)
    return {"command": "bell", "n": n, "k": k, "value": value}, False


def cmd_stirling(args):
    n, k = _need(args, "n"), _need(args, "k")
    kind = "second" if args.kind is None else args.kind
    fn = stirling1_unsigned if kind == "first" else stirling2
    value = Fraction(fn(n, k))  # written as a string, like every exact result
    return {"command": "stirling", "kind": kind, "n": n, "k": k, "value": value}, False


def cmd_q(args):
    n = _need(args, "n")
    lam = _parse_rat(_need(args, "lam", "lambda"), "--lambda")
    x = _sequence_for(args, n)
    value = q_function(n, args.b, lam, x)
    return {
        "command": "q",
        "n": n,
        "b": args.b,
        "lambda": lam,
        "value": value,
    }, False


def cmd_transform(args):
    params = TransformParams(args.a, args.b)
    if args.mode == "lambda":
        n = _need(args, "n")
        lam = _parse_rat(_need(args, "lam", "lambda"), "--lambda")
        x = _sequence_for(args, n)
        return "transform-lambda", [lambda_identity_check(x, params, n, lam, args.k0)]
    if args.n is not None and args.n_max is not None:
        raise InputError("give --n or --n-max, not both")
    n_max = args.n if args.n_max is None else args.n_max
    if n_max is None and (args.x is None or args.x in NAMED_SEQUENCES):
        raise InputError("--n-max (or --n) is required for this command")
    x = _sequence_for(args, n_max)
    n_max = len(x) if n_max is None else n_max
    if args.mode != "roundtrip":
        transform = forward_transform if args.mode == "forward" else inverse_transform
        output = transform(x, params, n_max)
        return {
            "command": f"transform-{args.mode}",
            "a": params.a,
            "b": params.b,
            "input": x.prefix(n_max),
            "output": output,
        }, False
    y = forward_transform(x, params, n_max)
    x = x.prefix(n_max)
    back = inverse_transform(y, params, n_max)
    recovered = back == x
    return {
        "command": "transform-roundtrip",
        "a": params.a,
        "b": params.b,
        "x": x,
        "forward": y,
        "recovered": back,
        "exact_match": recovered,
    }, not recovered


def cmd_series(args):
    n_max = _need(args, "n-max")
    if args.mode == "apply-poly":
        coeffs = _parse_rats(_need(args, "coeffs"), "--coeffs")
        params = TransformParams(args.a, args.b)
        z, result = egf_apply_poly(coeffs, params, _sequence_for(args, n_max).prefix(n_max))
        return {
            "command": "series-apply-poly",
            "a": params.a,
            "b": params.b,
            "f_coeffs": coeffs,
            "series": z,
            "output": result,
        }, False
    r = _parse_rat(_need(args, "r"), "--r") if args.mode == "pow" else None
    x = _sequence_for(args, n_max).prefix(n_max)
    z = TruncatedEGF.from_sequence(x)
    head = {"command": "series-log"} if r is None else {"command": "series-pow", "r": r}
    output = egf_log(z) if r is None else egf_pow(z, r)
    # z's JSON object, with its coefficients from the sequence's own text
    source = {"order": z.order, "coeffs": ["1", *x.to_json_obj()]}
    return {**head, "input": source, "output": output}, False


# --- verify ------------------------------------------------------------------


def _grid_vs(args) -> list[tuple[int, ...]]:
    if args.v is not None:
        if args.n is not None or args.k is not None:
            raise InputError("give --v or --n/--k, not both")
        return [strip_trailing_zeros(_parse_vec(args.v, "--v"))]
    n = _need(args, "n")
    vs = grid_vs(n, args.k)
    if not vs:
        where = f"n={n}" if args.k is None else f"n={n}, k={args.k}"
        raise InputError(f"no index vectors for {where}")
    return vs


def _double_sums(variant: str, alphas=DEFAULT_ALPHAS):
    """A double-sum identity over --v or the --n grid; th1 variants at --tau or sampled."""

    def verify(args) -> GridResult:
        chosen = [_parse_alpha(args.alpha)] if args.alpha is not None else list(alphas)
        vs = _grid_vs(args)
        tau = None if variant == "negative-one" else _opt_rat(args.tau, "--tau")
        return certify_double_sums(vs, chosen, variant, tau=tau)

    return verify


def _verify_hagen_rothe(args):
    """hagen-rothe at --variant or both, or chu-vandermonde: its z = 0 case, with no --zp."""
    if args.identity == "chu-vandermonde":
        variants, zp, zs = ["chu_vandermonde"], None, [Fraction(0)]
    elif args.variant == "chu_vandermonde":
        raise InputError("--variant is symmetric or asymmetric here; use verify chu-vandermonde")
    else:
        variants = ["symmetric", "asymmetric"] if args.variant is None else [args.variant]
        zp, zs = args.zp, [Fraction(0), Fraction(1), Fraction(1, 3)]
    xs, ys = [Fraction(1), Fraction(2), Fraction(5, 2)], [Fraction(1), Fraction(3), Fraction(1, 2)]
    if args.xp is not None or args.yp is not None or zp is not None:
        xs = [_parse_rat(_need(args, "xp"), "--xp")]
        ys = [_parse_rat(_need(args, "yp"), "--yp")]
        zs = [_opt_rat(zp, "--zp", Fraction(0))]
    ks = [1, 2, 3, 4] if args.k is None else [args.k]
    grid = itertools.product(variants, ks, xs, ys, zs)
    return [check_hagen_rothe(variant, x, y, z, k) for variant, k, x, y, z in grid]


def _verify_vanishing_sum(args):
    v = _parse_vec(_need(args, "v"), "--v")
    if sum(v) < 1:
        raise InputError("--v must have positive sum")
    reports = (
        check_vanishing_sum(v, SparsePoly.monomial(exps))
        for exps in vanishing_sum_monomials(v)
    )
    # every monomial is below the degree bound and uses at most len(v)
    # variables, so only the first check can refuse v: it runs before any output
    return itertools.chain([next(reports)], reports)


def _verify_bell_conv(args):
    n, k = _need(args, "n"), _need(args, "k")
    alpha = AffineForm(1, 1) if args.alpha is None else _parse_alpha(args.alpha)
    tau = _opt_rat(args.tau, "--tau", Fraction(2 * k + 3, 2))
    x = _sequence_for(args, n)
    variants = CONVOLUTION_VARIANTS if args.variant is None else [args.variant]
    # one Bell table for all variants; a lone --variant is validated first
    plan = bell_convolution_plan(n, k, alpha, x) if args.variant is None else None
    return [check_bell_convolution(vr, n, k, alpha, tau, x, plan=plan) for vr in variants]


def _verify_alpha_constant(args):
    n, k, r = _need(args, "n"), _need(args, "k"), _parse_int(_need(args, "r"), "--r")
    return [check_alpha_constant(n, k, r, _sequence_for(args, n))]


def _verify_zerosum(args):
    n, k = _need(args, "n"), _need(args, "k")
    return [check_zerosum(n, k, _sequence_for(args, n))]


def _verify_stirling_rec(args):
    n, k, r = _need(args, "n"), _need(args, "k"), _parse_int(_need(args, "r"), "--r")
    kinds = ["second", "first"] if args.kind is None else [args.kind]
    return [check_stirling_recurrence(n, k, r, kind) for kind in kinds]


def _verify_q_recurrence(args):
    n = _need(args, "n")
    lam = _index(_parse_int(_need(args, "lam", "lambda"), "--lambda"), "--lambda")
    return [q_recurrence_check(n, lam, _sequence_for(args, n))]


def _verify_q_product(args):
    n1 = _need(args, "n")
    n2 = n1 if args.n2 is None else args.n2
    lam1 = _parse_rat(_need(args, "lam", "lambda"), "--lambda")
    lam2 = _opt_rat(args.lambda2, "--lambda2", lam1)
    x = _sequence_for(args, max(n1, n2))
    return [q_product_check(n1, n2, args.b, args.b2, lam1, lam2, x)]


def _verify_general_binomial(args):
    if args.counterexample and args.alpha is not None:
        raise InputError("give --alpha or --counterexample, not both")
    v = (2, 1) if args.v is None else strip_trailing_zeros(_parse_vec(args.v, "--v"))
    alpha = AffineForm(1, 1) if args.alpha is None else _parse_alpha(args.alpha)
    tau = _opt_rat(args.tau, "--tau", Fraction(5))
    k = sum(v)
    if args.counterexample:
        # weight of tau-degree k at every (m, l): violates the hypotheses,
        # so the abstract identity is expected to fail here
        def bad_weight(m, l, t):
            return rat(t) ** k

        bad_weight.__name__ = "tau^k (degree hypothesis violated)"
        return [check_general_binomial(v, bad_weight, (-1) ** k, tau)]
    rep = check_general_binomial(v, th1a_weight(v, alpha), 1, tau)
    twin = check_th1("A", v, alpha, tau)
    rep.params["matches_th1a"] = rep.lhs == twin.lhs and rep.rhs == twin.rhs
    return [rep, twin]


GRID_FLAGS = ("--n", "--k", "--alpha", "--v")

SEQUENCE_FLAGS = ("--x", "--seed", "--n-max")

#: identity -> (function(args) returning an iterable of reports or a GridResult, its options)
VERIFY = {
    "th1a": (_double_sums("A"), (*GRID_FLAGS, "--tau")),
    "th1b": (_double_sums("B"), (*GRID_FLAGS, "--tau")),
    "th1c": (_double_sums("C"), (*GRID_FLAGS, "--tau")),
    "hagen-rothe": (_verify_hagen_rothe, ("--k", "--variant", "--xp", "--yp", "--zp")),
    "chu-vandermonde": (_verify_hagen_rothe, ("--k", "--xp", "--yp")),
    # the shifted-by-l form 2 + l triggers the reciprocal check
    "negative-one": (_double_sums("negative-one", (*DEFAULT_ALPHAS, AffineForm(2, 1))), GRID_FLAGS),
    "vanishing-sum": (_verify_vanishing_sum, ("--v",)),
    "bell-conv": (_verify_bell_conv,
                  ("--n", "--k", "--tau", "--alpha", "--variant", *SEQUENCE_FLAGS)),
    "alpha-constant": (_verify_alpha_constant, ("--n", "--k", "--r", *SEQUENCE_FLAGS)),
    "zerosum": (_verify_zerosum, ("--n", "--k", *SEQUENCE_FLAGS)),
    "stirling-rec": (_verify_stirling_rec, ("--n", "--k", "--r", "--kind")),
    "q-recurrence": (_verify_q_recurrence, ("--n", "--lambda", *SEQUENCE_FLAGS)),
    "q-product": (_verify_q_product,
                  ("--n", "--b", "--lambda", "--lambda2", "--n2", "--b2", *SEQUENCE_FLAGS)),
    "general-binomial-demo": (_verify_general_binomial,
                              ("--tau", "--alpha", "--v", "--counterexample")),
}


def cmd_verify(args):
    # the demo reports under the name of the identity it demonstrates
    return args.identity.removesuffix("-demo"), VERIFY[args.identity][0](args)


# --- plumbing ------------------------------------------------------------------


#: every option -> its add_argument keywords
FLAGS = {
    "--n": {"type": int},
    "--k": {"type": int},
    "--r": {},
    "--a": {"type": int, "default": 0},
    "--b": {"type": int, "default": 0},
    "--tau": {},
    "--lambda": {"dest": "lam"},
    "--lambda2": {},
    "--n2": {"type": int},
    "--b2": {"type": int, "default": 0},
    "--k0": {"type": int, "default": 1},
    "--alpha": {"help": "affine form c0,c1,c2 meaning c0 + c1*l + c2*m"},
    "--v": {"help": "index vector, e.g. 2,1"},
    "--kind": {"choices": ("first", "second")},
    "--variant": {
        "help": "identity variant (symmetric|asymmetric for hagen-rothe; cor33_first|cor33_second|cor34 for bell-conv)",
    },
    "--xp": {"help": "rational x parameter (hagen-rothe)"},
    "--yp": {"help": "rational y parameter (hagen-rothe)"},
    "--zp": {"help": "rational z parameter (hagen-rothe)"},
    "--counterexample": {
        "action": "store_true",
        "help": "run the hypothesis-violating demo (expected to fail)",
    },
    "--symbolic": {"action": "store_true"},
    "--coeffs": {"help": "polynomial coefficients c0,c1,..."},
    "--x": {"help": "sequence: ones|factorials|identity-j|random or a JSON file path"},
    "--seed": {"type": int, "help": "seed for --x random"},
    "--n-max": {"type": int, "help": "number of sequence entries"},
    "--format": {"choices": ("json", "csv"), "default": "json"},
}

#: integer options that count or index entries; argparse's int takes any size
INDEX_FLAGS = ("--n", "--k", "--n-max", "--n2", "--k0")

TRANSFORM_FLAGS = ("--a", "--b", "--n", *SEQUENCE_FLAGS)

#: subcommand -> (help, handler, mode argument or None, {mode: options} or options)
COMMANDS = {
    "bell": (
        "partial Bell polynomial, symbolic or evaluated",
        cmd_bell,
        None,
        ("--n", "--k", "--symbolic", *SEQUENCE_FLAGS),
    ),
    "stirling": ("Stirling numbers of either kind", cmd_stirling, None, ("--kind", "--n", "--k")),
    "q": (
        "weighted Bell sum q_function(n, b, lambda, x)",
        cmd_q,
        None,
        ("--n", "--b", "--lambda", *SEQUENCE_FLAGS),
    ),
    "transform": (
        "forward/inverse sequence transforms",
        cmd_transform,
        "mode",
        {
            "forward": TRANSFORM_FLAGS,
            "inverse": TRANSFORM_FLAGS,
            "roundtrip": TRANSFORM_FLAGS,
            "lambda": ("--a", "--b", "--n", "--lambda", "--k0", *SEQUENCE_FLAGS),
        },
    ),
    "series": (
        "truncated EGF log/pow/apply-poly",
        cmd_series,
        "mode",
        {
            "log": SEQUENCE_FLAGS,
            "pow": ("--r", *SEQUENCE_FLAGS),
            "apply-poly": ("--coeffs", "--a", "--b", *SEQUENCE_FLAGS),
        },
    ),
    "verify": (
        "certify identity instances exactly",
        cmd_verify,
        "identity",
        {name: flags for name, (_, flags) in VERIFY.items()},
    ),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command tree, built once per process: it costs more than most calls."""
    parser = argparse.ArgumentParser(
        prog="bellkit",
        description="Exact partial Bell polynomials, transforms, and identity certification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, handler, dest, options) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        p.set_defaults(handler=handler)
        leaves = [(p, options)]
        if dest is not None:
            modes = p.add_subparsers(dest=dest, required=True)
            leaves = [(modes.add_parser(m, allow_abbrev=False), f) for m, f in options.items()]
        for leaf, flags in leaves:
            leaf.set_defaults(parser=leaf)  # main reports unknown flags with the leaf's usage
            for flag in (*flags, "--format"):
                leaf.add_argument(flag, **FLAGS[flag])
    return parser


def main(argv=None) -> int:
    args, extra = build_parser().parse_known_args(argv)
    if extra:
        args.parser.error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        for flag in INDEX_FLAGS:
            value = getattr(args, flag[2:].replace("-", "_"), None)
            if value is not None:
                _index(value, flag)
        head, body = args.handler(args)
    except InputError as exc:
        print(f"bellkit: {exc}", file=sys.stderr)
        return 2
    # Every input has been read under Python's cap on int-to-str digits (4300
    # by default, none before 3.10.7), so an over-long input number exits 2.
    # The output alone may need more digits: it is written without the cap.
    cap = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if cap:
        sys.set_int_max_str_digits(0)
    try:
        if isinstance(head, str):  # an identity's name and its reports
            failed = write_reports(head, body, sys.stdout, args.format)
        else:  # a payload and whether it failed
            payload, failed = head, body
            sys.stdout.write(csv_text(payload) if args.format == "csv" else dumps(payload))
    finally:
        if cap:
            sys.set_int_max_str_digits(cap)
    if args.format == "json":
        sys.stdout.write("\n")
    return 1 if failed else 0


def console_main() -> None:
    try:
        status = main()
        sys.stdout.flush()  # a closed pipe raises here, not at exit
    except BrokenPipeError:
        # the reader left: as the signal module's documentation advises, point
        # stdout at devnull so that the flush at exit does not fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        sys.exit(1)
    sys.exit(status)


if __name__ == "__main__":
    console_main()
