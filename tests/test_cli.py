import contextlib
import csv
import importlib
import io
import json
import math
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bellkit
from bellkit import cli, identities, transforms
from bellkit.bell import bell_columns
from bellkit.cli import COMMANDS, FLAGS, build_parser, load_sequence, main
from bellkit.egf import TruncatedEGF
from bellkit.output import dumps, json_value
from bellkit.reports import InputError
from bellkit.sequences import SequenceTooShort, named_sequence


SYMBOLIC_ALONE = "give --symbolic or --x/--seed/--n-max, not both"

#: the package source, for tests that run the CLI in a child interpreter
SRC = str(Path(bellkit.__file__).resolve().parents[1])


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBellCommand:
    def test_symbolic(self, capsys):
        code, out, _ = run(capsys, "bell", "--n", "4", "--k", "2", "--symbolic")
        assert code == 0
        payload = json.loads(out)
        assert payload["polynomial"] == [
            {"coeff": "3", "exps": [0, 2]},
            {"coeff": "4", "exps": [1, 0, 1]},
        ]

    def test_value(self, capsys):
        code, out, _ = run(capsys, "bell", "--n", "4", "--k", "2", "--x", "ones")
        assert code == 0
        assert json.loads(out)["value"] == "7"


class TestStirlingCommand:
    def test_second(self, capsys):
        code, out, _ = run(capsys, "stirling", "--kind", "second", "--n", "4", "--k", "2")
        assert code == 0 and json.loads(out)["value"] == "7"

    def test_first(self, capsys):
        code, out, _ = run(capsys, "stirling", "--kind", "first", "--n", "4", "--k", "2")
        assert code == 0 and json.loads(out)["value"] == "11"


class TestQCommand:
    def test_value(self, capsys):
        code, out, _ = run(
            capsys, "q", "--n", "2", "--b", "1", "--lambda", "2", "--x", "ones"
        )
        # z2 + 4 z1^2 at all ones
        assert code == 0 and json.loads(out)["value"] == "5"


class TestTransformCommand:
    def test_roundtrip(self, capsys):
        code, out, _ = run(
            capsys,
            "transform",
            "roundtrip",
            "--a", "2", "--b", "3",
            "--n-max", "8",
            "--x", "random",
            "--seed", "7",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["exact_match"] is True
        assert payload["recovered"] == payload["x"]

    def test_roundtrip_at_forty(self, capsys):
        code, out, _ = run(
            capsys, "transform", "roundtrip", "--a", "1", "--b", "1",
            "--n-max", "40", "--x", "random", "--seed", "40",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["exact_match"] is True
        assert payload["recovered"] == payload["x"]

    def test_forward_then_inverse_files(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "transform", "forward", "--a", "1", "--b", "1",
            "--n-max", "4", "--x", "random", "--seed", "5",
        )
        assert code == 0
        y = json.loads(out)["output"]
        y_file = tmp_path / "y.json"
        y_file.write_text(json.dumps(y))
        code, out, _ = run(
            capsys, "transform", "inverse", "--a", "1", "--b", "1",
            "--n-max", "4", "--x", str(y_file),
        )
        assert code == 0
        code, out2, _ = run(
            capsys, "transform", "forward", "--a", "1", "--b", "1",
            "--n-max", "4", "--x", "random", "--seed", "5",
        )
        assert json.loads(out2)["input"] == json.loads(out)["output"]

    def test_lambda_check(self, capsys):
        code, out, _ = run(
            capsys, "transform", "lambda", "--a", "1", "--b", "1",
            "--n", "3", "--lambda", "5/2", "--k0", "2",
            "--x", "random", "--seed", "3",
        )
        assert code == 0
        assert json.loads(out)["summary"]["failed"] == 0

    def test_lambda_asks_for_n_before_reading_x(self, capsys, tmp_path):
        absent = str(tmp_path / "absent.json")
        for argv in ([], ["--n-max", "3"], ["--x", absent]):
            code, out, err = run(capsys, "transform", "lambda", "--lambda", "2", *argv)
            assert code == 2 and out == ""
            assert err == "bellkit: --n is required for this command\n"


class TestSeriesCommand:
    def test_log(self, capsys):
        code, out, _ = run(
            capsys, "series", "log", "--n-max", "4", "--x", "random", "--seed", "2"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["output"]["order"] == 4
        assert payload["output"]["coeffs"][0] == "0"

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("mode", [["log"], ["pow", "--r=-3/2"]])
    @pytest.mark.parametrize("entries", [
        ["1/2", "-3", "2/7", "5", "0"],  # canonical: written back as read
        ["2/4", "-3/1", 1, "-0", " 5", "+2/7"],  # rewritten as rat_str
    ])
    def test_the_input_series_is_the_sequence_as_written(self, capsys, tmp_path, entries,
                                                         mode, fmt):
        # the input is written from the sequence's text: the JSON object of
        # the series 1 + sum x_n t^n / n!, as the TruncatedEGF would write it
        f = tmp_path / "x.json"
        f.write_text(json.dumps(entries))
        n = len(entries) - 1
        code, out, _ = run(capsys, "series", *mode, "--n-max", str(n), "--x", str(f),
                           "--format", fmt)
        z = TruncatedEGF.from_sequence(load_sequence(str(f)).prefix(n))
        assert code == 0
        if fmt == "json":
            assert json.loads(out)["input"] == json_value(z)
            assert '"input": ' + dumps(z).replace("\n", "\n  ") in out
        else:
            assert dict(csv.reader(io.StringIO(out)))["input"] == json.dumps(z, default=json_value)

    def test_pow_roundtrip_flags(self, capsys):
        code, out, _ = run(
            capsys, "series", "pow", "--r", "1/2", "--n-max", "5",
            "--x", "random", "--seed", "4",
        )
        assert code == 0
        assert json.loads(out)["r"] == "1/2"

    def test_apply_poly(self, capsys):
        code, out, _ = run(
            capsys, "series", "apply-poly", "--coeffs", "3",
            "--a", "1", "--b", "1", "--n-max", "4",
            "--x", "random", "--seed", "6",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["output"]["coeffs"] == ["3", "0", "0", "0", "0"]

    def test_apply_poly_builds_one_bell_table(self, capsys, monkeypatch):
        calls = []

        def counted(x, n_max):
            calls.append(n_max)
            return bell_columns(x, n_max)

        monkeypatch.setattr(transforms, "bell_columns", counted)
        code, out, _ = run(
            capsys, "series", "apply-poly", "--coeffs", "1,2,3",
            "--a", "1", "--b", "1", "--n-max", "12", "--x", "random", "--seed", "2",
        )
        assert code == 0 and calls == [12]
        payload = json.loads(out)
        assert len(payload["series"]["coeffs"]) == len(payload["output"]["coeffs"]) == 13


class TestDigitCap:
    """Python caps int-to-str conversion at sys.get_int_max_str_digits()
    digits (4300 by default).  Output is written without that cap; input is
    still read under it."""

    def test_a_result_beyond_the_cap_is_printed(self, capsys, tmp_path):
        # log(1 + 10^6 t) has n-th EGF coefficient (-1)^(n-1) 10^(6n) (n-1)!,
        # of 4,306 digits at n = 520
        f = tmp_path / "big.json"
        f.write_text(json.dumps(["1000000"] + ["0"] * 519))
        cap = sys.get_int_max_str_digits()
        code, out, err = run(capsys, "series", "log", "--x", str(f), "--n-max", "520")
        assert code == 0 and err == "" and sys.get_int_max_str_digits() == cap
        coeffs = json.loads(out)["output"]["coeffs"]
        sys.set_int_max_str_digits(0)
        try:
            expected = ["0"] + [str((-1) ** (n - 1) * 10 ** (6 * n) * math.factorial(n - 1))
                                for n in range(1, 521)]
        finally:
            sys.set_int_max_str_digits(cap)
        assert coeffs == expected and len(coeffs[-1]) > cap

    @pytest.mark.parametrize("where", ["file entry", "--r"])
    def test_an_input_beyond_the_cap_is_refused(self, capsys, tmp_path, where):
        digits = "7" * 5000
        f = tmp_path / "x.json"
        f.write_text(json.dumps(["1", digits if where == "file entry" else "2", "3"]))
        argv = ["series", "log"] if where == "file entry" else ["series", "pow", f"--r={digits}"]
        code, out, err = run(capsys, *argv, "--x", str(f), "--n-max", "3")
        assert code == 2 and out == "" and err.count("\n") == 1
        assert err.startswith("bellkit: malformed entry" if where == "file entry" else
                              "bellkit: --r expects a rational")


class TestVerifyCommand:
    def test_zerosum(self, capsys):
        code, out, _ = run(capsys, "verify", "zerosum", "--n", "5", "--k", "3", "--x", "ones")
        assert code == 0
        assert json.loads(out)["summary"]["failed"] == 0

    def test_th1a_single_point(self, capsys):
        code, out, _ = run(
            capsys, "verify", "th1a", "--v", "2,1", "--alpha", "1,1", "--tau", "5"
        )
        assert code == 0
        report = json.loads(out)["reports"][0]
        assert report["lhs"] == report["rhs"] == "10"

    def test_th1c_grid_over_v(self, capsys):
        code, out, _ = run(capsys, "verify", "th1c", "--n", "4")
        assert code == 0
        payload = json.loads(out)
        assert payload["summary"]["failed"] == 0
        assert payload["summary"]["checked"] > 0

    def test_hagen_rothe_defaults(self, capsys):
        code, out, _ = run(capsys, "verify", "hagen-rothe", "--k", "3")
        assert code == 0
        assert json.loads(out)["summary"]["failed"] == 0

    def test_chu_vandermonde(self, capsys):
        code, out, _ = run(
            capsys, "verify", "chu-vandermonde",
            "--xp", "1", "--yp", "1", "--k", "2",
        )
        assert code == 0
        assert json.loads(out)["reports"][0]["lhs"] == "1"

    def test_vanishing_sum(self, capsys):
        code, out, _ = run(capsys, "verify", "vanishing-sum", "--v", "2,1")
        assert code == 0
        assert json.loads(out)["summary"]["failed"] == 0

    def test_bell_conv(self, capsys):
        code, out, _ = run(
            capsys, "verify", "bell-conv", "--n", "4", "--k", "2",
            "--x", "random", "--seed", "12",
        )
        assert code == 0
        assert json.loads(out)["summary"]["checked"] == 3

    @pytest.mark.parametrize("variant", [[], ["--variant", "cor34"]])
    def test_bell_conv_builds_one_bell_table(self, capsys, monkeypatch, variant):
        calls = []

        def counted(x, n_max):
            calls.append(n_max)
            return bell_columns(x, n_max)

        monkeypatch.setattr(identities, "bell_columns", counted)
        code, out, _ = run(
            capsys, "verify", "bell-conv", "--n", "6", "--k", "3",
            "--x", "random", "--seed", "12", *variant,
        )
        assert code == 0 and calls == [6]
        assert json.loads(out)["summary"]["checked"] == (1 if variant else 3)

    def test_q_product(self, capsys):
        code, out, _ = run(
            capsys, "verify", "q-product", "--n", "2", "--n2", "2",
            "--b", "1", "--b2", "-1", "--lambda", "3/7", "--lambda2=-2/5",
            "--x", "random", "--seed", "1",
        )
        assert code == 0

    def test_counterexample_exits_one(self, capsys):
        code, out, _ = run(capsys, "verify", "general-binomial-demo", "--counterexample")
        assert code == 1
        assert json.loads(out)["summary"]["failed"] == 1

    def test_general_binomial_demo_matches_th1a(self, capsys):
        code, out, _ = run(capsys, "verify", "general-binomial-demo")
        assert code == 0
        reports = json.loads(out)["reports"]
        assert reports[0]["params"]["matches_th1a"] is True


class TestErrorHandling:
    def test_unknown_subcommand_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_malformed_rational(self, capsys):
        code, _, err = run(
            capsys, "verify", "th1a", "--v", "2,1", "--alpha", "1,1", "--tau", "5..2"
        )
        assert code == 2 and "tau" in err

    @pytest.mark.parametrize("tau", ["1e5000", "-1e-5000"])
    def test_exponent_notation_is_refused(self, capsys, tau):
        code, out, err = run(capsys, "verify", "th1a", "--v", "2,1", f"--tau={tau}")
        assert code == 2 and out == ""
        assert err == f"bellkit: --tau expects a rational like 5 or -7/3, got '{tau}'\n"

    def test_exponent_notation_in_a_sequence_file_is_refused(self, capsys, tmp_path):
        f = tmp_path / "exp.json"
        f.write_text('["1", "1e5000", "3"]')
        code, out, err = run(capsys, "bell", "--n", "3", "--k", "2", "--x", str(f))
        assert code == 2 and out == ""
        assert err.startswith(f"bellkit: malformed entry in {f}: ")
        assert "exponent notation in '1e5000'" in err

    @pytest.mark.parametrize("entry", ["1" * 5000, '"' + "1" * 5000 + '"'], ids=["bare", "string"])
    def test_integer_over_the_digit_limit_in_a_sequence_file(self, capsys, tmp_path, entry):
        # json.loads refuses a bare integer of over 4,300 digits with a plain
        # ValueError; as a string, int() refuses it inside rat
        f = tmp_path / "long.json"
        f.write_text(f"[{entry}]")
        code, out, err = run(capsys, "bell", "--n", "1", "--k", "1", "--x", str(f))
        assert code == 2 and out == ""
        assert err.startswith(f"bellkit: malformed entry in {f}: Exceeds the limit (")
        assert err.count("\n") == 1
        # json.loads refuses the bare integer itself, so no entry index is known
        assert err.endswith("(entry 1)\n") == (entry[0] == '"')

    def test_a_file_nested_too_deeply(self, capsys, tmp_path):
        # json.loads raises RecursionError, which is not a ValueError
        f = tmp_path / "deep.json"
        f.write_text("[" * 100_000 + "]" * 100_000)
        code, out, err = run(capsys, "bell", "--n", "1", "--k", "1", "--x", str(f))
        assert code == 2 and out == ""
        assert err.startswith(f"bellkit: sequence file {f} is nested too deeply: ")
        assert err.count("\n") == 1 and "(entry" not in err

    @pytest.mark.parametrize(
        "entries, reason, j",
        [
            ('["1", "2", "x/y"]', "Invalid literal for Fraction: 'x/y'", 3),
            ('["1", "1/0", "1e5"]', "Fraction(1, 0)", 2),
            ('[true, "1/2"]', "refusing bool input True; pass a string or int", 1),
            ('["1/2", "3", 0.5]', "refusing float input 0.5; pass a string or int", 3),
        ],
        ids=["text", "zero-denominator", "bool", "float"],
    )
    def test_a_malformed_entry_is_named_by_its_index(self, capsys, tmp_path, entries, reason, j):
        f = tmp_path / "bad.json"
        f.write_text(entries)
        code, out, err = run(capsys, "bell", "--n", "1", "--k", "1", "--x", str(f))
        assert code == 2 and out == ""
        assert err == f"bellkit: malformed entry in {f}: {reason} (entry {j})\n"

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "bell", "--n", "3", "--k", "2", "--x", "/nope/missing.json")
        assert code == 2 and "missing.json" in err

    def test_undecodable_file_is_named(self, capsys, tmp_path):
        # a UnicodeDecodeError is a ValueError, not an OSError
        f = tmp_path / "utf16.json"
        f.write_bytes(b"\xff\xfe[\x00]\x00")
        code, out, err = run(capsys, "series", "log", "--n-max", "3", "--x", str(f))
        assert code == 2 and out == ""
        assert err.startswith(f"bellkit: cannot read sequence file {f}: 'utf-8' codec")

    def test_library_errors_reach_the_caller(self, monkeypatch):
        # only InputError means exit 2; any other ValueError is a fault of the program
        def bug(*args):
            raise ValueError("bug")

        monkeypatch.setattr(cli, "bell_value", bug)
        with pytest.raises(ValueError, match="bug"):
            main(["bell", "--n", "3", "--k", "2"])

    def test_random_requires_seed(self, capsys):
        code, _, err = run(capsys, "bell", "--n", "3", "--k", "2", "--x", "random")
        assert code == 2 and "seed" in err

    def test_pole_is_usage_error_not_failure(self, capsys):
        code, _, err = run(
            capsys, "verify", "th1a", "--v", "2,1", "--alpha", "0,1", "--tau", "5"
        )
        assert code == 2 and "alpha" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            # the plan of v = (0, 0, 0, 1) checks; the next, v = (0, 2), has alpha(2, 4) = 0
            ("verify th1a --n 4 --tau 1 --alpha=-2,1,0", "alpha(2,4) = 0"),
            # the five plans of v = (0, 0, 1) check; then 1 + l is tau at (2, 3)
            ("verify th1c --n 3 --tau 3", "alpha(2,3) = tau = 3"),
            # entries are checked by the first of the 3 reports
            ("verify vanishing-sum --v 2,-1,1", "entries must be nonnegative, got (2, -1, 1)"),
            # CSV is written as the reports are made, too
            ("verify th1c --n 3 --tau 3 --format csv", "alpha(2,3) = tau = 3"),
        ],
    )
    def test_a_pole_on_a_later_plan_aborts_before_any_output(self, capsys, argv, message):
        # reports are written as they are made, so every error is raised first
        code, out, err = run(capsys, *argv.split())
        assert code == 2 and out == ""
        assert err == f"bellkit: {message}\n"

    def test_a_closed_pipe_ends_without_a_traceback(self):
        env = {**os.environ, "PYTHONPATH": SRC}
        argv = [sys.executable, "-m", "bellkit.cli", "verify", "th1c", "--n", "12"]
        for fmt, start in [("json", b'{\n  "command": "verify"'), ("csv", b"identity,params,")]:
            with subprocess.Popen([*argv, "--format", fmt], stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE, env=env) as proc:
                head = proc.stdout.read(50)
                proc.stdout.close()  # the reader leaves, like head -c 50
                status = proc.wait(timeout=60)
                err = proc.stderr.read().decode()
            assert head.startswith(start), fmt
            assert "Traceback" not in err and status == 1, (fmt, err)

    @pytest.mark.parametrize(
        "argv, fragment",
        [
            # an empty or zero value used to mean "use the default"
            (["verify", "th1a", "--n", "3", "--alpha="], "--alpha"),
            (["verify", "negative-one", "--n", "3", "--alpha="], "--alpha"),
            (["verify", "bell-conv", "--n", "4", "--k", "2", "--alpha="], "--alpha"),
            (["verify", "bell-conv", "--n", "4", "--k", "2", "--variant="], "variant"),
            (["verify", "hagen-rothe", "--k", "2", "--variant="], "variant"),
            (["verify", "q-product", "--n", "2", "--lambda", "1", "--lambda2="], "--lambda2"),
            (["verify", "q-product", "--n", "2", "--n2", "0", "--lambda", "1"], "n2=0"),
            (["verify", "general-binomial-demo", "--v="], "--v"),
            (["verify", "th1a", "--n", "0"], "bellkit: no index vectors for n=0\n"),
            (["transform", "lambda", "--n", "3", "--lambda", "2", "--k0", "0"], "k0"),
            (["series", "apply-poly", "--n-max", "3", "--coeffs="], "--coeffs"),
            # an empty item between commas used to be dropped
            (["verify", "th1a", "--v", "2,1", "--alpha", "1,,2", "--tau", "5"], "--alpha"),
            (["series", "apply-poly", "--n-max", "3", "--coeffs", "1,,2"], "--coeffs"),
            (["verify", "th1a", "--v", "2,,1"], "--v"),
            (["verify", "vanishing-sum", "--v", "2,1,"], "--v"),
            (["verify", "general-binomial-demo", "--v", ",2,1"], "--v"),
            (["verify", "bell-conv", "--n", "4", "--k", "2", "--alpha", "1,1,"], "--alpha"),
        ],
        ids=lambda value: " ".join(value) if isinstance(value, list) else "",
    )
    def test_empty_or_zero_value_is_refused(self, capsys, argv, fragment):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("bellkit: ") and fragment in err

    @pytest.mark.parametrize("command", [["series", "log"], ["transform", "forward"]])
    def test_negative_length_is_refused(self, capsys, tmp_path, command):
        f = tmp_path / "s.json"
        f.write_text('["1/2", "3", "-2/5"]')
        code, out, err = run(capsys, *command, "--n-max", "-1", "--x", str(f))
        assert code == 2 and out == "" and "nonnegative" in err

    @pytest.mark.parametrize("command", ["bell --n 3 --k 1", "q --n 3 --lambda 2"])
    @pytest.mark.parametrize("source", ["ones", "file"])
    def test_negative_n_max_is_named(self, capsys, tmp_path, command, source):
        # a named sequence used to come out empty ("0 entries, 3 required"),
        # and a file's length was only compared with --n-max
        f = tmp_path / "s.json"
        f.write_text('["1/2", "3", "-2/5"]')
        argv = command.split() + ["--n-max", "-1"] + (["--x", str(f)] if source == "file" else [])
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", "bellkit: sequence length must be nonnegative, got -1\n")

    @pytest.mark.parametrize("flag", ["--a", "--k0"])
    def test_verify_refuses_unread_flags(self, capsys, flag):
        # no identity reads them; prefixes of other flags are not matched either
        with pytest.raises(SystemExit) as exc:
            main(["verify", "zerosum", "--n", "4", "--k", "2", flag, "3"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv, fragment",
        [
            ("verify negative-one --n 4 --tau 5", "unrecognized arguments: --tau 5"),
            (
                "verify chu-vandermonde --variant symmetric --zp 1",
                "unrecognized arguments: --variant symmetric --zp 1",
            ),
            ("verify chu-vandermonde --zp 1", "unrecognized arguments: --zp 1"),
            ("verify hagen-rothe --x factorials", "unrecognized arguments: --x factorials"),
            ("series log --r 2", "unrecognized arguments: --r 2"),
            ("transform forward --lambda 2", "unrecognized arguments: --lambda 2"),
            # the error shows the usage of the leaf, not of the program
            (
                "verify hagen-rothe --xp 1 --yp 2 --bogus",
                "usage: bellkit verify hagen-rothe [-h] [--k K]",
            ),
            # options follow the identity or mode
            ("verify --n 3 th1a", "invalid choice: '3'"),
        ],
    )
    def test_leaf_refuses_flags_it_does_not_read(self, capsys, argv, fragment):
        with pytest.raises(SystemExit) as exc:
            main(argv.split())
        assert exc.value.code == 2 and fragment in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            ("verify th1a --v 2,1 --n 5 --k 9", "give --v or --n/--k, not both"),
            ("verify negative-one --v 3 --k 3", "give --v or --n/--k, not both"),
            ("transform forward --n 3 --n-max 4", "give --n or --n-max, not both"),
            ("transform roundtrip --n-max 4 --n 3 --b 1", "give --n or --n-max, not both"),
            ("bell --n 4 --k 2 --symbolic --x factorials", SYMBOLIC_ALONE),
            ("bell --n 4 --k 2 --symbolic --seed 3", SYMBOLIC_ALONE),
            ("bell --n 4 --k 2 --symbolic --n-max 5", SYMBOLIC_ALONE),
            ("bell --n 4 --k 2 --x ones --seed 3", "--seed is read only with --x random"),
            ("bell --n 4 --k 2 --seed 3", "--seed is read only with --x random"),
            ("series log --n-max 3 --x identity-j --seed 2", "--seed is read only with --x random"),
            (
                "verify general-binomial-demo --counterexample --alpha 1,1",
                "give --alpha or --counterexample, not both",
            ),
        ],
    )
    def test_flags_that_exclude_each_other(self, capsys, argv, message):
        # each flag is valid alone, so argparse cannot refuse the pair
        code, out, err = run(capsys, *argv.split())
        assert code == 2 and out == "" and err == f"bellkit: {message}\n"

    @pytest.mark.parametrize("point", [[], ["--xp", "1", "--yp", "2", "--zp", "5", "--k", "2"]])
    def test_hagen_rothe_refuses_the_chu_vandermonde_variant(self, capsys, point):
        # Chu-Vandermonde is verify chu-vandermonde, whose z is always 0
        code, out, err = run(capsys, "verify", "hagen-rothe", "--variant", "chu_vandermonde", *point)
        assert code == 2 and out == ""
        assert err == "bellkit: --variant is symmetric or asymmetric here; use verify chu-vandermonde\n"

    def test_hagen_rothe_zp_alone_asks_for_xp(self, capsys):
        code, out, err = run(capsys, "verify", "hagen-rothe", "--zp", "1")
        assert code == 2 and out == ""
        assert err == "bellkit: --xp is required for this command\n"

    @pytest.mark.parametrize(
        "command, n",
        [
            ("verify q-recurrence", "0"),
            ("verify q-recurrence", "-1"),
            ("transform lambda", "-1"),
            ("transform lambda", "0"),
        ],
    )
    def test_n_below_one_is_refused(self, capsys, command, n):
        code, out, err = run(capsys, *command.split(), "--n", n, "--lambda", "2")
        assert code == 2 and out == ""
        assert err == f"bellkit: n must be positive, got {n}\n"

    @pytest.mark.parametrize("value", ["99999999999999999999", "-99999999999999999999"])
    @pytest.mark.parametrize(
        "argv, flag",
        [
            ("stirling --n={} --k 1", "--n"),
            ("stirling --n 3 --k={}", "--k"),
            ("bell --n 3 --k={} --x ones", "--k"),
            ("series log --n-max={} --x ones", "--n-max"),
            ("transform forward --n-max={} --x ones", "--n-max"),
            ("verify th1a --n={}", "--n"),
            ("verify vanishing-sum --v={}", "--v"),
            ("verify th1a --v={} --tau 5/2", "--v"),
            ("verify negative-one --v={}", "--v"),
            ("verify general-binomial-demo --v={}", "--v"),
            ("verify q-recurrence --n 3 --lambda={}", "--lambda"),
        ],
    )
    def test_index_beyond_an_index_sized_int_is_named(self, capsys, argv, flag, value):
        # argparse's int takes any size; such a value used to end in OverflowError
        code, out, err = run(capsys, *argv.format(value).split())
        assert code == 2 and out == ""
        assert err == f"bellkit: {flag} is out of range for an index, got {value}\n"


class TestFuzzMain:
    """Any argv built from the CLI's own flags ends in exit 0, 1 or 2."""

    #: short values, so that vanishing-sum --v and the grids stay cheap
    TEXTS = st.sampled_from(
        ["", "0", "1", "-1", "2", "1/2", "-7/3", "3/0", "x", "1..2", ",",
         "1,1", "2,1", "0,1", "-1,1", "1,2,1/3", "1,x", "cor34", "symmetric"]
    )

    @pytest.fixture(scope="class")
    def seq_files(self, tmp_path_factory):
        """A valid sequence file and one that is not UTF-8."""
        folder = tmp_path_factory.mktemp("fuzz")
        (folder / "seq.json").write_text('["1/2", "3", "-2/5", "1"]')
        (folder / "utf16.json").write_bytes(b"\xff\xfe[\x00]\x00")
        return [str(folder / "seq.json"), str(folder / "utf16.json")]

    @staticmethod
    def _one_of(draw, valid, invalid):
        """Mostly a value argparse accepts; one time in eight, one it refuses."""
        return draw(invalid if draw(st.integers(0, 7)) == 0 else valid)

    def _value(self, draw, flag, seq_files):
        spec = FLAGS[flag]
        if spec.get("action") == "store_true":
            return None
        if "choices" in spec:
            return self._one_of(draw, st.sampled_from(spec["choices"]), st.sampled_from(["bogus", ""]))
        if flag == "--x":
            return draw(st.sampled_from(
                ["ones", "factorials", "identity-j", "random", *seq_files, "/nonexistent.json", ""]
            ))
        if spec.get("type") is int:
            return self._one_of(draw, st.integers(-2, 7).map(str), self.TEXTS)
        return draw(self.TEXTS)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_exit_status(self, data, seq_files):
        command = data.draw(st.sampled_from(list(COMMANDS)))
        _, _, dest, options = COMMANDS[command]
        argv = [command]
        own = options
        if dest is not None:
            mode = self._one_of(data.draw, st.sampled_from(list(options)), st.just("bogus"))
            argv.append(mode)
            own = options.get(mode, ())
        flags = [flag for flag in (*own, "--format") if data.draw(st.booleans())]
        # now and then a flag of another leaf, which argparse must refuse
        foreign = [flag for flag in FLAGS if flag not in (*own, "--format")]
        extra = self._one_of(data.draw, st.just([]), st.sampled_from(foreign).map(lambda f: [f]))
        for flag in flags + extra:
            value = self._value(data.draw, flag, seq_files)
            argv.append(flag if value is None else f"{flag}={value}")
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = main(argv)
            except SystemExit as exc:
                assert exc.code == 2 if extra else exc.code in (0, 2), argv
            else:
                assert not extra and code in (0, 1, 2), argv


class ReadRecorder:
    """A parsed Namespace that records the name of every attribute read."""

    def __init__(self, args):
        self._args = args
        self.read = set()

    def __getattr__(self, name):
        self.read.add(name)
        return getattr(self._args, name)


def _leaves():
    """(argv prefix, handler, options) of every leaf of the command tree."""
    for command, (_, handler, dest, options) in COMMANDS.items():
        if dest is None:
            yield [command], handler, options
        else:
            for mode, flags in options.items():
                yield [command, mode], handler, flags


#: a minimal valid argv of each leaf, by leaf, by "command option" (for an
#: option the command's default argv excludes), or by command
MINIMAL = {
    "bell": "--n 3 --k 2",
    "stirling": "--n 3 --k 2",
    "q": "--n 2 --lambda 2",
    "transform lambda": "--n 3 --lambda 2",
    "series": "--n-max 3",
    "series pow": "--n-max 3 --r 2",
    "series apply-poly": "--n-max 3 --coeffs 1,2",
    "verify hagen-rothe": "--xp 1 --yp 2",
    "verify chu-vandermonde": "--xp 1 --yp 2",
    "verify vanishing-sum": "--v 1,1",
    "verify alpha-constant": "--n 3 --k 2 --r 1",
    "verify stirling-rec": "--n 3 --k 2 --r 1",
    "verify q-recurrence": "--n 2 --lambda 2",
    "verify q-product": "--n 2 --lambda 1",
    "verify general-binomial-demo": "",
    # (a, b) = (0, 0) has no inverse
    "transform": "--n 3 --b 1",
    "verify": "--n 3 --k 2",
    # --v excludes --n/--k in the double sums, --n-max excludes --n in transforms
    "verify --v": "",
    "transform --n-max": "--b 1",
}

#: a valid value of each option, by "leaf option" or by option
VALUES = {
    "--n": "3", "--k": "2", "--r": "1", "--a": "1", "--b": "1", "--tau": "7/2",
    "--lambda": "2", "--lambda2": "3", "--n2": "2", "--b2": "1", "--k0": "2",
    "--alpha": "1,1", "--v": "2,1", "--kind": "first", "--xp": "1/2", "--yp": "3",
    "--zp": "2", "--coeffs": "1,2", "--x": "ones", "--n-max": "4",
    # --seed is read only with --x random
    "--seed": "5 --x random",
    "verify hagen-rothe --variant": "symmetric", "verify bell-conv --variant": "cor34",
}


def _dest(flag):
    return FLAGS[flag].get("dest", flag[2:].replace("-", "_"))


@pytest.mark.parametrize(
    "prefix, handler, flags, flag",
    [
        pytest.param(prefix, handler, flags, flag, id=" ".join([*prefix, flag]))
        for prefix, handler, flags in _leaves()
        for flag in flags
    ],
)
def test_every_accepted_flag_is_read(prefix, handler, flags, flag):
    leaf = " ".join(prefix)
    minimal = MINIMAL.get(leaf, MINIMAL.get(f"{prefix[0]} {flag}", MINIMAL.get(prefix[0])))
    value = VALUES.get(f"{leaf} {flag}", VALUES.get(flag))
    argv = [*prefix, *minimal.split(), flag, *([] if FLAGS[flag].get("action") else value.split())]
    args = ReadRecorder(build_parser().parse_args(argv))
    assert args.handler is handler
    args.handler(args)
    assert _dest(flag) in args.read
    # and nothing but its own options and the tree's positionals
    assert args.read <= {_dest(f) for f in flags} | {"handler", "mode", "identity"}


class TestDeterminismAndFormats:
    def test_identical_invocations_identical_bytes(self, capsys):
        args = (
            "transform", "roundtrip", "--a", "1", "--b", "1",
            "--n-max", "6", "--x", "random", "--seed", "9",
        )
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second

    def test_csv_reports(self, capsys):
        code, out, _ = run(
            capsys, "verify", "zerosum", "--n", "4", "--k", "2",
            "--x", "ones", "--format", "csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "identity,params,lhs,rhs,pass,skipped_poles"
        assert lines[1].startswith("zerosum,")

    def test_csv_scalar_payload(self, capsys):
        code, out, _ = run(
            capsys, "stirling", "--n", "5", "--k", "2", "--format", "csv"
        )
        assert code == 0
        assert "value,15" in out


class TestLoadSequence:
    def test_keywords(self):
        assert load_sequence("ones", 4).values == (1, 1, 1, 1)
        assert load_sequence("factorials", 4).values == (1, 1, 2, 6)
        assert load_sequence("identity-j", 3).values == (1, 2, 3)

    def test_random_reproducible(self):
        a = load_sequence("random", 6, seed=3)
        b = load_sequence("random", 6, seed=3)
        assert a == b

    def test_file_flat_and_nested(self, tmp_path):
        flat = tmp_path / "flat.json"
        flat.write_text('["1/2", "3", "-2/5"]')
        nested = tmp_path / "nested.json"
        nested.write_text('[["1/2", "3", "−2/5"]]')
        assert load_sequence(str(flat)).values == load_sequence(str(nested)).values
        assert len(load_sequence(str(flat))) == 3

    @pytest.mark.parametrize("keyword", ["ones", "factorials", "identity-j", "random"])
    def test_negative_length_refused(self, keyword):
        seed = 1 if keyword == "random" else None
        with pytest.raises(ValueError, match="nonnegative, got -1"):
            named_sequence(keyword, -1, seed)

    def test_keyword_needs_a_length(self):
        with pytest.raises(InputError, match="sequence 'ones' requires --n-max \\(or --n\\)"):
            load_sequence("ones")

    def test_named_sequence_refusals(self):
        with pytest.raises(InputError, match="named sequence 'random' requires a seed"):
            named_sequence("random", 3)
        with pytest.raises(InputError, match="unknown sequence keyword 'bogus'"):
            named_sequence("bogus", 3)

    def test_index_out_of_range(self):
        x = named_sequence("ones", 3)
        with pytest.raises(InputError, match="sequence index must be >= 1, got 0"):
            x[0]
        with pytest.raises(SequenceTooShort, match="sequence has 3 entries, x_4 requested"):
            x[len(x) + 1]

    def test_negative_length_refused_before_reading_a_file(self, tmp_path):
        with pytest.raises(ValueError, match="nonnegative, got -2"):
            load_sequence(str(tmp_path / "absent.json"), n_max=-2)

    def test_file_too_short(self, tmp_path):
        f = tmp_path / "s.json"
        f.write_text('["1", "2"]')
        with pytest.raises(InputError):
            load_sequence(str(f), n_max=5)

    def test_malformed_entries(self, tmp_path):
        f = tmp_path / "bad.json"
        f.write_text('["1", "x/y"]')
        with pytest.raises(InputError):
            load_sequence(str(f))

    def test_boolean_entry_refused(self, tmp_path, capsys):
        f = tmp_path / "bool.json"
        f.write_text('[true, "1/2", 3]')
        code, out, err = run(capsys, "bell", "--n", "3", "--k", "2", "--x", str(f))
        assert code == 2 and out == ""
        assert "bool.json" in err and "True" in err


def test_only_the_parser_is_cached():
    """The parser tree is the one process-wide cache; no library value is memoized."""
    cached = set()
    for info in pkgutil.iter_modules(bellkit.__path__):
        module = importlib.import_module(f"bellkit.{info.name}")
        for obj in vars(module).values():
            if hasattr(obj, "cache_info"):
                cached.add(f"{obj.__module__}.{obj.__qualname__}")
    assert cached == {"bellkit.cli.build_parser"}


#: runs argv with stdout at devnull; prints the child's peak RSS in KiB
PEAK_RSS = """
import resource, subprocess, sys
subprocess.run(sys.argv[1:], stdout=subprocess.DEVNULL, check=True)
print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
"""


def test_a_streamed_grid_holds_one_plan_at_a_time():
    """``verify th1c --n 16`` writes 15,398 reports in a bounded footprint, as JSON or CSV."""
    pytest.importorskip("resource")
    env = {**os.environ, "PYTHONPATH": SRC}
    for fmt in ("json", "csv"):
        argv = [sys.executable, "-c", PEAK_RSS, sys.executable, "-m", "bellkit.cli",
                "verify", "th1c", "--n", "16", "--format", fmt]
        done = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=120,
                              check=True)
        peak_mb = int(done.stdout) / 1024  # ru_maxrss is in KiB on Linux
        assert peak_mb < 40, f"--format {fmt}: peak RSS {peak_mb:.1f} MB"
