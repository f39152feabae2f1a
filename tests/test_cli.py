import json

import pytest

from bellkit.cli import load_sequence, main, UsageError


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


class TestSeriesCommand:
    def test_log(self, capsys):
        code, out, _ = run(
            capsys, "series", "log", "--n-max", "4", "--x", "random", "--seed", "2"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["output"]["order"] == 4
        assert payload["output"]["coeffs"][0] == "0"

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

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "bell", "--n", "3", "--k", "2", "--x", "/nope/missing.json")
        assert code == 2 and "missing.json" in err

    def test_random_requires_seed(self, capsys):
        code, _, err = run(capsys, "bell", "--n", "3", "--k", "2", "--x", "random")
        assert code == 2 and "seed" in err

    def test_pole_is_usage_error_not_failure(self, capsys):
        code, _, err = run(
            capsys, "verify", "th1a", "--v", "2,1", "--alpha", "0,1", "--tau", "5"
        )
        assert code == 2 and "alpha" in err


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

    def test_file_too_short(self, tmp_path):
        f = tmp_path / "s.json"
        f.write_text('["1", "2"]')
        with pytest.raises(UsageError):
            load_sequence(str(f), n_max=5)

    def test_malformed_entries(self, tmp_path):
        f = tmp_path / "bad.json"
        f.write_text('["1", "x/y"]')
        with pytest.raises(UsageError):
            load_sequence(str(f))

    def test_boolean_entry_refused(self, tmp_path, capsys):
        f = tmp_path / "bool.json"
        f.write_text('[true, "1/2", 3]')
        code, out, err = run(capsys, "bell", "--n", "3", "--k", "2", "--x", str(f))
        assert code == 2 and out == ""
        assert "bool.json" in err and "True" in err
