import json

import pytest
from click.testing import CliRunner

from hodgediv.cli import main


@pytest.fixture
def runner():
    return CliRunner()


def test_derive_match(runner):
    result = runner.invoke(main, ["derive", "--genus", "4"])
    assert result.exit_code == 0
    assert "verdict: match" in result.output
    assert "-60" in result.output and "114" in result.output


def test_derive_genus2(runner):
    result = runner.invoke(main, ["derive", "--genus", "2"])
    assert result.exit_code == 0
    assert "verdict: match" in result.output


def test_derive_bad_genus_exits_2(runner):
    result = runner.invoke(main, ["derive", "--genus", "1"])
    assert result.exit_code == 2


def test_verify_quartic(runner):
    result = runner.invoke(main, ["verify", "--example", "quartic-pencil"])
    assert result.exit_code == 0
    for needle in ("B.delta_0", "27", "B.lambda", "deg eta", "18"):
        assert needle in result.output


def test_verify_genus4(runner):
    result = runner.invoke(main, ["verify", "--example", "genus4-quadric"])
    assert result.exit_code == 0
    for needle in ("B.kappa (lattice)", "B.kappa (Chow ring)", "14", "34", "56"):
        assert needle in result.output


def test_verify_genus2_relation(runner):
    result = runner.invoke(main, ["verify", "--example", "genus2-relation"])
    assert result.exit_code == 0
    assert "verdict: match" in result.output


def test_verify_unknown_example_exits_2(runner):
    result = runner.invoke(main, ["verify", "--example", "nope"])
    assert result.exit_code == 2


def test_chow_eval(runner):
    result = runner.invoke(main, ["chow", "eval", "(a+b)^2*(a+3b)*2b", "--dims", "1,3"])
    assert result.exit_code == 0
    assert result.output.strip() == "14"


def test_chow_eval_rational_output(runner):
    result = runner.invoke(main, ["chow", "eval", "a*b^3", "--dims", "1,3"])
    assert result.output.strip() == "1"


def test_chow_eval_bad_expression_exits_2(runner):
    result = runner.invoke(main, ["chow", "eval", "a +* b", "--dims", "1,3"])
    assert result.exit_code == 2


@pytest.mark.parametrize("expression", [
    "(" * 2000 + "a" + ")" * 2000,
    "0+" + "-" * 3000 + "a",
], ids=["parentheses", "unary-minus"])
def test_chow_eval_deep_nesting_exits_2(runner, expression):
    result = runner.invoke(main, ["chow", "eval", expression, "--dims", "1"])
    assert result.exit_code == 2
    assert "Traceback" not in result.output
    assert result.output.splitlines()[-1].startswith("Error: ")


@pytest.mark.parametrize("dims", ["", "1,x"])
def test_chow_eval_bad_dims_exits_2(runner, dims):
    result = runner.invoke(main, ["chow", "eval", "a", "--dims", dims])
    assert result.exit_code == 2
    assert result.output.splitlines()[-1] == (
        f"Error: --dims must be comma-separated positive integers, got {dims!r}")


def test_chow_eval_huge_power_of_nilpotent_class(runner):
    # a^2 = 0 on P^1, so the power must stop multiplying once it reaches 0
    result = runner.invoke(main, ["chow", "eval", "a^1000000000", "--dims", "1"])
    assert result.exit_code == 0
    assert result.output.strip() == "0"


def test_teich_pair_quadratic(runner):
    result = runner.invoke(main, ["teich", "pair", "--kind", "quadratic",
                                  "--genus", "3", "--chi", "2", "--carea", "1/2"])
    assert result.exit_code == 0
    assert "stratum pairing = -1" in result.output


def test_teich_pair_abelian_json(runner):
    result = runner.invoke(main, ["teich", "pair", "--kind", "abelian", "--genus", "3",
                                  "--chi", "6", "--lyapunov", "1", "--json"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["pairing"] == "-2"
    assert payload["vector"]["eta"] == "3"
    # round trip: parse and re-serialize is the identity
    assert json.dumps(payload, indent=2, sort_keys=True) == result.output.strip()


def test_teich_pair_missing_param_exits_2(runner):
    result = runner.invoke(main, ["teich", "pair", "--kind", "abelian",
                                  "--genus", "3", "--chi", "2"])
    assert result.exit_code == 2


def test_threshold(runner):
    result = runner.invoke(main, ["threshold", "--kind", "abelian", "--genus", "3",
                                  "-a", "1", "-b", "1", "--c0", "0"])
    assert result.exit_code == 0
    assert result.output.strip() == "1/6"


def test_threshold_nonpositive_denominator_exits_2(runner):
    result = runner.invoke(main, ["threshold", "--kind", "abelian", "--genus", "3",
                                  "-a", "-1", "-b", "1"])
    assert result.exit_code == 2


@pytest.mark.parametrize("args", [
    ["certify", "--kind", "quadratic", "--genus", "3", "-a", "1", "-b", "2",
     "--c", "1/3", "--cmax", "-1"],
    ["certify", "--kind", "abelian", "--genus", "3", "-a", "1", "-b", "2", "-d", "0"],
    ["threshold", "--kind", "quadratic", "--genus", "3", "-a", "1", "-b", "2",
     "--cmax", "-1"],
])
def test_invalid_certificate_input_exits_2(runner, args):
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert "Traceback" not in result.output
    assert result.output.splitlines()[-1].startswith("Error: ")


def test_catalog_write_unwritable_path_exits_2(runner, tmp_path, monkeypatch):
    target = tmp_path / "missing" / "cat.json"
    monkeypatch.setenv("HODGEDIV_CATALOG", str(target))
    result = runner.invoke(main, ["catalog", "write", "--genus", "3"])
    assert result.exit_code == 2
    assert result.output == f"Error: cannot write catalog {target}: No such file or directory\n"


def test_certify_pass_and_fail(runner):
    args = ["certify", "--kind", "abelian", "--genus", "3", "-a", "1", "-b", "2", "--c0", "1/3"]
    passing = runner.invoke(main, args)
    assert passing.exit_code == 0
    assert "PASS" in passing.output
    threshold = runner.invoke(main, ["threshold", "--kind", "abelian", "--genus", "3",
                                     "-a", "1", "-b", "2", "--c0", "1/3"])
    d = threshold.output.strip()
    from fractions import Fraction
    failing = runner.invoke(main, args + ["-d", str(2 * Fraction(d))])
    assert failing.exit_code == 1
    assert "FAIL" in failing.output


def test_catalog_list(runner):
    result = runner.invoke(main, ["catalog", "list", "--genus", "5"])
    assert result.exit_code == 0
    assert "[class] D:" in result.output
    assert "[curve] A:" in result.output


def test_catalog_write_env_override(runner, tmp_path, monkeypatch):
    monkeypatch.setenv("HODGEDIV_CATALOG", str(tmp_path / "cat.json"))
    result = runner.invoke(main, ["catalog", "write", "--genus", "3"])
    assert result.exit_code == 0
    assert (tmp_path / "cat.json").exists()


def test_reports_are_byte_identical(runner):
    commands = [
        ["derive", "--genus", "4", "--json"],
        ["verify", "--example", "genus4-quadric", "--json"],
        ["catalog", "list", "--genus", "3", "--json"],
        ["teich", "pair", "--kind", "abelian", "--genus", "3",
         "--chi", "6", "--lyapunov", "1", "--json"],
    ]
    for args in commands:
        out1 = runner.invoke(main, args).output
        out2 = runner.invoke(main, args).output
        assert out1 == out2


def test_no_decimal_rendering(runner):
    result = runner.invoke(main, ["verify", "--example", "genus4-quadric", "--json"])
    payload = json.loads(result.output)
    for row in payload["rows"]:
        assert "." not in row["computed"]
