import hashlib
import json
import os
import re
import string
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from hodgediv import catalog, porteous
from hodgediv.chow import ChowElement, MultiProjRing
from hodgediv.chowexpr import evaluate
from hodgediv.cli import main


@pytest.fixture
def runner():
    return CliRunner()


def _one_error_line(result) -> str:
    """Assert exit 2 with a single ``Error:`` line on stderr and no
    traceback; return that line."""
    assert result.exit_code == 2
    assert "Traceback" not in result.output
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("Error: "), result.stderr
    return lines[0]


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


def test_verify_help_lists_every_example(runner):
    result = runner.invoke(main, ["verify", "--help"])
    assert result.exit_code == 0
    assert "--example [genus2-relation|genus4-quadric|quartic-pencil]" in result.stdout


def test_verify_unknown_example_names_the_choices(runner):
    result = runner.invoke(main, ["verify", "--example", "nope"])
    assert result.exit_code == 2
    assert result.stderr.splitlines()[-1] == (
        "Error: Invalid value for '--example': 'nope' is not one of "
        "'genus2-relation', 'genus4-quadric', 'quartic-pencil'.")


def test_verify_choices_are_the_pencil_examples_and_genus2():
    """A new entry of PENCIL_EXAMPLES is a new choice with no second edit."""
    example = next(p for p in main.commands["verify"].params if p.name == "example_id")
    assert list(example.type.choices) == sorted([*porteous.PENCIL_EXAMPLES, "genus2-relation"])


def test_chow_eval(runner):
    result = runner.invoke(main, ["chow", "eval", "(a+b)^2*(a+3b)*2b", "--dims", "1,3"])
    assert result.exit_code == 0
    assert result.output.strip() == "14"


def test_chow_eval_rational_output(runner):
    result = runner.invoke(main, ["chow", "eval", "a*b^3", "--dims", "1,3"])
    assert result.output.strip() == "1"


def test_chow_eval_bad_expression_exits_2(runner):
    for expression, dims in [("a +* b", "1,3"), ("a^b", "1,3"), ("1/2", "1,3"), ("", "1,3"),
                             ("a", "1,-1")]:
        _one_error_line(runner.invoke(main, ["chow", "eval", expression, "--dims", dims]))


@pytest.mark.parametrize("expression", [
    "(" * 2000 + "a" + ")" * 2000,
    "0+" + "-" * 3000 + "a",
], ids=["parentheses", "unary-minus"])
def test_chow_eval_deep_nesting_exits_2(runner, expression):
    _one_error_line(runner.invoke(main, ["chow", "eval", expression, "--dims", "1"]))


@pytest.mark.parametrize("dims", ["", "1,x", "1,,2"])
def test_chow_eval_bad_dims_exits_2(runner, dims):
    result = runner.invoke(main, ["chow", "eval", "a", "--dims", dims])
    assert _one_error_line(result) == (
        f"Error: --dims must be comma-separated positive integers, got {dims!r}")


def test_chow_eval_huge_power_of_nilpotent_class(runner):
    # a^2 = 0 on P^1, so the power must stop multiplying once it reaches 0
    result = runner.invoke(main, ["chow", "eval", "a^1000000000", "--dims", "1"])
    assert result.exit_code == 0
    assert result.output.strip() == "0"


def test_chow_eval_binomial_power(runner):
    # (1+a)^k = 1 + k a on P^1, expanded without k products
    result = runner.invoke(main, ["chow", "eval", "(1+a)^1000000", "--dims", "1"])
    assert result.exit_code == 0
    assert result.output.strip() == "1000000"


@pytest.mark.parametrize("expression", ["2^20000*a", "2^1000000000*a", "(1+a)^1000000000*3^9000"])
def test_chow_eval_power_past_the_cap_exits_2(runner, expression):
    assert "refused" in _one_error_line(
        runner.invoke(main, ["chow", "eval", expression, "--dims", "1"]))


def test_chow_eval_long_binomial_power_is_refused_in_bounded_time(runner):
    # every binomial C(20000, s) past the first that passes the cap is left unformed
    start = time.process_time()
    assert "power ^20000 refused" in _one_error_line(
        runner.invoke(main, ["chow", "eval", "(a+1)^20000", "--dims", "20000"]))
    assert time.process_time() - start < 1


def test_chow_eval_long_power_of_a_non_affine_base_is_refused_in_bounded_time(runner):
    start = time.process_time()
    assert "power ^20000 refused" in _one_error_line(
        runner.invoke(main, ["chow", "eval", "(1+a*a)^20000", "--dims", "40000"]))
    assert time.process_time() - start < 1


def test_chow_eval_long_power_of_one_generator_is_answered_in_bounded_time(runner):
    # only a^k itself is formed, not a table of a^t for every t <= k
    start = time.process_time()
    result = runner.invoke(main, ["chow", "eval", "a^2000000", "--dims", "2000000"])
    assert (result.exit_code, result.output) == (0, "1\n")
    assert time.process_time() - start < 0.25


@pytest.mark.parametrize("label, value, args", [
    ("--chi", "1e100000000", ["teich", "pair", "--kind", "abelian", "--genus", "3", "--lyapunov", "1"]),
    ("-d", "1e-100000000", ["certify", "--kind", "abelian", "--genus", "3", "-a", "1", "-b", "1"]),
])
def test_rational_with_a_huge_exponent_exits_2_in_bounded_time(runner, label, value, args):
    start = time.process_time()
    line = _one_error_line(runner.invoke(main, [*args, label, value]))
    assert time.process_time() - start < 1
    assert line == f"Error: {label} must be a rational p/q, got {value!r}"


_A, _D = "7" * 3000, "9" * 4300  # each input within 4,300 digits; the results are not


@pytest.mark.parametrize("args", [
    ["threshold", "--kind", "abelian", "--genus", "3", "-a", f"{_A}/7{_A}", "-b", f"{_A}1/3{_A}"],
    ["threshold", "--kind", "abelian", "--genus", "3", "-a", f"-{_A}/7{_A}", "-b", f"1/3{_A}"],
    ["certify", "--kind", "abelian", "--genus", "3", "-a", "1/7", "-b", "1/3", "-d", _D],
    ["certify", "--kind", "abelian", "--genus", "3", "-a", "1/7", "-b", "1/3", "-d", _D, "--json"],
    ["teich", "pair", "--kind", "abelian", "--genus", "3", "--chi", f"{_A}/7{_A}",
     "--lyapunov", f"1/{_A}1"],
])
def test_result_past_4300_digits_exits_2_with_a_labelled_line(runner, args):
    """A result too long to print is refused by ``format_rational``, also
    inside the certificate text and the non-positive-denominator message."""
    start = time.process_time()
    line = _one_error_line(runner.invoke(main, args))
    assert time.process_time() - start < 1
    assert line == "Error: result refused: it needs more than 4,300 digits"


@pytest.mark.parametrize("args", [["-a", "--dims", "1"], ["-a*b+2", "--dims", "1,1"],
                                  ["--dims", "1", "--", "-a"], ["--dims", "1", "-a"]])
def test_chow_eval_expression_may_start_with_minus(runner, args):
    result = runner.invoke(main, ["chow", "eval", *args])
    assert (result.exit_code, result.output) == (0, "-1\n")


@pytest.mark.parametrize("args", [["a", "--dimz", "1"], ["--dimz", "1", "a"],
                                  ["a", "--dims", "1", "--dimz", "1"]])
def test_chow_eval_unknown_option_exits_2(runner, args):
    result = runner.invoke(main, ["chow", "eval", *args])
    assert result.exit_code == 2
    assert "Error: " in result.stderr and "Traceback" not in result.output


@pytest.mark.parametrize("expression", [
    "8^3000*8^3000*a",
    "9" * 5000 + "*a",
    f"{2 ** 14000 + 1}a",
    "3(2^7000)(2^7000)a",
    f"{2 ** 8000}*{2 ** 8000}+a",
], ids=["product-of-powers", "long-literal", "literal-past-the-cap", "juxtaposed-product",
        "product-of-literals"])
def test_chow_eval_coefficient_past_the_cap_exits_2(runner, expression):
    assert "14,000-bit cap" in _one_error_line(
        runner.invoke(main, ["chow", "eval", expression, "--dims", "1"]))


def test_chow_eval_coefficient_at_the_cap(runner):
    for expression in (f"{2 ** 14000}a", "2^7000*2^7000*a", "0" * 5000 + "7a"):
        result = runner.invoke(main, ["chow", "eval", expression, "--dims", "1"])
        assert result.exit_code == 0
        assert result.output.strip() == str(2 ** 14000 if "2" in expression else 7)


def test_chow_eval_sums_of_literals_are_not_capped(runner):
    """Literals add as elements do, unchecked; a power of their sum is refused
    as a power, not as a product."""
    result = runner.invoke(main, ["chow", "eval", f"{2 ** 14000}+{2 ** 14000}+a", "--dims", "1"])
    assert (result.exit_code, result.stdout) == (0, "1\n")
    assert "power ^1 refused" in _one_error_line(
        runner.invoke(main, ["chow", "eval", f"({2 ** 14000}+{2 ** 14000})^1", "--dims", "1"]))


def test_chow_eval_generators_are_a_to_z_in_factor_order(runner):
    result = runner.invoke(main, ["chow", "eval", "*".join(string.ascii_lowercase),
                                  "--dims", ",".join(["1"] * 26)])
    assert (result.exit_code, result.stdout) == (0, "1\n")


@pytest.mark.parametrize("expression,dims,message", [
    ("a", ",".join(["1"] * 27), "too many factors for single-letter generators"),
    ("e", "1,1,1,1", "unknown generator 'e'"),
    ("ab", "1,3", "unknown generator 'ab'"),
    ("A", "1,3", "unknown generator 'A'"),
], ids=["27-factors", "past-the-last-factor", "two-letters", "upper-case"])
def test_chow_eval_unknown_generator_exits_2(runner, expression, dims, message):
    assert _one_error_line(runner.invoke(
        main, ["chow", "eval", expression, "--dims", dims])) == f"Error: {message}"


# Tokens of chow expressions: generators, small integers, operators, small
# exponents and exponents past the power cap.
_CHOW_TOKENS = st.one_of(
    st.sampled_from(["a", "b", "c", "+", "-", "*", "(", ")", "^", " "]),
    st.integers(0, 12).map(str),
    st.sampled_from(["^2", "^3", "^7", "^20000", "^1000000000"]),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_CHOW_TOKENS, max_size=25).map("".join),
       st.lists(st.integers(0, 4), min_size=1, max_size=3).map(lambda d: ",".join(map(str, d))))
def test_chow_eval_fuzz_keeps_the_exit_code_contract(expression, dims):
    # "--" keeps an expression such as "--" from reading as the end of options
    result = CliRunner().invoke(main, ["chow", "eval", "--dims", dims, "--", expression])
    assert result.exit_code in (0, 2), (result.output, result.exception)
    assert "Traceback" not in result.output + result.stderr
    if result.exit_code == 2:
        _one_error_line(result)
    else:  # the element is in the normal form the constructor would give it
        x = evaluate(expression, MultiProjRing(tuple(map(int, dims.split(",")))))
        assert x == ChowElement(x.ring, dict(x.terms))
        assert all(type(c) is Fraction for c in x.terms.values())


# Option values for the certificate commands: rationals p/q, integers,
# 40-digit numbers and malformed values.
_VALUES = st.one_of(
    st.builds("{}/{}".format, st.integers(-60, 60), st.integers(1, 60)),
    st.integers(-60, 60).map(str),
    st.integers(-10**40 + 1, 10**40 - 1).map(str),
    st.sampled_from(["0", "-0", "1/0", "x", "", " 3 ", "1/-2", "2/4"]),
)


@st.composite
def certificate_commands(draw):
    """``teich pair``, ``threshold`` or ``certify`` with genus 2..40 and
    a drawn subset of the value options."""
    command = draw(st.sampled_from([["teich", "pair"], ["threshold"], ["certify"]]))
    args = command + ["--kind", draw(st.sampled_from(["abelian", "quadratic"])),
                      "--genus", str(draw(st.integers(2, 40)))]
    if command == ["teich", "pair"]:
        required, optional = ["--chi"], ["--lyapunov", "--carea"]
    else:
        required, optional = ["-a", "-b"], ["--c0", "--c", "--cmax"]
        optional += ["-d"] if command == ["certify"] else []
    for option in required + [o for o in optional if draw(st.booleans())]:
        args += [option, draw(_VALUES)]
    return args + (["--json"] if draw(st.booleans()) else [])


@settings(max_examples=300, deadline=None)
@given(certificate_commands())
def test_certificate_commands_fuzz_keep_the_exit_code_contract(args):
    result = CliRunner().invoke(main, args)
    assert result.exit_code in (0, 1, 2), (result.output, result.exception)
    assert "Traceback" not in result.output + result.stderr
    if result.exit_code == 1:
        assert args[0] == "certify"
        verdict = (json.loads(result.stdout)["verdict"] if "--json" in args
                   else result.stdout.split()[0])
        assert verdict == "FAIL"
    elif result.exit_code == 2:
        _one_error_line(result)


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
    assert _one_error_line(result) == "Error: --lyapunov is required for kind=abelian"


def test_threshold(runner):
    result = runner.invoke(main, ["threshold", "--kind", "abelian", "--genus", "3",
                                  "-a", "1", "-b", "1", "--c0", "0"])
    assert result.exit_code == 0
    assert result.output.strip() == "1/6"


def test_threshold_nonpositive_denominator_exits_2(runner):
    for command, a, b in [("threshold", "-1", "1"), ("certify", "0", "0")]:
        result = runner.invoke(main, [command, "--kind", "abelian", "--genus", "3",
                                      "-a", a, "-b", b])
        assert "denominator" in _one_error_line(result)


@pytest.mark.parametrize("args", [
    ["certify", "--kind", "quadratic", "--genus", "3", "-a", "1", "-b", "2",
     "--c", "1/3", "--cmax", "-1"],
    ["certify", "--kind", "abelian", "--genus", "3", "-a", "1", "-b", "2", "-d", "0"],
    ["threshold", "--kind", "quadratic", "--genus", "3", "-a", "1", "-b", "2",
     "--cmax", "-1"],
    ["threshold", "--kind", "abelian", "--genus", "3", "-a", "1", "-b", "2", "--c0", "1/0"],
    ["certify", "--kind", "abelian", "--genus", "3", "-a", "1", "-b", "2", "-d", "1/0"],
    ["teich", "pair", "--kind", "abelian", "--genus", "3", "--chi", "2", "--lyapunov", "9"],
    ["teich", "pair", "--kind", "abelian", "--genus", "3", "--chi", "-2", "--lyapunov", "1"],
    ["teich", "pair", "--kind", "quadratic", "--genus", "3", "--chi", "0", "--carea", "1",
     "--json"],
])
def test_invalid_certificate_input_exits_2(runner, args):
    _one_error_line(runner.invoke(main, args))


@pytest.mark.parametrize("options", [
    ["--kind", "abelian", "--c", "x"],
    ["--kind", "abelian", "--cmax", "x"],
    ["--kind", "quadratic", "--c0", "x"],
    ["--kind", "quadratic", "--c", "1/3", "--cmax", "2", "--c0", "x"],
    ["--kind", "abelian", "--c0", "1", "--c", "x", "-d", "1"],
], ids=["abelian-c", "abelian-cmax", "quadratic-c0", "quadratic-c0-all-set", "abelian-c-d"])
@pytest.mark.parametrize("command", ["threshold", "certify"])
def test_malformed_unused_value_exits_2(runner, command, options):
    """Both commands parse every boundary value, whichever ``--kind`` reads."""
    if command == "threshold" and "-d" in options:
        options = options[:-2]
    result = runner.invoke(main, [command, "--genus", "3", "-a", "1", "-b", "2", *options])
    assert "must be a rational p/q, got 'x'" in _one_error_line(result)


def test_catalog_write_unwritable_path_exits_2(runner, tmp_path, monkeypatch):
    target = tmp_path / "missing" / "cat.json"
    monkeypatch.setenv("HODGEDIV_CATALOG", str(target))
    result = runner.invoke(main, ["catalog", "write", "--genus", "3"])
    assert _one_error_line(result) == f"Error: cannot write catalog {target}: No such file or directory"
    assert result.stdout == ""


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


def test_catalog_list_json_is_json_dumps_of_the_records(runner):
    for g in range(2, 13):
        result = runner.invoke(main, ["catalog", "list", "--genus", str(g), "--json"])
        assert result.exit_code == 0
        assert result.stdout == json.dumps(catalog.build_catalog(g), indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("genera", [["3", "10001"], ["10001", "3"]])
def test_catalog_write_refused_genus_leaves_the_file_as_it_was(runner, tmp_path, monkeypatch,
                                                               genera):
    """Every genus is checked before the file is opened, wherever the
    refused one stands."""
    target = tmp_path / "cat.json"
    monkeypatch.setenv("HODGEDIV_CATALOG", str(target))
    assert runner.invoke(main, ["catalog", "write", "--genus", "3", "--genus", "4"]).exit_code == 0
    before = target.read_bytes()
    result = runner.invoke(main, ["catalog", "write", *(a for g in genera for a in ("--genus", g))])
    assert _one_error_line(result) == "Error: genus must be <= 10000, got 10001"
    assert result.stdout == "" and target.read_bytes() == before


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


def test_catalog_bytes_match_the_golden_record(runner, tmp_path, monkeypatch):
    """Every README command's stdout and exit code, and the catalog file
    ``catalog write`` writes, equal the benchmark's recorded copies."""
    golden = json.loads((Path(__file__).parents[1] / "perfbench" / "golden.json").read_text())
    monkeypatch.chdir(tmp_path)
    for entry in golden:
        if "catalog_sha256" in entry:
            # the recorded stdout names the (relative) path the catalog went to
            catalog = Path(entry["stdout"].removeprefix("wrote ").rstrip("\n"))
            catalog.parent.mkdir(parents=True, exist_ok=True)
            monkeypatch.setenv("HODGEDIV_CATALOG", str(catalog))
        result = runner.invoke(main, entry["args"])
        assert (result.exit_code, result.stdout) == (entry["exit"], entry["stdout"]), entry["args"]
        if "catalog_sha256" in entry:
            assert hashlib.sha256(catalog.read_bytes()).hexdigest() == entry["catalog_sha256"]


def test_chow_eval_power_within_the_cap_is_answered(runner):
    # 3^7001 has 11,097 bits: only a bound on the power's coefficients refused it
    result = runner.invoke(main, ["chow", "eval", "3^7001a", "--dims", "1"])
    assert (result.exit_code, result.output) == (0, f"{3 ** 7001}\n")


@pytest.mark.parametrize("exponent", ["9" * 5000, str(2 ** 14000 + 1)],
                         ids=["5000-digits", "cap-plus-one"])
def test_chow_eval_exponent_literal_past_the_cap_exits_2(runner, exponent):
    assert "14,000-bit cap" in _one_error_line(
        runner.invoke(main, ["chow", "eval", f"a^{exponent}", "--dims", "1"]))


@pytest.mark.parametrize("command, given, reduced", [
    (["teich", "pair", "--kind", "abelian", "--genus", "3"],
     ["--chi", "4/2", "--lyapunov", "2/2"], ["--chi", "2", "--lyapunov", "1"]),
    (["teich", "pair", "--kind", "quadratic", "--genus", "4"],
     ["--chi", "4/2", "--carea", "-0"], ["--chi", "2", "--carea", "0"]),
    (["threshold", "--kind", "abelian", "--genus", "3"],
     ["-a", "2/2", "-b", "4/2", "--c0", "-0", "--c", "6/4", "--cmax", "2/2"],
     ["-a", "1", "-b", "2", "--c0", "0", "--c", "3/2", "--cmax", "1"]),
    (["threshold", "--kind", "quadratic", "--genus", "5"],
     ["-a", "4/2", "-b", "2/2", "--c", "-0"], ["-a", "2", "-b", "1", "--c", "0"]),
    (["certify", "--kind", "abelian", "--genus", "3"],
     ["-a", "2/2", "-b", "4/2", "--c0", "-0", "-d", "2/2"],
     ["-a", "1", "-b", "2", "--c0", "0", "-d", "1"]),
    (["certify", "--kind", "quadratic", "--genus", "4"],
     ["-a", "2/2", "-b", "4/2", "--c", "-0", "--cmax", "4/2"],
     ["-a", "1", "-b", "2", "--c", "0", "--cmax", "2"]),
], ids=["teich-abelian", "teich-quadratic", "threshold-abelian", "threshold-quadratic",
        "certify-abelian", "certify-quadratic"])
def test_equal_rational_inputs_give_identical_reports(runner, command, given, reduced):
    """Each rational input is echoed in lowest terms."""
    for as_json in ([], ["--json"]):
        first = runner.invoke(main, command + given + as_json)
        second = runner.invoke(main, command + reduced + as_json)
        assert first.exit_code == second.exit_code != 2, first.output
        assert first.stdout == second.stdout


_GENERA = st.one_of(st.sampled_from(["0", "1", "-3", "x", "", "2.5"]), st.integers(2, 60).map(str))


@st.composite
def pipeline_commands(draw):
    """``derive``, ``verify`` or ``catalog list``/``write`` with drawn
    genera and examples; a catalog goes to a file or a directory."""
    command = draw(st.sampled_from(["derive", "verify", "list", "write"]))
    if command == "verify":
        example = draw(st.sampled_from(["quartic-pencil", "genus4-quadric", "genus2-relation",
                                        "nope", "", "GENUS2-RELATION"]))
        args = ["verify", "--example", example]
    elif command == "write":
        args = ["catalog", "write"]
        for genus in draw(st.lists(_GENERA, min_size=1, max_size=3)):
            args += ["--genus", genus]
    else:
        args = (["derive"] if command == "derive" else ["catalog", "list"])
        args += ["--genus", draw(_GENERA)]
    return args + (["--json"] if command != "write" and draw(st.booleans()) else [])


@settings(max_examples=40, deadline=None)
@given(pipeline_commands(), st.booleans())
def test_pipeline_commands_fuzz_keep_the_exit_code_contract(tmp_path_factory, args, to_directory):
    target = tmp_path_factory.mktemp("catalog")
    env = {"HODGEDIV_CATALOG": str(target if to_directory else target / "catalog.json")}
    result = CliRunner().invoke(main, args, env=env)
    assert result.exit_code in (0, 2), (result.output, result.exception)
    assert "Traceback" not in result.output + result.stderr
    if result.exit_code == 2:
        errors = [line for line in result.stderr.splitlines() if line.startswith("Error:")]
        assert len(errors) == 1, result.stderr


@pytest.mark.parametrize("kind, options", [
    ("abelian", ["--lyapunov", "1", "--carea", "x"]),
    ("quadratic", ["--carea", "1", "--lyapunov", "x"]),
], ids=["abelian-carea", "quadratic-lyapunov"])
def test_teich_pair_malformed_unused_value_exits_2(runner, kind, options):
    """``teich pair`` parses both parameter options, whichever ``--kind`` reads."""
    result = runner.invoke(main, ["teich", "pair", "--kind", kind, "--genus", "3",
                                  "--chi", "2", *options])
    assert "must be a rational p/q, got 'x'" in _one_error_line(result)


@pytest.mark.parametrize("kind, used, unused", [
    ("abelian", ["--lyapunov", "2/2"], ["--carea", "5/3"]),
    ("quadratic", ["--carea", "4/2"], ["--lyapunov", "1"]),
])
def test_teich_pair_echoes_only_the_value_its_kind_reads(runner, kind, used, unused):
    args = ["teich", "pair", "--kind", kind, "--genus", "3", "--chi", "2", "--json", *used]
    alone, both = runner.invoke(main, args), runner.invoke(main, args + unused)
    assert alone.exit_code == both.exit_code == 0
    assert alone.stdout == both.stdout
    assert set(json.loads(both.stdout)["inputs"]) == {"kind", "genus", "chi", used[0][2:]}


@pytest.fixture
def written_catalog(runner, tmp_path, monkeypatch):
    path = tmp_path / "cat.json"
    monkeypatch.setenv("HODGEDIV_CATALOG", str(path))
    assert runner.invoke(main, ["catalog", "write", "--genus", "3", "--genus", "4"]).exit_code == 0
    return path


def test_catalog_check_round_trip_exits_0(runner, written_catalog):
    result = runner.invoke(main, ["catalog", "check", "--json"])
    assert result.exit_code == 0, result.output
    payload = json.loads(result.stdout)
    assert payload["verdict"] == "match" and payload["skipped_without_vector"] == 3
    assert [row["quantity"] for row in payload["rows"]] == [
        "A.D (PHodgeAbelian, g=3)", "B.D (PHodgeAbelian, g=3)", "C_1.D (PHodgeAbelian, g=3)",
        "A.D (PHodgeAbelian, g=4)", "B.D (PHodgeAbelian, g=4)", "C_1.D (PHodgeAbelian, g=4)",
        "C_2.D (PHodgeAbelian, g=4)"]
    assert all(row["match"] for row in payload["rows"])
    assert "verdict: match" in runner.invoke(main, ["catalog", "check"]).stdout


def test_catalog_check_hand_edited_coefficient_exits_1(runner, written_catalog):
    """Editing delta_1 of D in genus 4 breaks exactly the pairings of the
    genus-4 curves with a delta_1 entry, B and C_1."""
    records = json.loads(written_catalog.read_text())
    d4 = next(r for r in records if r["name"] == "D" and r["genus"] == 4)
    d4["coefficients"]["delta_1"] = "-20"
    written_catalog.write_text(json.dumps(records, indent=2, sort_keys=True) + "\n")
    result = runner.invoke(main, ["catalog", "check", "--json"])
    assert result.exit_code == 1
    payload = json.loads(result.stdout)
    assert payload["verdict"] == "mismatch"
    assert [row["quantity"] for row in payload["rows"] if not row["match"]] == [
        "B.D (PHodgeAbelian, g=4)", "C_1.D (PHodgeAbelian, g=4)"]


def _edited_record(name, genus, edit):
    """A catalog text edit that applies ``edit`` to the record ``name`` of ``genus``."""
    def apply(text):
        records = json.loads(text)
        edit(next(r for r in records if r["name"] == name and r["genus"] == genus))
        return json.dumps(records, indent=2, sort_keys=True) + "\n"
    return apply


@pytest.mark.parametrize("edit, message", [
    (lambda text: text[:len(text) // 2], "malformed catalog .*: JSONDecodeError"),
    (lambda text: text.replace('"space"', '"spice"', 1), "malformed catalog .*: missing key 'space'"),
    (lambda text: text.replace('"-6"', '"x"', 1), "malformed catalog .*: Invalid literal"),
    (lambda text: text.replace('"-6"', '"1/0"', 1), "malformed catalog .*: ZeroDivisionError"),
    (lambda text: text.replace('"-6"', '-6', 1), "malformed catalog .*: '[a-z_0-9]+' must be str, got int"),
    (lambda text: text.replace('"genus": 3', '"genus": "3"', 1), "'genus' must be int, got str"),
    (lambda text: text.replace('"genus": 3', '"genus": 1000000000', 1),
     "malformed catalog .*: genus must be <= 10000, got 1000000000"),
    (_edited_record("B", 3, lambda r: r["vector"].update(delta_7="5")),
     "malformed catalog .*: symbol 'delta_7' not in basis PHodgeAbelian\\(3\\)"),
    (_edited_record("B", 3, lambda r: r["vector"].pop("delta_1")),
     "malformed catalog .*: missing key 'delta_1'"),
    (_edited_record("B", 3, lambda r: r.update(vector=[])), "'vector' must be dict or NoneType, got list"),
    (lambda text: "[1, 2]\n", "catalog entry 0 is not a named class or curve record"),
    (lambda text: '{"record": "class"}\n', "the catalog is not a JSON list of records"),
    (lambda text: "[" * 100_000 + "]" * 100_000, "malformed catalog .*: RecursionError"),
    (lambda text: text.replace('"D": "24"', '"Q": "24"', 1), "names no class record 'Q'"),
], ids=["truncated", "missing-key", "bad-rational", "zero-denominator", "int-entry", "string-genus",
        "huge-genus", "unknown-symbol", "missing-symbol", "list-vector", "not-records", "not-a-list",
        "deep-nesting", "unknown-class"])
def test_catalog_check_malformed_file_exits_2(runner, written_catalog, edit, message):
    written_catalog.write_text(edit(written_catalog.read_text()))
    result = runner.invoke(main, ["catalog", "check"])
    assert re.search(message, _one_error_line(result))
    assert result.stdout == ""


def test_catalog_check_refuses_a_huge_exponent_in_bounded_time(runner, written_catalog):
    written_catalog.write_text(written_catalog.read_text().replace('"-6"', '"1e100000000"', 1))
    start = time.process_time()
    line = _one_error_line(runner.invoke(main, ["catalog", "check"]))
    assert time.process_time() - start < 1
    assert re.search("malformed catalog .*: rational refused", line)


def test_catalog_check_missing_file_exits_2(runner, tmp_path, monkeypatch):
    monkeypatch.setenv("HODGEDIV_CATALOG", str(tmp_path / "none.json"))
    result = runner.invoke(main, ["catalog", "check"])
    assert _one_error_line(result) == (f"Error: cannot read catalog {tmp_path / 'none.json'}: "
                                       "No such file or directory")


_JSON = st.recursive(st.none() | st.booleans() | st.integers(-10**6, 10**6)
                     | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=6),
                     lambda inner: st.lists(inner, max_size=3)
                     | st.dictionaries(st.text(max_size=6), inner, max_size=3), max_leaves=6)


@st.composite
def edited_catalogs(draw):
    """The text of a genus-3 catalog with one drawn edit: a record key or a
    coefficient replaced by a drawn JSON value or deleted, or the text cut."""
    records = catalog.build_catalog(3)
    edit = draw(st.sampled_from(["replace", "delete", "nested", "cut"]))
    if edit == "cut":
        text = json.dumps(records, indent=2, sort_keys=True)
        return text[:draw(st.integers(0, len(text)))]
    rec = draw(st.sampled_from(records))
    key = draw(st.sampled_from(sorted(rec)))
    if edit == "nested" and isinstance(rec[key], dict) and rec[key]:
        rec, key = rec[key], draw(st.sampled_from(sorted(rec[key])))
    if edit == "delete":
        del rec[key]
    else:
        rec[key] = draw(_JSON)
    return json.dumps(records)


@settings(max_examples=80, deadline=None)
@given(edited_catalogs())
def test_catalog_check_fuzz_keeps_the_exit_code_contract(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("check") / "catalog.json"
    path.write_text(text)
    result = CliRunner().invoke(main, ["catalog", "check"], env={"HODGEDIV_CATALOG": str(path)})
    assert result.exit_code in (0, 1, 2), (result.output, result.exception)
    assert result.exception is None or isinstance(result.exception, SystemExit), result.exception
    if result.exit_code == 1:
        assert result.stdout.splitlines()[-1] == "verdict: mismatch"
    elif result.exit_code == 2:
        _one_error_line(result)


_BASE = {"hodgediv", "hodgediv.exactq", "hodgediv.picard"}


@pytest.mark.parametrize("args, modules", [
    (["derive", "--genus", "4"], {"hodgediv.testcurves"}),
    (["verify", "--example", "genus2-relation"], set()),
    (["chow", "eval", "(a+b)^2*(a+3b)*2b", "--dims", "1,3"], {"hodgediv.chow", "hodgediv.chowexpr"}),
    (["teich", "pair", "--kind", "abelian", "--genus", "3", "--chi", "6", "--lyapunov", "1"],
     {"hodgediv.extremality"}),
    (["threshold", "--kind", "abelian", "--genus", "3", "-a", "1", "-b", "1"], {"hodgediv.extremality"}),
    (["certify", "--kind", "quadratic", "--genus", "3", "-a", "1", "-b", "2", "--c", "1/3"],
     {"hodgediv.extremality"}),
    (["catalog", "list", "--genus", "3"], {"hodgediv.catalog", "hodgediv.testcurves"}),
    (["catalog", "write", "--genus", "3"], {"hodgediv.catalog", "hodgediv.testcurves"}),
], ids=["derive", "verify", "chow-eval", "teich-pair", "threshold", "certify", "catalog-list",
        "catalog-write"])
def test_each_command_imports_only_the_modules_it_runs(tmp_path, args, modules):
    """A one-shot process loads picard and exactq, with the package, and
    only the other modules its command runs."""
    env = {**os.environ, "HODGEDIV_CATALOG": str(tmp_path / "catalog.json"),
           "PYTHONPATH": os.pathsep.join(filter(None, [str(Path(__file__).parents[1] / "src"),
                                                       os.environ.get("PYTHONPATH")]))}
    child = subprocess.run([sys.executable, "-X", "importtime", "-m", "hodgediv.cli", *args],
                           capture_output=True, text=True, env=env, cwd=tmp_path)
    assert child.returncode == 0, child.stderr
    # "import time:       self [us] |  cumulative | imported package"
    loaded = {line.rsplit("|", 1)[1].strip() for line in child.stderr.splitlines()
              if line.startswith("import time:")}
    assert {name for name in loaded if name.split(".")[0] == "hodgediv"} == _BASE | modules


@pytest.mark.parametrize("args", [
    ["catalog", "list", "--genus", "400"],
    ["catalog", "list", "--genus", "400", "--json"],
    ["derive", "--genus", "3000", "--json"],
], ids=["catalog-list", "catalog-list-json", "derive-json"])
def test_a_closed_standard_output_is_an_io_error(tmp_path, args):
    """A reader that closes the pipe after one line, while output larger
    than the pipe buffer is still being written (100 KB, 6 MB and 235 KB),
    ends the run with exit 2 and one ``Error:`` line: no traceback, no
    "Exception ignored" line."""
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(Path(__file__).parents[1] / "src"),
                                                       os.environ.get("PYTHONPATH")]))}
    child = subprocess.Popen([sys.executable, "-m", "hodgediv.cli", *args], env=env, cwd=tmp_path,
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE, bufsize=0)
    assert child.stdout.readline()  # unbuffered: no more than the first line is read
    child.stdout.close()
    stderr = child.stderr.read().decode()
    child.stderr.close()
    assert child.wait() == 2
    assert stderr == "Error: cannot write to standard output: Broken pipe\n"
