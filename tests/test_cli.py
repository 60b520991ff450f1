"""End-to-end tests of the command-line interface.

Each subcommand is driven through click's CliRunner.  Output contracts
covered here: exact repr round-trips in plain format, 17-significant-digit
floats in csv/json, stdout/stderr separation, file output via --out, and
the exit-code convention (0 success, 2 usage/domain error, 3 numerical
non-convergence, 4 verification failure).
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import re

import click
import mpmath as mp
import pytest
from click.testing import CliRunner

from kbessel import (
    KBesselParams,
    SeriesConfig,
    deriv_w,
    eval_w,
    k_digamma,
    k_pochhammer,
    k_trigamma,
    ln_k_gamma,
)
from kbessel.cli import _emit, main


@pytest.fixture()
def runner() -> CliRunner:
    return CliRunner()


def rows_of(stdout: str) -> list[list[str]]:
    """Split plain-format output into whitespace-separated cells."""
    return [line.split() for line in stdout.splitlines()]


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


class TestEval:
    def test_classical_point_plain(self, runner):
        result = runner.invoke(
            main, ["eval", "--k", "1", "--nu", "0", "--c", "1", "--x", "1"])
        assert result.exit_code == 0
        header, row = rows_of(result.stdout)
        assert header == ["x", "value", "terms_used", "est_error"]
        assert row[0] == "1.0"
        assert row[1] == "0.7651976865579666"
        assert int(row[2]) > 0
        assert float(row[3]) < 1e-15

    def test_zero_argument_is_exactly_one(self, runner):
        result = runner.invoke(
            main, ["eval", "--k", "2", "--nu", "0", "--c", "1", "--x", "0"])
        assert result.exit_code == 0
        _, row = rows_of(result.stdout)
        assert row == ["0.0", "1.0", "1", "0.0"]

    def test_order_at_or_below_minus_k_exits_2(self, runner):
        result = runner.invoke(
            main, ["eval", "--k", "1", "--nu", "-2", "--c", "1", "--x", "1"])
        assert result.exit_code == 2
        assert "nu must exceed -k" in result.stderr
        assert result.stdout == ""

    def test_value_matches_library_bit_for_bit(self, runner):
        result = runner.invoke(
            main, ["eval", "--k", "1.5", "--nu", "0.7", "--c", "-1",
                   "--x", "2.25"])
        assert result.exit_code == 0
        _, row = rows_of(result.stdout)
        want = eval_w(KBesselParams(1.5, 0.7, -1.0), 2.25)
        assert row[1] == repr(want.value)

    def test_comma_separated_x_list(self, runner):
        result = runner.invoke(
            main, ["eval", "--k", "1", "--nu", "0.5", "--c", "1",
                   "--x", "0.5, 1, 2"])
        assert result.exit_code == 0
        lines = rows_of(result.stdout)
        assert len(lines) == 4  # header + three points
        assert [line[0] for line in lines[1:]] == ["0.5", "1.0", "2.0"]
        for line, x in zip(lines[1:], (0.5, 1.0, 2.0)):
            want = eval_w(KBesselParams(1.0, 0.5, 1.0), x)
            assert line[1] == repr(want.value)

    def test_csv_format_round_trips(self, runner):
        result = runner.invoke(
            main, ["eval", "--k", "2", "--nu", "1.2", "--c", "1",
                   "--x", "0.5,3", "--format", "csv"])
        assert result.exit_code == 0
        parsed = list(csv.DictReader(io.StringIO(result.stdout)))
        assert len(parsed) == 2
        for record in parsed:
            want = eval_w(KBesselParams(2.0, 1.2, 1.0), float(record["x"]))
            assert float(record["value"]) == want.value
            assert int(record["terms_used"]) == want.terms_used

    def test_json_format_round_trips(self, runner):
        result = runner.invoke(
            main, ["eval", "--k", "1", "--nu", "0", "--c", "2",
                   "--x", "1.5", "--format", "json"])
        assert result.exit_code == 0
        (line,) = result.stdout.splitlines()
        record = json.loads(line)
        assert set(record) == {"x", "value", "terms_used", "est_error"}
        want = eval_w(KBesselParams(1.0, 0.0, 2.0), 1.5)
        assert record["value"] == want.value

    @pytest.mark.parametrize("fmt, digest", [
        ("plain",
         "f27605d94cecbb8cee12ee0b1b7f6bf869f7853869564153e5b3fc8a338f4626"),
        ("csv",
         "0106e254b9906af51859f5637e9cedfe13b159f4a5eadd7deec417189bdbb809"),
        ("json",
         "9eb21c0ac732d25a292c6e890108a160c539df7613b3b4b0d7dc31ef4dea24c8"),
    ])
    def test_each_format_is_pinned(self, runner, fmt, digest):
        # x = 0 gives the exact zeros, x = 20 the Hankel route
        result = runner.invoke(
            main, ["eval", "--k", "1", "--nu", "0.5", "--c", "1",
                   "--x", "0,0.5,1,3,20", "--format", fmt])
        assert result.exit_code == 0
        assert hashlib.sha256(result.stdout_bytes).hexdigest() == digest

    def test_overflow_message_stays_short(self, runner):
        # the leading term's log magnitude is -6.9e302
        result = runner.invoke(
            main, ["eval", "--k", "1", "--nu", "1e300", "--c", "1", "--x", "1"])
        assert result.exit_code == 3
        assert result.stdout == ""
        assert result.stderr.endswith("(log magnitude -6.9047e+302)\n")
        assert len(result.stderr_bytes) < 200

    def test_derivative_flag_matches_library(self, runner):
        result = runner.invoke(
            main, ["eval", "--k", "1", "--nu", "2.5", "--c", "-1",
                   "--x", "0.8", "--deriv", "2"])
        assert result.exit_code == 0
        _, row = rows_of(result.stdout)
        want = deriv_w(KBesselParams(1.0, 2.5, -1.0), 0.8, 2)
        assert row[1] == repr(want.value)

    def test_derivative_order_outside_ladder_domain_exits_2(self, runner):
        result = runner.invoke(
            main, ["eval", "--k", "1", "--nu", "1", "--c", "-1",
                   "--x", "0.8", "--deriv", "2"])
        assert result.exit_code == 2
        assert "derivative ladder" in result.stderr

    def test_derivative_at_zero_names_the_ladders_lowest_order(self, runner):
        # nu = 0.5 >= 0, but the ladder's lowest order nu - m k is -0.5
        result = runner.invoke(
            main, ["eval", "--k", "1", "--nu", "0.5", "--c", "1",
                   "--x", "0", "--deriv", "1"])
        assert result.exit_code == 2
        assert result.stderr == (
            "error: deriv_w at x = 0 requires nu - m*k >= 0, got "
            "nu - m*k = -0.5 (nu=0.5, m=1, k=1.0)\n")

    def test_unwritable_out_path_exits_2(self, runner, tmp_path):
        target = tmp_path / "absent" / "f.txt"
        result = runner.invoke(
            main, ["eval", "--k", "1", "--nu", "0", "--c", "1", "--x", "1",
                   "--out", str(target)])
        assert result.exit_code == 2
        assert result.stderr.startswith(
            f"error: cannot write output file {str(target)!r}: ")
        assert len(result.stderr.splitlines()) == 1

    def test_negative_derivative_order_exits_2(self, runner):
        result = runner.invoke(
            main, ["eval", "--k", "1", "--nu", "0", "--c", "1",
                   "--x", "1", "--deriv", "-1"])
        assert result.exit_code == 2
        assert result.stdout == ""

    def test_out_writes_file_and_keeps_stdout_empty(self, runner, tmp_path):
        target = tmp_path / "values.csv"
        args = ["eval", "--k", "1", "--nu", "0", "--c", "1", "--x", "1,2",
                "--format", "csv"]
        plain = runner.invoke(main, args)
        filed = runner.invoke(main, args + ["--out", str(target)])
        assert filed.exit_code == 0
        assert filed.stdout == ""
        assert target.read_text(encoding="utf-8") == plain.stdout

    def test_term_cap_exhaustion_exits_3(self, runner):
        result = runner.invoke(
            main, ["eval", "--k", "1", "--nu", "0", "--c", "1",
                   "--x", "10", "--max-terms", "3"])
        assert result.exit_code == 3
        assert "max_terms" in result.stderr
        assert result.stdout == ""

    def test_large_argument_takes_the_hankel_expansion(self, runner):
        # the series' terms pass the double-double range at y = 700 (exit
        # 3); the Hankel expansion gives I_0(700)
        result = runner.invoke(
            main, ["eval", "--k", "1", "--nu", "0", "--c", "-1", "--x", "700"])
        assert result.exit_code == 0
        _, row = rows_of(result.stdout)
        with mp.workdps(40):
            want = mp.besseli(0, 700)
            assert abs(mp.mpf(row[1]) - want) <= float(row[3])
        assert float(row[1]) == pytest.approx(float(want), rel=1e-14)

    def test_derivative_ladder_weight_overflow_exits_3(self, runner):
        # c^3 = 1e900 in the ladder weights of the third derivative
        result = runner.invoke(
            main, ["eval", "--k", "1", "--nu", "5", "--c", "1e300",
                   "--x", "1", "--deriv", "3"])
        assert result.exit_code == 3
        assert "ladder weights exceed double range" in result.stderr
        assert result.stdout == ""

    def test_term_cap_beyond_exact_split_exits_2(self, runner):
        result = runner.invoke(
            main, ["eval", "--k", "1", "--nu", "0", "--c", "1", "--x", "1",
                   "--max-terms", str(2**26 + 1)])
        assert result.exit_code == 2
        assert "max_terms" in result.stderr

    def test_underflowing_half_argument_exits_3(self, runner):
        # x/2 rounds to 0, so (x/2)^(nu/k) underflows
        result = runner.invoke(
            main, ["eval", "--k", "1", "--nu", "0.5", "--c", "1",
                   "--x", "5e-324"])
        assert result.exit_code == 3
        assert "underflows" in result.stderr

    def test_non_numeric_x_exits_2(self, runner):
        result = runner.invoke(
            main, ["eval", "--k", "1", "--nu", "0", "--c", "1", "--x", "abc"])
        assert result.exit_code == 2

    def test_empty_x_list_entry_exits_2(self, runner):
        result = runner.invoke(
            main, ["eval", "--k", "1", "--nu", "0", "--c", "1", "--x", "1,,2"])
        assert result.exit_code == 2

    def test_nonpositive_k_exits_2(self, runner):
        result = runner.invoke(
            main, ["eval", "--k", "0", "--nu", "0", "--c", "1", "--x", "1"])
        assert result.exit_code == 2
        assert "k must be positive" in result.stderr

    @pytest.mark.parametrize("option, value", [
        ("--k", "inf"), ("--nu", "inf"), ("--c", "inf"), ("--c", "-inf")])
    def test_non_finite_parameter_exits_2(self, runner, option, value):
        args = {"--k": "1", "--nu": "0", "--c": "1", option: value}
        result = runner.invoke(
            main, ["eval", *(a for pair in args.items() for a in pair),
                   "--x", "1"])
        assert result.exit_code == 2
        assert f"{option[2:]} must be finite, got {value}" in result.stderr

    @pytest.mark.parametrize("x", ["inf", "-inf"])
    def test_non_finite_x_exits_2(self, runner, x):
        result = runner.invoke(
            main, ["eval", "--k", "1", "--nu", "0", "--c", "-1", "--x", x])
        assert result.exit_code == 2
        assert f"requires a finite x >= 0, got {x}" in result.stderr

    def test_missing_required_option_exits_2(self, runner):
        result = runner.invoke(main, ["eval", "--k", "1", "--nu", "0"])
        assert result.exit_code == 2


# ---------------------------------------------------------------------------
# gamma
# ---------------------------------------------------------------------------


class TestGamma:
    def test_functional_equation_point_is_exactly_one(self, runner):
        result = runner.invoke(
            main, ["gamma", "--fn", "gamma", "--t", "2", "--k", "2"])
        assert result.exit_code == 0
        assert result.stdout == "1.0\n"

    @pytest.mark.parametrize("k", ["0.5", "1", "2", "3"])
    def test_normalization_at_t_equal_k(self, runner, k):
        result = runner.invoke(
            main, ["gamma", "--fn", "gamma", "--t", k, "--k", k])
        assert result.exit_code == 0
        assert result.stdout == "1.0\n"

    def test_digamma_at_one(self, runner):
        result = runner.invoke(
            main, ["gamma", "--fn", "digamma", "--t", "1", "--k", "1"])
        assert result.exit_code == 0
        assert result.stdout == "-0.5772156649015329\n"

    def test_beta_at_unit_arguments(self, runner):
        result = runner.invoke(
            main, ["gamma", "--fn", "beta", "--x", "1", "--y", "1",
                   "--k", "1"])
        assert result.exit_code == 0
        assert result.stdout == "1.0\n"

    def test_lngamma_matches_library(self, runner):
        result = runner.invoke(
            main, ["gamma", "--fn", "lngamma", "--t", "2.5", "--k", "1.5"])
        assert result.exit_code == 0
        assert result.stdout == repr(ln_k_gamma(2.5, 1.5)) + "\n"

    def test_pochhammer_integer_product(self, runner):
        result = runner.invoke(
            main, ["gamma", "--fn", "pochhammer", "--t", "1", "--n", "3",
                   "--k", "1"])
        assert result.exit_code == 0
        assert result.stdout == "6.0\n"
        assert k_pochhammer(1.0, 3, 1.0) == 6.0

    def test_trigamma_matches_library(self, runner):
        result = runner.invoke(
            main, ["gamma", "--fn", "trigamma", "--t", "0.7", "--k", "2"])
        assert result.exit_code == 0
        assert result.stdout == repr(k_trigamma(0.7, 2.0)) + "\n"

    @pytest.mark.parametrize("fn", ["digamma", "trigamma"])
    def test_log_derivatives_where_t_over_k_overflows_exit_0(self, runner,
                                                               fn):
        # t/k = 1e310 is inf; both values fit in a double
        result = runner.invoke(
            main, ["gamma", "--fn", fn, "--t", "1e300", "--k", "1e-10"])
        assert result.exit_code == 0
        function = k_digamma if fn == "digamma" else k_trigamma
        assert result.stdout == repr(function(1e300, 1e-10)) + "\n"

    def test_missing_function_argument_exits_2(self, runner):
        result = runner.invoke(
            main, ["gamma", "--fn", "beta", "--x", "1", "--k", "1"])
        assert result.exit_code == 2
        assert "requires --y" in result.stderr

    @pytest.mark.parametrize("args, extra", [
        (["--fn", "pochhammer", "--t", "1", "--n", "3", "--x", "2"], "--x"),
        (["--fn", "gamma", "--t", "1", "--n", "3"], "--n"),
        (["--fn", "beta", "--x", "1", "--y", "1", "--t", "1"], "--t"),
        (["--fn", "digamma", "--t", "1", "--x", "0", "--y", "0"], "--x --y"),
    ], ids=["pochhammer-x", "gamma-n", "beta-t", "digamma-x-y"])
    def test_option_the_function_does_not_take_exits_2(self, runner, args,
                                                       extra):
        result = runner.invoke(main, ["gamma", *args, "--k", "1"])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr == (
            f"error: --fn {args[1]} does not take {extra}\n")

    def test_pole_argument_exits_2(self, runner):
        result = runner.invoke(
            main, ["gamma", "--fn", "gamma", "--t", "-1", "--k", "1"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("args", [
        ["--fn", "gamma", "--t", "inf"],
        ["--fn", "lngamma", "--t", "inf"],
        ["--fn", "pochhammer", "--t", "nan", "--n", "2"],
        ["--fn", "gamma", "--t", "nan"],
    ], ids=["gamma-inf", "lngamma-inf", "pochhammer-nan", "gamma-nan"])
    def test_non_finite_argument_exits_2(self, runner, args):
        result = runner.invoke(main, ["gamma", *args, "--k", "1"])
        assert result.exit_code == 2
        assert result.stdout == ""

    @pytest.mark.parametrize("args", [
        ["--fn", "beta", "--x", "1e-320", "--y", "1e-320"],
        ["--fn", "trigamma", "--t", "1e-320"],
        ["--fn", "gamma", "--t", "-1e-320"],
        ["--fn", "digamma", "--t", "1e-320"],
    ], ids=["beta", "trigamma", "gamma", "digamma"])
    def test_value_beyond_double_range_exits_3(self, runner, args):
        result = runner.invoke(main, ["gamma", *args, "--k", "1"])
        assert result.exit_code == 3
        assert "exceeds double range" in result.stderr
        assert result.stdout == ""

    def test_unknown_function_exits_2(self, runner):
        result = runner.invoke(
            main, ["gamma", "--fn", "bogus", "--t", "1", "--k", "1"])
        assert result.exit_code == 2

    def test_out_writes_file(self, runner, tmp_path):
        target = tmp_path / "value.txt"
        result = runner.invoke(
            main, ["gamma", "--fn", "gamma", "--t", "2", "--k", "2",
                   "--out", str(target)])
        assert result.exit_code == 0
        assert result.stdout == ""
        assert target.read_text(encoding="utf-8") == "1.0\n"


# ---------------------------------------------------------------------------
# table
# ---------------------------------------------------------------------------


class TestTable:
    def test_header_once_and_row_count_equals_steps(self, runner):
        result = runner.invoke(
            main, ["table", "--k", "1", "--nu", "0.5", "--c", "1",
                   "--x-start", "0.5", "--x-stop", "2", "--x-steps", "7"])
        assert result.exit_code == 0
        lines = result.stdout.splitlines()
        assert len(lines) == 8
        assert lines[0] == "x value normalized est_error"
        assert sum(1 for line in lines if line.startswith("x ")) == 1

    def test_single_step_uses_start_point(self, runner):
        result = runner.invoke(
            main, ["table", "--k", "1", "--nu", "0", "--c", "1",
                   "--x-start", "1.5", "--x-stop", "99", "--x-steps", "1"])
        assert result.exit_code == 0
        lines = rows_of(result.stdout)
        assert len(lines) == 2
        assert lines[1][0] == "1.5"

    def test_grid_is_inclusive_and_evenly_spaced(self, runner):
        result = runner.invoke(
            main, ["table", "--k", "2", "--nu", "1", "--c", "-1",
                   "--x-start", "0", "--x-stop", "2", "--x-steps", "5"])
        assert result.exit_code == 0
        xs = [float(line[0]) for line in rows_of(result.stdout)[1:]]
        assert xs == [0.0, 0.5, 1.0, 1.5, 2.0]

    def test_values_match_direct_evaluation(self, runner):
        result = runner.invoke(
            main, ["table", "--k", "1.5", "--nu", "0.7", "--c", "1",
                   "--x-start", "0.5", "--x-stop", "2.5", "--x-steps", "3"])
        assert result.exit_code == 0
        for line in rows_of(result.stdout)[1:]:
            want = eval_w(KBesselParams(1.5, 0.7, 1.0), float(line[0]))
            assert line[1] == repr(want.value)

    def test_normalized_column_at_large_argument(self, runner):
        # Gamma(3/2) (2/100)^(1/2) J_(1/2)(100) from mpmath; the series with
        # leading term 1 gave 23481945.088310633 here
        result = runner.invoke(
            main, ["table", "--k", "1", "--nu", "0.5", "--c", "1",
                   "--x-start", "100", "--x-stop", "100", "--x-steps", "1"])
        assert result.exit_code == 0
        normalized = float(rows_of(result.stdout)[1][2])
        want = -0.0050636564110975879
        assert abs(normalized - want) <= 1e-12 * abs(want)

    def test_normalized_column_is_one_at_zero_argument(self, runner):
        result = runner.invoke(
            main, ["table", "--k", "1", "--nu", "1", "--c", "1",
                   "--x-start", "0", "--x-stop", "1", "--x-steps", "2"])
        assert result.exit_code == 0
        lines = rows_of(result.stdout)
        assert lines[1][2] == "1.0"

    def test_normalized_tends_to_one_for_small_arguments(self, runner):
        result = runner.invoke(
            main, ["table", "--k", "2", "--nu", "1.4", "--c", "1",
                   "--x-start", "1e-4", "--x-stop", "2e-4", "--x-steps", "2"])
        assert result.exit_code == 0
        for line in rows_of(result.stdout)[1:]:
            assert math.isclose(float(line[2]), 1.0, rel_tol=1e-7)

    def test_normalized_equals_value_for_zero_order(self, runner):
        result = runner.invoke(
            main, ["table", "--k", "1", "--nu", "0", "--c", "1",
                   "--x-start", "0.5", "--x-stop", "1.5", "--x-steps", "3"])
        assert result.exit_code == 0
        for line in rows_of(result.stdout)[1:]:
            assert line[2] == line[1]

    @pytest.mark.parametrize("c", [-1.0, 0.0, 0.5, 2.0])
    @pytest.mark.parametrize("nu", [0.7, -0.6])
    def test_normalized_column_matches_hyp0f1(self, runner, nu, c):
        # the normalized series is 0F1(; b + 1; -c x^2 / (4k)), b = nu/k;
        # x runs from y = x sqrt(|c|/k) = 0.5 up to 5
        k = 1.5
        x_stop = 5.0 * math.sqrt(k / abs(c)) if c else 5.0
        result = runner.invoke(
            main, ["table", "--k", str(k), "--nu", str(nu), "--c", str(c),
                   "--x-start", repr(x_stop / 10), "--x-stop", repr(x_stop),
                   "--x-steps", "10"])
        assert result.exit_code == 0
        for line in rows_of(result.stdout)[1:]:
            x, got = float(line[0]), float(line[2])
            with mp.workdps(40):
                want = float(mp.hyp0f1(mp.mpf(nu) / k + 1,
                                       -mp.mpf(c) * mp.mpf(x) ** 2 / (4 * k)))
            assert abs(got - want) <= 1e-15 * abs(want)

    def test_csv_format_parses(self, runner):
        result = runner.invoke(
            main, ["table", "--k", "1", "--nu", "0.5", "--c", "1",
                   "--x-start", "1", "--x-stop", "2", "--x-steps", "4",
                   "--format", "csv"])
        assert result.exit_code == 0
        parsed = list(csv.DictReader(io.StringIO(result.stdout)))
        assert len(parsed) == 4
        assert list(parsed[0]) == ["x", "value", "normalized", "est_error"]

    @pytest.mark.parametrize("fmt, digest", [
        ("plain",
         "5ebe56e064b799265b5e1c38ae96bda1b2d106d184ea2ef63b9b859f9ede5d40"),
        ("csv",
         "d0fbc17c1947d532b4dd3eadc68ab007db0a8d83aebadb7dfd0d41c672a5d89f"),
        ("json",
         "a158b0be6ab95d35cf903befbb2079f4e761a48b10bf32a4fa7c5ad9c0081f00"),
    ])
    def test_each_format_is_pinned(self, runner, fmt, digest):
        # y = x sqrt(|c|/k) = 2x crosses 17, so both routes are tabulated
        result = runner.invoke(
            main, ["table", "--k", "0.5", "--nu", "0.7", "--c", "2",
                   "--x-start", "0", "--x-stop", "30", "--x-steps", "7",
                   "--format", fmt])
        assert result.exit_code == 0
        assert hashlib.sha256(result.stdout_bytes).hexdigest() == digest

    def test_zero_steps_exits_2(self, runner):
        result = runner.invoke(
            main, ["table", "--k", "1", "--nu", "0", "--c", "1",
                   "--x-start", "0", "--x-stop", "1", "--x-steps", "0"])
        assert result.exit_code == 2
        assert "--x-steps" in result.stderr

    def test_span_times_step_past_the_double_range_keeps_every_row(self,
                                                                  runner):
        # span = 1.7e308 fits, span * 2 does not: the last x was inf
        result = runner.invoke(
            main, ["table", "--k", "1", "--nu", "0", "--c", "0",
                   "--x-start", "0", "--x-stop", "1.7e308", "--x-steps", "3"])
        assert result.exit_code == 0
        rows = rows_of(result.stdout)[1:]
        assert [row[0] for row in rows] == ["0.0", "8.5e+307", "1.7e+308"]
        assert all(row[1:3] == ["1.0", "1.0"] for row in rows)

    def test_invalid_order_exits_2(self, runner):
        result = runner.invoke(
            main, ["table", "--k", "1", "--nu", "-3", "--c", "1",
                   "--x-start", "0", "--x-stop", "1", "--x-steps", "2"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("start, stop", [
        ("1", "inf"), ("-inf", "1"), ("nan", "1"), ("1", "nan"),
        ("-1e308", "1.7e308"),  # each end finite, their span past the range
    ])
    def test_non_finite_x_range_exits_2_naming_the_options(self, runner,
                                                           start, stop):
        result = runner.invoke(
            main, ["table", "--k", "1", "--nu", "0", "--c", "1",
                   "--x-start", start, "--x-stop", stop, "--x-steps", "3"])
        assert result.exit_code == 2
        assert result.stderr.startswith(
            "error: --x-start and --x-stop must be finite")
        assert f"--x-start {float(start)!r}, --x-stop {float(stop)!r}" in (
            result.stderr)
        assert result.stdout == ""


# ---------------------------------------------------------------------------
# compare-integral
# ---------------------------------------------------------------------------


class TestCompareIntegral:
    def test_default_grid_differences_stay_small(self, runner):
        result = runner.invoke(main, ["compare-integral"])
        assert result.exit_code == 0
        assert hashlib.sha256(result.stdout_bytes).hexdigest() == (
            "55b5393354f09f87e982a5ac506e2f15cca6d285ef6eab98e7ab5df6cc4c92f3")
        parsed = list(csv.DictReader(io.StringIO(result.stdout)))
        assert len(parsed) == 432
        assert {record["route"] for record in parsed} == {
            "cos", "cosh", "kernel"}
        for record in parsed:
            series = float(record["series"])
            integral = float(record["integral"])
            diff = float(record["diff"])
            assert diff == integral - series
            assert abs(diff) <= 1e-9 * max(1.0, abs(series))

    def test_json_format_parses(self, runner):
        result = runner.invoke(main, ["compare-integral", "--format", "json"])
        assert result.exit_code == 0
        assert hashlib.sha256(result.stdout_bytes).hexdigest() == (
            "09c14ad54cf1cdd62844080b9eda73b21846a42a0c6dbffeaaabdd112229aa1d")
        lines = result.stdout.splitlines()
        assert len(lines) == 432
        record = json.loads(lines[0])
        assert set(record) == {"k", "nu", "alpha", "x", "route", "c",
                               "series", "integral", "diff"}

    def test_custom_grid_file_emits_all_routes(self, runner, tmp_path):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({
            "k_values": [1.0], "nu_values": [0.5],
            "alpha_values": [1.0], "x_values": [1.0]}), encoding="utf-8")
        result = runner.invoke(
            main, ["compare-integral", "--grid", str(grid)])
        assert result.exit_code == 0
        parsed = list(csv.DictReader(io.StringIO(result.stdout)))
        assert [(r["route"], r["c"]) for r in parsed] == [
            ("cos", "1"), ("cosh", "-1"), ("kernel", "1"), ("kernel", "-1")]

    def test_nonpositive_order_skips_kernel_route(self, runner, tmp_path):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({
            "k_values": [1.0], "nu_values": [-0.2],
            "alpha_values": [1.0], "x_values": [1.0]}), encoding="utf-8")
        result = runner.invoke(
            main, ["compare-integral", "--grid", str(grid)])
        assert result.exit_code == 0
        parsed = list(csv.DictReader(io.StringIO(result.stdout)))
        assert [r["route"] for r in parsed] == ["cos", "cosh"]

    def test_repeated_grid_values_are_dropped(self, runner, tmp_path):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({
            "k_values": [1.0, 1], "nu_values": [0.5, 0.5],
            "alpha_values": [1.0, 1.0], "x_values": [1.0, 1]}),
            encoding="utf-8")
        result = runner.invoke(
            main, ["compare-integral", "--grid", str(grid)])
        assert result.exit_code == 0
        parsed = list(csv.DictReader(io.StringIO(result.stdout)))
        assert [(r["route"], r["c"]) for r in parsed] == [
            ("cos", "1"), ("cosh", "-1"), ("kernel", "1"), ("kernel", "-1")]

    def test_missing_grid_key_exits_2(self, runner, tmp_path):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"k_values": [1.0]}), encoding="utf-8")
        result = runner.invoke(
            main, ["compare-integral", "--grid", str(grid)])
        assert result.exit_code == 2
        assert "must define" in result.stderr

    @pytest.mark.parametrize("k_values, message", [
        ([], "k_values must be non-empty"),
        ([0], "k_values must be positive"),
    ], ids=["empty", "zero"])
    def test_grid_spec_refusal_exits_2_as_verify_does(self, runner, tmp_path,
                                                      k_values, message):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({
            "k_values": k_values, "nu_values": [0.5], "alpha_values": [1.0],
            "x_values": [1.0]}), encoding="utf-8")
        results = [runner.invoke(main, [command, "--grid", str(grid)])
                   for command in ("compare-integral", "verify")]
        for result in results:
            assert result.exit_code == 2
            assert result.stdout == ""
        assert results[0].stderr == results[1].stderr == f"error: {message}\n"

    @pytest.mark.parametrize("payload,message", [
        ({"k_values": ["a"]}, "array of numbers"),
        ({"k_values": 1.0}, "array of numbers"),
        ({"bogus": [1.0]}, "unknown grid field"),
        ({"x_values": [math.inf]}, "array of numbers"),
    ], ids=["non-numeric", "scalar", "unknown-field", "infinity"])
    def test_malformed_grid_file_exits_2(self, runner, tmp_path, payload,
                                         message):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({
            "k_values": [1.0], "nu_values": [0.5], "alpha_values": [1.0],
            "x_values": [1.0], **payload}), encoding="utf-8")
        result = runner.invoke(
            main, ["compare-integral", "--grid", str(grid)])
        assert result.exit_code == 2
        assert message in result.stderr

    def test_overflowing_weight_exponent_exits_3(self, runner, tmp_path):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({
            "k_values": [1], "nu_values": [1e308], "alpha_values": [1],
            "x_values": [1]}), encoding="utf-8")
        result = runner.invoke(
            main, ["compare-integral", "--grid", str(grid)])
        assert result.exit_code == 3
        assert "2a + 1 exceeds double range" in result.stderr

    def test_infinite_cosine_argument_exits_3(self, runner, tmp_path):
        # alpha x / sqrt(k) = 1e400 overflows; cos(inf) was a bare ValueError
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({
            "k_values": [1], "nu_values": [1], "alpha_values": [1e200],
            "x_values": [1e200]}), encoding="utf-8")
        result = runner.invoke(
            main, ["compare-integral", "--grid", str(grid)])
        assert result.exit_code == 3
        assert "alpha x / sqrt(k) exceeds double range" in result.stderr

    def test_out_writes_file(self, runner, tmp_path):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({
            "k_values": [1.0], "nu_values": [0.5],
            "alpha_values": [1.0], "x_values": [1.0]}), encoding="utf-8")
        target = tmp_path / "rows.csv"
        result = runner.invoke(
            main, ["compare-integral", "--grid", str(grid),
                   "--out", str(target)])
        assert result.exit_code == 0
        assert result.stdout == ""
        text = target.read_text(encoding="utf-8")
        assert text.startswith("k,nu,alpha,x,route,c,series,integral,diff\n")


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


class TestVerify:
    def test_single_check_passes_with_summary(self, runner):
        result = runner.invoke(main, ["verify", "--checks", "turan"])
        assert result.exit_code == 0
        lines = result.stdout.splitlines()
        assert len(lines) == 162
        assert "162 reports" in result.stderr
        assert "0 failed" in result.stderr
        for line in lines:
            record = json.loads(line)
            assert record["check_name"] == "turan"
            assert record["passed"] is True

    def test_unknown_check_exits_2(self, runner):
        result = runner.invoke(main, ["verify", "--checks", "bogus"])
        assert result.exit_code == 2
        assert "unknown check" in result.stderr

    def test_empty_check_list_exits_2(self, runner):
        result = runner.invoke(main, ["verify", "--checks", " , "])
        assert result.exit_code == 2
        assert "at least one check" in result.stderr

    def test_failing_grid_exits_4(self, runner, tmp_path):
        # I_100(6.3e7) leaves the double range
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({
            "k_values": [0.1], "nu_values": [10.0], "c_values": [-1],
            "x_values": [2e7]}), encoding="utf-8")
        result = runner.invoke(
            main, ["verify", "--checks", "ode", "--grid", str(grid)])
        assert result.exit_code == 4
        assert "0 passed" in result.stderr
        assert "1 failed" in result.stderr
        for line in result.stdout.splitlines():
            record = json.loads(line)
            assert record["passed"] is False
            assert record["margin"] is None
            assert record["notes"].startswith("error: Overflow")

    def test_relation_overflow_is_a_failed_report(self, runner, tmp_path):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({
            "k_values": [1], "alpha_values": [1000],
            "x_values": [1000]}), encoding="utf-8")
        result = runner.invoke(
            main, ["verify", "--checks", "sinh-relation", "--grid", str(grid)])
        assert result.exit_code == 4
        assert "1 reports: 0 passed, 0 skipped, 1 failed" in result.stderr
        record = json.loads(result.stdout)
        assert record["passed"] is False
        assert record["notes"].startswith("error: Overflow: sinh")

    @pytest.mark.parametrize("check, payload, failed, message", [
        # cosh(900 t) in the cosh route's integrand passes the double range;
        # the cos leg's series at y = 900 is the Hankel expansion, which its
        # quadrature meets
        ("integral-agreement",
         {"k_values": [1], "nu_values": [0.5], "alpha_values": [30],
          "x_values": [30]},
         "3 reports: 1 passed, 0 skipped, 2 failed",
         "error: QuadratureFailure: transformed integrand overflows"),
        # cosh(800 t) in the four weighted integrals passes the double range
        ("chebyshev",
         {"k_values": [1], "nu_values": [1], "alpha_values": [1],
          "x_values": [800]},
         "2 reports: 0 passed, 1 skipped, 1 failed",
         "error: QuadratureFailure: transformed integrand overflows"),
    ], ids=["cosh-integrand", "chebyshev-integrand"])
    def test_quadrature_layer_overflow_is_a_failed_report(
            self, runner, tmp_path, check, payload, failed, message):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps(payload), encoding="utf-8")
        result = runner.invoke(
            main, ["verify", "--checks", check, "--grid", str(grid)])
        assert result.exit_code == 4
        assert failed in result.stderr
        notes = [json.loads(line)["notes"]
                 for line in result.stdout.splitlines()]
        assert any(note.startswith(message) for note in notes)

    def test_recurrence_power_overflow_is_a_failed_report(self, runner,
                                                          tmp_path):
        # 50^200 in the weighted-power derivatives leaves the double range
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({
            "k_values": [1], "nu_values": [200], "c_values": [-1],
            "x_values": [50]}), encoding="utf-8")
        result = runner.invoke(
            main, ["verify", "--checks", "recurrences", "--grid", str(grid)])
        assert result.exit_code == 4
        assert "1 reports: 0 passed, 0 skipped, 1 failed" in result.stderr
        record = json.loads(result.stdout)
        assert record["passed"] is False
        assert record["notes"] == ("error: Overflow: x^(+-nu/k) exceeds "
                                   "double range at x = 50.0, nu/k = 200.0")

    def test_overflowing_weight_exponent_is_a_failed_report(self, runner,
                                                             tmp_path):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({
            "k_values": [1], "nu_values": [1e308], "alpha_values": [1],
            "x_values": [1]}), encoding="utf-8")
        result = runner.invoke(
            main, ["verify", "--checks", "integral-agreement",
                   "--grid", str(grid)])
        assert result.exit_code == 4
        assert "3 reports: 0 passed, 0 skipped, 3 failed" in result.stderr
        for line in result.stdout.splitlines():
            assert json.loads(line)["notes"].startswith("error: Overflow")

    def test_csv_format_embeds_grid_point_as_json(self, runner):
        result = runner.invoke(
            main, ["verify", "--checks", "sin-relation", "--format", "csv"])
        assert result.exit_code == 0
        assert hashlib.sha256(result.stdout_bytes).hexdigest() == (
            "f2e90c64e07ef98fe603a89c9a0f9ad43e2022bc73f03f5d17e18125e6870111")
        parsed = list(csv.DictReader(io.StringIO(result.stdout)))
        assert len(parsed) == 27
        for record in parsed:
            point = json.loads(record["grid_point"])
            assert set(point) == {"k", "alpha", "x"}
            assert record["passed"] == "true"

    def test_grid_file_merges_over_default_values(self, runner, tmp_path):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"x_values": [0.5]}), encoding="utf-8")
        result = runner.invoke(
            main, ["verify", "--checks", "ode", "--grid", str(grid)])
        assert result.exit_code == 0
        lines = result.stdout.splitlines()
        assert len(lines) == 54  # 3 k * 6 nu * 3 c at the single x
        for line in lines:
            record = json.loads(line)
            assert record["grid_point"]["x"] == 0.5

    def test_repeated_grid_values_are_dropped(self, runner, tmp_path):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"x_values": [1, 1, 3]}), encoding="utf-8")
        result = runner.invoke(
            main, ["verify", "--checks", "ratio-x-monotone", "--grid",
                   str(grid)])
        assert result.exit_code == 0
        assert "63 reports: 63 passed, 0 skipped, 0 failed" in result.stderr
        for line in result.stdout.splitlines():
            assert json.loads(line)["grid_point"]["x_count"] == 2

    def test_out_writes_file_and_summary_stays_on_stderr(self, runner,
                                                         tmp_path):
        target = tmp_path / "reports.jsonl"
        result = runner.invoke(
            main, ["verify", "--checks", "turan", "--out", str(target)])
        assert result.exit_code == 0
        assert result.stdout == ""
        assert "162 reports" in result.stderr
        lines = target.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 162

    def test_bad_json_grid_file_exits_2(self, runner, tmp_path):
        grid = tmp_path / "grid.json"
        grid.write_text("not json", encoding="utf-8")
        result = runner.invoke(
            main, ["verify", "--checks", "ode", "--grid", str(grid)])
        assert result.exit_code == 2
        assert "not valid JSON" in result.stderr

    def test_unknown_grid_field_exits_2(self, runner, tmp_path):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"bogus": [1.0]}), encoding="utf-8")
        result = runner.invoke(
            main, ["verify", "--checks", "ode", "--grid", str(grid)])
        assert result.exit_code == 2
        assert "unknown grid field" in result.stderr

    def test_non_numeric_grid_values_exit_2(self, runner, tmp_path):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"k_values": ["wide"]}), encoding="utf-8")
        result = runner.invoke(
            main, ["verify", "--checks", "ode", "--grid", str(grid)])
        assert result.exit_code == 2
        assert "array of numbers" in result.stderr

    def test_usage_error_leaves_an_existing_out_file_untouched(self, runner,
                                                              tmp_path,
                                                              check_calls):
        target = tmp_path / "reports.jsonl"
        target.write_bytes(b"kept\n")
        result = runner.invoke(
            main, ["verify", "--checks", "bogus", "--out", str(target)])
        assert result.exit_code == 2
        assert "unknown check" in result.stderr
        assert target.read_bytes() == b"kept\n"
        assert check_calls == []

    def test_unwritable_out_path_exits_2_before_any_check(self, runner,
                                                          tmp_path,
                                                          check_calls):
        target = tmp_path / "absent" / "reports.jsonl"
        result = runner.invoke(main, ["verify", "--out", str(target)])
        assert result.exit_code == 2
        assert result.stderr.startswith(
            f"error: cannot write output file {str(target)!r}: ")
        assert len(result.stderr.splitlines()) == 1
        assert check_calls == []

    def test_out_file_holds_the_stdout_bytes_on_default_grid(self, runner,
                                                             tmp_path):
        target = tmp_path / "reports.jsonl"
        printed = runner.invoke(main, ["verify"])
        filed = runner.invoke(main, ["verify", "--out", str(target)])
        assert filed.exit_code == printed.exit_code == 0
        assert filed.stdout == ""
        assert filed.stderr == printed.stderr
        assert target.read_bytes() == printed.stdout_bytes

    def test_csv_on_default_grid_is_pinned(self, runner):
        result = runner.invoke(main, ["verify", "--format", "csv"])
        assert result.exit_code == 0
        assert len(result.stdout_bytes) == 437441
        assert hashlib.sha256(result.stdout_bytes).hexdigest() == (
            "0bc5998252bab4ac111203d5695dda0988847ff04fc67e5b22bfc52237ab65af")

    def test_all_checks_on_default_grid_pass(self, runner):
        result = runner.invoke(main, ["verify"])
        assert result.exit_code == 0
        assert hashlib.sha256(result.stdout_bytes).hexdigest() == (
            "8a3785eb3793f09825eacbc72081f1172bd3def2a29a064270e6acde013c25cd")
        assert "0 failed" in result.stderr
        lines = result.stdout.splitlines()
        assert len(lines) == 2178
        names = {json.loads(line)["check_name"] for line in lines}
        assert len(names) == 12


# ---------------------------------------------------------------------------
# sweeps on valid grids: a typed refusal per point, never a traceback
# ---------------------------------------------------------------------------


def _strict_json(line: str) -> dict:
    """json.loads that refuses NaN and Infinity, which JSON excludes."""
    def refuse(constant):
        raise ValueError(f"not a JSON number: {constant}")
    return json.loads(line, parse_constant=refuse)


class TestSweepsOnValidGrids:
    def _run(self, runner, tmp_path, payload, *args):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps(payload), encoding="utf-8")
        return runner.invoke(main, [*args, "--grid", str(grid)])

    def test_chebyshev_where_x_over_sqrt_k_underflows_passes(self, runner,
                                                             tmp_path):
        # x/sqrt(k) = 0.0 made the closed-form probes a ZeroDivisionError
        result = self._run(runner, tmp_path, {
            "k_values": [1e300], "nu_values": [0.5], "x_values": [1e-300]},
            "verify", "--checks", "chebyshev")
        assert result.exit_code == 0
        assert "2 reports: 2 passed, 0 skipped, 0 failed" in result.stderr
        for line in result.stdout.splitlines():
            record = _strict_json(line)
            assert record["margin"] == 0.2337005501361693
            assert "x/sqrt(k) underflows to 0.0" in record["notes"]

    def test_compare_integral_at_a_subnormal_x_exits_3(self, runner,
                                                      tmp_path):
        # log(x/2) of x/2 = 0.0 in the prefactor was a bare ValueError
        payload = {"k_values": [1], "nu_values": [0.5], "alpha_values": [1],
                   "x_values": [5e-324]}
        result = self._run(runner, tmp_path, payload, "compare-integral")
        assert result.exit_code == 3
        assert result.stderr == ("error: integral prefactor underflows: 0.0 "
                                 "is below the normal double range (log "
                                 "magnitude -inf)\n")
        result = self._run(runner, tmp_path, payload, "verify", "--checks",
                           "integral-agreement")
        assert result.exit_code == 4
        assert "3 reports: 0 passed, 0 skipped, 3 failed" in result.stderr
        for line in result.stdout.splitlines():
            assert _strict_json(line)["notes"].startswith(
                "error: Overflow: integral prefactor underflows")

    def test_products_past_the_double_range_pass_scaled(self, runner,
                                                        tmp_path):
        # each normalized factor fits, about 4e272, but the products do
        # not: their margin was nan (exit 4) before one power-of-two scaling
        result = self._run(runner, tmp_path, {
            "k_values": [1e5], "nu_values": [-9e4, 1e4], "a_values": [0.25],
            "x_values": [2e5]}, "verify", "--checks",
            "turan,order-ratio-monotone")
        assert result.exit_code == 0
        lines = result.stdout.splitlines()
        assert f"{len(lines)} reports: {len(lines)} passed" in result.stderr
        scaled = [_strict_json(line) for line in lines
                  if "(both scaled by 2^-" in line]
        assert {r["check_name"] for r in scaled} == {"turan",
                                                     "order-ratio-monotone"}

    @pytest.mark.parametrize("checks, payload", [
        # alpha/k overflows, so the margin was -inf
        ("sin-relation",
         {"k_values": [1e-320], "alpha_values": [1.0],
          "x_values": [1e-320]}),
    ], ids=["infinite-margin"])
    def test_a_non_finite_margin_is_a_failed_report(self, runner, tmp_path,
                                                     checks, payload):
        result = self._run(runner, tmp_path, payload, "verify", "--checks",
                           checks)
        assert result.exit_code == 4
        lines = result.stdout.splitlines()
        assert f"{len(lines)} reports: 0 passed, 0 skipped" in result.stderr
        for line in lines:
            record = _strict_json(line)
            assert record["margin"] is None and record["passed"] is False
            assert record["notes"].startswith("error: Overflow: ")

    def test_csv_skipped_report_has_an_empty_margin_cell(self, runner,
                                                         tmp_path):
        result = self._run(runner, tmp_path, {
            "k_values": [1], "nu_values": [0.5], "c_values": [1],
            "x_values": [3]}, "verify", "--checks", "multisection",
            "--format", "csv")
        assert result.exit_code == 0
        [record] = csv.DictReader(io.StringIO(result.stdout))
        assert record["margin"] == "" and record["skipped"] == "true"

    @pytest.mark.parametrize("command", ["verify", "compare-integral"])
    def test_unreadable_grid_file_exits_2(self, runner, tmp_path, command):
        missing = tmp_path / "absent.json"
        result = runner.invoke(main, [command, "--grid", str(missing)])
        assert result.exit_code == 2
        assert result.stderr.startswith(
            f"error: cannot read grid file {str(missing)!r}: ")

    @pytest.mark.parametrize("command", ["verify", "compare-integral"])
    def test_grid_file_holding_an_array_exits_2(self, runner, tmp_path,
                                                command):
        result = self._run(runner, tmp_path, [1.0], command)
        assert result.exit_code == 2
        assert "must hold a JSON object of arrays" in result.stderr

    @pytest.mark.parametrize("command", ["verify", "compare-integral"])
    @pytest.mark.parametrize("content, reason", [
        (b'\xff\xfe{"k_values": [1]}', "'utf-8' codec can't decode byte 0xff"),
        (b"[" * 100000, "maximum recursion depth exceeded"),
    ], ids=["not-utf-8", "nested-100000-deep"])
    def test_grid_file_json_cannot_read_exits_2(self, runner, tmp_path,
                                                command, content, reason):
        # each was a traceback: a UnicodeDecodeError, a RecursionError
        grid = tmp_path / "grid.json"
        grid.write_bytes(content)
        result = runner.invoke(main, [command, "--grid", str(grid)])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr.startswith(
            f"error: grid file {str(grid)!r} is not valid JSON: {reason}")
        assert result.stderr.count("\n") == 1


# ---------------------------------------------------------------------------
# help
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("command", ["eval", "table"])
def test_help_shows_the_series_config_defaults(runner, command):
    result = runner.invoke(main, [command, "--help"])
    assert result.exit_code == 0
    text = " ".join(result.output.split())  # undo the help's line wrapping
    assert re.search(r"--tol FLOAT [^\[]*\[default: 1e-14\]", text), text
    assert re.search(r"--max-terms INTEGER [^\[]*\[default: 500\]", text), text
    assert "--k FLOAT Positive deformation parameter." in text, text


@pytest.mark.parametrize("command", sorted(main.commands))
def test_every_option_has_a_help_string(command):
    options = [param for param in main.commands[command].params
               if isinstance(param, click.Option)]
    assert options and all(option.help for option in options)


# ---------------------------------------------------------------------------
# the output writer
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("cell", ["x\u2028y", "p\x0cq"],
                         ids=["line-separator", "form-feed"])
def test_csv_cell_holding_a_line_boundary_stays_one_record(tmp_path, cell):
    # str.splitlines() breaks at both characters; a csv record ends only at
    # the writer's "\n"
    target = tmp_path / "rows.csv"
    _emit("csv", ["a", "b"], [[cell, 1.0], [None, cell]], str(target))
    with open(target, newline="", encoding="utf-8") as handle:
        assert list(csv.reader(handle)) == [["a", "b"], [cell, "1"],
                                            ["", cell]]
