"""Command-line front end: evaluation, gamma-family values, tables,
series-vs-quadrature comparison, and the verification harness.

Output discipline: data rows go to stdout (or the --out file), diagnostics
go to stderr.  The plain format prints values with repr (shortest
round-trip form); csv and json formats print every float with 17
significant digits so the exact double is recoverable.  Exit codes:
0 success, 2 usage or domain error, 3 numerical non-convergence,
4 verification failure.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import itertools
import json
import math
from collections.abc import Iterable

# The sweep modules load before click, as they did when the package loaded
# them: compiled after click, their compile peak adds to its memory and
# raises the commands' peak RSS.
from .integral import ROUTES, route_legs
from .verify import CHECK_NAMES, GridSpec, default_grid, run_grid

import click

from .errors import (
    DomainError,
    InvalidParameter,
    NonConvergence,
    Overflow,
    QuadratureFailure,
)
from .kbessel import (KBesselParams, SeriesConfig, _eval_normalized, deriv_w,
                      eval_w)
from .kgamma import (
    k_beta,
    k_digamma,
    k_gamma,
    k_pochhammer,
    k_trigamma,
    ln_k_gamma,
)

_USAGE_ERRORS = (InvalidParameter, DomainError)
_NUMERIC_ERRORS = (NonConvergence, Overflow, QuadratureFailure)


def _fail(code: int, message: str) -> None:
    click.echo(f"error: {message}", err=True)
    raise SystemExit(code)


@contextlib.contextmanager
def _exit_codes():
    """Exit 2 on a usage or domain error raised in the block, 3 on a
    numerical failure."""
    try:
        yield
    except _USAGE_ERRORS as exc:
        _fail(2, str(exc))
    except _NUMERIC_ERRORS as exc:
        _fail(3, str(exc))


def _fmt17(value: float) -> str:
    """17-significant-digit form used by csv/json output."""
    return format(float(value), ".17g")


def _json_value(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return _fmt17(value)
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, dict):
        inner = ", ".join(f"{json.dumps(k)}: {_json_value(v)}"
                          for k, v in value.items())
        return "{" + inner + "}"
    raise TypeError(f"cannot serialize {type(value)!r}")


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    return _json_value(value)


def _emit(lines: list[str], out: str | None) -> None:
    text = "\n".join(lines) + ("\n" if lines else "")
    if out is None:
        click.echo(text, nl=False)
    else:
        try:
            with open(out, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            _fail(2, f"cannot write output file {out!r}: {exc}")


def _table_lines(fmt: str, header: list[str],
                 rows: Iterable[list]) -> list[str]:
    if fmt == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, quoting=csv.QUOTE_MINIMAL,
                            lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_csv_cell(cell) for cell in row])
        return buffer.getvalue().splitlines()
    if fmt == "json":
        return [_json_value(dict(zip(header, row))) for row in rows]
    lines = [" ".join(header)]
    for row in rows:
        lines.append(" ".join("" if cell is None else repr(cell)
                              if isinstance(cell, float) else str(cell)
                              for cell in row))
    return lines


def _parse_x_list(text: str) -> list[float]:
    values = []
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            raise click.BadParameter(f"empty entry in x list {text!r}")
        try:
            values.append(float(piece))
        except ValueError:
            raise click.BadParameter(f"not a number: {piece!r}")
    return values


@click.group()
def main() -> None:
    """Generalized k-Bessel evaluation and verification tools."""


@main.command("eval")
@click.option("--k", type=float, required=True, help="Positive deformation parameter.")
@click.option("--nu", type=float, required=True, help="Order; must exceed -k.")
@click.option("--c", type=float, required=True, help="Sign/scale parameter of the series.")
@click.option("--x", "x_text", type=str, required=True,
              help="Argument: a number or a comma-separated list.")
@click.option("--deriv", type=click.IntRange(min=0), default=0,
              show_default=True,
              help="Derivative order m (0 evaluates the function itself); "
                   "the order ladder needs nu - m*k > -k.")
@click.option("--tol", type=float, default=SeriesConfig.rel_tol, show_default=True,
              help="Relative truncation tolerance of the series, and of "
                   "the Hankel expansion that eval_w takes at y >= 17.")
@click.option("--max-terms", type=int, default=SeriesConfig.max_terms, show_default=True,
              help="Series term cap.")
@click.option("--format", "fmt", type=click.Choice(["plain", "csv", "json"]),
              default="plain", show_default=True)
@click.option("--out", type=str, default=None, help="Write output to this file.")
def cmd_eval(k: float, nu: float, c: float, x_text: str, deriv: int,
             tol: float, max_terms: int, fmt: str, out: str | None) -> None:
    """Evaluate the series (or its m-th derivative) at one or more points."""
    xs = _parse_x_list(x_text)
    with _exit_codes():
        params = KBesselParams(k, nu, c)
        cfg = SeriesConfig(rel_tol=tol, max_terms=max_terms)
        rows = []
        for x in xs:
            if deriv > 0:
                result = deriv_w(params, x, deriv, cfg)
            else:
                result = eval_w(params, x, cfg)
            rows.append([x, result.value, result.terms_used, result.est_error])
    header = ["x", "value", "terms_used", "est_error"]
    _emit(_table_lines(fmt, header, rows), out)


# --fn name -> (function, the options it takes before k)
_GAMMA_FNS = {
    "gamma": (k_gamma, ("t",)),
    "lngamma": (ln_k_gamma, ("t",)),
    "digamma": (k_digamma, ("t",)),
    "trigamma": (k_trigamma, ("t",)),
    "beta": (k_beta, ("x", "y")),
    "pochhammer": (k_pochhammer, ("t", "n")),
}


@main.command("gamma")
@click.option("--fn", type=click.Choice(sorted(_GAMMA_FNS)), required=True,
              help="Which member of the gamma family to evaluate.")
@click.option("--t", type=float, default=None, help="Argument for gamma/lngamma/digamma/trigamma/pochhammer.")
@click.option("--n", type=int, default=None, help="Factor count for pochhammer.")
@click.option("--x", type=float, default=None, help="First beta argument.")
@click.option("--y", type=float, default=None, help="Second beta argument.")
@click.option("--k", type=float, required=True, help="Positive deformation parameter.")
@click.option("--out", type=str, default=None, help="Write output to this file.")
def cmd_gamma(fn: str, t: float | None, n: int | None, x: float | None,
              y: float | None, k: float, out: str | None) -> None:
    """Evaluate one gamma-family value and print it via repr."""
    function, need = _GAMMA_FNS[fn]
    given = {"t": t, "n": n, "x": x, "y": y}
    missing = [name for name in need if given[name] is None]
    if missing:
        _fail(2, f"--fn {fn} requires --" + " --".join(missing))
    with _exit_codes():
        value = function(*(given[name] for name in need), k)
    _emit([repr(value)], out)


@main.command("table")
@click.option("--k", type=float, required=True)
@click.option("--nu", type=float, required=True)
@click.option("--c", type=float, required=True)
@click.option("--x-start", type=float, required=True)
@click.option("--x-stop", type=float, required=True)
@click.option("--x-steps", type=click.IntRange(min=1), required=True)
@click.option("--tol", type=float, default=SeriesConfig.rel_tol, show_default=True)
@click.option("--max-terms", type=int, default=SeriesConfig.max_terms, show_default=True)
@click.option("--format", "fmt", type=click.Choice(["plain", "csv", "json"]),
              default="plain", show_default=True)
@click.option("--out", type=str, default=None)
def cmd_table(k: float, nu: float, c: float, x_start: float, x_stop: float,
              x_steps: int, tol: float, max_terms: int, fmt: str,
              out: str | None) -> None:
    """Tabulate the function and its normalized form over an x grid.

    Columns: x, the function value, the normalized value
    (2/x)^(nu/k) Gamma_k(nu+k) W, and the function value's error estimate.
    The header appears exactly once and the row count equals --x-steps.

    Below y = x sqrt(|c|/k) = 17, and where the Hankel expansion declines,
    the normalized column is the series with leading term 1; elsewhere it
    is W from the expansion over the leading term (x/2)^(nu/k) /
    Gamma_k(nu+k), so it does not cancel at large y for c > 0.
    """
    span = x_stop - x_start  # not finite where either end is not
    if not math.isfinite(span):
        _fail(2, f"--x-start and --x-stop must be finite, with x_stop - "
                 f"x_start within the double range; got --x-start {x_start!r}, "
                 f"--x-stop {x_stop!r}")
    if x_steps == 1:
        xs = [x_start]
    else:
        xs = [x_start + span * i / (x_steps - 1) for i in range(x_steps)]
    with _exit_codes():
        params = KBesselParams(k, nu, c)
        cfg = SeriesConfig(rel_tol=tol, max_terms=max_terms)
        rows = []
        for x in xs:
            result = eval_w(params, x, cfg)
            normalized = _eval_normalized("table", params, x, cfg).value
            rows.append([x, result.value, normalized, result.est_error])
    header = ["x", "value", "normalized", "est_error"]
    _emit(_table_lines(fmt, header, rows), out)


_GRID_FIELDS = tuple(field.name for field in dataclasses.fields(GridSpec))


def _grid_spec(grid: str, required: tuple[str, ...] = ()) -> GridSpec:
    """``default_grid()``, or it with the arrays of the JSON file ``grid``
    in place of its own.  Exits 2 unless the file holds a JSON object whose
    every key is a ``_GRID_FIELDS`` name, every ``required`` key is there,
    and ``GridSpec`` takes the arrays (it decides what a grid value is)."""
    spec = default_grid()
    if grid == "default":
        return spec
    try:
        with open(grid, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except OSError as exc:
        _fail(2, f"cannot read grid file {grid!r}: {exc}")
    except json.JSONDecodeError as exc:
        _fail(2, f"grid file {grid!r} is not valid JSON: {exc}")
    if not isinstance(payload, dict):
        _fail(2, f"grid file {grid!r} must hold a JSON object of arrays")
    for key in payload:
        if key not in _GRID_FIELDS:
            _fail(2, f"unknown grid field {key!r}; known fields: "
                     + ", ".join(_GRID_FIELDS))
    for key in required:
        if key not in payload:
            _fail(2, f"grid file must define {key!r}")
    with _exit_codes():
        return dataclasses.replace(spec, **payload)


_COMPARE_BETAS = (-0.4, 0.0, 0.5, 1.0, 2.5)


@main.command("compare-integral")
@click.option("--grid", type=str, default="default", show_default=True,
              help="'default' or a JSON file with k_values/nu_values/"
                   "alpha_values/x_values arrays.")
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]),
              default="csv", show_default=True)
@click.option("--out", type=str, default=None)
def cmd_compare_integral(grid: str, fmt: str, out: str | None) -> None:
    """Compare quadrature routes against the series point by point.

    Emits one row per admissible (k, nu, alpha, x, route) combination with
    both values and their difference; inadmissible routes are omitted.
    """
    spec = _grid_spec(grid, ("k_values", "nu_values", "alpha_values",
                             "x_values"))
    rows = []
    with _exit_codes():
        for k in sorted(spec.k_values):
            nu_values = ([beta * k for beta in _COMPARE_BETAS]
                         if grid == "default" else spec.nu_values)
            for nu, alpha, x, route in itertools.product(
                    sorted(nu_values), sorted(spec.alpha_values),
                    sorted(spec.x_values), ROUTES):
                for c, quad, series in route_legs(k, nu, alpha, x, route)[1]:
                    rows.append([k, nu, alpha, x, route, c, series, quad,
                                 quad - series])
    header = ["k", "nu", "alpha", "x", "route", "c", "series", "integral",
              "diff"]
    _emit(_table_lines(fmt, header, rows), out)


@main.command("verify")
@click.option("--checks", type=str, default="all", show_default=True,
              help="'all' or a comma-separated list of check names.")
@click.option("--grid", type=str, default="default", show_default=True,
              help="'default' or a JSON file of explicit grid arrays.")
@click.option("--format", "fmt", type=click.Choice(["jsonl", "csv"]),
              default="jsonl", show_default=True)
@click.option("--out", type=str, default=None)
def cmd_verify(checks: str, grid: str, fmt: str, out: str | None) -> None:
    """Run certification checks over a grid and report each point.

    Exits 0 when every non-skipped check passes and 4 otherwise; a summary
    goes to stderr.
    """
    if checks == "all":
        names = list(CHECK_NAMES)
    else:
        names = [piece.strip() for piece in checks.split(",") if piece.strip()]
        if not names:
            _fail(2, "--checks must name at least one check")
    spec = _grid_spec(grid)  # unnamed fields keep their default values
    with _exit_codes():
        reports = run_grid(spec, names)
    header = ["check_name", "grid_point", "margin", "passed", "skipped",
              "notes"]
    rows = ([getattr(r, name) for name in header] for r in reports)
    _emit(_table_lines("json" if fmt == "jsonl" else fmt, header, rows), out)
    failed = sum(1 for r in reports if not r.passed and not r.skipped)
    skipped = sum(1 for r in reports if r.skipped)
    passed = len(reports) - failed - skipped
    click.echo(f"{len(reports)} reports: {passed} passed, {skipped} skipped, "
               f"{failed} failed", err=True)
    if failed:
        raise SystemExit(4)


if __name__ == "__main__":
    main()
