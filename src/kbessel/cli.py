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
import itertools
import json
import math
from collections.abc import Iterable

# The sweep modules load before click, as they did when the package loaded
# them: compiled after click, their compile peak adds to its memory and
# raises the commands' peak RSS.
from .integral import route_legs
from .verify import (_CHECKS, CHECK_NAMES, GridSpec, VerifyReport, _points,
                     _sweep, default_grid)

import click

from .errors import DomainError, InvalidParameter, KBesselError
from .kbessel import (_DEFAULT_CONFIG, KBesselParams, SeriesConfig,
                      _eval_normalized, deriv_w, eval_w)
from .kgamma import (
    k_beta,
    k_digamma,
    k_gamma,
    k_pochhammer,
    k_trigamma,
    ln_k_gamma,
)


def _fail(code: int, message: str) -> None:
    click.echo(f"error: {message}", err=True)
    raise SystemExit(code)


@contextlib.contextmanager
def _exit_codes():
    """Exit 2 on a usage or domain error raised in the block, 3 on any
    other package error: each of the others is a numerical failure."""
    try:
        yield
    except (InvalidParameter, DomainError) as exc:
        _fail(2, str(exc))
    except KBesselError as exc:
        _fail(3, str(exc))


# json.dumps of a str with its default ensure_ascii, without its dispatch
_json_str = json.encoder.encode_basestring_ascii


def _json_keys(names: Iterable[str]) -> list[str]:
    return [_json_str(name) + ": " for name in names]


def _json_object(keys: list[str], cells: Iterable) -> str:
    """One json object: ``keys`` from ``_json_keys``, each with its cell."""
    return "{" + ", ".join([key + _json_value(cell)
                            for key, cell in zip(keys, cells)]) + "}"


# one form per exact type of a cell
_JSON_FORMS = {
    type(None): lambda value: "null",
    bool: lambda value: "true" if value else "false",
    int: str,
    float: "{:.17g}".format,
    str: _json_str,
    dict: lambda value: _json_object(_json_keys(value), value.values()),
}


def _json_value(value) -> str:
    form = _JSON_FORMS.get(type(value))
    if form is None:
        raise TypeError(f"cannot serialize {type(value)!r}")
    return form(value)


def _emit(fmt: str, header: Iterable[str] | None, rows: Iterable[Iterable],
          out: str | None) -> None:
    """Write ``rows`` in ``fmt`` to stdout, or to the file ``out``, each row
    as the iterable yields it; the stream is flushed once, at the end, where
    ``click.echo`` would flush on every call.

    ``out`` is opened only here, once the caller has validated its input,
    and exits 2 where it cannot be opened or written.  Unlike
    ``click.echo``, this does not strip ANSI escapes on a non-tty stream;
    no row holds a raw ESC, since the json format escapes it
    (``json.dumps``) and the library forms every check name and note.
    """
    if out is None:
        _write(click.get_text_stream("stdout"), fmt, header, rows)
        return
    try:
        with open(out, "w", encoding="utf-8") as handle:
            _write(handle, fmt, header, rows)
    except OSError as exc:
        _fail(2, f"cannot write output file {out!r}: {exc}")


def _write(stream, fmt: str, header: Iterable[str] | None,
           rows: Iterable[Iterable]) -> None:
    """csv: a header record, then one record per row, through the csv
    module (None an empty cell, other non-str cells in their json form);
    json: one object per line; plain: the header unless it is None, then
    each row's cells joined by spaces, floats in repr form."""
    if fmt == "csv":
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(["" if cell is None else cell
                          if isinstance(cell, str) else _json_value(cell)
                          for cell in row] for row in rows)
    elif fmt == "json":
        keys = _json_keys(header)
        for row in rows:
            stream.write(_json_object(keys, row) + "\n")
    else:
        records = rows if header is None else itertools.chain([header], rows)
        for row in records:
            stream.write(" ".join(repr(cell) if isinstance(cell, float)
                                  else str(cell) for cell in row) + "\n")
    stream.flush()


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
@click.option("--tol", type=float, default=_DEFAULT_CONFIG.rel_tol, show_default=True,
              help="Relative truncation tolerance of the series, and of "
                   "the Hankel expansion that eval_w takes at y >= 17.")
@click.option("--max-terms", type=int, default=_DEFAULT_CONFIG.max_terms, show_default=True,
              help="Series term cap.")
@click.option("--format", "fmt", type=click.Choice(["plain", "csv", "json"]),
              default="plain", show_default=True, help="Output format.")
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
    _emit(fmt, header, rows, out)


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
    extra = [name for name in given
             if name not in need and given[name] is not None]
    if extra:
        _fail(2, f"--fn {fn} does not take --" + " --".join(extra))
    with _exit_codes():
        value = function(*(given[name] for name in need), k)
    _emit("plain", None, [[value]], out)


@main.command("table")
@click.option("--k", type=float, required=True, help="Positive deformation parameter.")
@click.option("--nu", type=float, required=True, help="Order; must exceed -k.")
@click.option("--c", type=float, required=True, help="Sign/scale parameter of the series.")
@click.option("--x-start", type=float, required=True, help="First x of the grid.")
@click.option("--x-stop", type=float, required=True,
              help="Last x of the grid, unless --x-steps is 1.")
@click.option("--x-steps", type=click.IntRange(min=1), required=True,
              help="Number of evenly spaced x values, one row each.")
@click.option("--tol", type=float, default=_DEFAULT_CONFIG.rel_tol, show_default=True,
              help="Relative truncation tolerance of the series, and of "
                   "the Hankel expansion that eval_w takes at y >= 17.")
@click.option("--max-terms", type=int, default=_DEFAULT_CONFIG.max_terms, show_default=True,
              help="Series term cap.")
@click.option("--format", "fmt", type=click.Choice(["plain", "csv", "json"]),
              default="plain", show_default=True, help="Output format.")
@click.option("--out", type=str, default=None, help="Write output to this file.")
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
        # span * i can pass the double range where span fits; only there is
        # i / (x_steps - 1) formed first, which moves the last bit of x
        xs = [x_start + (span * i / (x_steps - 1) if math.isfinite(span * i)
                         else span * (i / (x_steps - 1)))
              for i in range(x_steps)]
    with _exit_codes():
        params = KBesselParams(k, nu, c)
        cfg = SeriesConfig(rel_tol=tol, max_terms=max_terms)
        rows = []
        for x in xs:
            result = eval_w(params, x, cfg)
            normalized = _eval_normalized("table", params, x, cfg).value
            rows.append([x, result.value, normalized, result.est_error])
    header = ["x", "value", "normalized", "est_error"]
    _emit(fmt, header, rows, out)


_GRID_FIELDS = GridSpec._fields


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
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        # not UTF-8, or arrays nested past the parser's recursion limit
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
        return spec._replace(**payload)


_COMPARE_BETAS = (-0.4, 0.0, 0.5, 1.0, 2.5)


@main.command("compare-integral")
@click.option("--grid", type=str, default="default", show_default=True,
              help="'default' or a JSON file with k_values/nu_values/"
                   "alpha_values/x_values arrays.")
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]),
              default="csv", show_default=True, help="Output format.")
@click.option("--out", type=str, default=None, help="Write output to this file.")
def cmd_compare_integral(grid: str, fmt: str, out: str | None) -> None:
    """Compare quadrature routes against the series point by point.

    Emits one row per admissible (k, nu, alpha, x, route) combination with
    both values and their difference; inadmissible routes are omitted.
    """
    spec = _grid_spec(grid, ("k_values", "nu_values", "alpha_values",
                             "x_values"))
    specs = ([spec._replace(k_values=(k,),
                            nu_values=[beta * k for beta in _COMPARE_BETAS])
              for k in sorted(spec.k_values)] if grid == "default" else [spec])
    axes = _CHECKS["integral-agreement"][0]
    rows = []
    with _exit_codes():
        for part in specs:
            for point in _points(axes, part):
                for c, quad, series in route_legs(**point)[1]:
                    rows.append([*point.values(), c, series, quad,
                                 quad - series])
    _emit(fmt, [*axes, "c", "series", "integral", "diff"], rows, out)


@main.command("verify")
@click.option("--checks", type=str, default="all", show_default=True,
              help="'all' or a comma-separated list of check names.")
@click.option("--grid", type=str, default="default", show_default=True,
              help="'default' or a JSON file of explicit grid arrays.")
@click.option("--format", "fmt", type=click.Choice(["jsonl", "csv"]),
              default="jsonl", show_default=True, help="Output format.")
@click.option("--out", type=str, default=None, help="Write output to this file.")
def cmd_verify(checks: str, grid: str, fmt: str, out: str | None) -> None:
    """Run certification checks over a grid and report each point.

    Each report is written as soon as its check returns, so memory does not
    grow with the grid; --out is opened once the check names and the grid
    are valid, before the first check runs.  Exits 0 when every non-skipped
    check passes and 4 otherwise; a summary goes to stderr.
    """
    if checks == "all":
        names = list(CHECK_NAMES)
    else:
        names = [piece.strip() for piece in checks.split(",") if piece.strip()]
        if not names:
            _fail(2, "--checks must name at least one check")
    spec = _grid_spec(grid)  # unnamed fields keep their default values
    with _exit_codes():
        reports = _sweep(spec, names)  # refuses the names before any check
    tally = {"passed": 0, "skipped": 0, "failed": 0}

    def rows():
        for report in reports:
            tally["skipped" if report.skipped else
                  "passed" if report.passed else "failed"] += 1
            yield report

    _emit("json" if fmt == "jsonl" else fmt, VerifyReport._fields, rows(),
          out)
    click.echo(f"{sum(tally.values())} reports: {tally['passed']} passed, "
               f"{tally['skipped']} skipped, {tally['failed']} failed",
               err=True)
    if tally["failed"]:
        raise SystemExit(4)


if __name__ == "__main__":
    main()
