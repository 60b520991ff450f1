"""Benchmark of kbessel's command line and library, end to end and per module.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the commands import kbessel from
``./src``, so the code measured is the code in the checkout.  Without
``src/kbessel`` the benchmark exits with status 2 and prints no result.

Workloads (one sequential caller, closed loop, one thread; every command is
a fresh interpreter, because every CLI user and every script pays for the
imports and the cold ``legendre_nodes`` cache):

* ``verify-default``: ``kbessel verify`` on the default grid, repeated for S
  seconds.  Fixed grid, so the seed does not apply.
* ``compare-integral``: ``kbessel compare-integral`` on the default grid,
  the same way.
* ``series-points``: a script that evaluates a seeded set of distinct points
  (``points.py``) once each through ``eval_w`` / ``eval_w_with_derivatives``;
  the pass is repeated in fresh interpreters for S seconds.

With ``--trace 0`` the last stdout line holds the end-to-end metrics, from
rounds of three fresh interpreters: ``reference.py``, the command, and the
bare import.

* ``setup_s``: time to start an interpreter and import ``kbessel.cli``
  (``kbessel`` for series-points); median over the rounds.
* ``cmd_wall_rel``: the command's time from spawn to exit divided by the
  mean time of the reference runs just before and just after it; median
  over the rounds.  On a shared machine the plain seconds drift by half for
  minutes at a time; the ratio cancels that.  The plain seconds are in the
  context line.
* ``peak_rss_mb``: peak RSS of the command's process, its VmHWM at exit
  (``os.wait4``'s ``ru_maxrss`` would also count this process's pages, which
  a child holds until its exec); median over the rounds.

With ``--trace 1`` it holds the per-module metrics of ``tracer.py`` spans,
from rounds of one untraced and one traced command, the untraced commands'
plain wall-clock figures, and the tracing overhead as traced over untraced
command time.

Outputs are checked in every run: the CLI outputs against the digests in
``expected.json``, the series points against 40-digit mpmath references
(``points.py``).  ``attempted`` counts the distinct operations checked:
the reports or rows of one command's output, or the points of the set.
Repetitions of a command or a pass redo the same operations; they must give
the same output, or the run is incorrect, so they are not counted again and
both counts depend on the seed alone.  ``failed`` counts failed verify
reports, compare rows with |diff| > 1e-9*max(1, |series|) (the most in any
one command), and points whose call raises or misses the reference by more
than 1e-12 relative.  The line before the result gives the run's context:
source digest, Python, nproc, load average, CPU time beside wall time.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import points as pointset
import tracer

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
CHILD = str(HERE / "child.py")
REFERENCE = str(HERE / "reference.py")
WORK = ROOT / ".perfbench_work"
STATS = WORK / "stats.json"
EXPECTED = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))

POINTS_PER_PASS = 5000
CHILD_TIMEOUT_S = 150
COMPARE_TOL = 1e-9

WORKLOADS = {
    "verify-default": {"argv": ["verify"], "imports": "kbessel.cli"},
    "compare-integral": {"argv": ["compare-integral"], "imports": "kbessel.cli"},
    "series-points": {"argv": None, "imports": "kbessel"},
}


class BenchError(Exception):
    """The benchmark cannot produce a result."""


class Command:
    """One finished child process; with ``stats_path``, its ``child.py`` stats."""

    def __init__(self, argv: list[str], stats_path: Path | None = None) -> None:
        out_path, err_path = WORK / "cmd.out", WORK / "cmd.err"
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *argv], cwd=ROOT, env=env,
                                    stdin=subprocess.DEVNULL, stdout=out,
                                    stderr=err)
            watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            self.wall_s = time.perf_counter() - start
        proc.returncode = self.code = os.waitstatus_to_exitcode(status)
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.stdout = out_path.read_bytes()
        self.stderr = err_path.read_text(encoding="utf-8", errors="replace")
        self.argv = argv
        self.stats = None
        if stats_path is not None:  # the child writes it even when it fails
            try:
                self.stats = json.loads(stats_path.read_text(encoding="utf-8"))
            except (OSError, ValueError) as exc:
                raise BenchError(f"{argv} left no stats ({exc}):\n{self.stderr}")
            stats_path.unlink()
            self.rss_mb = self.stats["peak_rss_kib"] / 1024.0


def run_rounds(seconds: float, make_round) -> list:
    """Call ``make_round`` until ``seconds`` have passed, at least once."""
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        rounds.append(make_round())
    return rounds


def workload_argv(name: str, points: list | None, traced: bool) -> list[str]:
    argv = [CHILD, str(STATS)] + (["--trace"] if traced else [])
    if points is None:
        return argv + ["cli", *WORKLOADS[name]["argv"]]
    points_path = WORK / "points.json"
    points_path.write_text(json.dumps(points), encoding="utf-8")
    return argv + ["points", str(points_path)]


def _median(values) -> float:
    return statistics.median(values)


def _quantile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


# ---------------------------------------------------------------------------
# output checks


def check_cli(argv: list[str], cmd: Command) -> dict:
    """Digest, counts and failures of one CLI command's output."""
    expected = EXPECTED[argv[0]]
    text = cmd.stdout.decode("utf-8")
    result = {"digest_ok": hashlib.sha256(cmd.stdout).hexdigest() == expected["sha256"],
              "bytes": len(cmd.stdout), "reports": 0, "skipped": 0, "failed": 0}
    try:
        if argv[0] == "verify":
            for line in text.splitlines():
                report = json.loads(line)
                result["reports"] += 1
                result["skipped"] += report["skipped"]
                result["failed"] += not report["passed"] and not report["skipped"]
            exit_ok = cmd.code == (4 if result["failed"] else 0)
        else:
            for row in csv.DictReader(io.StringIO(text)):
                result["reports"] += 1
                series = float(row["series"])
                result["failed"] += abs(float(row["diff"])) > COMPARE_TOL * max(1.0, abs(series))
            exit_ok = cmd.code == 0
    except (ValueError, KeyError, TypeError):
        exit_ok = False  # output that does not parse is wrong whatever its digest
    result["correct"] = result["digest_ok"] and exit_ok
    return result


def check_points(points: list[list], outputs: list) -> dict:
    """Failures against the mpmath references, overall and per band."""
    failed = 0
    unexpected = 0
    per_band = {}
    for point, got in zip(points, outputs):
        ok = pointset.accurate(got, pointset.reference(point))
        fn = "eval_w_with_derivatives" if point[4] else "eval_w"
        tally = per_band.setdefault((fn, pointset.band(point)), [0, 0])
        tally[0] += 1
        if not ok:
            tally[1] += 1
            failed += 1
            unexpected += not pointset.known_defect(point)
    return {"failed": failed, "unexpected": unexpected, "per_band": per_band}


# ---------------------------------------------------------------------------
# workloads


def cli_outcome(name: str, cmds: list[Command]) -> dict:
    argv = WORKLOADS[name]["argv"]
    checks = [check_cli(argv, cmd) for cmd in cmds]
    first = checks[0]
    return {
        "correct": all(c["correct"] for c in checks),
        # an output with no parsable report still counts as one operation
        "attempted": max(1, max(c["reports"] for c in checks)),
        "failed": max(c["failed"] for c in checks),
        "reports": first["reports"], "skipped": first["skipped"],
        "report_failures": first["failed"], "bytes": first["bytes"],
    }


def points_outcome(points: list[list], cmds: list[Command]) -> dict:
    passes = []
    for cmd in cmds:
        if cmd.code != 0:
            raise BenchError(f"series-points pass failed:\n{cmd.stderr}")
        passes.append(json.loads(cmd.stdout))
    outputs = passes[0]["outputs"]
    deterministic = all(p["outputs"] == outputs for p in passes)
    check = check_points(points, outputs)
    return {
        "correct": deterministic and check["unexpected"] == 0,
        "attempted": len(points),
        "failed": check["failed"],
        "per_band": check["per_band"],
        "passes": passes,
    }


def end_to_end(name: str, seconds: float, seed: int) -> tuple[dict, dict]:
    """Rounds of the reference program, one command and one fresh import."""
    points = pointset.sample(seed, POINTS_PER_PASS) if name == "series-points" else None
    argv = workload_argv(name, points, traced=False)
    setup_argv = ["-c", f"import {WORKLOADS[name]['imports']}"]
    rounds = run_rounds(seconds, lambda: (
        Command([REFERENCE]), Command(argv, STATS), Command(setup_argv)))
    refs = [r[0] for r in rounds] + [Command([REFERENCE])]
    cmds = [r[1] for r in rounds]
    setups = [r[2] for r in rounds]
    for helper in refs + setups:
        if helper.code != 0:
            raise BenchError(f"{helper.argv} failed:\n{helper.stderr}")
    # the reference runs before and after each command bracket its time
    rel = [2.0 * c.wall_s / (before.wall_s + after.wall_s)
           for c, before, after in zip(cmds, refs, refs[1:])]
    setup = [c.wall_s for c in setups]
    metrics = {
        "setup_s": (_median(setup), "s"),
        "cmd_wall_rel": (_median(rel), "ratio"),
        "peak_rss_mb": (_median(c.rss_mb for c in cmds), "MB"),
    }
    if points is None:
        outcome = cli_outcome(name, cmds)
    else:
        outcome = points_outcome(points, cmds)
    context = {
        "ref_wall_s": _median(r.wall_s for r in refs),
        **{key: value for key, (value, _) in raw_metrics(outcome, cmds).items()},
        "setup_samples_s": setup,
        "ref_wall_samples_s": [r.wall_s for r in refs],
        "cmd_wall_samples_s": [c.wall_s for c in cmds],
        "cmd_cpu_samples_s": [c.cpu_s for c in cmds],
    }
    if points is not None:
        context["fail_share_by_band"] = _band_shares(outcome["per_band"])
    return outcome, {"metrics": metrics, "context": context}


def raw_metrics(outcome: dict, cmds: list[Command]) -> dict:
    """Wall-clock figures of untraced commands, as a user sees them."""
    passes = outcome.get("passes", [])[:len(cmds)]
    if passes:
        rate = _median(len(p["latency_ns"]) * 1e9 / p["pass_ns"] for p in passes)
        latencies = [ns / 1e3 for p in passes for ns in p["latency_ns"]]
        p50, p99 = _quantile(latencies, 50), _quantile(latencies, 99)
    else:
        rate = _median(outcome["reports"] / c.wall_s for c in cmds)
        p50 = p99 = 0.0
    return {
        "cmd_wall_s": (_median(c.wall_s for c in cmds), "s"),
        "points_per_s": (rate, "1/s"),
        "call_p50_us": (p50, "us"),
        "call_p99_us": (p99, "us"),
        "fail_share": (outcome["failed"] / outcome["attempted"], "ratio"),
    }


def _band_shares(per_band: dict) -> dict:
    return {f"{fn}.{band}": failed / total
            for (fn, band), (total, failed) in sorted(per_band.items())}


# ---------------------------------------------------------------------------
# per-layer metrics


def layer_metrics(trace: dict, group=None) -> dict:
    """Per-module metrics of one traced command, as (value, unit) pairs.

    ``group`` maps a request (a point's index) to its y band; only
    series-points passes it.
    """
    totals, root_ns = tracer.aggregate(trace["spans"])
    empty = {"calls": 0, "count": 0, "repeats": 0, "wall_ns": 0, "self_ns": 0}

    def span(name: str) -> dict:
        return totals.get(name, empty)

    m = {}
    series = [span(f"kbessel.{fn}") for fn in tracer.SERIES]
    for fn, total in zip(tracer.SERIES, series):
        m[f"kbessel.{fn}.calls"] = (total["calls"], "count")
        m[f"kbessel.{fn}.terms"] = (total["count"], "count")
        m[f"kbessel.{fn}.self_s"] = (total["self_ns"] / 1e9, "s")
    for fn in ("deriv_w", "multisection_lhs"):
        m[f"kbessel.{fn}.self_s"] = (span(f"kbessel.{fn}")["self_ns"] / 1e9, "s")
    terms = sum(t["count"] for t in series)
    calls = sum(t["calls"] for t in series)
    m["kbessel.us_per_term"] = (
        sum(t["self_ns"] for t in series) / 1e3 / terms if terms else 0.0, "us")
    m["kbessel.repeat_share"] = (
        sum(t["repeats"] for t in series) / calls if calls else 0.0, "ratio")

    quad, nodes = span("integral.weighted_integral"), span("integral.legendre_nodes")
    m["integral.weighted_integral.calls"] = (quad["calls"], "count")
    m["integral.weighted_integral.self_s"] = (quad["self_ns"] / 1e9, "s")
    m["integral.nodes"] = (nodes["count"], "count")
    m["integral.levels"] = (nodes["calls"], "count")
    m["integral.us_per_node"] = (
        quad["self_ns"] / 1e3 / nodes["count"] if nodes["count"] else 0.0, "us")
    m["integral.legendre_nodes.self_s"] = (nodes["self_ns"] / 1e9, "s")
    for fn in ("eval_w_cos", "eval_w_cosh", "eval_w_bessel_kernel"):
        m[f"integral.{fn}.wall_s"] = (span(f"integral.{fn}")["wall_ns"] / 1e9, "s")

    for name in ("kgamma.ln_k_gamma", "classical.ln_gamma"):
        m[f"{name}.calls"] = (span(name)["calls"], "count")
        m[f"{name}.self_s"] = (span(name)["self_ns"] / 1e9, "s")

    for check, fn in tracer.CHECK_FUNCTIONS.items():
        m[f"verify.{check}.wall_s"] = (span(f"verify.{fn}")["wall_ns"] / 1e9, "s")

    start, end = trace["main_ns"]
    m["cli.self_s"] = ((end - start - root_ns) / 1e9 if group is None else 0.0, "s")

    for band, _ in pointset.BANDS:
        m[f"kbessel.eval_w.us_per_call.{band}"] = (0.0, "us")
        m[f"kbessel.eval_w.terms_per_call.{band}"] = (0.0, "count")
    if group is not None:
        by_band, _ = tracer.aggregate(trace["spans"], group)
        for band, _ in pointset.BANDS:
            total = by_band.get(("kbessel.eval_w", band))
            if total:
                m[f"kbessel.eval_w.us_per_call.{band}"] = (
                    total["wall_ns"] / 1e3 / total["calls"], "us")
                m[f"kbessel.eval_w.terms_per_call.{band}"] = (
                    total["count"] / total["calls"], "count")
    return m


EXACT_UNITS = ("count", "bytes", "ratio")


def outcome_metrics(name: str, outcome: dict, plain: list[Command]) -> dict:
    """Per-layer metrics that come from the output checks, not from spans."""
    m = {"cli.output_bytes": (outcome.get("bytes", 0), "bytes")}
    verify = outcome if name == "verify-default" else {}
    m["verify.reports"] = (verify.get("reports", 0), "count")
    m["verify.skipped"] = (verify.get("skipped", 0), "count")
    m["verify.failed"] = (verify.get("report_failures", 0), "count")
    per_band = outcome.get("per_band", {})
    for band, _ in pointset.BANDS:
        for fn in ("eval_w", "eval_w_with_derivatives"):
            total, failed = per_band.get((fn, band), (0, 0))
            m[f"kbessel.{fn}.fail_share.{band}"] = (failed / total if total else 0.0, "ratio")
    m.update(raw_metrics(outcome, plain))
    return m


def per_layer(name: str, seconds: float, seed: int) -> tuple[dict, dict]:
    """Rounds of one untraced and one traced command."""
    points = pointset.sample(seed, POINTS_PER_PASS) if name == "series-points" else None
    argv = workload_argv(name, points, traced=False)
    traced_argv = workload_argv(name, points, traced=True)
    rounds = run_rounds(seconds, lambda: (Command(argv, STATS), Command(traced_argv, STATS)))
    plain = [r[0] for r in rounds]
    traced = [r[1] for r in rounds]
    if points is None:
        outcome = cli_outcome(name, plain + traced)
        group = None
    else:
        outcome = points_outcome(points, plain + traced)
        group = [pointset.band(point) for point in points].__getitem__
    layers = [layer_metrics(cmd.stats, group) for cmd in traced]
    # counts repeat exactly from one traced command to the next; times vary
    metrics = {key: (value if unit in EXACT_UNITS
                     else _median(layer[key][0] for layer in layers), unit)
               for key, (value, unit) in layers[0].items()}
    counts_stable = all(layer[key] == layers[0][key] for layer in layers
                        for key, (_, unit) in layers[0].items() if unit in EXACT_UNITS)
    metrics.update(outcome_metrics(name, outcome, plain))
    untraced_s = _median(c.wall_s for c in plain)
    traced_s = _median(c.wall_s for c in traced)
    metrics["trace.overhead_ratio"] = (traced_s / untraced_s, "ratio")
    context = {"rounds": len(rounds), "untraced_cmd_wall_s": untraced_s,
               "traced_cmd_wall_s": traced_s, "counts_stable": counts_stable,
               "cmd_cpu_s": _median(c.cpu_s for c in plain)}
    return outcome, {"metrics": metrics, "context": context}


# ---------------------------------------------------------------------------


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "kbessel" / "__init__.py").is_file():
        print(f"error: no kbessel source under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    if args.workload == "series-points":
        try:
            import mpmath  # noqa: F401  (references; from the package's [test] extra)
        except ImportError:
            print("error: series-points needs mpmath for its references", file=sys.stderr)
            return 2

    WORK.mkdir(exist_ok=True)
    try:
        load_start = os.getloadavg()
        Command(["-c", "import kbessel.cli"])  # writes the bytecode caches
        measure = per_layer if args.trace else end_to_end
        outcome, result = measure(args.workload, args.seconds, args.seed)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    context = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "commit": commit(), "src_sha256": source_digest(),
        "python": sys.version.split()[0], "nproc": os.cpu_count(),
        "loadavg_start": load_start, "loadavg_end": os.getloadavg(),
        **result["context"],
    }
    print(json.dumps({"context": context}))
    for key, (value, unit) in result["metrics"].items():
        print(f"{key} = {value} {unit}", file=sys.stderr)
    print(json.dumps({
        "correct": bool(outcome["correct"]),
        "attempted": int(outcome["attempted"]),
        "failed": int(outcome["failed"]),
        "metrics": {key: {"value": value, "unit": unit}
                    for key, (value, unit) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
