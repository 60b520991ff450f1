"""One benchmark command, run in a fresh interpreter.

    python3 perfbench/child.py STATS_FILE [--trace] cli ARGS...
    python3 perfbench/child.py STATS_FILE [--trace] points POINTS_FILE

``cli`` runs the kbessel command line with ARGS, as the installed ``kbessel``
script does.  ``points`` evaluates each point of POINTS_FILE once, in order,
as a library caller would, and prints one JSON object with the outputs, the
latency of every call and the time of the whole pass.

At exit STATS_FILE receives the process's peak RSS and the time spent in the
command and, with ``--trace``, the spans of the traced kbessel functions.

kbessel is found on PYTHONPATH; ``run.py`` sets it to the checkout's ``src``.
"""

from __future__ import annotations

import importlib
import json
import sys
import time


def run_cli(args: list[str]) -> None:
    from kbessel.cli import main

    sys.argv = ["kbessel", *args]
    main()


def run_points(path: str, tracer) -> None:
    import kbessel

    with open(path, encoding="utf-8") as handle:
        points = json.load(handle)
    eval_w = kbessel.eval_w
    eval_w_with_derivatives = kbessel.eval_w_with_derivatives
    params = kbessel.KBesselParams
    error = kbessel.KBesselError
    clock = time.perf_counter_ns
    outputs = []
    latency_ns = []
    start = clock()
    for index, (k, nu, c, x, with_derivatives) in enumerate(points):
        if tracer is not None:
            tracer.request = index
        t0 = clock()
        try:
            if with_derivatives:
                result, d1, d2 = eval_w_with_derivatives(params(k, nu, c), x)
                out = [result.value, d1, d2]
            else:
                out = [eval_w(params(k, nu, c), x).value]
        except error as exc:
            out = f"{type(exc).__name__}: {exc}"
        latency_ns.append(clock() - t0)
        outputs.append(out)
    pass_ns = clock() - start
    sys.stdout.write(json.dumps({"pass_ns": pass_ns, "latency_ns": latency_ns,
                                 "outputs": outputs}))


def peak_rss_kib() -> int:
    """VmHWM of this process image.

    Unlike ``ru_maxrss``, it leaves out the parent's pages that a spawned
    child holds until its exec.
    """
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main(argv: list[str]) -> None:
    stats_path, argv = argv[0], argv[1:]
    traced = argv[:1] == ["--trace"]
    if traced:
        argv = argv[1:]
    mode, rest = argv[0], argv[1:]
    tracer = None
    if traced:
        # every module that holds a traced function must be loaded before
        # the tracer replaces it
        importlib.import_module("kbessel.cli" if mode == "cli" else "kbessel")
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    start = time.perf_counter_ns()
    try:
        if mode == "cli":
            run_cli(rest)
        elif mode == "points":
            run_points(rest[0], tracer)
        else:
            raise SystemExit(f"unknown mode {mode!r}")
    finally:
        stats = {"main_ns": [start, time.perf_counter_ns()],
                 "peak_rss_kib": peak_rss_kib()}
        if tracer is not None:
            stats["spans"] = tracer.spans
        # json.dumps encodes in one C call; json.dump is several times slower
        with open(stats_path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(stats))


if __name__ == "__main__":
    main(sys.argv[1:])
