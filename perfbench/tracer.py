"""Spans around kbessel's public functions, recorded from outside the package.

Callers import by name (``from .kbessel import eval_w`` in ``verify``,
``integral`` and ``cli``), so a wrapper only takes effect once it replaces the
original in every module namespace that holds it.  ``Tracer.install`` does
that for each function in ``TRACED``.  Per-node functions (``bessel_kernel``,
the quadrature integrands) are deliberately not wrapped: a span per node
costs more than the node itself.  Node counts come from the
``legendre_nodes(n)`` calls instead, one per quadrature level.

A span is ``[name, request, start_ns, end_ns, parent, count, repeat]``:
``request`` is the point's index in a points pass (a CLI command is one
request, 0); ``parent`` is the index of the enclosing span or -1; ``count``
is the series terms a call used, or ``n`` for ``legendre_nodes``; ``repeat``
is 1 when the call's (function, bound arguments) equals an earlier call's.
Spans stay in memory; ``child.py`` writes them out at exit.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from functools import wraps

SERIES = ("eval_w", "eval_normalized_i", "eval_w_with_derivatives")

CHECK_FUNCTIONS = {
    "ode": "check_ode",
    "recurrences": "check_recurrences",
    "multisection": "check_multisection",
    "ratio-x-monotone": "check_ratio_x_monotone",
    "order-ratio-monotone": "check_order_ratio_monotone",
    "nu-decreasing-logconvex": "check_nu_decreasing_logconvex",
    "turan": "check_turan",
    "chebyshev": "check_chebyshev_products",
    "coefficient-facts": "check_coefficient_facts",
    "sin-relation": "check_sin_relation",
    "sinh-relation": "check_sinh_relation",
    "integral-agreement": "check_integral_agreement",
}

TRACED = {
    "kbessel.kbessel": SERIES + ("deriv_w", "multisection_lhs"),
    "kbessel.integral": ("weighted_integral", "legendre_nodes", "eval_w_cos",
                         "eval_w_cosh", "eval_w_bessel_kernel"),
    "kbessel.kgamma": ("ln_k_gamma",),
    "kbessel.classical": ("ln_gamma",),
    "kbessel.verify": ("run_grid",) + tuple(CHECK_FUNCTIONS.values()),
}


def _terms(result) -> int:
    # eval_w_with_derivatives returns (EvalResult, d1, d2)
    return (result[0] if isinstance(result, tuple) else result).terms_used


class Tracer:
    """Wraps the ``TRACED`` functions and keeps their spans in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.request = 0
        self._stack: list[int] = []
        self._seen: set = set()

    def _wrap(self, name: str, fn):
        spans, stack, seen = self.spans, self._stack, self._seen
        clock = time.perf_counter_ns
        short = name.rsplit(".", 1)[-1]
        keyed = short in SERIES
        counts_nodes = short == "legendre_nodes"
        if keyed:
            parameters = list(inspect.signature(fn).parameters.values())

        @wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, self.request, 0, 0, stack[-1] if stack else -1, 0, 0]
            spans.append(span)
            stack.append(index)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if keyed:
                # (function, every argument with defaults filled in); far
                # cheaper than inspect's Signature.bind
                key = (short, *args, *(kwargs.get(p.name, p.default)
                                        for p in parameters[len(args):]))
                span[6] = int(key in seen)
                seen.add(key)
                span[5] = _terms(result)
            elif counts_nodes:
                span[5] = args[0]
            return result

        return traced

    def install(self) -> None:
        """Replace every traced function in every loaded kbessel module."""
        wrappers = {}
        for module_name, names in TRACED.items():
            module = importlib.import_module(module_name)
            short_module = module_name.rsplit(".", 1)[-1]
            for name in names:
                original = getattr(module, name)
                wrappers[id(original)] = (
                    original, self._wrap(f"{short_module}.{name}", original))
        for module_name, module in list(sys.modules.items()):
            if module_name != "kbessel" and not module_name.startswith("kbessel."):
                continue
            for attr, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, attr, entry[1])


def aggregate(spans: list[list], group=None) -> tuple[dict, int]:
    """Totals per span name, or per ``(name, group(request))``.

    Returns ``({key: {"calls", "count", "repeats", "wall_ns", "self_ns"}},
    root_ns)``, where ``root_ns`` is the time covered by spans without a
    parent.  A span's self time is its duration minus its direct children's.
    """
    child_ns = [0] * len(spans)
    for span in spans:
        if span[4] >= 0:
            child_ns[span[4]] += span[3] - span[2]
    totals: dict = {}
    root_ns = 0
    for index, (name, request, start, end, parent, count, repeat) in enumerate(spans):
        wall = end - start
        if parent < 0:
            root_ns += wall
        key = name if group is None else (name, group(request))
        entry = totals.get(key)
        if entry is None:
            entry = totals[key] = {"calls": 0, "count": 0, "repeats": 0,
                                   "wall_ns": 0, "self_ns": 0}
        entry["calls"] += 1
        entry["count"] += count
        entry["repeats"] += repeat
        entry["wall_ns"] += wall
        entry["self_ns"] += wall - child_ns[index]
    return totals, root_ns
