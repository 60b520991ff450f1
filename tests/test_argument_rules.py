"""The argument rules of ``kbessel.errors``: k, tolerances and x must be
positive, a function of x > 0 refuses anything else, and a count must be
an integer (not a bool) from its lower bound up.

Three guards hold them, ``_positive``, ``_positive_x`` and ``_count``;
every site that states one of these rules calls its guard, so the rule
and its message are written once.  The tests below pin each guard's
refusals and the message of every site, byte for byte.
"""

import ast
import math
import pathlib

import pytest

from kbessel import (
    DomainError,
    GridSpec,
    InvalidParameter,
    KBesselParams,
    check_chebyshev_products,
    check_nu_decreasing_logconvex,
    check_ode,
    check_order_ratio_monotone,
    check_turan,
    deriv_w_terms,
    eval_w_with_derivatives,
    multisection_lhs,
    recurrence_step_up,
)
from kbessel import errors
from kbessel.classical import digamma, ln_gamma, trigamma
from kbessel.integral import IntegralRepParams, QuadConfig

_SOURCE = pathlib.Path(errors.__file__).parent
_ARGUMENT_GUARDS = ("_positive", "_positive_x", "_count")


def test_argument_guards_are_defined_only_in_errors():
    defined = {}
    for path in sorted(_SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef):
                defined.setdefault(node.name, []).append(path.name)
    for name in _ARGUMENT_GUARDS:
        assert defined[name] == ["errors.py"], name
    assert "_require_positive_x" not in defined


@pytest.mark.parametrize("value", [0.0, -0.0, -1.0, -math.inf, math.nan])
def test_positive_refuses_zero_negatives_and_nan(value):
    with pytest.raises(InvalidParameter, match=rf"^k must be positive, got "
                                               rf"{value}$"):
        errors._positive("k", value)


def test_positive_lets_infinity_and_the_least_subnormal_pass():
    for value in (math.inf, 5e-324, 1.0):
        assert errors._positive("k", value) is None


@pytest.mark.parametrize("x", [0.0, -1.0, math.inf, -math.inf, math.nan])
def test_positive_x_refuses_all_but_a_finite_positive_x(x):
    with pytest.raises(DomainError, match=rf"^fn requires a finite x > 0, "
                                          rf"got {x}$"):
        errors._positive_x("fn", x)
    assert errors._positive_x("fn", 5e-324) is None


@pytest.mark.parametrize("value", [True, False, 1.0, 2.5, "3", None, 1])
def test_count_refuses_a_bool_a_non_int_and_a_small_int(value):
    with pytest.raises(InvalidParameter, match=rf"^n must be an integer >= 2, "
                                               rf"got {value!r}$"):
        errors._count("n", value, 2)
    assert errors._count("n", 2, 2) is None


def _grid(**fields) -> GridSpec:
    values = {"k_values": [1.0], "nu_values": [0.5], "c_values": [1.0],
              "alpha_values": [1.0], "x_values": [1.0], "a_values": [0.5],
              "cvx_weights": [0.5]}
    return GridSpec(**{**values, **fields})


# one case per site that states its rule through a guard
_SITES = [
    (lambda: KBesselParams(0.0, 0.5, 1.0), InvalidParameter,
     "k must be positive, got 0.0"),
    (lambda: QuadConfig(abs_tol=math.nan), InvalidParameter,
     "abs_tol must be positive, got nan"),
    (lambda: IntegralRepParams(-1.0, 0.5, 1.0, 1.0), InvalidParameter,
     "k must be positive, got -1.0"),
    (lambda: IntegralRepParams(1.0, 0.5, 0.0, 1.0), InvalidParameter,
     "alpha must be positive, got 0.0"),
    (lambda: IntegralRepParams(1.0, 0.5, 1.0, -2.0), InvalidParameter,
     "x must be positive, got -2.0"),
    (lambda: check_order_ratio_monotone(0.0, 0.0, 1.0, 1.0), InvalidParameter,
     "k must be positive, got 0.0"),
    (lambda: check_order_ratio_monotone(1.0, 0.0, 1.0, 0.0), InvalidParameter,
     "x must be positive, got 0.0"),
    (lambda: check_nu_decreasing_logconvex(-1.0, (0.0, 1.0), 0.5, 1.0),
     InvalidParameter, "k must be positive, got -1.0"),
    (lambda: check_turan(math.nan, 1.0, 0.5, 1.0), InvalidParameter,
     "k must be positive, got nan"),
    (lambda: check_chebyshev_products(0.0, 1.0, 1.0, "cos"), InvalidParameter,
     "k must be positive, got 0.0"),
    (lambda: check_ode(KBesselParams(1.0, 0.5, 1.0), -1.0), InvalidParameter,
     "x must be positive, got -1.0"),
    (lambda: ln_gamma(0.0), DomainError,
     "ln_gamma requires a finite x > 0, got 0.0"),
    (lambda: digamma(math.inf), DomainError,
     "digamma requires a finite x > 0, got inf"),
    (lambda: trigamma(-1.0), DomainError,
     "trigamma requires a finite x > 0, got -1.0"),
    (lambda: eval_w_with_derivatives(KBesselParams(1.0, 0.5, 1.0), 0.0),
     DomainError, "eval_w_with_derivatives requires a finite x > 0, got 0.0"),
    (lambda: recurrence_step_up(KBesselParams(1.0, 1.0, 1.0), math.nan, 1.0,
                                1.0),
     DomainError, "recurrence_step_up requires a finite x > 0, got nan"),
    (lambda: multisection_lhs(KBesselParams(1.0, 1.0, 1.0), math.inf, 5),
     DomainError, "multisection_lhs requires a finite x > 0, got inf"),
    (lambda: multisection_lhs(KBesselParams(1.0, 1.0, 1.0), 1.0, 0),
     InvalidParameter, "terms must be an integer >= 1, got 0"),
    (lambda: deriv_w_terms(KBesselParams(1.0, 1.0, 1.0), 1.5),
     InvalidParameter, "derivative order m must be an integer >= 1, got 1.5"),
    (lambda: QuadConfig(nodes=1), InvalidParameter,
     "nodes must be an integer >= 2, got 1"),
    (lambda: QuadConfig(max_refinements=0), InvalidParameter,
     "max_refinements must be an integer >= 1, got 0"),
    (lambda: QuadConfig(nodes=True), InvalidParameter,
     "nodes must be an integer >= 2, got True"),
    (lambda: _grid(alpha_values=[-1.0], x_values=[0.0]), InvalidParameter,
     "x_values must be positive"),
    (lambda: _grid(alpha_values=[1.0, 0.0]), InvalidParameter,
     "alpha_values must be positive"),
]


def test_each_site_states_its_rule_in_the_guard_words():
    for call, error, message in _SITES:
        with pytest.raises(error) as info:
            call()
        assert type(info.value) is error, message
        assert str(info.value) == message
