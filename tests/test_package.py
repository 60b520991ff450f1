"""The package's public names: each declared once, in the ``__all__`` of the
module that defines it, and exported unchanged by ``kbessel``."""

import pytest

import kbessel
from kbessel import errors, integral, kgamma, verify
from kbessel import kbessel as series

MODULES = (errors, series, integral, kgamma, verify)

PUBLIC_NAMES = [
    "CHECK_NAMES",
    "DomainError",
    "EvalResult",
    "GridSpec",
    "IntegralRepParams",
    "InvalidParameter",
    "KBesselError",
    "KBesselParams",
    "NonConvergence",
    "Overflow",
    "QuadConfig",
    "QuadratureFailure",
    "SeriesConfig",
    "VerifyReport",
    "__version__",
    "bessel_kernel",
    "check_chebyshev_products",
    "check_coefficient_facts",
    "check_integral_agreement",
    "check_multisection",
    "check_nu_decreasing_logconvex",
    "check_ode",
    "check_order_ratio_monotone",
    "check_ratio_x_monotone",
    "check_recurrences",
    "check_sin_relation",
    "check_sinh_relation",
    "check_turan",
    "default_grid",
    "deriv_w",
    "deriv_w_terms",
    "eval_normalized_i",
    "eval_normalized_j",
    "eval_w",
    "eval_w_bessel_kernel",
    "eval_w_cos",
    "eval_w_cosh",
    "eval_w_with_derivatives",
    "k_beta",
    "k_digamma",
    "k_gamma",
    "k_pochhammer",
    "k_trigamma",
    "ln_k_gamma",
    "multisection_lhs",
    "recurrence_step_up",
    "run_grid",
    "sin_relation_check",
    "sinh_relation_check",
    "weighted_integral",
]


def test_package_exports_the_fifty_public_names():
    assert sorted(kbessel.__all__) == PUBLIC_NAMES
    assert len(kbessel.__all__) == len(PUBLIC_NAMES)
    assert "OutsideDomain" not in kbessel.__all__
    namespace = {}
    exec("from kbessel import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == PUBLIC_NAMES


def test_each_name_is_declared_by_one_module():
    declared = [name for module in MODULES for name in module.__all__]
    assert sorted(declared + ["__version__"]) == PUBLIC_NAMES


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_each_name_is_its_defining_modules_object(module):
    for name in module.__all__:
        obj = getattr(module, name)
        assert getattr(kbessel, name) is obj
        # classes and functions are defined there, not imported
        assert getattr(obj, "__module__", module.__name__) == module.__name__
