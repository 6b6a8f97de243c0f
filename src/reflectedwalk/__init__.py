"""Exact distribution of the reflected lattice random walk / discrete queue.

Four independent routes to P(M_n = m) and the bivariate transform F(u, z):
exact dynamic programming on the reflected recursion, the exponential
(Spitzer) series, the kernel-root product representation, and the
Pollaczek contour integral, with cross-validation utilities.
"""

from .contour import (
    CircleQuadrature,
    QuadratureError,
    RadiusCertificate,
    RadiusSearchError,
    choose_outer_radius,
    pollaczek_eval,
    verify_coeff_identity,
)
from .dist import (
    IncrementDistribution,
    make_family,
    pgf_eval,
    walk_pmf,
)
from .kernel import (
    KernelRootError,
    RootSet,
    find_kernel_roots,
    product_eval,
    root_logresidue_check,
)
from .oracle import (
    DistributionTable,
    functional_equation_check,
    lindley_dp,
    numerator_check,
)
from .series import (
    series_exp,
    series_log,
    spitzer_series,
)

__version__ = "0.1.0"

__all__ = [
    "CircleQuadrature",
    "QuadratureError",
    "RadiusCertificate",
    "RadiusSearchError",
    "choose_outer_radius",
    "pollaczek_eval",
    "verify_coeff_identity",
    "IncrementDistribution",
    "make_family",
    "pgf_eval",
    "walk_pmf",
    "KernelRootError",
    "RootSet",
    "find_kernel_roots",
    "product_eval",
    "root_logresidue_check",
    "DistributionTable",
    "functional_equation_check",
    "lindley_dp",
    "numerator_check",
    "series_exp",
    "series_log",
    "spitzer_series",
]
