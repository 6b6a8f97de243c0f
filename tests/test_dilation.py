"""Dilated laws as exact oracles for large s and large J.

Dilating a law by k gives P(A' = kj) = P(A = j) and s' = ks.  Then
M'_n = k M_n, so the DP table of the dilated law is the base table on the
lattice kZ and exactly 0.0 off it.  The kernel w^{ks} - u A(w^k) is the
base kernel at w^k, so its ks in-disk roots are the k k-th roots of each
base root: a small-s companion solve gives the exact roots of a law with
large s and J.
"""

import warnings

import numpy as np
import pytest

import reflectedwalk as rw
from reflectedwalk import cli, kernel

from conftest import standard_distributions

BASE = standard_distributions()
EPS = np.finfo(float).eps
N_MAX, M_MAX = 6, 12
# the upper half of the u circle of a run at n_max = 6, and 64 unit-circle z
NU, R = cli.u_circle(6)
U = R * np.exp(2j * np.pi * np.arange(NU // 2 + 1) / NU)
Z = np.exp(2j * np.pi * np.arange(64) / 64)

DRAWS = [
    (law, k)
    for law, d in BASE.items()
    for k in (2, 3, 5, 10, 25)
    if k * d.j_max <= 500 and k * d.s <= 50
]
# poisson(1.2) x 25 (s' = 50, J' = 425): the companion roots at u = r miss
# RESIDUAL_TOL, so find_kernel_roots raises although the law is valid
ROOT_DRAWS = [
    pytest.param(
        law, k,
        marks=pytest.mark.xfail(
            strict=True, raises=rw.KernelRootError,
            reason="companion roots of poisson(1.2) x 25 miss RESIDUAL_TOL at u = r",
        ),
    )
    if (law, k) == ("poisson", 25) else (law, k)
    for law, k in DRAWS
]


def dilate(d, k):
    p = np.zeros(k * d.j_max + 1)
    p[::k] = d.pmf_a
    with warnings.catch_warnings():
        # a dilated A identically s keeps P(A' = 0) = 0, accepted with a warning
        warnings.simplefilter("ignore", UserWarning)
        return rw.IncrementDistribution(s=k * d.s, pmf_a=p, family="explicit")


@pytest.mark.parametrize("law,k", DRAWS)
def test_dp_lives_on_the_lattice(law, k):
    base = rw.lindley_dp(BASE[law], N_MAX, M_MAX)
    table = rw.lindley_dp(dilate(BASE[law], k), N_MAX, k * M_MAX)
    assert np.max(np.abs(table.probs[:, ::k] - base.probs)) <= 1e-15
    off = np.ones(table.probs.shape[1], dtype=bool)
    off[::k] = False
    assert np.all(table.probs[:, off] == 0.0)
    np.testing.assert_allclose(table.overflow, base.overflow, rtol=0, atol=1e-15)


@pytest.mark.parametrize("law,k", ROOT_DRAWS)
def test_roots_meet_their_certificate_through_f(law, k):
    # F from the found roots against F from the exact roots at 64 unit-circle
    # z: |log(F_found / F_exact)| <= -2 log(1 - eps), the claim of the kernel
    # module.  Each F is a product of s' factors, each rounded to a few eps,
    # and the exact roots carry their own rounding: the allowance is 8 s' eps
    # (the largest excess measured is 3.3 s' eps, on a-zero x 3)
    d, dk = BASE[law], dilate(BASE[law], k)
    found = rw.find_kernel_roots(dk, U).roots
    base = kernel._companion_rows(d, U)
    turns = (np.angle(base)[..., None] + 2.0 * np.pi * np.arange(k)) / k
    exact = (np.abs(base)[..., None] ** (1.0 / k) * np.exp(1j * turns)).reshape(len(U), dk.s)
    err = np.abs(np.log(rw.product_eval(dk, U, Z, rw.RootSet(found))
                        / rw.product_eval(dk, U, Z, rw.RootSet(exact))))
    eps = kernel._certificate(dk, U, found)
    assert np.all(err <= -2.0 * np.log1p(-eps)[:, None] + 8 * dk.s * EPS)
    # the certificate measures the roots, not the rounding of P's expansion:
    # expanded in lexsorted order it read 3.2e-4 on binomial x 25
    assert np.max(eps) <= 1e-11
