"""Roots of the kernel w^s - u A(w) inside the unit disk.

For |u| < 1 the kernel has exactly s zeros in |z| < 1 (Rouche count), and
the reflected-walk transform factors over them:

    F(u, z) = (1 / (z^s - u A(z))) * prod_k (z - z_k(u)) / (1 - z_k(u)).

Roots are found globally via companion-matrix eigenvalues.  Only the
eigenvalues with |z| < 1 + POLISH_BAND are polished, all at once, by Newton
steps that each root accepts only while they reduce its residual.  The
candidates farther out cannot be in-disk roots: they feed only the in-disk
count, which must equal s, and are never returned, so their residuals need
not be small.  A root that the count misses still raises KernelRootError,
and every returned root still meets RESIDUAL_TOL.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dist import IncrementDistribution, pgf_deriv_eval, pgf_eval

IN_DISK_TOL = 1e-12        # strict in-disk selection margin
RESIDUAL_TOL = 1e-10       # hard cap on accepted root residuals
POLISH_TARGET = 1e-12
POLISH_BAND = 1e-3         # polish eigenvalues with |z| < 1 + POLISH_BAND


class KernelRootError(RuntimeError):
    """Root finding or selection failed; carries the full root list."""


@dataclass(frozen=True)
class RootSet:
    """The s in-disk kernel roots for one value of u."""

    roots: np.ndarray
    residuals: np.ndarray
    max_modulus: float

    def __post_init__(self):
        r = np.asarray(self.roots, dtype=complex)
        r.setflags(write=False)
        object.__setattr__(self, "roots", r)
        res = np.asarray(self.residuals, dtype=float)
        res.setflags(write=False)
        object.__setattr__(self, "residuals", res)

    def __len__(self) -> int:
        return len(self.roots)


def kernel_coeffs(dist: IncrementDistribution, u: complex) -> np.ndarray:
    """Ascending coefficients of w^s - u A(w)."""
    s = dist.s
    deg = max(s, dist.j_max)
    c = np.zeros(deg + 1, dtype=complex)
    c[: dist.j_max + 1] = -u * dist.pmf_a
    c[s] += 1.0
    return c


def kernel_eval(dist: IncrementDistribution, u: complex, w):
    return w**dist.s - u * pgf_eval(dist, w)


def kernel_deriv_eval(dist: IncrementDistribution, u: complex, w):
    return dist.s * w ** (dist.s - 1) - u * pgf_deriv_eval(dist, w)


def _polish(dist, u, z):
    """Newton iterations on a 1-D array of roots, at most 50 steps each.

    A root stops at POLISH_TARGET, where k'(z) = 0, or at its first step
    that does not reduce its residual, which it rejects.  Returns the
    polished roots and their residuals.
    """
    z = np.array(z, dtype=complex, ndmin=1)
    kz = kernel_eval(dist, u, z)
    res = np.abs(kz)
    live = np.flatnonzero(res > POLISH_TARGET)
    for _ in range(50):
        if live.size == 0:
            break
        fp = kernel_deriv_eval(dist, u, z[live])
        moving = fp != 0
        live, fp = live[moving], fp[moving]
        cand = z[live] - kz[live] / fp
        k_cand = kernel_eval(dist, u, cand)
        cand_res = np.abs(k_cand)
        better = cand_res < res[live]
        live = live[better]
        z[live], kz[live], res[live] = cand[better], k_cand[better], cand_res[better]
        live = live[res[live] > POLISH_TARGET]
    return z, res


def find_kernel_roots(dist: IncrementDistribution, u: complex) -> RootSet:
    """All s kernel roots with |z| < 1, via companion-matrix eigenvalues."""
    if abs(u) >= 1:
        raise ValueError(f"|u| must be < 1, got {abs(u)!r}")
    coeffs = kernel_coeffs(dist, u)
    cand = np.roots(coeffs[::-1]).astype(complex)
    res = np.full(cand.shape, np.inf)
    near = np.abs(cand) < 1.0 + POLISH_BAND
    cand[near], res[near] = _polish(dist, u, cand[near])
    inside = np.abs(cand) < 1.0 - IN_DISK_TOL
    found = np.count_nonzero(inside)
    if found != dist.s:
        raise KernelRootError(
            f"expected {dist.s} in-disk roots, found {found} at u={u!r}; "
            f"all root moduli: {sorted(np.abs(cand).tolist())}"
        )
    roots, residuals = cand[inside], res[inside]
    # deterministic ordering: by real part, then imaginary part
    order = np.lexsort((roots.imag, roots.real))
    roots, residuals = roots[order], residuals[order]
    if np.any(residuals > RESIDUAL_TOL):
        raise KernelRootError(
            f"root residuals exceed {RESIDUAL_TOL}: {residuals.tolist()} at u={u!r}"
        )
    return RootSet(
        roots=roots,
        residuals=residuals,
        max_modulus=float(np.max(np.abs(roots))) if len(roots) else 0.0,
    )


def product_eval(dist: IncrementDistribution, u: complex, z, roots: RootSet):
    """F(u, z) from the root-product representation; z scalar or array."""
    z_arr = np.asarray(z, dtype=complex)
    dist_to_roots = np.abs(z_arr[..., None] - roots.roots)
    scale = np.maximum(np.abs(z_arr), 1.0)
    if np.any(dist_to_roots < 1e-12 * scale[..., None]):
        raise ValueError("z coincides with a kernel root (within 1e-12 relative)")
    denom = kernel_eval(dist, u, z_arr)
    num = np.prod(
        (z_arr[..., None] - roots.roots) / (1.0 - roots.roots), axis=-1
    )
    out = num / denom
    return out if np.ndim(z) else complex(out)


def root_logresidue_check(
    dist: IncrementDistribution,
    u: float,
    z: float,
    inner_radius: float,
    nodes: int,
):
    """Sum of principal-branch logs over the roots vs its contour integral.

    Left side: sum_k ln((z - z_k) / (1 - z_k)).  Right side: trapezoidal
    quadrature of (1/2 pi i) oint_{|w|=a} ln((z - w)/(1 - w)) k'(w)/k(w) dw.
    Returns (lhs, rhs) as real numbers for the caller to compare.
    """
    if not (0.0 < u < 1.0):
        raise ValueError("u must be real in (0, 1)")
    roots = find_kernel_roots(dist, u)
    a = inner_radius
    if not (roots.max_modulus < a < z < 1.0):
        raise ValueError(
            f"need max|z_k| = {roots.max_modulus} < a = {a} < z = {z} < 1"
        )
    lhs = complex(np.sum(np.log((z - roots.roots) / (1.0 - roots.roots))))
    w = a * np.exp(2j * np.pi * np.arange(nodes) / nodes)
    kw = kernel_eval(dist, u, w)
    if np.min(np.abs(kw)) < 1e-12:
        raise ValueError("kernel modulus below 1e-12 on the contour |w| = a")
    integrand = np.log((z - w) / (1.0 - w)) * kernel_deriv_eval(dist, u, w) / kw
    rhs = complex(np.mean(integrand * w))
    return lhs.real, rhs.real
