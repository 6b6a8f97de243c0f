"""Roots of the kernel w^s - u A(w) inside the unit disk.

For |u| < 1 the kernel has exactly s zeros in |z| < 1 (Rouche count), and
the reflected-walk transform factors over them:

    F(u, z) = (1 / (z^s - u A(z))) * prod_k (z - z_k(u)) / (1 - z_k(u)).

Roots are found globally via companion-matrix eigenvalues, for a whole
array of u values at once: the companion matrices are stacked and solved by
one eigenvalue call.  Only the eigenvalues with |z| < 1 + POLISH_BAND are
polished, all (u, root) pairs together, by Newton steps that each root
accepts only while they reduce its residual.  The candidates farther out
cannot be in-disk roots: they feed only the in-disk count, which must equal
s at every u, and are never returned, so their residuals need not be small.
A root that the count misses still raises KernelRootError, and every
returned root still meets RESIDUAL_TOL.
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
    """The s in-disk kernel roots for a scalar u, or row k for u[k] of an array.

    roots and residuals have shape u.shape + (s,); max_modulus is the
    largest |z_k| over the whole set.
    """

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
        return self.roots.shape[-1]


def kernel_coeffs(dist: IncrementDistribution, u) -> np.ndarray:
    """Ascending coefficients of w^s - u A(w) along the last axis, per u."""
    s = dist.s
    u = np.asarray(u)
    c = np.zeros(u.shape + (max(s, dist.j_max) + 1,), dtype=complex)
    c[..., : dist.j_max + 1] = -u[..., None] * dist.pmf_a
    c[..., s] += 1.0
    return c


def kernel_eval(dist: IncrementDistribution, u: complex, w):
    return w**dist.s - u * pgf_eval(dist, w)


def kernel_deriv_eval(dist: IncrementDistribution, u: complex, w):
    return dist.s * w ** (dist.s - 1) - u * pgf_deriv_eval(dist, w)


def _polish(dist, u, z):
    """Newton iterations on a 1-D array of roots, at most 50 steps each.

    u is a scalar or one value per root.  A root stops at POLISH_TARGET,
    where k'(z) = 0, or at its first step that does not reduce its
    residual, which it rejects.  Returns the polished roots and their
    residuals.
    """
    z = np.array(z, dtype=complex, ndmin=1)
    u = np.broadcast_to(u, z.shape)
    kz = kernel_eval(dist, u, z)
    res = np.abs(kz)
    live = np.flatnonzero(res > POLISH_TARGET)
    for _ in range(50):
        if live.size == 0:
            break
        fp = kernel_deriv_eval(dist, u[live], z[live])
        moving = fp != 0
        live, fp = live[moving], fp[moving]
        cand = z[live] - kz[live] / fp
        k_cand = kernel_eval(dist, u[live], cand)
        cand_res = np.abs(k_cand)
        better = cand_res < res[live]
        live = live[better]
        z[live], kz[live], res[live] = cand[better], k_cand[better], cand_res[better]
        live = live[res[live] > POLISH_TARGET]
    return z, res


def _companion_roots(coeffs: np.ndarray) -> np.ndarray:
    """All roots of each row of ascending coefficients, as np.roots finds them.

    Zero coefficients at either end are stripped as np.roots strips them:
    each zero at the low end is a root at the origin, and u = 0 zeroes both
    ends.  Rows with the same zero pattern share one stacked eigenvalue
    call.  A row with fewer roots than the widest one is padded with inf,
    which lies in no disk.
    """
    nonzero = coeffs != 0
    low = np.argmax(nonzero, axis=-1)
    high = coeffs.shape[-1] - 1 - np.argmax(nonzero[:, ::-1], axis=-1)
    cand = np.full((len(coeffs), int(high.max())), np.inf, dtype=complex)
    for lo, hi in sorted(set(zip(low.tolist(), high.tolist()))):
        rows = np.flatnonzero((low == lo) & (high == hi))
        n = hi - lo
        if n:
            p = coeffs[rows, lo : hi + 1][:, ::-1]
            companion = np.zeros((len(rows), n, n), dtype=complex)
            companion[:, 1:, :-1] = np.eye(n - 1)
            companion[:, 0, :] = -p[:, 1:] / p[:, :1]
            cand[rows, :n] = np.linalg.eigvals(companion)
        cand[rows, n:hi] = 0.0
    return cand


def find_kernel_roots(dist: IncrementDistribution, u) -> RootSet:
    """All s kernel roots with |z| < 1 at u, a scalar or an array.

    One stacked companion solve and one polish serve every u.  A u whose
    in-disk count is not s, or whose roots miss RESIDUAL_TOL, raises
    KernelRootError naming that u.
    """
    u_arr = np.asarray(u)
    us = u_arr.reshape(-1)
    if np.any(np.abs(us) >= 1):
        raise ValueError(f"|u| must be < 1, got {float(np.max(np.abs(us)))!r}")
    cand = _companion_roots(kernel_coeffs(dist, us))
    res = np.full(cand.shape, np.inf)
    near = np.abs(cand) < 1.0 + POLISH_BAND
    cand[near], res[near] = _polish(dist, us[np.nonzero(near)[0]], cand[near])
    inside = np.abs(cand) < 1.0 - IN_DISK_TOL
    found = np.count_nonzero(inside, axis=-1)
    bad = found != dist.s
    if bad.any():
        k = int(np.argmax(bad))
        moduli = np.abs(cand[k])
        raise KernelRootError(
            f"expected {dist.s} in-disk roots, found {found[k]} at u={us[k].item()!r}; "
            f"all root moduli: {sorted(moduli[np.isfinite(moduli)].tolist())}"
        )
    roots = cand[inside].reshape(len(us), dist.s)
    residuals = res[inside].reshape(len(us), dist.s)
    # deterministic ordering: by real part, then imaginary part
    order = np.arange(len(us))[:, None], np.lexsort((roots.imag, roots.real), axis=-1)
    roots, residuals = roots[order], residuals[order]
    bad = np.any(residuals > RESIDUAL_TOL, axis=-1)
    if bad.any():
        k = int(np.argmax(bad))
        raise KernelRootError(
            f"root residuals exceed {RESIDUAL_TOL}: {residuals[k].tolist()} "
            f"at u={us[k].item()!r}"
        )
    shape = u_arr.shape + (dist.s,)
    return RootSet(
        roots=roots.reshape(shape),
        residuals=residuals.reshape(shape),
        max_modulus=float(np.max(np.abs(roots), initial=0.0)),
    )


def product_eval(dist: IncrementDistribution, u, z, roots: RootSet):
    """F(u, z) from the root-product representation.

    u is a scalar or an array with roots from find_kernel_roots(dist, u);
    z is a scalar or an array.  The result has shape u.shape + z.shape.
    """
    u_arr = np.asarray(u)
    z_arr = np.asarray(z, dtype=complex)
    expand = (1,) * z_arr.ndim
    r = roots.roots.reshape(u_arr.shape + expand + roots.roots.shape[-1:])
    diff = z_arr[..., None] - r
    scale = np.maximum(np.abs(z_arr), 1.0)
    if np.any(np.abs(diff) < 1e-12 * scale[..., None]):
        raise ValueError("z coincides with a kernel root (within 1e-12 relative)")
    denom = kernel_eval(dist, u_arr.reshape(u_arr.shape + expand), z_arr)
    out = np.prod(diff / (1.0 - r), axis=-1) / denom
    return out if out.ndim else complex(out)


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
    # relative to the term moduli |w|^s + u A(|w|), as A has nonnegative coefficients
    if np.min(np.abs(kw)) < 1e-12 * (a**dist.s + u * pgf_eval(dist, a)):
        raise ValueError("kernel modulus below 1e-12 of its scale on the contour |w| = a")
    integrand = np.log((z - w) / (1.0 - w)) * kernel_deriv_eval(dist, u, w) / kw
    rhs = complex(np.mean(integrand * w))
    return lhs.real, rhs.real
