"""Roots of the kernel w^s - u A(w) inside the unit disk.

For |u| < 1 the kernel has exactly s zeros in |z| < 1 (Rouche count), and
the reflected-walk transform factors over them:

    F(u, z) = (1 / (z^s - u A(z))) * prod_k (z - z_k(u)) / (1 - z_k(u)).

A root set is right exactly when P(w) = prod_k (w - z_k) divides the
kernel k(w).  Dividing k's coefficients by the monic P from the top is
stable, as P's roots lie inside the disk, and leaves the remainder
R = k mod P.  P is then the exact in-disk factor of k - R, and on |z| = 1,
1/k = z^-s sum_n (u A(z) z^-s)^n has Wiener norm <= 1/(1 - |u|).  So with
the certificate eps = ||R||_1 / (1 - |u|) < 1 and every z_k inside the
disk, Rouche keeps the count, and |log(F_roots / F)| <= -2 log(1 - eps)
at every |z| = 1, however ill-conditioned the single roots are.  Rounding
adds O(J eps) to the computed eps.

There are two entry points.

find_kernel_roots, for a scalar u or an array of them, solves globally
via companion-matrix eigenvalues: the companion matrices of every u are
stacked and solved by one eigenvalue call, the rows of a real u apart, as
real matrices.  It returns the eigenvalues as they come: the s with
|z| < 1 - IN_DISK_TOL, which must be s at every u, and every one within
RESIDUAL_TOL, or KernelRootError names the u.  The companion's
eigenvalues are backward stable as a set, the exact roots of one nearby
polynomial, so their product is accurate even where single roots are not.

track_kernel_roots, for an array of u, makes that companion solve at u[0]
only.  The roots z_k(u) are analytic in u, so it seeds every other node
with z_k(u_0) (u/u_0)^(1/s) and runs Newton on all (u, root) pairs at
once, each to roundoff.  A node keeps its Newton roots only if every pair
reached that stop, all s lie inside the disk and within RESIDUAL_TOL, and
their certificate is at most max(ETA, eps_0), eps_0 being the
certificate of u[0]'s companion roots.  Every other node takes one
stacked find_kernel_roots call.

A small residual per root does not certify the product.  On poisson(45),
s = 50, Newton from the seeds ends on root sets that mostly meet
RESIDUAL_TOL, yet F from them is off by up to a relative 1.1: the roots
are ill-conditioned.  Their certificates read 2e-6 to 40 against 3e-11
for the companion's, and those nodes go to the companion.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._complex import cexp, circle, clog
from .dist import IncrementDistribution, pgf_deriv_eval, pgf_eval

IN_DISK_TOL = 1e-12        # strict in-disk selection margin
RESIDUAL_TOL = 1e-10       # hard cap on accepted root residuals
NEWTON_BAND = 1e-3         # Newton runs only while |z| < 1 + NEWTON_BAND
NEWTON_STEPS = 50          # cap on the tracker's Newton steps per root
# relative accuracy assumed for one evaluation of F(u, z): the tracker
# admits Newton roots whose certificate is within it (or within the
# companion's), and the u inversion's error bound (cli.u_circle_bound)
# amplifies it
ETA = 1e-15


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

    def row(self, k: int) -> "RootSet":
        """Row k alone: the RootSet of the scalar u[k]."""
        roots = self.roots[k]
        return RootSet(roots, self.residuals[k], float(np.max(np.abs(roots), initial=0.0)))


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


def _companion_roots(coeffs: np.ndarray) -> np.ndarray:
    """All roots of each row of ascending coefficients, as np.roots finds them.

    Zero coefficients at either end are stripped as np.roots strips them:
    each zero at the low end is a root at the origin, and u = 0 zeroes both
    ends.  A row whose imaginary parts are all zero (every real u) is solved
    as a real matrix, as np.roots solves a real polynomial: LAPACK's real
    eigensolver takes a third to a half of the complex one's time.  Rows
    with the same zero pattern and realness share one stacked eigenvalue
    call, so a batch row equals its scalar call to the bit.  A row with
    fewer roots than the widest one is padded with inf, which lies in no
    disk.
    """
    nonzero = coeffs != 0
    low = np.argmax(nonzero, axis=-1)
    high = coeffs.shape[-1] - 1 - np.argmax(nonzero[:, ::-1], axis=-1)
    real = ~np.any(coeffs.imag, axis=-1)
    cand = np.full((len(coeffs), int(high.max())), np.inf, dtype=complex)
    for lo, hi, re in sorted(set(zip(low.tolist(), high.tolist(), real.tolist()))):
        rows = np.flatnonzero((low == lo) & (high == hi) & (real == re))
        n = hi - lo
        if n:
            p = coeffs[rows, lo : hi + 1][:, ::-1]
            if re:
                p = p.real
            companion = np.zeros((len(rows), n, n), dtype=p.dtype)
            companion[:, 1:, :-1] = np.eye(n - 1)
            companion[:, 0, :] = -p[:, 1:] / p[:, :1]
            cand[rows, :n] = np.linalg.eigvals(companion)
        cand[rows, n:hi] = 0.0
    return cand


def find_kernel_roots(dist: IncrementDistribution, u) -> RootSet:
    """All s kernel roots with |z| < 1 at u, a scalar or an array.

    One stacked companion solve serves every u.  A u whose in-disk count is
    not s, or whose roots miss RESIDUAL_TOL, raises KernelRootError naming
    that u.
    """
    u_arr = np.asarray(u)
    us = u_arr.reshape(-1)
    if np.any(np.abs(us) >= 1):
        raise ValueError(f"|u| must be < 1, got {float(np.max(np.abs(us)))!r}")
    cand = _companion_roots(kernel_coeffs(dist, us))
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
    # deterministic ordering: by real part, then imaginary part
    roots = np.take_along_axis(roots, np.lexsort((roots.imag, roots.real), axis=-1), axis=-1)
    # one flat array of (u, root) pairs, as a scalar call evaluates them
    residuals = np.abs(kernel_eval(dist, np.repeat(us, dist.s), roots.reshape(-1)))
    residuals = residuals.reshape(roots.shape)
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


def _kernel_terms(dist, u, z):
    """k(z), k'(z) and the powers z^0 .. z^max(s, J) at 1-D arrays u and z.

    One table of powers and two matrix products: the tracker evaluates
    small arrays many times, where np.polyval's loop over the coefficients
    would cost more than the arithmetic.
    """
    s, j_max, p = dist.s, dist.j_max, dist.pmf_a
    powers = np.empty((z.size, max(s, j_max) + 1), dtype=complex)
    powers[:, 0] = 1.0
    powers[:, 1:] = z[:, None]
    np.cumprod(powers, axis=1, out=powers)
    k = powers[:, s] - u * (powers[:, : j_max + 1] @ p)
    slope = s * powers[:, s - 1] - u * (powers[:, :j_max] @ (np.arange(1, j_max + 1) * p[1:]))
    return k, slope, powers


def _certificate(dist, u, z):
    """eps = ||k mod P||_1 / (1 - |u|) per row of roots z (n, s) at u (n,).

    P = prod_k (w - z_k) is monic, so the kernel's coefficients divide by
    it from the top in max(s, J) - s + 1 steps of s + 1 terms each; see the
    module docstring for what eps bounds.
    """
    n, s = z.shape
    p = np.zeros((n, s + 1), dtype=complex)  # P, highest power first
    p[:, 0] = 1.0
    for k in range(s):
        p[:, 1 : k + 2] -= z[:, k, None] * p[:, : k + 1]
    rem = kernel_coeffs(dist, u)[:, ::-1].copy()  # k, highest power first
    for j in range(rem.shape[-1] - s):
        rem[:, j : j + s + 1] -= rem[:, j, None] * p
    return np.sum(np.abs(rem[:, -s:]), axis=-1) / (1.0 - np.abs(u))


def _gate(dist, u, z, bar):
    """Which rows of z (n, s) are accepted as the s in-disk roots at u (n,).

    Returns the flags and the residuals |k(z)|.  A row passes if its roots
    are inside the disk, meet RESIDUAL_TOL, and its certificate is <= bar.
    """
    k, _, _ = _kernel_terms(dist, np.repeat(u, dist.s), z.reshape(-1))
    residuals = np.abs(k).reshape(z.shape)
    ok = np.all((np.abs(z) < 1.0 - IN_DISK_TOL) & (residuals <= RESIDUAL_TOL), axis=-1)
    ok[ok] = _certificate(dist, u[ok], z[ok]) <= bar
    return ok, residuals


def _newton(dist, u, z):
    """Newton on 1-D arrays of (u, z) pairs, each to roundoff: |step| <= 4 eps |z|.

    Returns the roots and a flag per pair: it converged, or hit k(z) = 0,
    within NEWTON_STEPS steps.  A pair starts or stops unconverged outside
    |z| < 1 + NEWTON_BAND, where no in-disk root lies and z^J may overflow,
    and stops at a step of length >= 2 (a zero slope included).
    """
    z = z.copy()
    done = np.zeros(z.shape, dtype=bool)
    live = np.flatnonzero(np.abs(z) < 1.0 + NEWTON_BAND)
    eps = np.finfo(float).eps
    for _ in range(NEWTON_STEPS):
        if live.size == 0:
            break
        kz, fp, _ = _kernel_terms(dist, u[live], z[live])
        exact = kz == 0
        done[live[exact]] = True
        moving = ~exact & (np.abs(kz) < 2.0 * np.abs(fp))
        live = live[moving]
        step = kz[moving] / fp[moving]
        z[live] -= step
        converged = np.abs(step) <= 4.0 * eps * np.abs(z[live])
        done[live[converged]] = True
        live = live[~converged & (np.abs(z[live]) < 1.0 + NEWTON_BAND)]
    return z, done


def track_kernel_roots(dist: IncrementDistribution, u) -> RootSet:
    """The s in-disk kernel roots at every u of an array, from one companion solve.

    Solves u[0] by find_kernel_roots, seeds every other node with
    z_k(u_0) (u/u_0)^(1/s), Newton-iterates all pairs to roundoff and keeps
    the rows that converged and pass the gate with bar max(ETA, eps_0),
    eps_0 being the certificate of u[0]'s roots (see the module docstring).
    The rest, or every row when u[0] = 0 leaves nothing to seed from, come
    from one stacked find_kernel_roots call and equal its rows to the bit.
    Accepted rows are ordered as find_kernel_roots orders its rows.
    """
    u_arr = np.asarray(u)
    us = u_arr.reshape(-1)
    if np.any(np.abs(us) >= 1):
        raise ValueError(f"|u| must be < 1, got {float(np.max(np.abs(us)))!r}")
    s = dist.s
    first = find_kernel_roots(dist, us[0])
    roots = np.empty((len(us), s), dtype=complex)
    residuals = np.empty((len(us), s))
    roots[0], residuals[0] = first.roots, first.residuals
    rest = us[1:]
    fallback = np.ones(len(rest), dtype=bool)
    if len(rest) and us[0] != 0:
        ratio = rest / us[0]
        turn = np.abs(ratio) ** (1.0 / s) * cexp(1j * np.angle(ratio) / s)
        z, done = _newton(dist, np.repeat(rest, s), (turn[:, None] * first.roots).reshape(-1))
        z, done = z.reshape(len(rest), s), done.reshape(len(rest), s).all(axis=-1)
        z = np.take_along_axis(z, np.lexsort((z.imag, z.real), axis=-1), axis=-1)
        bar = max(ETA, float(_certificate(dist, us[:1], first.roots[None])[0]))
        ok, res = _gate(dist, rest[done], z[done], bar)
        accepted = np.flatnonzero(done)[ok]
        roots[1 + accepted], residuals[1 + accepted] = z[accepted], res[ok]
        fallback[accepted] = False
    if fallback.any():
        again = find_kernel_roots(dist, rest[fallback])
        rows = 1 + np.flatnonzero(fallback)
        roots[rows], residuals[rows] = again.roots, again.residuals
    shape = u_arr.shape + (s,)
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
    roots: RootSet | None = None,
):
    """Sum of principal-branch logs over the roots vs its contour integral.

    Left side: sum_k ln((z - z_k) / (1 - z_k)).  Right side: trapezoidal
    quadrature of (1/2 pi i) oint_{|w|=a} ln((z - w)/(1 - w)) k'(w)/k(w) dw.
    roots are the kernel roots at u; by default find_kernel_roots(dist, u).
    Returns (lhs, rhs) as real numbers for the caller to compare.
    """
    if not (0.0 < u < 1.0):
        raise ValueError("u must be real in (0, 1)")
    if roots is None:
        roots = find_kernel_roots(dist, u)
    a = inner_radius
    if not (roots.max_modulus < a < z < 1.0):
        raise ValueError(
            f"need max|z_k| = {roots.max_modulus} < a = {a} < z = {z} < 1"
        )
    lhs = complex(np.sum(clog((z - roots.roots) / (1.0 - roots.roots))))
    w = circle(a, nodes)
    kw = kernel_eval(dist, u, w)
    # relative to the term moduli |w|^s + u A(|w|), as A has nonnegative coefficients
    if np.min(np.abs(kw)) < 1e-12 * (a**dist.s + u * pgf_eval(dist, a)):
        raise ValueError("kernel modulus below 1e-12 of its scale on the contour |w| = a")
    integrand = clog((z - w) / (1.0 - w)) * kernel_deriv_eval(dist, u, w) / kw
    rhs = complex(np.mean(integrand * w))
    return lhs.real, rhs.real
