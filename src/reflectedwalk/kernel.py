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

find_kernel_roots is the one entry point, for a scalar u or an array of
them.  At u[0] it solves globally via companion-matrix eigenvalues, as
np.roots does: one eigenvalue call, as a real matrix for a real u.  The
s eigenvalues with |z| < 1 - IN_DISK_TOL, which must be s, are kept as
they come, and every one must meet RESIDUAL_TOL, or KernelRootError
names the u.  The companion's eigenvalues are backward stable as a set,
the exact roots of one nearby polynomial, so their product is accurate
even where single roots are not.

The roots z_k(u) are analytic in u, so every other node of an array is
seeded with z_k(u_0) (u/u_0)^(1/s), and Newton runs on all (u, root)
pairs at once, each to roundoff.  A node keeps its Newton roots only if
every pair reached that stop, all s lie inside the disk and within
RESIDUAL_TOL, and their certificate is at most max(ETA, eps_0), eps_0
being the certificate of u[0]'s companion roots.  Every other node, and
every node when u[0] = 0 leaves nothing to seed from, gets its own
companion solve.

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
from .dist import IncrementDistribution, pgf_eval

IN_DISK_TOL = 1e-12        # strict in-disk selection margin
RESIDUAL_TOL = 1e-10       # hard cap on accepted root residuals
NEWTON_BAND = 1e-3         # Newton runs only while |z| < 1 + NEWTON_BAND
NEWTON_STEPS = 50          # cap on Newton's steps per root
# relative accuracy assumed for one evaluation of F(u, z): find_kernel_roots
# admits Newton roots whose certificate is within it (or within the
# companion's), and the u inversion's error bound (cli.u_circle_bound)
# amplifies it
ETA = 1e-15


class KernelRootError(RuntimeError):
    """Root finding or selection failed; carries the full root list."""


@dataclass(frozen=True)
class RootSet:
    """The s in-disk kernel roots for a scalar u, or row k for u[k] of an array.

    roots and residuals have shape u.shape + (s,).
    """

    roots: np.ndarray
    residuals: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.roots, dtype=complex)
        r.setflags(write=False)
        object.__setattr__(self, "roots", r)
        res = np.asarray(self.residuals, dtype=float)
        res.setflags(write=False)
        object.__setattr__(self, "residuals", res)

    def __len__(self) -> int:
        return self.roots.shape[-1]

    @property
    def max_modulus(self) -> float:
        """The largest |z_k| over the whole set."""
        return float(np.max(np.abs(self.roots), initial=0.0))

    def row(self, k: int) -> "RootSet":
        """Row k alone: the RootSet of the scalar u[k]."""
        return RootSet(self.roots[k], self.residuals[k])


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


def _companion_roots(coeffs: np.ndarray) -> np.ndarray:
    """All roots of one row of ascending coefficients, as np.roots finds them.

    Zero coefficients at either end are stripped: each zero at the low end
    is a root at the origin, and u = 0 zeroes both ends.  A row whose
    imaginary parts are all zero (every real u) is solved as a real matrix,
    as np.roots solves a real polynomial: LAPACK's real eigensolver takes a
    third to a half of the complex one's time.
    """
    nonzero = np.flatnonzero(coeffs)
    lo, hi = nonzero[0], nonzero[-1]
    p = coeffs[lo : hi + 1][::-1]
    if not np.any(p.imag):
        p = p.real
    n = hi - lo
    roots = np.zeros(hi, dtype=complex)
    if n:
        companion = np.diag(np.ones(n - 1, dtype=p.dtype), -1)
        companion[0, :] = -p[1:] / p[0]
        roots[:n] = np.linalg.eigvals(companion)
    return roots


def _companion_rows(dist: IncrementDistribution, us: np.ndarray):
    """The s in-disk roots and their residuals at each u of a 1-D array.

    One companion solve per u.  A u whose in-disk count is not s, or whose
    roots miss RESIDUAL_TOL, raises KernelRootError naming that u.
    """
    s = dist.s
    cand = [_companion_roots(c) for c in kernel_coeffs(dist, us)]
    flat = np.concatenate(cand)
    inside = np.abs(flat) < 1.0 - IN_DISK_TOL
    row = np.repeat(np.arange(len(us)), [len(c) for c in cand])
    found = np.bincount(row[inside], minlength=len(us))
    bad = found != s
    if bad.any():
        k = int(np.argmax(bad))
        raise KernelRootError(
            f"expected {s} in-disk roots, found {found[k]} at u={us[k].item()!r}; "
            f"all root moduli: {sorted(np.abs(cand[k]).tolist())}"
        )
    roots = flat[inside].reshape(len(us), s)
    # deterministic ordering: by real part, then imaginary part
    roots = np.take_along_axis(roots, np.lexsort((roots.imag, roots.real), axis=-1), axis=-1)
    residuals = np.abs(kernel_eval(dist, np.repeat(us, s), roots.reshape(-1)))
    residuals = residuals.reshape(roots.shape)
    bad = np.any(residuals > RESIDUAL_TOL, axis=-1)
    if bad.any():
        k = int(np.argmax(bad))
        raise KernelRootError(
            f"root residuals exceed {RESIDUAL_TOL}: {residuals[k].tolist()} "
            f"at u={us[k].item()!r}"
        )
    return roots, residuals


def _kernel_terms(dist, u, z):
    """k(z) and k'(z) at 1-D arrays u and z.

    One table of powers z^0 .. z^max(s, J) and two matrix products: Newton
    evaluates small arrays many times, where np.polyval's loop over the
    coefficients would cost more than the arithmetic.
    """
    s, j_max, p = dist.s, dist.j_max, dist.pmf_a
    powers = np.empty((z.size, max(s, j_max) + 1), dtype=complex)
    powers[:, 0] = 1.0
    powers[:, 1:] = z[:, None]
    np.cumprod(powers, axis=1, out=powers)
    k = powers[:, s] - u * (powers[:, : j_max + 1] @ p)
    slope = s * powers[:, s - 1] - u * (powers[:, :j_max] @ (np.arange(1, j_max + 1) * p[1:]))
    return k, slope


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
    k, _ = _kernel_terms(dist, np.repeat(u, dist.s), z.reshape(-1))
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
        kz, fp = _kernel_terms(dist, u[live], z[live])
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


def find_kernel_roots(dist: IncrementDistribution, u) -> RootSet:
    """All s kernel roots with |z| < 1 at u, a scalar or an array.

    Solves u[0] by its companion matrix, seeds every other node with
    z_k(u_0) (u/u_0)^(1/s), Newton-iterates all pairs to roundoff and keeps
    the rows that converged and pass the gate with bar max(ETA, eps_0),
    eps_0 being the certificate of u[0]'s roots (see the module docstring).
    The rest, or every row when u[0] = 0 leaves nothing to seed from, get
    their own companion solves.  Every row is ordered by real part, then
    imaginary part.  A companion row whose in-disk count is not s, or whose
    roots miss RESIDUAL_TOL, raises KernelRootError naming its u.
    """
    u_arr = np.asarray(u)
    us = u_arr.reshape(-1)
    if np.any(np.abs(us) >= 1):
        raise ValueError(f"|u| must be < 1, got {float(np.max(np.abs(us)))!r}")
    s = dist.s
    roots = np.empty((len(us), s), dtype=complex)
    residuals = np.empty((len(us), s))
    roots[:1], residuals[:1] = _companion_rows(dist, us[:1])
    rest = us[1:]
    fallback = np.ones(len(rest), dtype=bool)
    if len(rest) and us[0] != 0:
        ratio = rest / us[0]
        turn = np.abs(ratio) ** (1.0 / s) * cexp(1j * np.angle(ratio) / s)
        z, done = _newton(dist, np.repeat(rest, s), (turn[:, None] * roots[0]).reshape(-1))
        z, done = z.reshape(len(rest), s), done.reshape(len(rest), s).all(axis=-1)
        z = np.take_along_axis(z, np.lexsort((z.imag, z.real), axis=-1), axis=-1)
        bar = max(ETA, float(_certificate(dist, us[:1], roots[:1])[0]))
        ok, res = _gate(dist, rest[done], z[done], bar)
        accepted = np.flatnonzero(done)[ok]
        roots[1 + accepted], residuals[1 + accepted] = z[accepted], res[ok]
        fallback[accepted] = False
    if fallback.any():
        rows = 1 + np.flatnonzero(fallback)
        roots[rows], residuals[rows] = _companion_rows(dist, rest[fallback])
    shape = u_arr.shape + (s,)
    return RootSet(roots=roots.reshape(shape), residuals=residuals.reshape(shape))


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
    On the nodes w_j = a exp(2 pi i j / nodes), k(w_j) and w_j k'(w_j) are
    the unnormalized inverse DFTs of c_i a^i and i c_i a^i, c_i being
    kernel_coeffs, folded mod nodes when the degree reaches nodes: one
    batched transform in place of two Horner sums over the circle.
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
    i = np.arange(max(dist.s, dist.j_max) + 1)
    scaled = kernel_coeffs(dist, u) * a**i
    folded = np.zeros((2, -(-len(i) // nodes) * nodes), dtype=complex)
    folded[0, : len(i)] = scaled
    folded[1, : len(i)] = i * scaled
    kw, wslope = np.fft.ifft(folded.reshape(2, -1, nodes).sum(axis=1), norm="forward")
    # relative to the term moduli |w|^s + u A(|w|), as A has nonnegative coefficients
    if np.min(np.abs(kw)) < 1e-12 * (a**dist.s + u * pgf_eval(dist, a)):
        raise ValueError("kernel modulus below 1e-12 of its scale on the contour |w| = a")
    w = circle(a, nodes)
    rhs = complex(np.mean(clog((z - w) / (1.0 - w)) * wslope / kw))
    return lhs.real, rhs.real
