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
at every |z| = 1, however ill-conditioned the single roots are.  The
computed eps certifies the roots of P as expanded in floating point; it
departs from the eps of the z_k by a few machine eps times the moduli of
the coefficients the expansion and the division pass through, which
_certificate's expansion order keeps small.

find_kernel_roots is the one entry point, for a scalar u or an array of
them.  At u[0] it solves globally by np.roots, the companion matrix's
eigenvalues, in real arithmetic for a real u.  The roots with
|z| < 1 - IN_DISK_TOL, which must be s, are kept as they come, and must
pass _accepted, the one in-disk and RESIDUAL_TOL test of companion and
Newton rows alike, or KernelRootError names the u.  The companion's
eigenvalues are backward stable as a set, the exact roots of one nearby
polynomial, so their product is accurate even where single roots are
not.  kernel_terms is the one evaluator of k and k' for Newton and
_accepted; product_eval needs k alone, z^s - u A(z) with A by Horner.

The roots z_k(u) are analytic in u, so every other node of an array is
seeded with z_k(u_0) (u/u_0)^(1/s), and Newton runs on all (u, root)
pairs at once, each to roundoff.  A node keeps its Newton roots only if
every pair reached that stop, the row passes _accepted, and its
certificate is at most max(ETA, eps_0), eps_0 being the certificate of
u[0]'s companion roots.  Every other node, and every node when u[0] = 0
leaves nothing to seed from, gets its own companion solve.

A small residual per root does not certify the product.  On poisson(45),
s = 50, Newton from the seeds ends on root sets that mostly meet
RESIDUAL_TOL, yet F from them is off by up to a relative 1.1: the roots
are ill-conditioned.  On the n_max = 6 circle their certificates read
2.1e-6 to 5.9e2 against 2.5e-14 for u[0]'s companion roots, only 3 to 10
of each row's 50 pairs reach the Newton stop, and those nodes go to the
companion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._complex import cexp, circle, circle_polyval, clog, next_pow2
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
TABLE_ENTRIES = 1 << 20    # cap on one block of kernel_terms' power table


class KernelRootError(RuntimeError):
    """A companion solve failed; the message names its u and the root moduli or residuals."""


@dataclass(frozen=True)
class RootSet:
    """The s in-disk kernel roots at u, a scalar or an array: shape u.shape + (s,)."""

    roots: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.roots, dtype=complex)
        r.setflags(write=False)
        object.__setattr__(self, "roots", r)

    def __len__(self) -> int:
        return self.roots.shape[-1]

    @property
    def max_modulus(self) -> float:
        """The largest |z_k| over the whole set."""
        return float(np.max(np.abs(self.roots), initial=0.0))

    def row(self, k: int) -> "RootSet":
        """Row k alone: the RootSet of the scalar u[k]."""
        return RootSet(self.roots[k])


def kernel_coeffs(dist: IncrementDistribution, u) -> np.ndarray:
    """Ascending coefficients of w^s - u A(w) along the last axis, per u."""
    s = dist.s
    u = np.asarray(u)
    c = np.zeros(u.shape + (max(s, dist.j_max) + 1,), dtype=complex)
    c[..., : dist.j_max + 1] = -u[..., None] * dist.pmf_a
    c[..., s] += 1.0
    return c


def kernel_terms(dist: IncrementDistribution, u, z):
    """k(z) = z^s - u A(z) and k'(z), u broadcast against z of any shape.

    One table of powers z^0 .. z^max(s, J) per block of at most
    TABLE_ENTRIES entries, and two matrix-vector products: Newton evaluates
    small arrays many times, where a Horner loop over the coefficients
    would cost more than the arithmetic.
    """
    s, j_max, p = dist.s, dist.j_max, dist.pmf_a
    z = np.asarray(z, dtype=complex)
    flat = z.reshape(-1)
    width = max(s, j_max) + 1
    rows = max(1, TABLE_ENTRIES // width)
    slope_p = np.arange(1, j_max + 1) * p[1:]
    terms = np.empty((4, flat.size), dtype=complex)  # z^s, z^(s-1), A(z), A'(z)
    for lo in range(0, flat.size, rows):
        block, out = flat[lo : lo + rows], terms[:, lo : lo + rows]
        powers = np.empty((block.size, width), dtype=complex)
        powers[:, 0] = 1.0
        powers[:, 1:] = block[:, None]
        np.cumprod(powers, axis=1, out=powers)
        out[0], out[1] = powers[:, s], powers[:, s - 1]
        out[2], out[3] = powers[:, : j_max + 1] @ p, powers[:, :j_max] @ slope_p
    z_s, z_s1, a, slope_a = terms.reshape((4,) + z.shape)
    return z_s - u * a, s * z_s1 - u * slope_a


def _accepted(dist, u, z):
    """Which rows of roots z (n, s) at u (n,) lie inside the disk and meet RESIDUAL_TOL."""
    residuals = np.abs(kernel_terms(dist, u[:, None], z)[0])
    return np.all((np.abs(z) < 1.0 - IN_DISK_TOL) & (residuals <= RESIDUAL_TOL), axis=-1)


def _companion_rows(dist: IncrementDistribution, us: np.ndarray) -> np.ndarray:
    """The s in-disk roots at each u of a 1-D array, shape (len(us), s).

    One np.roots call per u, on real coefficients for a real u: LAPACK's
    real eigensolver takes a third to a half of the complex one's time.  A
    u whose in-disk count is not s, or whose roots miss RESIDUAL_TOL,
    raises KernelRootError naming that u.
    """
    s = dist.s
    roots = np.empty((len(us), s), dtype=complex)
    for k, c in enumerate(kernel_coeffs(dist, us)):
        p = c[::-1]
        z = np.roots(p if np.any(p.imag) else p.real)
        inside = z[np.abs(z) < 1.0 - IN_DISK_TOL]
        found = len(inside)
        if found != s:
            # the moduli on either side of the in-disk cut (0.0 or inf if none)
            gap = np.concatenate([[0.0], np.sort(np.abs(z)), [np.inf]])[found : found + 2]
            raise KernelRootError(
                f"expected {s} in-disk roots, found {found} at u={us[k].item()!r}; largest "
                f"in-disk modulus {gap[0].item()!r}, smallest outside {gap[1].item()!r}"
            )
        # deterministic ordering: by real part, then imaginary part
        roots[k] = inside[np.lexsort((inside.imag, inside.real))]
    bad = ~_accepted(dist, us, roots)
    if bad.any():
        k = int(np.argmax(bad))
        res = np.abs(kernel_terms(dist, us[k], roots[k])[0]).tolist()
        raise KernelRootError(f"root residuals exceed {RESIDUAL_TOL}: {res} at u={us[k].item()!r}")
    return roots


def _certificate(dist, u, z):
    """eps = ||k mod P||_1 / (1 - |u|) per row of roots z (n, s) at u (n,).

    P = prod_k (w - z_k) is monic, so the kernel's coefficients divide by
    it from the top in max(s, J) - s + 1 steps of s + 1 terms each; see the
    module docstring for what eps bounds.  P is expanded in angle order with
    bit-reversed (van der Corput) indices, whatever order z comes in, so
    that neighbouring roots, whose product has large coefficients, do not
    enter in turn.
    """
    n, s = z.shape
    bits = (s - 1).bit_length()
    spread = sorted(range(s), key=lambda k: f"{k:0{bits}b}"[::-1])
    z = np.take_along_axis(z, np.lexsort((np.abs(z), np.angle(z)), axis=-1)[:, spread], axis=-1)
    p = np.zeros((n, s + 1), dtype=complex)  # P, highest power first
    p[:, 0] = 1.0
    for k in range(s):
        p[:, 1 : k + 2] -= z[:, k, None] * p[:, : k + 1]
    rem = kernel_coeffs(dist, u)[:, ::-1].copy()  # k, highest power first
    for j in range(rem.shape[-1] - s):
        rem[:, j : j + s + 1] -= rem[:, j, None] * p
    return np.sum(np.abs(rem[:, -s:]), axis=-1) / (1.0 - np.abs(u))


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
        kz, fp = kernel_terms(dist, u[live], z[live])
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
    the rows that converged, pass _accepted and certify to eps <=
    max(ETA, eps_0), eps_0 being the certificate of u[0]'s roots (see the
    module docstring).
    The rest, or every row when u[0] = 0 leaves nothing to seed from, get
    their own companion solves.  Every row is ordered by real part, then
    imaginary part.  A companion row whose in-disk count is not s, or whose
    roots miss RESIDUAL_TOL, raises KernelRootError naming its u.
    """
    u_arr = np.asarray(u)
    us = u_arr.reshape(-1)
    if not np.all(np.abs(us) < 1):
        raise ValueError(f"|u| must be < 1, got {float(np.max(np.abs(us)))!r}")
    s = dist.s
    roots = np.empty((len(us), s), dtype=complex)
    roots[:1] = _companion_rows(dist, us[:1])
    rest = us[1:]
    fallback = np.ones(len(rest), dtype=bool)
    if len(rest) and us[0] != 0:
        ratio = rest / us[0]
        turn = np.abs(ratio) ** (1.0 / s) * cexp(1j * np.angle(ratio) / s)
        z, done = _newton(dist, np.repeat(rest, s), (turn[:, None] * roots[0]).reshape(-1))
        z, done = z.reshape(len(rest), s), done.reshape(len(rest), s).all(axis=-1)
        z = np.take_along_axis(z, np.lexsort((z.imag, z.real), axis=-1), axis=-1)
        bar = max(ETA, float(_certificate(dist, us[:1], roots[:1])[0]))
        accepted = np.flatnonzero(done)
        accepted = accepted[_accepted(dist, rest[accepted], z[accepted])]
        accepted = accepted[_certificate(dist, rest[accepted], z[accepted]) <= bar]
        roots[1 + accepted] = z[accepted]
        fallback[accepted] = False
    if fallback.any():
        rows = 1 + np.flatnonzero(fallback)
        roots[rows] = _companion_rows(dist, rest[fallback])
    return RootSet(roots.reshape(u_arr.shape + (s,)))


def product_eval(dist: IncrementDistribution, u, z, roots: RootSet):
    """F(u, z) from the root-product representation.

    u is a scalar or an array with roots from find_kernel_roots(dist, u);
    z is a scalar or an array.  The result has shape u.shape + z.shape, the
    largest array the call holds: the factors (z - z_k) / (1 - z_k)
    multiply into it one root at a time, through two scratch arrays of its
    shape, and the denominator z^s - u A(z) takes two more after them.
    """
    u_arr = np.asarray(u)
    z_arr = np.asarray(z, dtype=complex)
    expand = (1,) * z_arr.ndim
    r = roots.roots.reshape(u_arr.shape + expand + roots.roots.shape[-1:])
    near = 1e-12 * np.maximum(np.abs(z_arr), 1.0)
    out = np.ones(u_arr.shape + z_arr.shape, dtype=complex)
    factor, spare = np.empty_like(out), np.empty_like(out)
    for k in range(r.shape[-1]):
        np.subtract(z_arr, r[..., k], out=factor)
        if np.any(np.abs(factor) < near):
            raise ValueError("z coincides with a kernel root (within 1e-12 relative)")
        np.divide(factor, 1.0 - r[..., k], out=factor)
        # into the other array: numpy runs an in-place complex product of one
        # element through its scalar loop, which rounds unlike its array loop
        out, spare = np.multiply(out, factor, out=spare), out
    del factor, spare
    out /= z_arr**dist.s - u_arr.reshape(u_arr.shape + expand) * pgf_eval(dist, z_arr)
    return out if out.ndim else complex(out)


def root_logresidue_check(dist: IncrementDistribution, u: float, roots: RootSet | None = None):
    """Sum of principal-branch logs over the roots vs its contour integral.

    Left side: sum_k ln((z - z_k) / (1 - z_k)).  Right side: trapezoidal
    quadrature of (1/2 pi i) oint_{|w|=a} ln((z - w)/(1 - w)) k'(w)/k(w) dw.
    roots are the kernel roots at u; by default find_kernel_roots(dist, u).
    With m = max|z_k|, z = (m + 1) / 2 and a = (m + z) / 2.  The integrand
    is analytic on m < |w| < z, so the rule on N nodes errs by O(rho^N),
    rho = max(m / a, a / z) (Trefethen & Weideman, SIAM Review 56, 2014):
    N is the smallest power of two >= 16 with rho^N <= eps, and an N above
    2^20 raises ValueError.  k(w_j) and w_j k'(w_j) come from one
    circle_polyval of c_i a^i and i c_i a^i, c_i being kernel_coeffs.
    Returns (lhs, rhs) as real numbers for the caller to compare.
    """
    if not (0.0 < u < 1.0):
        raise ValueError("u must be real in (0, 1)")
    if roots is None:
        roots = find_kernel_roots(dist, u)
    top = roots.max_modulus
    z = 0.5 * (top + 1.0)
    a = 0.5 * (top + z)
    rate = max(top / a, a / z)
    nodes = next_pow2(math.ceil(math.log(np.finfo(float).eps) / math.log(rate)))
    if nodes > 1 << 20:
        raise ValueError(f"log-residue check needs {nodes} nodes, above 2^20")
    lhs = complex(np.sum(clog((z - roots.roots) / (1.0 - roots.roots))))
    i = np.arange(max(dist.s, dist.j_max) + 1)
    scaled = kernel_coeffs(dist, u) * a**i
    kw, wslope = circle_polyval(np.stack([scaled, i * scaled]), nodes)
    # relative to the term moduli |w|^s + u A(|w|), as A has nonnegative coefficients
    if np.min(np.abs(kw)) < 1e-12 * (a**dist.s + u * pgf_eval(dist, a)):
        raise ValueError("kernel modulus below 1e-12 of its scale on the contour |w| = a")
    w = circle(a, nodes)
    rhs = complex(np.mean(clog((z - w) / (1.0 - w)) * wslope / kw))
    return lhs.real, rhs.real
