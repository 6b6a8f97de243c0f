"""Roots of the kernel w^s - u A(w) inside the unit disk.

For |u| < 1 the kernel has exactly s zeros in |z| < 1 (Rouche count), and
the reflected-walk transform factors over them:

    F(u, z) = (1 / (z^s - u A(z))) * prod_k (z - z_k(u)) / (1 - z_k(u)).

There are two entry points.

find_kernel_roots, for a scalar u or an array of them, solves globally via companion-matrix eigenvalues: the
companion matrices of every u are stacked and solved by one eigenvalue
call.  Only the eigenvalues with |z| < 1 + POLISH_BAND are polished, all
(u, root) pairs together, by Newton steps that each root accepts only
while they reduce its residual.  The candidates farther out cannot be
in-disk roots: they feed only the in-disk count, which must equal s at
every u, and are never returned, so their residuals need not be small.  A
root that the count misses still raises KernelRootError, and every
returned root still meets RESIDUAL_TOL.

track_kernel_roots, for an array of u, makes that companion solve at u[0]
only.  The roots z_k(u) are analytic in u, so it seeds every other node
with z_k(u_0) (u/u_0)^(1/s) and runs Newton on all (u, root) pairs at
once, each to roundoff.  A node keeps its Newton roots only if every pair
reached that stop and a gate certifies them: all s inside the disk and
within RESIDUAL_TOL, pairwise farther apart than twice their largest
forward error, and sum_k delta_k 2 / (1 - |z_k|) <= ETA, where
delta_k = eps (|z_k|^s + |u| A(|z_k|)) / |k'(z_k)| is the root's
first-order forward error and the sum is the first-order relative error
of F on |z| = 1.  Distinct in-disk roots, s of them, are all of them by
Rouche.  Every other node takes one stacked find_kernel_roots call, and
so does every node when u[0]'s own roots fail the gate.

A small residual per root does not certify the product.  On poisson(45),
s = 50, every Newton root has backward error near eps, yet F from them is
off by ~1e-5: the roots are ill-conditioned, and only the companion
eigenvalues are backward stable as a set, the exact roots of one nearby
polynomial, so their errors cancel in F.  The delta sum reads 2e-5 there,
and the gate sends that law to the companion.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dist import IncrementDistribution, pgf_deriv_eval, pgf_eval

IN_DISK_TOL = 1e-12        # strict in-disk selection margin
RESIDUAL_TOL = 1e-10       # hard cap on accepted root residuals
POLISH_TARGET = 1e-12
POLISH_BAND = 1e-3         # polish eigenvalues with |z| < 1 + POLISH_BAND
NEWTON_STEPS = 50          # cap on the tracker's Newton steps per root
# relative accuracy assumed for one evaluation of F(u, z): the tracker's
# gate admits roots only this accurate, and the u inversion's error bound
# (cli.u_circle_bound) amplifies it
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


def _forward_errors(dist, u, z):
    """Residuals, forward errors and the F error bound of roots z (n, s) at u (n,).

    A root with backward error eps relative to the kernel's term scale
    |z|^s + |u| A(|z|) (A has nonnegative coefficients) moves by
    delta = eps scale / |k'(z)|.  A zero slope (a multiple root) gives inf,
    and so does a zero scale: a root at the origin when A(0) = 0 or u = 0,
    where delta would read 0 and a second Newton pair drawn to the same
    root, ending at 0 or underflowing next to it, would pass the separation
    test.  The bound is sum_k delta_k 2 / (1 - |z_k|) per row, inf for a
    root outside the disk: the first-order relative change of F on |z| = 1,
    as |z - z_k| and |1 - z_k| are >= 1 - |z_k| there.
    """
    uu = np.repeat(u, dist.s)
    k, slope, powers = _kernel_terms(dist, uu, z.reshape(-1))
    a_abs = np.abs(powers[:, : dist.j_max + 1]) @ dist.pmf_a  # A(|z|)
    scale = np.abs(powers[:, dist.s]) + np.abs(uu) * a_abs
    eps = np.finfo(float).eps
    delta = np.divide(eps * scale, np.abs(slope), out=np.full(scale.shape, np.inf),
                      where=(slope != 0) & (scale != 0)).reshape(z.shape)
    gap = 1.0 - np.abs(z)
    weighted = np.divide(2.0 * delta, gap, out=np.full(z.shape, np.inf), where=gap > 0)
    return np.abs(k).reshape(z.shape), delta, np.sum(weighted, axis=-1)


def _gate(dist, u, z):
    """Which rows of z (n, s) are certified as the s in-disk roots at u (n,).

    Returns the flags and the residuals |k(z)|.  A row passes if its roots
    are inside the disk, meet RESIDUAL_TOL, are pairwise farther apart than
    twice their largest forward error, and bound F's relative error by ETA
    (see _forward_errors).
    """
    residuals, delta, bound = _forward_errors(dist, u, z)
    spread = np.abs(z[:, :, None] - z[:, None, :])
    spread[:, np.arange(dist.s), np.arange(dist.s)] = np.inf
    ok = (
        np.all(np.abs(z) < 1.0 - IN_DISK_TOL, axis=-1)
        & np.all(residuals <= RESIDUAL_TOL, axis=-1)
        & (np.min(spread, axis=(1, 2)) > 2.0 * np.max(delta, axis=-1))
        & (bound <= ETA)
    )
    return ok, residuals


def _newton(dist, u, z):
    """Newton on 1-D arrays of (u, z) pairs, each to roundoff: |step| <= 4 eps |z|.

    Returns the roots and a flag per pair: it converged, or hit k(z) = 0,
    within NEWTON_STEPS steps.  A pair starts or stops unconverged outside
    |z| < 1 + POLISH_BAND, where no in-disk root lies and z^J may overflow,
    and stops at a step of length >= 2 (a zero slope included).
    """
    z = z.copy()
    done = np.zeros(z.shape, dtype=bool)
    live = np.flatnonzero(np.abs(z) < 1.0 + POLISH_BAND)
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
        live = live[~converged & (np.abs(z[live]) < 1.0 + POLISH_BAND)]
    return z, done


def track_kernel_roots(dist: IncrementDistribution, u) -> RootSet:
    """The s in-disk kernel roots at every u of an array, from one companion solve.

    Solves u[0] by find_kernel_roots, seeds every other node with
    z_k(u_0) (u/u_0)^(1/s), Newton-iterates all pairs to roundoff and keeps
    the rows that pass the gate (see the module docstring).  The rest, or
    every row when u[0]'s roots fail the gate, come from one
    stacked find_kernel_roots call and equal its rows to the bit.  Accepted
    rows are ordered as find_kernel_roots orders its rows.
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
    if len(rest) and _gate(dist, us[:1], first.roots[None])[0][0]:
        ratio = rest / us[0]
        turn = np.abs(ratio) ** (1.0 / s) * np.exp(1j * np.angle(ratio) / s)
        z, done = _newton(dist, np.repeat(rest, s), (turn[:, None] * first.roots).reshape(-1))
        z, done = z.reshape(len(rest), s), done.reshape(len(rest), s).all(axis=-1)
        z = np.take_along_axis(z, np.lexsort((z.imag, z.real), axis=-1), axis=-1)
        ok, res = _gate(dist, rest[done], z[done])
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
    lhs = complex(np.sum(np.log((z - roots.roots) / (1.0 - roots.roots))))
    w = a * np.exp(2j * np.pi * np.arange(nodes) / nodes)
    kw = kernel_eval(dist, u, w)
    # relative to the term moduli |w|^s + u A(|w|), as A has nonnegative coefficients
    if np.min(np.abs(kw)) < 1e-12 * (a**dist.s + u * pgf_eval(dist, a)):
        raise ValueError("kernel modulus below 1e-12 of its scale on the contour |w| = a")
    integrand = np.log((z - w) / (1.0 - w)) * kernel_deriv_eval(dist, u, w) / kw
    rhs = complex(np.mean(integrand * w))
    return lhs.real, rhs.real
