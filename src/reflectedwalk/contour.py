"""Circle-contour quadrature: Pollaczek integral and Cauchy coefficients.

All integrals run over circles on a uniform angular grid.  The trapezoidal
rule there is the FFT: entry n of fft(f) / N on the N nodes of |w| = r is
r^n times the n-th Laurent coefficient of f plus its aliases at n +- N.
For a polynomial of degree below N there are no aliases, and the rule is
Cauchy's formula exactly on every circle around 0, so the coefficient
identity takes one transform on |w| = 1, of a length fixed by the degree.
The outer radius b serves the Pollaczek route alone: its log kernel is no
polynomial, but analytic on 1 <= |w| <= t_hi, which A and s fix; the
trapezoid rule's error bound there sets N (plus_part_nodes) for one transform.

The Pollaczek exponent is the Wiener-Hopf plus part of
L(w) = ln(1 - u A(w)/w^s) on |w| = b: with L = sum_k c_k w^k there,

    E(z) = (1/2 pi i) oint (1-z)/((w-1)(w-z)) L(w) dw = sum_{k>=1} c_k (1 - z^k),

because (1-z)/((w-1)(w-z)) = 1/(w-1) - 1/(w-z) and, for |z| < b,
(1/2 pi i) oint L(w)/(w-z) dw = sum_{k>=0} c_k z^k.  One FFT of L gives
every c_k at once, and one FFT along the node axis does so for every u
of an array.

That costs one complex log per (u, node) pair and one complex exp per
(u, z) output.  Both come from ``_complex``'s clog and cexp, built on
numpy's vectorized real ufuncs instead of libm's scalar clog and cexp:
the same principal branch, a few eps apart, and cexp(0) = 1 exactly, so
F(u, 1) = 1/(1 - u) still holds to the bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._complex import cexp, circle, circle_polyval, clog, next_pow2
from .dist import IncrementDistribution, walk_pmfs

OUTER_RADIUS_CAP = 8.0
EDGE_POINTS = 32           # radii per round of the annulus edge search
NODE_CAP = 1 << 20         # most nodes the plus part may take


class QuadratureError(RuntimeError):
    """The plus part needs more than NODE_CAP nodes, or a branch-safety check tripped."""


@dataclass(frozen=True)
class CircleQuadrature:
    """Accuracy demand of the Pollaczek plus part: the bound on |Delta E| (plus_part_nodes)."""

    tol: float = 1e-12

    def __post_init__(self):
        if not 0 < self.tol < math.inf:
            raise ValueError("tol must be a positive finite number")


@dataclass(frozen=True)
class RadiusCertificate:
    """Outer radius b = sqrt(t_hi), t_hi the outer edge of the annulus
    1 <= |w| <= t_hi on which |u A(w) / w^s| <= q = (1 + v) / 2 for every |u| <= v."""

    b: float
    v: float
    t_hi: float

    def __post_init__(self):
        if not 0.0 < self.v < 1.0:
            raise ValueError("v must lie in (0, 1)")
        if not 1.0 < self.b < self.t_hi:
            raise ValueError(f"need 1 < b < t_hi, got {(self.b, self.t_hi)}")


def _log_ratio(dist: IncrementDistribution, x: np.ndarray) -> np.ndarray:
    """f(x) = log(A(t) / t^s) at t = e^x, x a 1-D array: a log-sum-exp of
    the finite log p_j + (j - s) x, so convex in x, in blocks of at most
    2^20 terms, so nothing overflows and a long law needs little memory."""
    j = np.flatnonzero(dist.pmf_a)
    log_p, rows = np.log(dist.pmf_a[j]), max(1, (1 << 20) // j.size)
    out = np.empty(x.size)
    for lo in range(0, x.size, rows):
        terms = log_p + np.multiply.outer(x[lo : lo + rows], j - dist.s)
        top = terms.max(axis=-1)
        out[lo : lo + rows] = top + np.log(np.exp(terms - top[:, None]).sum(axis=-1))
    return out


def choose_outer_radius(dist: IncrementDistribution, v: float) -> RadiusCertificate:
    """Outer radius b = sqrt(t_hi), t_hi > 1 the outer edge of v A(t) / t^s <= q = (1 + v) / 2.

    A has nonnegative coefficients, so v A(t) / t^s bounds |u A(w) / w^s|
    on |w| = t for |u| <= v.  In log t the ratio is v e^f, f the convex
    _log_ratio with f = log A(1) = 0 at t = 1, so the radii where it is at
    most q form one interval around 1, whose part 1 <= t <= t_hi alone
    plus_part_nodes reads.  t_hi is searched in x = log2 t within 0 <= x <=
    2 log2(CAP), CAP = OUTER_RADIUS_CAP, so b <= CAP, in two rounds of one
    _log_ratio call: the dyadic grid x = 2 log2(CAP) 2^-k, k < EDGE_POINTS,
    then EDGE_POINTS even steps inside the bracket that leaves.  t_hi is the
    outermost radius that passed, short of the true edge by at most a 32nd
    of its x (an edge too near 1 for both grids leaves t_hi = 1, which the
    certificate rejects).
    """
    if not 0.0 < v < 1.0:
        raise ValueError("v must lie in (0, 1)")
    limit = math.log(0.5 * (1.0 + v) / v)
    inside, outside = 0.0, 2.0 * math.log2(OUTER_RADIUS_CAP)
    frac = 0.5 ** np.arange(EDGE_POINTS)
    for _ in range(2):
        # outermost first; by convexity the innermost ones pass
        x = inside + (outside - inside) * frac
        fits = _log_ratio(dist, math.log(2.0) * x) <= limit
        k = int(fits.argmax()) if fits.any() else EDGE_POINTS
        inside, outside = np.append(x, inside)[[k, max(k - 1, 0)]]
        frac = 1.0 - np.arange(EDGE_POINTS) / EDGE_POINTS
    t_hi = float(np.exp2(inside))
    return RadiusCertificate(b=math.sqrt(t_hi), v=v, t_hi=t_hi)


def plus_part_nodes(cert: RadiusCertificate, quad: CircleQuadrature) -> tuple:
    """Node count N of the plus part on |w| = b and its bound on |Delta E(z)|, |z| <= b.

    On the certificate's annulus 1 <= |w| <= t_hi, L(w) = ln(1 - u A(w)/w^s)
    is analytic with |L| <= M = -ln(1 - q) = ln(2 / (1 - v)), as
    |ln(1 - x)| <= -ln(1 - |x|).  Cauchy's estimate bounds its Laurent
    coefficients c_k there: on |w| = t_hi, |c_k| <= M t_hi^-k for k > 0;
    on |w| = 1, |c_k| <= M for k < 0.  Scaled to |w| = b, a_k = c_k b^k,
    both read |a_k| <= M rho^|k|, rho = b / t_hi, as b^2 = t_hi.  N nodes
    give a_k, 0 < k < N/2, plus its aliases a_(k + jN), j != 0, and drop
    every k >= N/2.  E(z) = sum_k a_k (b^-k - (z/b)^k), whose weights are
    at most 2 for |z| <= b, is then off by at most 2 M rho^(N/2) / (1 - rho)
    (the dropped tail) plus 4 M rho^(N/2 + 1) / ((1 - rho)(1 - rho^N))
    (the aliases), so by at most

        bound(N) = 6 M rho^(N/2) / ((1 - rho) (1 - rho^N))

    (Trefethen & Weideman, SIAM Review 56, 2014), and F = exp(E) / (1 - u)
    by a relative e^bound - 1; roundoff comes on top.  N is the smallest
    power of two >= 16 with bound(N) <= quad.tol.  An N above NODE_CAP
    raises QuadratureError.
    """
    big_m = math.log(2.0 / (1.0 - cert.v))
    rho = cert.b / cert.t_hi
    nodes = 16
    while nodes <= NODE_CAP:
        bound = 6.0 * big_m * rho ** (nodes // 2) / ((1.0 - rho) * (1.0 - rho**nodes))
        if bound <= quad.tol:
            return nodes, bound
        nodes *= 2
    raise QuadratureError(f"the plus part on |w| = {cert.b!r} needs more than "
                          f"{NODE_CAP} nodes for tol {quad.tol!r}")


def _kernel_ratio(dist: IncrementDistribution, b: float, nodes: int) -> np.ndarray:
    """A(w) / w^s at the nodes w = b t_k of circle(b, nodes).

    One scaled sum, never A(w) and w^s apart (b^s overflows at b = 8,
    s = 450): A(w) / w^s = t^-s sum_j q_j t^j with q_j = p_j b^(j - s)
    from log p_j + (j - s) log b, as in _log_ratio, and sum_j q_j =
    A(b) / b^s is finite wherever the radius is certified.  The sum is one
    circle_polyval, and t_k^-s is the node -s k mod nodes.
    """
    j = np.flatnonzero(dist.pmf_a)
    q = np.zeros(len(dist.pmf_a))
    q[j] = np.exp(np.log(dist.pmf_a[j]) + (j - dist.s) * math.log(b))
    unit = circle(1.0, nodes)
    return circle_polyval(q, nodes) * unit[-dist.s * np.arange(nodes) % nodes]


def _plus_part(dist, u: np.ndarray, cert, quad) -> np.ndarray:
    """Scaled plus-part coefficients a_k = c_k b^k, k < N / 2, a_0 = 0.

    Row i is for u[i], a 1-D array: the first half of fft(L) / N of
    L(w) = ln(1 - u A(w)/w^s) on the N nodes of |w| = b, with one
    A(w)/w^s for all rows.  plus_part_nodes' N serves every |u| <= v.
    """
    nodes = plus_part_nodes(cert, quad)[0]
    log_arg = 1.0 - u[:, None] * _kernel_ratio(dist, cert.b, nodes)
    if np.any(log_arg.real <= 0.0):
        raise QuadratureError(
            "principal branch unsafe: Re(1 - u A(w)/w^s) <= 0 on the contour"
        )
    a = (np.fft.fft(clog(log_arg)) / nodes)[:, : nodes // 2]
    a[:, 0] = 0.0
    return a


def _check_u(u, cert: RadiusCertificate):
    top = float(np.max(np.abs(u)))
    if not top <= cert.v * (1.0 + 1e-12):
        raise ValueError(f"|u| = {top} exceeds the certificate cap v = {cert.v}")


def pollaczek_eval(
    dist: IncrementDistribution,
    u: complex,
    z,
    cert: RadiusCertificate,
    quad: CircleQuadrature,
):
    """F(u, z) = exp(E(z)) / (1 - u) by the Pollaczek integral; z scalar or array.

    E(z) = sum_{k>=1} c_k (1 - z^k), the c_k being the Laurent coefficients
    of L(w) = ln(1 - u A(w)/w^s) on |w| = b (module docstring).
    E(1) = 0 term by term, so F(u, 1) = 1/(1 - u) exactly and the w = 1 pole
    never enters.  The sum runs as sum_k a_k (b^-k - (z/b)^k), a_k = c_k b^k,
    with powers by cumulative products, so no power of |z| > 1 overflows.
    plus_part_nodes' bound on E covers every |z| <= b, so every z here.
    """
    _check_u(u, cert)
    z_arr = np.atleast_1d(np.asarray(z, dtype=complex))
    if not np.all(np.abs(z_arr) <= cert.b - 1e-6):
        raise ValueError(f"|z| must be <= b - 1e-6 with b = {cert.b}")
    a = _plus_part(dist, np.array([u]), cert, quad)[0]
    k_max = len(a) - 1
    inv_b = np.cumprod(np.full(k_max, 1.0 / cert.b))
    ratios = np.broadcast_to((z_arr / cert.b)[:, None], (z_arr.size, k_max))
    zs_b = np.cumprod(ratios, axis=1)
    exponent = (inv_b - zs_b) @ a[1:]
    values = cexp(exponent) * (1.0 / (1.0 - u))
    return values if np.ndim(z) else complex(values[0])


def pollaczek_unit_grid(
    dist: IncrementDistribution,
    u,
    nz: int,
    cert: RadiusCertificate,
    quad: CircleQuadrature,
) -> np.ndarray:
    """F(u, w_j) at the nz-th roots of unity w_j = exp(2 pi i j / nz).

    u is a scalar or an ndarray; the result has shape u.shape + (nz,).
    E(w_j) = sum_k c_k - sum_k c_k w_j^k, one circle_polyval for every node
    at once; E(1) is set to its exact value 0.
    """
    _check_u(u, cert)
    u_arr = np.asarray(u)
    a = _plus_part(dist, u_arr.reshape(-1), cert, quad)
    c = a * cert.b ** -np.arange(a.shape[-1])
    exponent = c.sum(axis=-1, keepdims=True) - circle_polyval(c, nz)
    exponent[:, 0] = 0.0
    # a scalar u divides in its own arithmetic, as in pollaczek_eval, so
    # F(u, 1) is 1 / (1 - u) to the bit
    values = cexp(exponent).reshape(u_arr.shape + (nz,))
    return values * np.expand_dims(1.0 / (1.0 - u), -1)


def verify_coeff_identity(dist: IncrementDistribution, l, k):
    """Cauchy extraction of [w^{k+sl}] A(w)^l against the exact pmf of S_l.

    l and k are ints or 1-D int arrays.  A(w)^l is a polynomial of degree
    l J, so the trapezoid rule on N > max(l J, k + s l) nodes of any circle
    around 0 is Cauchy's formula exactly, without aliases.  The circle is
    |w| = 1, where |A(w)| <= 1, so no power overflows: the whole (l, k)
    grid is one FFT of N nodes, one row A(w)^l per l, with A(w) from one
    circle_polyval of the pmf.  The pmfs of S_1 .. S_max(l) come from one
    pass of walk_pmfs, whose SUPPORT_CAP guard runs before the transform is
    allocated.  Returns (integral, pmf) for the caller to compare, each
    shaped l.shape + k.shape: two floats for scalar l and k.
    """
    l_arr, k_arr = np.asarray(l), np.asarray(k)
    ls = l_arr.reshape(-1)
    if np.any(ls < 1) or np.any(k_arr < 1):
        raise ValueError("l and k must be >= 1")
    l_max = int(ls.max())
    idx = k_arr.reshape(1, -1) + dist.s * ls[:, None]
    # P(S_l = k) = 0 above the support: clamp those k to an appended zero
    laws = {j: np.append(probs, 0.0)
            for j, probs in enumerate(walk_pmfs(dist, l_max), start=1) if j in ls}
    pmf = np.array([laws[j][np.minimum(at, len(laws[j]) - 1)]
                    for j, at in zip(ls.tolist(), idx)])
    nodes = next_pow2(max(l_max * dist.j_max, int(idx.max())) + 1)
    spectra = np.fft.fft(circle_polyval(dist.pmf_a, nodes) ** ls[:, None]) / nodes
    integral = np.take_along_axis(spectra, idx, axis=-1).real
    shape = l_arr.shape + k_arr.shape
    if not shape:
        return float(integral[0, 0]), float(pmf[0, 0])
    return integral.reshape(shape), pmf.reshape(shape)
