"""Circle-contour quadrature: Pollaczek integral and Cauchy coefficients.

All integrals run over circles on a uniform angular grid.  The trapezoidal
rule there is the FFT: entry n of fft(f) / N on the N nodes of |w| = r is
r^n times the n-th Laurent coefficient of f plus its aliases at n +- N.
For a polynomial of degree below N there are no aliases, and the rule is
Cauchy's formula exactly on every circle around 0, so the coefficient
identity takes one transform on |w| = 1, of a length fixed by the degree.
The outer radius b serves the Pollaczek route alone.  Its log kernel is no
polynomial: its plus part doubles N until successive spectra agree, and it
is the one adaptive loop here.

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
OUTER_RADIUS_GRID = 400    # radii scanned by choose_outer_radius
MARGIN_SLACK = 1e-3


class QuadratureError(RuntimeError):
    """Quadrature failed to converge or a branch-safety check tripped."""


class RadiusSearchError(RuntimeError):
    """No admissible outer contour radius was found."""


@dataclass(frozen=True)
class CircleQuadrature:
    """Doubling settings of the Pollaczek plus-part FFT on |w| = b."""

    nodes: int = 256
    max_doublings: int = 12
    tol: float = 1e-12

    def __post_init__(self):
        if self.nodes < 16 or self.nodes & (self.nodes - 1):
            raise ValueError("nodes must be a power of two >= 16")
        if not 0 < self.tol < math.inf:
            raise ValueError("tol must be a positive finite number")
        if self.max_doublings < 1:
            raise ValueError("max_doublings must be >= 1")


@dataclass(frozen=True)
class RadiusCertificate:
    """Outer radius b > 1 with a certified bound on |v A(w) / w^s|."""

    b: float
    v: float
    margin: float

    def __post_init__(self):
        if not self.b > 1.0:
            raise ValueError("b must exceed 1")
        if not 0.0 < self.v < 1.0:
            raise ValueError("v must lie in (0, 1)")
        if not self.margin <= 1.0 - MARGIN_SLACK:
            raise ValueError(f"margin {self.margin!r} too close to 1")


def _log_ratio(dist: IncrementDistribution, b: np.ndarray) -> np.ndarray:
    """log(A(b) / b^s) at each b of a 1-D array: a log-sum-exp of the finite
    log p_j + (j - s) log b, in blocks of at most 2^20 terms, so nothing
    overflows and a long law needs little memory."""
    j = np.flatnonzero(dist.pmf_a)
    out = []
    for log_b in np.array_split(np.log(b), max(1, (b.size * j.size) >> 20)):
        terms = np.log(dist.pmf_a[j]) + np.multiply.outer(log_b, j - dist.s)
        top = terms.max(axis=-1)
        out.append(top + np.log(np.exp(terms - top[:, None]).sum(axis=-1)))
    return np.concatenate(out)


def choose_outer_radius(dist: IncrementDistribution, v: float) -> RadiusCertificate:
    """Outer radius b in (1, OUTER_RADIUS_CAP] with margin v A(b) / b^s <= 1 - MARGIN_SLACK.

    A has nonnegative coefficients, so v A(b) / b^s, read in logs by
    _log_ratio, bounds |u A(w) / w^s| on |w| = b for |u| <= v.  A geometric
    grid from 1.05 to the cap gives the b of the smallest margin; it starts
    a margin above 1, as nearer 1 the circle nears the kernel zeros close
    to the unit circle and the plus-part FFT needs more nodes.  Where no
    grid radius is admissible, which needs J > s, b0 = ((1 - MARGIN_SLACK)
    / v)^(1 / (2 (J - s))) is: A(b) / b^s <= b^(J - s) for b >= 1, so its
    margin is at most sqrt(v (1 - MARGIN_SLACK)) < 1 - MARGIN_SLACK for
    v < 1 - MARGIN_SLACK.  A larger v, or a b0 above the cap, raises
    RadiusSearchError.
    """
    if not 0.0 < v < 1.0:
        raise ValueError("v must lie in (0, 1)")
    grid = np.geomspace(1.05, OUTER_RADIUS_CAP, OUTER_RADIUS_GRID)
    logs = math.log(v) + _log_ratio(dist, grid)
    best = int(np.argmin(logs))
    b, log_margin = float(grid[best]), float(logs[best])
    if log_margin > math.log1p(-MARGIN_SLACK) and dist.j_max > dist.s:
        b = ((1.0 - MARGIN_SLACK) / v) ** (0.5 / (dist.j_max - dist.s))
        log_margin = math.log(v) + float(_log_ratio(dist, np.array([b]))[0])
    if not (1.0 < b <= OUTER_RADIUS_CAP and log_margin <= math.log1p(-MARGIN_SLACK)):
        raise RadiusSearchError(
            f"no admissible radius for v = {v}; best grid log ratio "
            f"{float(logs[best])!r} at b = {float(grid[best])!r}"
        )
    return RadiusCertificate(b=b, v=v, margin=math.exp(log_margin))


def _kernel_ratio(dist: IncrementDistribution, b: float, nodes: int, k: np.ndarray) -> np.ndarray:
    """A(w) / w^s at the nodes w = b t_k of circle(b, nodes), k an index array.

    One scaled sum, never A(w) and w^s apart (b^s overflows at b = 8,
    s = 450): A(w) / w^s = t^-s sum_j q_j t^j with q_j = p_j b^(j - s)
    from log p_j + (j - s) log b, as in _log_ratio, and sum_j q_j =
    A(b) / b^s is finite wherever an admissible radius is.  The sum is
    Horner's rule at t_k = circle(1, nodes)[k], and t_k^-s is the node
    -s k mod nodes, so an even node of 2N is the same number as its node
    of N, to the bit.
    """
    j = np.flatnonzero(dist.pmf_a)
    q = np.zeros(len(dist.pmf_a))
    q[j] = np.exp(np.log(dist.pmf_a[j]) + (j - dist.s) * math.log(b))
    unit = circle(1.0, nodes)
    return np.polyval(q[::-1], unit[k]) * unit[-dist.s * k % nodes]


def _plus_part(dist, u: np.ndarray, cert, quad, rho: float) -> np.ndarray:
    """Scaled plus-part coefficients a_k = c_k b^k, k < nodes / 2, a_0 = 0.

    Row i is for u[i], a 1-D array.  The first half of the spectrum
    fft(L) / nodes of L(w) = ln(1 - u A(w)/w^s) on the nodes of |w| = b
    holds the nonnegative Laurent indices, each times b^k.  The node count
    doubles from quad.nodes, and row i keeps the first spectrum at which
    sum_k |Delta a_k| (b^-k + (rho/b)^k) < quad.tol, which bounds the
    change of E(z) = sum_k c_k (1 - z^k) at every |z| <= rho; rows that
    converged at fewer nodes than the widest are padded with zeros.
    _kernel_ratio's even nodes of 2N are its nodes of N to the bit, so a
    doubling samples only the N new odd nodes of the live rows and
    interleaves them with the samples it holds: a row that stops at N
    nodes has been sampled at N nodes, and A(w)/w^s serves every live row
    at each count.
    """
    b = cert.b

    def log_kernel(nodes, k, live):
        log_arg = 1.0 - u[live, None] * _kernel_ratio(dist, b, nodes, k)
        if np.any(log_arg.real <= 0.0):
            raise QuadratureError(
                "principal branch unsafe: Re(1 - u A(w)/w^s) <= 0 on the contour"
            )
        return clog(log_arg)

    def plus(samples):
        nodes = samples.shape[-1]
        a = (np.fft.fft(samples) / nodes)[:, : nodes // 2]
        a[:, 0] = 0.0
        return a

    nodes = quad.nodes
    live = np.arange(len(u))
    rows = [None] * len(u)
    samples = log_kernel(nodes, np.arange(nodes), live)
    prev = plus(samples)
    for _ in range(quad.max_doublings):
        nodes *= 2
        odd = log_kernel(nodes, np.arange(1, nodes, 2), live)
        both = np.empty((len(live), nodes), dtype=complex)
        both[:, ::2], both[:, 1::2] = samples, odd
        samples = both
        cur = plus(samples)
        diff = cur.copy()
        diff[:, : prev.shape[-1]] -= prev
        k = np.arange(nodes // 2)
        last = np.sum(np.abs(diff) * (b ** -k + (rho / b) ** k), axis=-1)
        done = last < quad.tol
        for i, row in zip(live[done].tolist(), cur[done]):
            rows[i] = row
        live, samples, prev, last = live[~done], samples[~done], cur[~done], last[~done]
        if live.size == 0:
            a = np.zeros((len(u), max(len(row) for row in rows)), dtype=complex)
            for padded, row in zip(a, rows):
                padded[: len(row)] = row
            return a
    raise QuadratureError(
        f"no convergence after {quad.max_doublings} doublings "
        f"(last gap {float(last[0])!r} at {nodes} nodes, tol {quad.tol!r})"
    )


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
    """
    _check_u(u, cert)
    z_arr = np.atleast_1d(np.asarray(z, dtype=complex))
    if not np.all(np.abs(z_arr) <= cert.b - 1e-6):
        raise ValueError(f"|z| must be <= b - 1e-6 with b = {cert.b}")
    rho = max(1.0, float(np.max(np.abs(z_arr))))
    a = _plus_part(dist, np.array([u]), cert, quad, rho)[0]
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
    a = _plus_part(dist, u_arr.reshape(-1), cert, quad, rho=1.0)
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
