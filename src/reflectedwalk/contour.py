"""Circle-contour quadrature: Pollaczek integral and Cauchy coefficients.

All integrals run over circles on a uniform angular grid.  The trapezoidal
rule there is the FFT, and it converges geometrically for integrands
analytic in an annulus around the contour.  One helper, ``_circle_fft``,
turns circle samples into coefficients: it doubles the node count until
two successive spectra agree to tolerance, by a gap each caller defines.
It transforms a batch of functions at once, one row each, and each row
stops doubling at its own first converged node count.

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

from ._complex import cexp, circle, clog
from .dist import IncrementDistribution, pgf_eval, walk_pmfs

OUTER_RADIUS_CAP = 8.0
OUTER_RADIUS_GRID = 400    # radii scanned by choose_outer_radius
MARGIN_SLACK = 1e-3


class QuadratureError(RuntimeError):
    """Quadrature failed to converge or a branch-safety check tripped."""


class RadiusSearchError(RuntimeError):
    """No admissible outer contour radius was found."""


@dataclass(frozen=True)
class CircleQuadrature:
    """FFT-with-doubling settings for one circular contour."""

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


def choose_outer_radius(dist: IncrementDistribution, v: float) -> RadiusCertificate:
    """Outer radius b in (1, min(R, cap)) with margin v A(b) / b^s <= 1 - MARGIN_SLACK.

    A has nonnegative coefficients, so max_{|w|=b} |A(w)| = A(b) and the
    ratio v A(b) / b^s is a rigorous bound on |u A(w) / w^s| for |u| <= v.
    A geometric grid of radii, starting a step above 1, gives the b of the
    smallest margin.  Where no grid radius is admissible, which needs
    J > s, b0 = ((1 - MARGIN_SLACK) / v)^(1 / (2 (J - s))) is: A(b) / b^s
    <= b^(J - s) for b >= 1, so its margin is at most sqrt(v (1 -
    MARGIN_SLACK)) < 1 - MARGIN_SLACK whenever v < 1 - MARGIN_SLACK.  Only
    a larger v, or a b0 above the search's upper end, raises
    RadiusSearchError.
    """
    if not 0.0 < v < 1.0:
        raise ValueError("v must lie in (0, 1)")
    hi = min(dist.analyticity_radius_hint * (1.0 - 1e-6), OUTER_RADIUS_CAP)
    if hi <= 1.0:
        raise RadiusSearchError("no room above 1 below the analyticity radius")
    # start a margin above 1: as b -> 1 the circle nears the kernel zeros
    # close to the unit circle, L(w) varies faster on it and the plus-part
    # FFT needs more nodes
    lo = 1.0 + 0.05 * min(1.0, hi - 1.0)
    grid = np.geomspace(lo, hi, OUTER_RADIUS_GRID)
    ratios = v * pgf_eval(dist, grid).real / grid**dist.s
    best = int(np.argmin(ratios))
    b, margin = float(grid[best]), float(ratios[best])
    if margin > 1.0 - MARGIN_SLACK and dist.j_max > dist.s:
        b = ((1.0 - MARGIN_SLACK) / v) ** (0.5 / (dist.j_max - dist.s))
        margin = float(v * pgf_eval(dist, b) / b**dist.s)
    if not (1.0 < b <= hi and margin <= 1.0 - MARGIN_SLACK):
        raise RadiusSearchError(
            f"no admissible radius for v = {v}; best grid ratio "
            f"{float(ratios[best])!r} at b = {float(grid[best])!r}"
        )
    return RadiusCertificate(b=b, v=v, margin=margin)


def _circle_fft(f, r: float, quad: CircleQuadrature, gap, rows: int = 1) -> list:
    """Spectra fft(f(w)) / nodes of `rows` functions on w_j = r exp(2 pi i j / nodes).

    f(w, live) samples the rows `live` (an index array) at the nodes w, as
    a (len(live), nodes) array.  Entry n of a spectrum is the trapezoid
    value of (1/2 pi i) oint f(w) (r/w)^n dw/w, that is r^n times the n-th
    Laurent coefficient of f plus its aliases at n +- nodes.  The node
    count doubles from quad.nodes; gap(cur, prev, live) compares two
    successive spectra of the live rows and returns one gap per row.  Each
    row keeps its spectrum from the first doubling at which its own gap <
    quad.tol and is not sampled again.  circle(r, 2N)[::2] is circle(r, N) to the
    bit, so a doubling samples only the N new odd nodes and interleaves
    them with the samples it holds: a row that stops at N nodes has been
    sampled at N nodes.  Returns the spectra, one 1-D array per row.
    """
    nodes = quad.nodes
    live = np.arange(rows)
    spectra = [None] * rows
    samples = f(circle(r, nodes), live)
    prev = np.fft.fft(samples) / nodes
    for _ in range(quad.max_doublings):
        nodes *= 2
        odd = f(circle(r, nodes)[1::2], live)
        both = np.empty((len(live), nodes), dtype=np.result_type(samples, odd))
        both[:, ::2], both[:, 1::2] = samples, odd
        samples = both
        cur = np.fft.fft(samples) / nodes
        last = gap(cur, prev, live)
        done = last < quad.tol
        for k, spectrum in zip(live[done].tolist(), cur[done]):
            spectra[k] = spectrum
        live, samples, prev, last = live[~done], samples[~done], cur[~done], last[~done]
        if live.size == 0:
            return spectra
    raise QuadratureError(
        f"no convergence after {quad.max_doublings} doublings "
        f"(last gap {float(last[0])!r} at {nodes} nodes, tol {quad.tol!r})"
    )


def _cauchy_rows(f, n: np.ndarray, r: float, quad: CircleQuadrature) -> np.ndarray:
    """Coefficient n[i, j] of row i of f on |w| = r, every row from one transform.

    f(w, live) samples the rows `live` as _circle_fft's f does; n is a 2-D
    int array, one row of indices per row of f.  Row i doubles its node
    count until none of its n[i] moves by quad.tol, so it reads the same
    bits as a transform of row i alone.  Returns a complex array shaped
    like n.
    """
    scale = float(r) ** -n

    def read(spectra, rows):
        at = n[rows] % spectra.shape[-1]
        return np.take_along_axis(spectra, at, axis=-1) * scale[rows]

    def gap(cur, prev, live):
        return np.max(np.abs(read(cur, live) - read(prev, live)), axis=-1)

    spectra = _circle_fft(f, r, quad, gap, rows=len(n))
    return np.concatenate([read(x[None], [i]) for i, x in enumerate(spectra)])


def _plus_part(dist, u: np.ndarray, cert, quad, rho: float) -> np.ndarray:
    """Scaled plus-part coefficients a_k = c_k b^k, k < nodes / 2, a_0 = 0.

    Row i is for u[i], a 1-D array; rows that converged at fewer nodes
    than the widest are padded with zeros.  The first half of the
    spectrum of L(w) = ln(1 - u A(w)/w^s) on |w| = b holds the nonnegative
    Laurent indices.  A row's node count doubles until sum_k |Delta a_k|
    (b^-k + (rho/b)^k) < tol, which bounds the change of E(z) = sum_k c_k
    (1 - z^k) at every |z| <= rho.
    """
    b = cert.b

    def log_kernel(w, live):
        # A(w) and w^s serve every u at this node count
        log_arg = 1.0 - u[live, None] * pgf_eval(dist, w) / w**dist.s
        if np.any(log_arg.real <= 0.0):
            raise QuadratureError(
                "principal branch unsafe: Re(1 - u A(w)/w^s) <= 0 on the contour"
            )
        return clog(log_arg)

    def plus(spectrum):
        a = spectrum[..., : spectrum.shape[-1] // 2].copy()
        a[..., 0] = 0.0
        return a

    def gap(cur, prev, live):
        diff = plus(cur)
        diff[:, : prev.shape[-1] // 2] -= plus(prev)
        k = np.arange(diff.shape[-1])
        return np.sum(np.abs(diff) * (b ** -k + (rho / b) ** k), axis=-1)

    spectra = _circle_fft(log_kernel, b, quad, gap, rows=len(u))
    a = np.zeros((len(u), max(len(x) for x in spectra) // 2), dtype=complex)
    for row, spectrum in zip(a, spectra):
        row[: len(spectrum) // 2] = plus(spectrum)
    return a


def _check_u(u, cert: RadiusCertificate):
    top = float(np.max(np.abs(u)))
    if top > cert.v * (1.0 + 1e-12):
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
    if np.any(np.abs(z_arr) > cert.b - 1e-6):
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
    E(w_j) = sum_k c_k - sum_r C_r w_j^r with C_r = sum_{k = r mod nz} c_k,
    so folding the c_k and one inverse FFT give every node at once; E(1) is
    set to its exact value 0.
    """
    _check_u(u, cert)
    u_arr = np.asarray(u)
    a = _plus_part(dist, u_arr.reshape(-1), cert, quad, rho=1.0)
    c = a * cert.b ** -np.arange(a.shape[-1])
    folded = np.pad(c, ((0, 0), (0, -c.shape[-1] % nz)))
    folded = folded.reshape(len(c), -1, nz).sum(axis=1)
    exponent = c.sum(axis=-1, keepdims=True) - nz * np.fft.ifft(folded)
    exponent[:, 0] = 0.0
    # a scalar u divides in its own arithmetic, as in pollaczek_eval, so
    # F(u, 1) is 1 / (1 - u) to the bit
    values = cexp(exponent).reshape(u_arr.shape + (nz,))
    return values * np.expand_dims(1.0 / (1.0 - u), -1)


def verify_coeff_identity(
    dist: IncrementDistribution,
    l,
    k,
    cert: RadiusCertificate,
    quad: CircleQuadrature,
):
    """Cauchy extraction of [w^{k+sl}] A(w)^l against the exact pmf of S_l.

    l and k are ints or 1-D int arrays.  The whole (l, k) grid is read from
    one batched transform on |w| = b, one row A(w)^l per l, each row
    doubling until its own k + s l stop moving, so every row reads the same
    bits as a transform of its l alone.  The pmfs of S_1 .. S_max(l) come
    from one pass of walk_pmfs.  Returns (integral, pmf) for the caller to
    compare, each shaped l.shape + k.shape: two floats for scalar l and k.
    """
    l_arr, k_arr = np.asarray(l), np.asarray(k)
    ls = l_arr.reshape(-1)
    if np.any(ls < 1) or np.any(k_arr < 1):
        raise ValueError("l and k must be >= 1")
    idx = k_arr.reshape(1, -1) + dist.s * ls[:, None]
    integral = _cauchy_rows(
        lambda w, live: pgf_eval(dist, w) ** ls[live, None], idx, cert.b, quad
    ).real
    # P(S_l = k) = 0 above the support: clamp those k to an appended zero
    laws = {}
    for j, probs in enumerate(walk_pmfs(dist, int(ls.max())), start=1):
        if j in ls:
            laws[j] = np.append(probs, 0.0)
    pmf = np.array([laws[j][np.minimum(at, len(laws[j]) - 1)]
                    for j, at in zip(ls.tolist(), idx)])
    shape = l_arr.shape + k_arr.shape
    if not shape:
        return float(integral[0, 0]), float(pmf[0, 0])
    return integral.reshape(shape), pmf.reshape(shape)
