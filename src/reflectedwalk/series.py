"""Truncated power series in u with polynomial-in-z coefficients.

Implements the exponential-series route to the reflected-walk transform:
F(u, z) = exp(sum_{l>=1} (u^l / l) E(z^{S_l^+})), truncated at order N in u
and degree M in z.  Because the u^n coefficient of exp only involves orders
<= n and z-truncation of polynomial products is prefix-exact, the retained
coefficients are exact up to roundoff.

The exponential runs its recurrence in the frequency domain: every row is
transformed once by a real FFT at one length L, and each new row is one sum
of spectral products and one inverse transform (see ``series_exp``).  With
jumps bounded below, every coefficient is a polynomial: E z^{S_l^+} has
degree <= l (J - s), so row n of F has degree <= n (J - s).  The exponential
reads these degree bounds off its exponent, picks L as the smallest power
of two above the largest product degree (half of 2^bitlen(2M) once every
row is complete), and stores every cell above row n's bound as an exact
0.0 rather than FFT roundoff.

A z-polynomial is a 1-D coefficient array c_0..c_M; a series is one
(N+1, M+1) array whose row n holds the z-polynomial at u^n.
"""

from __future__ import annotations

import numpy as np

from .dist import positive_part_coeffs, walk_pmfs


def _check_series(f) -> np.ndarray:
    """f as a float array; it must be a nonempty 2-D (N+1, M+1) series."""
    f = np.asarray(f, dtype=float)
    if f.ndim != 2 or f.size == 0:
        raise ValueError("a series must be a nonempty 2-D array")
    return f


def _degree_bounds(g: np.ndarray) -> tuple:
    """Degree bounds of exp(g)'s rows, and of the products that make them.

    deg g_l is the last nonzero index of row l (-1 for a zero row).  With
    deg f_0 = 0, deg f_n is the largest deg g_l + deg f_{n-l} over the
    nonzero pairs l <= n, capped at M (-1 if there is none).  Returns the
    list of deg f_n and the largest uncut pair degree (0 if none).
    """
    m = g.shape[1] - 1
    nonzero = g != 0.0
    deg_g = np.where(nonzero.any(axis=1), m - np.argmax(nonzero[:, ::-1], axis=1), -1)
    deg_g = deg_g.tolist()
    deg_f = [0]
    top = 0
    for n in range(1, len(deg_g)):
        # deg_g[l] meets deg_f[n - l] for l = 1..n
        pairs = zip(deg_g[1 : n + 1], deg_f[::-1])
        pair = max([a + b for a, b in pairs if a >= 0 and b >= 0], default=-1)
        top = max(top, pair)
        deg_f.append(min(m, pair))
    return deg_f, top


def series_exp(g) -> np.ndarray:
    """exp of a series with zero constant term.

    Differential recurrence: n f_n = sum_{l=1..n} l g_l * f_{n-l}, f_0 = 1,
    each f_n truncated to degree M.  Every row l g_l, and every f_n once it
    is known, is transformed once by a real FFT at one power-of-two length
    L; the sum over l is then one pointwise multiply-add of spectra, and
    f_n is its inverse transform cut to deg f_n, divided by n.

    The degree bounds come from g itself (``_degree_bounds``).  A product
    g_l f_{n-l} has degree <= deg g_l + deg f_{n-l}, so every coefficient
    of f_n above deg f_n is zero in exact arithmetic, and the cut stores it
    as 0.0 instead of FFT roundoff.  L is the smallest power of two above
    the largest uncut product degree D, so each length-L circular product
    holds all D + 1 coefficients and does not wrap.  D <= 2M, so L never
    exceeds 2^bitlen(2M); when no row reaches the cut at M (for the Spitzer
    exponent, M >= N (J - s)), D <= M and L is at most half of that.
    Degrees <= M of a product depend only on degrees <= M of its factors,
    so truncating f_n before its transform leaves the retained coefficients
    equal to those of the untruncated series, up to FFT roundoff.
    """
    g = _check_series(g)
    n_cap = g.shape[0] - 1
    if np.any(g[0] != 0.0):
        raise ValueError("series_exp needs a zero constant term")
    deg_f, top = _degree_bounds(g)
    size = 1 << top.bit_length()
    # rfft crops rows to L; nothing above deg g_l, deg f_n <= top < L is lost
    spec_g = np.fft.rfft(np.arange(n_cap + 1)[:, None] * g, size)
    spec_f = np.empty_like(spec_g)
    spec_f[0] = 1.0
    fmat = np.zeros_like(g)
    fmat[0, 0] = 1.0
    for n in range(1, n_cap + 1):
        acc = np.einsum("lk,lk->k", spec_g[1 : n + 1], spec_f[n - 1 :: -1])
        cut = deg_f[n] + 1
        fmat[n, :cut] = np.fft.irfft(acc, size)[:cut] / n
        spec_f[n] = np.fft.rfft(fmat[n], size)
    return fmat


def series_log(f) -> np.ndarray:
    """log of a series with unit constant term; inverse of series_exp.

    n g_n = n f_n - sum_{l=1..n-1} l g_l * f_{n-l}, one direct truncated
    convolution per (n, l), so it checks ``series_exp`` independently of
    its transforms.
    """
    f = _check_series(f)
    m = f.shape[1] - 1
    if f[0, 0] != 1.0 or np.any(f[0, 1:] != 0.0):
        raise ValueError("series_log needs constant term 1")
    gmat = np.zeros_like(f)
    for n in range(1, f.shape[0]):
        acc = n * f[n]
        for l in range(1, n):
            acc -= l * np.convolve(gmat[l], f[n - l])[: m + 1]
        gmat[n] = acc / n
    return gmat


def spitzer_series(dist, order_cap: int, degree_cap: int) -> np.ndarray:
    """F(u, z) truncated at (order_cap, degree_cap) via the exponential series.

    Coefficient n is the pgf of the reflected walk at time n, truncated to
    degree degree_cap.
    """
    if order_cap < 1:
        raise ValueError("order_cap must be >= 1")
    if degree_cap < 0:
        raise ValueError("degree_cap must be >= 0")
    g = np.zeros((order_cap + 1, degree_cap + 1))
    # walk_pmfs gives the law of S_l as that of A_1 + ... + A_l, shifted by s l
    for l, running in enumerate(walk_pmfs(dist, order_cap), start=1):
        g[l] = positive_part_coeffs(running, dist.s * l, degree_cap) * (1.0 / l)
    return series_exp(g)
