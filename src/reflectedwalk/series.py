"""Truncated power series in u with polynomial-in-z coefficients.

Implements the exponential-series route to the reflected-walk transform:
F(u, z) = exp(sum_{l>=1} (u^l / l) E(z^{S_l^+})), truncated at order N in u
and degree M in z.  Because the u^n coefficient of exp only involves orders
<= n and z-truncation of nonnegative convolutions is prefix-exact, the
retained coefficients are exact up to roundoff.

A z-polynomial is a 1-D coefficient array c_0..c_M; a series is one
(N+1, M+1) array whose row n holds the z-polynomial at u^n.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dist import positive_part_coeffs

# below this product size plain schoolbook convolution wins and is
# bitwise-reproducible across truncation orders
_FFT_CUTOFF = 1 << 18


def _fft_convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Full linear convolution of two real sequences by real FFTs.

    The transform length is the next power of two holding all
    len(a) + len(b) - 1 outputs, so the circular product does not wrap.
    """
    n = len(a) + len(b) - 1
    size = 1 << (n - 1).bit_length()
    return np.fft.irfft(np.fft.rfft(a, size) * np.fft.rfft(b, size), size)[:n]


def poly_mul(a: np.ndarray, b: np.ndarray, m_cap: int) -> np.ndarray:
    """Product of two z-polynomials truncated to degree m_cap.

    Returns m_cap + 1 coefficients, equal to those of the untruncated
    product (zero past its degree).
    """
    full = np.convolve(a, b) if len(a) * len(b) <= _FFT_CUTOFF else _fft_convolve(a, b)
    out = np.zeros(m_cap + 1)
    keep = full[: m_cap + 1]
    out[: len(keep)] = keep
    return out


@dataclass(frozen=True)
class USeries:
    """Truncated series sum_n u^n f_n(z); row n of ``coeffs`` holds f_n."""

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.array(self.coeffs, dtype=float)
        if c.ndim != 2 or c.size == 0:
            raise ValueError("coeffs must be a nonempty 2-D array")
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    @property
    def order_cap(self) -> int:
        return self.coeffs.shape[0] - 1

    @property
    def degree_cap(self) -> int:
        return self.coeffs.shape[1] - 1

    def __getitem__(self, n: int) -> np.ndarray:
        return self.coeffs[n]

    def partial_sum(self, u, z):
        """sum_{n<=order_cap} u^n f_n(z); u scalar, z scalar or array."""
        zpow = np.asarray(z)[..., None] ** np.arange(self.degree_cap + 1)
        values = zpow @ self.coeffs.T  # f_n(z) for every n
        upow = u ** np.arange(self.order_cap + 1)
        out = values @ upow
        return out if np.ndim(z) else out[()]

    def as_matrix(self) -> np.ndarray:
        """(order_cap+1, degree_cap+1) coefficient matrix (copy)."""
        return self.coeffs.copy()


def series_exp(g: USeries) -> USeries:
    """exp of a series with zero constant term.

    Differential recurrence: n f_n = sum_{l=1..n} l g_l * f_{n-l}, f_0 = 1.
    """
    m = g.degree_cap
    if np.any(g[0] != 0.0):
        raise ValueError("series_exp needs a zero constant term")
    fmat = np.zeros_like(g.coeffs)
    fmat[0, 0] = 1.0
    for n in range(1, g.order_cap + 1):
        acc = np.zeros(m + 1)
        for l in range(1, n + 1):
            acc += l * poly_mul(g[l], fmat[n - l], m)
        fmat[n] = acc / n
    return USeries(fmat)


def series_log(f: USeries) -> USeries:
    """log of a series with unit constant term; inverse of series_exp."""
    m = f.degree_cap
    if f[0][0] != 1.0 or np.any(f[0][1:] != 0.0):
        raise ValueError("series_log needs constant term 1")
    gmat = np.zeros_like(f.coeffs)
    for n in range(1, f.order_cap + 1):
        acc = n * f[n]
        for l in range(1, n):
            acc -= l * poly_mul(gmat[l], f[n - l], m)
        gmat[n] = acc / n
    return USeries(gmat)


def spitzer_series(dist, order_cap: int, degree_cap: int) -> USeries:
    """F(u, z) truncated at (order_cap, degree_cap) via the exponential series.

    Coefficient n is the pgf of the reflected walk at time n, truncated to
    degree degree_cap.
    """
    if order_cap < 1:
        raise ValueError("order_cap must be >= 1")
    if degree_cap < 0:
        raise ValueError("degree_cap must be >= 0")
    g = np.zeros((order_cap + 1, degree_cap + 1))
    running = dist.pmf_a  # law of A_1 + ... + A_l, i.e. of S_l + s l
    for l in range(1, order_cap + 1):
        g[l] = positive_part_coeffs(running, dist.s * l, degree_cap) * (1.0 / l)
        if l < order_cap:
            running = np.convolve(running, dist.pmf_a)
    return series_exp(USeries(g))
