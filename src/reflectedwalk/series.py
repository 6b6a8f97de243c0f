"""Truncated power series in u with polynomial-in-z coefficients.

Implements the exponential-series route to the reflected-walk transform:
F(u, z) = exp(sum_{l>=1} (u^l / l) E(z^{S_l^+})), truncated at order N in u
and degree M in z.  Because the u^n coefficient of exp only involves orders
<= n and z-truncation of nonnegative convolutions is prefix-exact, the
retained coefficients are exact up to roundoff.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# below this product size plain schoolbook convolution wins and is
# bitwise-reproducible across truncation orders
_FFT_CUTOFF = 1 << 18


@dataclass(frozen=True)
class ZPolynomial:
    """Dense real polynomial in z, coefficients c_0..c_M."""

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float)
        if c.ndim != 1 or c.size == 0:
            raise ValueError("coeffs must be a nonempty 1-D array")
        c = c.copy()
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    @property
    def degree_cap(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, z):
        return np.polyval(self.coeffs[::-1], z)

    def __add__(self, other: "ZPolynomial") -> "ZPolynomial":
        _check_caps(self, other)
        return ZPolynomial(self.coeffs + other.coeffs)

    def __sub__(self, other: "ZPolynomial") -> "ZPolynomial":
        _check_caps(self, other)
        return ZPolynomial(self.coeffs - other.coeffs)

    def scaled(self, factor: float) -> "ZPolynomial":
        return ZPolynomial(self.coeffs * factor)

    def allclose(self, other: "ZPolynomial", tol: float = 1e-12) -> bool:
        _check_caps(self, other)
        return bool(np.max(np.abs(self.coeffs - other.coeffs)) <= tol)


def zpoly(values, degree_cap: int) -> ZPolynomial:
    """ZPolynomial from a (possibly short) coefficient sequence."""
    v = np.asarray(values, dtype=float).ravel()
    if len(v) > degree_cap + 1:
        raise ValueError("coefficient sequence longer than degree_cap + 1")
    out = np.zeros(degree_cap + 1)
    out[: len(v)] = v
    return ZPolynomial(out)


def zpoly_zero(degree_cap: int) -> ZPolynomial:
    return ZPolynomial(np.zeros(degree_cap + 1))


def zpoly_one(degree_cap: int) -> ZPolynomial:
    return zpoly([1.0], degree_cap)


def _check_caps(a: ZPolynomial, b: ZPolynomial):
    if a.degree_cap != b.degree_cap:
        raise ValueError(
            f"degree_cap mismatch: {a.degree_cap} vs {b.degree_cap}"
        )


def _fft_convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Full linear convolution of two real sequences by real FFTs.

    The transform length is the next power of two holding all
    len(a) + len(b) - 1 outputs, so the circular product does not wrap.
    """
    n = len(a) + len(b) - 1
    size = 1 << (n - 1).bit_length()
    return np.fft.irfft(np.fft.rfft(a, size) * np.fft.rfft(b, size), size)[:n]


def _mul_trunc(a: np.ndarray, b: np.ndarray, m_cap: int) -> np.ndarray:
    if len(a) * len(b) <= _FFT_CUTOFF:
        full = np.convolve(a, b)
    else:
        full = _fft_convolve(a, b)
    return full[: m_cap + 1]


def poly_mul(a: ZPolynomial, b: ZPolynomial) -> ZPolynomial:
    """Product truncated back to the shared degree_cap.

    Coefficients 0..degree_cap equal those of the untruncated product.
    """
    _check_caps(a, b)
    m = a.degree_cap
    out = np.zeros(m + 1)
    prod = _mul_trunc(a.coeffs, b.coeffs, m)
    out[: len(prod)] = prod
    return ZPolynomial(out)


@dataclass(frozen=True)
class USeries:
    """Truncated series sum_n u^n f_n(z) with ZPolynomial coefficients."""

    coeffs: tuple
    order_cap: int
    degree_cap: int

    def __post_init__(self):
        coeffs = tuple(self.coeffs)
        if len(coeffs) != self.order_cap + 1:
            raise ValueError("need order_cap + 1 coefficient polynomials")
        for f in coeffs:
            if f.degree_cap != self.degree_cap:
                raise ValueError("all coefficients must share degree_cap")
        object.__setattr__(self, "coeffs", coeffs)

    def __getitem__(self, n: int) -> ZPolynomial:
        return self.coeffs[n]

    def partial_sum(self, u, z):
        """sum_{n<=order_cap} u^n f_n(z); u scalar, z scalar or array."""
        zpow = np.asarray(z)[..., None] ** np.arange(self.degree_cap + 1)
        values = zpow @ self.as_matrix().T  # f_n(z) for every n
        upow = u ** np.arange(self.order_cap + 1)
        out = values @ upow
        return out if np.ndim(z) else out[()]

    def as_matrix(self) -> np.ndarray:
        """(order_cap+1, degree_cap+1) coefficient matrix (copy)."""
        return np.stack([f.coeffs for f in self.coeffs])


def useries(polys, degree_cap: int | None = None) -> USeries:
    polys = tuple(polys)
    if degree_cap is None:
        degree_cap = polys[0].degree_cap
    return USeries(polys, order_cap=len(polys) - 1, degree_cap=degree_cap)


def series_exp(g: USeries) -> USeries:
    """exp of a series with zero constant term.

    Differential recurrence: n f_n = sum_{l=1..n} l g_l * f_{n-l}, f_0 = 1.
    """
    m = g.degree_cap
    if np.any(g[0].coeffs != 0.0):
        raise ValueError("series_exp needs a zero constant term")
    gmat = g.as_matrix()
    fmat = np.zeros_like(gmat)
    fmat[0, 0] = 1.0
    for n in range(1, g.order_cap + 1):
        acc = np.zeros(m + 1)
        for l in range(1, n + 1):
            prod = _mul_trunc(gmat[l], fmat[n - l], m)
            acc[: len(prod)] += l * prod
        fmat[n] = acc / n
    return useries([ZPolynomial(row) for row in fmat], m)


def series_log(f: USeries) -> USeries:
    """log of a series with unit constant term; inverse of series_exp."""
    m = f.degree_cap
    unit = np.zeros(m + 1)
    unit[0] = 1.0
    if np.any(f[0].coeffs != unit):
        raise ValueError("series_log needs constant term 1")
    fmat = f.as_matrix()
    gmat = np.zeros_like(fmat)
    for n in range(1, f.order_cap + 1):
        acc = n * fmat[n].copy()
        for l in range(1, n):
            prod = _mul_trunc(gmat[l], fmat[n - l], m)
            acc[: len(prod)] -= l * prod
        gmat[n] = acc / n
    return useries([ZPolynomial(row) for row in gmat], m)


def spitzer_series(dist, order_cap: int, degree_cap: int) -> USeries:
    """F(u, z) truncated at (order_cap, degree_cap) via the exponential series.

    Coefficient n is the pgf of the reflected walk at time n, truncated to
    degree degree_cap.
    """
    from . import dist as _dist  # late import: dist depends on ZPolynomial

    if order_cap < 1:
        raise ValueError("order_cap must be >= 1")
    if degree_cap < 0:
        raise ValueError("degree_cap must be >= 0")
    polys = [zpoly_zero(degree_cap)]
    running = dist.pmf_a
    for l in range(1, order_cap + 1):
        walk = _dist.WalkPmf(l=l, offset=-dist.s * l, probs=running)
        polys.append(_dist._positive_part_from_walk(walk, degree_cap).scaled(1.0 / l))
        if l < order_cap:
            running = np.convolve(running, dist.pmf_a)
    return series_exp(useries(polys, degree_cap))
