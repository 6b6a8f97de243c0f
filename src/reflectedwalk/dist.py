"""Lattice increment distributions X = A - s and their partial-sum laws.

The step of the walk is X = A - s where A is a nonnegative integer random
variable with pmf ``p_j = P(A = j)`` and s >= 1 bounds the downward jump.
Infinite-support families (Poisson, geometric) are truncated to a finite
pmf with tail mass <= the requested tolerance and renormalized, so every
generating function downstream is an honest polynomial.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

DEFAULT_TAIL_TOL = 1e-14
MAX_TAIL_TOL = 1e-14
SUPPORT_CAP = 2_000_000

_FAMILY_ALIASES = {
    "deterministic": "deterministic",
    "bernoulli": "bernoulli-scaled",
    "bernoulli-scaled": "bernoulli-scaled",
    "binomial": "binomial",
    "poisson": "poisson-truncated",
    "poisson-truncated": "poisson-truncated",
    "geometric": "geometric-truncated",
    "geometric-truncated": "geometric-truncated",
    "explicit": "explicit",
}


@dataclass(frozen=True)
class IncrementDistribution:
    """Law of A (finite pmf) together with the downward jump bound s."""

    s: int
    pmf_a: np.ndarray
    family: str = "explicit"
    truncation_defect: float = 0.0
    analyticity_radius_hint: float = math.inf

    def __post_init__(self):
        if self.s < 1:
            raise ValueError(f"s must be a positive integer, got {self.s}")
        p = np.asarray(self.pmf_a, dtype=float)
        if p.ndim != 1 or p.size == 0:
            raise ValueError("pmf_a must be a nonempty 1-D array")
        if np.any(p < 0):
            raise ValueError("pmf_a entries must be nonnegative")
        # strip trailing zeros so J indexes the largest atom
        nz = np.nonzero(p)[0]
        if nz.size == 0:
            raise ValueError("pmf_a must carry positive mass")
        p = p[: nz[-1] + 1].copy()
        total = p.sum()
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"pmf_a must sum to 1, got {total!r}")
        p /= total
        p.setflags(write=False)
        object.__setattr__(self, "pmf_a", p)
        if self.truncation_defect < 0 or self.truncation_defect > MAX_TAIL_TOL:
            raise ValueError(
                f"truncation defect {self.truncation_defect!r} exceeds {MAX_TAIL_TOL}"
            )
        if self.analyticity_radius_hint <= 1.0:
            raise ValueError(
                "pgf analyticity radius must exceed 1 "
                f"(got {self.analyticity_radius_hint!r})"
            )
        if p[0] == 0.0:
            warnings.warn(
                "P(A=0) = 0: the kernel has roots at the origin",
                UserWarning,
                stacklevel=2,
            )

    @property
    def j_max(self) -> int:
        """Largest atom of A."""
        return len(self.pmf_a) - 1

    @property
    def support_growth(self) -> int:
        """Max upward movement of the reflected walk per step."""
        return max(self.j_max - self.s, 0)


def make_family(
    family: str,
    s: int,
    *,
    tail_tol: float = DEFAULT_TAIL_TOL,
    c: int | None = None,
    p: float | None = None,
    n: int | None = None,
    lam: float | None = None,
    probs=None,
) -> IncrementDistribution:
    """Build a named increment distribution with controlled tail truncation.

    Families: ``deterministic`` (A = c), ``bernoulli-scaled`` (A in {0, c}),
    ``binomial`` (A ~ Bin(n, p)), ``poisson-truncated`` (A ~ Poi(lam)),
    ``geometric-truncated`` (P(A=j) = p (1-p)^j) and ``explicit``.
    """
    try:
        canonical = _FAMILY_ALIASES[family]
    except KeyError:
        raise ValueError(f"unknown family {family!r}") from None
    if not 0 < tail_tol <= MAX_TAIL_TOL:
        raise ValueError(f"tail tolerance must lie in (0, {MAX_TAIL_TOL}]")

    radius = math.inf
    defect = 0.0
    if canonical == "deterministic":
        if c is None or c < 0 or c != int(c):
            raise ValueError("deterministic family needs a nonnegative integer c")
        pmf = np.zeros(int(c) + 1)
        pmf[int(c)] = 1.0
    elif canonical == "bernoulli-scaled":
        if p is None or not 0 <= p <= 1:
            raise ValueError("bernoulli family needs p in [0, 1]")
        scale = 1 if c is None else int(c)
        if scale < 1:
            raise ValueError("bernoulli scale c must be >= 1")
        pmf = np.zeros(scale + 1)
        pmf[0] = 1.0 - p
        pmf[scale] = p
    elif canonical == "binomial":
        if n is None or n < 0 or p is None or not 0 <= p <= 1:
            raise ValueError("binomial family needs n >= 0 and p in [0, 1]")
        n = int(n)
        pmf = np.array(
            [math.comb(n, j) * p**j * (1.0 - p) ** (n - j) for j in range(n + 1)]
        )
    elif canonical == "poisson-truncated":
        if lam is None or lam <= 0:
            raise ValueError("poisson family needs lam > 0")
        terms = [math.exp(-lam)]
        while 1.0 - math.fsum(terms) > tail_tol:
            terms.append(terms[-1] * lam / len(terms))
            if len(terms) > 100_000:
                raise ValueError("poisson truncation did not converge")
        defect = max(1.0 - math.fsum(terms), 0.0)
        pmf = np.array(terms)
    elif canonical == "geometric-truncated":
        if p is None or not 0 < p < 1:
            raise ValueError("geometric family needs p in (0, 1)")
        radius = 1.0 / (1.0 - p)
        if radius <= 1.0:
            raise ValueError("geometric family has pgf radius <= 1")
        terms = [p]
        while 1.0 - math.fsum(terms) > tail_tol:
            terms.append(terms[-1] * (1.0 - p))
        defect = max(1.0 - math.fsum(terms), 0.0)
        pmf = np.array(terms)
    else:  # explicit
        if probs is None:
            raise ValueError("explicit family needs probs")
        pmf = np.asarray(probs, dtype=float)

    if defect > tail_tol:
        raise ValueError(f"truncation defect {defect!r} exceeds tolerance {tail_tol!r}")
    total = pmf.sum()
    if abs(total - 1.0) > 1e-12:
        raise ValueError(f"family pmf sums to {total!r}, not 1")
    return IncrementDistribution(
        s=s,
        pmf_a=pmf / total,
        family=canonical,
        truncation_defect=defect,
        analyticity_radius_hint=radius,
    )


def pgf_eval(dist: IncrementDistribution, w):
    """A(w) = sum_j p_j w^j, Horner evaluation; accepts scalars or arrays."""
    return np.polyval(dist.pmf_a[::-1], w)


def pgf_deriv_eval(dist: IncrementDistribution, w):
    """A'(w); used by the log-residue check, through kernel_deriv_eval."""
    coeffs = dist.pmf_a[1:] * np.arange(1, len(dist.pmf_a))
    if coeffs.size == 0:
        return np.zeros_like(np.asarray(w, dtype=complex)) if np.ndim(w) else 0.0
    return np.polyval(coeffs[::-1], w)


def walk_pmf(dist: IncrementDistribution, l: int) -> np.ndarray:
    """Law of S_l = X_1 + ... + X_l: entry i is P(S_l = i - s l).

    The l-th convolution power of the A-pmf, by iterated schoolbook
    convolution.
    """
    if l < 1:
        raise ValueError("l must be >= 1")
    if l * dist.j_max + 1 > SUPPORT_CAP:
        raise ValueError(
            f"support length {l * dist.j_max + 1} exceeds cap {SUPPORT_CAP}; "
            "reduce l or the tail truncation order"
        )
    probs = dist.pmf_a
    for _ in range(l - 1):
        probs = np.convolve(probs, dist.pmf_a)
    return probs


def positive_part_pgf(dist: IncrementDistribution, l: int, m_max: int) -> np.ndarray:
    """Coefficients of the pgf of S_l^+ = max(S_l, 0), truncated to degree m_max."""
    if m_max < 0:
        raise ValueError("m_max must be >= 0")
    return positive_part_coeffs(walk_pmf(dist, l), dist.s * l, m_max)


def positive_part_coeffs(probs: np.ndarray, zero_index: int, m_max: int) -> np.ndarray:
    """Degree-m_max pgf coefficients of S^+ where P(S = k) = probs[k + zero_index]."""
    coeffs = np.zeros(m_max + 1)
    coeffs[0] = probs[: zero_index + 1].sum()
    pos = probs[zero_index + 1 :]
    take = min(m_max, len(pos))
    coeffs[1 : 1 + take] = pos[:take]
    return coeffs
