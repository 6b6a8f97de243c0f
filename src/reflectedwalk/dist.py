"""Lattice increment distributions X = A - s and their partial-sum laws.

The step of the walk is X = A - s where A is a nonnegative integer random
variable with pmf ``p_j = P(A = j)`` and s >= 1 bounds the downward jump.
Infinite-support families (Poisson, geometric) are truncated to a finite
pmf with tail mass <= TAIL_TOL = 1e-14 and renormalized, so every
generating function downstream is an honest polynomial.
"""

from __future__ import annotations

import bisect
import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np

TAIL_TOL = 1e-14
SUPPORT_CAP = 2_000_000
TERM_CAP = 100_000
# largest binomial n whose every C(n, j) converts to a float
BINOMIAL_N_MAX = 1029

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
        if not np.all(np.isfinite(p)):
            raise ValueError("pmf_a entries must be finite")
        if np.any(p < 0):
            raise ValueError("pmf_a entries must be nonnegative")
        # strip trailing zeros so J indexes the largest atom
        nz = np.nonzero(p)[0]
        if nz.size == 0:
            raise ValueError("pmf_a must carry positive mass")
        p = p[: nz[-1] + 1].copy()
        total = p.sum()
        if not abs(total - 1.0) <= 1e-12:
            raise ValueError(f"pmf_a must sum to 1, got {total!r}")
        p /= total
        p.setflags(write=False)
        object.__setattr__(self, "pmf_a", p)
        if self.truncation_defect < 0 or self.truncation_defect > TAIL_TOL:
            raise ValueError(
                f"truncation defect {self.truncation_defect!r} exceeds {TAIL_TOL}"
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


def _cut_tail(first: float, step, name: str) -> tuple:
    """Terms t_0 = first, t_j = step(t_{j-1}, j), and the tail defect.

    Stops at the first J with 1 - fsum(t_0..t_J) <= TAIL_TOL.  The list
    doubles until its whole sum passes that stop, then bisection finds J:
    the terms are >= 0 and fsum rounds correctly, so prefix sums never
    decrease.  That is O(J log J) work in fsum, not one fsum per term.
    A J of TERM_CAP or more raises ValueError.
    """
    terms = [first]
    while 1.0 - math.fsum(terms) > TAIL_TOL:
        if len(terms) >= TERM_CAP:
            raise ValueError(f"{name} truncation needs more than {TERM_CAP} terms")
        for j in range(len(terms), min(2 * len(terms), TERM_CAP)):
            terms.append(step(terms[-1], j))
    j_max = bisect.bisect_left(
        range(len(terms)), True, key=lambda j: 1.0 - math.fsum(terms[: j + 1]) <= TAIL_TOL
    )
    del terms[j_max + 1 :]
    return np.array(terms), max(1.0 - math.fsum(terms), 0.0)


def make_family(
    family: str,
    s: int,
    *,
    c: int | None = None,
    p: float | None = None,
    n: int | None = None,
    lam: float | None = None,
    probs=None,
) -> IncrementDistribution:
    """Build a named increment distribution; infinite tails are cut at TAIL_TOL.

    Families: ``deterministic`` (A = c), ``bernoulli-scaled`` (A in {0, c}),
    ``binomial`` (A ~ Bin(n, p)), ``poisson-truncated`` (A ~ Poi(lam)),
    ``geometric-truncated`` (P(A=j) = p (1-p)^j) and ``explicit``.
    """
    try:
        canonical = _FAMILY_ALIASES[family]
    except KeyError:
        raise ValueError(f"unknown family {family!r}") from None

    radius = math.inf
    defect = 0.0
    # c and n are counts: int() would truncate 2.5 to 2 silently, and raise
    # OverflowError, not ValueError, on an infinite value
    if canonical == "deterministic":
        if c is None or not math.isfinite(c) or c < 0 or c != int(c):
            raise ValueError("deterministic family needs a nonnegative integer c")
        pmf = np.zeros(int(c) + 1)
        pmf[int(c)] = 1.0
    elif canonical == "bernoulli-scaled":
        if p is None or not 0 <= p <= 1:
            raise ValueError("bernoulli family needs p in [0, 1]")
        if c is not None and not (math.isfinite(c) and c == int(c)):
            raise ValueError(f"bernoulli scale c must be an integer, got {c!r}")
        scale = 1 if c is None else int(c)
        if scale < 1:
            raise ValueError("bernoulli scale c must be >= 1")
        pmf = np.zeros(scale + 1)
        pmf[0] = 1.0 - p
        pmf[scale] = p
    elif canonical == "binomial":
        if n is None or not n >= 0 or p is None or not 0 <= p <= 1:
            raise ValueError("binomial family needs n >= 0 and p in [0, 1]")
        # above BINOMIAL_N_MAX, float(C(n, j)) raises OverflowError
        if n > BINOMIAL_N_MAX:
            raise ValueError(f"binomial family needs n <= {BINOMIAL_N_MAX}, got {n}")
        if n != int(n):
            raise ValueError(f"binomial family needs an integer n, got {n!r}")
        n = int(n)
        pmf = np.array(
            [math.comb(n, j) * p**j * (1.0 - p) ** (n - j) for j in range(n + 1)]
        )
    elif canonical == "poisson-truncated":
        if lam is None or not 0 < lam < math.inf:
            raise ValueError("poisson family needs a finite lam > 0")
        first = math.exp(-lam)
        # every term is P(A=0) times a ratio, so P(A=0) must be a normal float
        if first < sys.float_info.min:
            raise ValueError(f"poisson lam {lam!r} too large: exp(-lam) underflows")
        pmf, defect = _cut_tail(first, lambda t, j: t * lam / j, "poisson")
    elif canonical == "geometric-truncated":
        if p is None or not 0 < p < 1:
            raise ValueError("geometric family needs p in (0, 1)")
        radius = 1.0 / (1.0 - p)
        if radius <= 1.0:
            raise ValueError("geometric family has pgf radius <= 1")
        pmf, defect = _cut_tail(p, lambda t, j: t * (1.0 - p), "geometric")
    else:  # explicit
        if probs is None:
            raise ValueError("explicit family needs probs")
        pmf = np.asarray(probs, dtype=float)

    total = pmf.sum()
    if not abs(total - 1.0) <= 1e-12:
        raise ValueError(f"family pmf must be finite and sum to 1, got sum {float(total)!r}")
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


def walk_pmfs(dist: IncrementDistribution, l_max: int):
    """Laws of S_1, ..., S_{l_max} in turn, each as walk_pmf(dist, l) gives it.

    The convolution powers of the A-pmf, by iterated schoolbook
    convolution: one pass yields every power up to l_max and holds only
    the last.  l_max < 1, or a support of S_{l_max} longer than
    SUPPORT_CAP, raises ValueError before the first power.
    """
    if l_max < 1:
        raise ValueError("l must be >= 1")
    if l_max * dist.j_max + 1 > SUPPORT_CAP:
        raise ValueError(
            f"support length {l_max * dist.j_max + 1} exceeds cap {SUPPORT_CAP}; "
            "reduce l or the tail truncation order"
        )
    probs = dist.pmf_a
    yield probs
    for _ in range(l_max - 1):
        probs = np.convolve(probs, dist.pmf_a)
        yield probs


def walk_pmf(dist: IncrementDistribution, l: int) -> np.ndarray:
    """Law of S_l = X_1 + ... + X_l: entry i is P(S_l = i - s l).

    The l-th convolution power of the A-pmf, the last of walk_pmfs.
    """
    for probs in walk_pmfs(dist, l):
        pass
    return probs


def positive_part_coeffs(probs: np.ndarray, zero_index: int, m_max: int) -> np.ndarray:
    """Degree-m_max pgf coefficients of S^+ where P(S = k) = probs[k + zero_index]."""
    coeffs = np.zeros(m_max + 1)
    coeffs[0] = probs[: zero_index + 1].sum()
    pos = probs[zero_index + 1 :]
    take = min(m_max, len(pos))
    coeffs[1 : 1 + take] = pos[:take]
    return coeffs
