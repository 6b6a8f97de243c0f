"""Exact dynamic programming on the reflected recursion, plus structural checks.

The forward recursion M_{n+1} = (M_n + A_{n+1} - s)^+ is iterated exactly
on the grid m = 0..m_max.  Mass that would land above m_max is accumulated
in a per-row overflow counter instead of being renormalized, so row
completeness is decidable and conservation stays testable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dist import IncrementDistribution
from .kernel import RootSet


@dataclass(frozen=True)
class DistributionTable:
    """Matrix of P(M_n = m) with provenance and per-row completeness."""

    probs: np.ndarray
    method: str
    complete_rows: np.ndarray
    overflow: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        p.setflags(write=False)
        object.__setattr__(self, "probs", p)
        c = np.asarray(self.complete_rows, dtype=bool)
        c.setflags(write=False)
        object.__setattr__(self, "complete_rows", c)
        o = np.asarray(self.overflow, dtype=float)
        o.setflags(write=False)
        object.__setattr__(self, "overflow", o)

    @property
    def n_max(self) -> int:
        return self.probs.shape[0] - 1

    @property
    def m_max(self) -> int:
        return self.probs.shape[1] - 1


def complete_row_flags(dist: IncrementDistribution, n_max: int, m_max: int):
    growth = dist.support_growth
    return np.array([m_max >= n * growth for n in range(n_max + 1)])


def lindley_dp(
    dist: IncrementDistribution, n_max: int, m_max: int
) -> DistributionTable:
    """Exact forward recursion for P(M_n = m), n <= n_max, m <= m_max."""
    if n_max < 0 or m_max < 0:
        raise ValueError("n_max and m_max must be >= 0")
    s = dist.s
    probs = np.zeros((n_max + 1, m_max + 1))
    probs[0, 0] = 1.0
    overflow = np.zeros(n_max + 1)
    for n in range(n_max):
        shifted = np.convolve(probs[n], dist.pmf_a)  # law of M_n + A
        nxt = np.zeros(m_max + 1)
        nxt[0] = shifted[: s + 1].sum()
        upper = shifted[s + 1 :]
        keep = upper[:m_max]
        nxt[1 : 1 + len(keep)] = keep
        spill = upper[m_max:].sum() if len(upper) > m_max else 0.0
        overflow[n + 1] = overflow[n] + spill
        probs[n + 1] = nxt
    return DistributionTable(
        probs=probs,
        method="dp",
        complete_rows=complete_row_flags(dist, n_max, m_max),
        overflow=overflow,
    )


def boundary_probs(dist: IncrementDistribution, table: DistributionTable):
    """Array b[r, n] = P(M_n + A_{n+1} = r) for r = 0..s-1.

    Level j < s of row n meets the atoms r - j < s of A, so every row is
    summed at once in one array step per level j, in the order of a
    convolution of the row's levels < s with those atoms.
    """
    s = dist.s
    atoms = dist.pmf_a[:s]
    out = np.zeros((s, table.n_max + 1))
    for j, level in enumerate(table.probs[:, :s].T):
        take = min(len(atoms), s - j)
        out[j : j + take] += atoms[:take, None] * level
    return out


def functional_equation_check(
    dist: IncrementDistribution, table: DistributionTable, n, z
):
    """Residual of the one-step transform identity at rows n and points z.

    E(z^{M_{n+1}}) = E(z^{M_n}) A(z) z^{-s}
                     + sum_{r<s} P(M_n + A = r) (1 - z^{r-s}).

    n and z are scalars or 1-D arrays.  Every row's pgf at every z comes
    from one matrix product; the residuals return as a (len(n), len(z))
    array, or a float when both are scalars.  Off |z| = 1 the z^{-s} factor
    scales roundoff by |z|^{-s}, so a check should sample the unit circle.
    """
    ns = np.atleast_1d(np.asarray(n, dtype=int))
    zs = np.atleast_1d(np.asarray(z, dtype=complex))
    if np.any(zs == 0):
        raise ValueError("z must be nonzero")
    if np.any(ns < 0) or np.any(ns + 1 > table.n_max):
        raise ValueError("rows n and n + 1 must be present in the table")
    if not np.all(table.complete_rows[ns] & table.complete_rows[ns + 1]):
        raise ValueError(f"rows n and n + 1 must be complete (n = {n})")
    s = dist.s
    pgfs = table.probs @ np.vander(zs, table.m_max + 1, increasing=True).T
    a_z = np.vander(zs, len(dist.pmf_a), increasing=True) @ dist.pmf_a
    boundary = boundary_probs(dist, table)[:, ns].T  # (len(n), s)
    tail = 1.0 - zs[None, :] ** (np.arange(s)[:, None] - s)  # (s, len(z))
    rhs = pgfs[ns] * (a_z * zs ** (-s)) + boundary @ tail
    res = np.abs(pgfs[ns + 1] - rhs)
    return float(res[0, 0]) if np.ndim(n) == 0 and np.ndim(z) == 0 else res


def required_boundary_order(u: float, tol: float) -> int:
    """Smallest n_max with geometric tail u^{n_max+1} / (1-u) <= tol."""
    if not 0.0 < u < 1.0:
        raise ValueError("u must lie in (0, 1)")
    n = 0
    while u ** (n + 1) / (1.0 - u) > tol:
        n += 1
    return n


def boundary_width(dist: IncrementDistribution, n_max: int) -> int:
    """Top level m_max of a DP table whose boundary_probs are exact to row n_max.

    boundary_probs reads only the levels < s.  The walk falls at most s a
    step, so row n's levels < s come from row n - k's levels < s (k + 1).
    Cutting the table at m_max spoils row k only above m_max - (k - 1) s,
    so a cut at s (n_max + 1) keeps every level read exact; the full
    support n_max * support_growth, if lower, loses nothing at all.
    """
    return max(min(n_max * dist.support_growth, dist.s * (n_max + 1)), dist.s)


def numerator_check(
    dist: IncrementDistribution,
    u,
    roots: RootSet,
    tol: float = 1e-9,
) -> float:
    """Residual of the numerator-polynomial structure at the kernel roots.

    u is a scalar with roots from find_kernel_roots(dist, u), or a 1-D
    array whose row k of roots is for u[k].  Builds N(u, z) = z^s +
    u sum_{r<s} (z^s - z^r) F_r(u) from truncated boundary series and
    returns the max over every u of |N(u, z_k)| at its roots.  Each u
    truncates F_r at its own order, set from the geometric tail bound so
    the truncation error is <= tol / 10.  One DP table at the largest
    order serves every u, and N is evaluated at every (u, root) pair at
    once, so the residual is the largest of the calls for one u at a time,
    to the bit.
    """
    us = np.atleast_1d(np.asarray(u, dtype=float))
    orders = [required_boundary_order(x, tol / 10.0) for x in us.tolist()]
    n_top = max(orders)
    table = lindley_dp(dist, n_top, boundary_width(dist, n_top))
    bnd = boundary_probs(dist, table)
    # F_r(u), one row per u: a matrix-vector product on the leading columns
    # of the one table sums in the same order as a table built for u alone
    f_r = np.array([bnd[:, : n + 1] @ x ** np.arange(n + 1)
                    for x, n in zip(us.tolist(), orders)])
    s = dist.s
    z = np.reshape(roots.roots, (len(us), -1))
    z_s = z**s
    val = z_s
    for r in range(s):
        val = val + us[:, None] * (z_s - z**r) * f_r[:, r, None]
    return float(np.max(np.abs(val)))
