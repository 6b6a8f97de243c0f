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


def row_pgf(table: DistributionTable, n: int, z) -> complex:
    """E(z^{M_n}) from table row n."""
    return np.polyval(table.probs[n][::-1], z)


def boundary_probs(dist: IncrementDistribution, table: DistributionTable):
    """Array b[r, n] = P(M_n + A_{n+1} = r) for r = 0..s-1."""
    s = dist.s
    out = np.zeros((s, table.n_max + 1))
    for n in range(table.n_max + 1):
        conv = np.convolve(table.probs[n][:s], dist.pmf_a[:s])
        take = min(s, len(conv))
        out[:take, n] = conv[:take]
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


def numerator_check(
    dist: IncrementDistribution,
    u: float,
    roots: RootSet,
    table: DistributionTable | None = None,
    tol: float = 1e-9,
) -> float:
    """Residual of the numerator-polynomial structure at the kernel roots.

    Builds N(u, z) = z^s + u sum_{r<s} (z^s - z^r) F_r(u) from truncated
    boundary series and returns the max of |N(u, z_k)| over the roots and
    |N(u, 1) - 1|.  The truncation order is set from the geometric tail
    bound so the truncation error is <= tol / 10.
    """
    n_req = required_boundary_order(u, tol / 10.0)
    m_need = max(n_req * dist.support_growth, dist.s)
    if (
        table is None
        or table.n_max < n_req
        or not np.all(table.complete_rows[: n_req + 1])
    ):
        if table is not None:
            raise ValueError(
                f"table must have >= {n_req} complete rows for u = {u}, tol = {tol}"
            )
        table = lindley_dp(dist, n_req, m_need)
    bnd = boundary_probs(dist, table)
    upow = u ** np.arange(table.n_max + 1)
    f_r = bnd @ upow  # F_r(u) truncated at n_max
    s = dist.s

    def numerator(z):
        val = z**s
        for r in range(s):
            val = val + u * (z**s - z**r) * f_r[r]
        return val

    residual = max(abs(numerator(zk)) for zk in roots.roots)
    residual = max(residual, abs(numerator(1.0) - 1.0))
    return float(residual)
