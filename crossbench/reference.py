"""Independent reference for the benchmark, and the checks run against it.

Nothing here calls the program's numerical code.  The increment pmf is
rebuilt from each family's formula, the law of M_n comes from this file's
own iteration of the reflected recursion M_{n+1} = max(M_n + A - s, 0),
and F(u, z) at a point is the truncated sum over n of u^n E[z^{M_n}].
The references are computed before timing starts and count in no metric.
"""

from __future__ import annotations

import math

import numpy as np

TAIL_TOL = 1e-14     # the program's tail truncation default
EXACT_TOL = 1e-12    # dp and spitzer cells, probabilities, row masses
SERIES_TAIL = 1e-12  # truncation error allowed in the point reference


def family_pmf(family: str, params: dict, length: int) -> np.ndarray:
    """P(A = j), j < length, from the family's formula, renormalised.

    ``length`` is the support the program chose; the caller checks
    separately that the mass it dropped is within the tail tolerance.
    """
    j = np.arange(length)
    if family == "explicit":
        pmf = np.zeros(length)
        probs = np.asarray(params["probs"], dtype=float)
        pmf[: len(probs)] = probs[:length]
    elif family == "deterministic":
        pmf = (j == params["c"]).astype(float)
    elif family == "binomial":
        n, p = params["n"], params["p"]
        pmf = np.array(
            [math.exp(math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1))
             * p**k * (1 - p) ** (n - k) if k <= n else 0.0 for k in range(length)]
        )
    elif family == "poisson":
        lam = params["lam"]
        pmf = np.exp(-lam + j * math.log(lam) - np.array([math.lgamma(k + 1) for k in j]))
    elif family == "geometric":
        p = params["p"]
        pmf = p * (1 - p) ** j
    else:
        raise ValueError(f"no reference formula for family {family!r}")
    return pmf / pmf.sum()


def dropped_mass(family: str, params: dict, length: int) -> float:
    """Mass of the untruncated law above the first ``length`` atoms."""
    if family == "poisson":
        # sum the tail itself: 1 - (kept mass) would cancel to roundoff
        lam = params["lam"]
        return math.fsum(math.exp(-lam + k * math.log(lam) - math.lgamma(k + 1))
                         for k in range(length, length + 400))
    if family == "geometric":
        return (1 - params["p"]) ** length
    return 0.0


def reflected_law(pmf: np.ndarray, s: int, n_max: int) -> list:
    """Rows P(M_n = m) for n <= n_max, each over its full support."""
    rows = [np.array([1.0])]
    for _ in range(n_max):
        cur = rows[-1]
        nxt = np.zeros(max(len(cur) + len(pmf) - 1 - s, 1))
        for j, pj in enumerate(pmf):
            if pj == 0.0:
                continue
            shift = j - s
            # levels m with m + j - s <= 0 all land on 0
            cut = min(max(-shift + 1, 0), len(cur))
            nxt[0] += pj * cur[:cut].sum()
            if cut < len(cur):
                nxt[cut + shift : len(cur) + shift] += pj * cur[cut:]
        rows.append(nxt)
    return rows


def reference_table(rows: list, m_max: int) -> np.ndarray:
    """Rows padded or cut to m_max + 1 columns; cut rows must carry no mass."""
    out = np.zeros((len(rows), m_max + 1))
    for n, row in enumerate(rows):
        if len(row) > m_max + 1:
            raise ValueError(f"row {n} reaches level {len(row) - 1} > m_max {m_max}")
        out[n, : len(row)] = row
    return out


def series_order(u_abs: float) -> int:
    """Smallest N with |u|^{N+1} / (1 - |u|) <= SERIES_TAIL."""
    n = 0
    while u_abs ** (n + 1) / (1.0 - u_abs) > SERIES_TAIL:
        n += 1
    return n


def transform_values(rows: list, us, zs) -> np.ndarray:
    """F(u, z) = sum_{n<=N(u)} u^n E[z^{M_n}] on the grid us x zs."""
    width = max(len(r) for r in rows)
    table = reference_table(rows, width - 1)
    zs = np.asarray(zs, dtype=complex)
    pgfs = table @ np.vander(zs, width, increasing=True).T  # E[z^{M_n}], (n, z)
    out = np.empty((len(us), len(zs)), dtype=complex)
    for i, u in enumerate(us):
        n_top = series_order(abs(u))
        if n_top >= len(rows):
            raise ValueError(f"reference needs {n_top + 1} rows for |u| = {abs(u)}")
        out[i] = (u ** np.arange(n_top + 1)) @ pgfs[: n_top + 1]
    return out


class CheckFailure(Exception):
    """An operation's output broke a reference or property check."""


def check_family(d, family: str, params: dict) -> np.ndarray:
    """Check the program's pmf_a against the formula; return the reference pmf."""
    ref = family_pmf(family, params, len(d.pmf_a))
    dev = float(np.max(np.abs(np.asarray(d.pmf_a) - ref)))
    if not dev <= EXACT_TOL:
        raise CheckFailure(f"pmf_a misses the {family} formula by {dev:.3e}")
    lost = dropped_mass(family, params, len(d.pmf_a))
    if lost > TAIL_TOL * (1 + 1e-6):
        raise CheckFailure(f"truncation drops mass {lost:.3e} > {TAIL_TOL}")
    return ref


def check_run(result, csv_text: str, ref: np.ndarray, methods, tolerance: float) -> None:
    """Check one cli.run result and its CSV rendering against the reference.

    ``ref`` is the reference table P(M_n = m), n <= n_max, m <= m_max, of
    a config whose rows are all complete; ``methods`` are the ones it asked
    for; ``tolerance`` is the run's own agreement tolerance, which bounds
    the transform methods' cells.
    """
    shape = ref.shape
    if sorted(result.tables) != sorted(methods):
        raise CheckFailure(f"tables {sorted(result.tables)}, expected {sorted(methods)}")
    for method, table in result.tables.items():
        cell_tol = EXACT_TOL if method in ("dp", "spitzer") else tolerance
        probs = np.asarray(table.probs)
        if probs.shape != shape:
            raise CheckFailure(f"{method}: table shape {probs.shape}, expected {shape}")
        if not np.all(table.complete_rows):
            raise CheckFailure(f"{method}: rows marked incomplete although m_max covers them")
        dev = float(np.max(np.abs(probs - ref)))
        if not dev <= cell_tol:  # also catches NaN
            raise CheckFailure(f"{method}: a cell misses the reference by {dev:.3e} > {cell_tol}")
        low = float(probs.min())
        if low < -EXACT_TOL:
            raise CheckFailure(f"{method}: probability {low:.3e} below -{EXACT_TOL}")
        # [u^n] F(u, 1) = 1 for every n, i.e. F(u, 1) = 1 / (1 - u)
        mass = probs.sum(axis=1)
        if method == "dp":
            mass = mass + np.asarray(table.overflow)
        miss = float(np.max(np.abs(mass - 1.0)))
        if not miss <= cell_tol:
            raise CheckFailure(f"{method}: row mass misses 1 by {miss:.3e} > {cell_tol}")
    report = result.report
    for p in report.pairs:
        ta, tb = result.tables[p.method_a].probs, result.tables[p.method_b].probs
        agree = float(np.max(np.abs(ta - tb))) <= p.tolerance
        if agree != p.passed:
            raise CheckFailure(
                f"{p.method_a} vs {p.method_b}: verdict {'PASS' if p.passed else 'FAIL'} "
                f"but the tables {'agree' if agree else 'disagree'}"
            )
    # every table matches the reference, so the run as a whole must pass
    if not report.all_passed:
        failing = [c.name for c in report.checks if not c.passed]
        failing += [f"{p.method_a} vs {p.method_b}" for p in report.pairs if not p.passed]
        raise CheckFailure(f"verdict FAIL ({', '.join(failing)}) but every table matches the reference")
    check_csv(result, csv_text)


def check_csv(result, csv_text: str) -> None:
    """The CSV lists every cell of every (all-complete) table, values round-tripping."""
    lines = csv_text.split("\n")
    if lines[0] != "n,m,method,probability" or lines[-1] != "":
        raise CheckFailure("CSV header or trailing newline missing")
    body = lines[1:-1]
    start = 0
    for method in sorted(result.tables):
        probs = np.asarray(result.tables[method].probs)
        chunk = body[start : start + probs.size]
        start += probs.size
        if len(chunk) != probs.size or not chunk[-1].startswith(
            f"{probs.shape[0] - 1},{probs.shape[1] - 1},{method},"
        ):
            raise CheckFailure(f"CSV rows for {method} missing or out of order")
        values = np.array([line.rsplit(",", 1)[1] for line in chunk], dtype=float)
        if not np.array_equal(values, probs.ravel()):
            raise CheckFailure(f"CSV values for {method} differ from the table")
    if start != len(body):
        raise CheckFailure("CSV holds rows beyond the tables")


def check_roots(roots, pmf: np.ndarray, s: int, u: complex) -> None:
    """s roots strictly inside the unit disk, each a zero of z^s - u A(z)."""
    z = np.asarray(roots.roots)
    if len(z) != s:
        raise CheckFailure(f"{len(z)} kernel roots at u={u}, expected {s}")
    if not np.all(np.abs(z) < 1.0):
        raise CheckFailure(f"kernel root outside the open unit disk at u={u}")
    resid = np.abs(z**s - u * np.polyval(pmf[::-1], z))
    if not np.all(resid <= 1e-10):
        raise CheckFailure(f"kernel residual {resid.max():.3e} > 1e-10 at u={u}")


def check_point(method: str, value, ref: complex, u: complex, z: complex, tol: float) -> None:
    """One transform value against the truncated sum, and F(u, 1) = 1/(1-u)."""
    if not np.isfinite(value):
        raise CheckFailure(f"{method}: non-finite F({u}, {z})")
    dev = abs(value - ref)
    if dev > tol:
        raise CheckFailure(f"{method}: F({u:.4f}, {z:.4f}) misses the reference by {dev:.3e} > {tol}")
    if z == 1.0 and abs(value - 1.0 / (1.0 - u)) > tol:
        raise CheckFailure(f"{method}: F({u:.4f}, 1) differs from 1/(1-u)")
