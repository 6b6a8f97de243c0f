"""Self-test of the benchmark's reference and checker.

Run:  python3 crossbench/selftest.py

Shows that the reference recursion matches exhaustive path enumeration,
that a correct run passes the checker, and that the checker flags a table
with one cell moved by 1e-6, a wrong pair verdict, a wrong overall verdict,
a CSV that differs from its table, and a transform value off by 1e-6.
Exits 0 when every case behaves as stated.
"""

from __future__ import annotations

import dataclasses
import itertools
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

import reference as ref  # noqa: E402
from reflectedwalk import cli  # noqa: E402


def enumerated_law(pmf, s, n):
    """P(M_n = m) exactly, by walking every path of n increments."""
    law = {}
    for path in itertools.product(range(len(pmf)), repeat=n):
        weight, level = Fraction(1), 0
        for a in path:
            weight *= pmf[a]
            level = max(level + a - s, 0)
        law[level] = law.get(level, 0) + weight
    return law


def flags(check, *args) -> bool:
    try:
        check(*args)
    except ref.CheckFailure:
        return True
    return False


def with_table(result, method, probs):
    tables = dict(result.tables)
    tables[method] = dataclasses.replace(tables[method], probs=probs)
    return dataclasses.replace(result, tables=tables)


def with_report(result, pairs=None, checks=None):
    report = dataclasses.replace(
        result.report,
        pairs=result.report.pairs if pairs is None else pairs,
        checks=result.report.checks if checks is None else checks,
    )
    return dataclasses.replace(result, report=report)


def main() -> int:
    cases = []

    exact = [Fraction(1, 5), Fraction(1, 2), Fraction(0), Fraction(3, 10)]
    rows = ref.reflected_law(np.array([float(p) for p in exact]), 2, 5)
    worst = max(
        abs(float(prob) - (rows[n][m] if m < len(rows[n]) else 0.0))
        for n in range(6) for m, prob in enumerated_law(exact, 2, n).items()
    )
    cases.append(("reference recursion matches path enumeration", worst < 1e-15))

    text = "family = binomial\ns = 2\nn = 3\np = 0.4\nn_max = 6\nm_max = 6\n" \
           "methods = dp, spitzer, product, pollaczek\n"
    cfg = cli.parse_config(text)
    result = cli.run(cfg)
    csv = cli.render_csv(result)
    pmf = ref.family_pmf("binomial", {"n": 3, "p": 0.4}, 4)
    table = ref.reference_table(ref.reflected_law(pmf, 2, 6), 6)
    tol = cfg.methods, cfg.tolerance
    cases.append(("a correct run passes", not flags(ref.check_run, result, csv, table, *tol)))

    for method in ("dp", "product"):
        moved = np.array(result.tables[method].probs)
        moved[3, 2] += 1e-6
        bad = with_table(result, method, moved)
        cases.append((f"one {method} cell moved by 1e-6 is flagged",
                      flags(ref.check_run, bad, cli.render_csv(bad), table, *tol)))

    pairs = [dataclasses.replace(p, passed=not p.passed) if i == 0 else p
             for i, p in enumerate(result.report.pairs)]
    cases.append(("a wrong pair verdict is flagged",
                  flags(ref.check_run, with_report(result, pairs=pairs), csv, table, *tol)))
    checks = [dataclasses.replace(c, passed=False) if c.name == "numerator" else c
              for c in result.report.checks]
    cases.append(("a FAIL verdict on correct tables is flagged",
                  flags(ref.check_run, with_report(result, checks=checks), csv, table, *tol)))

    lines = csv.split("\n")
    lines[5] = lines[5].rsplit(",", 1)[0] + ",0.5"
    cases.append(("a CSV cell that differs from its table is flagged",
                  flags(ref.check_csv, result, "\n".join(lines))))

    value = ref.transform_values(ref.reflected_law(pmf, 2, 80), [0.5], [0.3j])[0, 0]
    cases.append(("a transform value off by 1e-6 is flagged",
                  flags(ref.check_point, "product", value + 1e-6, value, 0.5, 0.3j, 1e-9)))
    cases.append(("F(u, 1) off 1/(1-u) is flagged",
                  flags(ref.check_point, "product", 2.0 + 1e-6, 2.0 + 1e-6, 0.5, 1.0, 1e-9)))

    for name, ok in cases:
        print(f"{'ok  ' if ok else 'FAIL'} {name}")
    return 0 if all(ok for _, ok in cases) else 1


if __name__ == "__main__":
    sys.exit(main())
