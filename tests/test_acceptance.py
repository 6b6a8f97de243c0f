"""Acceptance suite: one test per criterion, one PASS line each (run with -s).

Covers the six standard distributions; transform-grid cells where z
coincides with a kernel root (A identically s at z = 0) are exercised as
the documented rejection and excluded from numeric comparison.
"""

import time

import numpy as np
import pytest
from numpy.polynomial.polynomial import polyval2d

import reflectedwalk as rw
from reflectedwalk import cli
from reflectedwalk._complex import circle

V_CAP = 0.75
U_GRID = (0.1, 0.3, 0.5, 0.7, 0.9 * V_CAP)
Z_GRID = (0.0, 0.25, 0.5, 0.75, 1.0)


def _report(name, detail):
    print(f"\nACCEPTANCE {name}: PASS ({detail})")


def _product_or_rejection(d, u, z, roots):
    try:
        return rw.product_eval(d, u, z, roots)
    except ValueError:
        # z sits on a kernel root; the rejection is the specified behavior
        assert np.min(np.abs(z - roots.roots)) < 1e-12 * max(1.0, abs(z))
        return None


def test_criterion_1_spitzer_vs_dp(dists):
    start = time.perf_counter()
    worst = 0.0
    for name, d in dists.items():
        n_cap = 40
        m_full = max(n_cap * d.support_growth, 1)
        table = rw.lindley_dp(d, n_cap, m_full)
        series = rw.spitzer_series(d, n_cap, m_full)
        assert np.all(table.complete_rows)
        dev = np.max(np.abs(table.probs - series))
        assert dev <= 1e-11, (name, dev)
        worst = max(worst, dev)
    elapsed = time.perf_counter() - start
    assert elapsed <= 5.0, f"runtime {elapsed:.2f}s exceeds 5s"
    _report("1 spitzer-vs-dp", f"max dev {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_product_vs_partial_sum(dists):
    start = time.perf_counter()
    n_cap = 60
    worst_slack = -np.inf
    for name, d in dists.items():
        # degree cap far beyond any reachable level at n <= 60
        m_cap = max(min(n_cap * d.support_growth, 256), 1)
        series = rw.spitzer_series(d, n_cap, m_cap)
        for u in U_GRID:
            roots = rw.find_kernel_roots(d, u)
            tol = u ** (n_cap + 1) / (1.0 - u) + 1e-10
            for z in Z_GRID:
                val = _product_or_rejection(d, u, z, roots)
                if val is None:
                    continue
                err = abs(val - polyval2d(u, z, series))
                assert err <= tol, (name, u, z, err, tol)
                worst_slack = max(worst_slack, err - tol)
    elapsed = time.perf_counter() - start
    assert elapsed <= 2.0, f"runtime {elapsed:.2f}s exceeds 2s"
    _report("2 product-vs-spitzer", f"worst slack {worst_slack:.2e}, {elapsed:.2f}s")


def test_criterion_3_pollaczek_vs_product(dists, simple):
    start = time.perf_counter()
    quad = rw.CircleQuadrature()
    worst = 0.0
    for name, d in dists.items():
        cert = rw.choose_outer_radius(d, V_CAP)
        for u in U_GRID:
            if u > cert.v:
                continue
            roots = rw.find_kernel_roots(d, u)
            for z in Z_GRID:
                pe = _product_or_rejection(d, u, z, roots)
                if pe is None:
                    continue
                pl = rw.pollaczek_eval(d, u, z, cert, quad)
                err = abs(pe - pl)
                assert err <= 1e-9, (name, u, z, err)
                worst = max(worst, err)

    # quadrature error at least squares per node doubling down to 1e-11
    cert = rw.choose_outer_radius(simple, V_CAP)
    u, z = 0.5, 0.5
    ref = rw.pollaczek_eval(
        simple, u, z, cert, rw.CircleQuadrature(nodes=1 << 14, tol=1e-13)
    )

    def estimate(nodes):
        w = circle(cert.b, nodes)
        lw = np.log(1.0 - u * rw.pgf_eval(simple, w) / w**simple.s)
        frac = (1.0 - z) / ((w - 1.0) * (w - z))
        return np.exp(np.mean(frac * lw * w)) / (1.0 - u)

    errors = [abs(estimate(1 << k) - ref) for k in range(4, 14)]
    reached_floor = False
    for e_n, e_2n in zip(errors, errors[1:]):
        if e_n < 1e-11:
            reached_floor = True
            break
        assert e_2n <= max(10.0 * e_n**2, 1e-11), (e_n, e_2n)
    assert reached_floor or errors[-1] < 1e-11
    elapsed = time.perf_counter() - start
    assert elapsed <= 5.0, f"runtime {elapsed:.2f}s exceeds 5s"
    _report("3 pollaczek-vs-product", f"max dev {worst:.2e}, {elapsed:.2f}s")


def test_criterion_4_coefficient_identity(dists):
    quad = rw.CircleQuadrature()
    worst = 0.0
    for name, d in dists.items():
        cert = rw.choose_outer_radius(d, V_CAP)
        for l in range(1, 21):
            for k in range(1, 21):
                integral, pmf = rw.verify_coeff_identity(d, l, k, cert, quad)
                err = abs(integral - pmf)
                assert err <= 1e-10, (name, l, k, err)
                worst = max(worst, err)
    _report("4 coefficient-identity", f"max dev {worst:.2e}")


def test_criterion_5_log_residue(dists):
    worst = 0.0
    for name, d in dists.items():
        for u in (0.25, 0.5, 0.75):
            roots = rw.find_kernel_roots(d, u)
            z = 0.5 * (roots.max_modulus + 1.0)
            a = 0.5 * (roots.max_modulus + z)
            lhs, rhs = rw.root_logresidue_check(d, u, z, a, nodes=2048)
            err = abs(lhs - rhs)
            assert err <= 1e-8, (name, u, err)
            worst = max(worst, err)
    _report("5 log-residue", f"max dev {worst:.2e}")


def test_criterion_6_structural_checks(dists):
    worst_feq = 0.0
    worst_num = 0.0
    for name, d in dists.items():
        n_cap = 40
        table = rw.lindley_dp(d, n_cap, max(n_cap * d.support_growth, d.s))
        for n in range(n_cap):
            for z in (0.2, 0.5, 0.8, 1.0):
                res = rw.functional_equation_check(d, table, n, z)
                assert res <= 1e-11, (name, n, z, res)
                worst_feq = max(worst_feq, res)
        for u in (0.25, 0.5):
            roots = rw.find_kernel_roots(d, u)
            res = rw.numerator_check(d, u, roots, tol=1e-9)
            assert res <= 1e-9, (name, u, res)
            worst_num = max(worst_num, res)
    _report(
        "6 structural-checks",
        f"functional {worst_feq:.2e}, numerator {worst_num:.2e}",
    )


def test_criterion_7_root_quality(dists):
    rng = np.random.default_rng(20240817)
    names = sorted(dists)
    checked = 0
    for i in range(200):
        d = dists[names[rng.integers(len(names))]]
        radius = rng.uniform(0.01, 0.95)
        if i % 2 == 0:
            u = radius
        else:
            u = radius * np.exp(2j * np.pi * rng.uniform())
        roots = rw.find_kernel_roots(d, u)
        assert len(roots) == d.s
        assert roots.max_modulus < 1.0
        assert np.all(roots.residuals <= 1e-10)
        if np.isrealobj(u) or u.imag == 0.0:
            sorted_roots = np.sort_complex(roots.roots)
            conj = np.sort_complex(np.conj(roots.roots))
            assert np.max(np.abs(sorted_roots - conj)) <= 1e-10
        checked += 1
    assert checked == 200
    _report("7 root-quality", "200 random (dist, u) cases")


def test_criterion_8_normalization_and_monotonicity(dists):
    # transform normalization F(., 1) = 1/(1-u) for all three transform methods
    quad = rw.CircleQuadrature()
    for name, d in dists.items():
        cert = rw.choose_outer_radius(d, V_CAP)
        n_cap = 40
        series = rw.spitzer_series(d, n_cap, max(n_cap * d.support_growth, 1))
        for u in (0.1, 0.3, 0.5):
            roots = rw.find_kernel_roots(d, u)
            target = 1.0 / (1.0 - u)
            assert abs(rw.product_eval(d, u, 1.0, roots) - target) <= 1e-12 * target
            assert abs(rw.pollaczek_eval(d, u, 1.0, cert, quad) - target) <= 1e-12
            # truncated series against the exactly-truncated geometric sum
            truncated_target = (1.0 - u ** (n_cap + 1)) / (1.0 - u)
            assert abs(polyval2d(u, 1.0, series) - truncated_target) <= 1e-12

        table = rw.lindley_dp(d, 40, max(40 * d.support_growth, 1))
        tails = np.cumsum(table.probs[:, ::-1], axis=1)[:, ::-1]
        assert np.all(tails[1:, 1:] >= tails[:-1, 1:] - 1e-12), name
    _report("8 normalization-monotonicity", "all transform methods and DP tails")


def test_criterion_9_cli_determinism(dists, tmp_path, capsys):
    configs = {
        "simple-walk": "family = explicit\nprobs = 0.5 0 0.5\ns = 1\n",
        "binomial": "family = binomial\nn = 3\np = 0.4\ns = 2\n",
        "poisson": "family = poisson\nlam = 1.2\ns = 2\n",
        "geometric": "family = geometric\np = 0.5\ns = 1\n",
        "a-equals-s": "family = deterministic\nc = 2\ns = 2\n",
        "a-zero": "family = deterministic\nc = 0\ns = 2\n",
    }
    for name, head in configs.items():
        growth = dists[name].support_growth
        n_max = 6
        body = (
            head
            + "methods = dp, spitzer, product, pollaczek\n"
            + f"n_max = {n_max}\nm_max = {max(n_max * growth, 6)}\n"
        )
        cfg_path = tmp_path / f"{name}.cfg"
        cfg_path.write_text(body)
        out_a = tmp_path / f"{name}-a.csv"
        out_b = tmp_path / f"{name}-b.csv"
        code_a = cli.main(["--config", str(cfg_path), "--output", str(out_a)])
        code_b = cli.main(["--config", str(cfg_path), "--output", str(out_b)])
        assert code_a == 0, f"{name}: nonzero exit"
        assert code_b == 0
        assert out_a.read_bytes() == out_b.read_bytes(), f"{name}: not byte-identical"
    capsys.readouterr()
    _report("9 cli-determinism", f"{len(configs)} configs, byte-identical, exit 0")
