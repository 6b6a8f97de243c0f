import warnings

import numpy as np
import pytest

import reflectedwalk as rw
from reflectedwalk import cli, kernel
from reflectedwalk.kernel import _polish, kernel_deriv_eval, kernel_eval

from conftest import standard_distributions

# complex u on the inversion circle and inside it, both half planes
COMPLEX_US = (0.5 * np.exp(0.3j), 0.5 * np.exp(2.5j), 0.9 * np.exp(-1.2j), 0.3j)


def _polish_one(dist, u, z):
    """The per-root Newton loop that the array polish must reproduce."""
    res = abs(kernel_eval(dist, u, z))
    for _ in range(50):
        if res <= kernel.POLISH_TARGET:
            break
        fp = kernel_deriv_eval(dist, u, z)
        if fp == 0:
            break
        cand = z - kernel_eval(dist, u, z) / fp
        cand_res = abs(kernel_eval(dist, u, cand))
        if cand_res >= res:
            break
        z, res = cand, cand_res
    return z


def _outer_root(simple, u):
    """The simple walk's kernel root outside the unit disk at u."""
    true_roots = np.roots(kernel.kernel_coeffs(simple, u)[::-1])
    return complex(true_roots[np.abs(true_roots) > 1][0])


def _fake_eigvals(monkeypatch, rows):
    """Make the stacked companion solve return `rows`, one per matrix."""
    rows = np.array(rows, dtype=complex, ndmin=2)
    monkeypatch.setattr(np.linalg, "eigvals", lambda stack: rows)


def _assert_same_sets(a, b, atol):
    """Each root of a lies within atol of its own match from b."""
    assert len(a) == len(b)
    unused = list(np.asarray(b))
    for z in a:
        k = int(np.argmin(np.abs(np.asarray(unused) - z)))
        assert abs(unused.pop(k) - z) <= atol


class TestFindKernelRoots:
    def test_simple_walk_quadratic_root(self, simple):
        rs = rw.find_kernel_roots(simple, 0.5)
        assert len(rs) == 1
        assert rs.roots[0] == pytest.approx(2.0 - np.sqrt(3.0), abs=1e-12)

    def test_a_equals_s_all_roots_at_origin(self, dists):
        d = dists["a-equals-s"]
        rs = rw.find_kernel_roots(d, 0.6)
        np.testing.assert_allclose(rs.roots, [0.0, 0.0], atol=1e-12)
        assert rs.max_modulus <= 1e-12

    def test_a_zero_radical_roots(self, dists):
        d = dists["a-zero"]  # kernel z^2 - u
        rs = rw.find_kernel_roots(d, 0.25)
        np.testing.assert_allclose(sorted(rs.roots.real), [-0.5, 0.5], atol=1e-12)
        np.testing.assert_allclose(rs.roots.imag, 0.0, atol=1e-12)

    def test_u_zero(self, dists):
        for d in dists.values():
            rs = rw.find_kernel_roots(d, 0.0)
            np.testing.assert_allclose(rs.roots, 0.0, atol=1e-12)

    def test_u_outside_disk_rejected(self, simple):
        with pytest.raises(ValueError):
            rw.find_kernel_roots(simple, 1.0)

    def test_residuals_small(self, dists):
        for d in dists.values():
            for u in (0.1, 0.5, 0.9):
                rs = rw.find_kernel_roots(d, u)
                assert np.all(rs.residuals <= 1e-10)
                direct = np.abs(kernel_eval(d, u, rs.roots))
                np.testing.assert_allclose(rs.residuals, direct, atol=1e-14)

    def test_conjugate_symmetry_for_real_u(self, dists):
        for d in dists.values():
            for u in (0.3, 0.7):
                rs = rw.find_kernel_roots(d, u)
                conj = np.sort_complex(np.conj(rs.roots))
                np.testing.assert_allclose(
                    np.sort_complex(rs.roots), conj, atol=1e-10
                )

    @pytest.mark.parametrize("u", COMPLEX_US)
    def test_conjugate_u_gives_conjugate_roots(self, dists, u):
        laws = dict(dists, heavy=rw.make_family("poisson", 20, lam=19.0))
        for d in laws.values():
            rs = rw.find_kernel_roots(d, u)
            rs_conj = rw.find_kernel_roots(d, np.conj(u))
            _assert_same_sets(rs.roots, np.conj(rs_conj.roots), atol=1e-14)

    def test_roots_just_outside_band_are_not_polished(self, simple, monkeypatch):
        # kernel -w^2/4 + w - 1/4 at u = 0.5: roots 2 -+ sqrt(3); move the
        # in-disk eigenvalue to |z| > 1 + POLISH_BAND, where Newton from it
        # would reach the true root, so the count must come up short
        outer = _outer_root(simple, 0.5)
        nudged = 1.0 + 1.5 * kernel.POLISH_BAND
        _fake_eigvals(monkeypatch, [outer, nudged])
        with pytest.raises(rw.KernelRootError, match="expected 1 in-disk roots, found 0"):
            rw.find_kernel_roots(simple, 0.5)
        # the same start inside the band is polished into the disk
        _fake_eigvals(monkeypatch, [outer, 1.0 + 0.5 * kernel.POLISH_BAND])
        rs = rw.find_kernel_roots(simple, 0.5)
        assert rs.roots[0] == pytest.approx(2.0 - np.sqrt(3.0), abs=1e-12)

    def test_rouche_count_and_strict_interior(self, dists):
        for d in dists.values():
            for u in (0.25, 0.6, 0.95):
                rs = rw.find_kernel_roots(d, u)
                assert len(rs) == d.s
                assert rs.max_modulus < 1.0

    @pytest.mark.parametrize("u", [0.1, 0.25, 0.5, 0.7])
    def test_tiny_top_coefficient(self, u):
        # binomial(80, 0.1): P(A = 80) = 1e-80 makes the far companion
        # eigenvalues inaccurate; none of them may enter the in-disk count
        d = rw.make_family("binomial", 9, n=80, p=0.1)
        rs = rw.find_kernel_roots(d, u)
        assert len(rs) == 9
        assert rs.max_modulus < 1.0


class TestBatchedRoots:
    """An array of u is one stacked solve whose rows are the scalar calls."""

    LAWS = dict(standard_distributions(), heavy=rw.make_family("poisson", 15, lam=14.0))
    # the upper-half inversion nodes at |u| = 0.5, and two lower-half points
    NODES = np.append(0.5 * np.exp(2j * np.pi * np.arange(33) / 64), [0.3 - 0.4j, -0.2j])

    @pytest.mark.parametrize("law", sorted(LAWS))
    def test_rows_match_scalar_calls(self, law):
        d = self.LAWS[law]
        batch = rw.find_kernel_roots(d, self.NODES)
        assert batch.roots.shape == batch.residuals.shape == (len(self.NODES), d.s)
        assert len(batch) == d.s
        moduli = []
        for k, u in enumerate(self.NODES):
            one = rw.find_kernel_roots(d, u)
            np.testing.assert_array_equal(batch.roots[k], one.roots)
            np.testing.assert_array_equal(batch.residuals[k], one.residuals)
            moduli.append(one.max_modulus)
        assert batch.max_modulus == max(moduli)

    @pytest.mark.parametrize("law", sorted(LAWS))
    def test_stacked_solve_matches_np_roots(self, law):
        # np.roots, one u at a time, is the reference for every row,
        # u = 0 included; the inf padding of short rows is no root.  A real
        # row is passed as real, as np.roots then solves it in real arithmetic
        d = self.LAWS[law]
        coeffs = kernel.kernel_coeffs(d, np.append(self.NODES, 0.0))
        cand = kernel._companion_roots(coeffs)
        for row, c in zip(cand, coeffs):
            p = c[::-1] if np.any(c.imag) else c[::-1].real
            np.testing.assert_array_equal(row[np.isfinite(row)], np.roots(p))

    def test_u_zero_and_roots_at_origin_in_a_batch(self, dists):
        # u = 0 strips both ends of the kernel's coefficients, and P(A=0) = 0
        # its low end at every u: such rows are solved apart, same results
        us = np.array([0.0, 0.3, 0.5j, 0.0])
        for d in dists.values():
            batch = rw.find_kernel_roots(d, us)
            for k, u in enumerate(us):
                np.testing.assert_array_equal(batch.roots[k], rw.find_kernel_roots(d, u).roots)
            np.testing.assert_allclose(batch.roots[0], 0.0, atol=1e-12)

    def test_real_rows_solved_in_real_arithmetic(self, dists, monkeypatch):
        # the real u share one real eigenvalue call, the others one complex
        # call, and each row still equals its scalar call to the bit
        d = dists["poisson"]
        us = np.array([0.25, 0.3j, 0.5, 0.5 * np.exp(0.3j)])
        expected = [rw.find_kernel_roots(d, u).roots for u in us]
        solved = []
        eigvals = np.linalg.eigvals
        monkeypatch.setattr(np.linalg, "eigvals",
                            lambda a: solved.append((a.dtype, len(a))) or eigvals(a))
        batch = rw.find_kernel_roots(d, us)
        assert sorted(solved, key=str) == [(np.complex128, 2), (np.float64, 2)]
        for row, one in zip(batch.roots, expected):
            np.testing.assert_array_equal(row, one)

    def test_batch_names_the_failing_u(self, simple, monkeypatch):
        # the count check of test_roots_just_outside_band_are_not_polished,
        # failing in the middle row of a batch only
        us = np.array([0.5, 0.4, 0.3])
        inside = 1.0 + 0.5 * kernel.POLISH_BAND
        rows = [[_outer_root(simple, u), inside] for u in us]
        rows[1][1] = 1.0 + 1.5 * kernel.POLISH_BAND
        _fake_eigvals(monkeypatch, rows)
        with pytest.raises(rw.KernelRootError, match=r"found 0 at u=0\.4;"):
            rw.find_kernel_roots(simple, us)
        rows[1][1] = inside
        _fake_eigvals(monkeypatch, rows)
        rs = rw.find_kernel_roots(simple, us)
        np.testing.assert_allclose(rs.roots[:, 0], (1 - np.sqrt(1 - us**2)) / us, atol=1e-12)

    def test_u_outside_disk_rejected(self, simple):
        with pytest.raises(ValueError, match="< 1"):
            rw.find_kernel_roots(simple, np.array([0.5, 1.0]))

    @pytest.mark.parametrize("law", sorted(LAWS))
    def test_product_rows_match_scalar_calls(self, law):
        d = self.LAWS[law]
        zs = np.exp(2j * np.pi * np.arange(16) / 16) * 0.9
        batch = rw.find_kernel_roots(d, self.NODES)
        grid = rw.product_eval(d, self.NODES, zs, batch)
        assert grid.shape == (len(self.NODES), len(zs))
        column = rw.product_eval(d, self.NODES, 0.5, batch)
        for k, u in enumerate(self.NODES):
            one = rw.find_kernel_roots(d, u)
            np.testing.assert_array_equal(grid[k], rw.product_eval(d, u, zs, one))
            assert column[k] == rw.product_eval(d, u, 0.5, one)


with warnings.catch_warnings():
    # P(A=0) = 0 is accepted with a warning
    warnings.simplefilter("ignore", UserWarning)
    A0_ZERO = rw.make_family("explicit", 2, probs=[0.0, 0.5, 0.5])


class TestTrackKernelRoots:
    """One companion solve at u[0], gated Newton roots at the other nodes."""

    # the upper-half u nodes of a run at n_max = 6, TestBatchedRoots' nodes
    # on |u| = 0.5, and the structural checks' two u
    NU, R = cli.u_circle(6)
    ARRAYS = {
        "u-circle": R * np.exp(2j * np.pi * np.arange(NU // 2 + 1) / NU),
        "batched": TestBatchedRoots.NODES,
        "checks": np.array([0.25, 0.5]),
    }
    LAWS = TestBatchedRoots.LAWS
    # the gate admits rows whose roots move F by at most ETA to first order,
    # so each root is within ETA / 2 of its true value up to the kernel's
    # evaluation error; the companion's polished roots are as close
    SET_TOL = 1e-14

    @pytest.mark.parametrize("nodes", sorted(ARRAYS))
    @pytest.mark.parametrize("law", sorted(LAWS))
    def test_rows_match_the_companion_as_sets(self, law, nodes):
        d, u = self.LAWS[law], self.ARRAYS[nodes]
        tracked, companion = rw.track_kernel_roots(d, u), rw.find_kernel_roots(d, u)
        assert tracked.roots.shape == tracked.residuals.shape == (len(u), d.s)
        for k in range(len(u)):
            _assert_same_sets(tracked.roots[k], companion.roots[k], self.SET_TOL)
            # rows keep find_kernel_roots' order: by real part, then imaginary
            row = tracked.roots[k]
            np.testing.assert_array_equal(row, row[np.lexsort((row.imag, row.real))])
        # |k(z)| as the tracker evaluates it, from a table of powers
        np.testing.assert_allclose(
            tracked.residuals, np.abs(kernel_eval(d, u[:, None], tracked.roots)),
            rtol=0, atol=1e-15,
        )
        assert np.all(tracked.residuals <= kernel.RESIDUAL_TOL)
        assert tracked.max_modulus == np.max(np.abs(tracked.roots))

    FALLBACK = {
        # ill-conditioned roots: the forward-error sum at u[0] reads 2e-5
        "poisson-45-50": (rw.make_family("poisson", 50, lam=45.0), ARRAYS["u-circle"]),
        # a double root at the origin: k'(0) = 0
        "a-equals-s": ("a-equals-s", ARRAYS["u-circle"]),
        # P(A=0) = 0: a simple root at the origin, where delta's scale is 0
        "a0-zero": (A0_ZERO, ARRAYS["u-circle"]),
        # u[0] = 0: every root at the origin
        "u0-zero": ("simple-walk", np.append(0.0, ARRAYS["u-circle"])),
        "u0-zero-geometric": ("geometric", np.append(0.0, ARRAYS["u-circle"])),
    }

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("case", sorted(FALLBACK))
    def test_fallback_rows_are_the_companion_rows(self, dists, case):
        d, u = self.FALLBACK[case]
        d = dists[d] if isinstance(d, str) else d
        tracked, companion = rw.track_kernel_roots(d, u), rw.find_kernel_roots(d, u)
        np.testing.assert_array_equal(tracked.roots, companion.roots)
        np.testing.assert_array_equal(tracked.residuals, companion.residuals)
        assert tracked.max_modulus == companion.max_modulus

    def test_forward_error_is_inf_at_a_multiple_or_origin_root(self, dists):
        u = np.array([0.3])
        for d, z in ((dists["a-equals-s"], [0.0, 0.0]), (A0_ZERO, [0.0, 0.3])):
            with np.errstate(all="raise"):
                _, delta, bound = kernel._forward_errors(d, u, np.array([z], dtype=complex))
            assert delta[0, 0] == np.inf and bound[0] == np.inf

    def test_gate_rejects_ill_conditioned_roots(self, dists):
        # poisson(45), s = 50 at u[0] of the run's circle: the companion's
        # roots are inside, separated and at roundoff, but F from roots each
        # off by their forward error could move by 2e-5; geometric(0.5)
        # reads 3e-16 and passes
        u = self.ARRAYS["u-circle"][:1]
        for d, passes in ((self.FALLBACK["poisson-45-50"][0], False), (dists["geometric"], True)):
            z = rw.find_kernel_roots(d, u).roots
            residuals, delta, bound = kernel._forward_errors(d, u, z)
            spread = np.abs(z[0][:, None] - z[0][None, :]) + np.diag(np.full(d.s, np.inf))
            assert np.all(residuals <= 1e-15) and spread.min() > 2.0 * delta.max()
            assert kernel._gate(d, u, z)[0].tolist() == [passes]
            assert (bound[0] <= kernel.ETA) == passes

    def test_gate_rejects_a_duplicate_or_outside_root(self, dists):
        d = dists["poisson"]
        u = np.array([0.4, 0.4, 0.4])
        good = rw.find_kernel_roots(d, 0.4).roots
        z = np.array([good, [good[0], good[0]], [good[0], 1.5]])
        ok, residuals = kernel._gate(d, u, z)
        assert ok.tolist() == [True, False, False]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_seed_outside_the_band_is_not_evaluated(self):
        # J = 1000: 3^1000 overflows, so a seed at |z| = 3 must stop unconverged
        # before its powers are formed; the seed at 0.5 still converges
        d = rw.make_family("explicit", 400, probs=[1.0 / 1001] * 1001)
        z, done = kernel._newton(d, np.array([0.5, 0.5]), np.array([3.0, 0.5], dtype=complex))
        assert z[0] == 3.0 and done.tolist() == [False, True]
        assert abs(kernel_eval(d, 0.5, z[1])) <= 1e-15

    def test_one_companion_matrix_per_u_circle(self, dists, monkeypatch):
        # geometric(0.5), s = 1: one companion solve at u[0] serves all 17
        # nodes (one per node before the tracker)
        solved = []
        eigvals = np.linalg.eigvals
        monkeypatch.setattr(np.linalg, "eigvals", lambda a: solved.append(len(a)) or eigvals(a))
        cfg = cli.RunConfig(family="geometric", s=1, n_max=6, m_max=6)
        cli._compute_tables(dists["geometric"], cfg, ("product",), None)
        assert solved == [1]

    def test_row_is_the_scalar_root_set(self, dists):
        d = dists["poisson"]
        u = self.ARRAYS["checks"]
        rs = rw.find_kernel_roots(d, u)
        for k in range(len(u)):
            one, row = rw.find_kernel_roots(d, u[k]), rs.row(k)
            np.testing.assert_array_equal(row.roots, one.roots)
            np.testing.assert_array_equal(row.residuals, one.residuals)
            assert row.max_modulus == one.max_modulus


class TestProductEval:
    def test_value_at_one_is_geometric_sum(self, dists):
        for d in dists.values():
            for u in (0.2, 0.5, 0.8):
                rs = rw.find_kernel_roots(d, u)
                val = rw.product_eval(d, u, 1.0, rs)
                assert abs(val - 1.0 / (1.0 - u)) <= 1e-12 / (1.0 - u)

    def test_degenerate_transform_is_geometric(self, dists):
        d = dists["a-equals-s"]
        rs = rw.find_kernel_roots(d, 0.4)
        assert rw.product_eval(d, 0.4, 0.7, rs) == pytest.approx(1.0 / 0.6, rel=1e-13)

    def test_matches_series_partial_sum(self, simple):
        u, z, n_cap = 0.5, 0.5, 60
        f = rw.spitzer_series(simple, n_cap, n_cap)
        rs = rw.find_kernel_roots(simple, u)
        partial = f.partial_sum(u, z)
        tail = u ** (n_cap + 1) / (1.0 - u)
        assert abs(rw.product_eval(simple, u, z, rs) - partial) <= tail + 1e-10

    def test_rejects_z_at_root(self, simple):
        rs = rw.find_kernel_roots(simple, 0.5)
        with pytest.raises(ValueError, match="root"):
            rw.product_eval(simple, 0.5, complex(rs.roots[0]), rs)

    def test_vectorized_matches_scalar(self, simple):
        rs = rw.find_kernel_roots(simple, 0.5)
        zs = np.array([0.1, 0.5, 0.9])
        vec = rw.product_eval(simple, 0.5, zs, rs)
        for z, v in zip(zs, vec):
            assert v == pytest.approx(rw.product_eval(simple, 0.5, z, rs))


class TestLogResidueCheck:
    def test_single_root_closed_form(self):
        # A identically 0 with s = 1: single root z_0 = u
        d = rw.make_family("deterministic", 1, c=0)
        lhs, rhs = rw.root_logresidue_check(d, 0.25, 0.5, 0.35, nodes=512)
        assert lhs == pytest.approx(np.log((0.5 - 0.25) / 0.75), abs=1e-12)
        assert rhs == pytest.approx(lhs, abs=1e-10)

    def test_roots_at_origin_closed_form(self, dists):
        d = dists["a-equals-s"]
        lhs, rhs = rw.root_logresidue_check(d, 0.5, 0.5, 0.25, nodes=512)
        assert lhs == pytest.approx(d.s * np.log(0.5), abs=1e-12)
        assert rhs == pytest.approx(lhs, abs=1e-10)

    def test_simple_walk_agreement(self, simple):
        lhs, rhs = rw.root_logresidue_check(simple, 0.5, 0.6, 0.4, nodes=512)
        z0 = 2.0 - np.sqrt(3.0)
        assert lhs == pytest.approx(np.log((0.6 - z0) / (1.0 - z0)), abs=1e-12)
        assert abs(lhs - rhs) <= 1e-10

    def test_tiny_kernel_on_the_contour(self):
        # poisson(100), s = 50 at u = 0.5: |k(w)| on |w| = a is far below
        # 1e-12, yet close to its scale a^s + u A(a), so the check runs
        d = rw.make_family("poisson", 50, lam=100.0)
        top = rw.find_kernel_roots(d, 0.5).max_modulus
        z = 0.5 * (top + 1.0)
        a = 0.5 * (top + z)
        w = a * np.exp(2j * np.pi * np.arange(2048) / 2048)
        assert np.min(np.abs(kernel_eval(d, 0.5, w))) < 1e-12
        lhs, rhs = rw.root_logresidue_check(d, 0.5, z, a, nodes=2048)
        assert abs(lhs - rhs) <= 1e-8

    def test_given_roots_are_used(self, dists):
        d = dists["poisson"]
        top = rw.find_kernel_roots(d, 0.5).max_modulus
        z, a = 0.5 * (top + 1.0), 0.25 * (3.0 * top + 1.0)
        own = rw.root_logresidue_check(d, 0.5, z, a, nodes=512)
        given = rw.root_logresidue_check(d, 0.5, z, a, nodes=512,
                                         roots=rw.find_kernel_roots(d, 0.5))
        assert given == own
        wrong = rw.root_logresidue_check(d, 0.5, z, a, nodes=512,
                                         roots=rw.find_kernel_roots(d, 0.25))
        assert wrong[0] != own[0] and wrong[1] == own[1]

    def test_radius_ordering_enforced(self, simple):
        with pytest.raises(ValueError, match="<"):
            rw.root_logresidue_check(simple, 0.5, 0.6, 0.7, nodes=512)
        with pytest.raises(ValueError):
            rw.root_logresidue_check(simple, 0.5, 0.6, 0.1, nodes=512)


class TestNewtonPolish:
    def test_polish_never_increases_residual(self, dists):
        rng = np.random.default_rng(42)
        for d in dists.values():
            for _ in range(10):
                u = rng.uniform(0.05, 0.9)
                z = rng.uniform(-0.9, 0.9) + 1j * rng.uniform(-0.5, 0.5)
                before = abs(kernel_eval(d, u, z))
                _, after = _polish(d, u, z)
                assert after <= before

    @pytest.mark.parametrize("u", (0.3, 0.85) + COMPLEX_US)
    def test_array_polish_matches_per_root_loop(self, dists, u):
        rng = np.random.default_rng(7)
        for d in dists.values():
            # the companion eigenvalues polished in find_kernel_roots, as they
            # come and nudged off the roots; next to a critical point of the
            # kernel, Newton's first step overshoots and must be rejected
            coeffs = kernel.kernel_coeffs(d, u)[::-1]
            eig = np.roots(coeffs).astype(complex)
            eig = eig[np.abs(eig) < 1.0 + kernel.POLISH_BAND]
            crit = np.roots(np.polyder(coeffs)) + 1e-7 * (1 + 1j)
            z0 = np.concatenate([eig, crit] + [
                eig + scale * (rng.standard_normal(eig.shape) + 1j * rng.standard_normal(eig.shape))
                for scale in (1e-6, 1e-3)
            ])
            z, res = _polish(d, u, z0)
            want = np.array([_polish_one(d, u, complex(w)) for w in z0])
            np.testing.assert_allclose(z, want, rtol=0, atol=1e-14)
            assert np.all(res <= np.abs(kernel_eval(d, u, z0)))
            np.testing.assert_array_equal(res, np.abs(kernel_eval(d, u, z)))
