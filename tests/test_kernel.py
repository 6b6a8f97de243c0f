import dataclasses
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from numpy.polynomial.polynomial import polyval2d

import reflectedwalk as rw
from reflectedwalk import cli, kernel
from reflectedwalk._complex import circle

from conftest import standard_distributions

# complex u on the inversion circle and inside it, both half planes
COMPLEX_US = (0.5 * np.exp(0.3j), 0.5 * np.exp(2.5j), 0.9 * np.exp(-1.2j), 0.3j)


def _outer_root(simple, u):
    """The simple walk's kernel root outside the unit disk at u."""
    true_roots = np.roots(kernel.kernel_coeffs(simple, u)[::-1])
    return complex(true_roots[np.abs(true_roots) > 1][0])


def _fake_roots(monkeypatch, rows):
    """Make the companion solves' np.roots calls return `rows`, the next one per call."""
    rows = iter([np.array(row, dtype=complex) for row in rows])
    monkeypatch.setattr(np, "roots", lambda p: next(rows))


def _residuals(d, u, z):
    return np.abs(kernel.kernel_terms(d, u, z)[0])


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
                assert np.all(_residuals(d, u, rs.roots) <= 1e-10)

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

    def test_pushed_out_eigenvalue_raises(self, simple, monkeypatch):
        # kernel -w^2/4 + w - 1/4 at u = 0.5: roots 2 -+ sqrt(3); an in-disk
        # root pushed just outside the disk is returned as it comes, so the
        # count comes up short
        outer = _outer_root(simple, 0.5)
        _fake_roots(monkeypatch, [[outer, 1.0 + 0.5 * kernel.NEWTON_BAND]])
        with pytest.raises(rw.KernelRootError, match="expected 1 in-disk roots, found 0"):
            rw.find_kernel_roots(simple, 0.5)
        _fake_roots(monkeypatch, [[outer, 2.0 - np.sqrt(3.0)]])
        assert rw.find_kernel_roots(simple, 0.5).roots[0] == 2.0 - np.sqrt(3.0)

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
    """Companion rows: one solve per u, each row its scalar call to the bit."""

    LAWS = dict(standard_distributions(), heavy=rw.make_family("poisson", 15, lam=14.0))
    # the upper-half inversion nodes at |u| = 0.5, and two lower-half points
    NODES = np.append(0.5 * np.exp(2j * np.pi * np.arange(33) / 64), [0.3 - 0.4j, -0.2j])

    @pytest.mark.parametrize("law", sorted(LAWS))
    def test_rows_match_scalar_calls(self, law):
        # the rows an array call sends to the companion equal their scalar
        # calls, which are companion solves
        d = self.LAWS[law]
        roots = kernel._companion_rows(d, self.NODES)
        assert roots.shape == (len(self.NODES), d.s)
        for k, u in enumerate(self.NODES):
            np.testing.assert_array_equal(roots[k], rw.find_kernel_roots(d, u).roots)
        batch = rw.find_kernel_roots(d, self.NODES)
        assert len(batch) == d.s
        assert batch.max_modulus == max(batch.row(k).max_modulus for k in range(len(self.NODES)))

    @pytest.mark.parametrize("law", sorted(LAWS))
    def test_stacked_solve_matches_np_roots(self, law):
        # each row is the in-disk subset of np.roots, ordered by real part,
        # then imaginary part: u = 0 included, where both ends of the
        # coefficients are stripped, and P(A=0) = 0, whose zero low end is a
        # root at the origin at every u.  A real row is passed as real, as
        # np.roots then solves it in real arithmetic
        us = np.append(self.NODES, 0.0)
        for d in (self.LAWS[law], A0_ZERO):
            rows = kernel._companion_rows(d, us)
            for row, c in zip(rows, kernel.kernel_coeffs(d, us)):
                z = np.roots(c[::-1] if np.any(c.imag) else c[::-1].real)
                inside = np.sort_complex(z[np.abs(z) < 1.0 - kernel.IN_DISK_TOL])
                np.testing.assert_array_equal(row, inside)

    def test_u_zero_and_roots_at_origin_in_a_batch(self, dists):
        # u = 0 strips both ends of the kernel's coefficients, and P(A=0) = 0
        # its low end at every u; u[0] = 0 sends every row to the companion
        us = np.array([0.0, 0.3, 0.5j, 0.0])
        for d in dists.values():
            batch = rw.find_kernel_roots(d, us)
            for k, u in enumerate(us):
                np.testing.assert_array_equal(batch.roots[k], rw.find_kernel_roots(d, u).roots)
            np.testing.assert_allclose(batch.roots[0], 0.0, atol=1e-12)

    def test_real_rows_solved_in_real_arithmetic(self, dists, monkeypatch):
        # each real u makes one np.roots call on float64 coefficients, each
        # other u one on complex coefficients, and each row still equals its
        # scalar call to the bit
        d = dists["poisson"]
        us = np.array([0.25, 0.3j, 0.5, 0.5 * np.exp(0.3j)])
        expected = [rw.find_kernel_roots(d, u).roots for u in us]
        solved = []
        roots_of = np.roots
        monkeypatch.setattr(np, "roots", lambda p: solved.append(p.dtype) or roots_of(p))
        roots = kernel._companion_rows(d, us)
        assert solved == [np.float64, np.complex128] * 2
        for row, one in zip(roots, expected):
            np.testing.assert_array_equal(row, one)

    def test_batch_names_the_failing_u(self, simple, monkeypatch):
        # the count check of test_pushed_out_eigenvalue_raises, failing in
        # the middle row of a batch only.  u[0] = 0 makes every row a
        # companion row; its kernel w, stripped at both ends, has the one
        # root 0, and the faked rows after it serve u = 0.4 and 0.3
        us = np.array([0.0, 0.4, 0.3])
        inside = (1 - np.sqrt(1 - us[1:] ** 2)) / us[1:]
        rows = [[0.0]] + [[_outer_root(simple, u), z] for u, z in zip(us[1:], inside)]
        rows[1][1] = 1.0 + 0.5 * kernel.NEWTON_BAND
        _fake_roots(monkeypatch, rows)
        with pytest.raises(rw.KernelRootError, match=r"found 0 at u=0\.4;"):
            rw.find_kernel_roots(simple, us)
        rows[1][1] = inside[0]
        _fake_roots(monkeypatch, rows)
        rs = rw.find_kernel_roots(simple, us)
        np.testing.assert_array_equal(rs.roots[:, 0], np.append(0.0, inside))

    def test_u_outside_disk_rejected(self, simple):
        with pytest.raises(ValueError, match="< 1"):
            rw.find_kernel_roots(simple, np.array([0.5, 1.0]))

    def test_nan_u_rejected_at_once(self, simple):
        # a nan compares False with 1 either way: it must not reach np.roots
        start = time.perf_counter()
        with pytest.raises(ValueError, match="< 1"):
            rw.find_kernel_roots(simple, np.nan)
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("law", sorted(LAWS))
    def test_product_rows_match_scalar_calls(self, law):
        d = self.LAWS[law]
        zs = np.exp(2j * np.pi * np.arange(16) / 16) * 0.9
        batch = rw.find_kernel_roots(d, self.NODES)
        grid = rw.product_eval(d, self.NODES, zs, batch)
        assert grid.shape == (len(self.NODES), len(zs))
        column = rw.product_eval(d, self.NODES, 0.5, batch)
        for k, u in enumerate(self.NODES):
            one = batch.row(k)
            np.testing.assert_array_equal(grid[k], rw.product_eval(d, u, zs, one))
            assert column[k] == rw.product_eval(d, u, 0.5, one)


with warnings.catch_warnings():
    # P(A=0) = 0 is accepted with a warning
    warnings.simplefilter("ignore", UserWarning)
    A0_ZERO = rw.make_family("explicit", 2, probs=[0.0, 0.5, 0.5])


class TestTrackKernelRoots:
    """An array of u: one companion solve at u[0], certified Newton roots at
    the other nodes, companion solves for the rows the gate rejects."""

    # the upper-half u nodes of a run at n_max = 6, TestBatchedRoots' nodes
    # on |u| = 0.5, and the structural checks' two u
    NU, R = cli.u_circle(6)
    ARRAYS = {
        "u-circle": R * np.exp(2j * np.pi * np.arange(NU // 2 + 1) / NU),
        "batched": TestBatchedRoots.NODES,
        "checks": np.array([0.25, 0.5]),
    }
    # binomial(80, 0.1): P(A = 80) = 1e-80, and the gate admits only some
    # of its rows
    LAWS = dict(TestBatchedRoots.LAWS)
    LAWS["binomial-80-9"] = rw.make_family("binomial", 9, n=80, p=0.1)
    # admitted rows lie within 7e-15 of the companion's roots on these laws;
    # the certificate bounds F, not single roots, so this is measured, not
    # implied
    SET_TOL = 1e-14

    @pytest.mark.parametrize("nodes", sorted(ARRAYS))
    @pytest.mark.parametrize("law", sorted(LAWS))
    def test_rows_match_the_companion_as_sets(self, law, nodes):
        d, u = self.LAWS[law], self.ARRAYS[nodes]
        tracked, companion = rw.find_kernel_roots(d, u), kernel._companion_rows(d, u)
        assert tracked.roots.shape == (len(u), d.s)
        for k in range(len(u)):
            _assert_same_sets(tracked.roots[k], companion[k], self.SET_TOL)
            # rows keep the companion rows' order: by real part, then imaginary
            row = tracked.roots[k]
            np.testing.assert_array_equal(row, row[np.lexsort((row.imag, row.real))])
        assert np.all(_residuals(d, u[:, None], tracked.roots) <= kernel.RESIDUAL_TOL)
        assert tracked.max_modulus == np.max(np.abs(tracked.roots))

    FALLBACK = {
        # ill-conditioned roots: Newton from the seeds does not settle, and
        # the rows it ends on read certificates of 2e-6 to 40
        "poisson-45-50": (rw.make_family("poisson", 50, lam=45.0), ARRAYS["u-circle"]),
        # u[0] = 0: every root at the origin, which seeds nothing
        "u0-zero": ("simple-walk", np.append(0.0, ARRAYS["u-circle"])),
        "u0-zero-geometric": ("geometric", np.append(0.0, ARRAYS["u-circle"])),
    }

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("case", sorted(FALLBACK))
    def test_fallback_rows_are_the_companion_rows(self, dists, case):
        d, u = self.FALLBACK[case]
        d = dists[d] if isinstance(d, str) else d
        tracked, roots = rw.find_kernel_roots(d, u), kernel._companion_rows(d, u)
        np.testing.assert_array_equal(tracked.roots, roots)
        assert tracked.max_modulus == np.max(np.abs(roots))

    ADMITTED = {
        # a double root at the origin, k'(0) = 0: P = z^2 divides the kernel
        # (1 - u) z^2 exactly
        "a-equals-s": ("a-equals-s", []),
        # P(A=0) = 0: a simple root at the origin, which Newton keeps exactly;
        # at the last 6 nodes it draws the other seed there too, and the
        # certificate rejects the duplicate
        "a0-zero": (A0_ZERO, [6]),
        "poisson-4-5": (rw.make_family("poisson", 5, lam=4.0), []),
        "geometric-0.3-10": (rw.make_family("geometric", 10, p=0.3), []),
    }

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("case", sorted(ADMITTED))
    def test_admitted_rows_match_the_companion_as_sets(self, dists, case, monkeypatch):
        # on the run's circle, the companion solves u[0], then the rows the
        # certificate rejects, one call for all of them
        d, fallback = self.ADMITTED[case]
        d = dists[d] if isinstance(d, str) else d
        u = self.ARRAYS["u-circle"]
        companion = kernel._companion_rows(d, u)
        solved = []
        rows = kernel._companion_rows
        monkeypatch.setattr(kernel, "_companion_rows",
                            lambda d, u: solved.append(np.size(u)) or rows(d, u))
        tracked = rw.find_kernel_roots(d, u)
        assert solved == [1] + fallback
        for row, want in zip(tracked.roots, companion):
            _assert_same_sets(row, want, self.SET_TOL)

    def test_gate_rejects_ill_conditioned_roots(self, dists, monkeypatch):
        # poisson(45), s = 50 on the run's circle: Newton from the seeds ends
        # inside the disk, mostly within RESIDUAL_TOL, yet on root sets whose
        # F is off by up to a relative 1.1; their certificates read >= 2e-6
        # against the companion's 3e-11 at u[0], and every row goes to the
        # companion.  geometric(0.5)'s rows pass, and none does.
        u = self.ARRAYS["u-circle"]
        solved = []
        rows = kernel._companion_rows
        monkeypatch.setattr(kernel, "_companion_rows",
                            lambda d, u: solved.append(np.size(u)) or rows(d, u))
        for d, passes in ((self.FALLBACK["poisson-45-50"][0], False), (dists["geometric"], True)):
            first = rows(d, u[:1])[0]
            turn = (u[1:] / u[0]) ** (1.0 / d.s)
            z, _ = kernel._newton(d, np.repeat(u[1:], d.s), (turn[:, None] * first).reshape(-1))
            z = z.reshape(len(u) - 1, d.s)
            assert np.all(np.abs(z) < 1.0 - kernel.IN_DISK_TOL)
            residuals = _residuals(d, u[1:, None], z)
            assert np.sum(np.all(residuals <= kernel.RESIDUAL_TOL, axis=-1)) >= 14
            assert np.all((kernel._certificate(d, u[1:], z) > 1e-6) != passes)
            solved.clear()
            rw.find_kernel_roots(d, u)
            assert solved == ([1] if passes else [1, len(u) - 1])

    def test_wrong_u_roots_fail_the_certificate(self):
        # binomial(200, 0.5), s = 99: the u = 0.25 roots scored at u = 0.5
        # have residuals near 1e-11, within RESIDUAL_TOL, yet put F(0.5, 0.3)
        # at 0.576 instead of 1.396; their certificate reads 0.22
        d = rw.make_family("binomial", 99, n=200, p=0.5)
        wrong, right = kernel._companion_rows(d, np.array([0.25, 0.5]))
        u = np.array([0.5, 0.5])
        assert np.all(_residuals(d, 0.5, wrong) <= kernel.RESIDUAL_TOL)
        eps_wrong, eps_right = kernel._certificate(d, u, np.array([wrong, right]))
        assert eps_wrong > 1e-3 and eps_right < 1e-8

    def test_gate_rejects_a_duplicate_or_outside_root(self, dists):
        d = dists["poisson"]
        u = np.array([0.4, 0.4, 0.4])
        good = rw.find_kernel_roots(d, 0.4).roots
        z = np.array([good, [good[0], good[0]], [good[0], 1.5]])
        # the outside root fails the in-disk test; the duplicate's residuals
        # pass it, its certificate does not
        assert kernel._accepted(d, u, z).tolist() == [True, True, False]
        assert np.all(_residuals(d, 0.4, z[1]) <= kernel.RESIDUAL_TOL)
        eps_good, eps_duplicate = kernel._certificate(d, u[:2], z[:2])
        assert eps_good <= 1e-12 and eps_duplicate > 1e-3

    def test_one_predicate_for_companion_and_newton_rows(self, simple, monkeypatch):
        # simple walk at u = 0.5: the in-disk root 2 - sqrt(3) moved by 1e-9
        # misses RESIDUAL_TOL, as |k'| = 0.87 there.  A Newton row holding it
        # fails the test and goes to the companion; a companion row holding it
        # raises, and the message lists its residual
        root = 2.0 - np.sqrt(3.0)
        u = np.array([0.5, 0.5])
        z = np.array([[root], [root + 1e-9]])
        assert kernel._accepted(simple, u, z).tolist() == [True, False]
        solved = []
        rows = kernel._companion_rows
        monkeypatch.setattr(kernel, "_companion_rows",
                            lambda d, u: solved.append(np.size(u)) or rows(d, u))
        monkeypatch.setattr(kernel, "_newton", lambda d, u, z: (z + 1e-9, np.ones(z.shape, bool)))
        np.testing.assert_array_equal(rw.find_kernel_roots(simple, u).roots, rows(simple, u))
        assert solved == [1, 1]
        _fake_roots(monkeypatch, [[_outer_root(simple, 0.5), root + 1e-9]])
        with pytest.raises(rw.KernelRootError,
                           match=r"residuals exceed 1e-10: \[8\.66\d*e-10\] at u=0\.5$"):
            rw.find_kernel_roots(simple, 0.5)

    @pytest.mark.parametrize("law,s,params", [
        ("geometric", 20, {"p": 0.05}),
        ("poisson", 50, {"lam": 45.0}),
        ("binomial", 99, {"n": 200, "p": 0.5}),
    ])
    def test_certificate_ignores_the_order_of_its_roots(self, law, s, params):
        # _certificate expands P in its own order, so a shuffled row reads the
        # same bits.  Expanded in the companion rows' lexsorted order, these
        # roots at u = r read 2.0e-12, 2.6e-11 and 3.9e-10: the rounding of
        # the expansion, not the roots
        d = rw.make_family(law, s, **params)
        u = self.ARRAYS["u-circle"][:1]
        z = kernel._companion_rows(d, u)
        eps = kernel._certificate(d, u, z)
        assert eps[0] <= 1e-12
        rng = np.random.default_rng(s)
        for order in (rng.permutation(s), np.arange(s)[::-1]):
            np.testing.assert_array_equal(kernel._certificate(d, u, z[:, order]), eps)

    def test_one_companion_solve_on_a_large_support(self, monkeypatch):
        # geometric(0.05), s = 20, J = 630 on the run's circle: with eps_0 the
        # certificate of the roots rather than of the expansion's rounding,
        # every Newton row passes the gate (5 rows fell back when P was
        # expanded in lexsorted order)
        d = rw.make_family("geometric", 20, p=0.05)
        u = self.ARRAYS["u-circle"]
        solved = []
        rows = kernel._companion_rows
        monkeypatch.setattr(kernel, "_companion_rows",
                            lambda d, u: solved.append(np.size(u)) or rows(d, u))
        rs = rw.find_kernel_roots(d, u)
        assert solved == [1]
        assert np.max(kernel._certificate(d, u, rs.roots)) <= 1e-12

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_seed_outside_the_band_is_not_evaluated(self):
        # J = 1000: 3^1000 overflows, so a seed at |z| = 3 must stop unconverged
        # before its powers are formed; the seed at 0.5 still converges
        d = rw.make_family("explicit", 400, probs=[1.0 / 1001] * 1001)
        z, done = kernel._newton(d, np.array([0.5, 0.5]), np.array([3.0, 0.5], dtype=complex))
        assert z[0] == 3.0 and done.tolist() == [False, True]
        assert _residuals(d, 0.5, z[1]) <= 1e-15

    def test_one_companion_matrix_per_u_circle(self, dists, monkeypatch):
        # geometric(0.5), s = 1: one companion solve at u[0] serves all 17
        # nodes (one per node without Newton)
        solved = []
        roots_of = np.roots
        monkeypatch.setattr(np, "roots", lambda p: solved.append(p.size) or roots_of(p))
        cfg = cli.RunConfig(family="geometric", s=1, n_max=6, m_max=6)
        cli._compute_tables(dists["geometric"], cfg, ("product",), None)
        assert len(solved) == 1

    def test_row_is_the_scalar_root_set(self, dists):
        d = dists["poisson"]
        u = self.ARRAYS["checks"]
        rs = rw.find_kernel_roots(d, u)
        # a root set is its roots
        assert [f.name for f in dataclasses.fields(rs)] == ["roots"]
        for k in range(len(u)):
            row = rs.row(k)
            np.testing.assert_array_equal(row.roots, rs.roots[k])
            assert row.max_modulus == np.max(np.abs(rs.roots[k]))
        # u[0] is a companion row: the scalar call's, to the bit
        one = rw.find_kernel_roots(d, u[0])
        np.testing.assert_array_equal(rs.row(0).roots, one.roots)
        assert rs.row(0).max_modulus == one.max_modulus


class TestKernelTerms:
    """k(z) and k'(z) from one power table, u broadcast against z."""

    LAWS = dict(standard_distributions(), large=rw.make_family("geometric", 20, p=0.05))

    @staticmethod
    def _horner(d, u, z):
        """k and k' by np.polyval, and the moduli of their terms summed."""
        a = d.pmf_a[::-1]
        da = np.polyder(a)
        z_abs, u_abs = np.abs(z), np.abs(u)
        return (
            (z**d.s - u * np.polyval(a, z), z_abs**d.s + u_abs * np.polyval(a, z_abs)),
            (d.s * z ** (d.s - 1) - u * np.polyval(da, z),
             d.s * z_abs ** (d.s - 1) + u_abs * np.polyval(da, z_abs)),
        )

    @pytest.mark.parametrize("law", sorted(LAWS))
    def test_matches_horner(self, law):
        # within 8 eps of the terms' moduli summed: a scalar, a row of roots
        # per u, and a grid of u against one set of z (measured: 3 eps on
        # geometric(0.05), J = 630, at most 1.4 eps on the others)
        d = self.LAWS[law]
        rng = np.random.default_rng(len(law))
        u_grid = 0.95 * np.exp(2j * np.pi * rng.uniform(size=(5, 1)))
        z_rows = rng.uniform(size=(5, d.s)) * np.exp(2j * np.pi * rng.uniform(size=(5, d.s)))
        cases = ((0.5, 0.3 + 0.4j), (u_grid, z_rows), (u_grid, z_rows.reshape(-1)))
        for u, z in cases:
            got = kernel.kernel_terms(d, u, z)
            assert got[0].shape == got[1].shape == np.broadcast(u, z).shape
            for value, (want, scale) in zip(got, self._horner(d, u, z)):
                assert np.all(np.abs(value - want) <= 8 * np.finfo(float).eps * scale)

    @pytest.mark.parametrize("law", ["large", "poisson"])
    def test_blocks_change_no_value(self, law, monkeypatch):
        # a table cut into blocks of 7 points and a ragged last block gives
        # the one-block values to the bit
        d = self.LAWS[law]
        u = 0.4 * np.exp(1j * np.arange(5))[:, None]
        z = 0.9 * np.exp(2j * np.pi * np.arange(100) / 100)
        one = kernel.kernel_terms(d, u, z)
        monkeypatch.setattr(kernel, "TABLE_ENTRIES", 7 * (max(d.s, d.j_max) + 1) + 3)
        for blocked, value in zip(kernel.kernel_terms(d, u, z), one):
            np.testing.assert_array_equal(blocked, value)


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
        partial = polyval2d(u, z, f)
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

    def test_memory_on_the_run_grid(self):
        # geometric(0.05), s = 20 over the n_max = 12 half circle (33 u) by
        # nz = 8192: the factors multiply into the (33, 8192) product one
        # root at a time, so the peak stays within 4 times the output
        d = rw.make_family("geometric", 20, p=0.05)
        nu, r = cli.u_circle(12)
        u = circle(r, nu)[: nu // 2 + 1]
        z = circle(1.0, 8192)
        roots = rw.find_kernel_roots(d, u)
        tracemalloc.start()
        try:
            out = rw.product_eval(d, u, z, roots)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.shape == (33, 8192)
        assert peak <= 4 * out.nbytes


class TestLogResidueCheck:
    @staticmethod
    def _nodes_used(monkeypatch):
        """Record the node count of each contour transform the check makes."""
        used = []
        transform = kernel.circle_polyval
        monkeypatch.setattr(
            kernel, "circle_polyval", lambda c, nodes: used.append(nodes) or transform(c, nodes)
        )
        return used

    def test_single_root_closed_form(self):
        # A identically 0 with s = 1: single root z_0 = u, so z = 0.625
        d = rw.make_family("deterministic", 1, c=0)
        lhs, rhs = rw.root_logresidue_check(d, 0.25)
        assert lhs == pytest.approx(np.log((0.625 - 0.25) / 0.75), abs=1e-12)
        assert rhs == pytest.approx(lhs, abs=1e-10)

    def test_roots_at_origin_closed_form(self, dists):
        # every root at 0: z = 1/2
        d = dists["a-equals-s"]
        lhs, rhs = rw.root_logresidue_check(d, 0.5)
        assert lhs == pytest.approx(d.s * np.log(0.5), abs=1e-12)
        assert rhs == pytest.approx(lhs, abs=1e-10)

    def test_simple_walk_agreement(self, simple):
        lhs, rhs = rw.root_logresidue_check(simple, 0.5)
        z0 = 2.0 - np.sqrt(3.0)
        z = 0.5 * (z0 + 1.0)
        assert lhs == pytest.approx(np.log((z - z0) / (1.0 - z0)), abs=1e-12)
        assert abs(lhs - rhs) <= 1e-10

    def test_tiny_kernel_on_the_contour(self):
        # poisson(100), s = 50 at u = 0.5: |k(w)| on |w| = a is far below
        # 1e-12, yet close to its scale a^s + u A(a), so the check runs
        d = rw.make_family("poisson", 50, lam=100.0)
        top = rw.find_kernel_roots(d, 0.5).max_modulus
        z = 0.5 * (top + 1.0)
        a = 0.5 * (top + z)
        w = a * np.exp(2j * np.pi * np.arange(2048) / 2048)
        assert np.min(_residuals(d, 0.5, w)) < 1e-12
        lhs, rhs = rw.root_logresidue_check(d, 0.5)
        assert abs(lhs - rhs) <= 1e-8

    def test_given_roots_are_used(self, dists):
        # the given roots set both sides and the contour: the u = 0.25
        # roots, checked against the u = 0.5 kernel, fail the check
        d = dists["poisson"]
        own = rw.root_logresidue_check(d, 0.5)
        given = rw.root_logresidue_check(d, 0.5, roots=rw.find_kernel_roots(d, 0.5))
        assert given == own
        wrong = rw.root_logresidue_check(d, 0.5, roots=rw.find_kernel_roots(d, 0.25))
        assert wrong[0] != own[0]
        assert abs(wrong[0] - wrong[1]) > cli.CHECK_TOL["log-residue"]

    @pytest.mark.parametrize(
        "family,s,kwargs,nodes",
        [
            ("poisson", 2, {"lam": 1.2}, 512),
            ("poisson", 15, {"lam": 14.0}, 2048),
        ],
    )
    def test_transform_matches_horner(self, family, s, kwargs, nodes):
        # the contour integral from k and w k' by Horner sums on a fixed,
        # larger node count; the check's own count (256 and 1024) is
        # converged to roundoff against it
        d = rw.make_family(family, s, **kwargs)
        roots = rw.find_kernel_roots(d, 0.5)
        z = 0.5 * (roots.max_modulus + 1.0)
        a = 0.5 * (roots.max_modulus + z)
        coeffs = kernel.kernel_coeffs(d, 0.5)[::-1]
        w = a * np.exp(2j * np.pi * np.arange(nodes) / nodes)
        kw = np.polyval(coeffs, w)
        horner = np.mean(np.log((z - w) / (1.0 - w)) * w * np.polyval(np.polyder(coeffs), w) / kw)
        _, rhs = rw.root_logresidue_check(d, 0.5, roots=roots)
        assert abs(rhs - horner.real) <= 1e-12 * max(1.0, abs(horner))

    def test_node_count_from_the_rate(self, dists, monkeypatch):
        # N is the smallest power of two >= 16 with rho^N <= eps,
        # rho = max(max|z_k| / a, a / z): 64 to 512 on the standard laws,
        # where a fixed count took 2048
        used = self._nodes_used(monkeypatch)
        eps = np.finfo(float).eps
        for d in dists.values():
            top = rw.find_kernel_roots(d, 0.5).max_modulus
            z = 0.5 * (top + 1.0)
            a = 0.5 * (top + z)
            rate = max(top / a, a / z)
            rw.root_logresidue_check(d, 0.5)
            nodes = used.pop()
            assert rate**nodes <= eps < rate ** (nodes // 2) or nodes == 16
            assert 64 <= nodes <= 512
        d = rw.make_family("poisson", 15, lam=14.0)
        rw.root_logresidue_check(d, 0.5)
        assert used == [1024]

    def test_large_s_takes_more_nodes(self, monkeypatch):
        # poisson(100), s = 300: max|z_k| = 0.99654 lies 8.6e-4 below a, and
        # 2048 nodes read 0.19; the rate rule takes 65536
        d = rw.make_family("poisson", 300, lam=100.0)
        used = self._nodes_used(monkeypatch)
        lhs, rhs = rw.root_logresidue_check(d, 0.5)
        assert used == [65536]
        assert abs(lhs - rhs) <= cli.CHECK_TOL["log-residue"]

    def test_node_cap_raises(self, simple):
        # a root 1e-9 below the unit circle needs ~1e11 nodes: the check
        # raises, naming the count, before it allocates anything
        roots = rw.RootSet(np.array([1.0 - 1e-9]))
        start = time.perf_counter()
        with pytest.raises(ValueError, match=r"needs \d+ nodes"):
            rw.root_logresidue_check(simple, 0.5, roots=roots)
        assert time.perf_counter() - start < 1.0
