import numpy as np
import pytest

import reflectedwalk as rw
from reflectedwalk.kernel import RootSet
from reflectedwalk.oracle import (
    boundary_probs,
    boundary_width,
    required_boundary_order,
)

from conftest import standard_distributions

STANDARD = standard_distributions()


class TestLindleyDp:
    def test_row_zero_is_point_mass(self, dists):
        for d in dists.values():
            t = rw.lindley_dp(d, 0, 5)
            np.testing.assert_array_equal(t.probs[0], [1, 0, 0, 0, 0, 0])

    def test_simple_walk_two_steps(self, simple):
        t = rw.lindley_dp(simple, 2, 3)
        np.testing.assert_allclose(t.probs[2], [0.5, 0.25, 0.25, 0.0])

    def test_degenerate_stays_at_zero(self, dists):
        t = rw.lindley_dp(dists["a-equals-s"], 10, 3)
        np.testing.assert_allclose(t.probs[:, 0], 1.0)
        assert np.all(t.overflow == 0.0)

    def test_conservation_with_overflow(self, dists):
        for d in dists.values():
            t = rw.lindley_dp(d, 15, 3)  # deliberately tight grid
            totals = t.probs.sum(axis=1) + t.overflow
            np.testing.assert_allclose(totals, 1.0, atol=1e-12)

    def test_complete_rows_sum_to_one(self, dists):
        for d in dists.values():
            t = rw.lindley_dp(d, 8, 8 * d.support_growth + 1)
            assert np.all(t.complete_rows)
            np.testing.assert_allclose(t.probs.sum(axis=1), 1.0, atol=1e-12)

    def test_completeness_flags_track_support(self, simple):
        t = rw.lindley_dp(simple, 10, 4)
        np.testing.assert_array_equal(t.complete_rows, np.arange(11) <= 4)

    def test_tail_monotonicity(self, dists):
        for d in dists.values():
            m_max = 10 * d.support_growth + 1
            t = rw.lindley_dp(d, 10, m_max)
            tails = np.cumsum(t.probs[:, ::-1], axis=1)[:, ::-1]
            assert np.all(tails[1:, 1:] >= tails[:-1, 1:] - 1e-12)

    def test_matches_spitzer_coefficients(self, dists):
        for d in dists.values():
            n_cap = 12
            m_full = max(n_cap * d.support_growth, 1)
            t = rw.lindley_dp(d, n_cap, m_full)
            f = rw.spitzer_series(d, n_cap, m_full)
            assert np.max(np.abs(t.probs - f)) <= 1e-11


class TestFunctionalEquation:
    def test_degenerate_zero_residual(self, dists):
        d = dists["a-equals-s"]
        t = rw.lindley_dp(d, 5, 3)
        for n in range(4):
            assert rw.functional_equation_check(d, t, n, 0.7) <= 1e-15

    def test_simple_walk_hand_check(self, simple):
        t = rw.lindley_dp(simple, 2, 2)
        assert rw.functional_equation_check(simple, t, 1, 0.5) <= 1e-14

    def test_geometric_grid(self, dists):
        d = dists["geometric"]
        t = rw.lindley_dp(d, 8, 8 * d.support_growth)
        for n in (0, 3, 7):
            for z in (0.25, 0.9, 0.5 + 0.5j):
                assert rw.functional_equation_check(d, t, n, z) <= 1e-11

    def test_batched_matches_scalar(self, dists):
        for d in dists.values():
            t = rw.lindley_dp(d, 6, 6 * d.support_growth)
            ns = np.arange(6)
            zs = np.array([0.4, -0.8, 0.5 + 0.5j, np.exp(2j)])
            batch = rw.functional_equation_check(d, t, ns, zs)
            assert batch.shape == (6, 4)
            for i, n in enumerate(ns):
                for j, z in enumerate(zs):
                    scalar = rw.functional_equation_check(d, t, int(n), complex(z))
                    assert isinstance(scalar, float)
                    assert abs(batch[i, j] - scalar) <= 1e-15

    def test_unit_circle_is_well_conditioned(self):
        # z = 0.3 would scale roundoff by 0.3^-50; |z| = 1 does not
        d = rw.make_family("poisson", 50, lam=45.0)
        t = rw.lindley_dp(d, 6, 6 * d.support_growth)
        zs = np.exp(1j * np.array([0.0, 1.0, 2.0, np.pi]))
        assert np.max(rw.functional_equation_check(d, t, np.arange(6), zs)) <= 1e-13

    def test_incomplete_rows_rejected(self, simple):
        t = rw.lindley_dp(simple, 10, 3)
        with pytest.raises(ValueError, match="complete"):
            rw.functional_equation_check(simple, t, 5, 0.5)

    def test_zero_z_rejected(self, simple):
        t = rw.lindley_dp(simple, 2, 2)
        with pytest.raises(ValueError):
            rw.functional_equation_check(simple, t, 0, 0.0)


class TestNumeratorCheck:
    def test_a_zero_single_root(self):
        # A identically 0, s = 1: F_0(u) = 1/(1-u), N(u, z) = z + u(z-1)/(1-u)
        d = rw.make_family("deterministic", 1, c=0)
        roots = rw.find_kernel_roots(d, 0.5)
        assert roots.roots[0] == pytest.approx(0.5, abs=1e-12)
        assert rw.numerator_check(d, 0.5, roots, tol=1e-9) <= 1e-9

    def test_a_equals_s_roots_at_origin(self, dists):
        d = dists["a-equals-s"]
        roots = rw.find_kernel_roots(d, 0.4)
        assert rw.numerator_check(d, 0.4, roots, tol=1e-9) <= 1e-9

    def test_simple_walk(self, simple):
        roots = rw.find_kernel_roots(simple, 0.5)
        assert rw.numerator_check(simple, 0.5, roots, tol=1e-9) <= 1e-9

    @pytest.mark.parametrize("law", sorted(STANDARD))
    def test_u_array_is_the_largest_per_u_residual(self, law):
        # one DP table at u = 0.5's order serves both u, each truncated at
        # its own order: the residual is the per-u calls' largest, to the bit
        d = STANDARD[law]
        us = np.array([0.25, 0.5])
        roots = rw.find_kernel_roots(d, us)
        per_u = [rw.numerator_check(d, u, roots.row(k)) for k, u in enumerate(us.tolist())]
        assert rw.numerator_check(d, us, roots) == max(per_u)

    @pytest.mark.parametrize("law", ["simple-walk", "binomial", "geometric"])
    def test_moved_first_row_root_fails(self, law):
        # a u = 0.25 root moved by 1e-6 breaks N(u, z_k) = 0 far past the
        # tolerance: the first row is checked, not only the last
        d = STANDARD[law]
        us = np.array([0.25, 0.5])
        roots = rw.find_kernel_roots(d, us)
        moved = roots.roots.copy()
        moved[0, 0] += 1e-6
        bad = RootSet(moved, roots.residuals)
        assert rw.numerator_check(d, us, roots) <= 1e-9
        assert rw.numerator_check(d, us, bad) > 1e-9

    def test_required_order_tail_bound(self):
        for u in (0.25, 0.5, 0.9):
            n = required_boundary_order(u, 1e-10)
            assert u ** (n + 1) / (1 - u) <= 1e-10
            assert n == 0 or u**n / (1 - u) > 1e-10


class TestBoundaryProbs:
    def test_a_zero_always_at_zero(self):
        d = rw.make_family("deterministic", 1, c=0)
        t = rw.lindley_dp(d, 6, 2)
        b = boundary_probs(d, t)
        np.testing.assert_allclose(b[0], 1.0)

    def test_matches_direct_convolution(self, dists):
        d = dists["binomial"]
        t = rw.lindley_dp(d, 6, 6 * d.support_growth + 2)
        b = boundary_probs(d, t)
        for n in range(7):
            law = np.convolve(t.probs[n], d.pmf_a)
            np.testing.assert_allclose(b[:, n], law[: d.s], atol=1e-14)


class TestBoundaryWidth:
    LAWS = {
        "geometric": ("geometric", 1, {"p": 0.5}),
        "poisson-15": ("poisson", 15, {"lam": 14.0}),
        "poisson": ("poisson", 2, {"lam": 1.2}),
        "binomial-99": ("binomial", 99, {"n": 200, "p": 0.5}),
        "a-zero": ("deterministic", 2, {"c": 0}),
    }

    @pytest.mark.parametrize("u", [0.25, 0.5])
    @pytest.mark.parametrize("law", sorted(LAWS))
    def test_narrow_table_reads_as_the_full_one(self, law, u):
        # the numerator check's rows at its default tol, 1e-9 / 10
        family, s, params = self.LAWS[law]
        d = rw.make_family(family, s, **params)
        n = required_boundary_order(u, 1e-10)
        narrow = rw.lindley_dp(d, n, boundary_width(d, n))
        full = rw.lindley_dp(d, n, max(n * d.support_growth, d.s))
        np.testing.assert_allclose(
            boundary_probs(d, narrow), boundary_probs(d, full), rtol=0, atol=1e-16
        )

    @pytest.mark.parametrize("law", sorted(LAWS))
    @pytest.mark.parametrize("m_max", [0, 3, 40])
    def test_matches_row_convolutions(self, law, m_max):
        # levels < s of each row against the atoms < s, row by row; a table
        # narrower than s holds fewer levels, and A may have fewer than s atoms
        family, s, params = self.LAWS[law]
        d = rw.make_family(family, s, **params)
        t = rw.lindley_dp(d, 5, m_max)
        expect = np.zeros((d.s, 6))
        for n in range(6):
            conv = np.convolve(t.probs[n][: d.s], d.pmf_a[: d.s])[: d.s]
            expect[: len(conv), n] = conv
        np.testing.assert_allclose(boundary_probs(d, t), expect, rtol=0, atol=1e-16)

    def test_width(self):
        geometric = rw.make_family("geometric", 1, p=0.5)
        # u = 0.5: 35 rows, 36 columns instead of the support's 1531
        n = required_boundary_order(0.5, 1e-10)
        assert (n, boundary_width(geometric, n), n * geometric.support_growth) == (34, 35, 1530)
        # never below s, and never above the full support
        a_zero = rw.make_family("deterministic", 2, c=0)
        assert boundary_width(a_zero, 34) == 2
        binomial = rw.make_family("binomial", 2, n=3, p=0.4)
        assert boundary_width(binomial, 34) == 34


class TestRowPgf:
    def test_matches_polyval(self, simple):
        # E z^{M_3} of the simple walk from 0: 3/8 + 3/8 z + z^2/8 + z^3/8
        t = rw.lindley_dp(simple, 4, 4)
        z = 0.3 + 0.1j
        expect = 0.375 + 0.375 * z + 0.125 * z**2 + 0.125 * z**3
        assert np.polyval(t.probs[3][::-1], z) == pytest.approx(expect)
