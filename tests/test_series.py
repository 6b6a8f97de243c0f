import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reflectedwalk as rw
from reflectedwalk.series import _fft_convolve, useries, zpoly, zpoly_one, zpoly_zero


class TestPolyMul:
    def test_identity(self):
        one = zpoly_one(3)
        p = zpoly([0.2, 0.3, 0.0, 0.5], 3)
        assert rw.poly_mul(one, p).allclose(p, tol=0.0)

    def test_monomial_product(self):
        z1 = zpoly([0, 1], 3)
        z2 = zpoly([0, 0, 1], 3)
        np.testing.assert_array_equal(rw.poly_mul(z1, z2).coeffs, [0, 0, 0, 1])

    def test_hand_expansion(self):
        h = zpoly([0.5, 0.5], 2)
        np.testing.assert_allclose(rw.poly_mul(h, h).coeffs, [0.25, 0.5, 0.25])

    def test_mismatched_caps_rejected(self):
        with pytest.raises(ValueError, match="degree_cap"):
            rw.poly_mul(zpoly_one(2), zpoly_one(3))

    def test_truncation_is_prefix_exact(self):
        rng = np.random.default_rng(7)
        a = rng.uniform(0, 1, 6)
        b = rng.uniform(0, 1, 6)
        small = rw.poly_mul(zpoly(a, 5), zpoly(b, 5))
        big = rw.poly_mul(zpoly(np.r_[a, np.zeros(5)], 10), zpoly(np.r_[b, np.zeros(5)], 10))
        np.testing.assert_array_equal(small.coeffs, big.coeffs[:6])


class TestFftConvolve:
    @pytest.mark.parametrize(
        "la,lb", [(1, 1), (1, 700), (513, 512), (1501, 1501), (4097, 300)]
    )
    def test_matches_direct_convolution(self, la, lb):
        rng = np.random.default_rng(la * 10_000 + lb)
        a, b = rng.uniform(0, 1, la), rng.uniform(0, 1, lb)
        got = _fft_convolve(a, b)
        want = np.convolve(a, b)
        assert got.shape == want.shape
        # roundoff of an FFT product scales with the largest output
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(want) * math.log2(la + lb)

    def test_long_product_through_poly_mul(self):
        # past the schoolbook cutoff poly_mul takes the FFT path
        rng = np.random.default_rng(11)
        a, b = rng.uniform(0, 1, 1501), rng.uniform(0, 1, 1501)
        got = rw.poly_mul(zpoly(a, 1500), zpoly(b, 1500)).coeffs
        want = np.convolve(a, b)[:1501]
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(want) * 12


class TestExpLog:
    def test_exp_of_zero(self):
        g = useries([zpoly_zero(2)] * 4)
        f = rw.series_exp(g)
        assert f[0].allclose(zpoly_one(2), tol=0.0)
        for n in range(1, 4):
            assert f[n].allclose(zpoly_zero(2), tol=0.0)

    def test_scalar_exponential(self):
        c = 0.7
        polys = [zpoly_zero(0), zpoly([c], 0)] + [zpoly_zero(0)] * 4
        f = rw.series_exp(useries(polys))
        for n in range(6):
            assert f[n].coeffs[0] == pytest.approx(c**n / math.factorial(n))

    def test_geometric_series(self):
        # g_l = 1/l for all l is -ln(1-u); exp gives all-ones coefficients
        polys = [zpoly_zero(1)] + [zpoly([1.0 / l], 1) for l in range(1, 7)]
        f = rw.series_exp(useries(polys))
        for n in range(7):
            np.testing.assert_allclose(f[n].coeffs, [1.0, 0.0], atol=1e-13)

    def test_log_of_one(self):
        f = useries([zpoly_one(2)] + [zpoly_zero(2)] * 3)
        g = rw.series_log(f)
        for n in range(4):
            assert g[n].allclose(zpoly_zero(2), tol=0.0)

    def test_log_of_all_ones(self):
        f = useries([zpoly_one(1)] * 7)
        g = rw.series_log(f)
        for l in range(1, 7):
            np.testing.assert_allclose(g[l].coeffs, [1.0 / l, 0.0], atol=1e-13)

    def test_nonzero_constant_rejected(self):
        with pytest.raises(ValueError):
            rw.series_exp(useries([zpoly_one(1), zpoly_zero(1)]))
        with pytest.raises(ValueError):
            rw.series_log(useries([zpoly_zero(1), zpoly_zero(1)]))

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_exp_log_round_trip(self, order, degree, seed):
        rng = np.random.default_rng(seed)
        mat = rng.uniform(0.0, 1.0, (order + 1, degree + 1))
        mat[0] = 0.0
        g = useries([zpoly(row, degree) for row in mat])
        back = rw.series_log(rw.series_exp(g))
        for n in range(order + 1):
            assert back[n].allclose(g[n], tol=1e-12)


class TestSpitzerSeries:
    def test_degenerate_all_ones(self):
        d = rw.make_family("deterministic", 2, c=2)  # X identically 0
        f = rw.spitzer_series(d, 5, 3)
        for n in range(6):
            np.testing.assert_allclose(f[n].coeffs, [1, 0, 0, 0], atol=1e-13)

    def test_simple_walk_hand_values(self, simple):
        f = rw.spitzer_series(simple, 2, 2)
        np.testing.assert_allclose(f[1].coeffs, [0.5, 0.5, 0.0], atol=1e-15)
        np.testing.assert_allclose(f[2].coeffs, [0.5, 0.25, 0.25], atol=1e-15)

    def test_nonpositive_drift_bernoulli(self):
        # X in {-1, 0}: the reflected walk never leaves 0
        d = rw.make_family("bernoulli", 1, p=0.3)
        f = rw.spitzer_series(d, 6, 2)
        for n in range(7):
            np.testing.assert_allclose(f[n].coeffs, [1, 0, 0], atol=1e-13)

    def test_bernoulli_closed_form_transform(self):
        # F(u, z) = (z - z0) / ((1 - z0)(z - u A(z))) with z0 = u(1-p)/(1-u p)
        p = 0.3
        d = rw.make_family("bernoulli", 1, p=p)
        u, z = 0.4, 0.6
        z0 = u * (1 - p) / (1 - u * p)
        a_z = (1 - p) + p * z
        closed = (z - z0) / ((1 - z0) * (z - u * a_z))
        assert closed == pytest.approx(1.0 / (1.0 - u), rel=1e-14)

    def test_truncation_exactness_in_degree(self, dists):
        for d in dists.values():
            f_small = rw.spitzer_series(d, 6, 4)
            f_big = rw.spitzer_series(d, 6, 9)
            for n in range(7):
                np.testing.assert_allclose(
                    f_small[n].coeffs, f_big[n].coeffs[:5], atol=1e-13
                )

    def test_coefficients_are_probabilities(self, dists):
        for d in dists.values():
            f = rw.spitzer_series(d, 8, 8)
            for n in range(9):
                c = f[n].coeffs
                assert np.all(c >= -1e-12)
                assert np.all(c <= 1.0 + 1e-12)
                assert c.sum() <= 1.0 + 1e-11

    def test_normalization_when_support_complete(self, dists):
        for d in dists.values():
            n_cap = 6
            m_full = n_cap * d.support_growth
            f = rw.spitzer_series(d, n_cap, max(m_full, 1))
            for n in range(n_cap + 1):
                assert f[n](1.0) == pytest.approx(1.0, abs=1e-12)

    def test_stochastic_tail_monotonicity(self, dists):
        for d in dists.values():
            n_cap = 8
            m_full = max(n_cap * d.support_growth, 1)
            mat = rw.spitzer_series(d, n_cap, m_full).as_matrix()
            tails = np.cumsum(mat[:, ::-1], axis=1)[:, ::-1]
            for m0 in range(1, m_full + 1):
                diffs = tails[1:, m0] - tails[:-1, m0]
                assert np.all(diffs >= -1e-11)
