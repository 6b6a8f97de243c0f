import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reflectedwalk as rw
from reflectedwalk.dist import positive_part_coeffs


def _exp_schoolbook(g):
    """n f_n = sum_l l g_l * f_{n-l}, one direct convolution per (n, l)."""
    m = g.shape[1] - 1
    f = np.zeros_like(g)
    f[0, 0] = 1.0
    for n in range(1, g.shape[0]):
        for l in range(1, n + 1):
            f[n] += l * np.convolve(g[l], f[n - l])[: m + 1]
        f[n] /= n
    return f


class TestExpLog:
    def test_exp_of_zero(self):
        f = rw.series_exp(np.zeros((4, 3)))
        np.testing.assert_array_equal(f[0], [1.0, 0.0, 0.0])
        for n in range(1, 4):
            np.testing.assert_array_equal(f[n], np.zeros(3))

    def test_scalar_exponential(self):
        c = 0.7
        g = np.zeros((6, 1))
        g[1, 0] = c
        f = rw.series_exp(g)
        for n in range(6):
            assert f[n][0] == pytest.approx(c**n / math.factorial(n))

    def test_geometric_series(self):
        # g_l = 1/l for all l is -ln(1-u); exp gives all-ones coefficients
        g = np.zeros((7, 2))
        g[1:, 0] = 1.0 / np.arange(1, 7)
        f = rw.series_exp(g)
        for n in range(7):
            np.testing.assert_allclose(f[n], [1.0, 0.0], atol=1e-13)

    def test_log_of_one(self):
        one = np.zeros((4, 3))
        one[0, 0] = 1.0
        g = rw.series_log(one)
        for n in range(4):
            np.testing.assert_array_equal(g[n], np.zeros(3))

    def test_log_of_all_ones(self):
        ones = np.zeros((7, 2))
        ones[:, 0] = 1.0
        g = rw.series_log(ones)
        for l in range(1, 7):
            np.testing.assert_allclose(g[l], [1.0 / l, 0.0], atol=1e-13)

    def test_nonzero_constant_rejected(self):
        with pytest.raises(ValueError):
            rw.series_exp([[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(ValueError):
            rw.series_log(np.zeros((2, 2)))

    def test_non_matrix_rejected(self):
        for bad in (np.zeros(3), np.zeros((0, 2)), np.zeros((2, 2, 2))):
            for fn in (rw.series_exp, rw.series_log):
                with pytest.raises(ValueError, match="2-D"):
                    fn(bad)

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
        back = rw.series_log(rw.series_exp(mat))
        assert np.max(np.abs(back - mat)) <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=0, max_value=40),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_matches_schoolbook_recurrence(self, order, degree, seed):
        rng = np.random.default_rng(seed)
        g = rng.uniform(0.0, 1.0, (order + 1, degree + 1))
        g[0] = 0.0
        want = _exp_schoolbook(g)
        got = rw.series_exp(g)
        # FFT roundoff is absolute, on the scale of the products' mass; for
        # dense nonnegative draws that stays within a few times the row sum
        err = np.max(np.abs(got - want), axis=1)
        assert np.all(err <= 1e-13 * want.sum(axis=1))

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=0, max_value=40),
        st.integers(min_value=0, max_value=6),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_banded_exponent_matches_schoolbook(self, order, degree, k, seed):
        # row l has degree min(M, l k), some rows are zero, and rows with
        # n k > M are cut; exp is exactly 0 wherever the exact series is
        rng = np.random.default_rng(seed)
        g = rng.uniform(0.1, 1.0, (order + 1, degree + 1))
        cols = np.arange(degree + 1)[None, :]
        g[cols > np.arange(order + 1)[:, None] * k] = 0.0
        g[rng.random(order + 1) < 0.3] = 0.0
        g[0] = 0.0
        want = _exp_schoolbook(g)
        got = rw.series_exp(g)
        err = np.max(np.abs(got - want), axis=1)
        assert np.all(err <= 1e-13 * want.sum(axis=1))
        # nonnegative terms cannot cancel: the schoolbook zeros are the
        # structural ones, and each row n vanishes above degree n k
        np.testing.assert_array_equal(got == 0.0, want == 0.0)
        assert not np.any(got[cols > np.arange(order + 1)[:, None] * k])

    def test_truncation_is_prefix_exact(self):
        # rows of l g_l summing to 1, as in the Spitzer series, so every row
        # of exp sums to at most 1; the transform length changes with M
        for m, m_big in [(0, 3), (5, 8), (7, 8), (40, 700)]:
            rng = np.random.default_rng(m_big)
            g = rng.uniform(0.0, 1.0, (7, m_big + 1))
            g[0] = 0.0
            g[1:] /= g[1:].sum(axis=1, keepdims=True) * np.arange(1, 7)[:, None]
            small = rw.series_exp(g[:, : m + 1])
            big = rw.series_exp(g)
            assert np.max(np.abs(small - big[:, : m + 1])) <= 1e-14


class TestSpitzerSeries:
    def test_degenerate_all_ones(self):
        d = rw.make_family("deterministic", 2, c=2)  # X identically 0
        f = rw.spitzer_series(d, 5, 3)
        for n in range(6):
            np.testing.assert_allclose(f[n], [1, 0, 0, 0], atol=1e-13)

    def test_simple_walk_hand_values(self, simple):
        f = rw.spitzer_series(simple, 2, 2)
        np.testing.assert_allclose(f[1], [0.5, 0.5, 0.0], atol=1e-15)
        np.testing.assert_allclose(f[2], [0.5, 0.25, 0.25], atol=1e-15)

    def test_nonpositive_drift_bernoulli(self):
        # X in {-1, 0}: the reflected walk never leaves 0
        d = rw.make_family("bernoulli", 1, p=0.3)
        f = rw.spitzer_series(d, 6, 2)
        for n in range(7):
            np.testing.assert_allclose(f[n], [1, 0, 0], atol=1e-13)

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
                    f_small[n], f_big[n][:5], atol=1e-13
                )

    def test_coefficients_are_probabilities(self, dists):
        for d in dists.values():
            f = rw.spitzer_series(d, 8, 8)
            for n in range(9):
                c = f[n]
                assert np.all(c >= -1e-12)
                assert np.all(c <= 1.0 + 1e-12)
                assert c.sum() <= 1.0 + 1e-11

    def test_normalization_when_support_complete(self, dists):
        for d in dists.values():
            n_cap = 6
            m_full = n_cap * d.support_growth
            f = rw.spitzer_series(d, n_cap, max(m_full, 1))
            for n in range(n_cap + 1):
                assert f[n].sum() == pytest.approx(1.0, abs=1e-12)

    def test_stochastic_tail_monotonicity(self, dists):
        for d in dists.values():
            n_cap = 8
            m_full = max(n_cap * d.support_growth, 1)
            mat = rw.spitzer_series(d, n_cap, m_full)
            tails = np.cumsum(mat[:, ::-1], axis=1)[:, ::-1]
            for m0 in range(1, m_full + 1):
                diffs = tails[1:, m0] - tails[:-1, m0]
                assert np.all(diffs >= -1e-11)

    def test_heavy_traffic_shape_matches_dp(self):
        # poisson(1.2), s = 2 at (N, M) = (100, 1500): the long transforms
        d = rw.make_family("poisson", 2, lam=1.2)
        f = rw.spitzer_series(d, 100, 1500)
        dp = rw.lindley_dp(d, 100, 1500)
        rows = dp.complete_rows
        assert rows.sum() > 1
        assert np.max(np.abs(f[rows] - dp.probs[rows])) <= 1e-14
        assert f.min() >= -1e-12
        # above the support of M_n both tables hold exact zeros, not roundoff
        above = np.arange(1501)[None, :] > np.arange(101)[:, None] * d.support_growth
        assert above.sum() == 75_750
        np.testing.assert_array_equal(f[above], 0.0)
        np.testing.assert_array_equal(dp.probs[above], 0.0)

    def test_transform_length_from_the_degree_bounds(self, monkeypatch):
        # every row complete: products reach degree N (J - s) = 1500, not 2M
        sizes = []
        rfft = np.fft.rfft

        def spy(a, n=None, *args, **kwargs):
            sizes.append(n)
            return rfft(a, n, *args, **kwargs)

        monkeypatch.setattr(np.fft, "rfft", spy)
        rw.spitzer_series(rw.make_family("poisson", 2, lam=1.2), 100, 1500)
        assert set(sizes) == {2048}
        # a dense g reaches degree 2M in g_1 f_1, as it did before the bounds
        for m in (0, 1, 5, 64, 700):
            sizes.clear()
            g = np.random.default_rng(m).uniform(0.1, 1.0, (4, m + 1))
            g[0] = 0.0
            rw.series_exp(g)
            assert set(sizes) == {1 << (2 * m).bit_length()}

    def test_support_cap_as_walk_pmf(self, simple, monkeypatch):
        # the laws of S_1 .. S_N come from dist.walk_pmfs, under its cap
        import reflectedwalk.dist as dist_mod

        monkeypatch.setattr(dist_mod, "SUPPORT_CAP", 10)
        with pytest.raises(ValueError) as from_walk:
            dist_mod.walk_pmf(simple, 50)
        with pytest.raises(ValueError) as from_series:
            rw.spitzer_series(simple, 50, 2)
        assert str(from_series.value) == str(from_walk.value)
        assert "exceeds cap 10" in str(from_walk.value)

    def test_exponent_rows_are_the_running_convolutions(self, dists):
        # row l of the exponent is (1/l) E z^{S_l^+} from the l-fold
        # convolution of the A-pmf, one np.convolve per step, to the bit
        for d in dists.values():
            g = np.zeros((9, 7))
            running = d.pmf_a
            for l in range(1, 9):
                g[l] = positive_part_coeffs(running, d.s * l, 6) * (1.0 / l)
                running = np.convolve(running, d.pmf_a)
            np.testing.assert_array_equal(rw.spitzer_series(d, 8, 6), rw.series_exp(g))
