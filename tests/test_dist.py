import math
import time

import numpy as np
import pytest

import reflectedwalk as rw
from reflectedwalk.dist import positive_part_coeffs, walk_pmfs


def geometric_truncation_order(p, tol):
    """Independent oracle: smallest J with removed tail mass <= tol, by
    direct tail summation."""
    j = 0
    while (1.0 - p) ** (j + 1) > tol:
        j += 1
    return j


class TestMakeFamily:
    def test_deterministic_point_mass(self):
        d = rw.make_family("deterministic", 2, c=2)
        assert d.j_max == 2
        np.testing.assert_array_equal(d.pmf_a, [0.0, 0.0, 1.0])

    def test_explicit_simple_walk(self, simple):
        np.testing.assert_array_equal(simple.pmf_a, [0.5, 0.0, 0.5])
        assert simple.s == 1

    def test_geometric_truncation_order(self):
        d = rw.make_family("geometric", 1, p=0.5)
        assert d.j_max == geometric_truncation_order(0.5, 1e-14) == 46
        assert d.truncation_defect <= 1e-14
        assert math.isclose(d.pmf_a.sum(), 1.0, abs_tol=1e-14)
        assert d.analyticity_radius_hint == 2.0

    def test_poisson_radius_is_infinite(self):
        d = rw.make_family("poisson", 2, lam=1.2)
        assert d.analyticity_radius_hint == math.inf
        assert d.truncation_defect <= 1e-14

    @pytest.mark.parametrize(
        "family,kwargs",
        [
            ("geometric", {"p": 1.5}),
            ("geometric", {"p": 0.0}),
            ("binomial", {"n": 3, "p": -0.1}),
            ("poisson", {"lam": -1.0}),
            ("deterministic", {"c": -1}),
            ("nosuch", {}),
        ],
    )
    def test_invalid_parameters_rejected(self, family, kwargs):
        with pytest.raises(ValueError):
            rw.make_family(family, 1, **kwargs)

    @pytest.mark.parametrize(
        "family,kwargs,match",
        [
            ("explicit", {"probs": [0.5, math.nan, 0.5]}, "finite"),
            ("explicit", {"probs": [math.inf, 0.0]}, "finite"),
            ("poisson", {"lam": math.nan}, "finite lam"),
            ("poisson", {"lam": math.inf}, "finite lam"),
            ("poisson", {"lam": 800.0}, "underflows"),
            ("poisson", {"lam": 710.0}, "underflows"),
            ("geometric", {"p": math.nan}, "p in"),
            ("geometric", {"p": 1e-4}, "more than 100000 terms"),
            ("binomial", {"n": 2000, "p": 0.5}, "n <= 1029"),
            ("binomial", {"n": 1030, "p": 0.01}, "n <= 1029"),
            ("binomial", {"n": math.inf, "p": 0.5}, "n <= 1029"),
            ("binomial", {"n": math.nan, "p": 0.5}, "n >= 0"),
            ("binomial", {"n": 2.5, "p": 0.5}, "integer n"),
            ("deterministic", {"c": math.inf}, "integer c"),
            ("deterministic", {"c": math.nan}, "integer c"),
            ("bernoulli", {"c": math.inf, "p": 0.5}, "integer"),
            ("bernoulli", {"c": math.nan, "p": 0.5}, "integer"),
            ("bernoulli", {"c": 2.5, "p": 0.5}, "integer"),
        ],
    )
    def test_bad_input_raises_at_once(self, family, kwargs, match):
        start = time.perf_counter()
        with pytest.raises(ValueError, match=match):
            rw.make_family(family, 1, **kwargs)
        assert time.perf_counter() - start < 1.0

    def test_non_finite_pmf_rejected(self):
        for bad in ([0.5, math.nan, 0.5], [math.nan], [1.0, -math.inf, math.inf]):
            with pytest.raises(ValueError, match="finite"):
                rw.IncrementDistribution(s=1, pmf_a=np.array(bad))

    def test_largest_binomial_n(self):
        # every C(n, j) is a float up to BINOMIAL_N_MAX and no further
        top = rw.dist.BINOMIAL_N_MAX
        assert math.isfinite(float(math.comb(top, top // 2)))
        with pytest.raises(OverflowError):
            float(math.comb(top + 1, (top + 1) // 2))
        d = rw.make_family("binomial", 1, n=top, p=0.5)
        assert d.j_max == top and abs(d.pmf_a.sum() - 1.0) <= 1e-12

    def test_largest_poisson_lam(self):
        # exp(-708) is still a normal float, and the pmf sums to 1
        d = rw.make_family("poisson", 1, lam=708.0)
        assert abs(d.pmf_a.sum() - 1.0) <= 1e-14
        assert d.truncation_defect <= 1e-14

    def test_long_geometric_builds_fast(self):
        start = time.perf_counter()
        d = rw.make_family("geometric", 1, p=1e-3)
        assert time.perf_counter() - start < 1.0
        assert d.j_max == 32_359
        assert d.truncation_defect <= 1e-14

    @pytest.mark.parametrize(
        "family,kwargs",
        [
            ("poisson", {"lam": 1.2}),
            ("poisson", {"lam": 14.0}),
            ("poisson", {"lam": 45.0}),
            ("poisson", {"lam": 300.0}),
            ("geometric", {"p": 0.5}),
            ("geometric", {"p": 0.05}),
            ("geometric", {"p": 0.01}),
        ],
    )
    def test_truncation_is_the_per_term_fsum_stop(self, family, kwargs):
        # the first J with 1 - fsum(t_0..t_J) <= TAIL_TOL, as a per-term
        # fsum loop finds it, with the same terms and defect to the bit
        lam, p = kwargs.get("lam"), kwargs.get("p")
        terms = [math.exp(-lam) if lam else p]
        while 1.0 - math.fsum(terms) > rw.dist.TAIL_TOL:
            terms.append(terms[-1] * lam / len(terms) if lam else terms[-1] * (1.0 - p))
        d = rw.make_family(family, 1, **kwargs)
        assert d.j_max == len(terms) - 1
        np.testing.assert_array_equal(d.pmf_a, rw.make_family("explicit", 1, probs=terms).pmf_a)
        assert d.truncation_defect == max(1.0 - math.fsum(terms), 0.0)

    def test_zero_p0_warns(self):
        with pytest.warns(UserWarning, match="origin"):
            rw.make_family("deterministic", 1, c=1)

    def test_all_families_normalized(self, dists):
        for d in dists.values():
            assert abs(d.pmf_a.sum() - 1.0) <= 1e-14
            assert np.all(d.pmf_a >= 0.0)


class TestPgfEval:
    def test_monomial(self):
        d = rw.make_family("deterministic", 2, c=2)
        assert rw.pgf_eval(d, 1.7) == pytest.approx(1.7**2)
        assert rw.pgf_eval(d, 0.3 + 0.4j) == pytest.approx((0.3 + 0.4j) ** 2)

    def test_normalization_at_one(self, dists):
        for d in dists.values():
            assert abs(rw.pgf_eval(d, 1.0) - 1.0) <= 1e-14

    def test_simple_walk_at_i(self, simple):
        # 0.5 + 0.5 w^2 at w = i
        assert rw.pgf_eval(simple, 1j) == pytest.approx(0.0, abs=1e-15)

    def test_circle_majorization(self, dists):
        for d in dists.values():
            b = 1.3
            w = b * np.exp(2j * np.pi * np.arange(64) / 64)
            assert np.all(np.abs(rw.pgf_eval(d, w)) <= rw.pgf_eval(d, b) + 1e-13)


class TestWalkPmf:
    """walk_pmf(d, l)[i] = P(S_l = i - s l)."""

    def test_two_steps_simple(self, simple):
        w = rw.walk_pmf(simple, 2)  # S_2 in {-2, ..., 2} at entries 0..4
        assert w[0] == pytest.approx(0.25)
        assert w[2] == pytest.approx(0.5)
        assert w[4] == pytest.approx(0.25)
        assert w[3] == 0.0

    def test_degenerate_point_mass(self):
        d = rw.make_family("deterministic", 2, c=2)  # X identically 0
        w = rw.walk_pmf(d, 7)
        assert w[d.s * 7] == pytest.approx(1.0)
        assert w.sum() == pytest.approx(1.0)

    def test_single_step_is_shifted_pmf(self, dists):
        for d in dists.values():
            np.testing.assert_allclose(rw.walk_pmf(d, 1), d.pmf_a)

    @pytest.mark.parametrize("l1,l2", [(1, 1), (2, 3), (1, 4)])
    def test_semigroup_property(self, dists, l1, l2):
        for d in dists.values():
            combined = rw.walk_pmf(d, l1 + l2)
            conv = np.convolve(rw.walk_pmf(d, l1), rw.walk_pmf(d, l2))
            np.testing.assert_allclose(combined, conv, atol=1e-13)

    def test_mass_conservation(self, dists):
        for d in dists.values():
            for l in (1, 3, 8):
                assert abs(rw.walk_pmf(d, l).sum() - 1.0) <= 1e-12 * l

    def test_support_cap(self, monkeypatch):
        import reflectedwalk.dist as dist_mod

        monkeypatch.setattr(dist_mod, "SUPPORT_CAP", 10)
        d = rw.make_family("explicit", 1, probs=[0.5, 0.0, 0.5])
        with pytest.raises(ValueError, match="cap"):
            dist_mod.walk_pmf(d, 50)


class TestWalkPmfs:
    def test_each_power_as_walk_pmf(self, dists):
        for d in dists.values():
            laws = list(walk_pmfs(d, 6))
            assert len(laws) == 6
            for l, law in enumerate(laws, start=1):
                np.testing.assert_array_equal(law, rw.walk_pmf(d, l))

    def test_cap_raises_before_the_first_power(self, simple, monkeypatch):
        monkeypatch.setattr(rw.dist, "SUPPORT_CAP", 10)
        with pytest.raises(ValueError, match="support length 101 exceeds cap 10"):
            next(walk_pmfs(simple, 50))
        # below the cap every power up to l_max comes out
        assert len(list(walk_pmfs(simple, 4))) == 4

    def test_l_max_below_one_rejected(self, simple):
        with pytest.raises(ValueError, match=">= 1"):
            next(walk_pmfs(simple, 0))


def _positive_part(d, l, m):
    """pgf coefficients of S_l^+, truncated to degree m."""
    return positive_part_coeffs(rw.walk_pmf(d, l), d.s * l, m)


class TestPositivePartPgf:
    def test_one_step_simple(self, simple):
        poly = _positive_part(simple, 1, 3)
        assert isinstance(poly, np.ndarray)
        np.testing.assert_allclose(poly, [0.5, 0.5, 0.0, 0.0])

    def test_two_steps_simple(self, simple):
        poly = _positive_part(simple, 2, 2)
        np.testing.assert_allclose(poly, [0.75, 0.0, 0.25])

    def test_degenerate_is_one(self):
        d = rw.make_family("deterministic", 2, c=2)
        poly = _positive_part(d, 5, 4)
        np.testing.assert_allclose(poly, [1.0, 0.0, 0.0, 0.0, 0.0])

    def test_full_support_sums_to_one(self, dists):
        for d in dists.values():
            for l in (1, 2, 5):
                m_full = max(l * max(d.j_max - d.s, 0), 0)
                poly = _positive_part(d, l, m_full)
                assert poly.sum() == pytest.approx(1.0, abs=1e-12)
