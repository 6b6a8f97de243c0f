import math

import numpy as np
import pytest

import reflectedwalk as rw


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
        d = rw.make_family("geometric", 1, p=0.5, tail_tol=1e-14)
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

    def test_tail_tolerance_cap(self):
        with pytest.raises(ValueError):
            rw.make_family("geometric", 1, p=0.5, tail_tol=1e-2)

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
    def test_two_steps_simple(self, simple):
        w = rw.walk_pmf(simple, 2)
        assert w.prob_at(-2) == pytest.approx(0.25)
        assert w.prob_at(0) == pytest.approx(0.5)
        assert w.prob_at(2) == pytest.approx(0.25)
        assert w.prob_at(1) == 0.0

    def test_degenerate_point_mass(self):
        d = rw.make_family("deterministic", 2, c=2)  # X identically 0
        w = rw.walk_pmf(d, 7)
        assert w.prob_at(0) == pytest.approx(1.0)
        assert w.probs.sum() == pytest.approx(1.0)

    def test_single_step_is_shifted_pmf(self, dists):
        for d in dists.values():
            w = rw.walk_pmf(d, 1)
            assert w.offset == -d.s
            np.testing.assert_allclose(w.probs, d.pmf_a)

    @pytest.mark.parametrize("l1,l2", [(1, 1), (2, 3), (1, 4)])
    def test_semigroup_property(self, dists, l1, l2):
        for d in dists.values():
            combined = rw.walk_pmf(d, l1 + l2)
            left = rw.walk_pmf(d, l1)
            right = rw.walk_pmf(d, l2)
            conv = np.convolve(left.probs, right.probs)
            np.testing.assert_allclose(combined.probs, conv, atol=1e-13)

    def test_mass_conservation(self, dists):
        for d in dists.values():
            for l in (1, 3, 8):
                w = rw.walk_pmf(d, l)
                assert abs(w.probs.sum() - 1.0) <= 1e-12 * l

    def test_support_cap(self, monkeypatch):
        import reflectedwalk.dist as dist_mod

        monkeypatch.setattr(dist_mod, "SUPPORT_CAP", 10)
        d = rw.make_family("explicit", 1, probs=[0.5, 0.0, 0.5])
        with pytest.raises(ValueError, match="cap"):
            dist_mod.walk_pmf(d, 50)


class TestPositivePartPgf:
    def test_one_step_simple(self, simple):
        poly = rw.positive_part_pgf(simple, 1, 3)
        assert isinstance(poly, np.ndarray)
        np.testing.assert_allclose(poly, [0.5, 0.5, 0.0, 0.0])

    def test_two_steps_simple(self, simple):
        poly = rw.positive_part_pgf(simple, 2, 2)
        np.testing.assert_allclose(poly, [0.75, 0.0, 0.25])

    def test_degenerate_is_one(self):
        d = rw.make_family("deterministic", 2, c=2)
        poly = rw.positive_part_pgf(d, 5, 4)
        np.testing.assert_allclose(poly, [1.0, 0.0, 0.0, 0.0, 0.0])

    def test_full_support_sums_to_one(self, dists):
        for d in dists.values():
            for l in (1, 2, 5):
                m_full = max(l * max(d.j_max - d.s, 0), 0)
                poly = rw.positive_part_pgf(d, l, m_full)
                assert poly.sum() == pytest.approx(1.0, abs=1e-12)
