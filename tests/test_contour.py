import cmath
import decimal
import time

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import reflectedwalk as rw
from reflectedwalk import cli
from reflectedwalk._complex import circle, clog
from reflectedwalk.contour import (
    QuadratureError,
    RadiusSearchError,
    _plus_part,
    pollaczek_unit_grid,
)

from conftest import standard_distributions

STANDARD = standard_distributions()
EPS = np.finfo(float).eps


@pytest.fixture(scope="module")
def quad():
    return rw.CircleQuadrature()


class TestCircleQuadrature:
    @pytest.mark.parametrize("nodes", [8, 100, 0])
    def test_invalid_nodes_rejected(self, nodes):
        with pytest.raises(ValueError):
            rw.CircleQuadrature(nodes=nodes)

    def test_no_doublings_rejected(self):
        with pytest.raises(ValueError, match="max_doublings"):
            rw.CircleQuadrature(max_doublings=0)

    @pytest.mark.parametrize("tol", [0.0, -1e-12, float("inf"), float("nan")])
    def test_invalid_tol_rejected(self, tol):
        # inf would pass every gap at once, nan none: neither is a tolerance
        with pytest.raises(ValueError, match="tol"):
            rw.CircleQuadrature(tol=tol)


class TestChooseOuterRadius:
    def test_trivial_pgf_takes_large_radius(self):
        d = rw.make_family("deterministic", 1, c=0)  # A(z) = 1
        cert = rw.choose_outer_radius(d, 0.5)
        assert cert.b > 1.0
        assert cert.margin == pytest.approx(0.5 / cert.b)
        assert cert.margin <= 1.0 - 1e-3

    def test_constant_ratio_family(self, dists):
        # A identically s makes v A(b)/b^s = v for every b
        d = dists["a-equals-s"]
        cert = rw.choose_outer_radius(d, 0.75)
        assert cert.margin == pytest.approx(0.75, abs=1e-12)

    def test_simple_walk_admissible(self, simple):
        cert = rw.choose_outer_radius(simple, 0.5)
        assert 1.0 < cert.b < 2.0 + np.sqrt(3.0)
        assert cert.margin == pytest.approx(
            0.5 * (1 + cert.b**2) / (2 * cert.b), rel=1e-12
        )

    def test_respects_analyticity_radius(self, dists):
        # the grid reaches past 1 / (1 - p) = 2, the pole of the untruncated
        # geometric pgf; the truncated polynomial grows like (b / 2)^J there,
        # so the smallest margin lies below it
        cert = rw.choose_outer_radius(dists["geometric"], 0.75)
        assert cert.b < 2.0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_grid_radii_are_inadmissible(self):
        # geometric(0.05), s = 20, J = 630: A(b) overflows at the top of the
        # grid, where its ratio, read in logs, is huge but finite; no grid
        # radius is admissible, and b0, below the untruncated pole
        # 1 / (1 - p), serves
        d = rw.make_family("geometric", 20, p=0.05)
        v = cli.u_circle(6)[1]
        cert = rw.choose_outer_radius(d, v)
        assert cert.b == ((1.0 - rw.contour.MARGIN_SLACK) / v) ** (0.5 / (d.j_max - d.s))
        assert 1.0 < cert.b < 1.0 / 0.95

    def test_inadmissible_v_rejected(self, simple):
        with pytest.raises(ValueError):
            rw.choose_outer_radius(simple, 1.5)

    @pytest.mark.parametrize("n_max", [6, 100, 4095])
    @pytest.mark.parametrize("family,s,params", [
        ("poisson", 50, {"lam": 100.0}),
        ("poisson", 50, {"lam": 200.0}),
        ("deterministic", 1, {"c": 40}),
    ])
    def test_fallback_radius_admissible(self, family, s, params, n_max):
        # positive drift: no grid radius passes, b0 = ((1 - slack) / v)^(1 / (2 (J - s)))
        # does, with margin at most sqrt(v (1 - slack)): equal to it for A(w) =
        # w^J, up to the rounding of b0's power
        d = rw.make_family(family, s, **params)
        v = cli.u_circle(n_max)[1]
        slack = rw.contour.MARGIN_SLACK
        cert = rw.choose_outer_radius(d, v)
        assert cert.b == ((1.0 - slack) / v) ** (0.5 / (d.j_max - s))
        assert 1.0 < cert.b < 1.05
        # the margin is a log-sum-exp, a few eps from Horner's ratio
        assert cert.margin == pytest.approx(v * rw.pgf_eval(d, cert.b) / cert.b**s, rel=1e-13)
        assert cert.margin <= np.sqrt(v * (1.0 - slack)) * (1.0 + 1e-12) < 1.0 - slack

    @staticmethod
    def _exact_margin(d, v, b):
        # v A(b) / b^s in 60-digit decimal arithmetic, where no power overflows
        with decimal.localcontext() as ctx:
            ctx.prec = 60
            ratio = sum(decimal.Decimal(float(p)) * decimal.Decimal(b) ** (j - d.s)
                        for j, p in enumerate(d.pmf_a) if p)
            return float(decimal.Decimal(v) * ratio)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("s,p,b", [(714, 0.5, 2.494), (450, 0.1, 8.0)])
    def test_large_s_binomial_in_logs(self, s, p, b):
        # A(b) and b^s both overflow on part of the grid: their quotient
        # read NaN (p = 0.5) or 0.0 (p = 0.1); in logs the margin is the
        # tiny positive number it is
        d = rw.make_family("binomial", s, n=1000, p=p)
        v = cli.u_circle(6)[1]
        cert = rw.choose_outer_radius(d, v)
        assert cert.b == pytest.approx(b, abs=1e-3)
        assert 0.0 < cert.margin < 1e-40
        assert cert.margin == pytest.approx(self._exact_margin(d, v, cert.b), rel=1e-12)

    def test_no_radius_above_the_slack(self, simple):
        # zero drift: v A(b)/b^s >= v > 1 - MARGIN_SLACK at every b > 1
        with pytest.raises(RadiusSearchError, match="no admissible radius"):
            rw.choose_outer_radius(simple, cli.u_circle(4096)[1])


class TestPollaczekEval:
    def test_u_zero_gives_one(self, dists, quad):
        for d in dists.values():
            cert = rw.choose_outer_radius(d, 0.75)
            assert rw.pollaczek_eval(d, 0.0, 0.5, cert, quad) == pytest.approx(
                1.0, abs=1e-13
            )

    def test_z_one_short_circuits(self, simple, quad):
        cert = rw.choose_outer_radius(simple, 0.75)
        for u in (0.1, 0.6):
            assert rw.pollaczek_eval(simple, u, 1.0, cert, quad) == 1.0 / (1.0 - u)

    def test_matches_product_representation(self, simple, quad):
        cert = rw.choose_outer_radius(simple, 0.75)
        roots = rw.find_kernel_roots(simple, 0.5)
        pe = rw.product_eval(simple, 0.5, 0.5, roots)
        pl = rw.pollaczek_eval(simple, 0.5, 0.5, cert, quad)
        assert abs(pe - pl) <= 1e-10

    def test_preconditions(self, simple, quad):
        cert = rw.choose_outer_radius(simple, 0.5)
        with pytest.raises(ValueError, match="cap"):
            rw.pollaczek_eval(simple, 0.7, 0.5, cert, quad)
        with pytest.raises(ValueError, match="b"):
            rw.pollaczek_eval(simple, 0.3, cert.b + 1.0, cert, quad)

    @pytest.mark.parametrize("u,z,match", [(np.nan, 0.5, "cap"), (0.3, np.nan, "b")])
    def test_nan_rejected_at_once(self, simple, quad, u, z, match):
        # a nan u would double the plus part to its last node count, a nan z
        # would return nan: each range check must reject it
        cert = rw.choose_outer_radius(simple, 0.5)
        start = time.perf_counter()
        with pytest.raises(ValueError, match=match):
            rw.pollaczek_eval(simple, u, z, cert, quad)
        assert time.perf_counter() - start < 1.0

    def test_non_convergence_reported(self, simple):
        cert = rw.choose_outer_radius(simple, 0.75)
        starved = rw.CircleQuadrature(nodes=16, max_doublings=1, tol=1e-15)
        with pytest.raises(QuadratureError, match="doubling"):
            rw.pollaczek_eval(simple, 0.6, 0.9, cert, starved)

    def test_doubling_at_least_squares_error(self, simple):
        # geometric convergence of the trapezoid rule on the circle
        cert = rw.choose_outer_radius(simple, 0.75)
        u, z = 0.5, 0.5
        ref = rw.pollaczek_eval(
            simple, u, z, cert, rw.CircleQuadrature(nodes=1 << 14, tol=1e-13)
        )

        def estimate(nodes):
            w = circle(cert.b, nodes)
            lw = np.log(1.0 - u * rw.pgf_eval(simple, w) / w**simple.s)
            frac = (1.0 - z) / ((w - 1.0) * (w - z))
            return np.exp(np.mean(frac * lw * w)) / (1.0 - u)

        errors = []
        nodes = 16
        while nodes <= 1 << 13:
            errors.append(abs(estimate(nodes) - ref))
            nodes *= 2
        for e_n, e_2n in zip(errors, errors[1:]):
            if e_n < 1e-11:
                break
            assert e_2n <= max(10.0 * e_n**2, 1e-11)


class TestPlusPart:
    """The FFT plus-part route against independent values."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(sorted(STANDARD)),
        st.floats(min_value=0.05, max_value=0.75),
        st.floats(min_value=0.0, max_value=2 * np.pi),
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=2 * np.pi),
    )
    def test_matches_product_representation(self, name, r_u, t_u, r_z, t_z):
        d = STANDARD[name]
        u, z = cmath.rect(r_u, t_u), cmath.rect(r_z, t_z)
        roots = rw.find_kernel_roots(d, u)
        # product_eval is a 0/0 ratio at a kernel root
        assume(np.min(np.abs(z - roots.roots)) > 1e-3)
        cert = rw.choose_outer_radius(d, 0.75)
        pl = rw.pollaczek_eval(d, u, z, cert, rw.CircleQuadrature())
        assert abs(pl - rw.product_eval(d, u, z, roots)) <= 1e-9

    @pytest.mark.parametrize("nz", [16, 64, 512])
    def test_unit_grid_matches_pointwise(self, dists, quad, nz):
        z_nodes = np.exp(2j * np.pi * np.arange(nz) / nz)
        for d in dists.values():
            cert = rw.choose_outer_radius(d, 0.75)
            for u in (0.3, -0.6, 0.5j, 0.7 * cmath.exp(1j)):
                grid = pollaczek_unit_grid(d, u, nz, cert, quad)
                point = rw.pollaczek_eval(d, u, z_nodes, cert, quad)
                assert np.max(np.abs(grid - point)) <= 1e-13

    def test_z_one_exact(self, dists, quad):
        for d in dists.values():
            cert = rw.choose_outer_radius(d, 0.75)
            for u in (0.0, 0.3, -0.7, 0.5j, 0.6 * cmath.exp(2j)):
                assert rw.pollaczek_eval(d, u, 1.0, cert, quad) == 1.0 / (1.0 - u)
                grid = pollaczek_unit_grid(d, u, 32, cert, quad)
                assert grid[0] == 1.0 / (1.0 - u)

    def test_starved_grid_raises(self, simple):
        cert = rw.choose_outer_radius(simple, 0.75)
        starved = rw.CircleQuadrature(nodes=16, max_doublings=1, tol=1e-15)
        with pytest.raises(QuadratureError, match="doubling"):
            pollaczek_unit_grid(simple, 0.6, 64, cert, starved)

    def test_outside_unit_disk(self, dists, quad):
        # the c_k sum stays finite and accurate for 1 < |z| < b
        d = dists["binomial"]
        cert = rw.choose_outer_radius(d, 0.75)
        z = 0.5 * (1.0 + cert.b)
        roots = rw.find_kernel_roots(d, 0.4)
        pl = rw.pollaczek_eval(d, 0.4, z, cert, quad)
        assert abs(pl - rw.product_eval(d, 0.4, z, roots)) <= 1e-9


class TestBatchedPlusPart:
    """An array of u is one plus-part FFT per node count, row by row."""

    NODES = 0.5 * np.exp(2j * np.pi * np.arange(33) / 64)

    @pytest.mark.parametrize("law", sorted(STANDARD))
    def test_unit_grid_rows_match_scalar_calls(self, law, quad):
        d = STANDARD[law]
        cert = rw.choose_outer_radius(d, 0.75)
        grid = pollaczek_unit_grid(d, self.NODES, 32, cert, quad)
        assert grid.shape == (len(self.NODES), 32)
        for k, u in enumerate(self.NODES):
            one = pollaczek_unit_grid(d, u, 32, cert, quad)
            assert np.max(np.abs(grid[k] - one)) <= 1e-15

    @pytest.mark.parametrize("law", ["simple-walk", "poisson"])
    def test_rows_converge_at_their_own_node_count(self, law):
        # from 16 nodes, u = 0.05, 0.3 and 0.7 stop at different counts
        d = STANDARD[law]
        cert = rw.choose_outer_radius(d, 0.75)
        quad = rw.CircleQuadrature(nodes=16)
        us = np.array([0.05, 0.3, 0.7])
        alone = [_plus_part(d, us[k : k + 1], cert, quad, 1.0)[0] for k in range(len(us))]
        assert len({len(a) for a in alone}) > 1
        batch = _plus_part(d, us, cert, quad, 1.0)
        assert batch.shape[-1] == max(len(a) for a in alone)
        for row, a in zip(batch, alone):
            np.testing.assert_array_equal(row[: len(a)], a)
            assert not np.any(row[len(a) :])
        grid = pollaczek_unit_grid(d, us, 64, cert, quad)
        for k, u in enumerate(us):
            assert np.max(np.abs(grid[k] - pollaczek_unit_grid(d, u, 64, cert, quad))) <= 1e-15

    def test_batch_with_one_starved_row_raises(self, simple):
        # u = 0 converges at once (L = 0); u = 0.6 cannot in one doubling
        cert = rw.choose_outer_radius(simple, 0.75)
        starved = rw.CircleQuadrature(nodes=16, max_doublings=1, tol=1e-15)
        assert not np.any(pollaczek_unit_grid(simple, 0.0, 64, cert, starved) - 1.0)
        with pytest.raises(QuadratureError, match="doubling"):
            pollaczek_unit_grid(simple, np.array([0.0, 0.6]), 64, cert, starved)

    def test_each_node_is_sampled_once(self, simple, monkeypatch):
        # from 16 nodes, u = 0 stops at the first doubling and u = 0.6
        # doubles on; A(w)/w^s is taken once per node count for every live
        # row, at the new odd nodes only, so its points add up to the widest
        # row's node count, and that row is one full transform at that
        # count, to the bit
        cert = rw.choose_outer_radius(simple, 0.75)
        points = []
        ratio = rw.contour._kernel_ratio
        monkeypatch.setattr(
            rw.contour, "_kernel_ratio",
            lambda d, b, nodes, k: points.append(k.size) or ratio(d, b, nodes, k),
        )
        quad = rw.CircleQuadrature(nodes=16)
        a = _plus_part(simple, np.array([0.0, 0.6]), cert, quad, 1.0)
        assert len(points) > 2
        assert sum(points) == 2 * a.shape[-1]
        assert not np.any(a[0])
        nodes = 2 * a.shape[-1]
        full = np.fft.fft(clog(1.0 - 0.6 * ratio(simple, cert.b, nodes, np.arange(nodes)))) / nodes
        full[0] = 0.0
        np.testing.assert_array_equal(a[1], full[: a.shape[-1]])

    @pytest.mark.parametrize("law", sorted(STANDARD))
    def test_kernel_ratio_is_the_quotient(self, law):
        # the scaled sum is A(w)/w^s on |w| = b to within a few eps of its size
        d = STANDARD[law]
        cert = rw.choose_outer_radius(d, 0.75)
        w = circle(cert.b, 64)
        direct = rw.pgf_eval(d, w) / w**d.s
        scaled = rw.contour._kernel_ratio(d, cert.b, 64, np.arange(64))
        assert np.max(np.abs(scaled - direct)) <= 64 * EPS * np.max(np.abs(direct))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_plus_part_where_b_to_the_s_overflows(self):
        # binomial(1000, 0.1), s = 450 takes b = 8 and 8^450 overflows: the
        # scaled sum keeps u A(w)/w^s finite, and the plus part converges at
        # the first node counts instead of doubling to 2^20 on NaN gaps
        d = rw.make_family("binomial", 450, n=1000, p=0.1)
        cert = rw.choose_outer_radius(d, cli.u_circle(6)[1])
        assert cert.b == 8.0 and d.s * np.log(cert.b) > np.log(np.finfo(float).max)
        u = np.array([0.0, 0.2, cert.v])
        a = _plus_part(d, u, cert, rw.CircleQuadrature(), 1.0)
        assert np.all(np.isfinite(a)) and a.shape[-1] <= 1024
        grid = pollaczek_unit_grid(d, u, 16, cert, rw.CircleQuadrature())
        np.testing.assert_allclose(grid[:, 0], 1.0 / (1.0 - u), rtol=1e-15)

    def test_nan_u_rejected_at_once(self, simple, quad):
        cert = rw.choose_outer_radius(simple, 0.5)
        start = time.perf_counter()
        with pytest.raises(ValueError, match="cap"):
            pollaczek_unit_grid(simple, np.array([0.1, np.nan]), 32, cert, quad)
        assert time.perf_counter() - start < 1.0

    def test_cap_checked_for_every_u(self, simple, quad):
        cert = rw.choose_outer_radius(simple, 0.5)
        with pytest.raises(ValueError, match="cap"):
            pollaczek_unit_grid(simple, np.array([0.1, 0.7j]), 32, cert, quad)


class TestVerifyCoeffIdentity:
    def test_degenerate_zero(self, dists):
        d = dists["a-equals-s"]  # S_l identically 0
        integral, pmf = rw.verify_coeff_identity(d, 3, 1)
        assert pmf == 0.0
        assert abs(integral) <= 1e-12

    def test_index_past_the_degree_does_not_alias(self, dists):
        # A(w)^1 = w^2 has degree 2; k + s l = 42 is read on N > 42 nodes,
        # where no alias of w^2 lands
        d = dists["a-equals-s"]
        integral, pmf = rw.verify_coeff_identity(d, 1, 40)
        assert pmf == 0.0
        assert abs(integral) <= 1e-15

    def test_large_support_on_the_run_grid(self):
        # geometric(0.05), s = 20: J = 630, A(w)^4 of degree 2520, one FFT
        d = rw.make_family("geometric", 20, p=0.05)
        ls, ks = np.array([1, 2, 4]), np.array([1, 3])
        integrals, pmfs = rw.verify_coeff_identity(d, ls, ks)
        assert np.all(pmfs > 0.0)
        assert np.max(np.abs(integrals - pmfs)) <= 1e-15

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_wide_binomial_at_its_radius(self):
        # binomial(1000, 0.01), s = 30: J = 161, whose Pollaczek radius
        # b ~ 3.06 the identity no longer reads; |w| = 1 serves every law
        d = rw.make_family("binomial", 30, n=1000, p=0.01)
        integrals, pmfs = rw.verify_coeff_identity(d, np.array([1, 2, 4]), np.array([1, 3]))
        assert np.max(np.abs(integrals - pmfs)) <= cli.CHECK_TOL["coefficient-identity"]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("j_max", [400, 1000])
    def test_overflowing_power_of_b(self, j_max):
        # a subnormal last atom puts the Pollaczek radius b where b^J
        # overflows; on |w| = 1 no power of the radius is taken at all.
        # Every S_l = k + l, k >= 1, needs that atom: each pmf is 0.0
        probs = np.zeros(j_max + 1)
        probs[:2] = 0.7, 0.3
        probs[j_max] = 1e-320
        d = rw.make_family("explicit", 1, probs=probs)
        cert = rw.choose_outer_radius(d, cli.u_circle(6)[1])
        assert j_max * np.log(cert.b) > np.log(np.finfo(float).max)
        integrals, pmfs = rw.verify_coeff_identity(d, np.array([1, 2, 4]), np.array([1, 3]))
        assert np.all(pmfs == 0.0)
        assert np.max(np.abs(integrals - pmfs)) <= 1e-15

    def test_support_cap_fires_before_the_transform(self, simple, monkeypatch):
        monkeypatch.setattr(rw.dist, "SUPPORT_CAP", 10)
        monkeypatch.setattr(rw.contour, "circle_polyval", None)
        with pytest.raises(ValueError, match="exceeds cap 10"):
            rw.verify_coeff_identity(simple, 50, 1)

    def test_simple_walk_two_up_steps(self, simple):
        integral, pmf = rw.verify_coeff_identity(simple, 2, 2)
        assert pmf == pytest.approx(0.25)
        assert integral == pytest.approx(0.25, abs=1e-12)

    def test_geometric_direct_lookup(self, dists):
        d = dists["geometric"]
        integral, pmf = rw.verify_coeff_identity(d, 1, 1)
        assert pmf == pytest.approx(0.125, abs=1e-13)
        assert integral == pytest.approx(pmf, abs=1e-12)

    def test_grid_agreement(self, dists):
        ks = np.array([1, 4, 9])
        for d in dists.values():
            for l in (1, 3, 7):
                scalar = [rw.verify_coeff_identity(d, l, k) for k in ks]
                for integral, pmf in scalar:
                    assert abs(integral - pmf) <= 1e-15
                # one transform for every k reads the same pmfs, and its
                # coefficients to within an eps: N grows with the largest k
                integrals, pmfs = rw.verify_coeff_identity(d, l, ks)
                np.testing.assert_array_equal(pmfs, [pmf for _, pmf in scalar])
                assert np.max(np.abs(integrals - [i for i, _ in scalar])) <= EPS

    @pytest.mark.parametrize("law", sorted(STANDARD))
    def test_l_grid_agreement(self, law):
        # one transform for every (l, k) agrees with one per l, the run's
        # grid l = 1, 2, 4 included, to within an eps
        d = STANDARD[law]
        ks = np.array([1, 3, 9])
        for ls in (np.array([1, 2, 4]), np.array([7, 3, 1, 3])):
            integrals, pmfs = rw.verify_coeff_identity(d, ls, ks)
            assert integrals.shape == pmfs.shape == (len(ls), len(ks))
            assert np.max(np.abs(integrals - pmfs)) <= 1e-15
            for row, l in enumerate(ls.tolist()):
                integral, pmf = rw.verify_coeff_identity(d, l, ks)
                assert np.max(np.abs(integrals[row] - integral)) <= EPS
                np.testing.assert_array_equal(pmfs[row], pmf)

    def test_l_array_with_scalar_k(self, simple):
        integrals, pmfs = rw.verify_coeff_identity(simple, np.array([1, 2]), 1)
        assert integrals.shape == pmfs.shape == (2,)
        np.testing.assert_allclose(pmfs, [0.5, 0.0])
        np.testing.assert_allclose(integrals, pmfs, atol=1e-12)

    def test_every_l_checked(self, simple):
        with pytest.raises(ValueError, match=">= 1"):
            rw.verify_coeff_identity(simple, np.array([2, 0]), 1)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("family,s,params", [
        ("poisson", 300, {"lam": 100.0}),
        ("binomial", 450, {"n": 1000, "p": 0.1}),
        ("binomial", 714, {"n": 1000, "p": 0.5}),
    ])
    def test_large_s_laws_stay_finite(self, family, s, params):
        # A(b)^4 overflowed at these laws' Pollaczek radii; |A(w)| <= 1 on
        # |w| = 1, so every power is finite
        d = rw.make_family(family, s, **params)
        integrals, pmfs = rw.verify_coeff_identity(d, np.array([1, 2, 4]), np.array([1, 3]))
        assert np.all(np.isfinite(integrals))
        assert np.max(np.abs(integrals - pmfs)) <= 1e-16
