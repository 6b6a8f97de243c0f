import cmath

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import reflectedwalk as rw
from reflectedwalk import cli
from reflectedwalk._complex import circle
from reflectedwalk.contour import (
    QuadratureError,
    RadiusSearchError,
    _cauchy_rows,
    _circle_fft,
    _plus_part,
    pollaczek_unit_grid,
)

from conftest import standard_distributions

STANDARD = standard_distributions()


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
        cert = rw.choose_outer_radius(dists["geometric"], 0.75)
        assert cert.b < 2.0

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
        assert cert.margin == v * rw.pgf_eval(d, cert.b) / cert.b**s
        assert cert.margin <= np.sqrt(v * (1.0 - slack)) * (1.0 + 1e-12) < 1.0 - slack

    def test_no_radius_above_the_slack(self, simple):
        # zero drift: v A(b)/b^s >= v > 1 - MARGIN_SLACK at every b > 1
        with pytest.raises(RadiusSearchError, match="no admissible radius"):
            rw.choose_outer_radius(simple, cli.u_circle(4096)[1])


class TestCircleFFT:
    @staticmethod
    def _rows(w):
        # a cubic, exact at any node count, and 1/(1 - 0.95 w), whose aliases
        # fall by 0.95^N
        return np.stack([w**3 + 0.5 * w, 1.0 / (1.0 - 0.95 * w)])

    def test_each_node_is_sampled_once(self):
        # from 256 nodes the cubic stops at 512 and the other row doubles on:
        # each row is sampled at as many nodes as its spectrum has, and the
        # spectrum is one full transform at that count, to the bit
        sampled = np.zeros(2, dtype=int)

        def f(w, live):
            sampled[live] += w.size
            return self._rows(w)[live]

        def gap(cur, prev, live):
            return np.max(np.abs(cur[:, :16] - prev[:, :16]), axis=-1)

        spectra = _circle_fft(f, 1.0, rw.CircleQuadrature(), gap, rows=2)
        assert len(spectra[0]) == 512 < len(spectra[1])
        assert sampled.tolist() == [len(x) for x in spectra]
        for k, spectrum in enumerate(spectra):
            nodes = len(spectrum)
            full = np.fft.fft(self._rows(circle(1.0, nodes))[k]) / nodes
            np.testing.assert_array_equal(spectrum, full)


def _coeffs(f, n, r, quad):
    """Coefficients n (an int or a 1-D int array) of one function f(w) by _cauchy_rows."""
    row = _cauchy_rows(lambda w, live: f(w)[None], np.reshape(n, (1, -1)), r, quad)[0]
    return complex(row[0]) if np.ndim(n) == 0 else row


class TestCauchyCoeff:
    def test_constant(self, quad):
        assert _coeffs(lambda w: np.full_like(w, 3.5), 0, 1.0, quad) == pytest.approx(3.5)

    def test_monomial(self, quad):
        assert _coeffs(lambda w: w**2, 2, 1.0, quad) == pytest.approx(1.0)
        assert _coeffs(lambda w: w**2, 1, 1.0, quad) == pytest.approx(0.0, abs=1e-13)

    def test_polynomial_exactness(self, quad):
        rng = np.random.default_rng(3)
        coeffs = rng.uniform(-1, 1, 40)
        f = lambda w: np.polyval(coeffs[::-1], w)
        n = np.array([0, 7, 39])
        for got, want in zip(_coeffs(f, n, 1.0, quad), coeffs[n]):
            assert abs(got - want) <= 1e-13 * max(1.0, abs(want))
        for m in n.tolist():
            got = _coeffs(f, m, 1.0, quad)
            assert abs(got - coeffs[m]) <= 1e-13 * max(1.0, abs(coeffs[m]))

    def test_rows_read_as_alone(self, quad):
        # a polynomial row converges at 512 nodes, 1 / (1 - 0.95 w) doubles
        # on: each row of one batched extraction reads the bits of its own
        coeffs = np.random.default_rng(5).uniform(-1, 1, 40)
        rows = [lambda w: np.polyval(coeffs[::-1], w), lambda w: 1.0 / (1.0 - 0.95 * w)]
        n = np.array([[1, 7, 39], [0, 2, 30]])
        got = _cauchy_rows(
            lambda w, live: np.stack([rows[k](w) for k in live.tolist()]), n, 1.0, quad
        )
        for k, f in enumerate(rows):
            np.testing.assert_array_equal(got[k], _coeffs(f, n[k], 1.0, quad))
        np.testing.assert_allclose(got[0].real, coeffs[n[0]], atol=1e-13)
        np.testing.assert_allclose(got[1].real, 0.95 ** n[1], atol=1e-12)

    def test_transform_inversion_recovers_probability(self, simple):
        # [u^2] F(u, 0) = P(M_2 = 0) = 1/2
        quad = rw.CircleQuadrature()

        def f(us):
            out = []
            for u in us:
                roots = rw.find_kernel_roots(simple, u)
                out.append(rw.product_eval(simple, u, 0.0, roots))
            return np.array(out)

        got = _coeffs(f, 2, 0.5, quad)
        assert got.real == pytest.approx(0.5, abs=1e-11)
        assert abs(got.imag) <= 1e-11


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

    def test_cap_checked_for_every_u(self, simple, quad):
        cert = rw.choose_outer_radius(simple, 0.5)
        with pytest.raises(ValueError, match="cap"):
            pollaczek_unit_grid(simple, np.array([0.1, 0.7j]), 32, cert, quad)


class TestVerifyCoeffIdentity:
    def test_degenerate_zero(self, dists, quad):
        d = dists["a-equals-s"]  # S_l identically 0
        cert = rw.choose_outer_radius(d, 0.75)
        integral, pmf = rw.verify_coeff_identity(d, 3, 1, cert, quad)
        assert pmf == 0.0
        assert abs(integral) <= 1e-12

    def test_simple_walk_two_up_steps(self, simple, quad):
        cert = rw.choose_outer_radius(simple, 0.75)
        integral, pmf = rw.verify_coeff_identity(simple, 2, 2, cert, quad)
        assert pmf == pytest.approx(0.25)
        assert integral == pytest.approx(0.25, abs=1e-12)

    def test_geometric_direct_lookup(self, dists, quad):
        d = dists["geometric"]
        cert = rw.choose_outer_radius(d, 0.75)
        integral, pmf = rw.verify_coeff_identity(d, 1, 1, cert, quad)
        assert pmf == pytest.approx(0.125, abs=1e-13)
        assert integral == pytest.approx(pmf, abs=1e-12)

    def test_grid_agreement(self, dists, quad):
        ks = np.array([1, 4, 9])
        for d in dists.values():
            cert = rw.choose_outer_radius(d, 0.75)
            for l in (1, 3, 7):
                scalar = [rw.verify_coeff_identity(d, l, k, cert, quad) for k in ks]
                for integral, pmf in scalar:
                    assert abs(integral - pmf) <= 1e-10
                # one transform for every k reads the same coefficients
                integrals, pmfs = rw.verify_coeff_identity(d, l, ks, cert, quad)
                np.testing.assert_array_equal(pmfs, [pmf for _, pmf in scalar])
                np.testing.assert_array_equal(integrals, [i for i, _ in scalar])

    @pytest.mark.parametrize("law", sorted(STANDARD))
    def test_l_grid_agreement(self, law, quad):
        # one transform for every (l, k) reads the same bits as one per l,
        # the run's grid l = 1, 2, 4 included
        d = STANDARD[law]
        cert = rw.choose_outer_radius(d, 0.75)
        ks = np.array([1, 3, 9])
        for ls in (np.array([1, 2, 4]), np.array([7, 3, 1, 3])):
            integrals, pmfs = rw.verify_coeff_identity(d, ls, ks, cert, quad)
            assert integrals.shape == pmfs.shape == (len(ls), len(ks))
            for row, l in enumerate(ls.tolist()):
                integral, pmf = rw.verify_coeff_identity(d, l, ks, cert, quad)
                np.testing.assert_array_equal(integrals[row], integral)
                np.testing.assert_array_equal(pmfs[row], pmf)

    def test_l_array_with_scalar_k(self, simple, quad):
        cert = rw.choose_outer_radius(simple, 0.75)
        integrals, pmfs = rw.verify_coeff_identity(simple, np.array([1, 2]), 1, cert, quad)
        assert integrals.shape == pmfs.shape == (2,)
        np.testing.assert_allclose(pmfs, [0.5, 0.0])
        np.testing.assert_allclose(integrals, pmfs, atol=1e-12)

    def test_every_l_checked(self, simple, quad):
        cert = rw.choose_outer_radius(simple, 0.75)
        with pytest.raises(ValueError, match=">= 1"):
            rw.verify_coeff_identity(simple, np.array([2, 0]), 1, cert, quad)
