import numpy as np
import pytest

from reflectedwalk._complex import cexp, circle, circle_polyval, clog, next_pow2

EPS = np.finfo(float).eps


def _bits(x):
    return np.asarray(x, dtype=complex).view(np.uint64)


class TestClog:
    def test_within_a_few_eps_of_np_log(self):
        rng = np.random.default_rng(0)
        n = 100_000
        x = 10.0 ** rng.uniform(-8, 8, n) * np.exp(1j * rng.uniform(-np.pi, np.pi, n))
        ref = np.log(x)
        err = np.abs(clog(x) - ref)
        assert np.all(err <= 8 * EPS * np.maximum(1.0, np.abs(ref)))

    @pytest.mark.parametrize("x", [-1 + 0j, complex(-1, -0.0), -2 + 0j, 0.5j, -0.5j])
    def test_branch_cut_is_np_logs(self, x):
        # signed zeros included: arctan2 gives -pi below the cut, as clog does
        np.testing.assert_array_equal(_bits(clog(np.array([x]))), _bits(np.log(np.array([x]))))


class TestCexp:
    def test_within_a_few_eps_relative_of_np_exp(self):
        rng = np.random.default_rng(1)
        n = 100_000
        x = rng.uniform(-30, 30, n) + 1j * rng.uniform(-50, 50, n)
        ref = np.exp(x)
        assert np.all(np.abs(cexp(x) - ref) <= 4 * EPS * np.abs(ref))

    def test_zero_is_one_exactly(self):
        # the Pollaczek exponent is set to 0 at z = 1, so F(u, 1) = 1 / (1 - u)
        np.testing.assert_array_equal(_bits(cexp(np.zeros(5, dtype=complex))), _bits(np.ones(5)))


class TestCircle:
    @pytest.mark.parametrize("nodes", [16, 32, 64, 128, 256, 512, 1024, 2048])
    def test_bit_identical_to_np_exp(self, nodes):
        for radius in (1.0, 0.4028, 1.37):
            ref = radius * np.exp(2j * np.pi * np.arange(nodes) / nodes)
            np.testing.assert_array_equal(_bits(circle(radius, nodes)), _bits(ref))

    def test_upper_half_is_a_prefix(self):
        # the u inversion samples circle(r, nu)[: nu // 2 + 1]
        nu, r = 64, 0.7
        ref = r * np.exp(2j * np.pi * np.arange(nu // 2 + 1) / nu)
        np.testing.assert_array_equal(_bits(circle(r, nu)[: nu // 2 + 1]), _bits(ref))

    @pytest.mark.parametrize("nodes", [16, 256, 512, 1024, 2048])
    def test_even_nodes_of_the_doubled_circle(self, nodes):
        # the Pollaczek plus part keeps the samples at circle(r, N) as the
        # even samples at circle(r, 2N), and evaluates only the odd nodes
        for radius in (1.0, 0.4028, 1.37):
            np.testing.assert_array_equal(
                _bits(circle(radius, 2 * nodes)[::2].copy()), _bits(circle(radius, nodes))
            )


class TestNextPow2:
    @pytest.mark.parametrize("n,want", [(1, 16), (16, 16), (17, 32), (1024, 1024), (1025, 2048)])
    def test_smallest_power_of_two_from_16(self, n, want):
        assert next_pow2(n) == want


class TestCirclePolyval:
    @pytest.mark.parametrize("nodes", [16, 64, 256])
    @pytest.mark.parametrize("degree", [0, 5, 15, 16, 40, 600])
    def test_matches_the_direct_sum(self, nodes, degree):
        # degree >= nodes folds the coefficients mod nodes
        rng = np.random.default_rng(degree + nodes)
        c = rng.standard_normal((3, degree + 1)) + 1j * rng.standard_normal((3, degree + 1))
        w = circle(1.0, nodes)
        direct = c @ w ** np.arange(degree + 1)[:, None]
        got = circle_polyval(c, nodes)
        assert got.shape == (3, nodes)
        scale = np.sum(np.abs(c), axis=-1, keepdims=True)
        assert np.all(np.abs(got - direct) <= 1e3 * EPS * scale)

    @pytest.mark.parametrize("nodes", [16, 256, 4096])
    def test_forward_norm_is_scaled_ifft(self, nodes):
        # the two callers it replaced used N * ifft(x) and ifft(x, norm="forward");
        # for a power-of-two N they are the same bits
        rng = np.random.default_rng(nodes)
        x = rng.standard_normal((2, nodes)) + 1j * rng.standard_normal((2, nodes))
        np.testing.assert_array_equal(_bits(circle_polyval(x, nodes)), _bits(nodes * np.fft.ifft(x)))
