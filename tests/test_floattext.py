"""The vectorized float text against repr, value for value."""

import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reflectedwalk import _floattext
from reflectedwalk._floattext import float_text

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

TINY = 2.2250738585072014e-308  # the smallest normal double


def reprs(x):
    return [repr(v).encode() for v in np.asarray(x, dtype=float).ravel().tolist()]


def kernel_text(x):
    """The kernel's own text of every normal value, and its positional mask."""
    bits = np.asarray(x, dtype=float).ravel().view(np.uint64)
    exponent = (bits >> np.uint64(52)) & np.uint64(0x7FF)
    normal = bits[(exponent != np.uint64(0)) & (exponent != np.uint64(0x7FF))]
    words, positional = _floattext._exponent_text(normal)
    return normal.view(np.float64), words.view("S24").ravel(), positional


def assert_matches_repr(x):
    """float_text equals repr everywhere, and the kernel equals it on every
    normal value it keeps: exactly those whose repr has an exponent."""
    x = np.asarray(x, dtype=float)
    assert float_text(x).ravel().tolist() == reprs(x)
    values, texts, positional = kernel_text(x)
    want = reprs(values)
    assert positional.tolist() == [b"e" not in t for t in want]
    got = texts[~positional].tolist()
    assert got == [t for t, p in zip(want, positional) if not p]
    return len(got)


def with_neighbours(x):
    x = np.asarray(x, dtype=float)
    with np.errstate(over="ignore"):
        return np.concatenate([x, np.nextafter(x, np.inf), np.nextafter(x, -np.inf)])


def test_random_bit_patterns():
    # 10^5 seeded patterns: both signs, every exponent, NaN payloads
    rng = np.random.default_rng(20201)
    bits = rng.integers(0, 2**64 - 1, 100_000, dtype=np.uint64, endpoint=True)
    assert assert_matches_repr(bits.view(np.float64)) > 90_000


def test_random_tiny_probabilities():
    # the shape of a probability table: magnitudes down to the smallest
    # normal, a few negative roundoff cells
    rng = np.random.default_rng(7)
    x = np.exp(rng.uniform(np.log(TINY), 0.0, 100_000))
    x[rng.random(x.size) < 0.1] *= -1e-3
    assert assert_matches_repr(x) > 90_000


def test_powers_of_two_and_ten_with_neighbours():
    # 2^e has significand 2^52, where the spacing below halves and the
    # rounding interval is asymmetric; its lower neighbour has 2^53 - 1
    twos = np.ldexp(1.0, np.arange(-1074, 1024))
    tens = np.array([float(f"1e{e}") for e in range(-323, 309)])
    x = with_neighbours(np.concatenate([twos, tens]))
    assert assert_matches_repr(x) > 7000
    assert assert_matches_repr(-x) > 0


def test_borders_and_special_values():
    # repr switches form at 1e-4 and 1e16; subnormals, zeros, inf and nan
    # go by the repr route
    specials = [1e-4, 1e16, 1e-5, 1e17, 9.999999999999999e-05, 9999999999999998.0,
                TINY, 5e-324, 2.5e-310, 4e-320, 0.0, np.inf, np.nan,
                1.7976931348623157e308, 0.1, 1.0, 123.5]
    x = with_neighbours(specials)
    assert_matches_repr(np.concatenate([x, -x]))
    texts = float_text(np.resize(np.array([0.0, -0.0, np.inf, -np.inf, np.nan]), 600))
    assert texts[:5].tolist() == [b"0.0", b"-0.0", b"inf", b"-inf", b"nan"]


def test_every_subnormal_binade():
    x = np.ldexp(1.0, np.arange(-1074, -1022))
    x = np.concatenate([x, x * 3.0, x * 0.75, x * 1.2345])
    assert_matches_repr(with_neighbours(x[x > 0]))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
def test_bit_pattern_property(patterns):
    x = np.array(patterns, dtype=np.uint64).view(np.float64)
    assert_matches_repr(x)
    # tiled past the repr cutoff, float_text takes its vectorized route
    tiled = np.resize(x, _floattext.VECTOR_MIN)
    assert float_text(tiled).tolist() == reprs(tiled)


def test_numpy_errors_raised():
    # no overflow or invalid value warns anywhere on the way
    rng = np.random.default_rng(5)
    x = rng.integers(0, 2**64 - 1, 5000, dtype=np.uint64, endpoint=True).view(np.float64)
    with np.errstate(all="raise"):
        assert float_text(x).tolist() == reprs(x)


def test_shape_and_both_routes():
    rng = np.random.default_rng(11)
    x = np.exp(rng.uniform(-700.0, 5.0, (40, 30)))
    x[::7] = 0.0
    out = float_text(x)
    assert out.shape == x.shape and out.dtype == np.dtype("S24")
    assert out.tolist() == [reprs(row) for row in x]
    small = x[:3, :5]
    assert small.size < _floattext.VECTOR_MIN
    assert float_text(small).tolist() == [reprs(row) for row in small]
    assert float_text(x.T).tolist() == [reprs(row) for row in x.T]
    assert float_text(np.array([], dtype=float)).shape == (0,)


def test_g_table():
    g1, g0 = _floattext._g_table()
    assert len(g1) == len(g0) == _floattext.K_MAX - _floattext.K_MIN + 1 == 617
    for k, hi, lo in zip(range(_floattext.K_MIN, _floattext.K_MAX + 1), g1.tolist(), g0.tolist()):
        g = (hi << 63) | lo
        assert 1 << 125 <= g < 1 << 126
        # (g - 1) 2^r <= 10^-k < g 2^r, r = floor(-k log2 10) - 125
        r = (-k * 217_706 >> 16) - 125
        assert (g - 1) * Fraction(2) ** r <= Fraction(10) ** -k < g * Fraction(2) ** r


def test_tables_built_on_first_use():
    code = ("import reflectedwalk.cli, reflectedwalk._floattext as f; "
            "print(f._g_table.cache_info().currsize, f._text_tables.cache_info().currsize)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    assert out.stdout.split() == ["0", "0"]
