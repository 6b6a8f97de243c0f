"""Complex log and exp of arrays from numpy's vectorized real ufuncs.

numpy evaluates complex ``log`` and ``exp`` one element at a time through
libm's ``clog`` and ``cexp``.  Its real ufuncs ``log``, ``arctan2`` and
``exp`` run as SIMD loops: on a (17, 512) block of kernel values the
principal log below takes about a tenth of ``np.log``'s time and differs
from it by a few eps.  The Pollaczek exponent takes one log per (u, node)
pair, so the contour route rests on this.
"""

from __future__ import annotations

import numpy as np


def clog(x) -> np.ndarray:
    """Principal log of a complex array: log|x| + i arctan2(Im x, Re x).

    The modulus is np.abs, a hypot, so it cannot overflow.  arctan2 lies in
    [-pi, pi] and keeps the sign of a zero imaginary part, so the branch cut
    is np.log's: clog(-1 - 0j) = -i pi.  Against np.log the error is within
    a few eps of max(1, |log x|); near |x| = 1 libm's clog is the more
    accurate of the two, by a few eps absolute.
    """
    x = np.asarray(x, dtype=complex)
    out = np.empty(x.shape, dtype=complex)
    out.real = np.log(np.abs(x))
    out.imag = np.arctan2(x.imag, x.real)
    return out


def cexp(x) -> np.ndarray:
    """exp(Re x) (cos Im x + i sin Im x) of a complex array.

    Within a few eps relative of np.exp, and cexp(0) = 1 exactly.  Only for
    arguments whose exp is finite: where exp(Re x) overflows, inf * sin(0)
    makes a nan imaginary part (np.exp(800 + 0j) is inf + 0j, cexp gives
    inf + nan j).
    """
    x = np.asarray(x, dtype=complex)
    modulus = np.exp(x.real)
    out = np.empty(x.shape, dtype=complex)
    out.real = modulus * np.cos(x.imag)
    out.imag = modulus * np.sin(x.imag)
    return out


def circle(radius: float, nodes: int) -> np.ndarray:
    """The nodes radius exp(2 pi i k / nodes), k = 0 .. nodes - 1, in order."""
    return radius * cexp(2j * np.pi * np.arange(nodes) / nodes)
