"""The benchmark's workloads: fixed lists of operations built from a seed.

An operation is one call into the program plus the check of its output
against the independent reference in ``reference.py``.  Calls go through
module attributes (``kernel.find_kernel_roots``, not a bound name), so a
traced run sees them.
"""

from __future__ import annotations

import cmath
import random
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

import reference as ref
from reflectedwalk import cli, contour, kernel
from reflectedwalk import dist as dist_mod

# The six laws of tests/conftest.py: name -> (family, s, parameters).
STANDARD_LAWS = {
    "simple-walk": ("explicit", 1, {"probs": [0.5, 0.0, 0.5]}),
    "binomial": ("binomial", 2, {"n": 3, "p": 0.4}),
    "poisson": ("poisson", 2, {"lam": 1.2}),
    "geometric": ("geometric", 1, {"p": 0.5}),
    "a-equals-s": ("deterministic", 2, {"c": 2}),
    "a-zero": ("deterministic", 2, {"c": 0}),
}
ALL_METHODS = "dp, spitzer, product, pollaczek"

# heavy-traffic: name -> (family, s, parameters, methods, n_max, known fault)
HEAVY_TRAFFIC = {
    "a": ("poisson", 15, {"lam": 14.0}, "dp, product", 6, None),
    "b": ("poisson", 2, {"lam": 1.2}, "dp, spitzer", 100, None),
    "c": ("poisson", 50, {"lam": 45.0}, "dp, spitzer", 6,
          "functional-equation check at z = 0.3 amplifies roundoff by z^-s and "
          "reports FAIL although dp and spitzer match the reference"),
    "d": ("poisson", 50, {"lam": 60.0}, "dp, spitzer", 6,
          "structural checks raise RadiusSearchError although no contour "
          "method was requested"),
}

# point-eval: a fixed grid plus seeded points, |u| <= 0.7 and |z| <= 1
U_FIXED = (0.3, -0.5, 0.6j, 0.7 * cmath.exp(0.25j * cmath.pi))
Z_FIXED = (0.0, 1.0, -1.0, 0.5, 0.5j, cmath.exp(1j * cmath.pi / 3))
U_SEEDED, Z_SEEDED = 2, 3
V_CAP = 0.75        # the program's default operating cap on |u|
POINT_TOL = 1e-9    # the program's default agreement tolerance


@dataclass
class Op:
    """One call into the program and the check of what it returned."""

    name: str
    call: Callable[[], object]
    check: Callable[[object], None]
    known_fault: str | None = None

    def attempt(self) -> str | None:
        """Run and check once; return why the op failed, or None."""
        try:
            self.check(self.call())
        except Exception as exc:  # any raise, from the program or the check, fails the op
            return f"{type(exc).__name__}: {exc}"
        return None


class Stopwatch:
    """Accumulates the time spent inside its ``with`` blocks."""

    def __init__(self):
        self.seconds = 0.0

    def __enter__(self):
        self._start = time.perf_counter()

    def __exit__(self, *exc):
        self.seconds += time.perf_counter() - self._start


def config_text(family, s, params, **keys) -> str:
    """The flat ``key = value`` config the CLI reads."""
    lines = [f"family = {family}", f"s = {s}"]
    for key, value in {**params, **keys}.items():
        if isinstance(value, list):
            value = " ".join(repr(float(x)) for x in value)
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


def reference_pmf(d, family, params):
    """The formula pmf, and why the program's pmf_a misses it (or None)."""
    try:
        return ref.check_family(d, family, params), None
    except ref.CheckFailure as exc:
        return ref.family_pmf(family, params, len(d.pmf_a)), str(exc)


def run_op(name, family, s, params, methods, n_max, clock, known_fault=None) -> Op:
    """A CLI job: parse the config, run, render CSV; every row complete."""
    with clock:
        d = dist_mod.make_family(family, s, **params)
    m_max = max(6, n_max * d.support_growth)
    text = config_text(family, s, params, methods=methods, n_max=n_max, m_max=m_max)
    with clock:
        cfg = cli.parse_config(text)
    pmf, pmf_fault = reference_pmf(d, family, params)
    table = ref.reference_table(ref.reflected_law(pmf, s, n_max), m_max)

    def call():
        result = cli.run(cli.parse_config(text))
        return result, cli.render_csv(result)

    def check(out):
        if pmf_fault:
            raise ref.CheckFailure(pmf_fault)
        ref.check_run(out[0], out[1], table, cfg.methods, cfg.tolerance)

    return Op(name, call, check, known_fault)


def crossval_std(seed, clock):
    return [run_op(law, *spec, ALL_METHODS, 6, clock) for law, spec in STANDARD_LAWS.items()]


def heavy_traffic(seed, clock):
    return [
        run_op(name, family, s, params, methods, n_max, clock, fault)
        for name, (family, s, params, methods, n_max, fault) in HEAVY_TRAFFIC.items()
    ]


def point_op(index, law, family, s, params, seed, clock) -> Op:
    """Roots at each u, then scalar product and Pollaczek values at each z."""
    with clock:
        d = dist_mod.make_family(family, s, **params)
        cert = contour.choose_outer_radius(d, V_CAP)
        quad = contour.CircleQuadrature()
    rng = np.random.default_rng([seed, index])
    us = list(U_FIXED) + list(
        rng.uniform(0.1, 0.7, U_SEEDED) * np.exp(2j * np.pi * rng.uniform(size=U_SEEDED))
    )
    zs = list(Z_FIXED) + list(
        rng.uniform(0.0, 1.0, Z_SEEDED) * np.exp(2j * np.pi * rng.uniform(size=Z_SEEDED))
    )
    pmf, pmf_fault = reference_pmf(d, family, params)
    n_top = max(ref.series_order(abs(u)) for u in us)
    expected = ref.transform_values(ref.reflected_law(pmf, s, n_top), us, zs)

    def call():
        out = []
        for u in us:
            roots = kernel.find_kernel_roots(d, u)
            prod, pol = [], []
            for z in zs:
                try:
                    prod.append(kernel.product_eval(d, u, z, roots))
                except ValueError as exc:  # documented: z on a kernel root
                    prod.append(exc)
                pol.append(contour.pollaczek_eval(d, u, z, cert, quad))
            out.append((roots, prod, pol))
        return out

    def check(out):
        if pmf_fault:
            raise ref.CheckFailure(pmf_fault)
        for i, (u, (roots, prod, pol)) in enumerate(zip(us, out)):
            ref.check_roots(roots, pmf, s, u)
            for k, z in enumerate(zs):
                if isinstance(prod[k], ValueError):
                    gap = float(np.min(np.abs(z - np.asarray(roots.roots))))
                    if gap >= 1e-12 * max(1.0, abs(z)):
                        raise ref.CheckFailure(f"product_eval rejected z={z} off every root: {prod[k]}")
                else:
                    ref.check_point("product", prod[k], expected[i, k], u, z, POINT_TOL)
                ref.check_point("pollaczek", pol[k], expected[i, k], u, z, POINT_TOL)

    return Op(law, call, check)


def point_eval(seed, clock):
    return [
        point_op(i, law, *spec, seed, clock)
        for i, (law, spec) in enumerate(STANDARD_LAWS.items())
    ]


WORKLOADS = {
    "crossval-std": crossval_std,
    "heavy-traffic": heavy_traffic,
    "point-eval": point_eval,
}


def build(workload: str, seed: int):
    """The workload's ops in a seed-shuffled order, and the seconds spent in
    the program's constructors while building them (references excluded)."""
    clock = Stopwatch()
    ops = WORKLOADS[workload](seed, clock)
    random.Random(seed).shuffle(ops)
    return ops, clock.seconds
