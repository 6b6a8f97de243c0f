"""Batch front-end: run selected methods over a grid and cross-check them.

The run configuration is a flat key-value text file (``key = value`` per
line, ``#`` comments).  Recognized keys:

    family    deterministic | bernoulli | binomial | poisson | geometric | explicit
    s         positive integer
    c / p / n / lam / probs   family parameters (probs: space-separated)
    methods   comma-separated subset of dp, spitzer, product, pollaczek
    n_max, m_max   grid bounds (defaults 12, 12)
    tolerance pairwise agreement tolerance, positive and finite (default 1e-9)

The config sets the run; output goes on the command line (--output,
--format, --verbose).  The u circle comes from n_max (u_circle); the outer
contour radius is searched only for pollaczek; the structural checks read
only the law and its kernel roots, with tolerances CHECK_TOL.

Exit status is 0 iff every agreement pair and every structural check passes,
1 if one fails, and 2 on a config, run or output error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, dataclass, field

import numpy as np

from . import _floattext, contour, dist as dist_mod, kernel, oracle, series
from ._complex import cexp, circle, next_pow2

DEFAULT_METHODS = ("dp",)
ALL_METHODS = ("dp", "spitzer", "product", "pollaczek")
# unit-circle points for the functional-equation check: |z^-s| = 1 there,
# so the check does not amplify roundoff
FUNCTIONAL_Z_GRID = cexp(1j * np.array([0.0, 1.0, 2.0, np.pi]))
CHECK_TOL = {"functional-equation": 1e-11, "numerator": 1e-9,
             "coefficient-identity": 1e-10, "log-residue": 1e-8}


class ConfigError(ValueError):
    """Config file failed to parse or validate."""


@dataclass
class RunConfig:
    family: str
    s: int
    params: dict = field(default_factory=dict)
    methods: tuple = DEFAULT_METHODS
    n_max: int = 12
    m_max: int = 12
    tolerance: float = 1e-9


@dataclass
class PairResult:
    method_a: str
    method_b: str
    max_deviation: float
    argmax_cell: tuple
    tolerance: float
    passed: bool


@dataclass
class CheckResult:
    name: str
    residual: float
    tolerance: float
    passed: bool


@dataclass
class AgreementReport:
    pairs: list
    checks: list
    environment: dict

    @property
    def all_passed(self) -> bool:
        return all(p.passed for p in self.pairs) and all(c.passed for c in self.checks)


@dataclass
class RunResult:
    tables: dict
    report: AgreementReport


def _typed(kind, noun):
    """Caster by ``kind`` whose error names the expected type."""

    def cast(raw: str):
        try:
            return kind(raw)
        except ValueError:
            raise ValueError(f"not {noun}: {raw!r}") from None

    return cast


_int = _typed(int, "an integer")
_float = _typed(float, "a number")


def _positive(raw: str) -> float:
    """A tolerance: a positive finite number."""
    x = _float(raw)
    if not 0 < x < math.inf:
        raise ValueError(f"not a positive finite number: {raw!r}")
    return x


def _parse_probs(raw: str) -> list:
    return [_float(tok) for tok in raw.replace(",", " ").split()]


def _parse_methods(raw: str) -> tuple:
    """Comma-separated method names."""
    methods = tuple(tok.strip() for tok in raw.split(",") if tok.strip())
    for m in methods:
        if m not in ALL_METHODS:
            raise ConfigError(f"unknown method {m!r}")
    if not methods:
        raise ConfigError("need at least one method")
    return methods


# key -> (caster, target): "param" values are family parameters, "field"
# values set the RunConfig field of the same name
_KEYS = {
    "family": (str, "field"),
    "s": (_int, "field"),
    "c": (_int, "param"),
    "p": (_float, "param"),
    "n": (_int, "param"),
    "lam": (_float, "param"),
    "probs": (_parse_probs, "param"),
    "tolerance": (_positive, "field"),
    "n_max": (_int, "field"),
    "m_max": (_int, "field"),
    "methods": (_parse_methods, "field"),
}


def parse_config(text: str) -> RunConfig:
    """Parse the flat key-value grammar into a validated RunConfig."""
    found = {"field": {}, "param": {}}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in _KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        caster, target = _KEYS[key]
        if key in found[target]:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        try:
            found[target][key] = caster(raw)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: field {key!r}: {exc}") from None
    for key in ("family", "s"):
        if key not in found["field"]:
            raise ConfigError(f"missing required key {key!r}")
    cfg = RunConfig(params=found["param"], **found["field"])
    if cfg.n_max < 0 or cfg.m_max < 0:
        raise ConfigError("n_max and m_max must be >= 0")
    return cfg


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 at byte {exc.start}") from None
    return parse_config(text)


def u_circle(n_max: int) -> tuple:
    """Node count nu and radius r of the u circle that inverts rows n <= n_max.

    nu is the smallest power of two >= max(16, 4 (n_max + 1)); r solves
    r^nu = ETA r^-n_max (ETA = kernel.ETA), balancing the two error terms
    of Abate & Whitt (Oper. Res. Lett. 12, 1992).  As every P(M_n = m) is
    in [0, 1] and |F(u, z)| <= 1 / (1 - r) on |u| = r, |z| = 1, a cell is
    off by at most r^nu / (1 - r^nu) (aliasing) + ETA r^-n_max / (1 - r)
    (roundoff, amplified by r^-n) = u_circle_bound: 6.2e-13 at n_max = 6,
    7.5e-12 at 60, 1.0e-11 at 200, and at most 1.9e-11 up to 200 (at 127,
    before nu doubles).
    """
    nu = next_pow2(4 * (n_max + 1))
    return nu, kernel.ETA ** (1.0 / (nu + n_max))


def u_circle_bound(n_max: int) -> float:
    """The per-cell error bound of the u inversion on u_circle(n_max)."""
    nu, r = u_circle(n_max)
    return r**nu / (1.0 - r**nu) + kernel.ETA * r**-n_max / (1.0 - r)


def _table(d, cfg: RunConfig, probs, method: str) -> oracle.DistributionTable:
    """A transform method's table: no overflow counter, rows complete by support."""
    return oracle.DistributionTable(
        probs=probs,
        method=method,
        complete_rows=oracle.complete_row_flags(d, cfg.n_max, cfg.m_max),
        overflow=np.zeros(cfg.n_max + 1),
    )


def _invert_transform(evaluator, d, cfg: RunConfig) -> np.ndarray:
    """Recover P(M_n = m) by Cauchy extraction in u then in z.

    evaluator(u_nodes, z_nodes) is called once, with the whole array of u
    nodes and z_nodes the nz-th roots of unity in order, and returns the
    (len(u_nodes), nz) block F(u_i, z_j).  The transform routes evaluate
    the block as arrays: the product route finds the kernel roots by one
    companion solve at u[0] and certified Newton rows at the other nodes
    (kernel.find_kernel_roots), and the Pollaczek route makes one
    plus-part FFT per node count, each u row doubling its node count
    until its own gap converges.  nz exceeds both the full support of
    M_{n_max} and m_max, so the z inversion is alias-free; the u circle
    |u| = r with nu nodes comes from u_circle, whose docstring bounds its
    error.  Both extractions are one 2-D FFT, the u axis rescaled by r^-n.

    The law is real, so F(conj u, conj z) = conj F(u, z): the evaluator gets
    only the u nodes k = 0 .. nu/2, where Im u >= 0, and row nu - k is
    conj(row k) read at z index (-j) mod nz, since conj u_k = u_{nu-k} and
    conj z_j = z_{-j}.
    """
    n_max, m_max = cfg.n_max, cfg.m_max
    nu, r_u = u_circle(n_max)
    nz = next_pow2(max(n_max * d.support_growth, m_max) + 1)
    half = nu // 2
    u_nodes = circle(r_u, nu)[: half + 1]
    z_nodes = circle(1.0, nz)
    samples = np.empty((nu, nz), dtype=complex)
    samples[: half + 1] = evaluator(u_nodes, z_nodes)
    samples[half + 1 :] = np.conj(samples[half - 1 : 0 : -1, -np.arange(nz)])
    # [u^n z^m] F = r_u^-n / (nu nz) sum_ij F(u_i, z_j) exp(-2 pi i (in/nu + jm/nz))
    coeffs = np.fft.fft2(samples)[: n_max + 1, : m_max + 1] / (nu * nz)
    return np.real(coeffs) * (r_u ** -np.arange(n_max + 1))[:, None]


def _compute_tables(d, cfg: RunConfig, methods, cert) -> dict:
    tables = {}
    if "dp" in methods:
        tables["dp"] = oracle.lindley_dp(d, cfg.n_max, cfg.m_max)
    if "spitzer" in methods:
        f = series.spitzer_series(d, order_cap=max(cfg.n_max, 1), degree_cap=cfg.m_max)
        tables["spitzer"] = _table(d, cfg, f[: cfg.n_max + 1], "spitzer")
    if "product" in methods:

        def product_evaluator(u_nodes, z_nodes):
            roots = kernel.find_kernel_roots(d, u_nodes)
            return kernel.product_eval(d, u_nodes, z_nodes, roots)

        probs = _invert_transform(product_evaluator, d, cfg)
        tables["product"] = _table(d, cfg, probs, "product-inversion")
    if "pollaczek" in methods:
        quad = contour.CircleQuadrature()

        def pollaczek_evaluator(u_nodes, z_nodes):
            return contour.pollaczek_unit_grid(d, u_nodes, len(z_nodes), cert, quad)

        probs = _invert_transform(pollaczek_evaluator, d, cfg)
        tables["pollaczek"] = _table(d, cfg, probs, "pollaczek-inversion")
    return tables


def _compare_tables(tables: dict, methods, tol: float) -> list:
    pairs = []
    for i, a in enumerate(methods):
        for b in methods[i + 1 :]:
            ta, tb = tables[a], tables[b]
            both = ta.complete_rows & tb.complete_rows
            dev = np.abs(ta.probs - tb.probs)
            dev[~both] = 0.0
            cell = np.unravel_index(int(np.argmax(dev)), dev.shape)
            max_dev = float(dev[cell])
            pairs.append(
                PairResult(
                    method_a=a,
                    method_b=b,
                    max_deviation=max_dev,
                    argmax_cell=(int(cell[0]), int(cell[1])),
                    tolerance=tol,
                    passed=max_dev <= tol,
                )
            )
    return pairs


def _checked(name: str, res: float) -> CheckResult:
    tol = CHECK_TOL[name]
    return CheckResult(name, res, tol, res <= tol)


def _structural_checks(d, dp_table) -> list:
    checks = []
    # one-step functional equation at every complete row pair, on |z| = 1
    complete = dp_table.complete_rows
    rows = np.flatnonzero(complete[:-1] & complete[1:])
    res = oracle.functional_equation_check(d, dp_table, rows, FUNCTIONAL_Z_GRID)
    checks.append(_checked("functional-equation", float(np.max(res, initial=0.0))))
    # numerator polynomial annihilated by the kernel roots, at both u from one
    # find_kernel_roots call and one numerator_check call; the u = 0.5 roots
    # also serve the log-residue check below
    us = np.array([0.25, 0.5])
    roots = kernel.find_kernel_roots(d, us)
    checks.append(_checked("numerator", oracle.numerator_check(
        d, us, roots, CHECK_TOL["numerator"])))
    # Cauchy coefficient identity on a small (l, k) grid, from one transform
    integral, pmf = contour.verify_coeff_identity(d, np.array([1, 2, 4]), np.array([1, 3]))
    checks.append(_checked("coefficient-identity", float(np.max(np.abs(integral - pmf)))))
    # logarithmic residue of the kernel at u = 0.5; the roots set its contour
    lhs, rhs = kernel.root_logresidue_check(d, 0.5, roots=roots.row(1))
    checks.append(_checked("log-residue", abs(lhs - rhs)))
    return checks


def run(config: RunConfig) -> RunResult:
    """Execute the configured methods and assemble the agreement report."""
    d = dist_mod.make_family(config.family, config.s, **config.params)
    methods = tuple(dict.fromkeys(config.methods))
    comparisons = len(methods) > 1 or any(m != "dp" for m in methods)
    if comparisons and "dp" not in methods:
        methods = ("dp",) + methods
    # only the pollaczek table needs an outer radius.  Its certificate covers
    # the u circle the inversion samples, and a search that finds no
    # admissible radius raises before any table is built.
    nu, r_u = u_circle(config.n_max)
    cert = contour.choose_outer_radius(d, r_u) if "pollaczek" in methods else None
    tables = _compute_tables(d, config, methods, cert)
    pairs = _compare_tables(tables, methods, config.tolerance) if comparisons else []
    checks = _structural_checks(d, tables["dp"]) if comparisons else []
    env = {
        "family": d.family,
        "s": d.s,
        "j_max": d.j_max,
        "truncation_defect": d.truncation_defect,
        "n_max": config.n_max,
        "m_max": config.m_max,
        "u_circle": {"radius": r_u, "nodes": nu, "bound": u_circle_bound(config.n_max)},
        "radius_certificate": {} if cert is None else asdict(cert),
        "methods": list(methods),
    }
    return RunResult(tables=tables, report=AgreementReport(pairs, checks, env))


def _format_float(x: float) -> str:
    return repr(float(x))


def render_csv(result: RunResult) -> str:
    """One line ``n,m,method,repr(P)`` per cell of every complete row.

    k is one past the row's last cell that is not +0.0.  The head cells
    m < k of every table, -0.0, subnormals and interior zeros included,
    take their text from one _floattext.float_text call, which is repr's
    text (its docstring shows why; a render of few cells calls repr
    itself), so each probability reads as _format_float writes it.  A row
    is one bytes %-format of its head lines' template, which takes the
    texts by %s, then its +0.0 tail, copied from a second template with the
    literal 0.0.  Both templates hold a NUL for n, which one replace per
    row fills in.  Rows accumulate in one bytearray, decoded once.
    """
    layout, heads = [], []
    for method in sorted(result.tables):
        table = result.tables[method]
        width = table.m_max + 1
        rows = np.flatnonzero(table.complete_rows)
        nonzero = (table.probs.view(np.uint64) != 0)[rows]
        ends = np.where(nonzero.any(axis=1), width - np.argmax(nonzero[:, ::-1], axis=1), 0)
        head = np.zeros(table.probs.shape, dtype=bool)
        head[rows] = np.arange(width) < ends[:, None]
        heads.append(table.probs[head])
        layout.append((method.encode(), width, rows.tolist(), ends.tolist()))
    texts = _floattext.float_text(np.concatenate(heads)) if heads else None
    del heads
    out = bytearray(b"n,m,method,probability\n")
    at = 0
    for tag, width, rows, ends in layout:
        # NUL stands for the row number n until the row is written
        live = [b"\0,%d,%s,%%s\n" % (m, tag) for m in range(width)]
        zero = [b"\0,%d,%s,0.0\n" % (m, tag) for m in range(width)]
        # line m starts at live_at[m] (zero_at[m]) in the joined templates
        live_at = np.cumsum([0] + [len(x) for x in live]).tolist()
        zero_at = np.cumsum([0] + [len(x) for x in zero]).tolist()
        live, zero = b"".join(live), b"".join(zero)
        for n, k in zip(rows, ends):
            # lines m < k take the text of P[n, m], lines m >= k are copied
            num = b"%d" % n
            row = tuple(texts[at : at + k].tolist())
            out += live[: live_at[k]].replace(b"\0", num) % row
            out += zero[zero_at[k] :].replace(b"\0", num)
            at += k
    # the texts go before the decoded copy of the buffer comes, so the
    # render's peak is the buffer and its copy, as with repr per cell
    del texts
    text = out.decode("ascii")
    # shrink the buffer before it is freed: glibc raises its mmap threshold
    # to the size of a freed mapped block, and later blocks below that size
    # then stay on the heap (about +1 MB peak RSS over repeated renders of
    # poisson(1.2), s = 2, N = 100, M = 1500)
    out.clear()
    return text


def render_json(result: RunResult) -> str:
    """The tables and the report as JSON; every float is its repr text.

    Table cells and overflow counters take their text from
    _floattext.float_text, as the CSV does, so both renderers write each
    probability as the same string.
    """
    payload = {
        "tables": {
            method: {
                "method": table.method,
                "n_max": table.n_max,
                "m_max": table.m_max,
                "probs": _floattext.float_text(table.probs).astype(str).tolist(),
                "complete_rows": [bool(b) for b in table.complete_rows],
                "overflow": _floattext.float_text(table.overflow).astype(str).tolist(),
            }
            for method, table in sorted(result.tables.items())
        },
        "report": {
            "pairs": [
                {
                    "methods": [p.method_a, p.method_b],
                    "max_deviation": _format_float(p.max_deviation),
                    "argmax_cell": list(p.argmax_cell),
                    "tolerance": _format_float(p.tolerance),
                    "passed": p.passed,
                }
                for p in result.report.pairs
            ],
            "checks": [
                {
                    "name": c.name,
                    "residual": _format_float(c.residual),
                    "tolerance": _format_float(c.tolerance),
                    "passed": c.passed,
                }
                for c in result.report.checks
            ],
            "environment": json.loads(json.dumps(result.report.environment, sort_keys=True)),
            "all_passed": result.report.all_passed,
        },
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def render_report_text(report: AgreementReport, verbose: bool = False) -> str:
    lines = []
    for p in report.pairs:
        status = "PASS" if p.passed else "FAIL"
        lines.append(
            f"[{status}] {p.method_a} vs {p.method_b}: max |dP| = {p.max_deviation:.3e} "
            f"at (n, m) = {p.argmax_cell} (tol {p.tolerance:.1e})"
        )
    for c in report.checks:
        status = "PASS" if c.passed else "FAIL"
        lines.append(
            f"[{status}] {c.name}: residual = {c.residual:.3e} (tol {c.tolerance:.1e})"
        )
    if verbose:
        lines.append(f"environment: {json.dumps(report.environment, sort_keys=True)}")
    if not lines:
        lines.append("no comparisons requested")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="reflectedwalk",
        description="Exact distribution of the reflected lattice walk by "
        "four cross-validated methods.",
    )
    parser.add_argument("--config", required=True, help="path to the run config")
    parser.add_argument("--output", help="destination path for the tables")
    parser.add_argument("--format", choices=("csv", "json"), default="csv",
                        help="output format")
    parser.add_argument("--verbose", action="store_true")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
    except (OSError, ConfigError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        result = run(cfg)
    except (ValueError, RuntimeError) as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 2

    rendered = render_csv(result) if args.format == "csv" else render_json(result)
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8", newline="") as fh:
                fh.write(rendered)
        except OSError as exc:
            print(f"output error: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(rendered)
    print(render_report_text(result.report, args.verbose))
    return 0 if result.report.all_passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
