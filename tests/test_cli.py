import json
import re
import time
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import reflectedwalk as rw
from reflectedwalk import cli
from reflectedwalk._complex import next_pow2

SIMPLE_CONFIG = """\
# simple symmetric walk
family = explicit
probs = 0.5 0 0.5
s = 1
methods = dp, spitzer
n_max = 8
m_max = 8
"""


class TestParseConfig:
    def test_minimal(self):
        cfg = cli.parse_config("family = explicit\nprobs = 1.0\ns = 1\n")
        assert cfg.family == "explicit"
        assert cfg.methods == ("dp",)
        assert cfg.s == 1

    def test_full(self):
        cfg = cli.parse_config(SIMPLE_CONFIG)
        assert cfg.methods == ("dp", "spitzer")
        assert cfg.n_max == 8
        d = rw.make_family(cfg.family, cfg.s, **cfg.params)
        assert d.j_max == 2

    @pytest.mark.parametrize(
        "text,match",
        [
            ("s = 1\n", "family"),
            ("family = explicit\nprobs = 1\n", "'s'"),
            ("family = explicit\nprobs = 1\ns = 1\nbogus = 2\n", "unknown key"),
            ("family = explicit\nprobs = 1\ns = 1\nmethods = dp, magic\n", "magic"),
            ("family = explicit\nprobs = 1\ns = one\n", "integer"),
            ("family = explicit\ns = 1\nno equals sign here\nprobs = 1\n", "line 3"),
            ("family = explicit\nprobs = 1\ns = 1\nformat = xml\n", "unknown key 'format'"),
            ("family = explicit\nprobs = 1\ns = 1\ns = 2\n", "duplicate"),
            ("family = explicit\nprobs = 1\ns = 1\ntolerance = -1\n", "'tolerance'"),
            ("family = explicit\nprobs = 1\ns = 1\ntolerance = nan\n", "'tolerance'"),
            ("family = explicit\nprobs = 1\ns = 1\ntol_coeff = 0\n", "unknown key 'tol_coeff'"),
            ("family = explicit\nprobs = 1\ns = 1\ntol_logres = inf\n", "unknown key 'tol_logres'"),
            ("family = explicit\nprobs = 1\ns = 1\nv = 1.5\n", "unknown key 'v'"),
            ("family = explicit\nprobs = 1\ns = 1\nu_radius = 0.5\n", "unknown key 'u_radius'"),
            ("family = explicit\nprobs = 1\ns = 1\ntol_functional = 1\n", "unknown key"),
            ("family = explicit\nprobs = 1\ns = 1\ntol_numerator = 1\n", "unknown key"),
            ("family = explicit\nprobs = 1\ns = 1\noutput = o.csv\n", "unknown key 'output'"),
            ("family = explicit\nprobs = 1\ns = 1\nverbose = true\n", "unknown key 'verbose'"),
            ("family = explicit\nprobs = 1\ns = 1\ntail_tol = 1e-15\n", "unknown key 'tail_tol'"),
        ],
    )
    def test_errors_carry_diagnostics(self, text, match):
        with pytest.raises(cli.ConfigError, match=match):
            cli.parse_config(text)

    def test_readme_lists_the_optional_keys(self):
        # the keys after "# optional:" in the README's config block are the
        # parser's RunConfig keys other than the required family and s
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        listed = re.search(r"^# optional: (.*?)\n```", readme, re.S | re.M).group(1)
        listed = set(re.split(r"[\s,#]+", listed)) - {""}
        fields = {key for key, (_, target) in cli._KEYS.items() if target == "field"}
        assert listed == fields - {"family", "s"}

    def test_readme_synopsis_lists_the_flags(self, capsys):
        # the flags of the README's CLI synopsis are main's argparse options
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        synopsis = re.search(r"```sh\n(reflectedwalk .*?)```", readme, re.S).group(1)
        with pytest.raises(SystemExit) as exc:
            cli.main(["--help"])
        assert exc.value.code == 0
        offered = set(re.findall(r"--[a-z]+", capsys.readouterr().out)) - {"--help"}
        assert set(re.findall(r"--[a-z]+", synopsis)) == offered
        assert offered == {"--config", "--output", "--format", "--verbose"}


class TestRun:
    def test_dp_only_has_no_comparisons(self):
        cfg = cli.parse_config(
            "family = explicit\nprobs = 0.5 0 0.5\ns = 1\nmethods = dp\n"
        )
        result = cli.run(cfg)
        assert set(result.tables) == {"dp"}
        assert result.report.pairs == []
        assert result.report.checks == []
        assert result.report.all_passed

    def test_dp_implicitly_added(self):
        cfg = cli.parse_config(
            "family = explicit\nprobs = 0.5 0 0.5\ns = 1\nmethods = spitzer\n"
        )
        result = cli.run(cfg)
        assert "dp" in result.tables

    def test_all_methods_agree(self):
        cfg = cli.parse_config(SIMPLE_CONFIG.replace(
            "methods = dp, spitzer", "methods = dp, spitzer, product, pollaczek"
        ))
        result = cli.run(cfg)
        assert result.report.all_passed
        for pair in result.report.pairs:
            assert pair.max_deviation <= 1e-9

    @pytest.mark.parametrize("methods,searches", [("dp", 0), ("dp, spitzer", 0), ("dp, product", 0),
                                                  ("dp, spitzer, product, pollaczek", 1)])
    def test_one_radius_search_per_run(self, monkeypatch, methods, searches):
        # the outer radius serves the pollaczek table alone: the structural
        # checks read only the law and its kernel roots
        calls = []
        search = rw.contour.choose_outer_radius
        monkeypatch.setattr(
            rw.contour, "choose_outer_radius", lambda *a: calls.append(a) or search(*a)
        )
        cfg = cli.parse_config(SIMPLE_CONFIG.replace("dp, spitzer", methods))
        result = cli.run(cfg)
        assert len(calls) == searches
        assert bool(result.report.environment["radius_certificate"]) == bool(searches)

    def test_one_root_solve_in_the_structural_checks(self, monkeypatch):
        # one find_kernel_roots call serves both numerator-check u: the
        # companion solve at u = 0.25 seeds u = 0.5, whose Newton roots pass
        # the certificate on the simple walk; the log-residue check reuses
        # the u = 0.5 roots
        calls = []
        solve = rw.kernel._companion_rows
        monkeypatch.setattr(
            rw.kernel, "_companion_rows", lambda *a: calls.append(a[1].tolist()) or solve(*a)
        )
        result = cli.run(cli.parse_config(SIMPLE_CONFIG))
        assert result.report.all_passed
        assert calls == [[0.25]]

    def test_one_call_per_batched_check(self, monkeypatch):
        # the coefficient identity reads l = 1, 2, 4 from one call, and one
        # DP table at u = 0.5's order serves the numerator check at both u:
        # the run's lindley_dp calls are the dp table's and that one
        coeff_calls, dp_rows = [], []
        verify = rw.contour.verify_coeff_identity
        monkeypatch.setattr(
            rw.contour, "verify_coeff_identity",
            lambda *a: coeff_calls.append(np.asarray(a[1]).tolist()) or verify(*a),
        )
        dp = rw.oracle.lindley_dp
        monkeypatch.setattr(
            rw.oracle, "lindley_dp", lambda *a: dp_rows.append(a[1]) or dp(*a)
        )
        cfg = cli.parse_config(SIMPLE_CONFIG)
        result = cli.run(cfg)
        assert result.report.all_passed
        assert coeff_calls == [[1, 2, 4]]
        order = rw.oracle.required_boundary_order(0.5, cli.CHECK_TOL["numerator"] / 10)
        assert dp_rows == [cfg.n_max, order]

    def test_inverted_table_matches_dp(self):
        cfg = cli.parse_config(SIMPLE_CONFIG.replace(
            "methods = dp, spitzer", "methods = product"
        ))
        result = cli.run(cfg)
        dev = np.abs(result.tables["product"].probs - result.tables["dp"].probs)
        assert dev.max() <= 1e-11

    def test_tiny_top_coefficient_all_methods(self):
        # binomial(80, 0.1), s = 9: P(A = 80) = 1e-80
        cfg = cli.parse_config(
            "family = binomial\nn = 80\np = 0.1\ns = 9\n"
            "methods = dp, spitzer, product, pollaczek\nn_max = 6\nm_max = 60\n"
        )
        result = cli.run(cfg)
        assert result.report.all_passed
        assert set(result.tables) == {"dp", "spitzer", "product", "pollaczek"}


class TestHalfCircle:
    """F(conj u, conj z) = conj F(u, z): half the u circle gives the table."""

    # _invert_transform reads only the grid fields; each test passes its law
    CFG = cli.RunConfig(family="", s=1, n_max=6, m_max=6)

    @staticmethod
    def _full_circle(evaluator, d, cfg):
        # the reference: every u node evaluated, no symmetry used
        nu, r = cli.u_circle(cfg.n_max)
        nz = next_pow2(max(cfg.n_max * d.support_growth, cfg.m_max) + 1)
        u_nodes = r * np.exp(2j * np.pi * np.arange(nu) / nu)
        z_nodes = np.exp(2j * np.pi * np.arange(nz) / nz)
        samples = evaluator(u_nodes, z_nodes)
        coeffs = np.fft.fft2(samples)[: cfg.n_max + 1, : cfg.m_max + 1] / (nu * nz)
        return np.real(coeffs) * (r ** -np.arange(cfg.n_max + 1))[:, None]

    @staticmethod
    def _evaluators(d, cfg):
        # array evaluators: every u node in one call, one row per node
        cert = rw.contour.choose_outer_radius(d, cli.u_circle(cfg.n_max)[1])
        quad = rw.contour.CircleQuadrature()
        return {
            "product": lambda u, z: rw.product_eval(d, u, z, rw.find_kernel_roots(d, u)),
            "pollaczek": lambda u, z: rw.contour.pollaczek_unit_grid(d, u, len(z), cert, quad),
        }

    def test_upper_half_nodes_only(self, dists):
        d = dists["poisson"]
        calls = []
        evaluator = self._evaluators(d, self.CFG)["product"]
        cli._invert_transform(lambda u, z: calls.append(u) or evaluator(u, z), d, self.CFG)
        assert len(calls) == 1
        assert len(calls[0]) == 32 // 2 + 1
        assert all(np.imag(u) >= 0 for u in calls[0])

    @pytest.mark.parametrize("law", ["geometric", "poisson"])
    @pytest.mark.parametrize("method", ["product", "pollaczek"])
    def test_matches_full_circle(self, dists, law, method):
        d = dists[law]
        evaluator = self._evaluators(d, self.CFG)[method]
        half = cli._invert_transform(evaluator, d, self.CFG)
        full = self._full_circle(evaluator, d, self.CFG)
        # 1e-14 on the circle |u| = 1/2: row n is rescaled by r^-n, so the
        # same sample-level agreement reads 1e-14 (1/2 / r)^n on |u| = r
        r = cli.u_circle(self.CFG.n_max)[1]
        atol = 1e-14 * (0.5 / r) ** np.arange(self.CFG.n_max + 1)
        assert np.all(np.abs(half - full) <= atol[:, None])


class TestUCircle:
    """The u circle comes from n_max, with a per-cell error bound."""

    def test_contract(self):
        for n_max in range(201):
            nu, r = cli.u_circle(n_max)
            need = max(16, 4 * (n_max + 1))
            assert nu & (nu - 1) == 0 and need <= nu < 2 * need
            assert 0 < r < 1
        bounds = [cli.u_circle_bound(n_max) for n_max in range(201)]
        # largest at n_max = 127, the last row count before nu doubles
        assert max(bounds) == bounds[127] <= 2e-11
        assert bounds[6] <= 6.3e-13 and bounds[60] <= 7.6e-12 and bounds[200] <= 1.1e-11

    @staticmethod
    def _within_bound(result):
        assert result.report.all_passed, cli.render_report_text(result.report)
        env = result.report.environment
        bound = env["u_circle"]["bound"]
        assert bound == cli.u_circle_bound(env["n_max"])
        transforms = [p for p in result.report.pairs
                      if p.method_a == "dp" and p.method_b in ("product", "pollaczek")]
        assert transforms
        for pair in transforms:
            assert pair.max_deviation <= bound

    @pytest.mark.parametrize("n_max", [30, 40, 60])
    def test_binomial_at_large_n_max(self, n_max):
        # a fixed circle |u| = 0.5 with 64 nodes fails here from n_max = 30 on
        cfg = cli.parse_config(
            "family = binomial\nn = 3\np = 0.4\ns = 2\nmethods = dp, product, pollaczek\n"
            f"n_max = {n_max}\nm_max = {n_max}\n"
        )
        self._within_bound(cli.run(cfg))

    def test_poisson_at_large_n_max(self):
        self._within_bound(cli.run(_poisson_config(14.0, 15, "dp, product", 30)))

    def test_environment_reports_the_circle(self):
        result = cli.run(cli.parse_config(SIMPLE_CONFIG))
        env = json.loads(cli.render_json(result))["report"]["environment"]
        nu, r = cli.u_circle(8)
        assert env["u_circle"] == {"radius": r, "nodes": nu, "bound": cli.u_circle_bound(8)}
        assert env["radius_certificate"] == {}  # no pollaczek, no radius
        assert "u_radius" not in env
        assert '"u_circle"' in cli.render_report_text(result.report, verbose=True)
        result = cli.run(cli.parse_config(SIMPLE_CONFIG.replace("spitzer", "pollaczek")))
        env = json.loads(cli.render_json(result))["report"]["environment"]
        assert env["radius_certificate"]["v"] == r


def _poisson_config(lam, s, methods, n_max, m_max=None):
    d = rw.make_family("poisson", s, lam=lam)
    if m_max is None:
        m_max = max(6, n_max * d.support_growth)
    return cli.parse_config(
        f"family = poisson\nlam = {lam}\ns = {s}\nmethods = {methods}\n"
        f"n_max = {n_max}\nm_max = {m_max}\n"
    )


def _check(result, name):
    return next(c for c in result.report.checks if c.name == name)


class TestHeavyTraffic:
    def test_z_grid_covers_m_max(self):
        # m_max above n_max * support_growth: the z grid must still hold it
        result = cli.run(_poisson_config(19.0, 20, "dp, product", 6, m_max=400))
        assert result.report.all_passed
        dev = np.abs(result.tables["product"].probs - result.tables["dp"].probs)
        assert dev.max() <= 1e-9

    @pytest.mark.parametrize("lam,s", [(45.0, 50), (19.0, 20)])
    def test_functional_equation_near_heavy_traffic(self, lam, s):
        # z^-s must not amplify roundoff: dp and spitzer agree, so must the check
        result = cli.run(_poisson_config(lam, s, "dp, spitzer", 6))
        check = _check(result, "functional-equation")
        assert check.passed and check.residual <= 1e-13
        assert result.report.all_passed

    @pytest.mark.parametrize("methods", ["dp, spitzer", "dp, pollaczek"],
                             ids=["spitzer", "pollaczek"])
    def test_contour_checks_on_the_fallback_radius(self, methods):
        # positive drift: no grid radius is admissible, the fallback b0 is;
        # the log-residue check runs although |k(w)| on its contour is
        # ~1e-20, as that is not small against |w|^s + u A(|w|)
        result = cli.run(_poisson_config(100.0, 50, methods, 6))
        assert result.report.all_passed, cli.render_report_text(result.report)
        for check in result.report.checks:
            assert check.passed and np.isfinite(check.residual)
        cert = result.report.environment["radius_certificate"]
        assert (1.0 < cert["b"] < 1.05) if "pollaczek" in methods else cert == {}

    def test_gate_sends_ill_conditioned_roots_to_the_companion(self):
        # poisson(45), s = 50: Newton roots seeded from u[0] mostly meet
        # RESIDUAL_TOL, yet their sets put F off by up to a relative 1.1;
        # their certificates (2e-6 to 40) fail, so the companion solves them
        result = cli.run(_poisson_config(45.0, 50, "dp, product", 6))
        assert result.report.all_passed, cli.render_report_text(result.report)
        assert result.report.pairs[0].max_deviation <= 1e-9

    def test_coefficient_identity_on_the_sampled_circle(self):
        # poisson(60), s = 50, no contour method: no radius is searched, and
        # the identity reads A(w)^l on |w| = 1
        result = cli.run(_poisson_config(60.0, 50, "dp, spitzer", 6))
        assert _check(result, "coefficient-identity").passed
        assert result.report.all_passed

    def test_comparison_without_radius_fails_at_once(self, tmp_path, capsys):
        # zero drift at n_max = 4096: v = 0.99906 > 1 - MARGIN_SLACK, so no
        # radius is admissible and a pollaczek run exits before it builds a
        # table
        path = tmp_path / "run.cfg"
        path.write_text(SIMPLE_CONFIG.replace("n_max = 8", "n_max = 4096")
                        .replace("spitzer", "pollaczek"))
        start = time.perf_counter()
        assert cli.main(["--config", str(path)]) == 2
        assert time.perf_counter() - start < 1.0
        assert "no admissible radius" in capsys.readouterr().err


class TestLargeS:
    """Large-s laws run without a contour method: no outer radius, no overflow."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("family,params", [
        ("poisson", "lam = 100\ns = 300"),
        ("binomial", "n = 1000\np = 0.1\ns = 450"),
    ], ids=["poisson-100-300", "binomial-1000-0.1-450"])
    def test_checks_pass_without_a_radius(self, monkeypatch, family, params):
        # A(b)^4 overflowed at the outer radius b = 8, and 2048 log-residue
        # nodes read 0.19 on poisson(100), s = 300
        calls = []
        monkeypatch.setattr(rw.contour, "choose_outer_radius", lambda *a: calls.append(a))
        cfg = cli.parse_config(f"family = {family}\n{params}\nmethods = dp, spitzer\nn_max = 6\n")
        result = cli.run(cfg)
        assert result.report.all_passed, cli.render_report_text(result.report)
        assert [c.name for c in result.report.checks] == list(cli.CHECK_TOL)
        assert calls == []

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_pollaczek_where_b_to_the_s_overflows(self):
        # binomial(1000, 0.1), s = 450 takes b = 8, and 8^450 overflows: the
        # plus part forms u A(w)/w^s as one scaled sum, so pollaczek agrees
        # with dp to roundoff and every check passes (it doubled to 2^20
        # nodes and raised QuadratureError when A(w) and w^s came apart)
        cfg = cli.parse_config("family = binomial\nn = 1000\np = 0.1\ns = 450\n"
                               "methods = dp, pollaczek\nn_max = 6\n")
        result = cli.run(cfg)
        assert result.report.environment["radius_certificate"]["b"] == 8.0
        assert result.report.all_passed, cli.render_report_text(result.report)
        assert result.report.pairs[0].max_deviation < 1e-11

    def test_companion_limit_is_one_short_line(self, tmp_path, capsys):
        # binomial(1000, 0.5), s = 714: the companion finds 501 of the 714
        # in-disk roots, and the error names the two moduli around the gap
        path = tmp_path / "run.cfg"
        path.write_text("family = binomial\nn = 1000\np = 0.5\ns = 714\n"
                        "methods = dp, spitzer\nn_max = 6\n")
        assert cli.main(["--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and len(err) < 300
        assert err.startswith("run failed: expected 714 in-disk roots, found 501 at u=0.25;")


class TestRendering:
    def test_csv_shape(self):
        result = cli.run(cli.parse_config(SIMPLE_CONFIG))
        text = cli.render_csv(result)
        lines = text.strip().split("\n")
        assert lines[0] == "n,m,method,probability"
        assert lines[1] == "0,0,dp,1.0"
        # 2 methods x 9 complete rows x 9 columns
        assert len(lines) == 1 + 2 * 9 * 9

    @staticmethod
    def _per_cell_csv(tables):
        """The CSV by its definition: one repr per cell of every complete row."""
        want = ["n,m,method,probability"]
        for name in sorted(tables):
            t = tables[name]
            for n in range(t.n_max + 1):
                if t.complete_rows[n]:
                    want += [f"{n},{m},{name},{repr(float(t.probs[n, m]))}"
                             for m in range(t.m_max + 1)]
        return "\n".join(want) + "\n"

    def test_csv_matches_per_cell_formula(self):
        # signed zeros, subnormals, tiny values and +0.0 tails of every
        # length keep their repr text
        rng = np.random.default_rng(3)
        probs = rng.random((10, 7)) * 10.0 ** rng.integers(-320, 1, (10, 7))
        probs[0, :4] = [-0.0, 5e-324, 1e-300, 2.5e-310]
        probs[2, 6:] = 0.0            # +0.0 tail of one cell
        probs[3, 4:] = 0.0            # of three
        probs[4, 1:] = 0.0            # of all but the first
        probs[5, 5:] = [-0.0, -0.0]   # -0.0 tails print as -0.0
        probs[6, 3:] = [0.0, 0.0, 0.0, -0.0]
        probs[7] = 0.0                # an all-zero row
        probs[8, [1, 2, 4]] = 0.0     # +0.0 inside the row, nonzero after
        probs[9, 5:] = [0.0, 4e-320]  # a subnormal last cell
        complete = [True, False] + [True] * 8
        tables = {
            name: rw.DistributionTable(probs * k, name, complete, np.zeros(10))
            for k, name in ((1.0, "spitzer"), (-3.0, "dp"))
        }
        text = cli.render_csv(cli.RunResult(tables, None))
        assert text == self._per_cell_csv(tables)
        lines = text.splitlines()
        assert "0,0,spitzer,-0.0" in lines and "0,1,spitzer,5e-324" in lines
        assert "0,2,spitzer,1e-300" in lines
        assert "2,6,spitzer,0.0" in lines and "4,6,spitzer,0.0" in lines
        assert "5,5,spitzer,-0.0" in lines and "5,6,spitzer,-0.0" in lines
        assert "5,5,dp,0.0" in lines  # -3 * -0.0 = +0.0
        assert "6,6,spitzer,-0.0" in lines and "6,5,spitzer,0.0" in lines
        assert all(f"7,{m},spitzer,0.0" in lines for m in range(7))
        assert all(f"7,{m},dp,-0.0" in lines for m in range(7))  # -3 * +0.0
        assert "8,1,spitzer,0.0" in lines and "8,3,spitzer,0.0" not in lines
        assert "9,6,spitzer,4e-320" in lines

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_csv_matches_per_cell_formula_property(self, data):
        # random shapes, +0.0 and -0.0 tails of random length, zeros inside
        # rows, magnitudes from 1e-320 to 1, and non-contiguous tables
        rows = data.draw(st.integers(1, 6), label="rows")
        width = data.draw(st.integers(1, 12), label="width")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        rng = np.random.default_rng(seed)
        probs = rng.random((rows, width)) * 10.0 ** rng.uniform(-320, 0, (rows, width))
        probs *= rng.choice([-1.0, 1.0], (rows, width))
        probs[rng.random((rows, width)) < 0.2] = 0.0
        for n in range(rows):
            start = int(rng.integers(0, width + 1))
            probs[n, start:] = rng.choice([0.0, -0.0], width - start, p=[0.8, 0.2])
        if data.draw(st.booleans(), label="transposed"):
            probs = np.ascontiguousarray(probs.T).T
        complete = rng.random(rows) < 0.8
        tables = {
            "dp": rw.DistributionTable(probs, "dp", complete, np.zeros(rows)),
            "product": rw.DistributionTable(probs[::-1], "product", complete, np.zeros(rows)),
        }
        assert cli.render_csv(cli.RunResult(tables, None)) == self._per_cell_csv(tables)

    def test_csv_matches_per_cell_formula_at_heavy_traffic_shape(self):
        # poisson(1.2), s = 2, N = 100, M = 1500: most cells of both tables
        # are the exact-zero tail above the support n (J - s)
        result = cli.run(cli.parse_config(
            "family = poisson\nlam = 1.2\ns = 2\nmethods = dp, spitzer\n"
            "n_max = 100\nm_max = 1500\n"
        ))
        assert set(result.tables) == {"dp", "spitzer"}
        above = np.arange(1501) > 15 * np.arange(101)[:, None]  # J - s = 15
        for t in result.tables.values():
            assert np.all(t.probs.view(np.uint64)[above] == 0)
        assert np.count_nonzero(above) == 75750
        assert cli.render_csv(result) == self._per_cell_csv(result.tables)

    def test_json_matches_per_cell_formula(self):
        # the same cells as the CSV test, each as _format_float writes it
        rng = np.random.default_rng(3)
        probs = rng.random((4, 7)) * 10.0 ** rng.integers(-320, 1, (4, 7))
        probs[0, :4] = [-0.0, 5e-324, 1e-300, 2.5e-310]
        overflow = np.array([0.0, -0.0, 5e-324, 2.5e-310])
        tables = {"dp": rw.DistributionTable(probs, "dp", [True, False, True, True], overflow)}
        report = cli.AgreementReport([], [], {})
        payload = json.loads(cli.render_json(cli.RunResult(tables, report)))["tables"]["dp"]
        assert payload["probs"] == [
            [cli._format_float(probs[n, m]) for m in range(7)] for n in range(4)
        ]
        assert payload["overflow"] == [cli._format_float(x) for x in overflow]
        assert payload["probs"][0][:4] == ["-0.0", "5e-324", "1e-300", "2.5e-310"]

    def test_json_and_csv_agree_on_the_vectorized_route(self):
        # tables past float_text's repr cutoff: the JSON cells and the CSV
        # probabilities are the same strings, each the cell's repr
        rng = np.random.default_rng(17)
        probs = rng.random((30, 40)) * 10.0 ** rng.uniform(-320, 0, (30, 40))
        probs[0, :6] = [-0.0, 5e-324, 1e-300, 2.5e-310, np.inf, 1e16]
        probs[1, 3:] = 0.0
        complete = rng.random(30) < 0.9
        overflow = np.exp(rng.uniform(-800.0, 0.0, 30))
        tables = {"dp": rw.DistributionTable(probs, "dp", complete, overflow),
                  "spitzer": rw.DistributionTable(-probs, "spitzer", complete, overflow)}
        report = cli.AgreementReport([], [], {})
        result = cli.RunResult(tables, report)
        payload = json.loads(cli.render_json(result))["tables"]
        for name, t in tables.items():
            assert payload[name]["probs"] == [[repr(x) for x in row] for row in t.probs.tolist()]
            assert payload[name]["overflow"] == [repr(x) for x in overflow.tolist()]
        want = [f"{n},{m},{name},{text}" for name in sorted(payload)
                for n, row in enumerate(payload[name]["probs"]) if complete[n]
                for m, text in enumerate(row)]
        assert cli.render_csv(result).splitlines()[1:] == want

    def test_json_round_trips(self):
        result = cli.run(cli.parse_config(SIMPLE_CONFIG))
        payload = json.loads(cli.render_json(result))
        assert payload["report"]["all_passed"] is True
        assert set(payload["tables"]) == {"dp", "spitzer"}
        probs = payload["tables"]["dp"]["probs"]
        assert float(probs[0][0]) == 1.0


class TestMain:
    def _write(self, tmp_path, text):
        path = tmp_path / "run.cfg"
        path.write_text(text)
        return str(path)

    def test_exit_zero_and_deterministic_output(self, tmp_path, capsys):
        cfg_path = self._write(tmp_path, SIMPLE_CONFIG)
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        assert cli.main(["--config", cfg_path, "--output", str(out_a)]) == 0
        assert cli.main(["--config", cfg_path, "--output", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        assert "[PASS]" in capsys.readouterr().out

    def test_json_determinism(self, tmp_path):
        cfg_path = self._write(tmp_path, SIMPLE_CONFIG)
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        for out in (out_a, out_b):
            assert cli.main(["--config", cfg_path, "--format", "json", "--output", str(out)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        assert json.loads(out_a.read_text())["report"]["all_passed"] is True

    def test_methods_override(self, tmp_path, capsys):
        cfg_path = self._write(
            tmp_path, SIMPLE_CONFIG.replace("methods = dp, spitzer", "methods = dp")
        )
        code = cli.main(["--config", cfg_path, "--format", "csv"])
        assert code == 0
        out = capsys.readouterr().out
        assert "no comparisons requested" in out

    def test_bad_config_exit_two(self, tmp_path, capsys):
        cfg_path = self._write(tmp_path, "family = explicit\n")
        assert cli.main(["--config", cfg_path]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("methods", ["dp", "dp, spitzer, product"])
    def test_nan_probability_exit_two(self, tmp_path, capsys, methods):
        # a NaN pmf entry is a config error, not NaN cells or a radius failure
        cfg_path = self._write(
            tmp_path,
            f"family = explicit\nprobs = 0.5 nan 0.5\ns = 1\nmethods = {methods}\n",
        )
        assert cli.main(["--config", cfg_path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("run failed") and "finite" in err

    def test_unrepresentable_binomial_exit_two(self, tmp_path, capsys):
        # C(2000, j) overflows a float: a one-line run error, no traceback
        cfg_path = self._write(tmp_path, "family = binomial\nn = 2000\np = 0.5\ns = 1\n")
        assert cli.main(["--config", cfg_path]) == 2
        err = capsys.readouterr().err
        assert err == "run failed: binomial family needs n <= 1029, got 2000\n"

    def test_missing_file_exit_two(self, tmp_path):
        assert cli.main(["--config", str(tmp_path / "none.cfg")]) == 2

    def test_config_not_utf8_exit_two(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_bytes(b"family = binomial\xff\n")
        assert cli.main(["--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and "UTF-8" in err
        assert len(err.splitlines()) == 1

    def test_unwritable_output_exit_two(self, tmp_path, capsys):
        # a directory as --output cannot be opened for writing
        cfg_path = self._write(tmp_path, SIMPLE_CONFIG)
        assert cli.main(["--config", cfg_path, "--output", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("output error") and len(err.splitlines()) == 1

    def test_empty_methods_key_exit_two(self, tmp_path, capsys):
        cfg_path = self._write(
            tmp_path, SIMPLE_CONFIG.replace("methods = dp, spitzer", "methods = ,")
        )
        assert cli.main(["--config", cfg_path]) == 2
        assert "at least one" in capsys.readouterr().err

    def test_failing_tolerance_nonzero_exit(self, tmp_path, capsys):
        # absurdly tight pairwise tolerance forces a FAIL flag
        cfg_path = self._write(
            tmp_path, SIMPLE_CONFIG + "tolerance = 1e-300\n"
        )
        assert cli.main(["--config", cfg_path, "--output", str(tmp_path / "o.csv")]) == 1


def _exact_dp(weights, s, n_max, m_max):
    """P(M_n = m) in exact rationals from the reflected recursion."""
    pmf = [Fraction(w, sum(weights)) for w in weights]
    rows = [{0: Fraction(1)}]
    for _ in range(n_max):
        nxt = defaultdict(Fraction)
        for m, pm in rows[-1].items():
            for j, pj in enumerate(pmf):
                nxt[max(m + j - s, 0)] += pm * pj
        rows.append(nxt)
    return np.array([[float(row.get(m, 0)) for m in range(m_max + 1)] for row in rows])


@st.composite
def _walk_laws(draw):
    """Integer weights 0..20 over A in 0..6 (top weight >= 1), s, a drift sign."""
    weights = draw(st.lists(st.integers(0, 20), max_size=6))
    weights.append(draw(st.integers(1, 20)))
    s = draw(st.integers(1, 3))
    positive = draw(st.booleans())
    mean = sum(j * w for j, w in enumerate(weights)) / sum(weights)
    assume(mean > s if positive else mean < s)
    return weights, s


class TestRandomizedCrossCheck:
    @pytest.mark.filterwarnings("ignore:P\\(A=0\\) = 0")
    @settings(max_examples=30, deadline=None)
    @given(_walk_laws())
    def test_four_methods_agree_and_dp_is_exact(self, law):
        weights, s = law
        probs = [w / sum(weights) for w in weights]
        d = rw.make_family("explicit", s, probs=probs)
        n_max = 4
        m_max = n_max * d.support_growth
        cfg = cli.parse_config(
            "family = explicit\nprobs = " + " ".join(map(repr, probs))
            + f"\ns = {s}\nmethods = dp, spitzer, product, pollaczek"
            + f"\nn_max = {n_max}\nm_max = {m_max}\n"
        )
        result = cli.run(cfg)
        assert result.report.all_passed, cli.render_report_text(result.report)
        exact = _exact_dp(weights, s, n_max, m_max)
        assert np.max(np.abs(result.tables["dp"].probs - exact)) <= 1e-14

    # |F_tracked - F_companion| <= SAFETY (2 eps_t + 2 eps_c + J eps) |F|:
    # each side is within -2 log(1 - eps) ~ 2 eps of F by its certificate,
    # and J eps stands for the rounding of the kernel and the product, which
    # the two sides round apart; the largest ratio seen over 43000 tracked
    # rows of 3000 such laws was 2.4, at F values a few eps apart
    SAFETY = 4.0

    @pytest.mark.filterwarnings("ignore:P\\(A=0\\) = 0")
    @settings(max_examples=30, deadline=None)
    @given(_walk_laws())
    def test_tracked_product_within_its_bound(self, law):
        # on the u and z grids of the run above: a node whose Newton roots
        # passed the gate is within both certificates of the companion's F;
        # one the gate sent back is the companion's row, bit for bit
        weights, s = law
        d = rw.make_family("explicit", s, probs=[w / sum(weights) for w in weights])
        n_max = 4
        nu, r = cli.u_circle(n_max)
        u = r * np.exp(2j * np.pi * np.arange(nu // 2 + 1) / nu)
        nz = next_pow2(n_max * d.support_growth + 1)
        z = np.exp(2j * np.pi * np.arange(nz) / nz)
        tracked = rw.find_kernel_roots(d, u)
        companion = rw.kernel.RootSet(rw.kernel._companion_rows(d, u))
        f_tracked = rw.product_eval(d, u, z, tracked)
        f_companion = rw.product_eval(d, u, z, companion)
        eps_t = rw.kernel._certificate(d, u, tracked.roots)
        eps_c = rw.kernel._certificate(d, u, companion.roots)
        eps = np.finfo(float).eps
        for k in range(len(u)):
            if np.array_equal(tracked.roots[k], companion.roots[k]):
                np.testing.assert_array_equal(f_tracked[k], f_companion[k])
                continue
            assert eps_t[k] <= max(rw.kernel.ETA, eps_c[0])
            bound = 2.0 * eps_t[k] + 2.0 * eps_c[k] + d.j_max * eps
            dev = np.abs(f_tracked[k] - f_companion[k])
            assert np.all(dev <= self.SAFETY * bound * np.abs(f_companion[k]))
