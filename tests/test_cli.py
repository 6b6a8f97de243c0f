import json
from collections import defaultdict
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import reflectedwalk as rw
from reflectedwalk import cli

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
        d = cfg.build_distribution()
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
            ("family = explicit\nprobs = 1\ns = 1\nformat = xml\n", "format"),
            ("family = explicit\nprobs = 1\ns = 1\ns = 2\n", "duplicate"),
        ],
    )
    def test_errors_carry_diagnostics(self, text, match):
        with pytest.raises(cli.ConfigError, match=match):
            cli.parse_config(text)

    def test_loose_tail_tolerance_rejected(self):
        text = "family = geometric\np = 0.5\ns = 1\ntail_tol = 1e-2\n"
        with pytest.raises(cli.ConfigError, match="tail_tol"):
            cli.parse_config(text)


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

    @pytest.mark.parametrize("methods,searches", [("dp", 0), ("dp, spitzer", 1),
                                                  ("dp, spitzer, product, pollaczek", 1)])
    def test_one_radius_search_per_run(self, monkeypatch, methods, searches):
        calls = []
        search = rw.contour.choose_outer_radius
        monkeypatch.setattr(
            rw.contour, "choose_outer_radius", lambda *a: calls.append(a) or search(*a)
        )
        cfg = cli.parse_config(SIMPLE_CONFIG.replace("dp, spitzer", methods))
        result = cli.run(cfg)
        assert len(calls) == searches
        assert bool(result.report.environment["radius_certificate"]) == bool(searches)

    def test_inverted_table_matches_dp(self):
        cfg = cli.parse_config(SIMPLE_CONFIG.replace(
            "methods = dp, spitzer", "methods = product"
        ))
        result = cli.run(cfg)
        dev = np.abs(result.tables["product"].probs - result.tables["dp"].probs)
        assert dev.max() <= 1e-11


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

    def test_contour_check_skipped_without_radius(self):
        # positive drift: no admissible outer radius, and no contour method asked
        cfg = _poisson_config(60.0, 50, "dp, spitzer", 6)
        result = cli.run(cfg)
        check = _check(result, "coefficient-identity")
        assert check.skipped and "no admissible radius" in check.skipped
        assert not check.passed
        assert result.report.all_passed
        assert all(c.passed for c in result.report.checks if c is not check)
        assert "[SKIP] coefficient-identity" in cli.render_report_text(result.report)
        payload = json.loads(cli.render_json(result))
        entry = next(c for c in payload["report"]["checks"] if c["name"] == check.name)
        assert entry["skipped"] == check.skipped and entry["passed"] is False
        assert entry["residual"] is None

    def test_pollaczek_without_radius_fails(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_text(
            "family = poisson\nlam = 60\ns = 50\nmethods = pollaczek\n"
            "n_max = 1\nm_max = 6\n"
        )
        assert cli.main(["--config", str(path)]) == 2
        assert "no admissible radius" in capsys.readouterr().err


class TestRendering:
    def test_csv_shape(self):
        result = cli.run(cli.parse_config(SIMPLE_CONFIG))
        text = cli.render_csv(result)
        lines = text.strip().split("\n")
        assert lines[0] == "n,m,method,probability"
        assert lines[1] == "0,0,dp,1.0"
        # 2 methods x 9 complete rows x 9 columns
        assert len(lines) == 1 + 2 * 9 * 9

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
        cfg_path = self._write(tmp_path, SIMPLE_CONFIG + "format = json\n")
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        assert cli.main(["--config", cfg_path, "--output", str(out_a)]) == 0
        assert cli.main(["--config", cfg_path, "--output", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_methods_override(self, tmp_path, capsys):
        cfg_path = self._write(tmp_path, SIMPLE_CONFIG)
        code = cli.main(["--config", cfg_path, "--methods", "dp", "--format", "csv"])
        assert code == 0
        out = capsys.readouterr().out
        assert "no comparisons requested" in out

    def test_bad_config_exit_two(self, tmp_path, capsys):
        cfg_path = self._write(tmp_path, "family = explicit\n")
        assert cli.main(["--config", cfg_path]) == 2
        assert "config error" in capsys.readouterr().err

    def test_missing_file_exit_two(self, tmp_path):
        assert cli.main(["--config", str(tmp_path / "none.cfg")]) == 2

    @pytest.mark.parametrize("flag,match", [(",", "at least one"), ("dp,magic", "magic")])
    def test_bad_methods_flag_exit_two(self, tmp_path, capsys, flag, match):
        # the flag goes through the same parser as the config key
        cfg_path = self._write(tmp_path, SIMPLE_CONFIG)
        assert cli.main(["--config", cfg_path, "--methods", flag]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and match in err

    def test_empty_methods_key_exit_two(self, tmp_path, capsys):
        cfg_path = self._write(
            tmp_path, SIMPLE_CONFIG.replace("methods = dp, spitzer", "methods = ,")
        )
        assert cli.main(["--config", cfg_path]) == 2
        assert "at least one" in capsys.readouterr().err

    def test_failing_tolerance_nonzero_exit(self, tmp_path, capsys):
        # absurdly tight pairwise tolerance forces a FAIL flag
        cfg_path = self._write(
            tmp_path, SIMPLE_CONFIG + "tolerance = 1e-300\ntol_functional = 1e-300\n"
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
        methods = "dp, spitzer, product, pollaczek"
        try:
            rw.choose_outer_radius(d, 0.75)
        except rw.RadiusSearchError:
            methods = "dp, spitzer, product"
        n_max = 4
        m_max = n_max * d.support_growth
        cfg = cli.parse_config(
            "family = explicit\nprobs = " + " ".join(map(repr, probs))
            + f"\ns = {s}\nmethods = {methods}\nn_max = {n_max}\nm_max = {m_max}\n"
        )
        result = cli.run(cfg)
        assert result.report.all_passed, cli.render_report_text(result.report)
        exact = _exact_dp(weights, s, n_max, m_max)
        assert np.max(np.abs(result.tables["dp"].probs - exact)) <= 1e-14
