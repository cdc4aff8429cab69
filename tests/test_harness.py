"""Config parsing, CLI behavior, data synthesis, artifact writers, kernels."""

import ast
import importlib
import importlib.util
import json
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import qnls
from qnls import _kernels, acceptance, cli, config
from qnls.bilinear import normal_form_pair
from qnls.cli import main
from qnls.config import ConfigError, default_config, load_config
from qnls.reports import config_sha256, fmt, write_csv, write_report
from qnls.roughdata import DataSpec, gen_rough_data
from qnls.spectral import Grid, SpectralField


def child_env():
    """The environment of a child interpreter that imports the qnls under test."""
    src = str(Path(qnls.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))


# ---------------------------------------------------------------------------
# config
# ---------------------------------------------------------------------------

class TestConfig:
    def test_defaults_complete(self):
        cfg = default_config()
        assert cfg["run"]["alpha"] == 0.6
        assert cfg["run"]["beta"] == 0.2
        assert cfg["rates"]["k_hi"] == 8
        assert cfg["identity"]["n_pairs"] == 8

    def test_file_overrides(self, tmp_path):
        p = tmp_path / "a.cfg"
        p.write_text("# comment\n[run]\nseed = 42\nalpha = 0.55\n\n[rates]\nn_seeds = 2\n")
        cfg = load_config(p)
        assert cfg["run"]["seed"] == 42
        assert cfg["run"]["alpha"] == 0.55
        assert cfg["rates"]["n_seeds"] == 2
        # untouched keys keep defaults
        assert cfg["run"]["beta"] == 0.2

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "a.cfg"
        p.write_text("[run]\nnot_a_key = 1\n")
        with pytest.raises(ConfigError):
            load_config(p)

    def test_unknown_section_rejected(self, tmp_path):
        p = tmp_path / "a.cfg"
        p.write_text("[nonsense]\nx = 1\n")
        with pytest.raises(ConfigError):
            load_config(p)

    def test_duplicate_key_rejected(self, tmp_path):
        p = tmp_path / "a.cfg"
        p.write_text("[run]\nseed = 1\nseed = 2\n")
        with pytest.raises(ConfigError):
            load_config(p)

    def test_bad_value_rejected(self, tmp_path):
        p = tmp_path / "a.cfg"
        p.write_text("[run]\nseed = banana\n")
        with pytest.raises(ConfigError):
            load_config(p)

    def test_key_outside_section_rejected(self, tmp_path):
        p = tmp_path / "a.cfg"
        p.write_text("seed = 1\n")
        with pytest.raises(ConfigError):
            load_config(p)

    def test_list_values(self, tmp_path):
        p = tmp_path / "a.cfg"
        p.write_text("[lipschitz]\nepsilons = 1e-3, 1e-2\n\n[rates]\nkinds = gain1, kkk1\n")
        cfg = load_config(p)
        assert cfg["lipschitz"]["epsilons"] == [1e-3, 1e-2]
        assert cfg["rates"]["kinds"] == ["gain1", "kkk1"]

    def test_load_config_default_path(self):
        assert load_config(None) == default_config()

    def test_default_cfg_file_loads_unchanged(self):
        path = os.path.join(os.path.dirname(__file__), "..", "configs", "default.cfg")
        assert load_config(path) == default_config()

    def test_smoke_cfg_loads(self):
        # the benchmark's smoke run reads this file, through every input builder and data fit
        path = os.path.join(os.path.dirname(__file__), "..", "perfbench", "tiny.cfg")
        cfg = load_config(path)
        assert cfg["smoothing"]["n_points"] == 256
        assert cfg["infra"]["n_points"] == 64

    @pytest.mark.parametrize(
        "text",
        [
            "[run]\nseed = -1\n",
            "[run]\nthreads = 0\n",
            "[run]\nbeta = 5\n",
            "[run]\nbeta = -0.1\n",
            "[run]\nbeta = 0.5\n",
            "[subst]\nbeta = 0.5\n",
            "[subst]\nbeta = -0.1\n",
            "[rates]\nk_lo = 0\n",
            "[rates]\nk_lo = 5\nk_hi = 4\n",
            "[rates]\nk_lo = 3\nk_hi = 3\n",
            "[rates]\nn_seeds = 0\n",
            "[rates]\nn_t = 0\n",
            "[rates]\nn_t = 63\n",
            "[rates]\nn_t = 4\n",
            "[rates]\nkinds = gain1, nope\n",
            "[rates]\nkinds = all, gain1\n",
            "[rates]\nkinds = gain1, gain1\n",
            "[mnorm]\nn_tau = 3\n",
            "[mnorm]\nn_xi = 4\n",
            "[mnorm]\nn_xi = 12\n",
            "[mnorm]\niters = 0\n",
            "[mnorm]\ntiny_grid = 1\n",
            "[simulate]\nn_points = 7\n",
            "[simulate]\nn_points = 6\n",
            "[decompose]\nn_points = 24\n",
            "[lipschitz]\ndt = 0\n",
            "[subst]\ndt = -2.5e-4\n",
            "[decompose]\ndt = 3e-5\n",
            "[infra]\nroute_t_final = 0.0501\n",
            "[lipschitz]\ndt = 1e-2\n",
            "[simulate]\nn_points = 1024\n",
            "[simulate]\nn_saves = 1\n",
            "[decompose]\nn_saves = 0\n",
            "[smoothing]\nfit_lo = 6\nfit_hi = 3\n",
            "[decompose]\nfit_lo = 4\nfit_hi = 6\n",
            "[smoothing]\nfit_hi = 9\n",
            "[smoothing]\nfreq_hi = 32\n",
            "[decompose]\nfit_lo = 2\nfreq_hi = 16\n",
            "[decompose]\nn_points = 256\nfreq_hi = 65\n",
            "[lipschitz]\nepsilons = 1e-3, 0\n",
            "[lipschitz]\nepsilons = -1e-3\n",
            "[simulate]\nkind = cubic\n",
            "[simulate]\nvariables = w\n",
            "[smoothing]\nfreq_hi = 512\n",
            "[infra]\nn_points = 16\n",
            "[identity]\nn_pairs = 0\n",
            "[smoothing]\nn_seeds = 0\n",
            "[run]\nseed = 1e400\n",
            "[run]\nalpha = nan\n",
            "[run]\nbeta = inf\n",
            "[lipschitz]\nepsilons = 1e-3, nan\n",
            "[decompose]\namplitude = 0\n",
            "[decompose]\nu_amplitude = 0\n",
            "[decompose]\nu_sigma = 1000\n",
            "[decompose]\nsigma = -1000\n",
            "[smoothing]\nsigma = 1000\n",
            "[lipschitz]\ng_sigma = -1000\n",
            "[lipschitz]\ng_sigma = -140\n",
            "[lipschitz]\ng_sigma = 2000\n",
            "[lipschitz]\namplitude = 1e-170\n",
            "[simulate]\namplitude = 1e308\nsigma = -2\n",
            "[lipschitz]\nepsilons = 1e-300, 1e-299\n",
            "[simulate]\nn_points = 64\nt_final = 0.005\nn_saves = 50\nfreq_hi = 8\n",
            "[infra]\nroute_t_final = 1e-3\n",
        ],
    )
    def test_out_of_range_rejected(self, tmp_path, text):
        p = tmp_path / "a.cfg"
        p.write_text(text)
        with pytest.raises(ConfigError):
            load_config(p)
        assert main(["identity", "--config", str(p), "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("section, key, value", [
        ("identity", "n_points", "8"), ("identity", "band_limit", "0.5"), ("identity", "sigma", "1"),
        ("identity", "amplitude", "0"), ("identity", "amplitude", "1e200"), ("identity", "dt", "0"),
        ("identity", "t", "1"), ("infra", "order_n", "100"), ("infra", "order_dt", "1"),
        ("infra", "order_sigma", "1"), ("infra", "order_freq_hi", "1"), ("infra", "order_amplitude", "1"),
        ("infra", "route_dt", "1"), ("smoothing", "amplitude", "0"),
    ])
    def test_fixed_setup_key_rejected(self, tmp_path, section, key, value):
        # criteria 1 and 8 fix their grid, data and steps in experiments.py,
        # on the setups their gates are calibrated on, and criterion 2 draws
        # its data at amplitude 1, on which its bilinear lift's fit does not
        # depend; so no config sets them, whatever the value (in range or not)
        p = tmp_path / "a.cfg"
        p.write_text(f"[{section}]\n{key} = {value}\n")
        with pytest.raises(ConfigError, match=f"unknown key '{key}' in \\[{section}\\]"):
            load_config(p)
        assert main(["identity", "--config", str(p), "--out", str(tmp_path)]) == 2

    def test_beta_zero_loads(self, tmp_path):
        # the lower end of [0, 1/2) is legal in both sections that carry beta
        p = tmp_path / "a.cfg"
        p.write_text("[run]\nbeta = 0\n[subst]\nbeta = 0\n")
        cfg = load_config(p)
        assert cfg["run"]["beta"] == cfg["subst"]["beta"] == 0.0

    def test_file_config_checked_once(self, tmp_path, monkeypatch):
        # `qnls identity --config FILE --seed N` range-checks the file's
        # values once, with the override in place: one call per input builder
        calls = []

        def counted(label, build):
            def wrapper(cfg):
                calls.append((label, cfg["run"]["seed"]))
                return build(cfg)
            return wrapper

        monkeypatch.setattr(config, "_INPUT_BUILDERS", tuple((label, counted(label, build))
                                                             for label, build in config._INPUT_BUILDERS))
        p = tmp_path / "a.cfg"
        p.write_text("[identity]\nn_pairs = 1\n")
        assert main(["identity", "--config", str(p), "--seed", "7", "--out", str(tmp_path)]) == 0
        assert calls == [(label, 7) for label, _build in config._INPUT_BUILDERS]


# ---------------------------------------------------------------------------
# rough data synthesis
# ---------------------------------------------------------------------------

class TestRoughData:
    def test_modulus_profile(self):
        g = Grid(256)
        spec = DataSpec(sigma=0.7, freq_hi=32.0, amplitude=2.0, seed=1)
        f = gen_rough_data(spec, g)
        xi = g.frequencies
        inside = (np.abs(xi) >= 1.0) & (np.abs(xi) <= 32.0)
        want = 2.0 * (1.0 + xi[inside] ** 2) ** (-0.5 * (0.7 + 0.5))
        np.testing.assert_allclose(np.abs(f.coeffs[inside]), want, rtol=1e-12)
        assert np.all(f.coeffs[~inside] == 0)

    def test_zero_mode_empty(self):
        g = Grid(64)
        assert gen_rough_data(DataSpec(sigma=0.0, freq_hi=8.0, seed=2), g).coeffs[0] == 0

    def test_seed_determinism_and_variation(self):
        g = Grid(64)
        a = gen_rough_data(DataSpec(0.5, 8.0, seed=5), g)
        b = gen_rough_data(DataSpec(0.5, 8.0, seed=5), g)
        c = gen_rough_data(DataSpec(0.5, 8.0, seed=6), g)
        np.testing.assert_array_equal(a.coeffs, b.coeffs)
        assert np.any(a.coeffs != c.coeffs)

    def test_guard_respected(self):
        g = Grid(64)  # guard frequency 16
        with pytest.raises(ValueError):
            gen_rough_data(DataSpec(0.5, 20.0, seed=1), g)

    @pytest.mark.parametrize(
        "spec, match",
        [
            (DataSpec(0.5, 8.0, amplitude=0.0, seed=1), "all zero"),
            (DataSpec(3000.0, 8.0, seed=1), "all zero"),  # every modulus underflows
            (DataSpec(-1000.0, 8.0, seed=1), "overflows"),
            (DataSpec(-2.0, 8.0, amplitude=1e308, seed=1), "overflows"),
        ],
    )
    def test_zero_or_non_finite_data_rejected(self, spec, match):
        with pytest.raises(ValueError, match=match):
            gen_rough_data(spec, Grid(64))


# ---------------------------------------------------------------------------
# artifact writers
# ---------------------------------------------------------------------------

def reject_constant(name):
    """parse_constant for json.loads: NaN and Infinity are not JSON."""
    raise ValueError(f"{name} is not valid JSON")


class TestReports:
    def test_fmt_rules(self):
        assert fmt(True) == "1"
        assert fmt(False) == "0"
        assert fmt(3) == "3"
        assert fmt(0.1) == "0.10000000000000001"
        assert fmt("kind") == "kind"

    def test_csv_bytes(self, tmp_path):
        p = tmp_path / "t.csv"
        write_csv(p, ["a", "b"], [[1, 2.5], [3, float("inf")]])
        raw = p.read_bytes()
        assert raw == b"a,b\n1,2.5\n3,inf\n"

    def test_csv_reproducible(self, tmp_path):
        rows = [[0.1, 1e-17], [2.0, 3.0]]
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(p1, ["x", "y"], rows)
        write_csv(p2, ["x", "y"], rows)
        assert p1.read_bytes() == p2.read_bytes()

    def test_report_envelope(self, tmp_path):
        cfg = default_config()
        p = tmp_path / "r.json"
        results = {"value": 1.5, "nan": float("nan"), "inf": [float("inf"), np.float64(-np.inf)]}
        write_report(p, "demo", cfg, results, passed=True)
        doc = json.loads(p.read_text(), parse_constant=reject_constant)
        assert doc["experiment"] == "demo"
        assert doc["passed"] is True
        assert doc["results"]["value"] == 1.5
        assert doc["results"]["nan"] is None
        assert doc["results"]["inf"] == [None, None]
        assert doc["config"]["run"]["alpha"] == 0.6
        assert doc["config_sha256"] == config_sha256(cfg)
        assert "created" in doc

    def test_infinite_spread_is_strict_json(self, tmp_path, monkeypatch):
        # perturbed flows started from f itself make every Lipschitz ratio 0
        # and the spread inf; the report writes it as null, not as Infinity
        from qnls import experiments

        batch = experiments.integrate_batch
        monkeypatch.setattr(experiments, "integrate_batch",
                            lambda configs, initials: batch(configs, [initials[0]] * len(initials)))
        tiny = ROOT / "perfbench" / "tiny.cfg"
        assert main(["lipschitz", "--config", str(tiny), "--out", str(tmp_path)]) == 1
        doc = json.loads((tmp_path / "lipschitz.json").read_text(), parse_constant=reject_constant)
        assert doc["results"]["spread"] is None

    def test_config_sha_tracks_content(self, tmp_path):
        a = default_config()
        b = default_config()
        assert config_sha256(a) == config_sha256(b)
        b["run"]["seed"] = 9999
        assert config_sha256(a) != config_sha256(b)
        # the output directory is no experiment setting: one config written to
        # two directories reads one digest, and a changed seed another
        docs = {}
        for name, extra in (("a", []), ("b", []), ("seed", ["--seed", "9999"])):
            assert main(["identity", "--out", str(tmp_path / name)] + extra) == 0
            docs[name] = json.loads((tmp_path / name / "identity.json").read_text())
        assert docs["a"]["config"]["run"]["out"] == str(tmp_path / "a")
        assert docs["b"]["config"]["run"]["out"] == str(tmp_path / "b")
        assert docs["a"]["config_sha256"] == docs["b"]["config_sha256"] != docs["seed"]["config_sha256"]


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

class TestCli:
    def test_identity_writes_artifacts(self, tmp_path):
        rc = main(["identity", "--out", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "identity.csv").exists()
        doc = json.loads((tmp_path / "identity.json").read_text())
        assert doc["results"]["max_residual"] <= 1e-5
        assert doc["results"]["timing"]["wall_s"] > 0

    def test_seed_flag_changes_artifacts(self, tmp_path):
        main(["identity", "--out", str(tmp_path / "a"), "--seed", "1"])
        main(["identity", "--out", str(tmp_path / "b"), "--seed", "2"])
        main(["identity", "--out", str(tmp_path / "c"), "--seed", "1"])
        a = (tmp_path / "a" / "identity.csv").read_bytes()
        b = (tmp_path / "b" / "identity.csv").read_bytes()
        c = (tmp_path / "c" / "identity.csv").read_bytes()
        assert a != b
        assert a == c

    def test_bad_config_exit_2(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("[run]\nbogus = 1\n")
        rc = main(["identity", "--config", str(p), "--out", str(tmp_path)])
        assert rc == 2

    @pytest.mark.parametrize("flag, value", [("--seed", "-1"), ("--threads", "0")])
    def test_out_of_range_override_exit_2(self, tmp_path, flag, value):
        assert main(["identity", flag, value, "--out", str(tmp_path)]) == 2
        assert not (tmp_path / "identity.csv").exists()

    def test_one_scale_rate_sweep_exit_2(self, tmp_path):
        # one scale leaves the slope fit nothing to fit
        p = tmp_path / "one.cfg"
        p.write_text("[rates]\nk_lo = 3\nk_hi = 3\n")
        assert main(["rates", "--config", str(p), "--out", str(tmp_path)]) == 2
        assert not (tmp_path / "rates.csv").exists()

    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    def test_criterion_command_writes_its_row(self, tmp_path, monkeypatch, capsys, command):
        # canned data: one CSV row 0, 1, ... per CSV, a small dict per report key
        row = cli._COMMANDS[command]
        data = {key: [tuple(range(len(header)))] for _file, header, key in row.csvs}
        data.update({key: {"a": 0.5} for key in row.report})
        canned = acceptance.CriterionResult(0, command, True, "canned", data)
        monkeypatch.setitem(cli._COMMANDS, command, row._replace(criterion=lambda cfg: canned))
        assert main([command, "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().out == canned.line + "\n"
        extra = {"rates": {"rates.dat"}}.get(command, set())
        csvs = {file: header for file, header, _key in row.csvs}
        assert {p.name for p in tmp_path.iterdir()} == set(csvs) | {f"{command}.json"} | extra
        for file, header in csvs.items():
            lines = (tmp_path / file).read_text().splitlines()
            assert lines == [",".join(header), ",".join(str(i) for i in range(len(header)))]
        assert set(json.loads((tmp_path / f"{command}.json").read_text())["results"]) == set(row.report)

    def test_help_lists_the_readme_commands(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        listed = re.search(r"\{([a-z,]+)\}", capsys.readouterr().out).group(1).split(",")
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
        assert listed == [line.split()[1] for line in block.splitlines() if line.startswith("qnls ")]

    def test_rates_report_health_and_timing(self, tmp_path):
        p = tmp_path / "small.cfg"
        p.write_text("[rates]\nk_lo = 3\nk_hi = 4\nn_seeds = 3\nn_t = 64\nkinds = gain1, kkk1\n")
        csv_bytes = []
        for run in ("a", "b"):
            out = tmp_path / run
            assert main(["rates", "--config", str(p), "--out", str(out)]) in (0, 1)
            csv_bytes.append((out / "rates.csv").read_bytes() + (out / "rates_slopes.csv").read_bytes())
        assert csv_bytes[0] == csv_bytes[1]  # timing stays out of the CSVs
        results = json.loads((tmp_path / "a" / "rates.json").read_text())["results"]
        timing = results["timing"]
        assert set(timing) == {"wall_s", "tables_s"}
        assert 0 < timing["tables_s"] < timing["wall_s"]
        assert set(results["health"]) == {"gain1", "kkk1"}
        for health in results["health"].values():
            assert set(health["iqr"]) == {"3", "4"}
            assert all(v > 0 for v in health["iqr"].values())
            assert health["non_finite_cells"] == 0
        # the transform grids: even, at most 2^(k+3), and fixed by the kind,
        # with the transforms a cell runs on them (gain1 splits u into two
        # groups taken by Parseval along x; kkk1 splits both factors)
        assert results["health"]["gain1"]["grid_n"] == {"3": 16, "4": 24}
        assert results["health"]["kkk1"]["grid_n"] == {"3": 18, "4": 36}
        assert results["health"]["gain1"]["transforms"] == {"3": 3, "4": 3}
        assert results["health"]["kkk1"]["transforms"] == {"3": 5, "4": 5}
        # cells this small run all 64 time rows in one block
        assert all(h["block_rows"] == {"3": 64, "4": 64} for h in results["health"].values())

    def test_all_report_carries_criterion_timing(self, tmp_path, monkeypatch):
        results = [
            acceptance.CriterionResult(1, "first", True, "ok", {"rows": [], "timing": {"wall_s": 0.25}}),
            acceptance.CriterionResult(8, "eighth", False, "off", {"timing": {"wall_s": 0.5, "route_s": {"u2": 0.1}}}),
        ]
        monkeypatch.setattr(acceptance, "run_all", lambda cfg: results)
        assert main(["all", "--out", str(tmp_path)]) == 1
        criteria = json.loads((tmp_path / "acceptance.json").read_text())["results"]["criteria"]
        assert [set(c) for c in criteria] == [{"number", "name", "passed", "detail", "timing"}] * 2
        assert [c["timing"] for c in criteria] == [{"wall_s": 0.25}, {"wall_s": 0.5, "route_s": {"u2": 0.1}}]
        # timing stays out of the CSV
        assert (tmp_path / "acceptance.csv").read_text().splitlines() == [
            "number,name,passed,detail", "1,first,1,ok", "8,eighth,0,off"
        ]

    def test_every_criterion_reports_its_wall_time(self, tmp_path):
        tiny = ROOT / "perfbench" / "tiny.cfg"
        assert main(["all", "--config", str(tiny), "--out", str(tmp_path)]) in (0, 1)
        criteria = json.loads((tmp_path / "acceptance.json").read_text())["results"]["criteria"]
        assert [c["number"] for c in criteria] == list(range(1, 9))
        assert all(c["timing"]["wall_s"] > 0 for c in criteria)

    def test_only_acceptance_times_a_run(self, tmp_path, monkeypatch):
        # the drivers measure and acceptance.timed takes each run's wall
        # time: no experiments.run_* result carries wall_s, while every
        # criterion's result and the simulate report do
        from qnls import experiments

        timing_keys = {}

        def spy(name, driver):
            def wrapper(cfg):
                res = driver(cfg)
                timing_keys[name] = set(res.get("timing", {}))
                return res
            return wrapper

        drivers = {f"run_{name}" for name in ("identity", "smoothing", "decompose", "rates", "mnorm",
                                               "lipschitz", "subst", "simulate", "infra")}
        assert drivers == {name for name in vars(experiments) if name.startswith("run_")}
        for name in drivers:
            monkeypatch.setattr(experiments, name, spy(name, getattr(experiments, name)))
        tiny = ROOT / "perfbench" / "tiny.cfg"
        cfg = load_config(tiny)
        for criterion in acceptance.CRITERIA:
            assert criterion(cfg).data["timing"]["wall_s"] > 0
        assert not any("wall_s" in keys for keys in timing_keys.values()), timing_keys
        assert main(["simulate", "--config", str(tiny), "--out", str(tmp_path)]) == 0
        assert json.loads((tmp_path / "simulate.json").read_text())["results"]["timing"]["wall_s"] > 0
        assert set(timing_keys) == drivers
        assert "wall_s" not in timing_keys["run_simulate"]

    def test_mnorm_report_health_and_timing(self, tmp_path):
        p = tmp_path / "small.cfg"
        p.write_text("[mnorm]\nn_tau = 16\nn_xi = 16\niters = 3\ntiny_grid = 16\n")
        csv_bytes = []
        for run in ("a", "b"):
            out = tmp_path / run
            assert main(["mnorm", "--config", str(p), "--out", str(out)]) in (0, 1)
            csv_bytes.append((out / "mnorm_sweep.csv").read_bytes() + (out / "mnorm_tiny.csv").read_bytes())
        assert csv_bytes[0] == csv_bytes[1]  # timing stays out of the CSVs
        results = json.loads((tmp_path / "a" / "mnorm.json").read_text())["results"]
        timing = results["timing"]
        assert set(timing) == {"wall_s", "sweep_s", "tiny_alternating_s", "tiny_search_s"}
        assert all(v > 0 for v in timing.values())
        # the three phases are disjoint parts of the run
        assert timing["sweep_s"] + timing["tiny_alternating_s"] + timing["tiny_search_s"] <= timing["wall_s"]
        sweep = (tmp_path / "a" / "mnorm_sweep.csv").read_text().splitlines()[1:]
        assert len(results["health"]) == len(sweep) == 9
        for box, row in zip(results["health"], sweep):
            family, n0, estimate, _bound, _ratio, n_triples, _empty = row.split(",")
            assert set(box) == {"family", "n0", "best_restart", "sweep_values", "n_triples", "n_runs"}
            assert (box["family"], box["n0"], box["n_triples"]) == (family, int(n0), int(n_triples))
            assert 0 <= box["best_restart"] < 3
            assert len(box["sweep_values"]) == 10
            # alternating maximization never decreases within a restart
            assert all(b >= a * (1 - 1e-12) for a, b in zip(box["sweep_values"], box["sweep_values"][1:]))
            assert box["n_triples"] > 0 and float(estimate) > 0

    def test_flow_reports_health_and_timing(self, tmp_path):
        p = tmp_path / "small.cfg"
        p.write_text(
            "[decompose]\nn_points = 256\ndt = 1e-3\nt_final = 0.01\nn_saves = 3\nfreq_hi = 64\n"
            "[lipschitz]\nn_points = 128\ndt = 1e-3\nt_final = 0.01\nn_saves = 3\nfreq_hi = 32\n"
            "[subst]\nn_points = 64\ndt = 1e-3\nt_final = 0.01\nn_saves = 3\n"
        )
        csvs = {"decompose": ("decompose_v.csv", "decompose_u.csv"),
                "lipschitz": ("lipschitz.csv",), "subst": ("subst.csv",)}
        csv_bytes = []
        for run in ("a", "b"):
            out = tmp_path / run
            for command in csvs:
                assert main([command, "--config", str(p), "--out", str(out)]) in (0, 1)
            csv_bytes.append([(out / name).read_bytes() for names in csvs.values() for name in names])
        assert csv_bytes[0] == csv_bytes[1]  # timing stays out of the CSVs
        results = {c: json.loads((tmp_path / "a" / f"{c}.json").read_text())["results"] for c in csvs}
        flows = {
            "decompose": [{"flow": "v"}, {"flow": "u"}],
            "lipschitz": [{"flow": "base"}]
            + [{"flow": "perturbed", "epsilon": e} for e in (1e-4, 1e-3, 1e-2, 1e-1)],
            "subst": [{"flow": v, "dt": dt} for dt in (1e-3, 5e-4) for v in ("z", "u")],
        }
        for command, res in results.items():
            assert res["timing"]["wall_s"] > 0
            assert len(res["health"]) == len(flows[command])
            for health, labels in zip(res["health"], flows[command]):
                assert set(health) == set(labels) | {"steps", "rhs_evals", "max_l2_over_initial",
                                                     "max_top_octave_share"}
                assert {k: health[k] for k in labels} == pytest.approx(labels)
                steps = round(0.01 / health.get("dt", 1e-3))
                assert (health["steps"], health["rhs_evals"]) == (steps, 4 * steps)
                assert 1.0 <= health["max_l2_over_initial"] < 1.1
                assert 0.0 <= health["max_top_octave_share"] <= 1.0
        # decompose.json gives the save time of each minimum
        assert results["decompose"]["min_margin_t"] in (0.0, 0.005, 0.01)
        assert results["decompose"]["min_u_fit_t"] in (0.005, 0.01)
        # the base flow moves away from the free wave, but by a small share
        assert 0.0 < results["lipschitz"]["nonlinear_share"] < 1.0
        assert results["lipschitz"]["spread"] >= 1.0

    def test_top_octave_share(self):
        # |j| = 8 = n/8 lies below the top octave of the n = 64 guard band, |j| = 16 = n/4 in it
        from qnls.evolution import EvolutionConfig, Trajectory
        from qnls.experiments import _flow_health
        from qnls.spectral import SpectralField, l2_norm

        cfg = EvolutionConfig(64, 0.6, 0.2, 1e-3, 0.01, n_saves=3)
        low, top = np.zeros(64, complex), np.zeros(64, complex)
        low[8] = 1.0
        top[-16] = 2.0
        states = [SpectralField(cfg.grid, c) for c in (low, low + top, np.zeros(64))]
        traj = Trajectory(cfg, [0.0, 0.005, 0.01], states, [l2_norm(st) for st in states])
        assert _flow_health(traj)["max_top_octave_share"] == pytest.approx(0.8, rel=1e-15)
        assert _flow_health(Trajectory(cfg, [0.0], states[:1], [1.0]))["max_top_octave_share"] == 0.0

    def test_internal_value_error_is_not_exit_2(self, tmp_path, monkeypatch):
        # a fault of the program surfaces with its traceback, not as a usage error
        from qnls import experiments

        def broken(cfg):
            raise ValueError("internal fault")

        monkeypatch.setattr(experiments, "run_identity", broken)
        with pytest.raises(ValueError, match="internal fault"):
            main(["identity", "--out", str(tmp_path)])

    def test_missing_config_exit_2(self, tmp_path):
        rc = main(["identity", "--config", str(tmp_path / "absent.cfg"), "--out", str(tmp_path)])
        assert rc == 2

    def test_usage_error_exit_2(self):
        with pytest.raises(SystemExit) as info:
            main(["not-a-command"])
        assert info.value.code == 2

    def test_uncreatable_out_dir_exit_2(self, tmp_path, capsys):
        blocker = tmp_path / "a_file"
        blocker.write_text("")
        assert main(["identity", "--out", str(blocker)]) == 2
        assert "cannot create output directory" in capsys.readouterr().err

    def test_out_env_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("QNLS_OUT", str(tmp_path / "envdir"))
        rc = main(["simulate"])
        assert rc == 0
        assert (tmp_path / "envdir" / "trajectory.csv").exists()

    def test_simulate_report_health_and_timing(self, tmp_path):
        p = tmp_path / "small.cfg"
        p.write_text("[simulate]\nn_points = 64\ndt = 1e-3\nt_final = 0.01\nn_saves = 3\nfreq_hi = 16\n")
        csv_bytes = []
        for run in ("a", "b"):
            out = tmp_path / run
            assert main(["simulate", "--config", str(p), "--out", str(out)]) == 0
            csv_bytes.append((out / "simulate_l2.csv").read_bytes())
        assert csv_bytes[0] == csv_bytes[1]  # timing stays out of the CSV
        results = json.loads((tmp_path / "a" / "simulate.json").read_text())["results"]
        assert results["timing"]["wall_s"] > 0
        (health,) = results["health"]
        assert set(health) == {"flow", "steps", "rhs_evals", "max_l2_over_initial", "max_top_octave_share"}
        assert (health["steps"], health["rhs_evals"]) == (10, 40)
        assert 1.0 <= health["max_l2_over_initial"] < 1.1
        assert 0.0 <= health["max_top_octave_share"] <= 1.0
        l2 = [float(row.split(",")[1]) for row in csv_bytes[0].decode().splitlines()[1:]]
        assert results["final_l2"] == l2[-1]

    def test_simulate_sidecar_consistent(self, tmp_path):
        rc = main(["simulate", "--out", str(tmp_path)])
        assert rc == 0
        doc = json.loads((tmp_path / "trajectory.json").read_text())
        import hashlib

        digest = hashlib.sha256((tmp_path / "trajectory.csv").read_bytes()).hexdigest()
        assert doc["csv_sha256"] == digest
        assert len(doc["times"]) == len(doc["l2_history"])

    def test_console_entry_point(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "qnls", "identity", "--out", str(tmp_path)],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert proc.returncode == 0
        assert "PASS" in proc.stdout


# ---------------------------------------------------------------------------
# dense bilinear contraction
# ---------------------------------------------------------------------------

def full_grid_contract(sym, u, v):
    """The contraction as one bincount over the whole n x n grid."""
    n = u.shape[0]
    wrap = (np.add.outer(np.arange(n), np.arange(n)) % n).ravel()
    bins = (2 * wrap[:, None] + np.arange(2)).ravel()
    prod = np.multiply(sym, np.outer(u, v))
    return np.bincount(bins, weights=prod.reshape(-1).view(np.float64), minlength=2 * n).view(np.complex128)


def same_bits(a, b):
    """Equal as IEEE bit patterns, so signed zeros count too."""
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


class TestSupportContraction:
    @staticmethod
    def inputs(n, seed, pattern):
        rng = np.random.default_rng(seed)
        sym = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        u, v = (rng.standard_normal(n) + 1j * rng.standard_normal(n) for _ in range(2))
        if pattern == "random-zeros":
            u[rng.random(n) < 0.6] = 0.0
            v[rng.random(n) < 0.3] = 0.0
        elif pattern == "one-mode":
            u = np.where(np.arange(n) == 3, u, 0.0)
            v = np.where(np.arange(n) == n - 2, v, 0.0)
        elif pattern == "zeros":
            u, v = np.zeros(n, complex), np.zeros(n, complex)
        return sym, u, v

    @pytest.mark.parametrize("pattern", ["random-zeros", "one-mode", "zeros", "dense"])
    @pytest.mark.parametrize("n", [16, 64])
    def test_matches_full_grid_bincount(self, n, pattern):
        for seed in range(4):
            sym, u, v = self.inputs(n, seed, pattern)
            assert same_bits(_kernels.bilinear_contract(sym, u, v), full_grid_contract(sym, u, v))

    @pytest.mark.parametrize("share", [0.4, 0.0])
    @pytest.mark.parametrize("n", [16, 64])
    def test_rows_match_single_contractions(self, n, share):
        # rows with different supports contract on their union; share 0
        # leaves one mode per row, at index 5 in u and n - 3 in v
        rng = np.random.default_rng(n)
        sym = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        keep = (rng.random((6, n)) < share) | (np.arange(n) == 5)
        u = (rng.standard_normal((6, n)) + 1j * rng.standard_normal((6, n))) * keep
        v = np.conj(u[:, ::-1])
        got = _kernels.bilinear_contract(sym, u.reshape(2, 3, n), v.reshape(2, 3, n))
        assert got.shape == (2, 3, n)
        for row, a, c in zip(got.reshape(6, n), u, v, strict=True):
            assert same_bits(row, full_grid_contract(sym, a, c))


class TestOneBackend:
    def test_installed_numba_changes_nothing(self, tmp_path):
        # a stand-in numba on the path, ahead of the package: no module of the
        # package (the CLI imports them all) imports it, and the ubar2 lift
        # does not move off the full-grid bincount
        (tmp_path / "numba").mkdir()
        (tmp_path / "numba" / "__init__.py").write_text(
            "def njit(*args, **kwargs):\n"
            "    return args[0] if args and callable(args[0]) else (lambda f: f)\n"
        )
        out = tmp_path / "lift.npy"
        script = (
            "import sys, numpy as np\n"
            "import qnls.cli\n"
            "from qnls.bilinear import lift_coeffs\n"
            "from qnls.roughdata import DataSpec, gen_rough_data\n"
            "from qnls.spectral import Grid, SpectralField\n"
            "g = Grid(64)\n"
            "u, v = (gen_rough_data(DataSpec(0.0, 16.0, seed=s), g) for s in (3, 4))\n"
            f"np.save({str(out)!r}, SpectralField(g, lift_coeffs('ubar2', 0.6, 0.2, g, u.coeffs, v.coeffs)).coeffs)\n"
            "print('numba' in sys.modules)\n"
        )
        env = child_env()
        env["PYTHONPATH"] = str(tmp_path) + os.pathsep + env["PYTHONPATH"]
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"
        grid = Grid(64)
        u, v = (gen_rough_data(DataSpec(0.0, 16.0, seed=s), grid) for s in (3, 4))
        sym = normal_form_pair("ubar2", 0.6, 0.2)[0].matrix(grid)
        want = SpectralField(grid, full_grid_contract(sym, u.conj().coeffs, v.conj().coeffs))  # Nyquist zeroed
        assert np.array_equal(np.load(out), want.coeffs)


# ---------------------------------------------------------------------------
# public names
# ---------------------------------------------------------------------------

# public top-level names that no package module uses.  The space-time
# functions wait for the deletion of the dense space-time path (ROADMAP
# item 1); the benchmark worker calls load_config.  This set may only shrink.
UNUSED_PUBLIC = {
    "apply_window", "st_l2_norm", "xsb_norm", "synth_cells", "st_spatial_multiplier", "st_product", "box_mask",
    "load_config",
}


def package_trees():
    """The parsed source of each module of the package, by file name."""
    src = Path(qnls.__file__).resolve().parent
    return {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(src.glob("*.py"))}


def names_used(node):
    """Every name that node reads, loads as an attribute or imports, once per use."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.ImportFrom):
            yield from (alias.name for alias in sub.names)


# defaulted parameters that no package call sets, as module.function(name):
# the options of the dense space-time oracle, which only the tests set;
# cli.main's argv, which the tests pass; load_config's path, which the
# benchmark worker passes.  This set may only shrink.
TEST_ONLY_PARAMETERS = {"spacetime.box_mask(xi_side)", "cli.main(argv)", "config.load_config(path)"}

# the package modules each module imports: the numerics below the drivers
# (experiments), the criteria (acceptance), the config and the command line.
# This map may only shrink.
PACKAGE_IMPORTS = {
    "__init__": set(), "__main__": {"cli"}, "_kernels": set(), "acceptance": {"experiments"},
    "bilinear": {"_kernels", "spectral"}, "cli": {"acceptance", "config", "evolution", "experiments", "reports"},
    "config": {"experiments", "rates"}, "evolution": {"bilinear", "spectral"},
    "experiments": {"bilinear", "evolution", "mnorm", "rates", "roughdata", "spacetime", "spectral"},
    "mnorm": {"_kernels"}, "rates": {"spacetime", "spectral"}, "reports": set(), "roughdata": {"spectral"},
    "spacetime": {"spectral"}, "spectral": set(),
}
NUMERICS = ("_kernels", "bilinear", "evolution", "mnorm", "rates", "roughdata", "spacetime", "spectral")

# config keys that perfbench/tiny.cfg leaves at their defaults, as
# "[section] key": the paper's parameters, the data and flows of the
# measured experiments, the rate sweep's lowest band and its kinds, the
# [simulate] run, and the seed, threads and output directory.  Every other
# key is one that a workload sets.  This set may only shrink.
KEPT_KEYS = {
    "[run] alpha", "[run] beta", "[run] delta", "[run] seed", "[run] threads", "[run] out",
    "[smoothing] sigma",
    "[decompose] sigma", "[decompose] amplitude", "[decompose] u_sigma", "[decompose] u_amplitude",
    "[rates] k_lo", "[rates] kinds",
    "[lipschitz] sigma", "[lipschitz] amplitude", "[lipschitz] g_sigma",
    "[subst] beta", "[subst] dt", "[subst] sigma", "[subst] freq_hi", "[subst] amplitude",
    "[simulate] n_points", "[simulate] variables", "[simulate] kind", "[simulate] dt", "[simulate] t_final",
    "[simulate] n_saves", "[simulate] sigma", "[simulate] freq_hi", "[simulate] amplitude",
}


def package_imports(trees):
    """The package modules that each module imports, read from its relative imports."""
    graph = {}
    for module, tree in trees.items():
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                imported |= {node.module} if node.module else {alias.name for alias in node.names}
        graph[module[:-3]] = imported
    return graph


def unset_defaulted_parameters(trees):
    """module.function(name) of each defaulted parameter of a package
    function that no call in the package sets, by keyword or by position.

    A call matches every function of its bare name, and a class name calls
    the class's __init__ and __new__.  The fields of a dataclass or a
    NamedTuple are the parameters of its class name, and dataclasses.replace
    sets them by keyword.  A method's positions count self, so a call's
    first argument sets the parameter after it.  A call with *args sets
    every positional parameter, one with **kwargs every parameter."""
    signatures = []  # (owner, {name a call uses: positional parameters}, defaulted parameters)
    for module, tree in trees.items():
        scopes = [(tree, None)]
        while scopes:
            scope, cls = scopes.pop()
            prefix = f"{module[:-3]}.{cls}." if cls else f"{module[:-3]}."
            for node in ast.iter_child_nodes(scope):
                if isinstance(node, ast.ClassDef):
                    scopes.append((node, node.name))
                    record = any(getattr(b, "id", None) == "NamedTuple" for b in node.bases) or any(
                        "dataclass" in ast.unparse(d) for d in node.decorator_list)
                    fields = [f for f in node.body if record and isinstance(f, ast.AnnAssign)]
                    positional = [f.target.id for f in fields]
                    defaulted = [f.target.id for f in fields if f.value is not None]
                    signatures.append((prefix + node.name, {node.name: positional, "replace": []}, defaulted))
                    continue
                scopes.append((node, None))
                if not isinstance(node, ast.FunctionDef):
                    continue
                args = node.args
                positional = [a.arg for a in args.posonlyargs + args.args]
                defaulted = positional[len(positional) - len(args.defaults):]
                defaulted += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
                if cls is not None and not any(getattr(d, "id", None) == "staticmethod" for d in node.decorator_list):
                    positional = positional[1:]
                names = {node.name: positional}
                if cls is not None and node.name in ("__init__", "__new__"):
                    names[cls] = positional
                signatures.append((prefix + node.name, names, defaulted))
    calls = []  # (name called, positional count, *args given, keywords)
    for tree in trees.values():
        for call in (node for node in ast.walk(tree) if isinstance(node, ast.Call)):
            name = call.func.id if isinstance(call.func, ast.Name) else getattr(call.func, "attr", None)
            starred = any(isinstance(a, ast.Starred) for a in call.args)
            calls.append((name, len(call.args), starred, {kw.arg for kw in call.keywords}))
    return {
        f"{owner}({param})"
        for owner, names, defaulted in signatures
        for param in defaulted
        if not any(
            name in names and (param in keywords or None in keywords or (param in names[name] and (
                starred or names[name].index(param) < count)))
            for name, count, starred, keywords in calls
        )
    }


class TestPublicNames:
    def test_modules_import_only_the_layers_below(self):
        # the integrator and the normal form measure no experiment, and no
        # numerics module reaches up into the drivers, criteria, config or CLI
        graph = package_imports(package_trees())
        assert graph["evolution"] == {"bilinear", "spectral"}
        assert all(not graph[module] & {"experiments", "acceptance", "config", "cli"} for module in NUMERICS)
        assert graph == PACKAGE_IMPORTS

    def test_every_config_key_is_set_by_a_workload_or_kept(self):
        # a key that no workload moves off its default is an option with one
        # value in use; it becomes a constant, or it is listed as kept
        tiny = config.read_config(ROOT / "perfbench" / "tiny.cfg")
        unset = {f"[{sec}] {key}" for sec, keys in config.SCHEMA.items() for key, (_parser, default) in keys.items()
                 if tiny[sec][key] == default}
        assert unset == KEPT_KEYS

    def test_every_defaulted_parameter_is_set_in_the_package(self):
        # a default that no package caller overrides is a knob with one value
        # in use; it goes, or it is listed as one that only the tests set
        assert unset_defaulted_parameters(package_trees()) == TEST_ONLY_PARAMETERS

    def test_every_public_name_is_used_in_the_package(self):
        trees = package_trees()
        # the package binds nothing but its version: callers import submodules
        init = trees["__init__.py"].body
        assert [type(node) for node in init] == [ast.Expr, ast.Assign]
        assert [target.id for target in init[1].targets] == ["__version__"]
        used = {name for tree in trees.values() for name in names_used(tree)}
        unused = {
            node.name
            for tree in trees.values()
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")
            and node.name not in used
        }
        assert unused == UNUSED_PUBLIC

    def test_every_private_helper_is_used_in_the_package(self):
        # a module-level _helper that nothing names outside its own definition
        # is dead code left behind by a change; a module that defines a
        # helper of the same name uses its own
        trees = package_trees()
        helpers = {
            module: {node.name: node for node in tree.body
                     if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_")}
            for module, tree in trees.items()
        }
        uses = {module: Counter(names_used(tree)) for module, tree in trees.items()}
        orphans = {
            f"{module}:{name}"
            for module, defs in helpers.items()
            for name, node in defs.items()
            if uses[module][name] == Counter(names_used(node))[name]
            and not any(uses[other][name] for other in trees if name not in helpers[other])
        }
        assert orphans == set()


# ---------------------------------------------------------------------------
# benchmark harness
# ---------------------------------------------------------------------------

ROOT = Path(__file__).resolve().parents[1]

# SPANS entries whose function the package no longer has; the tracer skips
# them, so their metrics read 0 calls.  This set may only shrink.
DEAD_SPANS = {("bilinear", "dealiased_product"), ("bilinear", "apply_pair_g_fast")}


class TestBenchmarkHarness:
    def test_readme_seed_table_matches_the_reference(self):
        # each pass/fail flag of perfbench/reference.json, over its config
        # seeds, is one README row: its pass count and the seeds it fails at
        workloads = json.loads((ROOT / "perfbench" / "reference.json").read_text(encoding="utf-8"))["workloads"]
        outcomes = {}
        for seeds in workloads.values():
            for seed, criteria in seeds.items():
                for number, record in criteria.items():
                    for flag, ok in record["flags"].items():
                        check = f"criterion {number}" + ("" if flag == "passed" else f" {flag.removeprefix('ok.')}")
                        outcomes.setdefault(check, {})[seed] = ok
        expected = {}
        for check, by_seed in outcomes.items():
            assert len(by_seed) == 16, check
            fails = sorted(seed for seed, ok in by_seed.items() if not ok)
            where = "none" if not fails else "all, by design" if len(fails) == len(by_seed) else ", ".join(fails)
            expected[check] = (f"{len(by_seed) - len(fails)}/{len(by_seed)}", where)
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        rows = re.findall(r"^\| (criterion [^|]*?) \| (\d+/\d+) \| ([^|]*?) \|$", readme, re.MULTILINE)
        assert len(rows) == len(expected)
        assert {check: (passes, where) for check, passes, where in rows} == expected
        # each gated scalar's min..max over the seeds, at the printed precision
        values = {}
        for seeds in workloads.values():
            for criteria in seeds.values():
                for number, record in criteria.items():
                    for scalar, value in record["scalars"].items():
                        values.setdefault((f"criterion {number}", scalar), []).append(value)
        row = r"^\| (criterion \d) \| (\S+) \| (-?[\d.]+)\.\.(-?[\d.]+) \| [^|]* \|$"
        ranges = re.findall(row, readme, re.MULTILINE)
        assert {(check, scalar) for check, scalar, _lo, _hi in ranges} == {
            ("criterion 2", "min_fit"), ("criterion 3", "min_margin"), ("criterion 3", "min_u_fit"),
            ("criterion 5", "C.ppm1"), ("criterion 5", "C.ppm2"), ("criterion 5", "C.ppm4"),
            ("criterion 5", "ppm4_size_slope"), ("criterion 6", "spread"), ("criterion 8", "order_23"),
        }
        for check, scalar, lo, hi in ranges:
            seen = values[(check, scalar)]
            assert len(seen) == 16, (check, scalar)
            for printed, value in ((lo, min(seen)), (hi, max(seen))):
                places = len(printed.partition(".")[2])
                assert printed == f"{value:.{places}f}", (check, scalar)

    def test_every_traced_name_resolves(self):
        # a renamed package function would silently drop out of the trace
        spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "perfbench" / "tracing.py")
        tracing = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracing)
        missing = {(mod, fn) for mod, fn in tracing.SPANS
                   if not hasattr(importlib.import_module(f"qnls.{mod}"), fn)}
        assert missing == DEAD_SPANS

    @pytest.mark.parametrize("workload", ["flow", "rates", "checks"])
    def test_traced_pass_emits_every_layer(self, workload, tmp_path):
        # the tracer and worker read package names directly (the field
        # classes, the _kernels flags, [run] threads, the traced modules and
        # functions); a traced tiny-config pass must still run and emit every
        # per-layer metric BENCHMARK.json names, except those run.py adds
        env = dict(child_env(), PYTHONDONTWRITEBYTECODE="1")
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "worker.py"), "--workload", workload,
             "--config", str(ROOT / "perfbench" / "tiny.cfg"), "--trace", str(tmp_path / "spans.npz")],
            capture_output=True, text=True, env=env, cwd=tmp_path,
        )
        assert proc.returncode == 0, proc.stderr
        layers = json.loads(proc.stdout.splitlines()[-1])["layers"]
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        want = {m["name"]: m["unit"] for m in bench["per_layer"]
                if not (m["name"].startswith("crit") or m["name"] == "trace.overhead_s")}
        assert {name: layers[name][1] for name in want if name in layers} == want
        assert (tmp_path / "spans.npz").exists()
