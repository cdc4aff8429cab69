"""Config parsing, CLI behavior, data synthesis, artifact writers, kernels."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qnls
from qnls import _kernels
from qnls.cli import main
from qnls.config import ConfigError, default_config, load_config, parse_config
from qnls.reports import config_sha256, fmt, write_csv, write_report
from qnls.roughdata import DataSpec, gen_rough_data
from qnls.spectral import Grid


def child_env(**extra):
    """The environment of a child interpreter that imports the qnls under test."""
    src = str(Path(qnls.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""), **extra)


# ---------------------------------------------------------------------------
# config
# ---------------------------------------------------------------------------

class TestConfig:
    def test_defaults_complete(self):
        cfg = default_config()
        assert cfg["run"]["alpha"] == 0.6
        assert cfg["run"]["beta"] == 0.2
        assert cfg["rates"]["k_hi"] == 8
        assert cfg["identity"]["dt"] == 1e-3

    def test_file_overrides(self, tmp_path):
        p = tmp_path / "a.cfg"
        p.write_text("# comment\n[run]\nseed = 42\nalpha = 0.55\n\n[rates]\nn_seeds = 2\n")
        cfg = parse_config(p)
        assert cfg["run"]["seed"] == 42
        assert cfg["run"]["alpha"] == 0.55
        assert cfg["rates"]["n_seeds"] == 2
        # untouched keys keep defaults
        assert cfg["run"]["beta"] == 0.2

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "a.cfg"
        p.write_text("[run]\nnot_a_key = 1\n")
        with pytest.raises(ConfigError):
            parse_config(p)

    def test_unknown_section_rejected(self, tmp_path):
        p = tmp_path / "a.cfg"
        p.write_text("[nonsense]\nx = 1\n")
        with pytest.raises(ConfigError):
            parse_config(p)

    def test_duplicate_key_rejected(self, tmp_path):
        p = tmp_path / "a.cfg"
        p.write_text("[run]\nseed = 1\nseed = 2\n")
        with pytest.raises(ConfigError):
            parse_config(p)

    def test_bad_value_rejected(self, tmp_path):
        p = tmp_path / "a.cfg"
        p.write_text("[run]\nseed = banana\n")
        with pytest.raises(ConfigError):
            parse_config(p)

    def test_key_outside_section_rejected(self, tmp_path):
        p = tmp_path / "a.cfg"
        p.write_text("seed = 1\n")
        with pytest.raises(ConfigError):
            parse_config(p)

    def test_list_values(self, tmp_path):
        p = tmp_path / "a.cfg"
        p.write_text("[lipschitz]\nepsilons = 1e-3, 1e-2\n\n[rates]\nkinds = gain1, kkk1\n")
        cfg = parse_config(p)
        assert cfg["lipschitz"]["epsilons"] == [1e-3, 1e-2]
        assert cfg["rates"]["kinds"] == ["gain1", "kkk1"]

    def test_load_config_default_path(self):
        assert load_config(None) == default_config()

    def test_default_cfg_file_loads_unchanged(self):
        path = os.path.join(os.path.dirname(__file__), "..", "configs", "default.cfg")
        assert load_config(path) == default_config()

    @pytest.mark.parametrize(
        "text",
        [
            "[run]\nseed = -1\n",
            "[run]\nthreads = 0\n",
            "[rates]\nk_lo = 0\n",
            "[rates]\nk_lo = 5\nk_hi = 4\n",
            "[rates]\nn_seeds = 0\n",
            "[rates]\nn_t = 0\n",
            "[rates]\nn_t = 63\n",
            "[rates]\nkinds = gain1, nope\n",
            "[rates]\nkinds = all, gain1\n",
            "[mnorm]\nn_tau = 3\n",
            "[mnorm]\nn_xi = 4\n",
            "[mnorm]\nn_xi = 12\n",
            "[mnorm]\niters = 0\n",
            "[mnorm]\ntiny_grid = 1\n",
            "[simulate]\nn_points = 7\n",
            "[simulate]\nn_points = 6\n",
            "[decompose]\nn_points = 24\n",
            "[identity]\nn_points = 8\n",
            "[infra]\norder_n = 100\n",
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
            "[identity]\nband_limit = 0.5\n",
            "[infra]\nn_points = 16\n",
            "[identity]\ndt = 0\n",
            "[identity]\nn_pairs = 0\n",
            "[smoothing]\nn_seeds = 0\n",
        ],
    )
    def test_out_of_range_rejected(self, tmp_path, text):
        p = tmp_path / "a.cfg"
        p.write_text(text)
        with pytest.raises(ConfigError):
            parse_config(p)
        assert main(["identity", "--config", str(p), "--out", str(tmp_path)]) == 2


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

    def test_zero_mode_flag(self):
        g = Grid(64)
        base = DataSpec(sigma=0.0, freq_hi=8.0, seed=2)
        assert gen_rough_data(base, g).coeffs[0] == 0
        with_zero = DataSpec(sigma=0.0, freq_hi=8.0, seed=2, include_zero_mode=True)
        assert gen_rough_data(with_zero, g).coeffs[0] != 0

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


# ---------------------------------------------------------------------------
# artifact writers
# ---------------------------------------------------------------------------

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
        write_report(p, "demo", cfg, {"value": 1.5, "nan": float("nan")}, passed=True)
        doc = json.loads(p.read_text())
        assert doc["experiment"] == "demo"
        assert doc["passed"] is True
        assert doc["results"]["value"] == 1.5
        assert doc["results"]["nan"] is None
        assert doc["config"]["run"]["alpha"] == 0.6
        assert doc["config_sha256"] == config_sha256(cfg)
        assert "created" in doc

    def test_config_sha_tracks_content(self):
        a = default_config()
        b = default_config()
        assert config_sha256(a) == config_sha256(b)
        b["run"]["seed"] = 9999
        assert config_sha256(a) != config_sha256(b)


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
        assert results["timing"]["wall_s"] > 0
        assert set(results["health"]) == {"gain1", "kkk1"}
        for health in results["health"].values():
            assert set(health["iqr"]) == {"3", "4"}
            assert all(v > 0 for v in health["iqr"].values())
            assert health["non_finite_cells"] == 0
        # the transform grids: even, at most 2^(k+3), and fixed by the kind
        assert results["health"]["gain1"]["grid_n"] == {"3": 40, "4": 72}
        assert results["health"]["kkk1"]["grid_n"] == {"3": 48, "4": 96}

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
            assert set(box) == {"family", "n0", "best_restart", "sweep_values", "n_triples"}
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
# kernel twins
# ---------------------------------------------------------------------------

class TestKernels:
    def test_env_flag_honored(self):
        env = child_env(QNLS_DISABLE_NUMBA="1")
        out = subprocess.run(
            [sys.executable, "-c", "from qnls import _kernels; print(_kernels.USE_NUMBA)"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert out.stdout.strip() == "False"

    def test_bilinear_twins_agree(self):
        if not _kernels.HAS_NUMBA:
            pytest.skip("numba unavailable in this interpreter")
        rng = np.random.default_rng(2)
        n = 128
        sym = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        a = _kernels._bilinear_contract_nb(sym, u, v)
        b = _kernels.bilinear_contract_numpy(sym, u, v)
        np.testing.assert_allclose(a, b, atol=1e-12 * np.max(np.abs(b)))
