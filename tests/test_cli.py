import csv
import json
import hashlib
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from rampopt.cli import main
from rampopt.patterns import ActuationPattern
from rampopt.plant import default_surrogate_config, save_surrogate_config
from rampopt.protocol import PlantServer, surrogate_responder

ALL_OFF = ",".join(["0"] * 60)
BEST_ACTIVE = ActuationPattern.from_rows((0, 1), 1, active=True).to_text()


def read(path: Path) -> str:
    return path.read_text()


class TestEvaluate:
    def test_all_off_reports_zero(self, capsys):
        assert main(["evaluate", "--pattern", ALL_OFF, "--noise", "0"]) == 0
        out = capsys.readouterr().out
        assert "J_a*  = 0.0" in out
        assert out.count("\n") > 42  # full tap table follows

    def test_best_active_pattern_from_file(self, tmp_path, capsys):
        f = tmp_path / "pattern.txt"
        f.write_text(BEST_ACTIVE + "\n")
        assert main(["evaluate", "--pattern-file", str(f), "--noise", "0"]) == 0
        out = capsys.readouterr().out
        ja_star = float(next(l for l in out.splitlines() if l.startswith("J_a*")).split("=")[1])
        assert ja_star == pytest.approx(-0.91, abs=0.02)

    def test_malformed_pattern_names_field_and_exits_2(self, capsys):
        bad = ALL_OFF.split(",")
        bad[5] = "9"
        assert main(["evaluate", "--pattern", ",".join(bad)]) == 2
        assert "height[5]" in capsys.readouterr().err

    def test_missing_pattern_is_input_error(self, capsys):
        assert main(["evaluate"]) == 2


class TestParametric:
    def test_study_csv_has_120_rows_and_reruns_identically(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["parametric", "--out", str(out1), "--seed", "3"]) == 0
        assert main(["parametric", "--out", str(out2), "--seed", "3"]) == 0
        rows = read(out1 / "study.csv").strip().splitlines()
        assert len(rows) == 121  # header + 120 cases
        for name in ("study.csv", "scatter.csv", "best_cases.txt"):
            assert read(out1 / name) == read(out2 / name)

    def test_best_case_markers(self, tmp_path):
        out = tmp_path / "study"
        assert main(["parametric", "--out", str(out)]) == 0
        markers = read(out / "best_cases.txt")
        assert "best_passive_only r2-3_l4p" in markers
        assert "best_passive_plus_active r1-2_l1a" in markers

    def test_manifest_digest_matches_config_copy(self, tmp_path):
        out = tmp_path / "study"
        assert main(["parametric", "--out", str(out)]) == 0
        manifest = json.loads(read(out / "manifest.json"))
        digest = hashlib.sha256((out / "config.json").read_bytes()).hexdigest()
        assert manifest["config_digest"] == digest

    @pytest.mark.parametrize("command", ["parametric", "optimize"])
    def test_manifest_records_the_argv_main_parsed(self, tmp_path, monkeypatch, command):
        monkeypatch.setattr(sys, "argv", ["caller.py", "--out", "elsewhere"])
        argv = [command, "--out", str(tmp_path / "run"), "--seed", "4"]
        if command == "optimize":
            argv += ["--runs", "1", "--iterations", "3", "--particles", "4"]
        assert main(argv) == 0
        assert json.loads(read(tmp_path / "run" / "manifest.json"))["argv"] == argv

    def test_unwritable_out_dir_fails_nonzero(self, tmp_path, capsys):
        # a path through a regular file can never be created
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        rc = main(["parametric", "--out", str(blocker / "sub")])
        assert rc != 0


class TestOptimize:
    def test_artifacts_and_reproducibility(self, tmp_path):
        args = ["optimize", "--seed", "11", "--runs", "2", "--iterations", "15",
                "--particles", "8"]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        expected = {
            "manifest.json", "config.json", "ledger.csv", "envelope.csv",
            "embedding_best_run.csv", "run0_curve.csv", "run1_curve.csv",
            "run0_best_pattern.txt", "run1_best_pattern.txt",
        }
        assert expected <= {p.name for p in out1.iterdir()}
        for name in sorted(expected - {"manifest.json"}):
            assert read(out1 / name) == read(out2 / name), name

    def test_curves_are_monotone(self, tmp_path):
        out = tmp_path / "c"
        assert main(["optimize", "--out", str(out), "--seed", "1", "--runs", "1",
                     "--iterations", "20", "--particles", "8"]) == 0
        lines = read(out / "run0_curve.csv").strip().splitlines()[1:]
        values = [float(l.split(",")[1]) for l in lines]
        assert all(b <= a for a, b in zip(values, values[1:]))

    def test_standard_pso_dispatch(self, tmp_path):
        out = tmp_path / "std"
        assert main(["optimize", "--out", str(out), "--seed", "1", "--runs", "1",
                     "--iterations", "10", "--particles", "8",
                     "--algorithm", "standard-pso"]) == 0
        config = json.loads(read(out / "config.json"))
        assert config["swarm"]["algorithm"] == "standard-pso"
        ledger = read(out / "ledger.csv").strip().splitlines()[1:]
        labels = {l.rsplit(",", 1)[1] for l in ledger}
        assert labels == {"1"}  # everything fair

    def test_oracle_flag_reports_gap(self, tmp_path, capsys):
        out = tmp_path / "og"
        assert main(["optimize", "--out", str(out), "--seed", "1", "--runs", "1",
                     "--iterations", "10", "--particles", "8", "--noise", "0",
                     "--oracle"]) == 0
        text = read(out / "oracle.txt")
        assert "oracle_ja_star -1.283125" in text
        assert "run0_gap" in text

    def test_oracle_flag_refused_with_coupling(self, tmp_path):
        coupled = replace(default_surrogate_config(), coupling_enabled=True)
        cfg = tmp_path / "coupled.json"
        save_surrogate_config(coupled, cfg)
        rc = main(["optimize", "--out", str(tmp_path / "x"), "--config", str(cfg),
                   "--seed", "1", "--runs", "1", "--iterations", "5",
                   "--particles", "8", "--oracle"])
        assert rc == 3


class TestOracleCommand:
    def test_default_value_in_band(self, capsys):
        assert main(["oracle"]) == 0
        out = capsys.readouterr().out
        value = float(next(l for l in out.splitlines() if "oracle_ja_star" in l).split("=")[1])
        assert -1.477 <= value <= -1.213

    def test_coupled_config_exits_3(self, tmp_path, capsys):
        coupled = replace(default_surrogate_config(), coupling_enabled=True)
        cfg = tmp_path / "coupled.json"
        save_surrogate_config(coupled, cfg)
        assert main(["oracle", "--config", str(cfg)]) == 3
        assert "coupling" in capsys.readouterr().err


class TestAnalyze:
    def test_recomputes_embedding_and_envelope(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        assert main(["optimize", "--out", str(run_dir), "--seed", "2", "--runs", "2",
                     "--iterations", "10", "--particles", "8"]) == 0
        out = tmp_path / "post"
        assert main(["analyze", "--run-dir", str(run_dir), "--out", str(out)]) == 0
        assert (out / "embedding.csv").exists()
        assert (out / "envelope.csv").exists()
        env_direct = read(run_dir / "envelope.csv")
        assert read(out / "envelope.csv") == env_direct

    def test_pod_outputs_from_snapshot_matrix(self, tmp_path):
        rng = np.random.default_rng(0)
        snaps = tmp_path / "snaps.csv"
        np.savetxt(snaps, rng.normal(size=(6, 25)), delimiter=",")
        out = tmp_path / "pod"
        assert main(["analyze", "--run-dir", str(tmp_path / "nowhere"),
                     "--snapshots", str(snaps), "--out", str(out)]) == 0
        for name in ("pod_mean.txt", "pod_modes.txt", "pod_coeffs.txt", "pod_energy.csv"):
            assert (out / name).exists()
        energies = [float(l.split(",")[1])
                    for l in read(out / "pod_energy.csv").strip().splitlines()[1:]]
        assert sum(energies) == pytest.approx(1.0, abs=1e-9)

    def test_empty_run_dir_is_input_error(self, tmp_path):
        assert main(["analyze", "--run-dir", str(tmp_path / "void")]) == 2

    @pytest.mark.parametrize("edit, message", [
        (lambda rows: rows[2].__setitem__(4, "fast"), "line 3: run '0' and fitness 'fast'"),
        (lambda rows: rows[3].__setitem__(0, "one"), "line 4: run 'one'"),
        (lambda rows: [row.pop(3) for row in rows], "line 1: expected header"),
        (lambda rows: rows[4].pop(), "line 5: expected 6 fields, got 5"),
        (lambda rows: rows[5].__setitem__(3, rows[5][3].replace("0", "7", 1)), "not in"),
        (lambda rows: rows[5].__setitem__(3, "1,2,3"), "got 3"),
        (lambda rows: rows.__delitem__(slice(1, None)), "holds no evaluations"),
    ], ids=["non_numeric_fitness", "non_numeric_run", "no_pattern_column",
            "wrong_field_count", "bad_pattern", "short_pattern", "no_rows"])
    def test_malformed_ledger_is_input_error(self, tmp_path, capsys, edit, message):
        run_dir = tmp_path / "run"
        assert main(["optimize", "--out", str(run_dir), "--seed", "2", "--runs", "1",
                     "--iterations", "3", "--particles", "4"]) == 0
        ledger = run_dir / "ledger.csv"
        with ledger.open(newline="") as fh:
            rows = list(csv.reader(fh))
        edit(rows)
        with ledger.open("w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        capsys.readouterr()
        assert main(["analyze", "--run-dir", str(run_dir), "--out", str(tmp_path / "a")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error: ") and message in err


class TestExternalPlantEndToEnd:
    def test_evaluate_against_served_surrogate(self, clean_plant, capsys):
        with PlantServer(surrogate_responder(clean_plant)) as server:
            rc = main(["evaluate", "--pattern", BEST_ACTIVE,
                       "--plant", f"external:{server.host}:{server.port}"])
        assert rc == 0
        out = capsys.readouterr().out
        ja_star = float(next(l for l in out.splitlines() if l.startswith("J_a*")).split("=")[1])
        assert ja_star == pytest.approx(-0.91, abs=0.02)

    def test_non_finite_reply_is_plant_error(self, capsys):
        nan_reply = "MEAS " + " ".join(["nan"] * 42) + " 0.0"
        with PlantServer(lambda pattern: nan_reply) as server:
            rc = main(["evaluate", "--pattern", ALL_OFF,
                       "--plant", f"external:{server.host}:{server.port}"])
        assert rc == 4
        assert "finite" in capsys.readouterr().err

    def test_unreachable_endpoint_is_plant_error(self, capsys):
        rc = main(["evaluate", "--pattern", ALL_OFF, "--plant", "external:127.0.0.1:1"])
        assert rc == 4

    def test_bad_endpoint_spec_is_input_error(self, capsys):
        rc = main(["evaluate", "--pattern", ALL_OFF, "--plant", "external:nonsense"])
        assert rc == 2
