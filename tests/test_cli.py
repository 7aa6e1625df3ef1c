"""CLI harness: commands, exit codes, config handling, report determinism."""

import json

import numpy as np
import pytest

import wtf_lab as wl
from wtf_lab.cli import main


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def read_report(out_dir):
    return json.loads((out_dir / "report.json").read_text())


class TestPredict:
    def test_m1_roots(self, tmp_path):
        cfg = write_config(tmp_path, "cfg.json", {"model": "M1"})
        out = tmp_path / "out"
        assert main(["predict", "--config", cfg, "--out", str(out)]) == 0
        report = read_report(out)
        assert abs(report["outputs"]["s1"] - 1.4854268) <= 1e-6
        assert abs(report["outputs"]["s2"] - 1.9433575) <= 1e-6
        assert report["outputs"]["min_is"] == "s1"
        assert report["status"] == "ok"
        assert "config_hash" in report and report["version"]

    def test_report_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, "cfg.json", {"model": "M2"})
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["predict", "--config", cfg, "--out", str(out1)])
        main(["predict", "--config", cfg, "--out", str(out2)])
        assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()


class TestValidate:
    def test_ok(self, tmp_path):
        cfg = write_config(tmp_path, "cfg.json", {"model": "M5"})
        out = tmp_path / "out"
        assert main(["validate", "--config", cfg, "--out", str(out)]) == 0
        assert read_report(out)["outputs"]["hyperbolicity_margin"] > 1.0

    def test_hyperbolicity_exit_code(self, tmp_path):
        cfg = write_config(tmp_path, "cfg.json", {"model": "M2_low_lambda"})
        out = tmp_path / "out"
        assert main(["validate", "--config", cfg, "--out", str(out)]) == 2
        report = read_report(out)
        assert report["status"] == "error"
        assert report["error"]["type"] == "HyperbolicityViolated"

    def test_missing_config(self, tmp_path):
        assert main(["validate", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "out")]) == 2


class TestSampleAndBoxdim:
    def test_sample_then_ingest(self, tmp_path):
        cfg = write_config(tmp_path, "cfg.json", {
            "model": "M2", "theta": {"mode": "zeros"},
            "depth": 8, "per_cylinder": 2, "tol": 1e-8,
        })
        out = tmp_path / "out"
        assert main(["sample", "--config", cfg, "--out", str(out)]) == 0
        report = read_report(out)
        assert report["outputs"]["points"] == 2**8 * 2
        cloud = wl.read_cloud_csv(out / report["outputs"]["cloud_csv"])
        assert cloud.provenance.model_id == "M2"
        assert len(cloud) == 2**8 * 2

    def test_sample_twice_identical_csv(self, tmp_path):
        cfg = write_config(tmp_path, "cfg.json", {
            "model": "M1", "theta": {"mode": "iid_uniform", "seed": 6},
            "depth": 6, "per_cylinder": 1,
        })
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["sample", "--config", cfg, "--out", str(out1)])
        main(["sample", "--config", cfg, "--out", str(out2)])
        assert (out1 / "cloud.csv").read_bytes() == (out2 / "cloud.csv").read_bytes()

    def test_boxdim_from_csv(self, tmp_path):
        x = np.arange(200_000) / 200_000.0
        cloud = wl.GraphCloud(x, x.copy(), wl.CloudProvenance("line", "zeros", None, 0, 0.0))
        csv_path = tmp_path / "line.csv"
        wl.write_cloud_csv(cloud, csv_path)
        cfg = write_config(tmp_path, "cfg.json", {
            "cloud_csv_in": str(csv_path),
            "min_scale_exp": 4, "max_scale_exp": 12,
        })
        out = tmp_path / "out"
        assert main(["boxdim", "--config", cfg, "--out", str(out)]) == 0
        assert abs(read_report(out)["outputs"]["slope"] - 1.0) < 0.03

    def test_budget_exit_code(self, tmp_path, monkeypatch):
        monkeypatch.setenv("WTF_LAB_BUDGET", "64")
        cfg = write_config(tmp_path, "cfg.json", {
            "model": "M1", "depth": 12, "per_cylinder": 1,
        })
        out = tmp_path / "out"
        assert main(["sample", "--config", cfg, "--out", str(out)]) == 4


class TestSpectrumGibbsLiftHolder:
    def test_spectrum_csv(self, tmp_path):
        cfg = write_config(tmp_path, "cfg.json", {
            "model": "M3", "q_grid": [-2.0, -1.0, 0.0, 1.0, 2.0],
        })
        out = tmp_path / "out"
        assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 0
        report = read_report(out)
        assert not report["outputs"]["degenerate_flag"]
        lines = (out / "spectrum.csv").read_text().splitlines()
        assert lines[0] == "q,A_q,alpha,D"
        assert len(lines) == 6
        q, a, alpha, d = (float(v) for v in lines[3].split(","))
        assert q == 0.0 and d == pytest.approx(a, abs=1e-12)

    def test_gibbs(self, tmp_path):
        cfg = write_config(tmp_path, "cfg.json", {
            "model": "M3", "q": 0.0, "depth": 30, "count": 500, "seed": 4,
        })
        out = tmp_path / "out"
        assert main(["gibbs", "--config", cfg, "--out", str(out)]) == 0
        report = read_report(out)
        assert report["outputs"]["dim"] == pytest.approx(0.7023801913, abs=1e-6)
        lines = (out / "gibbs.csv").read_text().splitlines()
        assert lines[0] == "word,x"
        word, x = lines[1].split(",")
        assert len(word) == 30 and set(word) <= {"0", "1"}
        assert 0.0 <= float(x) < 1.0

    def test_seed_override(self, tmp_path):
        cfg = write_config(tmp_path, "cfg.json", {
            "model": "M1", "q": 0.0, "depth": 10, "count": 50, "seed": 4,
        })
        out1, out2, out3 = (tmp_path / d for d in ("a", "b", "c"))
        main(["gibbs", "--config", cfg, "--out", str(out1), "--seed", "99"])
        main(["gibbs", "--config", cfg, "--out", str(out2), "--seed", "99"])
        main(["gibbs", "--config", cfg, "--out", str(out3)])
        assert (out1 / "gibbs.csv").read_bytes() == (out2 / "gibbs.csv").read_bytes()
        assert (out1 / "gibbs.csv").read_bytes() != (out3 / "gibbs.csv").read_bytes()

    def test_lift_table(self, tmp_path):
        cfg = write_config(tmp_path, "cfg.json", {
            "model": "M2", "q_grid": [0.0, 1.0],
        })
        out = tmp_path / "out"
        assert main(["lift", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "lift.csv").read_text().splitlines()
        assert lines[0] == "q,dim,alpha,lifted_dim,jin_upper"
        row = [float(v) for v in lines[1].split(",")]
        assert row[3] == pytest.approx(row[4], abs=1e-9)  # lift equals jin at stats

    def test_holder_csv(self, tmp_path):
        cfg = write_config(tmp_path, "cfg.json", {
            "model": "M1", "points": [1.0 / 3.0, 0.3],
            "birkhoff_depth": 20, "osc_depth_min": 2, "osc_depth_max": 14,
        })
        out = tmp_path / "out"
        assert main(["holder", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "holder.csv").read_text().splitlines()
        assert lines[0] == "x,birkhoff,oscillation"
        for line in lines[1:]:
            _, bv, ov = (float(v) for v in line.split(","))
            assert bv == pytest.approx(0.5145731728297583, abs=1e-9)
            assert abs(ov - bv) < 0.05


class TestVerify:
    def test_subset_passes(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "cfg.json", {
            "criteria": ["bowen_roots", "lifted_predictor", "spectrum"],
        })
        out = tmp_path / "out"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert stdout.count("PASS") == 3
        assert "FAIL" not in stdout
        report = read_report(out)
        assert report["outputs"]["all_passed"] is True

    def test_unknown_criterion(self, tmp_path):
        cfg = write_config(tmp_path, "cfg.json", {"criteria": ["nope"]})
        assert main(["verify", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("command,key", [
    ("boxdim", "window_drop"),
    ("boxdim", "scales"),
    ("spectrum", "q_grid"),
    ("lift", "q_grid"),
    ("holder", "points"),
    ("verify", "criteria"),
])
def test_malformed_list_is_validation_error(tmp_path, command, key):
    cfg = write_config(tmp_path, "cfg.json", {"model": "M1", "depth": 6, key: 5})
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    report = read_report(out)
    assert report["status"] == "error"
    assert report["error"]["type"] == "BadConfig"
