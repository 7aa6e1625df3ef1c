"""CLI harness: commands, exit codes, config handling, report determinism."""

import contextlib
import io
import json
import math
import subprocess
import sys
import tempfile
import tracemalloc
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import wtf_lab as wl
from wtf_lab import ThetaSequence, cli, config, dynamics, report, verify
from wtf_lab.cli import main
from wtf_lab.dynamics import _compose, enumerate_words, point_of_word
from wtf_lab.errors import BadConfig
from wtf_lab.report import write_csv
from wtf_lab.theta import counter_uniforms
from wtf_lab.verify import CHECK_IDS, run_battery


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def read_report(out_dir):
    return json.loads((out_dir / "report.json").read_text())


# one config per command, each run by test_report_byte_identical and
# test_commands_run_without_scipy
RUNS = [
    ("validate", {"model": "M1"}),
    ("sample", {"model": "M1", "depth": 6}),
    ("boxdim", {"model": "M1", "depth": 10, "per_cylinder": 4, "min_scale_exp": 2, "max_scale_exp": 7}),
    ("holder", {"model": "M1", "points": [0.3], "birkhoff_depth": 10, "osc_depth_max": 6}),
    ("verify", {"criteria": ["pressure_oracle", "distortion"]}),
] + [run for model in ("M1", "M5") for run in (
    ("predict", {"model": model}), ("spectrum", {"model": model, "q_grid": [-1.0, 0.0, 1.0]}),
    ("gibbs", {"model": model, "q": 1.0, "depth": 8, "count": 20}), ("lift", {"model": model}))]


class TestPredict:
    def test_m1_roots(self, tmp_path):
        cfg = write_config(tmp_path, "cfg.json", {"model": "M1"})
        out = tmp_path / "out"
        assert main(["predict", "--config", cfg, "--out", str(out)]) == 0
        report = read_report(out)
        m1 = wl.validate_system(wl.model_spec("M1"))
        assert abs(report["outputs"]["s1"] - wl.moran_oracle(m1, "s1")) <= 1e-6
        assert abs(report["outputs"]["s2"] - wl.moran_oracle(m1, "s2")) <= 1e-6
        assert report["outputs"]["min_is"] == "s1"
        assert report["status"] == "ok"
        assert "config_hash" in report and report["version"]

    def test_report_byte_identical(self, tmp_path, battery_clock):
        # two runs of every command write the same bytes to every file, while
        # the battery's clock advances 0.01 s per reading in one and 0.03 s in
        # the other
        written = []
        for run, step in (("a", 0.01), ("b", 0.03)):
            battery_clock(step)
            for i, (command, config) in enumerate(RUNS):
                cfg = write_config(tmp_path, "cfg.json", config)
                assert main([command, "--config", cfg, "--out", str(tmp_path / run / str(i))]) == 0
            written.append({p.relative_to(tmp_path / run): p.read_bytes()
                            for p in (tmp_path / run).rglob("*") if p.is_file()})
        assert written[0].keys() == written[1].keys()
        for name, data in written[0].items():
            assert data == written[1][name], name


class TestValidate:
    def test_ok(self, tmp_path):
        cfg = write_config(tmp_path, "cfg.json", {"model": "M5"})
        out = tmp_path / "out"
        assert main(["validate", "--config", cfg, "--out", str(out)]) == 0
        assert read_report(out)["outputs"]["hyperbolicity_margin"] > 1.0

    def test_hyperbolicity_exit_code(self, tmp_path):
        # M2's branches with lambda 0.3: inf |tau'| * lambda < 1
        cfg = write_config(tmp_path, "cfg.json",
                           {"model": {"branches": wl.MODELS["M2"]["branches"], "lambda": 0.3}})
        out = tmp_path / "out"
        assert main(["validate", "--config", cfg, "--out", str(out)]) == 2
        report = read_report(out)
        assert report["status"] == "error"
        assert report["error"]["type"] == "HyperbolicityViolated"

    def test_missing_config(self, tmp_path):
        assert main(["validate", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "out")]) == 2

    @pytest.mark.parametrize("config", ["a_directory", "latin1.json"])
    def test_unreadable_config(self, tmp_path, config):
        # a directory or a file that is not UTF-8: a validation error report
        (tmp_path / "a_directory").mkdir()
        (tmp_path / "latin1.json").write_bytes('{"model": "M1", "note": "\u00e9"}'.encode("latin-1"))
        out = tmp_path / "out"
        assert main(["validate", "--config", str(tmp_path / config), "--out", str(out)]) == 2
        assert read_report(out)["error"]["type"] == "BadConfig"


    @pytest.mark.parametrize("exc", [RuntimeError("boom"), ValueError("boom"), KeyboardInterrupt()],
                             ids=["RuntimeError", "ValueError", "KeyboardInterrupt"])
    def test_unexpected_exception(self, tmp_path, monkeypatch, capsys, exc):
        # any other exception is an error report, not a bare traceback: a
        # ValueError exits 2, anything else (a bug) 3 with its traceback
        # after the timing line and before the error line;
        # KeyboardInterrupt propagates
        def broken(config, out_dir, seed, report):
            raise exc

        monkeypatch.setitem(cli.COMMANDS, "validate", broken)
        argv = ["validate", "--config", write_config(tmp_path, "cfg.json", {"model": "M1"}),
                "--out", str(tmp_path / "out")]
        out = tmp_path / "out"
        if isinstance(exc, KeyboardInterrupt):
            with pytest.raises(KeyboardInterrupt):
                main(argv)
            assert not (out / "report.json").exists()
            return
        bug = isinstance(exc, RuntimeError)
        assert main(argv) == (3 if bug else 2)
        err = capsys.readouterr().err
        timing, error = err.index("[wtf-lab] validate:total took"), err.index("error: ")
        assert ("Traceback" in err) == bug
        if bug:
            assert timing < err.index("Traceback") < error
        assert err[error:] == f"error: {type(exc).__name__}: boom\n"
        report = read_report(out)
        assert report["status"] == "error"
        assert report["error"] == {"type": type(exc).__name__, "message": "boom"}


def _lab_errors(cls=wl.WtfLabError):
    """cls and each of its subclasses, recursively."""
    return [cls] + [c for sub in cls.__subclasses__() for c in _lab_errors(sub)]


# every lab error by the exit code the README gives its group
EXIT_GROUPS = {
    2: {"WtfLabError", "BadConfig", "OverlappingBranches", "NotOnto", "HyperbolicityViolated",
        "LambdaOutOfRange", "InvalidTolerance"},
    3: {"InversionFailed", "NotInPartition", "NoSignChange", "TooFlat", "NotNormalised",
        "NotBranchConstant", "DegenerateFit", "OscillationUnderflow", "Inconclusive"},
    4: {"BudgetExceeded"},
}


class TestExitCodes:
    def test_each_error_class_states_its_group_code(self):
        groups = {}
        for cls in _lab_errors():
            groups.setdefault(cls.exit_code, set()).add(cls.__name__)
        assert groups == EXIT_GROUPS

    @pytest.mark.parametrize("cls", _lab_errors(), ids=lambda cls: cls.__name__)
    def test_main_returns_the_class_exit_code(self, tmp_path, monkeypatch, capsys, cls):
        # the class attribute alone sets the exit code, with a report naming
        # the type and no traceback
        def broken(config, out_dir, seed, report):
            raise cls("boom")

        monkeypatch.setitem(cli.COMMANDS, "validate", broken)
        out = tmp_path / "out"
        argv = ["validate", "--config", write_config(tmp_path, "cfg.json", {"model": "M1"}),
                "--out", str(out)]
        assert main(argv) == cls.exit_code
        assert read_report(out)["error"]["type"] == cls.__name__
        assert "Traceback" not in capsys.readouterr().err


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

    def test_large_seed_kept_exact(self, tmp_path):
        seed = 2**53 + 1  # not a float64
        cfg = write_config(tmp_path, "cfg.json", {
            "model": "M1", "theta": {"mode": "iid_uniform", "seed": seed}, "depth": 4})
        out = tmp_path / "out"
        assert main(["sample", "--config", cfg, "--out", str(out)]) == 0
        assert read_report(out)["outputs"]["provenance"]["theta_seed"] == seed

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

    def test_boxdim_refuses_non_finite_cloud(self, tmp_path):
        x = np.arange(1000) / 1000.0
        y = x.copy()
        y[500] = math.nan
        csv_path = tmp_path / "nan.csv"
        wl.write_cloud_csv(wl.GraphCloud(x, y, wl.CloudProvenance("line", "zeros", None, 0, 0.0)),
                           csv_path)
        cfg = write_config(tmp_path, "cfg.json", {"cloud_csv_in": str(csv_path)})
        out = tmp_path / "out"
        assert main(["boxdim", "--config", cfg, "--out", str(out)]) == 2
        report = read_report(out)
        assert report["status"] == "error"
        assert report["error"]["type"] == "ValueError"
        assert "finite" in report["error"]["message"]

    @pytest.mark.parametrize("text", ["x,y\n", "", "x\n0.5\n0.25\n", "x,y,z\n0.5,1,2\n",
                                      "x,y\n0.5,1\n0.25\n", "x,y\n0.5,one\n",
                                      "0.5,1\n0.25,2\n0.75,3\n"],
                             ids=["header_only", "empty", "one_column", "three_columns",
                                  "ragged", "not_numeric", "headerless"])
    def test_boxdim_refuses_malformed_cloud_csv(self, tmp_path, text):
        # the x,y header, then one or more rows of exactly two numeric
        # columns, or a validation error report: no IndexError, no silent
        # read of the first two columns, no first row dropped unread
        csv_path = tmp_path / "cloud.csv"
        csv_path.write_text(text)
        cfg = write_config(tmp_path, "cfg.json", {"cloud_csv_in": str(csv_path)})
        out = tmp_path / "out"
        assert main(["boxdim", "--config", cfg, "--out", str(out)]) == 2
        report = read_report(out)
        assert report["status"] == "error"
        assert report["error"]["type"] == "BadConfig"

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

    @pytest.mark.parametrize("command, header", [("spectrum", b"q,A_q,alpha,D\n"),
                                                 ("lift", b"q,dim,alpha,lifted_dim,jin_upper\n")])
    def test_empty_q_grid_writes_header_only(self, tmp_path, command, header):
        cfg = write_config(tmp_path, "cfg.json", {"model": "M1", "q_grid": []})
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out)]) == 0
        assert (out / f"{command}.csv").read_bytes() == header

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

    @pytest.mark.parametrize("ell,width", [(10, 1), (12, 2)])
    def test_gibbs_words_decode(self, tmp_path, ell, width):
        # each digit takes width zero-padded characters (two from 11 branches
        # on), so every word decodes to its sampled digit row; up to ten
        # branches a word is the plain join of its digits
        model = {"branches": {"family": "ell_adic", "ell": ell}, "lambda": 0.5}
        cfg = write_config(tmp_path, "cfg.json", {"model": model, "q": 1.0, "depth": 6, "count": 200})
        out = tmp_path / "out"
        assert main(["gibbs", "--config", cfg, "--out", str(out)]) == 0
        sys = wl.validate_system(model)
        digits, xs = wl.gibbs_sample(sys, wl.PotentialSpec(-wl.A_of_q(sys, 1.0), 1.0), 6, 200, 1)
        rows = [line.split(",") for line in (out / "gibbs.csv").read_text().splitlines()[1:]]
        assert all(len(word) == 6 * width for word, _ in rows)
        decoded = [[int(word[i:i + width]) for i in range(0, 6 * width, width)] for word, _ in rows]
        assert decoded == digits.tolist()
        if width == 1:
            assert [word for word, _ in rows] == ["".join(map(str, row)) for row in digits.tolist()]
        assert [float(x) for _, x in rows] == xs.tolist()

    @pytest.mark.parametrize("model", [
        {"branches": [{"domain": [0.0, 0.15]}, {"domain": [0.85, 1.0]}],
         "lambda": {"kind": "branch_constant", "values": [0.2, 0.3]}},
        "M5",
    ], ids=["branch_constant", "M5"])
    def test_nan_pressure_not_normalised(self, tmp_path, model):
        # huge coefficients give inf - inf weights: a NaN pressure, refused by
        # the normalisation gate without an overflow warning
        cfg = write_config(tmp_path, "cfg.json", {
            "model": model, "pot_a": 1.7e308, "pot_b": 1.7e308, "depth": 5, "count": 10,
        })
        out = tmp_path / "out"
        assert main(["gibbs", "--config", cfg, "--out", str(out)]) == 3
        assert read_report(out)["error"]["type"] == "NotNormalised"

    def test_gibbs_m5_below_default_depth(self, tmp_path):
        # the normalisation gate reads the pressure that A_of_q solved,
        # whatever the sample depth
        cfg = write_config(tmp_path, "cfg.json", {"model": "M5", "q": 1.0, "depth": 8, "count": 100})
        out = tmp_path / "out"
        assert main(["gibbs", "--config", cfg, "--out", str(out)]) == 0
        assert len((out / "gibbs.csv").read_text().splitlines()) == 101

    def test_gibbs_m5_lebesgue_potential(self, tmp_path):
        # -log|tau'| has pressure exactly 0 on the full-branch M5, so the
        # normalisation gate passes it as it stands (its Gibbs measure is the acim)
        cfg = write_config(tmp_path, "cfg.json", {"model": "M5", "pot_a": -1, "depth": 10, "count": 50})
        out = tmp_path / "out"
        assert main(["gibbs", "--config", cfg, "--out", str(out)]) == 0
        assert read_report(out)["outputs"]["dim"] == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("model", ["M1", "M2", "M3", "M4", "M5"])
    def test_lift_dims_at_most_one(self, tmp_path, model):
        # on M5, A_of_q(0) lands an ulp above 1: dim still stays within jin_upper's [0, 1]
        cfg = write_config(tmp_path, "cfg.json", {"model": model})
        out = tmp_path / "out"
        assert main(["lift", "--config", cfg, "--out", str(out)]) == 0
        rows = [line.split(",") for line in (out / "lift.csv").read_text().splitlines()[1:]]
        assert len(rows) == 5 and all(float(row[1]) <= 1.0 for row in rows)

    def test_spectrum_fd_step_refused(self, tmp_path):
        # fd_step is no config key: alpha(q) is a mean of the equilibrium state
        cfg = write_config(tmp_path, "cfg.json", {"model": "M3", "fd_step": 1e-3})
        out = tmp_path / "out"
        assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 2
        assert read_report(out)["error"]["type"] == "BadConfig"

    @pytest.mark.parametrize("command,config", [
        ("gibbs", {"model": "M1", "q": 0.0, "count": 100, "depth": 50}),  # count x depth digits
        ("holder", {"model": "M1", "points": [0.3], "probes": 2**20}),  # probe tails per row
        ("holder", {"model": "M1", "points": [0.3, 0.4], "birkhoff_depth": 600}),  # orbit points x n
        ("spectrum", {"model": "M1", "q_steps": 10**15}),  # the q grid
        ("holder", {"model": "M1", "points": [0.3], "osc_depth_max": 10**15}),  # the depth list
        ("holder", {"model": "M1", "point_depth": 10**7}),  # ell**depth words, never formed
    ], ids=["gibbs-count_depth", "holder-probes", "holder-orbit", "spectrum-q_steps",
            "holder-osc_depth_max", "holder-point_depth"])
    def test_config_sized_arrays_within_budget(self, tmp_path, monkeypatch, command, config):
        # each config-sized array is checked against the budget before it is
        # allocated; a small budget shows the refusal without a large allocation
        monkeypatch.setenv("WTF_LAB_BUDGET", "1000")
        cfg = write_config(tmp_path, "cfg.json", config)
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out)]) == 4
        assert read_report(out)["error"]["type"] == "BudgetExceeded"

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

    def test_holder_budget_exit_code(self, tmp_path, monkeypatch):
        monkeypatch.setenv("WTF_LAB_BUDGET", "64")
        cfg = write_config(tmp_path, "cfg.json", {"model": "M1", "point_depth": 7})
        out = tmp_path / "out"
        assert main(["holder", "--config", cfg, "--out", str(out)]) == 4
        assert read_report(out)["error"]["type"] == "BudgetExceeded"

    def test_holder_past_float_resolution(self, tmp_path):
        # M1 cylinders of depth 64 round to length 0: a typed refusal (exit
        # 3), not a math domain error from the logarithm
        cfg = write_config(tmp_path, "cfg.json", {"model": "M1", "osc_depth_max": 70, "point_count": 3})
        out = tmp_path / "out"
        assert main(["holder", "--config", cfg, "--out", str(out)]) == 3
        error = read_report(out)["error"]
        assert error["type"] == "OscillationUnderflow"
        assert "cylinder length" in error["message"]


def _per_row_csv(header, rows):
    """write_csv's format one row at a time: the reference for its blocks."""
    rows = [tuple(r) for r in rows]
    text = ",".join(header) + "\n"
    if rows:
        line = ",".join("%s" if isinstance(v, str) else "%.17g" for v in rows[0]) + "\n"
        text += "".join(line % row for row in rows)
    return text.encode()


def _assert_per_row_format(path, header, columns):
    # write_csv's columns against _per_row_csv's rows: an S column's values
    # as str, every other column's as Python floats
    write_csv(path, header, columns)
    values = [np.asarray(c).astype(str).tolist() if np.asarray(c).dtype.kind == "S"
              else np.asarray(c, dtype=float).tolist() for c in columns]
    assert path.read_bytes() == _per_row_csv(header, zip(*values)), header


def _decimal_ties(rng, per_exponent):
    """Floats m / 2**j, m odd, whose decimal expansion m * 5**j / 10**j has
    18 significant digits, the last a 5: halfway between two 17-digit
    numbers, at every decimal exponent X = 17 - j of the fixed-notation
    range [-4, 13]."""
    ties = []
    for x in range(-4, 14):
        j = 17 - x  # decimals of m / 2**j; m * 5**j is its 18-digit mantissa
        lo, hi = -(-10**17 // 5**j), 10**18 // 5**j
        m = rng.integers(lo, hi, per_exponent) | 1
        ties.append(np.ldexp(m[m < hi].astype(float), -j))
    return np.concatenate(ties)


def test_write_csv_blocks_match_per_row_format(tmp_path):
    # numeric columns of every magnitude and the special values, as arrays and
    # as lists; a word (S) column beside a float one (gibbs); no rows at all
    rng = np.random.default_rng(3)
    x = np.concatenate([rng.random(8200) * 10.0**rng.integers(-300, 300, 8200),
                        [0.0, -0.0, 1.0, 2.0**-1074, math.nan, math.inf, -math.inf]])
    y = -x[::-1]
    words = np.array(["".join(map(str, rng.integers(0, 2, 9).tolist())) for _ in range(5000)], dtype="S9")
    cases = [
        (("x", "y"), (x, y)),
        (("x", "y"), (x.tolist(), y.tolist())),
        (("word", "x"), (words, x[:5000])),
        (("q", "A_q"), (np.empty(0), [])),
    ]
    for header, columns in cases:
        _assert_per_row_format(tmp_path / "out.csv", header, columns)


def test_write_csv_digits_match_per_row_format(tmp_path):
    # the exact-integer digits of the fixed range 1e-4 <= |x| < 1e14 and its
    # edges: binary grids, values a few ulps from 10^k, 17-digit ties (round
    # half to even), random bit patterns
    rng = np.random.default_rng(11)
    grid = np.arange(2**19)
    k, j = np.arange(-6, 17)[:, None], np.arange(-5, 6)[None, :]
    ties = _decimal_ties(rng, 2000)
    assert {Decimal(t).as_tuple().digits[-1] for t in ties[::97].tolist()} == {5}
    assert {len(Decimal(t).as_tuple().digits) for t in ties[::97].tolist()} == {18}
    bits = rng.integers(0, 2**64, 10**5, dtype=np.uint64, endpoint=False).view(np.float64)
    for header, columns in [
        (("x", "y"), (grid / 2**19, grid / (3 * 2**17))),
        (("near_power_of_ten",), ((10.0**k * (1 + j * 2.0**-52)).ravel(),)),
        (("below", "above"), (np.nextafter(10.0**k[:, 0], 0.0), np.nextafter(10.0**k[:, 0], np.inf))),
        (("tie", "neg_tie"), (ties, -ties)),
        (("bits",), (bits,)),
    ]:
        _assert_per_row_format(tmp_path / "out.csv", header, columns)


@given(st.lists(st.floats(), max_size=50), st.floats(min_value=1e-4, max_value=1e14))
def test_write_csv_floats_property(tmp_path_factory, values, fixed):
    path = tmp_path_factory.mktemp("csv") / "out.csv"
    _assert_per_row_format(path, ("v", "w"), (values + [fixed], [-fixed] + values))


def test_write_csv_block_edges(tmp_path):
    # one row short of a block, one block, one row past it; the header alone
    rng = np.random.default_rng(5)
    for n in (report._BLOCK - 1, report._BLOCK, report._BLOCK + 1, 0):
        words = rng.integers(48, 50, (n, 12), dtype=np.uint8).view("S12").ravel()
        _assert_per_row_format(tmp_path / "out.csv", ("word", "x", "k"),
                               (words, rng.normal(size=n), np.arange(n)))
    write_csv(tmp_path / "empty.csv", ("x", "y"), (np.empty(0), np.empty(0)))
    assert (tmp_path / "empty.csv").read_bytes() == b"x,y\n"


def test_write_csv_memory_bounded(tmp_path, m1):
    # a 2^19-row cloud is written a block at a time: a whole-file text matrix
    # would take about 42 MB
    cloud = wl.sample_graph(m1, ThetaSequence.zeros(), depth=19, per_cylinder=1)
    assert len(cloud) == 2**19
    tracemalloc.start()
    try:
        wl.write_cloud_csv(cloud, tmp_path / "cloud.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2**20, peak / 2**20


@pytest.mark.parametrize("header, columns, match", [
    (("x", "y"), [(1.0,), (2.0, 3.0)], "unequal length"),
    (("x", "y"), [np.zeros(3)], "2 column names for 1 columns"),
    (("x",), [np.zeros((3, 2))], "1-D"),
    (("word",), [np.array(["01", "10"])], "<U2"),
    (("x",), [np.array([1.0, None])], "object"),
    (("z",), [np.ones(2, complex)], "complex"),
], ids=["ragged", "count", "2d", "str", "object", "complex"])
def test_write_csv_refuses_malformed_columns(tmp_path, header, columns, match):
    with pytest.raises(ValueError, match=match):
        write_csv(tmp_path / "out.csv", header, columns)
    assert not (tmp_path / "out.csv").exists()


def _holder_per_point(sys, path):
    """CLI holder's defaults, one point at a time: writes the CSV and returns
    the first error raised, or None.  The points are composed for every
    depth-12 word at its seeded uniform, then every (ell^12 // 6)-th is kept."""
    words = enumerate_words(sys.ell, 12)
    xs = _compose(sys, words, counter_uniforms(7, np.arange(len(words)), stream=12))
    rows = []
    for x in xs[::max(1, len(xs) // 6)][:6].tolist():
        try:
            rows.append((x, wl.holder_birkhoff(sys, x, 30),
                         wl.holder_oscillation(sys, x, ThetaSequence.zeros(), range(2, 21), 128, 1e-12)))
        except wl.WtfLabError as exc:
            return exc
    write_csv(path, ("x", "birkhoff", "oscillation"), tuple(zip(*rows)))
    return None


@pytest.mark.parametrize("model", ["M1", "M5"])
def test_holder_default_points_match_full_enumeration(tmp_path, systems, model):
    # the kept rows' digits and uniforms, computed alone, give the points of
    # composing every depth-n word at its uniform and keeping every step-th
    sys_ = systems[model]
    for n, count in ((16, 7), (2, 10)):
        cfg = write_config(tmp_path, "cfg.json", {
            "model": model, "point_depth": n, "point_count": count, "birkhoff_depth": 4,
            "osc_depth_min": 2, "osc_depth_max": 4, "probes": 8})
        out = tmp_path / f"out{n}"
        assert main(["holder", "--config", cfg, "--out", str(out), "--seed", "11"]) == 0
        xs = [float(line.split(",")[0]) for line in (out / "holder.csv").read_text().splitlines()[1:]]
        total = sys_.ell**n
        rows = np.arange(0, total, max(1, total // count))[:count]
        u = counter_uniforms(11, np.arange(total), stream=n)
        ref = point_of_word(sys_, enumerate_words(sys_.ell, n)[rows], u[rows])
        assert xs == ref.tolist()


def test_holder_default_points_on_five_branches(tmp_path):
    # 5**12 words pass the budget, but only point_count of them are formed:
    # the defaults exit 0, and x is point_of_word on the evenly spaced words
    spec = {"branches": {"family": "ell_adic", "ell": 5}, "lambda": 0.5}
    cfg = write_config(tmp_path, "cfg.json", {"model": spec})
    out = tmp_path / "out"
    assert main(["holder", "--config", cfg, "--out", str(out)]) == 0
    xs = [float(line.split(",")[0]) for line in (out / "holder.csv").read_text().splitlines()[1:]]
    rows = np.arange(0, 5**12, 5**12 // 50)[:50]
    words = np.array([[int(c) for c in np.base_repr(r, 5).zfill(12)] for r in rows], dtype=np.uint8)
    ref = point_of_word(wl.validate_system(spec), words, counter_uniforms(7, rows, stream=12))
    assert len(xs) == 50 and xs == ref.tolist()


@pytest.mark.parametrize("model", ["M1", "M5", "M2"])
def test_holder_batch_matches_per_point(tmp_path, systems, model):
    # the batched command writes the per-point loop's CSV byte for byte, and
    # on M2 refuses with the loop's first error
    cfg = write_config(tmp_path, "cfg.json", {"model": model, "point_count": 6})
    out = tmp_path / "out"
    code = main(["holder", "--config", cfg, "--out", str(out)])
    error = _holder_per_point(systems[model], tmp_path / "ref.csv")
    if error is None:
        assert code == 0
        assert (out / "holder.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    else:
        assert model == "M2" and code == 3
        assert read_report(out)["error"] == {"type": type(error).__name__, "message": str(error)}


STEEP_SINE = {"id": "steep_sine", "branches": {"family": "doubling_plus_sine", "ell": 3, "eps": 0.3},
              "lambda": 0.95}


def test_holder_steep_sine_map(tmp_path, monkeypatch):
    # 2 pi eps = 1.88 against ell = 3: the middle branch's seed needs degree
    # 60 and leaves elements that fail the accept test; they go to
    # _invert_increasing and the command still succeeds
    sys_ = wl.validate_system(STEEP_SINE)
    middle = sys_.branches[1]
    assert len(dynamics._inverse_seed(middle)[2]) - 1 == 60  # built before the spy
    seen = []
    solve = dynamics._invert_increasing

    def spy(f, fprime, target, lo, hi, f_lo, f_hi):
        t = np.asarray(target, dtype=float)
        if lo == middle.lo:
            seen.append(int(((t > f_lo) & (t < f_hi)).sum()))
        return solve(f, fprime, target, lo, hi, f_lo, f_hi)

    monkeypatch.setattr(dynamics, "_invert_increasing", spy)
    cfg = write_config(tmp_path, "cfg.json", {"model": STEEP_SINE, "point_count": 10, "osc_depth_max": 14})
    out = tmp_path / "out"
    assert main(["holder", "--config", cfg, "--out", str(out)]) == 0
    assert read_report(out)["outputs"]["points"] == 10
    assert sum(seen) > 0


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

    @pytest.mark.parametrize("criteria,message", [
        ([], "'criteria' must not be empty"),
        (["nope", "spectrum"], f"unknown criteria ['nope']; known: {CHECK_IDS}"),
    ], ids=["empty", "unknown"])
    def test_run_battery_refuses(self, tmp_path, criteria, message):
        # the library refuses a list that would run nothing or skip a name,
        # and the CLI reports the same message
        with pytest.raises(BadConfig) as exc:
            run_battery(criteria)
        assert str(exc.value) == message
        cfg = write_config(tmp_path, "cfg.json", {"criteria": criteria})
        assert main(["verify", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert read_report(tmp_path / "o")["error"] == {"type": "BadConfig", "message": message}


def test_boxdim_equal_scales_is_validation_error(tmp_path, capsys):
    # six equal scales ended in a ZeroDivisionError traceback and exit 3
    cfg = write_config(tmp_path, "cfg.json", {"model": "M1", "depth": 6, "scales": [0.1] * 6})
    out = tmp_path / "out"
    assert main(["boxdim", "--config", cfg, "--out", str(out)]) == 2
    assert read_report(out)["error"] == {"type": "ValueError",
                                         "message": "box scales must be distinct"}
    assert "Traceback" not in capsys.readouterr().err


MALFORMED = {
    "boxdim-window_drop": ("boxdim", {"window_drop": 5}),
    "boxdim-window_drop_negative_end": (
        "boxdim", {"depth": 8, "window_drop": [2, -3], "min_scale_exp": 2, "max_scale_exp": 9}),
    "boxdim-window_drop_negative_start": (
        "boxdim", {"depth": 8, "window_drop": [-1, 2], "min_scale_exp": 2, "max_scale_exp": 9}),
    "boxdim-scales": ("boxdim", {"scales": 5}),
    "spectrum-q_grid": ("spectrum", {"q_grid": 5}),
    "lift-q_grid": ("lift", {"q_grid": 5}),
    "holder-points": ("holder", {"points": 5}),
    "holder-points_empty": ("holder", {"points": []}),
    "verify-criteria": ("verify", {"criteria": 5}),
    "verify-criteria_empty": ("verify", {"criteria": []}),
    "sample-restrict_text": ("sample", {"restrict_to_repeller": "false"}),
    "sample-restrict_number": ("sample", {"restrict_to_repeller": 1}),
    "validate-ell_300": ("validate", {"model": {"branches": {"family": "ell_adic", "ell": 300}, "lambda": 0.7}}),
    "validate-ell_million": (
        "validate", {"model": {"branches": {"family": "ell_adic", "ell": 10**6}, "lambda": 0.7}}),
    "validate-sine_ell_300": (
        "validate", {"model": {"branches": {"family": "doubling_plus_sine", "ell": 300}, "lambda": 0.7}}),
    "validate-branch_list_256": (
        "validate", {"model": {"branches": [{"domain": [i / 256, (i + 1) / 256]} for i in range(256)],
                               "lambda": 0.7}}),
    "validate-ell_adic_without_ell": (
        "validate", {"model": {"branches": {"family": "ell_adic"}, "lambda": 0.7}}),
    "validate-branch_domain_not_a_list": (
        "validate", {"model": {"branches": [{"domain": 5}], "lambda": 0.7}}),
    "validate-constant_lambda_without_value": (
        "validate", {"model": {"branches": {"family": "ell_adic", "ell": 2},
                               "lambda": {"kind": "constant"}}}),
    "sample-theta_number": ("sample", {"theta": 5}),
    "sample-theta_seed_list": ("sample", {"theta": {"mode": "iid_uniform", "seed": [1]}}),
    "sample-theta_seed_fraction": ("sample", {"theta": {"mode": "iid_uniform", "seed": 1.7}}),
    "sample-theta_seed_text": ("sample", {"theta": {"mode": "iid_uniform", "seed": "abc"}}),
    "sample-theta_seed_infinite": ("sample", {"theta": {"mode": "iid_uniform", "seed": math.inf}}),
    "sample-depth_past_float_range": ("sample", {"depth": 10**400}),
    "validate-model_ref_list": ("validate", {"model": {"ref": []}}),
    "boxdim-missing_cloud_csv_in": ("boxdim", {"cloud_csv_in": "nope.csv"}),
    "validate-model_m2_low_lambda": ("validate", {"model": "M2_low_lambda"}),  # no bundled model
    "sample-tol_nan": ("sample", {"tol": math.nan}),
    "sample-tol_infinite": ("sample", {"tol": math.inf}),
    "gibbs-q_nan": ("gibbs", {"q": math.nan}),
    "spectrum-q_grid_nan": ("spectrum", {"q_grid": [math.nan, 1.0]}),
    "lift-q_grid_infinite": ("lift", {"q_grid": [math.inf]}),
    "spectrum-q_grid_past_float_range": ("spectrum", {"q_grid": [10**400]}),
    "boxdim-scale_zero": ("boxdim", {"scales": [2.0**-k for k in range(2, 8)] + [0.0]}),
    "boxdim-scale_negative": ("boxdim", {"scales": [2.0**-k for k in range(2, 8)] + [-0.5]}),
    "boxdim-max_scale_exp_underflow": ("boxdim", {"max_scale_exp": 1075}),  # 2.0**-1075 is 0
    "boxdim-min_scale_exp_underflow": ("boxdim", {"min_scale_exp": 1075, "max_scale_exp": 1080}),
    "validate-ell_infinite": ("validate", {"model": {"branches": {"family": "ell_adic", "ell": 1e400}}}),
    "validate-ell_text": ("validate", {"model": {"branches": {"family": "ell_adic", "ell": "two"}}}),
    "validate-lambda_nan": (
        "validate", {"model": {"branches": {"family": "ell_adic", "ell": 2}, "lambda": math.nan}},
        "LambdaOutOfRange"),
    "validate-branch_lambda_nan": (
        "validate", {"model": {"branches": {"family": "ell_adic", "ell": 2},
                               "lambda": {"kind": "branch_constant", "values": [0.7, math.nan]}}},
        "LambdaOutOfRange"),
    "validate-ell_fraction": (
        "validate", {"model": {"branches": {"family": "ell_adic", "ell": 2.5}, "lambda": 0.7}}),
    "validate-sine_ell_fraction": (
        "validate", {"model": {"branches": {"family": "doubling_plus_sine", "ell": 2.7}, "lambda": 0.7}}),
    "validate-g_nan": (
        "validate", {"model": {"branches": {"family": "ell_adic", "ell": 2}, "lambda": 0.7,
                               "g": {"kind": "trig", "harmonics": [[1, math.nan, 0.0]]}}}),
    "sample-cloud_csv_empty": ("sample", {"cloud_csv": ""}),
    "sample-cloud_csv_parent": ("sample", {"cloud_csv": "../escaped.csv"}),
    "lift-lift_csv_report": ("lift", {"lift_csv": "report.json"}),
    "sample-unknown_key": ("sample", {"per_cyl": 4}),  # a misspelt per_cylinder
    "sample-g_nan": (
        "sample", {"model": {"branches": {"family": "ell_adic", "ell": 2}, "lambda": 0.7,
                             "g": {"kind": "trig", "harmonics": [[1, math.nan, 0.0]]}}}),
    "validate-g_c0_infinite": (
        "validate", {"model": {"branches": {"family": "ell_adic", "ell": 2}, "lambda": 0.7,
                               "g": {"kind": "trig", "c0": math.inf}}}),
    "validate-g_harmonic_fraction": (
        "validate", {"model": {"branches": {"family": "ell_adic", "ell": 2}, "lambda": 0.7,
                               "g": {"kind": "trig", "harmonics": [[1.5, 1.0, 0.0]]}}}),
    "validate-offset_nan": (
        "validate", {"model": {"branches": [{"domain": [0.0, 0.4], "slope": 2.5, "offset": math.nan},
                                            {"domain": [0.6, 1.0], "slope": 2.5, "offset": -1.5}],
                               "lambda": 0.7}},
        "NotOnto"),
    "validate-trig_lambda_nan": (
        "validate", {"model": {"branches": {"family": "ell_adic", "ell": 2},
                               "lambda": {"kind": "trig", "c0": 0.7, "harmonics": [[1, math.nan, 0.0]]}}},
        "LambdaOutOfRange"),
}


@pytest.mark.parametrize("case", list(MALFORMED), ids=list(MALFORMED))
def test_malformed_list_is_validation_error(tmp_path, case):
    # malformed lists and model/theta/input entries end in a validation
    # error report: BadConfig unless the case names another type
    command, entries, *error = MALFORMED[case]
    cfg = write_config(tmp_path, "cfg.json", {"model": "M1", "depth": 6, **entries})
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    report = read_report(out)
    assert report["status"] == "error"
    assert report["error"]["type"] == (error[0] if error else "BadConfig")


_NO_SCIPY = """
import json, sys
from pathlib import Path
import wtf_lab.cli, wtf_lab.verify
assert not [m for m in sys.modules if m.split(".")[0] == "scipy"]
sys.modules["scipy"] = None  # every scipy import now fails
from wtf_lab.cli import main
tmp = Path(sys.argv[1])
for i, (command, config) in enumerate(json.loads(sys.argv[2])):
    (tmp / "cfg.json").write_text(json.dumps(config))
    assert main([command, "--config", str(tmp / "cfg.json"), "--out", str(tmp / str(i))]) == 0, command
"""


def test_commands_run_without_scipy(tmp_path):
    # importing the CLI and the battery loads no scipy module, and every
    # command, the Bowen-root and rank-correlation paths included, runs
    # with scipy blocked
    src = str(Path(wl.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", _NO_SCIPY, str(tmp_path), json.dumps(RUNS)],
                         capture_output=True, text=True, env={"PYTHONPATH": src})
    assert out.returncode == 0, out.stderr[-2000:]


_SCALES = [2.0**-k for k in range(2, 8)]


@pytest.mark.parametrize("command, entries", [
    ("gibbs", {"q": 1.0, "pot_a": -1.0}), ("gibbs", {"q": 1.0, "pot_c": 0.0}),
    ("holder", {"points": [0.3], "point_count": 3}), ("holder", {"points": [0.3], "point_depth": 4}),
    ("boxdim", {"scales": _SCALES, "min_scale_exp": 2}), ("boxdim", {"scales": _SCALES, "max_scale_exp": 7}),
])
def test_contradictory_keys_refused(tmp_path, capsys, command, entries):
    # a pair of keys that give one input two ways is refused with both keys
    # named, where the command read the first and ignored the other
    cfg = write_config(tmp_path, "cfg.json", {"model": "M1", "depth": 6, **entries})
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    first, second = entries
    assert read_report(out)["error"] == {
        "type": "BadConfig",
        "message": f"config keys {first!r} and {second!r} contradict: set one or the other"}
    assert "Traceback" not in capsys.readouterr().err


# one tiny config per command for the fuzz below; each key either side of
# an exclusive pair runs alone
_FUZZ_BASES = {
    "validate": {"model": "M1"},
    "predict": {"model": "M1"},
    "sample": {"model": "M1", "depth": 3},
    "boxdim": {"model": "M1", "depth": 6, "min_scale_exp": 1, "max_scale_exp": 6},
    "holder": {"model": "M1", "points": [0.3], "birkhoff_depth": 3, "osc_depth_max": 3},
    "spectrum": {"model": "M1", "q_steps": 2},
    "gibbs": {"model": "M1", "q": 0.0, "depth": 2, "count": 2},
    "lift": {"model": "M1", "q_grid": [0.0]},
    "verify": {"criteria": ["pressure_oracle"]},
}
_MISSING = object()
_SMALL = st.one_of(st.integers(-3, 3), st.floats(-3.0, 3.0))
# a key removed, or a value of the wrong type, non-finite, or out of range:
# small numbers and huge ones, never a size that passes the budget but runs long
_FUZZ_VALUES = st.one_of(
    st.just(_MISSING), st.none(), st.booleans(), st.text(max_size=2), _SMALL,
    st.sampled_from([math.nan, math.inf, -math.inf, 1e300, -1e300, 2**64, -(2**64), 10**400]),
    st.lists(st.one_of(_SMALL, st.text(max_size=2)), max_size=2), st.just({}))


@pytest.mark.parametrize("command", list(cli.COMMANDS))
@settings(max_examples=6)
@given(values=st.fixed_dictionaries({key: _FUZZ_VALUES for key in sorted(config.CONFIG_KEYS)}))
def test_config_fuzz_never_crashes(command, values):
    # every config key set to each drawn value, or removed, one key at a
    # time: each run exits 0, 2, 3 or 4 with a report.json and no traceback.
    # verify's criteria are stubbed: this fuzzes the config handling, and
    # test_criterion runs the criteria themselves
    checks = [(cid, title, lambda: (True, "stub"), gate) for cid, title, _, gate in verify.CHECKS]
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr(verify, "CHECKS", checks)
        path = Path(tmp) / "cfg.json"
        for key, value in values.items():
            cfg = {k: v for k, v in _FUZZ_BASES[command].items() if k != key}
            if value is not _MISSING:
                cfg[key] = value
            path.write_text(json.dumps(cfg))
            out, err = Path(tmp) / key, io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = main([command, "--config", str(path), "--out", str(out)])
            assert code in (0, 2, 3, 4), (key, value, code)
            assert "Traceback" not in err.getvalue(), (key, value, err.getvalue())
            assert (out / "report.json").is_file(), (key, value)
