"""CLI harness: commands, exit codes, config handling, report determinism."""

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import wtf_lab as wl
from wtf_lab import ThetaSequence, cli, dynamics
from wtf_lab.cli import main
from wtf_lab.dynamics import _compose, enumerate_words, point_of_word
from wtf_lab.report import write_csv
from wtf_lab.theta import counter_uniforms


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
        m1 = wl.validate_system(wl.model_spec("M1"))
        assert abs(report["outputs"]["s1"] - wl.moran_oracle(m1, "s1")) <= 1e-6
        assert abs(report["outputs"]["s2"] - wl.moran_oracle(m1, "s2")) <= 1e-6
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

    @pytest.mark.parametrize("config", ["a_directory", "latin1.json"])
    def test_unreadable_config(self, tmp_path, config):
        # a directory or a file that is not UTF-8: a validation error report
        (tmp_path / "a_directory").mkdir()
        (tmp_path / "latin1.json").write_bytes('{"model": "M1", "note": "\u00e9"}'.encode("latin-1"))
        out = tmp_path / "out"
        assert main(["validate", "--config", str(tmp_path / config), "--out", str(out)]) == 2
        assert read_report(out)["error"]["type"] == "BadConfig"


    @pytest.mark.parametrize("exc", [RuntimeError("boom"), KeyboardInterrupt()],
                             ids=["RuntimeError", "KeyboardInterrupt"])
    def test_unexpected_exception(self, tmp_path, monkeypatch, capsys, exc):
        # any other exception is an error report with exit 3, not a
        # traceback; KeyboardInterrupt propagates
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
        assert main(argv) == 3
        assert "Traceback" in capsys.readouterr().err
        report = read_report(out)
        assert report["status"] == "error"
        assert report["error"] == {"type": "RuntimeError", "message": "boom"}


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
    ], ids=["gibbs-count_depth", "holder-probes", "holder-orbit"])
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


def test_write_csv_blocks_match_per_row_format(tmp_path):
    # numeric rows across the 1024-row block boundaries, as tuples and as an
    # array; mixed str/float rows (gibbs); no rows at all
    rng = np.random.default_rng(3)
    x = np.concatenate([rng.random(8200) * 10.0**rng.integers(-300, 300, 8200),
                        [0.0, -0.0, 1.0, 2.0**-1074, math.nan, math.inf, -math.inf]])
    y = -x[::-1]
    cases = [
        (("x", "y"), list(zip(x.tolist(), y.tolist())), np.column_stack((x, y))),
        (("word", "x"), [("".join(map(str, rng.integers(0, 2, 9).tolist())), v) for v in x[:5000].tolist()],
         None),
        (("q", "A_q"), [], np.empty((0, 2))),
    ]
    for header, rows, array in cases:
        want = _per_row_csv(header, rows)
        write_csv(tmp_path / "rows.csv", header, rows)
        assert (tmp_path / "rows.csv").read_bytes() == want, header
        write_csv(tmp_path / "gen.csv", header, (row for row in rows))
        assert (tmp_path / "gen.csv").read_bytes() == want, header
        if array is not None:
            write_csv(tmp_path / "array.csv", header, array)
            assert (tmp_path / "array.csv").read_bytes() == want, header


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
    write_csv(path, ("x", "birkhoff", "oscillation"), rows)
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


MALFORMED = {
    "boxdim-window_drop": ("boxdim", {"window_drop": 5}),
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
    "sample-tol_nan": ("sample", {"tol": math.nan}),
    "sample-tol_infinite": ("sample", {"tol": math.inf}),
    "gibbs-q_nan": ("gibbs", {"q": math.nan}),
    "spectrum-q_grid_nan": ("spectrum", {"q_grid": [math.nan, 1.0]}),
    "lift-q_grid_infinite": ("lift", {"q_grid": [math.inf]}),
    "spectrum-q_grid_past_float_range": ("spectrum", {"q_grid": [10**400]}),
    "boxdim-scale_zero": ("boxdim", {"scales": [2.0**-k for k in range(2, 8)] + [0.0]}),
    "boxdim-scale_negative": ("boxdim", {"scales": [2.0**-k for k in range(2, 8)] + [-0.5]}),
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
runs = [
    ("validate", {"model": "M1"}),
    ("sample", {"model": "M1", "depth": 6}),
    ("boxdim", {"model": "M1", "depth": 10, "per_cylinder": 4, "min_scale_exp": 2, "max_scale_exp": 7}),
    ("holder", {"model": "M1", "points": [0.3], "birkhoff_depth": 10, "osc_depth_max": 6}),
    ("verify", {"criteria": ["pressure_oracle", "distortion"]}),
]
for model in ("M1", "M5"):
    runs += [("predict", {"model": model}), ("spectrum", {"model": model, "q_grid": [-1.0, 0.0, 1.0]}),
             ("gibbs", {"model": model, "q": 1.0, "depth": 8, "count": 20}), ("lift", {"model": model})]
for i, (command, config) in enumerate(runs):
    (tmp / "cfg.json").write_text(json.dumps(config))
    assert main([command, "--config", str(tmp / "cfg.json"), "--out", str(tmp / str(i))]) == 0, command
"""


def test_commands_run_without_scipy(tmp_path):
    # importing the CLI and the battery loads no scipy module, and every
    # command, the Bowen-root and rank-correlation paths included, runs
    # with scipy blocked
    src = str(Path(wl.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", _NO_SCIPY, str(tmp_path)], capture_output=True,
                         text=True, env={"PYTHONPATH": src})
    assert out.returncode == 0, out.stderr[-2000:]
