"""Acceptance battery: every criterion at its stated tolerance.

Runs the same checks as `wtf-lab verify` (shared engine in wtf_lab.verify),
one test per criterion, printing a PASS/FAIL line each.
"""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.stats import spearmanr

import wtf_lab as wl
from wtf_lab import ThetaSequence, oscillation_over, verify
from wtf_lab.dynamics import birkhoff_sums_along, point_of_word
from wtf_lab.models import MODELS
from wtf_lab.verify import CHECK_IDS, _band_ratios, _model, _rank_correlation, run_battery

# M5's map with lambda = 0.75 + 0.1 cos 2 pi x (a test system, not a bundled model)
M5_TRIG_LAMBDA = {**wl.model_spec("M5"), "id": "M5_trig_lambda",
                  "lambda": {"kind": "trig", "c0": 0.75, "harmonics": [[1, 0.1, 0.0]]}}


def test_battery_validates_each_model_once_per_process(monkeypatch):
    # two whole batteries in one process give the same flags and details;
    # with the model cache cleared, each bundled model the criteria read is
    # validated once, on its first use, and is the same object afterwards
    first = [(r.criterion, r.passed, r.detail) for r in run_battery()]
    seen, validate = [], verify.validate_system
    monkeypatch.setattr(verify, "validate_system", lambda spec: seen.append(spec["id"]) or validate(spec))
    _model.cache_clear()
    second = [(r.criterion, r.passed, r.detail) for r in run_battery()]
    assert second == first
    assert sorted(seen) == sorted(MODELS)
    assert _model("M2") is _model("M2") and len(seen) == len(MODELS)
    with pytest.raises(KeyError):
        _model("M6")


@pytest.mark.parametrize("cid", CHECK_IDS)
def test_criterion(cid):
    # through run_battery, so each criterion also meets its wall-clock gate
    [r] = run_battery([cid])
    print(f"{'PASS' if r.passed else 'FAIL'} {r.title}\n     {r.detail}")
    assert r.passed, f"{r.title}: {r.detail}"


def test_wall_clock_gate(battery_clock):
    # on a clock that reads 1.5 s per criterion, pressure_oracle fails its
    # 1 s gate with the time appended to its detail; bowen_roots has no gate
    fast = run_battery(["pressure_oracle", "bowen_roots"])
    battery_clock(1.5)
    slow = run_battery(["pressure_oracle", "bowen_roots"])
    assert not slow[0].passed
    assert slow[0].detail == fast[0].detail + "; elapsed 1.50s (< 1s)"
    assert slow[1].passed and slow[1].detail == fast[1].detail


@given(values=st.lists(st.one_of(st.integers(0, 3).map(float), st.floats(-1e6, 1e6)),
                       min_size=3, max_size=30),
       nan_at=st.one_of(st.none(), st.integers(0, 29)))
def test_rank_correlation_is_spearmanr(values, nan_at):
    # ties from the small integers; a NaN anywhere makes rho NaN
    y = np.array(values)
    if nan_at is not None:
        y[nan_at % len(y)] = math.nan
    if np.ptp(y) == 0:  # constant: spearmanr warns and returns NaN
        return
    ref = spearmanr(np.arange(len(y)), y).statistic
    got = _rank_correlation(y)
    assert float(got).hex() == float(ref).hex()


@pytest.mark.parametrize("name", ["M1", "M2", "M3"])
def test_band_ratios_match_per_word_reference(name):
    # criterion 9(a): each word's oscillation is that of its own
    # oscillation_over call (the per-word route), and lambda^n = exp(S_n log
    # lambda) is the closed-form product of the word's lambdas, within 1e-14
    sys = _model(name)
    zeros = ThetaSequence.zeros()
    rng = np.random.default_rng(97)
    ref = []
    for n in range(1, 17):
        for _ in range(3):
            digits = rng.integers(0, sys.ell, n).astype(np.uint8)
            osc = oscillation_over(sys, digits, zeros, probes=128, tol=1e-12)
            ref.append(osc / math.prod(sys.lam[d] for d in digits))
    assert _band_ratios(sys, zeros) == pytest.approx(ref, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("name", ["M1", "M2", "M5", "M5_trig_lambda"])
def test_suffix_sums_match_per_suffix_reference(name):
    # criteria 9(a) and 10: one composition per start value gives the point
    # and both sums of the per-suffix point_of_word route, its terms at
    # tau^k rho_w(t) = rho_{sigma^k w}(t) added last column first, bit for bit
    sys = _model(name) if name in MODELS else wl.validate_system(M5_TRIG_LAMBDA)
    rng = np.random.default_rng(31)
    for n in (1, 7, 20):
        words = rng.integers(0, sys.ell, size=(64, n)).astype(np.uint8)
        for t in (0.25, 0.5, 0.75):
            ref_u, ref_v = np.zeros(len(words)), np.zeros(len(words))
            for k in range(n - 1, -1, -1):
                x = point_of_word(sys, words[:, k:], t)
                dtau = np.empty(len(words))
                for i, br in enumerate(sys.branches):  # each row's own branch
                    m = words[:, k] == i
                    dtau[m] = br.derivative(x[m])
                ref_u, ref_v = np.log(np.abs(dtau)) + ref_u, np.log(sys.lam_at(x)) + ref_v
            got = birkhoff_sums_along(sys, words, t)
            for a, b in zip(got, (point_of_word(sys, words, t), ref_u, ref_v)):
                assert a.tobytes() == b.tobytes(), (name, n, t)
