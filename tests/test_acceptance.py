"""Acceptance battery: every criterion at its stated tolerance.

Runs the same checks as `wtf-lab verify` (shared engine in wtf_lab.verify),
one test per criterion, printing a PASS/FAIL line each.
"""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.stats import spearmanr

from wtf_lab import ThetaSequence, oscillation_over
from wtf_lab.dynamics import point_of_word
from wtf_lab.verify import (
    CHECKS, BatteryContext, _band_ratios, _rank_correlation, _suffix_log_derivative_sums)


@pytest.fixture(scope="module")
def ctx():
    return BatteryContext()


@pytest.mark.parametrize("cid,title,fn", CHECKS, ids=[c[0] for c in CHECKS])
def test_criterion(ctx, cid, title, fn):
    passed, detail = fn(ctx)
    print(f"{'PASS' if passed else 'FAIL'} {title}\n     {detail}")
    assert passed, f"{title}: {detail}"


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
def test_band_ratios_match_per_word_reference(ctx, name):
    # criterion 9(a): one probe-base walk and one batch per depth give each
    # word the bits of its own oscillation_over call (the per-word route)
    sys = ctx.systems[name]
    zeros = ThetaSequence.zeros()
    rng = np.random.default_rng(97)
    lam = np.asarray(sys.lam.branch_values(sys.ell))
    ref = []
    for n in range(1, 17):
        for _ in range(3):
            digits = rng.integers(0, sys.ell, n).astype(np.uint8)
            osc = oscillation_over(sys, digits, zeros, probes=128, tol=1e-12)
            lam_n = sys.lam.value**n if sys.lam.kind == "constant" else float(np.prod(lam[digits]))
            ref.append(osc / lam_n)
    assert _band_ratios(sys, zeros) == ref


@pytest.mark.parametrize("name", ["M1", "M2", "M5"])
def test_suffix_sums_match_per_suffix_reference(ctx, name):
    # criterion 10: one composition per start value gives the sums of the
    # per-suffix point_of_word route, bit for bit
    sys = ctx.systems[name]
    rng = np.random.default_rng(31)
    for n in (1, 7, 20):
        words = rng.integers(0, sys.ell, size=(64, n)).astype(np.uint8)
        for t in (0.25, 0.75):
            ref = np.zeros(len(words))
            for k in range(n):
                ref += sys.log_abs_tau_prime(point_of_word(sys, words[:, k:], t))
            assert _suffix_log_derivative_sums(sys, words, t).tobytes() == ref.tobytes()
