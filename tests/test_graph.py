"""Series evaluation, skew-product route, oscillations, degeneracy detector."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import wtf_lab as wl
from wtf_lab import InvalidTolerance, NotInPartition, ThetaSequence
from wtf_lab.dynamics import point_of_word


class TestEval:
    def test_fixed_point(self, m1, zeros):
        # orbit of 0 is constant, cos(0) = 1: geometric series 1/(1 - 0.7)
        r = wl.eval_W(m1, 0.0, zeros, 1e-10)
        assert r.value == pytest.approx(10.0 / 3.0, abs=2e-10)
        assert r.tail_bound <= 1e-10

    def test_period_two(self, m1, zeros):
        # orbit {1/3, 2/3}: cos at both points is -1/2
        r = wl.eval_W(m1, 1.0 / 3.0, zeros, 1e-10)
        assert r.value == pytest.approx(-5.0 / 3.0, abs=1e-7)

    def test_terms_used(self, m1, zeros):
        # smallest N with 0.7^N / 0.3 <= 1e-12
        assert wl.eval_W(m1, 0.0, zeros, 1e-12).terms_used == 81

    def test_invalid_tolerance(self, m1, zeros):
        with pytest.raises(InvalidTolerance):
            wl.eval_W(m1, 0.0, zeros, 0.0)

    def test_truncation_soundness(self, m1):
        # refining tol by 1e3 moves the value by less than the coarse tail bound
        rng = np.random.default_rng(5)
        tol = 1e-6
        for seed in range(20):
            xs = rng.random(50)
            theta = ThetaSequence.iid_uniform(seed)
            coarse, _, tail = wl.eval_W_many(m1, xs, theta, tol)
            fine, _, _ = wl.eval_W_many(m1, xs, theta, tol * 1e-3)
            assert np.max(np.abs(coarse - fine)) <= tail

    def test_gap_orbit_continues(self, m2, zeros):
        # gaps map to 0, so the series is defined off the repeller too
        r = wl.eval_W(m2, 0.5, zeros, 1e-10)
        assert math.isfinite(r.value)


class TestSkew:
    def test_zero_depth_is_eval(self, m3, zeros):
        x = 0.123
        assert wl.eval_W_skew(m3, x, zeros, 0, 1e-10) == wl.eval_W(m3, x, zeros, 1e-10).value

    def test_period_two_depth_ten(self, m1, zeros):
        direct = wl.eval_W(m1, 1.0 / 3.0, zeros, 1e-12).value
        skew = wl.eval_W_skew(m1, 1.0 / 3.0, zeros, 10, 1e-12)
        assert abs(direct - skew) <= 1e-10

    def test_randomised_invariance(self, m1):
        theta = ThetaSequence.iid_uniform(42)
        direct = wl.eval_W(m1, 0.3, theta, 1e-12).value
        skew = wl.eval_W_skew(m1, 0.3, theta, 8, 1e-12)
        assert abs(direct - skew) <= 1e-10

    def test_invariance_sweep(self, systems):
        tol = 1e-10
        for sys in systems.values():
            for theta in (ThetaSequence.zeros(), ThetaSequence.iid_uniform(3)):
                for x, n in ((0.1234, 5), (0.77, 3)):
                    try:
                        skew = wl.eval_W_skew(sys, x, theta, n, tol)
                    except NotInPartition:
                        continue
                    direct = wl.eval_W(sys, x, theta, tol).value
                    assert abs(direct - skew) <= 10 * tol

    @given(name=st.sampled_from(["M1", "M2", "M3", "M4", "M5"]),
           word=st.lists(st.integers(0, 1), min_size=16, max_size=16),
           t=st.floats(0.0, 1.0), n=st.integers(0, 12), seed=st.integers(-1, 50))
    def test_invariance_property(self, systems, name, word, t, n, seed):
        # x drawn inside a random depth-16 cylinder, so most orbits stay in
        # the partition for the n <= 12 steps the skew product walks
        sys = systems[name]
        x = float(point_of_word(sys, np.array([word], dtype=np.uint8), t)[0])
        theta = ThetaSequence.zeros() if seed < 0 else ThetaSequence.iid_uniform(seed)
        tol = 1e-10
        try:
            skew = wl.eval_W_skew(sys, x, theta, n, tol)
        except NotInPartition:
            return
        assert abs(wl.eval_W(sys, x, theta, tol).value - skew) <= 10 * tol


class TestOscillation:
    @pytest.mark.parametrize("probes", [2, 16, 128])
    def test_probes_match_level_order_reference(self, systems, zeros, probes):
        # reference: the level-order representatives of the depth-m
        # refinements, pulled back through the word one digit at a time.
        # For one word every inverse call sees the same set of values, so
        # the M5 Newton inverse gives the same bits
        rng = np.random.default_rng(19)
        for sys in systems.values():
            m = max(1, math.ceil(math.log(probes) / math.log(sys.ell)))
            for n in (1, 8, 20):
                word = rng.integers(0, sys.ell, n).astype(np.uint8)
                pts = sys.representatives(m, 0.5)
                for d in word[::-1]:
                    pts = sys.branches[d].inverse(pts)
                ys, _, _ = wl.eval_W_many(sys, pts, zeros, 1e-12)
                osc = wl.oscillation_over(sys, word, zeros, probes=probes, tol=1e-12)
                assert osc == ys.max() - ys.min()

    def test_zero_forcing(self, zeros):
        sys = wl.validate_system({**wl.model_spec("M1"), "g": {"kind": "zero"}, "id": "M1g0"})
        assert wl.oscillation_over(sys, (0, 1, 0), zeros) == 0.0

    def test_m2_branch_zero_positive(self, m2, zeros):
        assert wl.oscillation_over(m2, (0,), zeros, probes=256) > 0.0

    def test_band_along_period_two(self, m1, zeros):
        # osc over I_n(1/3) scaled by lambda^n stays in a fixed positive band
        ratios = []
        for n in range(1, 11):
            word = wl.code_of(m1, 1.0 / 3.0, n)
            osc = wl.oscillation_over(m1, word, zeros, probes=128, tol=1e-12)
            ratios.append(osc / 0.7**n)
        assert min(ratios) > 1.0
        assert max(ratios) / min(ratios) < 4.0

    def test_upper_bound_across_thetas(self, systems):
        # fitted caps per model (measured maxima 7.9 / 12.7 / 10.2 plus
        # headroom), asserted across theta choices and depths
        caps = {"M1": 12.0, "M2": 17.0, "M3": 14.0}
        rng = np.random.default_rng(20)
        for name, cap in caps.items():
            sys = systems[name]
            lam = np.asarray(sys.lam.branch_values(sys.ell))
            thetas = [ThetaSequence.zeros()] + [ThetaSequence.iid_uniform(s) for s in (1, 2, 3)]
            for theta in thetas:
                for n in (2, 6, 10, 14, 16):
                    digits = rng.integers(0, sys.ell, n).astype(np.uint8)
                    osc = wl.oscillation_over(sys, digits, theta, probes=128, tol=1e-12)
                    lam_n = float(np.prod(lam[digits]))
                    assert osc / lam_n <= cap

    def test_refinement_monotone(self, m1, zeros):
        parent = wl.oscillation_over(m1, (0, 1), zeros, probes=256)
        for d in (0, 1):
            child = wl.oscillation_over(m1, (0, 1, d), zeros, probes=256)
            assert child <= parent * 1.02  # sampling slack


class TestHolderContinuity:
    def test_global_holder_bound(self, m1, m3, zeros):
        # |W(x) - W(u)| <= K d(x, u)^(alpha_min - 0.02) on sampled pairs
        for sys, alpha_min in ((m1, 0.5145731728297583), (m3, 0.446676901961204)):
            h = alpha_min - 0.02
            rng = np.random.default_rng(17)
            xs = rng.random(400)
            us = rng.random(400)
            wx, _, _ = wl.eval_W_many(sys, xs, zeros, 1e-10)
            wu, _, _ = wl.eval_W_many(sys, us, zeros, 1e-10)
            d = wl.torus_distance(xs, us)
            keep = d > 1e-9
            ratio = np.abs(wx - wu)[keep] / d[keep] ** h
            assert ratio.max() < 25.0


class TestGapSmoothness:
    def test_difference_quotients_cauchy(self, m2, zeros):
        xs = np.linspace(0.37, 0.63, 100)
        q = {}
        for h in (1e-5, 1e-6):
            up, _, _ = wl.eval_W_many(m2, xs + h, zeros, 1e-12)
            dn, _, _ = wl.eval_W_many(m2, xs - h, zeros, 1e-12)
            q[h] = (up - dn) / (2 * h)
        assert np.max(np.abs(q[1e-5] - q[1e-6])) <= 1e-4


class TestDegeneracy:
    def test_zero_forcing_degenerate(self, zeros):
        sys = wl.validate_system({**wl.model_spec("M1"), "g": {"kind": "zero"}, "id": "M1g0"})
        assert wl.detect_degenerate(sys, zeros).degenerate

    def test_m1_nondegenerate(self, m1, zeros):
        verdict = wl.detect_degenerate(m1, zeros)
        assert not verdict.degenerate
        assert verdict.c_hat > 0

    def test_m2_nondegenerate(self, m2, zeros):
        assert not wl.detect_degenerate(m2, zeros).degenerate

    def test_telescoping_lipschitz_degenerate(self, zeros):
        # g = cos(2 pi x) - 0.7 cos(4 pi x) on the doubling map telescopes
        # to W = cos(2 pi x): smooth, hence degenerate
        sys = wl.validate_system({
            "id": "M1coh",
            "branches": {"family": "ell_adic", "ell": 2},
            "lambda": {"kind": "constant", "value": 0.7},
            "g": {"kind": "trig", "harmonics": [[1, 1.0, 0.0], [2, -0.7, 0.0]]},
        })
        value = wl.eval_W(sys, 0.2, zeros, 1e-12).value
        assert value == pytest.approx(math.cos(2 * math.pi * 0.2), abs=1e-10)
        assert wl.detect_degenerate(sys, zeros).degenerate

    def test_inconclusive_near_threshold(self, zeros):
        # same telescoping construction with lambda = 0.58: osc/lambda^n
        # decays like (1/(2*0.58))^n = 0.86^n, too slow to call degenerate
        # and too fast to call non-degenerate within the tested range
        sys = wl.validate_system({
            "id": "M1coh58",
            "branches": {"family": "ell_adic", "ell": 2},
            "lambda": {"kind": "constant", "value": 0.58},
            "g": {"kind": "trig", "harmonics": [[1, 1.0, 0.0], [2, -0.58, 0.0]]},
        })
        with pytest.raises(wl.Inconclusive):
            wl.detect_degenerate(sys, zeros)
