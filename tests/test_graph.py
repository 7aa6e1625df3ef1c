"""Series evaluation, skew-product route, oscillations, degeneracy detector."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import wtf_lab as wl
from wtf_lab import InvalidTolerance, NotInPartition, ThetaSequence
from wtf_lab.dynamics import (
    _orbit,
    _walk,
    cylinder_bounds_many,
    enumerate_words,
    point_of_word,
)
from wtf_lab.graph import (
    _probe_bases,
    _probe_depth,
    _probes,
    _pull_back,
    _series,
    _terms_for_tolerance,
)
from wtf_lab.verify import _skew_values


def _one(sys, x, theta, tol):
    """W_theta(x) from a one-point eval_W_many call."""
    return float(wl.eval_W_many(sys, np.array([x]), theta, tol)[0][0])


def _skew(sys, x, theta, n, tol):
    """W_theta(x) through the skew product: the series at tau^n x, summed by
    _series with the shifts theta_{n+k}, pulled back along x's first n digits
    by _pull_back.  NotInPartition when an iterate before n leaves the
    partition."""
    digits, points, left = _orbit(sys, [x], n)
    if left[0] < n:
        raise NotInPartition(int(left[0]))
    u = sys.tau(points[:, -1]) if n else np.array([x])
    n_terms, _ = _terms_for_tolerance(sys, tol)
    return float(_pull_back(sys, digits, u, _series(sys, u, theta.block(n, n_terms)), theta)[1][0])


class TestEval:
    def test_fixed_point(self, m1, zeros):
        # orbit of 0 is constant, cos(0) = 1: geometric series 1/(1 - 0.7)
        values, _, tail = wl.eval_W_many(m1, np.array([0.0]), zeros, 1e-10)
        assert values[0] == pytest.approx(10.0 / 3.0, abs=2e-10)
        assert tail <= 1e-10

    def test_period_two(self, m1, zeros):
        # orbit {1/3, 2/3}: cos at both points is -1/2
        assert _one(m1, 1.0 / 3.0, zeros, 1e-10) == pytest.approx(-5.0 / 3.0, abs=1e-7)

    def test_terms_used(self, m1, zeros):
        # smallest N with 0.7^N / 0.3 <= 1e-12
        assert wl.eval_W_many(m1, np.array([0.0]), zeros, 1e-12)[1] == 81

    def test_invalid_tolerance(self, m1, zeros):
        with pytest.raises(InvalidTolerance):
            wl.eval_W_many(m1, np.array([0.0]), zeros, 0.0)

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
        assert math.isfinite(_one(m2, 0.5, zeros, 1e-10))

    def test_series_with_one_shift_per_point(self, systems):
        # row k of the shift matrix holds theta_{n+k} for each point's own n:
        # every value has the bits of the one-point series of theta.shift(n)
        rng = np.random.default_rng(41)
        xs, ns = rng.random(12), rng.integers(0, 70, 12)
        for sys in systems.values():
            for theta in (ThetaSequence.zeros(), ThetaSequence.iid_uniform(7).shift(3)):
                for tol in (1e-8, 1e-12):
                    n_terms, _ = _terms_for_tolerance(sys, tol)
                    shifts = theta.block(0, int(ns.max()) + n_terms)
                    got = _series(sys, xs, shifts[ns + np.arange(n_terms)[:, None]])
                    for x, n, value in zip(xs.tolist(), ns.tolist(), got.tolist()):
                        assert value.hex() == _one(sys, x, theta.shift(n), tol).hex(), sys.model_id


class TestSkew:
    def test_zero_depth_is_eval(self, m3, zeros):
        x = 0.123
        assert _skew(m3, x, zeros, 0, 1e-10) == _one(m3, x, zeros, 1e-10)

    def test_period_two_depth_ten(self, m1, zeros):
        direct = _one(m1, 1.0 / 3.0, zeros, 1e-12)
        skew = _skew(m1, 1.0 / 3.0, zeros, 10, 1e-12)
        assert abs(direct - skew) <= 1e-10

    def test_randomised_invariance(self, m1):
        theta = ThetaSequence.iid_uniform(42)
        direct = _one(m1, 0.3, theta, 1e-12)
        skew = _skew(m1, 0.3, theta, 8, 1e-12)
        assert abs(direct - skew) <= 1e-10

    def test_invariance_sweep(self, systems):
        tol = 1e-10
        for sys in systems.values():
            for theta in (ThetaSequence.zeros(), ThetaSequence.iid_uniform(3)):
                for x, n in ((0.1234, 5), (0.77, 3)):
                    try:
                        skew = _skew(sys, x, theta, n, tol)
                    except NotInPartition:
                        continue
                    direct = _one(sys, x, theta, tol)
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
            skew = _skew(sys, x, theta, n, tol)
        except NotInPartition:
            return
        assert abs(_one(sys, x, theta, tol) - skew) <= 10 * tol

    def test_criterion_batch_matches_per_point(self, systems):
        # criterion 9(b) sums every base in one _series call and pulls each
        # point back along its digits from one _orbit walk: each value has
        # the bits of the one-point route (an _orbit of the point alone, its
        # base from eval_W_many, one _pull_back)
        rng = np.random.default_rng(43)
        xs = np.concatenate([[0.3, 1.0 / 3.0, 0.1234, 0.77], rng.random(12)])
        depths = np.concatenate([[8, 10, 5, 3], rng.integers(1, 13, 12)])
        for sys in systems.values():
            for theta in (ThetaSequence.zeros(), ThetaSequence.iid_uniform(42)):
                n_terms, _ = _terms_for_tolerance(sys, 1e-10)
                got = _skew_values(sys, xs, depths, theta, n_terms)
                for x, n, value in zip(xs.tolist(), depths.tolist(), got.tolist()):
                    digits, points, left = _orbit(sys, [x], n)
                    if left[0] < n:
                        assert math.isnan(value)
                        continue
                    u = sys.tau(points[:, -1])
                    base, _, _ = wl.eval_W_many(sys, u, theta.shift(n), 1e-10)
                    _, ref = _pull_back(sys, digits, u, base, theta)
                    assert value.hex() == float(ref[0]).hex(), (sys.model_id, x, n)


def _mp_W(x, lam, eps, terms=120):
    """W_0(x) for 2x + eps sin(2 pi x) mod 1, lambda constant and g = cos 2 pi x,
    summed at the working precision (0.7^120 / 0.3 < 1e-18)."""
    mpmath = pytest.importorskip("mpmath")
    two_pi = 2 * mpmath.pi
    total, weight = mpmath.mpf(0), mpmath.mpf(1)
    for _ in range(terms):
        total += weight * mpmath.cos(two_pi * x)
        weight *= lam
        x = 2 * x + eps * mpmath.sin(two_pi * x)
        x -= mpmath.floor(x)
    return total


class TestPullBack:
    def test_points_have_point_of_word_bits(self, systems):
        # the kernel's u is _compose's column loop: the probes are
        # point_of_word's bits at the level-order tails rho_v(1/2)
        rng = np.random.default_rng(23)
        for sys in systems.values():
            theta = ThetaSequence.iid_uniform(5)
            for n in (1, 20, 64):
                words = rng.integers(0, sys.ell, size=(30, n)).astype(np.uint8)
                t = rng.random(30)
                u, _ = _pull_back(sys, words, t, np.zeros(30), theta)
                assert u.tobytes() == point_of_word(sys, words, t).tobytes()
                u, _, _ = _probes(sys, words, theta, 16, _probe_bases(sys, [n], theta, 16, 1e-12)[0])
                tails = _walk(sys, [0.5], 4)
                ref = point_of_word(sys, np.repeat(words, 16, axis=0), np.tile(tails, 30))
                assert u.tobytes() == ref.tobytes()

    def test_closer_than_forward_sum_on_m5(self, m5, zeros):
        # 60-digit references on M5: W at the exact point rho_w(t) of each
        # probe for the pull-back, and W at the probe's float point for the
        # forward sum evaluated there.  The forward orbit amplifies rounding
        # by up to 2.3 per step; a probe carries the error of one series
        # value at 1/2 times 0.7^(n+m) and a few ulps per step
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(31)
        with mpmath.workdps(60):
            lam, eps = mpmath.mpf(0.7), mpmath.mpf(m5.branches[0].eps)
            for n in (5, 12, 20):
                words = rng.integers(0, 2, size=(3, n)).astype(np.uint8)
                u, pulled, _ = _probes(m5, words, zeros, 128, _probe_bases(m5, [n], zeros, 128, 1e-12)[0])
                pick = rng.choice(128, 3, replace=False)
                forward, _, _ = wl.eval_W_many(m5, u[:, pick], zeros, 1e-12)
                err_pull, err_fwd = [], []
                for r, word in enumerate(words):
                    for c, j in enumerate(pick.tolist()):
                        x = mpmath.mpf(0.5)
                        for d in (word.tolist() + [int(b) for b in f"{j:07b}"])[::-1]:
                            rhs = d + x
                            x = mpmath.findroot(
                                lambda v: 2 * v + eps * mpmath.sin(2 * mpmath.pi * v) - rhs, rhs / 2)
                        err_pull.append(abs(pulled[r, j] - float(_mp_W(x, lam, eps))))
                        err_fwd.append(abs(forward[r, c] - float(_mp_W(mpmath.mpf(float(u[r, j])), lam, eps))))
                assert max(err_pull) <= 0.1 * max(err_fwd)
                assert max(err_pull) <= 1e-12  # the series tolerance


class TestProbeBases:
    @pytest.mark.parametrize("tol", [1e-8, 1e-12])
    def test_match_one_point_series(self, systems, tol):
        # one orbit walk of 1/2 for every depth: each base has the bits of
        # the one-point series at its own shift min(n, 64) + m
        depths = list(range(0, 70, 3)) + [64, 65, 2]
        for sys in systems.values():
            for theta in (ThetaSequence.zeros(), ThetaSequence.iid_uniform(7).shift(3)):
                for probes in (2, 128):
                    m = max(1, math.ceil(math.log(probes) / math.log(sys.ell)))
                    bases = _probe_bases(sys, depths, theta, probes, tol)
                    for n, base in zip(depths, bases.tolist()):
                        ref, _, _ = wl.eval_W_many(sys, np.array([0.5]), theta.shift(min(n, 64) + m), tol)
                        assert base.hex() == float(ref[0]).hex(), (sys.model_id, n)

    @pytest.mark.parametrize("ell, probes, m", [(2, 2, 1), (2, 64, 6), (2, 128, 7), (2, 129, 8),
                                                (3, 2, 1), (5, 125, 3), (5, 126, 4), (6, 216, 3),
                                                (7, 16807, 5), (8, 2**21, 7), (8, 2**21 + 1, 8)])
    def test_probe_depth_is_least_m(self, ell, probes, m):
        # the least m with ell**m >= probes; a float log put 125 probes on 5
        # branches at m = 4 (625 probes), and so (6, 216), (7, 16807), (8, 2**21)
        sys = wl.validate_system({"branches": {"family": "ell_adic", "ell": ell}, "lambda": 0.6})
        assert _probe_depth(sys, probes) == m
        if ell == 5:
            base = _probe_bases(sys, [3], ThetaSequence.zeros(), probes, 1e-10)[0]
            u, _, _ = _probes(sys, np.zeros((1, 3), dtype=np.uint8), ThetaSequence.zeros(), probes, base)
            assert u.shape == (1, ell**m)

    def test_argument_errors(self, m1, zeros):
        with pytest.raises(ValueError):
            _probe_bases(m1, [3], zeros, 1, 1e-10)
        with pytest.raises(InvalidTolerance):
            _probe_bases(m1, [3], zeros, 16, 0.0)


@pytest.mark.parametrize("name", ["M1", "M5"])
def test_probe_rows_are_not_repeated(systems, monkeypatch, name):
    # the probe tails and the cylinder ends are start values of _compose:
    # no digit matrix reaching it has more rows than there are points (each
    # row was repeated ell^m + 2 = 130 times)
    rows, compose = [], wl.graph._compose

    def spy(sys, digits, *args):
        rows.append(np.shape(digits)[0])
        return compose(sys, digits, *args)

    monkeypatch.setattr(wl.graph, "_compose", spy)
    xs = np.random.default_rng(59).random(20)
    wl.holder_oscillation_many(systems[name], xs, ThetaSequence.iid_uniform(4), range(1, 31), 128)
    assert rows and max(rows) <= len(xs)


class TestOscillation:
    @pytest.mark.parametrize("probes", [2, 16, 128])
    def test_probes_match_level_order_reference(self, systems, zeros, probes):
        # reference: the level-order walk from 1/2 to the depth-m tails, then
        # the word one digit at a time, pulling y back at every step from the
        # series value W_{sigma^{n+m} theta}(1/2): u <- rho_d(u) and
        # y <- lambda(u) y + g(u + theta_k).  Every step is elementwise, so
        # the M5 Newton inverse gives the same bits
        rng = np.random.default_rng(19)
        for sys in systems.values():
            m = max(1, math.ceil(math.log(probes) / math.log(sys.ell)))
            for n in (1, 8, 20):
                word = rng.integers(0, sys.ell, n).astype(np.uint8)
                for theta in (zeros, ThetaSequence.iid_uniform(n)):
                    u = np.array([0.5])
                    y, _, _ = wl.eval_W_many(sys, u, theta.shift(n + m), 1e-12)
                    for k in range(n + m - 1, n - 1, -1):
                        level = [br.inverse(u) for br in sys.branches]
                        y = np.concatenate([sys.lam_at(v) * y + sys.g(v + theta[k]) for v in level])
                        u = np.concatenate(level)
                    for k in range(n - 1, -1, -1):
                        u = sys.branches[word[k]].inverse(u)
                        y = sys.lam_at(u) * y + sys.g(u + theta[k])
                    osc = wl.oscillation_over(sys, word, theta, probes=probes, tol=1e-12)
                    assert osc == y.max() - y.min()

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
            lam = np.asarray(sys.lam)
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
        value = _one(sys, 0.2, zeros, 1e-12)
        assert value == pytest.approx(math.cos(2 * math.pi * 0.2), abs=1e-10)
        assert wl.detect_degenerate(sys, zeros).degenerate

    @pytest.mark.parametrize("name", ["M1", "M5", "telescoping"])
    def test_matches_per_word_reference(self, systems, zeros, name):
        # reference: the per-word route, one oscillation_over per word and
        # one forward birkhoff_sum from each word's rho_w(1/2), words drawn in
        # the same rng order; lambda is constant on these systems, so the sum
        # adds the same term n times in either order and the verdict keeps
        # every bit
        sys = systems.get(name) or wl.validate_system({
            "id": "M1coh",
            "branches": {"family": "ell_adic", "ell": 2},
            "lambda": {"kind": "constant", "value": 0.7},
            "g": {"kind": "trig", "harmonics": [[1, 1.0, 0.0], [2, -0.7, 0.0]]},
        })
        rng = np.random.default_rng(2024)
        ratios, lips = [], []
        for n in range(2, 13):
            if sys.ell**n <= 16:
                words = enumerate_words(sys.ell, n)
            else:
                words = rng.integers(0, sys.ell, size=(8, n)).astype(np.uint8)
            lo, hi = cylinder_bounds_many(sys, words)
            osc = np.array([wl.oscillation_over(sys, w, zeros, 128, 1e-12) for w in words])
            xs = point_of_word(sys, words, 0.5)
            log_lam = np.array([wl.birkhoff_sum(sys, "log_lambda", x, n) for x in xs])
            ratios.append(float(np.max(osc / np.exp(log_lam))))
            lips.append(float(np.max(osc / (hi - lo))))
        verdict = wl.detect_degenerate(sys, zeros)
        assert verdict.ratios == tuple(ratios)
        assert verdict.lipschitz == tuple(lips)
        assert verdict.degenerate == (name == "telescoping")
        assert verdict.c_hat == (None if verdict.degenerate else min(ratios))

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


def _eval_unblocked(sys, xs, theta, tol):
    """eval_W_many's series loop over the whole batch at once."""
    n_terms, _ = wl.graph._terms_for_tolerance(sys, tol)
    shifts = theta.block(0, n_terms)
    acc, weight, cur = np.zeros_like(xs), np.ones_like(xs), xs.copy()
    for n in range(n_terms):
        acc += weight * sys.g(cur + shifts[n])
        if n + 1 < n_terms:
            weight *= sys.lam_at(cur)
            cur = sys.tau(cur)
    return acc


def test_blocked_series_matches_unblocked(systems):
    # the 2**14-point blocks give every point the bits of one whole-batch loop
    xs = np.random.default_rng(12).random(2**14 + 3)
    for name, sys in systems.items():
        for theta in (ThetaSequence.zeros(), ThetaSequence.iid_uniform(5)):
            got, _, _ = wl.eval_W_many(sys, xs, theta, 1e-8)
            assert got.tobytes() == _eval_unblocked(sys, xs, theta, 1e-8).tobytes(), name
            one, _, _ = wl.eval_W_many(sys, xs[-1:], theta, 1e-8)
            assert one.tobytes() == _eval_unblocked(sys, xs[-1:], theta, 1e-8).tobytes(), name


# M5's map with lambda = 0.75 + 0.1 cos 2 pi x (a test system, not a bundled model)
M5_TRIG_LAMBDA = {**wl.model_spec("M5"), "id": "M5_trig_lambda",
                  "lambda": {"kind": "trig", "c0": 0.75, "harmonics": [[1, 0.1, 0.0]]}}


def _plain_series(sys, xs, thetas):
    """_series with every product and map a new array, on the formulas
    themselves: a TrigPoly filled with c0 and summed term by term, a lambda
    table gathered per point (nearest branch), and tau by branch, slope x +
    offset or ell x + eps sin 2 pi x - i, 0 off the branches, then mod 1."""
    def trig(poly, x):
        out = np.full_like(x, poly.c0)
        for k, a, b in poly.harmonics:
            w = 2.0 * math.pi * k * x
            if a:
                out = out + a * np.cos(w)
            if b:
                out = out + b * np.sin(w)
        return out

    def tau(x):
        i = np.searchsorted(sys.branch_lows, x, side="right") - 1
        inside = (i >= 0) & (x < sys.branch_highs[np.maximum(i, 0)])
        out = np.zeros_like(x)
        for j, br in enumerate(sys.branches):
            at = inside & (i == j)
            if br.kind == "affine":
                out[at] = br.slope * x[at] + br.offset
            else:
                out[at] = br.ell * x[at] + br.eps * np.sin(2.0 * math.pi * x[at]) - j
        return np.mod(out, 1.0)

    def lam(x):
        return np.asarray(sys.lam)[sys.nearest_branch(x)] if sys.lam_is_table else trig(sys.lam, x)

    cur, acc, weight = xs, np.zeros_like(xs), np.ones_like(xs)
    for k, shift in enumerate(thetas):
        acc = acc + weight * trig(sys.g, cur + shift)
        if k + 1 < len(thetas):
            weight = weight * lam(cur)
            cur = tau(cur)
    return acc


@pytest.mark.parametrize("name", ["M2", "M3", "M5", "M5_trig_lambda"])
@pytest.mark.parametrize("seed", [None, 6], ids=["zeros", "iid"])
def test_series_matches_plain_term_formula(systems, name, seed):
    # in-place sums, a scalar weight for equal lambdas, a tau that skips the
    # gap mask and in-place sines keep every bit; M2's and M3's gap points
    # go to 0 under tau
    sys = systems.get(name) or wl.validate_system(M5_TRIG_LAMBDA)
    theta = ThetaSequence.zeros() if seed is None else ThetaSequence.iid_uniform(seed)
    xs = np.concatenate([np.arange(2**12) / 2**12, np.random.default_rng(9).random(2**12 + 5)])
    n_terms, _ = _terms_for_tolerance(sys, 1e-8)
    got, _, _ = wl.eval_W_many(sys, xs, theta, 1e-8)
    assert got.tobytes() == _plain_series(sys, xs, theta.block(0, n_terms)).tobytes()
    # _probe_bases' case: many shifts, one row of thetas per term, for one point
    depths = np.arange(0, 70, 3)
    shifts = np.minimum(depths, 64) + 7
    thetas = theta.block(0, int(shifts.max()) + n_terms)[shifts + np.arange(n_terms)[:, None]]
    many = _series(sys, np.array([0.5]), thetas)
    assert many.shape == depths.shape
    assert many.tobytes() == _plain_series(sys, np.array([0.5]), thetas).tobytes()


_NON_INTEGER_CALLS = {
    "code_of": lambda m1, th: wl.code_of(m1, 0.1, 2.5),
    "birkhoff_sum": lambda m1, th: wl.birkhoff_sum(m1, "log_lambda", 0.1, 2.5),
    "holder_birkhoff_many": lambda m1, th: wl.holder_birkhoff_many(m1, [0.1], 2.5),
    "holder_birkhoff_none": lambda m1, th: wl.holder_birkhoff(m1, 0.1, None),
    "tree": lambda m1, th: m1.tree(2.5),
    "enumerate_words": lambda m1, th: enumerate_words(2, 2.5),
    "sample_graph_depth": lambda m1, th: wl.sample_graph(m1, th, 2.5, 4),
    "sample_graph_per_cylinder": lambda m1, th: wl.sample_graph(m1, th, 4, 2.5),
    "oscillation_depths": lambda m1, th: wl.holder_oscillation_many(m1, [0.1], th,
                                                                    depth_range=[1.5, 3.5]),
    "oscillation_probes": lambda m1, th: wl.oscillation_over(m1, [0, 1], th, probes=2.5),
    "theta_seed": lambda m1, th: ThetaSequence.iid_uniform(1.5).block(0, 3),
    "theta_index": lambda m1, th: ThetaSequence.iid_uniform(1)[1.5],
    "theta_shift": lambda m1, th: ThetaSequence.iid_uniform(1).shift(1.5),
    "theta_block_count": lambda m1, th: th.block(0, 2.5),
}


@pytest.mark.parametrize("call", _NON_INTEGER_CALLS.values(), ids=_NON_INTEGER_CALLS.keys())
def test_non_integer_arguments_refused(m1, zeros, call):
    # each raised TypeError, or ran with a truncated count (a 40-point cloud
    # for per_cylinder 2.5, 4 probes for 2.5)
    with pytest.raises(ValueError, match="must be an integer"):
        call(m1, zeros)


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, 0.0, "1e-8", None])
def test_non_finite_tolerance_refused(m1, zeros, tol):
    # NaN ended in "cannot convert float NaN to integer", +-inf in
    # OverflowError, and a tol that is no real number in TypeError
    calls = (lambda: wl.eval_W_many(m1, np.array([0.1]), zeros, tol),
             lambda: wl.sample_graph(m1, zeros, 3, 2, tol),
             lambda: wl.oscillation_over(m1, [0, 1], zeros, tol=tol),
             lambda: wl.holder_oscillation_many(m1, [0.1], zeros, range(1, 4), tol=tol))
    for call in calls:
        with pytest.raises(InvalidTolerance):
            call()
