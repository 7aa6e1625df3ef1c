"""Cookie-cutter systems: validation, coding, cylinders, Birkhoff sums."""

import math

import numpy as np
import pytest

import wtf_lab as wl
from wtf_lab import dynamics
from wtf_lab import (
    BudgetExceeded,
    HyperbolicityViolated,
    InversionFailed,
    LambdaOutOfRange,
    NotBranchConstant,
    NotInPartition,
    NotOnto,
    OverlappingBranches,
    ThetaSequence,
)
from wtf_lab.dynamics import (
    _check_budget,
    _invert_increasing,
    _orbit,
    _walk,
    birkhoff_sums_from_digits,
    cylinder_bounds_many,
    enumerate_words,
    point_of_word,
)
from wtf_lab.graph import _oscillations, _probe_bases
from wtf_lab.theta import counter_uniforms


class TestValidation:
    def test_m1_margin_exact(self, m1):
        # doubling map with constant lambda: inf |tau'| lambda = 2 * 0.7
        assert m1.hyperbolicity_margin == pytest.approx(1.4, abs=1e-12)
        assert m1.margin_slack == 0.0

    def test_hyperbolicity_violated(self):
        with pytest.raises(HyperbolicityViolated):
            wl.validate_system(wl.model_spec("M2_low_lambda"))

    def test_overlapping_branches(self):
        spec = {
            "branches": [
                {"domain": [0.0, 0.6]},
                {"domain": [0.5, 1.0]},
            ],
            "lambda": 0.7,
        }
        with pytest.raises(OverlappingBranches):
            wl.validate_system(spec)

    def test_not_onto(self):
        spec = {
            "branches": [
                {"domain": [0.0, 0.5], "slope": 1.5, "offset": 0.0},
                {"domain": [0.5, 1.0], "slope": 2.0, "offset": -1.0},
            ],
            "lambda": 0.9,
        }
        with pytest.raises(NotOnto):
            wl.validate_system(spec)

    def test_lambda_out_of_range(self):
        spec = {"branches": {"family": "ell_adic", "ell": 2}, "lambda": 1.2}
        with pytest.raises(LambdaOutOfRange):
            wl.validate_system(spec)

    def test_mixed_orientation_warns(self):
        spec = {
            "branches": [
                {"domain": [0.0, 0.5], "slope": -2.0, "offset": 1.0},
                {"domain": [0.5, 1.0], "slope": 2.0, "offset": -1.0},
            ],
            "lambda": 0.7,
        }
        system = wl.validate_system(spec)
        assert any("orientation" in w for w in system.warnings)

    def test_branches_sorted_and_reindexed(self):
        spec = {
            "branches": [{"domain": [0.65, 1.0]}, {"domain": [0.0, 0.35]}],
            "lambda": 0.45,
        }
        system = wl.validate_system(spec)
        assert [b.lo for b in system.branches] == [0.0, 0.65]
        assert [b.index for b in system.branches] == [0, 1]

    def test_m5_margin(self, m5):
        # (2 - 0.1 pi) * 0.7
        expected = (2.0 - 0.1 * math.pi) * 0.7
        assert m5.hyperbolicity_margin == pytest.approx(expected, abs=1e-3)
        assert m5.branches[0].hi == pytest.approx(0.5, abs=1e-12)


def _searchsorted_branch_index(sys, x):
    """Reference kappa(x): binary search over the branch lows, clipped."""
    x = np.asarray(x, dtype=float)
    idx = np.clip(np.searchsorted(sys.branch_lows, x, side="right") - 1, 0, sys.ell - 1)
    inside = (x >= sys.branch_lows[idx]) & (x < sys.branch_highs[idx])
    return np.where(inside, idx, -1)


def _masked_tau(sys, x):
    """Reference tau: gather the points of each branch, map them, scatter
    them back, then np.mod(out, 1.0)."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    idx = _searchsorted_branch_index(sys, x)
    for i, br in enumerate(sys.branches):
        m = idx == i
        if np.any(m):
            out[m] = br.forward(x[m])
    return np.mod(out, 1.0)


def _tau_systems(systems):
    extra = {
        "ell_adic_3": {"branches": {"family": "ell_adic", "ell": 3}, "lambda": 0.5},
        "mixed_orientation": {
            "branches": [
                {"domain": [0.0, 0.5], "slope": -2.0, "offset": 1.0},
                {"domain": [0.5, 1.0], "slope": 2.0, "offset": -1.0},
            ],
            "lambda": 0.7,
        },
    }
    return {**systems, **{k: wl.validate_system(v) for k, v in extra.items()}}


def _tau_inputs(sys):
    edges = np.concatenate([sys.branch_lows, sys.branch_highs])
    return np.concatenate([
        np.arange(2**12) / 2**12,
        np.random.default_rng(5).random(4096),
        _walk(sys, [0.5], 6),
        edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf),
        [-0.0, 1.0, -0.25, 1.5, np.nan, np.inf, -np.inf, 1e308, -1e308],
    ])


def _same_bits(a, b):
    return (type(a) is type(b) and np.shape(a) == np.shape(b)
            and np.asarray(a).dtype == np.asarray(b).dtype
            and np.asarray(a).tobytes() == np.asarray(b).tobytes())


class TestApplyTau:
    @pytest.mark.filterwarnings("error")
    def test_bits_match_masked_reference(self, systems):
        for name, sys in _tau_systems(systems).items():
            x = _tau_inputs(sys)
            assert _same_bits(sys.branch_index(x), _searchsorted_branch_index(sys, x)), name
            assert _same_bits(sys.tau(x), _masked_tau(sys, x)), name
            for x0 in (0.3, -0.0, 1.0, np.nan, float(sys.branch_highs[0])):
                for arg in (np.float64(x0), np.array(x0)):
                    assert _same_bits(sys.branch_index(arg), _searchsorted_branch_index(sys, arg))
                    assert _same_bits(sys.tau(arg), _masked_tau(sys, arg)), (name, x0)

    def test_examples(self, m1, m2):
        assert float(m1.tau(0.3)) == pytest.approx(0.6, abs=1e-12)
        assert float(m2.tau(0.5)) == 0.0  # gap points map to 0
        assert float(m1.tau(0.75)) == pytest.approx(0.5, abs=1e-12)


def _copyto_tau(sys, x):
    """The per-branch tau: every branch's forward map on the whole array,
    each point keeping its own branch's value by a masked copyto."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    idx = sys.branch_index(x)
    with np.errstate(over="ignore", invalid="ignore"):
        for i, br in enumerate(sys.branches):
            np.copyto(out, br.forward(x), where=idx == i)
    return out - np.floor(out)


def _filled_trig(poly, x):
    """TrigPoly term by term: fill with c0, then add a_k cos and b_k sin."""
    x = np.asarray(x, dtype=float)
    out = np.full_like(x, poly.c0)
    for k, a, b in poly.harmonics:
        w = 2.0 * math.pi * k * x
        if a:
            out = out + a * np.cos(w)
        if b:
            out = out + b * np.sin(w)
    return out


class TestOneEvaluationPerPoint:
    POLYS = (dynamics.COS_2PI, dynamics.TrigPoly(), dynamics.TrigPoly(0.75, ((1, 0.1, 0.0),)),
             dynamics.TrigPoly(0.0, ((1, 0.0, -1.0), (3, 1.0, 0.0))),
             dynamics.TrigPoly(-0.0, ((2, 1.0, 0.5), (1, 1.0, -0.25))),
             dynamics.TrigPoly(0.0, ((1, -0.58, 0.0), (2, 1.0, 0.0))))

    def _inputs(self, sys):
        edges = np.concatenate([sys.branch_lows, sys.branch_highs])
        gaps = [0.5 * (hi + lo) for hi, lo in zip(sys.branch_highs[:-1], sys.branch_lows[1:])]
        return np.concatenate([
            np.random.default_rng(17).random(2**16),
            edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf),
            gaps, [0.0, -0.0, 1.0, -0.25, 1.5, np.nan, np.inf, -np.inf],
        ])

    def test_tau_matches_copyto_formula(self, systems):
        # affine systems gather slope and offset by branch index, the sine
        # family subtracts the index from one ell x + eps sin 2 pi x
        for name, sys in _tau_systems(systems).items():
            x = self._inputs(sys)
            assert _same_bits(sys.tau(x), _copyto_tau(sys, x)), name
            for x0 in (0.3, -0.0, 1.0, np.nan, float(sys.branch_highs[0])):
                for arg in (np.float64(x0), np.array(x0)):
                    assert _same_bits(sys.tau(arg), _copyto_tau(sys, arg)), (name, x0)

    def test_trig_poly_matches_filled_sum(self, systems):
        # cos 2 pi x is one cos; other polynomials add their terms as before
        x = np.concatenate([self._inputs(sys) for sys in systems.values()])
        with np.errstate(invalid="ignore"):
            for poly in self.POLYS:
                assert _same_bits(poly(x), _filled_trig(poly, x)), poly
                for arg in (np.float64(0.3), np.array(-0.0), 0.25):
                    assert _same_bits(poly(arg), _filled_trig(poly, arg)), (poly, arg)


def _reference_orbit(sys, x, n):
    """One point, one step at a time: digits, orbit points (0 from the exit
    on) and the iterate at which the orbit leaves the partition."""
    digits, points, cur = np.zeros(n, dtype=np.uint8), np.zeros(n), float(x)
    for k in range(n):
        idx = int(sys.branch_index(np.array([cur]))[0])
        if idx < 0:
            return digits, points, k
        digits[k], points[k] = idx, cur
        if k + 1 < n:
            cur = float(sys.tau(np.array([cur]))[0])
    return digits, points, n


def _mp_inverse(sys, digits, t):
    """rho_{w_1} o ... o rho_{w_n}(t) on M5 at 40 digits: mpmath Newton on
    ell x + eps sin(2 pi x) = digit + u, innermost digit first."""
    mpmath = pytest.importorskip("mpmath")
    br = sys.branches[0]
    with mpmath.workdps(40):
        ell, eps, u = mpmath.mpf(br.ell), mpmath.mpf(br.eps), mpmath.mpf(float(t))
        for d in digits[::-1]:
            rhs = int(d) + u
            u = mpmath.findroot(lambda x: ell * x + eps * mpmath.sin(2 * mpmath.pi * x) - rhs,
                                rhs / ell)
        return u


class TestNewtonInverse:
    def test_batch_independent(self, m5, zeros):
        # every M5 value has the same bits alone and in any batch: duplicated
        # targets, unsorted input and 0-d targets
        rng = np.random.default_rng(41)
        y = rng.random(80)
        y = np.concatenate([y, y[rng.integers(0, y.size, 30)], [0.0, 1.0]])
        for br in m5.branches:
            batch = br.inverse(y)
            assert batch.tobytes() == np.array([br.inverse(v) for v in y.tolist()]).tobytes()
            assert np.ndim(br.inverse(np.float64(y[0]))) == 0
        words = rng.integers(0, 2, size=(40, 30)).astype(np.uint8)
        words = np.concatenate([words, words[::-3]])
        alone = [point_of_word(m5, w[None, :], 0.3) for w in words]
        assert point_of_word(m5, words, 0.3).tobytes() == np.concatenate(alone).tobytes()
        lo, hi = cylinder_bounds_many(m5, words)
        bounds = [cylinder_bounds_many(m5, w[None, :]) for w in words]
        assert lo.tolist() == [float(b[0][0]) for b in bounds]
        assert hi.tolist() == [float(b[1][0]) for b in bounds]
        base = _probe_bases(m5, [8], zeros, 16, 1e-10)[0]
        osc = _oscillations(m5, words[:12, :8], zeros, 16, base)
        assert osc.tolist() == [float(_oscillations(m5, w[None, :8], zeros, 16, base)[0])
                                for w in words[:12]]

    def test_matches_mpmath(self, m5):
        # 40-digit references: single inverses at sampled targets and depth-30
        # compositions agree to a few units in the last place
        rng = np.random.default_rng(47)
        y = rng.random(20)
        for br in m5.branches:
            x = br.inverse(y)
            ref = np.array([float(_mp_inverse(m5, [br.index], v)) for v in y])
            assert np.all(np.abs(x - ref) <= 4 * np.spacing(ref))
        words = rng.integers(0, 2, size=(12, 30)).astype(np.uint8)
        x = point_of_word(m5, words, 0.5)
        ref = np.array([float(_mp_inverse(m5, w, 0.5)) for w in words])
        assert np.all(np.abs(x - ref) <= 4 * np.spacing(ref))

    def test_image_ends(self, m5):
        # targets at and past f(lo) and f(hi) give the bracket end itself;
        # the branch holds those ends bit for bit
        for br in m5.branches:
            f, fp = br._f, br.derivative
            f_lo, f_hi = float(f(br.lo)), float(f(br.hi))
            assert br._image == (f_lo, f_hi)
            t = np.array([f_lo, f_lo - 0.25, f_hi, f_hi + 0.25, np.nextafter(f_lo, -1.0)])
            assert _invert_increasing(f, fp, t, br.lo, br.hi, f_lo, f_hi).tolist() == [br.lo] * 2 + [br.hi] * 2 + [br.lo]
            assert br.inverse(np.array([0.0, 1.0])).tolist() == [br.lo, br.hi]
        assert m5.branches[0].hi == 0.5  # the cut point of 2x + 0.05 sin(2 pi x)

    def test_non_finite_target_refused(self, m5):
        # NaN and +-inf targets raise before any Newton step
        br = m5.branches[1]
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(InversionFailed):
                _invert_increasing(br._f, br.derivative, np.array([1.5, bad, 1.25]), br.lo, br.hi,
                                   *br._image)
            with pytest.raises(InversionFailed):
                _invert_increasing(br._f, br.derivative, np.float64(bad), br.lo, br.hi, *br._image)
        with pytest.raises(InversionFailed):
            point_of_word(m5, np.array([[0, 1, 1]], dtype=np.uint8), np.nan)

    def test_max_iter_exhausted(self, m5, monkeypatch):
        br = m5.branches[0]
        t = np.array([0.2, 0.7])
        for name, value in (("_INVERT_MAX_ITER", 1), ("_INVERT_TOL", 0.0)):
            with monkeypatch.context() as patch:
                patch.setattr(dynamics, name, value)
                with pytest.raises(InversionFailed):
                    _invert_increasing(br._f, br.derivative, t, br.lo, br.hi, *br._image)


def _fallback_spy(monkeypatch):
    """Wrap dynamics._invert_increasing; the returned list collects every
    target array it is handed."""
    seen = []
    solve = dynamics._invert_increasing

    def spy(f, fprime, target, *rest):
        seen.append(np.array(target, dtype=float).ravel())
        return solve(f, fprime, target, *rest)

    monkeypatch.setattr(dynamics, "_invert_increasing", spy)
    return seen


class TestSeededInverse:
    def test_ends_and_cut_match_mpmath(self, m5):
        # roots next to either end of each branch and next to the cut point
        # 1/2, down to 1e-15, within 2 ulp of a 40-digit root
        pytest.importorskip("mpmath")
        tiny = [10.0**-k for k in range(1, 16)]
        cut = [0.5 - 1e-6, 0.5 + 1e-6]
        for br, ys in ((m5.branches[0], tiny + cut), (m5.branches[1], [1 - v for v in tiny] + cut)):
            x = br.inverse(np.array(ys))
            ref = np.array([float(_mp_inverse(m5, [br.index], v)) for v in ys])
            assert np.all(np.abs(x - ref) <= 2 * np.spacing(ref))
        x = point_of_word(m5, np.zeros((1, 30), dtype=np.uint8), 1.0)[0]
        ref = float(_mp_inverse(m5, [0] * 30, 1.0))
        assert 0.0 < ref < 1e-8 and abs(x - ref) <= 2 * np.spacing(ref)

    def test_fallback_bits(self, m5, monkeypatch):
        # without a seed, or with one whose Newton step every element fails,
        # each root is _invert_increasing's bit for bit
        y = np.concatenate([np.random.default_rng(59).random(60), [0.0, 1.0, 1e-12]])
        for br in m5.branches:
            want = _invert_increasing(br._f, br.derivative, y + br.index, br.lo, br.hi, *br._image)
            center, scale, coefficients, bound = dynamics._inverse_seed(br)
            for seed in (None, (center, scale, (coefficients[0] + 1e-3,) + coefficients[1:], bound)):
                with monkeypatch.context() as patch:
                    patch.setattr(dynamics, "_inverse_seed", lambda branch, seed=seed: seed)
                    assert br.inverse(y).tobytes() == want.tobytes()

    def test_mixed_batch_independent(self, m5, monkeypatch):
        # end targets never reach the fallback, and a seed off by 1e-7 u
        # passes the accept test only near u = 0: batches that mix end,
        # accepted and fallback elements give every element its bits alone
        br = m5.branches[0]
        f_lo, f_hi = br._image
        y = np.concatenate([np.random.default_rng(61).random(60), [0.0, 1.0, 0.5, 0.5 + 1e-9]])
        center, scale, coefficients, bound = dynamics._inverse_seed(br)
        off = (center, scale, (coefficients[0], coefficients[1] + 1e-7) + coefficients[2:], bound)
        seen = _fallback_spy(monkeypatch)
        for seed, calls in ((dynamics._inverse_seed(br), 0), (off, 1)):
            monkeypatch.setattr(dynamics, "_inverse_seed", lambda branch, seed=seed: seed)
            seen.clear()
            batch = br.inverse(y)
            assert len(seen) == calls
            for targets in seen:
                assert 1 <= targets.size < y.size - 2
                assert f_lo < targets.min() and targets.max() < f_hi
            assert batch.tobytes() == np.array([br.inverse(v) for v in y.tolist()]).tobytes()

    def test_bounds_reach_no_fallback(self, m5, monkeypatch):
        # cylinder_bounds_many composes 0.0 and 1.0, which hit the image ends:
        # inverse writes those itself, with the bits the fallback gives them
        words = np.random.default_rng(71).integers(0, 2, size=(256, 20)).astype(np.uint8)
        words[:8, -6:] = 0  # runs of end targets
        words[8:16, -6:] = 1
        seen = _fallback_spy(monkeypatch)
        lo, hi = cylinder_bounds_many(m5, words)
        assert not seen
        monkeypatch.undo()
        for br in m5.branches:
            f_lo, f_hi = br._image
            t = np.array([f_lo, f_hi, np.nextafter(f_lo, -2.0), np.nextafter(f_hi, 3.0), f_lo - 0.5])
            want = _invert_increasing(br._f, br.derivative, t, br.lo, br.hi, f_lo, f_hi)
            assert br.inverse(t - br.index).tobytes() == want.tobytes()
        bounds = [wl.cylinder_of(m5, w) for w in words[:32]]
        assert lo[:32].tolist() == [b[0] for b in bounds] and hi[:32].tolist() == [b[1] for b in bounds]

    def test_degree_and_seed_error(self, m5):
        # the kept degree is at most 64, and its seed is within 1e-9 of the
        # inverse off the check grid too
        u = np.random.default_rng(67).uniform(-1.0, 1.0, 2000)
        for br in m5.branches:
            center, scale, coefficients, _ = dynamics._inverse_seed(br)
            assert len(coefficients) - 1 <= 64
            t = center + u / scale
            want = _invert_increasing(br._f, br.derivative, t, br.lo, br.hi, *br._image)
            assert np.abs(dynamics._clenshaw(coefficients, u) - want).max() <= 1e-9


class TestOrbitWalk:
    def test_matches_scalar_walk(self, systems):
        for name, sys in systems.items():
            words = np.random.default_rng(47).integers(0, sys.ell, size=(20, 30)).astype(np.uint8)
            xs = np.concatenate([point_of_word(sys, words, 0.5),
                                 np.random.default_rng(53).random(20),
                                 sys.branch_lows, sys.branch_highs, [0.0, 0.5, np.nan]])
            digits, points, left = _orbit(sys, xs, 30)
            assert digits.dtype == np.uint8 and digits.shape == points.shape == (xs.size, 30)
            for j, x in enumerate(xs.tolist()):
                d, p, k = _reference_orbit(sys, x, 30)
                assert digits[j].tobytes() == d.tobytes(), (name, j)
                assert points[j].tobytes() == p.tobytes(), (name, j)
                assert left[j] == k, (name, j)


class TestCoding:
    def test_examples(self, m1, m2):
        assert wl.code_of(m1, 0.3, 2).tolist() == [0, 1]
        assert wl.code_of(m1, 0.75, 3).tolist() == [1, 1, 0]
        assert wl.code_of(m1, 0.75, 3).dtype == np.uint8
        with pytest.raises(NotInPartition) as err:
            wl.code_of(m2, 0.5, 1)
        assert err.value.iterate == 0

    def test_gap_iterate_index(self, m2):
        # 0.65 -> 0 -> 0 stays coded; a point mapping into the gap reports k
        x = 0.35 * 0.5  # tau(x) = 0.5, the central gap
        with pytest.raises(NotInPartition) as err:
            wl.code_of(m2, x, 2)
        assert err.value.iterate == 1

    def test_cylinder_examples(self, m1, m2):
        assert wl.cylinder_of(m1, (0, 1)) == pytest.approx((0.25, 0.5), abs=1e-12)
        assert wl.cylinder_of(m2, (1,)) == pytest.approx((0.65, 1.0), abs=1e-12)
        assert wl.cylinder_of(m2, (1, 0)) == pytest.approx((0.65, 0.7725), abs=1e-12)

    @pytest.mark.parametrize("word", [(), [[0, 1]], (0, 2), (0, -1), (0.0, 1.0), "01"],
                             ids=["empty", "2d", "too_large", "negative", "float", "text"])
    def test_malformed_word_refused(self, m1, word):
        with pytest.raises(ValueError):
            wl.cylinder_of(m1, word)
        with pytest.raises(ValueError):
            wl.oscillation_over(m1, word, ThetaSequence.zeros())

    def test_cylinder_nesting(self, systems):
        # analytic branches are inverted to 1e-12 per level, so nesting holds
        # up to a few units of that tolerance on composed endpoints
        rng = np.random.default_rng(7)
        for sys in systems.values():
            for _ in range(20):
                n = int(rng.integers(1, 10))
                word = tuple(int(d) for d in rng.integers(0, sys.ell, n))
                p_lo, p_hi = wl.cylinder_of(sys, word)
                for d in range(sys.ell):
                    c_lo, c_hi = wl.cylinder_of(sys, word + (d,))
                    assert c_lo >= p_lo - 5e-12
                    assert c_hi <= p_hi + 5e-12

    def test_coding_cylinder_consistency(self, systems):
        rng = np.random.default_rng(11)
        for sys in systems.values():
            words = rng.integers(0, sys.ell, size=(25, 20)).astype(np.uint8)
            xs = point_of_word(sys, words, 0.5)
            for x in xs:
                for n in (1, 5, 12, 20):
                    lo, hi = wl.cylinder_of(sys, wl.code_of(sys, float(x), n))
                    assert lo - 1e-12 <= x <= hi + 1e-12

    def test_affine_cylinder_lengths_exact(self, m3):
        # |I_w| = product of branch contraction ratios for affine systems
        ratios = {0: 0.3, 1: 0.45}
        rng = np.random.default_rng(3)
        for _ in range(30):
            n = int(rng.integers(1, 16))
            word = tuple(int(d) for d in rng.integers(0, 2, n))
            lo, hi = wl.cylinder_of(m3, word)
            expected = math.prod(ratios[d] for d in word)
            assert hi - lo == pytest.approx(expected, abs=1e-12)

    def test_bounded_geometry(self, systems):
        for sys in systems.values():
            rng = np.random.default_rng(13)
            words = rng.integers(0, sys.ell, size=(64, 21)).astype(np.uint8)
            prev_len = None
            for n in range(1, 22):
                lo, hi = cylinder_bounds_many(sys, words[:, :n])
                lens = hi - lo
                if prev_len is not None:
                    ratio = lens / prev_len
                    assert ratio.min() > 0.05
                    assert ratio.max() < 1.0
                prev_len = lens

    def test_bounds_many_match_cylinder_of(self, systems):
        # reference: the scalar endpoint loop, one inverse call per endpoint
        # and digit; every inverse is elementwise, so the batch matches it
        # bit for bit on every model
        def scalar_bounds(sys, word):
            lo, hi = 0.0, 1.0
            for d in word[::-1]:
                a = float(sys.branches[d].inverse(lo))
                b = float(sys.branches[d].inverse(hi))
                lo, hi = (a, b) if a <= b else (b, a)
            return lo, hi

        for name, sys in systems.items():
            rng = np.random.default_rng(17)
            words = rng.integers(0, sys.ell, size=(200, 25)).astype(np.uint8)
            lo, hi = cylinder_bounds_many(sys, words)
            ref = np.array([scalar_bounds(sys, w) for w in words])
            assert [wl.cylinder_of(sys, w) for w in words] == [tuple(r) for r in ref]
            assert np.array_equal(lo, ref[:, 0]) and np.array_equal(hi, ref[:, 1]), name

    def test_deep_m5_cylinder_refused(self, m5):
        # the depth-40 cylinder of 0^40 is shorter than 4e-12, four times
        # the Newton step tolerance
        word = np.zeros(40, dtype=np.uint8)
        with pytest.raises(InversionFailed):
            wl.cylinder_of(m5, word)
        with pytest.raises(InversionFailed):
            cylinder_bounds_many(m5, word[None, :])
        lo, hi = wl.cylinder_of(m5, word[:30])
        assert hi - lo > 4e-12


M5_TRIG_LAMBDA = {**wl.model_spec("M5"), "id": "M5_trig_lambda",
                  "lambda": {"kind": "trig", "c0": 0.75, "harmonics": [[1, 0.1, 0.0]]}}


def _walk_systems(systems):
    return {**_tau_systems(systems), "M5_trig_lambda": wl.validate_system(M5_TRIG_LAMBDA)}


def _reference_tree(sys, depth):
    """Level ``depth`` of the cylinder tree, one inverse branch at a time,
    each branch's log-derivative taken from that branch."""
    x, u, v = np.array([0.5]), np.zeros(1), np.zeros(1)
    for _ in range(depth):
        xs = [br.inverse(x) for br in sys.branches]
        u = np.concatenate([np.log(np.abs(br.derivative(xi))) + u for br, xi in zip(sys.branches, xs)])
        v = np.concatenate([sys.log_lam(xi) + v for xi in xs])
        x = np.concatenate(xs)
    return x, u, v


class TestSampling:
    def test_midpoints_depth1(self, m1):
        assert _walk(m1, [0.5], 1).tolist() == [0.25, 0.75]

    def test_containment(self, systems):
        for sys in systems.values():
            for depth, x in ((2, [0.5]), (8, counter_uniforms(3, range(3)))):
                xs = _walk(sys, x, depth).reshape(-1, len(x))
                lo, hi = cylinder_bounds_many(sys, enumerate_words(sys.ell, depth))
                assert np.all((lo[:, None] - 1e-12 <= xs) & (xs <= hi[:, None] + 1e-12))

    def test_multi_start_order(self, m3, m5):
        # index i * len(x) + j holds word i (lexicographic) at start value j
        x = counter_uniforms(7, range(5))
        words = enumerate_words(2, 3)
        for sys in (m3, m5):
            walked = _walk(sys, x, 3)
            for i in range(len(words)):
                for j in range(len(x)):
                    assert walked[i * len(x) + j] == point_of_word(sys, words[i:i + 1], x[j])[0]

    def test_budget(self, m1, monkeypatch):
        monkeypatch.setenv("WTF_LAB_BUDGET", "100")
        assert len(m1.tree(6)[0]) == 64
        with pytest.raises(BudgetExceeded):
            m1.tree(7)
        with pytest.raises(BudgetExceeded):
            _check_budget(101)

    @pytest.mark.parametrize("depth", [1, 5, 9])
    def test_level_order_matches_point_of_word(self, systems, depth):
        # tree and _walk invert level by level, point_of_word composes the
        # enumerated digit matrix: the same bits on every model, and tree's
        # sums are the per-branch reference's
        for name, sys in _walk_systems(systems).items():
            words = enumerate_words(sys.ell, depth)
            level = sys.tree(depth)
            for got, ref in zip(level, _reference_tree(sys, depth)):
                assert _same_bits(got, ref), name
            assert _same_bits(level[0], point_of_word(sys, words, 0.5)), name
            ts = np.array([0.125, 0.5, 0.9])
            walked = _walk(sys, ts, depth)
            for j, t in enumerate(ts):
                assert _same_bits(walked[j::len(ts)], point_of_word(sys, words, t)), (name, t)


class TestBirkhoff:
    def test_constant_lambda(self, m1):
        value = wl.birkhoff_sum(m1, "log_lambda", 0.1, 10)
        assert value == pytest.approx(10 * math.log(0.7), abs=1e-12)

    def test_m3_two_digits(self, m3):
        x = wl.cylinder_of(m3, (0, 1))[0] + 1e-6
        value = wl.birkhoff_sum(m3, "log_abs_tau_prime", x, 2)
        assert value == pytest.approx(math.log(1 / 0.3) + math.log(1 / 0.45), abs=1e-12)

    def test_m5_fixed_point(self, m5):
        value = wl.birkhoff_sum(m5, "log_abs_tau_prime", 0.0, 3)
        assert value == pytest.approx(3 * math.log(2 + 0.1 * math.pi), abs=1e-10)

    def test_log_abs_tau_prime_keeps_shape(self, m5):
        # a scalar gives a scalar; it ended in an IndexError
        assert m5.log_abs_tau_prime(0.0) == math.log(2 + 0.1 * math.pi)
        xs = np.array([[0.0, 0.25], [0.5, 0.75]])
        assert m5.log_abs_tau_prime(xs).tolist() == [m5.log_abs_tau_prime(x).tolist() for x in xs]

    def test_gap_propagates(self, m2):
        with pytest.raises(NotInPartition):
            wl.birkhoff_sum(m2, "log_lambda", 0.5, 1)

    def test_digit_sums_need_branch_constant(self, m5):
        with pytest.raises(NotBranchConstant):
            birkhoff_sums_from_digits(m5, np.zeros((2, 3), dtype=np.uint8))
        with pytest.raises(NotBranchConstant):
            wl.empirical_spectrum(m5, [0.0], 10, 5, 1)


class TestTheta:
    def test_zeros(self):
        th = ThetaSequence.zeros()
        assert th[5] == 0.0
        assert th.shift(3)[0] == 0.0

    def test_reproducible(self):
        a = ThetaSequence.iid_uniform(42)
        b = ThetaSequence.iid_uniform(42)
        assert np.array_equal(a.block(0, 100), b.block(0, 100))
        assert not np.array_equal(a.block(0, 100), ThetaSequence.iid_uniform(43).block(0, 100))

    def test_shift_identity(self):
        th = ThetaSequence.iid_uniform(9)
        shifted = th.shift(4)
        for n in range(10):
            assert shifted[n] == th[n + 4]
        assert np.array_equal(th.shift(2).shift(3).block(0, 5), th.block(5, 5))

    def test_values_in_unit_interval(self):
        block = ThetaSequence.iid_uniform(1).block(0, 10_000)
        assert block.min() >= 0.0 and block.max() < 1.0
        # crude uniformity check on a deterministic stream
        assert abs(block.mean() - 0.5) < 0.01


@pytest.mark.parametrize("rows", [None, 1, 256, 513])
def test_blocked_birkhoff_sums_match_direct(m3, rows):
    # row blocks reduce each row as the one-shot gather did, bit for bit
    rng = np.random.default_rng(31)
    d = rng.integers(0, 2, 40 if rows is None else (rows, 40)).astype(np.uint8)
    log_tp = np.log(np.abs(np.array([b.slope for b in m3.branches])))
    log_lm = np.log(m3.lam.branch_values(m3.ell))
    u, v = birkhoff_sums_from_digits(m3, d)
    assert np.asarray(u).tobytes() == log_tp[d].sum(-1).tobytes()
    assert np.asarray(v).tobytes() == log_lm[d].sum(-1).tobytes()
