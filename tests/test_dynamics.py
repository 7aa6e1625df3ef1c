"""Cookie-cutter systems: validation, coding, cylinders, Birkhoff sums."""

import math
import warnings
from fractions import Fraction

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
    _birkhoff_sums_from_counts,
    _check_budget,
    _compose,
    _invert_increasing,
    _orbit,
    _walk,
    birkhoff_sums_along,
    cylinder_bounds_many,
    enumerate_words,
    point_of_word,
)
from wtf_lab.graph import (
    _oscillations,
    _probe_depth,
    _probes,
    _pull_back,
    _skew_step,
    eval_W_many,
)
from wtf_lab.theta import counter_uniforms
from wtf_lab.thermo import _nodes


def _cylinder(sys, word):
    """(lo, hi) of one word: a one-row cylinder_bounds_many call."""
    lo, hi = cylinder_bounds_many(sys, np.array([word], dtype=np.uint8))
    return float(lo[0]), float(hi[0])


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

    def test_constant_lambda_forms_agree(self):
        # a number, {"kind": "constant"} and equal branch_constant weights are
        # one table of ell equal values, with the same lam_at bits on grid,
        # gap and scalar points; a list of the wrong length is refused
        geometry = wl.model_spec("M2")["branches"]
        forms = [0.45, {"kind": "constant", "value": 0.45},
                 {"kind": "branch_constant", "values": [0.45, 0.45]}]
        systems = [wl.validate_system({"branches": geometry, "lambda": f}) for f in forms]
        points = (np.linspace(0.0, 1.0, 1001), np.array([0.4, 0.5, 0.6]), 0.3, 0.5)
        for sys in systems:
            assert sys.lam == (0.45, 0.45) and sys.branch_constant
            for x in points:
                got, ref = sys.lam_at(x), np.full_like(np.asarray(x, dtype=float), 0.45)
                assert np.shape(got) == np.shape(ref) and got.tobytes() == ref.tobytes()
        with pytest.raises(wl.BadConfig, match="one value per branch"):
            wl.validate_system({"branches": geometry,
                                "lambda": {"kind": "branch_constant", "values": [0.45] * 3}})

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
        [(osc, length)] = _oscillations(m5, [words[:12, :8]], zeros, 16, 1e-10)
        alone = [next(_oscillations(m5, [w[None, :8]], zeros, 16, 1e-10)) for w in words[:12]]
        assert osc.tolist() == [float(a[0][0]) for a in alone]
        assert length.tolist() == [float(a[1][0]) for a in alone]

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
        bounds = [_cylinder(m5, w) for w in words[:32]]
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


S5 = {"branches": {"family": "doubling_plus_sine", "ell": 5, "eps": 0.6047887837492023},
      "lambda": {"kind": "trig", "c0": 0.9, "harmonics": [[1, 0.02, 0.0]]}}


def _reference_clenshaw(coefficients, u):
    """_clenshaw in its allocating form: new arrays at every step."""
    u2 = u + u
    b1, b2 = np.full_like(u, coefficients[-1]), np.zeros_like(u)
    for c in coefficients[-2:0:-1]:
        b1, b2 = u2 * b1 - b2 + c, b1
    return u * b1 - b2 + coefficients[0]


def _reference_inverse(br, y):
    """SineFamilyBranch.inverse before the in-place kernel: the interior
    targets masked and gathered, one Newton step on them, the accepted roots
    scattered back and the rest of the interior gathered for the fallback."""
    y = np.asarray(y, dtype=float)
    target = y + float(br.index)
    if not np.isfinite(target).all():
        raise InversionFailed("inverse branch target is not finite")
    f_lo, f_hi = br._image
    t = target.ravel()
    x = np.where(t <= f_lo, br.lo, br.hi)
    rest = (t > f_lo) & (t < f_hi)
    seed = dynamics._inverse_seed(br)
    if seed is not None:
        center, scale, coefficients, bound = seed
        live = np.flatnonzero(rest)
        x0 = _reference_clenshaw(coefficients, (t[live] - center) * scale)
        residual = (br.ell * x0 - br.index - y.ravel()[live]
                    + br.eps * np.sin(2.0 * math.pi * x0))
        s = residual / br.derivative(x0)
        xl = x0 - s
        ok = bound * (s * s) <= 2.0**-54 * np.abs(xl)
        kept = live[ok]
        x[kept] = xl[ok]
        rest[kept] = False
    if rest.any():
        x[rest] = dynamics._invert_increasing(br._f, br.derivative, t[rest], br.lo, br.hi,
                                              f_lo, f_hi)
    return np.clip(x.reshape(target.shape), br.lo, br.hi)


def _reference_preimages(sys, d, x):
    """_preimages' sine path before the split by digit shape: x copied to
    the broadcast shape, a full-size mask and one gather per branch."""
    x, d = np.asarray(x, dtype=float), np.asarray(d)
    points = np.empty(np.broadcast(d, x).shape)
    np.copyto(points, x)
    mask, out = np.empty(points.shape, dtype=bool), np.empty(points.size)
    for i, br in enumerate(sys.branches):
        np.equal(d, i, out=mask)
        at = mask.ravel().nonzero()[0]
        if at.size:
            out[at] = _reference_inverse(br, points.ravel()[at])
    return out.reshape(points.shape)


def _sine_maps(m5):
    """M5 and two steeper maps, with their seed degrees (None: no seed)."""
    return {"M5": (m5, [16, 16]),
            "steep_sine": (wl.validate_system(STEEP_SINE), [12, 60, 12]),
            "S5": (wl.validate_system(S5), [8, 12, None, 12, 8])}


def _sine_targets(rng):
    """Interior targets, the image ends 0 and 1, their neighbours and
    targets past them, some far enough to overflow a Newton step, as one
    batch."""
    return np.concatenate([rng.random(99), [0.0, 1.0, 0.0, 1.0, 0.5, 1e-300, 5e-324],
                           np.nextafter([0.0, 1.0], [1.0, 0.0]), [-0.25, 1.25, -1e300, 1e300]])


class TestInPlaceInverse:
    # the in-place kernel and the split by digit shape give the bits of the
    # masked reference, with its type, shape and dtype, on every layout

    def test_seed_degrees(self, m5):
        for name, (sys, degrees) in _sine_maps(m5).items():
            seeds = [dynamics._inverse_seed(br) for br in sys.branches]
            assert [None if s is None else len(s[2]) - 1 for s in seeds] == degrees, name

    def test_inverse_matches_reference(self, m5):
        # the step over targets far past the ends overflows, unseen: they are
        # overwritten by the ends
        rng = np.random.default_rng(83)
        y = _sine_targets(rng)
        for name, (sys, _) in _sine_maps(m5).items():
            for br in sys.branches:
                for v in (y, y.reshape(8, 14), y.reshape(14, 8).T, y[:0], y[:0].reshape(0, 3),
                          np.float64(y[5]), np.array(0.0), 1.0, y[99:101].tolist()):
                    with warnings.catch_warnings():
                        warnings.simplefilter("error")
                        got = br.inverse(v)
                    assert _same_bits(got, _reference_inverse(br, v)), (name, br.index, np.shape(v))

    def test_layouts_match_reference(self, m5):
        rng = np.random.default_rng(89)
        for name, (sys, _) in _sine_maps(m5).items():
            ell = sys.ell
            x = _sine_targets(rng)
            starts = np.vstack([rng.random((3, 40)), np.zeros(40), np.ones(40)])
            digits = rng.integers(0, ell, 40).astype(np.uint8)
            cases = [
                (np.arange(ell)[:, None], x),  # a walk level
                (np.arange(ell)[:, None], x[:1]),
                (np.arange(ell)[::-1, None], x),  # the rows in another order
                (digits, starts),  # an (S, count) start matrix
                (digits[:1], starts[:, :1]),  # one column
                (np.zeros(40, dtype=np.uint8), starts),  # every column one digit
                (digits[:0], starts[:, :0]),
                (digits, starts[0]),  # a digit per row
                (rng.integers(0, ell, x.size).astype(np.uint8), x),
                (np.uint8(ell - 1), x),  # one digit for every point
                (np.uint8(1), starts),
                (np.uint8(0), np.float64(0.25)),
                (np.uint8(0), x[:0]),
                (digits.reshape(8, 5)[:, None, :], rng.random((3, 1))),  # digits on two axes
            ]
            for d, v in cases:
                got, want = dynamics._preimages(sys, d, v), _reference_preimages(sys, d, v)
                assert _same_bits(got, want), (name, np.shape(d), np.shape(v))

    def test_rejected_seeds_match_reference(self, m5, monkeypatch):
        # a seed off by 1e-7 u passes the accept test only near u = 0: the
        # fallback sees the interior targets the reference sends it, never an
        # end, and every root keeps its bits
        rng = np.random.default_rng(97)
        y = _sine_targets(rng)
        seen = _fallback_spy(monkeypatch)
        for name, (sys, _) in _sine_maps(m5).items():
            for br in sys.branches:
                seed = dynamics._inverse_seed(br)
                if seed is None:
                    continue
                center, scale, coefficients, bound = seed
                off = (center, scale, (coefficients[0], coefficients[1] + 1e-7) + coefficients[2:],
                       bound)
                with monkeypatch.context() as patch:
                    patch.setattr(dynamics, "_inverse_seed", lambda branch, off=off: off)
                    seen.clear()
                    want = _reference_inverse(br, y)
                    sent = [t.tolist() for t in seen]
                    seen.clear()
                    got = br.inverse(y)
                    assert _same_bits(got, want), (name, br.index)
                    assert [t.tolist() for t in seen] == sent and len(sent) == 1, (name, br.index)
                    f_lo, f_hi = br._image
                    assert f_lo < min(sent[0]) and max(sent[0]) < f_hi
                    d = np.full(40, br.index, dtype=np.uint8)
                    starts = rng.random((3, 40))
                    assert _same_bits(dynamics._preimages(sys, d, starts),
                                      _reference_preimages(sys, d, starts)), (name, br.index)

    def test_non_finite_targets_refused(self, m5):
        for name, (sys, _) in _sine_maps(m5).items():
            for bad in (np.nan, np.inf, -np.inf):
                for br in sys.branches:
                    for v in (np.array([0.5, bad, 0.25]), bad, np.array([[bad]])):
                        with pytest.raises(InversionFailed):
                            br.inverse(v)
                with pytest.raises(InversionFailed):
                    dynamics._preimages(sys, np.arange(sys.ell)[:, None], np.array([0.5, bad]))
                with pytest.raises(InversionFailed):
                    dynamics._preimages(sys, np.zeros(2, dtype=np.uint8), np.array([[0.5, bad]]))


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
        assert _cylinder(m1, (0, 1)) == pytest.approx((0.25, 0.5), abs=1e-12)
        assert _cylinder(m2, (1,)) == pytest.approx((0.65, 1.0), abs=1e-12)
        assert _cylinder(m2, (1, 0)) == pytest.approx((0.65, 0.7725), abs=1e-12)

    @pytest.mark.parametrize("word", [(), [[0, 1]], (0, 2), (0, -1), (0.0, 1.0), "01"],
                             ids=["empty", "2d", "too_large", "negative", "float", "text"])
    def test_malformed_word_refused(self, m1, word):
        with pytest.raises(ValueError):
            dynamics._word(m1, word)
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
                p_lo, p_hi = _cylinder(sys, word)
                for d in range(sys.ell):
                    c_lo, c_hi = _cylinder(sys, word + (d,))
                    assert c_lo >= p_lo - 5e-12
                    assert c_hi <= p_hi + 5e-12

    def test_coding_cylinder_consistency(self, systems):
        rng = np.random.default_rng(11)
        for sys in systems.values():
            words = rng.integers(0, sys.ell, size=(25, 20)).astype(np.uint8)
            xs = point_of_word(sys, words, 0.5)
            for x in xs:
                for n in (1, 5, 12, 20):
                    lo, hi = _cylinder(sys, wl.code_of(sys, float(x), n))
                    assert lo - 1e-12 <= x <= hi + 1e-12

    def test_affine_cylinder_lengths_exact(self, m3):
        # |I_w| = product of branch contraction ratios for affine systems
        ratios = {0: 0.3, 1: 0.45}
        rng = np.random.default_rng(3)
        for _ in range(30):
            n = int(rng.integers(1, 16))
            word = tuple(int(d) for d in rng.integers(0, 2, n))
            lo, hi = _cylinder(m3, word)
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

    def test_bounds_many_match_scalar_loop(self, systems):
        # reference: the scalar endpoint loop, one inverse call per endpoint
        # and digit; every inverse is elementwise, so the batch and one-row
        # calls match it bit for bit on every model
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
            assert [_cylinder(sys, w) for w in words] == [tuple(r) for r in ref]
            assert np.array_equal(lo, ref[:, 0]) and np.array_equal(hi, ref[:, 1]), name

    def test_deep_m5_cylinder_refused(self, m5):
        # the depth-40 cylinder of 0^40 is shorter than 4e-12, four times
        # the Newton step tolerance
        word = np.zeros(40, dtype=np.uint8)
        with pytest.raises(InversionFailed):
            cylinder_bounds_many(m5, word[None, :])
        lo, hi = _cylinder(m5, word[:30])
        assert hi - lo > 4e-12


def _masked_compose(sys, digits, x, step=None, y=None):
    """Reference _compose: one masked inverse call per (column, branch) on
    the rows carrying that digit."""
    count = digits.shape[0]
    x = np.full(count, x, dtype=float)
    for col in range(digits.shape[1] - 1, -1, -1):
        d = digits[:, col]
        nxt = np.empty(count)
        for i, br in enumerate(sys.branches):
            m = d == i
            if np.any(m):
                nxt[m] = br.inverse(x[m])
        x = nxt
        if step is not None:
            y = step(col, x, y)
    return x if step is None else (x, y)


def _hex(values):
    return [float.hex(v) for v in np.asarray(values, dtype=float).tolist()]


def _affine_systems(systems):
    three = {"branches": [{"domain": [0.0, 0.3]}, {"domain": [0.3, 0.6], "slope": -1.0 / 0.3},
                          {"domain": [0.6, 1.0]}],
             "lambda": 0.5}
    return {**{name: systems[name] for name in ("M1", "M2", "M3", "M4")},  # M2 has a gap
            "three_reversing": wl.validate_system(three)}


class TestComposeTables:
    def test_matches_masked_loop(self, systems):
        # the affine gather path gives the per-branch masked loop's bits for a
        # scalar start, one start per row (ends, out of range, non-finite)
        affine = _affine_systems(systems)
        assert [br.orientation for br in affine["three_reversing"].branches] == [1, -1, 1]
        for name, sys in affine.items():
            rng = np.random.default_rng(41)
            words = rng.integers(0, sys.ell, size=(300, 40)).astype(np.uint8)
            per_row = np.concatenate([rng.random(291), [0.0, 1.0, -0.25, 1.5, -0.0,
                                                        np.nan, np.inf, -np.inf, 1e308]])
            for x in (0.0, 0.5, 1.0, per_row):
                got = _compose(sys, words, x)
                assert _hex(got) == _hex(_masked_compose(sys, words, x)), name
            assert _hex(point_of_word(sys, words, 0.5)) == _hex(_masked_compose(sys, words, 0.5))

    def test_empty_matrices(self, systems):
        for sys in _affine_systems(systems).values():
            assert _compose(sys, np.zeros((0, 5), dtype=np.uint8), 0.5).shape == (0,)
            x = np.linspace(0.0, 1.0, 7)
            assert _hex(_compose(sys, np.zeros((7, 0), dtype=np.uint8), x)) == _hex(x)
            assert _hex(_compose(sys, np.zeros((7, 0), dtype=np.uint8), 0.25)) == _hex([0.25] * 7)

    def test_step_order_through_pull_back(self, systems):
        # the hook sees the columns last first with the masked loop's values,
        # and _pull_back's skew-product carry gets the same bits
        theta = ThetaSequence.iid_uniform(8)
        for name, sys in _affine_systems(systems).items():
            rng = np.random.default_rng(43)
            words = rng.integers(0, sys.ell, size=(50, 12)).astype(np.uint8)
            t = rng.random(50)
            seen, ref = [], []
            _compose(sys, words, t, lambda k, u, y: seen.append((k, _hex(u))))
            _masked_compose(sys, words, t, lambda k, u, y: ref.append((k, _hex(u))))
            assert [k for k, _ in seen] == list(range(11, -1, -1))
            assert seen == ref, name
            x, carried = _masked_compose(sys, words, t, _skew_step(sys, theta, 12),
                                         np.full(50, 0.3))
            u, y = _pull_back(sys, words, t, 0.3, theta)
            assert _hex(u) == _hex(x) and _hex(y) == _hex(carried), name

    @pytest.mark.parametrize("digits", [np.array([[0, 5, 1]]), [[0, 5, 1]], np.array([[0, -1]]),
                                        np.array([[0.5, 1.0]]), np.array([0, 1], dtype=np.uint8)],
                             ids=["too_large", "list", "negative", "float", "1d"])
    def test_malformed_digit_matrix_refused(self, m1, m5, digits):
        # a digit past ell - 1 read uninitialised memory and a float digit
        # matrix returned its start value
        for sys in (m1, m5):
            with pytest.raises(ValueError):
                point_of_word(sys, digits)
            with pytest.raises(ValueError):
                cylinder_bounds_many(sys, digits)
            with pytest.raises(ValueError):
                _compose(sys, digits, 0.5)


MIXED_ORIENTATION = {"branches": [{"domain": [0.0, 0.5], "slope": -2.0, "offset": 1.0},
                                  {"domain": [0.5, 1.0], "slope": 2.0, "offset": -1.0}],
                     "lambda": 0.7}
STEEP_SINE = {"branches": {"family": "doubling_plus_sine", "ell": 3, "eps": 0.3}, "lambda": 0.95}


def _kernel_systems(systems):
    return {**{name: systems[name] for name in ("M1", "M3", "M5")},
            "mixed_orientation": wl.validate_system(MIXED_ORIENTATION),
            "steep_sine": wl.validate_system(STEEP_SINE)}


class TestPreimageKernel:
    @pytest.mark.parametrize("count, depth", [(40, 9), (0, 5), (7, 0)])
    def test_start_matrix_matches_repeated_rows(self, systems, count, depth):
        # S start values for every row give the bits of the row-repeated
        # matrix with one start value per row, and the hook sees those values
        for name, sys in _kernel_systems(systems).items():
            rng = np.random.default_rng(47)
            words = rng.integers(0, sys.ell, size=(count, depth)).astype(np.uint8)
            starts = np.vstack([rng.random((3, count)), np.zeros(count), np.ones(count)])
            seen, ref = [], []
            got, _ = _compose(sys, words, starts,
                              lambda k, u, y: seen.append((k, _hex(u.T.ravel()))))
            want, _ = _compose(sys, np.repeat(words, len(starts), axis=0), starts.T.ravel(),
                               lambda k, u, y: ref.append((k, _hex(u))))
            assert got.shape == starts.shape
            assert _hex(got.T.ravel()) == _hex(want), name
            assert seen == ref and len(seen) == depth, name

    def test_walk_levels_match_concatenated_branches(self, systems):
        # a level holds the digits on a new leading axis; raveled, it is the
        # per-branch concatenation of the level before
        for name, sys in _kernel_systems(systems).items():
            x = np.random.default_rng(53).random(5)
            seen, ref, u = [], [], x
            out, _ = _walk(sys, x, 4, lambda k, v, y: seen.append((k, v.shape, _hex(v.ravel()))))
            for k in range(3, -1, -1):
                u = np.concatenate([br.inverse(u) for br in sys.branches])
                ref.append((k, (sys.ell,) * (4 - k) + (5,), _hex(u)))
            assert seen == ref, name
            assert _hex(out) == _hex(u), name

    def test_transfer_nodes_match_branch_inverses(self, systems):
        for name, sys in _kernel_systems(systems).items():
            for n in (16, 32):
                b, u, v = _nodes(sys, n)
                x = 0.5 - 0.5 * np.cos((2 * np.arange(n) + 1) * (math.pi / (2 * n)))
                y = np.stack([br.inverse(x) for br in sys.branches])
                ref_u, ref_v = sys.log_terms(np.arange(sys.ell)[:, None], y)
                assert _hex(u.ravel()) == _hex(ref_u.ravel()), name
                assert _hex(v.ravel()) == _hex(ref_v.ravel()), name

    def test_affine_gather_has_clip_bits(self, systems):
        # in-place maximum then minimum give np.clip's bits on NaN, signed
        # zeros, infinities and targets whose preimage is a branch end
        for name, sys, x in _clip_targets(systems):
            slope, offset = sys._affine_coefficients
            for i in range(sys.ell):
                d = np.full(x.size, i)
                want = np.clip((x - offset.take(d)) / slope.take(d),
                               sys.branch_lows.take(d), sys.branch_highs.take(d))
                assert dynamics._preimages(sys, d, x).tobytes() == want.tobytes(), (name, i)

    def test_affine_inverse_has_kernel_bits(self, systems):
        # AffineBranch.inverse clips as _preimages does, maximum then minimum,
        # so the mixed map's inverse(1.0) is +0.0 in both, not np.clip's -0.0
        for name, sys, x in _clip_targets(systems):
            for br in sys.branches:
                want = dynamics._preimages(sys, np.full(x.size, br.index), x)
                assert br.inverse(x).tobytes() == want.tobytes(), (name, br.index)
        mixed = wl.validate_system(MIXED_ORIENTATION).branches[0]
        assert math.copysign(1.0, mixed.inverse(1.0)) == 1.0


def _clip_targets(systems):
    """(name, system, targets) for each affine system and the mixed map: the
    branch image ends, their float neighbours, NaN, signed zeros,
    infinities and random points."""
    rng = np.random.default_rng(67)
    affine = {**_affine_systems(systems),
              "mixed_orientation": wl.validate_system(MIXED_ORIENTATION)}
    for name, sys in affine.items():
        ends = np.concatenate([br.forward(np.array([br.lo, br.hi])) for br in sys.branches])
        yield name, sys, np.concatenate([ends, np.nextafter(ends, -np.inf),
                                         np.nextafter(ends, np.inf),
                                         [0.0, -0.0, 1.0, -1.0, np.nan, -np.nan, np.inf, -np.inf],
                                         rng.random(40)])


def _suffix_systems(systems):
    return {**{name: systems[name] for name in ("M1", "M2", "M5")},
            "steep_sine": wl.validate_system(STEEP_SINE),
            "mixed_orientation": wl.validate_system(MIXED_ORIENTATION)}


def _per_start(sys, words, starts, step=None, ys=None):
    """Reference for start values every row shares: per start value s, one
    _preimages call per column on one copy of s per row (the plain column
    loop), stacked as (S, count)."""
    us, carried = [], []
    for i, s in enumerate(starts):
        u, y = np.full(len(words), s), None if ys is None else np.full(len(words), ys[i])
        for col in range(words.shape[1] - 1, -1, -1):
            u = dynamics._preimages(sys, words[:, col], u)
            if step is not None:
                y = step(col, u, y)
        us.append(u)
        carried.append(y)
    return np.array(us) if step is None else (np.array(us), np.array(carried))


class TestSuffixRule:
    # three suffix columns: ell^3 - 1 rows walk two, ell^3 and ell^3 + 1 rows
    # walk three; 5-row blocks split every matrix; depth 70 passes the
    # 64-digit cap of point_of_word and the probes
    @pytest.mark.parametrize("extra", [-1, 0, 1])
    def test_compositions_match_per_row_loop(self, systems, monkeypatch, extra):
        monkeypatch.setattr(dynamics, "_EVAL_BLOCK", 5)
        column = np.array([[0.0], [1.0], [0.3]])
        for name, sys in _suffix_systems(systems).items():
            rng = np.random.default_rng(61)
            count = sys.ell**3 + extra
            for depth in (0, 2, 70):
                words = rng.integers(0, sys.ell, size=(count, depth)).astype(np.uint8)
                for t in (0.5, column):
                    want = _per_start(sys, words, np.ravel(t)).ravel()
                    assert _hex(_compose(sys, words, t).ravel()) == _hex(want), (name, depth)
                    want = _per_start(sys, words[:, :64], np.ravel(t)).ravel()
                    assert _hex(point_of_word(sys, words, t).ravel()) == _hex(want), (name, depth)
                ends = _per_start(sys, words, [0.0, 1.0])
                if sys.is_affine or depth < 70:
                    lo, hi = cylinder_bounds_many(sys, words)
                    assert _hex(lo) == _hex(ends.min(axis=0)) and _hex(hi) == _hex(ends.max(axis=0))
                else:
                    with pytest.raises(InversionFailed):
                        cylinder_bounds_many(sys, words)

    @pytest.mark.parametrize("extra", [-1, 0, 1])
    def test_pull_back_and_probes_match_per_row_loop(self, systems, monkeypatch, extra):
        monkeypatch.setattr(dynamics, "_EVAL_BLOCK", 5)
        theta = ThetaSequence.iid_uniform(9)
        for name, sys in _suffix_systems(systems).items():
            rng = np.random.default_rng(71)
            count = sys.ell**3 + extra
            for depth in (0, 2, 70):
                words = rng.integers(0, sys.ell, size=(count, depth)).astype(np.uint8)
                step = _skew_step(sys, theta, depth)
                for t, y in ((0.5, 0.25), ([[0.0], [1.0], [0.3]], [[0.1], [0.2], [0.3]])):
                    u, carried = _pull_back(sys, words, t, y, theta)
                    want_u, want_y = _per_start(sys, words, np.ravel(t), step, np.ravel(y))
                    assert _hex(u.ravel()) == _hex(want_u.ravel()), (name, depth)
                    assert _hex(carried.ravel()) == _hex(want_y.ravel()), (name, depth)
                # the probes: tails rho_v(1/2) over the depth-m words v in
                # lexicographic order, then every row from each tail
                n, m = min(depth, 64), _probe_depth(sys, 4)
                tails, tail_y = _per_start(sys, enumerate_words(sys.ell, m), [0.5],
                                           _skew_step(sys, theta.shift(n), m), [0.125])
                u, carried, ends = _probes(sys, words, theta, 4, 0.125)
                want_u, want_y = _per_start(sys, words[:, :n], tails[0],
                                            _skew_step(sys, theta, n), tail_y[0])
                assert _hex(u.T.ravel()) == _hex(want_u.ravel()), (name, depth)
                assert _hex(carried.T.ravel()) == _hex(want_y.ravel()), (name, depth)
                assert _hex(ends.T.ravel()) == _hex(_per_start(sys, words, [0.0, 1.0]).ravel())

    def test_per_row_start_values_take_the_plain_loop(self, m1, monkeypatch):
        # only start values shared by every row walk the suffixes
        walked, walk = [], dynamics._walk
        monkeypatch.setattr(dynamics, "_walk", lambda sys, x, depth, *rest: walked.append(depth)
                            or walk(sys, x, depth, *rest))
        rng = np.random.default_rng(73)
        words = rng.integers(0, 2, size=(40, 9)).astype(np.uint8)
        _compose(m1, words, 0.5)
        _compose(m1, words, np.array([[0.0], [1.0]]))
        assert walked == [5, 5]  # 2^5 <= 40 < 2^6
        walked.clear()
        _compose(m1, words, rng.random(40))
        _compose(m1, words, rng.random((3, 40)))
        _pull_back(m1, words, 0.5, rng.random(40), ThetaSequence.zeros())
        point_of_word(m1, words, rng.random(40))
        birkhoff_sums_along(m1, words, 0.5)
        assert walked == []


M5_TRIG_LAMBDA = {**wl.model_spec("M5"), "id": "M5_trig_lambda",
                  "lambda": {"kind": "trig", "c0": 0.75, "harmonics": [[1, 0.1, 0.0]]}}


def _walk_systems(systems):
    return {**_tau_systems(systems), "M5_trig_lambda": wl.validate_system(M5_TRIG_LAMBDA)}


def _pointwise(sys, x):
    """Every pointwise field of sys at x, each expected in x's shape."""
    out = {"tau": sys.tau(x), "lam_at": sys.lam_at(x), "branch_index": sys.branch_index(x),
           "nearest_branch": sys.nearest_branch(x),
           "eval_W_many": eval_W_many(sys, x, ThetaSequence.zeros())[0]}
    out["log|tau'|"], out["log lambda"] = sys.log_terms(out["nearest_branch"], x)
    out.update({f"inverse {i}": br.inverse(x) for i, br in enumerate(sys.branches)})
    return out


@pytest.mark.parametrize("name", ["M1", "M3", "M5", "M5_trig_lambda"])
def test_pointwise_fields_keep_input_shape(systems, name):
    # a scalar gives a 0-d value and a 2-D input a 2-D value, with the values
    # of the 1-D call; nearest_branch, and with it M3's lam_at, gave shape
    # (1,) for a scalar
    sys = systems.get(name) or wl.validate_system(M5_TRIG_LAMBDA)
    xs = np.array([0.1, 0.4, 0.5, 0.96])  # 0.4 and 0.96 lie in M3's gaps
    flat = _pointwise(sys, xs)
    for key, value in _pointwise(sys, xs.reshape(2, 2)).items():
        assert value.shape == (2, 2), key
        np.testing.assert_allclose(value.ravel(), flat[key], rtol=1e-15, atol=0, err_msg=key)
    for i, x in enumerate(xs.tolist()):
        for key, value in _pointwise(sys, x).items():
            assert np.shape(value) == (), (key, x)
            np.testing.assert_allclose(value, flat[key][i], rtol=1e-15, atol=0, err_msg=key)


@pytest.mark.parametrize("name", ["M1", "M3", "M5", "M5_trig_lambda"])
def test_skew_step_matches_lam_at(systems, name):
    # an equal-weight lambda table multiplies by its one value: the bits and
    # the shape of lam_at(u) * y + g(u + theta_k), with y one value per start
    # value broadcast against a walk level, as in _walk
    sys = systems.get(name) or wl.validate_system(M5_TRIG_LAMBDA)
    theta = ThetaSequence.iid_uniform(13)
    rng = np.random.default_rng(19)
    u, y = rng.random((sys.ell, 6)), rng.random(6)
    for k in range(3):
        got = _skew_step(sys, theta, 3)(k, u, y)
        want = sys.lam_at(u) * y + sys.g(u + theta[k])
        assert _same_bits(got, want), (name, k)


def _reference_tree(sys, depth):
    """Level ``depth`` of the cylinder tree, one inverse branch at a time,
    each branch's log-derivative taken from that branch."""
    x, u, v = np.array([0.5]), np.zeros(1), np.zeros(1)
    for _ in range(depth):
        xs = [br.inverse(x) for br in sys.branches]
        u = np.concatenate([np.log(np.abs(br.derivative(xi))) + u for br, xi in zip(sys.branches, xs)])
        v = np.concatenate([np.log(sys.lam_at(xi)) + v for xi in xs])
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
        assert enumerate_words(2, 6).shape == (64, 6)
        with pytest.raises(BudgetExceeded):  # it returned all 128 rows
            enumerate_words(2, 7)
        with pytest.raises(BudgetExceeded):
            m1.tree(7)
        with pytest.raises(BudgetExceeded):  # no 2**depth formed, nor formatted
            m1.tree(10**7)
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

    def test_tree_recomputed_with_the_same_bits(self, systems):
        # tree keeps no cache: a second call walks again and gets the first's bits
        for name, sys in _walk_systems(systems).items():
            first, second = sys.tree(7), sys.tree(7)
            for a, b in zip(first, second):
                assert a is not b and _same_bits(a, b), name

    def test_tree_negative_depth_refused(self, m1):
        with pytest.raises(ValueError):
            m1.tree(-1)


class TestBirkhoff:
    def test_constant_lambda(self, m1):
        value = wl.birkhoff_sum(m1, "log_lambda", 0.1, 10)
        assert value == pytest.approx(10 * math.log(0.7), abs=1e-12)

    def test_m3_two_digits(self, m3):
        x = _cylinder(m3, (0, 1))[0] + 1e-6
        value = wl.birkhoff_sum(m3, "log_abs_tau_prime", x, 2)
        assert value == pytest.approx(math.log(1 / 0.3) + math.log(1 / 0.45), abs=1e-12)

    def test_m5_fixed_point(self, m5):
        value = wl.birkhoff_sum(m5, "log_abs_tau_prime", 0.0, 3)
        assert value == pytest.approx(3 * math.log(2 + 0.1 * math.pi), abs=1e-10)

    def test_log_terms_match_per_branch_reference(self, systems):
        # log_terms keeps the shape of x, a scalar included, and has the bits
        # of the branch's own derivative and of lam_at at interior points
        grid = np.array([[0.1, 0.37, 0.5], [0.61, 0.8, 0.93]])
        for name, sys in _walk_systems(systems).items():
            for br in sys.branches:
                x = br.lo + (br.hi - br.lo) * grid
                for xi in (x, x[1, 2]):
                    ref = (np.log(np.abs(br.derivative(xi))), np.log(sys.lam_at(xi)))
                    for got, want in zip(sys.log_terms(br.index, xi), ref):
                        assert np.shape(got) == np.shape(xi), (name, br.index)
                        assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), (name, br.index)
            # one digit per point, and one per row broadcast along it
            d = np.arange(sys.ell)[:, None]
            x = np.stack([br.lo + (br.hi - br.lo) * grid[0] for br in sys.branches])
            rows = [sys.log_terms(i, xi) for i, xi in enumerate(x)]
            for got in (sys.log_terms(d, x), sys.log_terms(np.repeat(d, 3, axis=1), x)):
                assert _same_bits(got[0], np.stack([u for u, _ in rows])), name
                assert _same_bits(got[1], np.stack([v for _, v in rows])), name

    def test_gap_propagates(self, m2):
        with pytest.raises(NotInPartition):
            wl.birkhoff_sum(m2, "log_lambda", 0.5, 1)

    def test_digit_sums_refuse_out_of_range_digit(self, m1, m3):
        with pytest.raises(ValueError, match="out of range for a system of 2 branches"):
            birkhoff_sums_along(m3, np.array([[0, 1], [1, 2]], dtype=np.uint8))
        # in-range digits of a float dtype: the message names the dtype
        for call in (lambda d: point_of_word(m1, d), lambda d: birkhoff_sums_along(m3, d)):
            with pytest.raises(ValueError, match="integer dtype, not float64") as info:
                call(np.array([[0.0, 1.0]]))
            assert "out of range" not in str(info.value)

    def test_digit_sums_need_branch_constant(self, m5):
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

    @pytest.mark.parametrize("mode", ["zeros", "iid_uniform"])
    def test_positions_are_integers(self, mode):
        # on iid theta[1.5] read theta[1] and block(0, 2.5) three values, on
        # zeros block(0, 2.5) raised TypeError; block(0, -2) read [] on iid
        th = ThetaSequence(mode, 1 if mode == "iid_uniform" else None)
        for call in (lambda: th[1.5], lambda: th.shift(1.5), lambda: th.block(0, 2.5),
                     lambda: th.block(0.5, 2), lambda: th.block(0, True)):
            with pytest.raises(ValueError, match="must be an integer"):
                call()
        for call in (lambda: th.block(0, -2), lambda: th.block(-1, 2)):
            with pytest.raises(ValueError, match=">= 0"):
                call()
        assert th.block(2, 0).shape == (0,) and th.block(np.int64(1), np.int64(2)).shape == (2,)

    def test_values_in_unit_interval(self):
        block = ThetaSequence.iid_uniform(1).block(0, 10_000)
        assert block.min() >= 0.0 and block.max() < 1.0
        # crude uniformity check on a deterministic stream
        assert abs(block.mean() - 0.5) < 0.01


@pytest.mark.parametrize("rows", [None, 1, 256, 513, "column_slice"])
def test_digit_count_birkhoff_sums_near_exact(m3, rows):
    # each row's sum from its digit counts c_i is within
    # ell * spacing(sum_i c_i |L_i|) of the exact sum of c_i L_i, for a 1-D
    # word, 2-D matrices and a non-contiguous column slice
    rng = np.random.default_rng(31)
    shape = {None: 40, "column_slice": (300, 60)}.get(rows, (rows, 40))
    d = rng.integers(0, 2, shape).astype(np.uint8)
    if rows == "column_slice":
        d = d[:, 10:50]
        assert not d.flags.c_contiguous
    log_tp = np.log(np.abs(np.array([b.slope for b in m3.branches])))
    log_lm = np.log(m3.lam)
    counts = np.apply_along_axis(np.bincount, -1, d, minlength=m3.ell)
    for sums, logs in zip(_birkhoff_sums_from_counts(m3, counts), (log_tp.tolist(), log_lm.tolist())):
        assert np.shape(sums) == d.shape[:-1]
        for got, c in zip(np.atleast_1d(sums).tolist(), np.atleast_2d(counts).tolist()):
            exact = sum(Fraction(ci) * Fraction(li) for ci, li in zip(c, logs))
            bound = m3.ell * np.spacing(sum(ci * abs(li) for ci, li in zip(c, logs)))
            assert abs(Fraction(got) - exact) <= Fraction(float(bound))
