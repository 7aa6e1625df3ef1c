"""Cookie-cutter systems: validation, coding, cylinders, Birkhoff sums."""

import math

import numpy as np
import pytest

import wtf_lab as wl
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
    birkhoff_sums_from_digits,
    cylinder_bounds_many,
    enumerate_words,
    point_of_word,
)


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
        sys.representatives(6, 0.5),
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
        assert wl.apply_tau(m1, 0.3) == pytest.approx(0.6, abs=1e-12)
        assert wl.apply_tau(m2, 0.5) == 0.0  # gap points map to 0
        assert wl.apply_tau(m1, 0.75) == pytest.approx(0.5, abs=1e-12)

    def test_domain_check(self, m1):
        with pytest.raises(ValueError):
            wl.apply_tau(m1, 1.5)


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
        # and digit.  A one-word batch passes the Newton inverse the same
        # values, so cylinder_of matches it bit for bit on every model; a
        # many-word batch stops the M5 Newton inverse on batch-wide tests and
        # agrees to a few units of its 1e-12 tolerance
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
            if name == "M5":
                assert np.max(np.abs(lo - ref[:, 0])) <= 5e-12
                assert np.max(np.abs(hi - ref[:, 1])) <= 5e-12
            else:
                assert np.array_equal(lo, ref[:, 0]) and np.array_equal(hi, ref[:, 1])

    def test_deep_m5_cylinder_refused(self, m5):
        # the depth-40 cylinder of 0^40 is shorter than the Newton bracket
        # width 4e-12, so its endpoints would be inversion noise
        word = np.zeros(40, dtype=np.uint8)
        with pytest.raises(InversionFailed):
            wl.cylinder_of(m5, word)
        with pytest.raises(InversionFailed):
            cylinder_bounds_many(m5, word[None, :])
        lo, hi = wl.cylinder_of(m5, word[:30])
        assert hi - lo > 4e-12


class TestSampling:
    def test_midpoints_depth1(self, m1):
        words, xs = wl.sample_repeller(m1, 1, "midpoints")
        assert words.dtype == np.uint8
        assert words.tolist() == [[0], [1]]
        assert xs.tolist() == [0.25, 0.75]

    def test_containment(self, systems):
        for sys in systems.values():
            for words, xs in (wl.sample_repeller(sys, 2, "midpoints"),
                              wl.sample_repeller(sys, 8, "random", seed=3)):
                for word, x in zip(words, xs):
                    lo, hi = wl.cylinder_of(sys, word)
                    assert lo - 1e-12 <= x <= hi + 1e-12

    def test_seeded_determinism(self, m1):
        words, a = wl.sample_repeller(m1, 3, "random", seed=7)
        _, b = wl.sample_repeller(m1, 3, "random", seed=7)
        assert np.array_equal(words, enumerate_words(2, 3))
        assert np.array_equal(a, b)
        _, c = wl.sample_repeller(m1, 3, "random", seed=8)
        assert np.any(a != c)

    def test_budget(self, m1):
        with pytest.raises(BudgetExceeded):
            wl.sample_repeller(m1, 10, "midpoints", budget=100)

    @pytest.mark.parametrize("depth", [1, 5, 9])
    def test_level_order_matches_point_of_word(self, systems, depth):
        # tree and representatives invert level by level, point_of_word
        # composes the enumerated digit matrix: the same bits on every model
        for sys in systems.values():
            words = enumerate_words(sys.ell, depth)
            assert np.array_equal(sys.tree(depth)[depth][0], point_of_word(sys, words, 0.5))
            for t in (0.125, 0.5, 0.9):
                assert np.array_equal(sys.representatives(depth, t), point_of_word(sys, words, t))


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
