"""Cookie-cutter systems: validation, coding, cylinders, Birkhoff sums."""

import math

import numpy as np
import pytest

import wtf_lab as wl
from wtf_lab import (
    BudgetExceeded,
    HyperbolicityViolated,
    LambdaOutOfRange,
    NotBranchConstant,
    NotInPartition,
    NotOnto,
    OverlappingBranches,
    SymbolWord,
    ThetaSequence,
)
from wtf_lab.dynamics import birkhoff_sums_from_digits, cylinder_bounds_many, point_of_word


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


class TestApplyTau:
    def test_examples(self, m1, m2):
        assert wl.apply_tau(m1, 0.3) == pytest.approx(0.6, abs=1e-12)
        assert wl.apply_tau(m2, 0.5) == 0.0  # gap points map to 0
        assert wl.apply_tau(m1, 0.75) == pytest.approx(0.5, abs=1e-12)

    def test_domain_check(self, m1):
        with pytest.raises(ValueError):
            wl.apply_tau(m1, 1.5)


class TestCoding:
    def test_examples(self, m1, m2):
        assert wl.code_of(m1, 0.3, 2).digits == (0, 1)
        assert wl.code_of(m1, 0.75, 3).digits == (1, 1, 0)
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
        assert wl.cylinder_of(m1, (0, 1)).interval == pytest.approx((0.25, 0.5), abs=1e-12)
        assert wl.cylinder_of(m2, (1,)).interval == pytest.approx((0.65, 1.0), abs=1e-12)
        assert wl.cylinder_of(m2, (1, 0)).interval == pytest.approx((0.65, 0.7725), abs=1e-12)

    def test_cylinder_nesting(self, systems):
        # analytic branches are inverted to 1e-12 per level, so nesting holds
        # up to a few units of that tolerance on composed endpoints
        rng = np.random.default_rng(7)
        for sys in systems.values():
            for _ in range(20):
                n = int(rng.integers(1, 10))
                word = tuple(int(d) for d in rng.integers(0, sys.ell, n))
                parent = wl.cylinder_of(sys, word)
                for d in range(sys.ell):
                    child = wl.cylinder_of(sys, word + (d,))
                    assert child.lo >= parent.lo - 5e-12
                    assert child.hi <= parent.hi + 5e-12

    def test_coding_cylinder_consistency(self, systems):
        rng = np.random.default_rng(11)
        for sys in systems.values():
            words = rng.integers(0, sys.ell, size=(25, 20)).astype(np.uint8)
            xs = point_of_word(sys, words, 0.5)
            for x in xs:
                for n in (1, 5, 12, 20):
                    word = wl.code_of(sys, float(x), n)
                    assert wl.cylinder_of(sys, word).contains(float(x))

    def test_affine_cylinder_lengths_exact(self, m3):
        # |I_w| = product of branch contraction ratios for affine systems
        ratios = {0: 0.3, 1: 0.45}
        rng = np.random.default_rng(3)
        for _ in range(30):
            n = int(rng.integers(1, 16))
            word = tuple(int(d) for d in rng.integers(0, 2, n))
            cyl = wl.cylinder_of(m3, word)
            expected = math.prod(ratios[d] for d in word)
            assert cyl.length == pytest.approx(expected, abs=1e-12)

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
        # affine inverses are elementwise, so the batched endpoints are the
        # scalar ones bit for bit; the M5 Newton inverse stops on batch-wide
        # tests and agrees to a few units of its 1e-12 tolerance
        for name, sys in systems.items():
            rng = np.random.default_rng(17)
            words = rng.integers(0, sys.ell, size=(200, 25)).astype(np.uint8)
            lo, hi = cylinder_bounds_many(sys, words)
            cyls = [wl.cylinder_of(sys, w) for w in words]
            scalar_lo = np.array([c.lo for c in cyls])
            scalar_hi = np.array([c.hi for c in cyls])
            if name == "M5":
                assert np.max(np.abs(lo - scalar_lo)) <= 5e-12
                assert np.max(np.abs(hi - scalar_hi)) <= 5e-12
            else:
                assert np.array_equal(lo, scalar_lo) and np.array_equal(hi, scalar_hi)


class TestSampling:
    def test_midpoints_depth1(self, m1):
        reps = wl.sample_repeller(m1, 1, "midpoints")
        assert [(w.digits, x) for w, x in reps] == [((0,), 0.25), ((1,), 0.75)]

    def test_containment(self, systems):
        for sys in systems.values():
            for word, x in wl.sample_repeller(sys, 2, "midpoints"):
                assert wl.cylinder_of(sys, word).contains(x)
            for word, x in wl.sample_repeller(sys, 8, "random", seed=3):
                assert wl.cylinder_of(sys, word).contains(x)

    def test_seeded_determinism(self, m1):
        a = wl.sample_repeller(m1, 3, "random", seed=7)
        b = wl.sample_repeller(m1, 3, "random", seed=7)
        assert a == b
        c = wl.sample_repeller(m1, 3, "random", seed=8)
        assert any(xa != xc for (_, xa), (_, xc) in zip(a, c))

    def test_budget(self, m1):
        with pytest.raises(BudgetExceeded):
            wl.sample_repeller(m1, 10, "midpoints", budget=100)


class TestBirkhoff:
    def test_constant_lambda(self, m1):
        value = wl.birkhoff_sum(m1, "log_lambda", 0.1, 10)
        assert value == pytest.approx(10 * math.log(0.7), abs=1e-12)

    def test_m3_two_digits(self, m3):
        x = wl.cylinder_of(m3, (0, 1)).lo + 1e-6
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


class TestSymbolWord:
    def test_equality_and_hash(self):
        assert SymbolWord((0, 1, 1)) == SymbolWord(bytes([0, 1, 1]))
        assert hash(SymbolWord((0, 1))) == hash(SymbolWord((0, 1)))
        assert SymbolWord((0,)) != SymbolWord((1,))

    def test_immutable_nonempty(self):
        with pytest.raises(ValueError):
            SymbolWord(())
        w = SymbolWord((1, 0))
        with pytest.raises(AttributeError):
            w.digits = (0,)

    def test_array_roundtrip(self):
        w = SymbolWord(np.array([1, 0, 1], dtype=np.uint8))
        assert w.digits == (1, 0, 1)
        assert list(w.as_array()) == [1, 0, 1]


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
