"""Empirical geometry: clouds, box counting, Hoelder estimators, probes."""

import math

import numpy as np
import pytest

import wtf_lab as wl
from wtf_lab import metrics
from wtf_lab import (
    BudgetExceeded,
    CloudProvenance,
    DegenerateFit,
    GraphCloud,
    NotInPartition,
    OscillationUnderflow,
    PotentialSpec,
    ThetaSequence,
)
from wtf_lab.dynamics import cylinder_bounds_many, point_of_word
from wtf_lab.thermo import sample_words


@pytest.fixture(scope="module")
def line_cloud():
    x = np.arange(10**6) / 10**6
    return GraphCloud(x, x.copy(), CloudProvenance("line", "zeros", None, 0, 0.0))


class TestSampleGraph:
    def test_unrestricted_count(self, m1, zeros):
        cloud = wl.sample_graph(m1, zeros, depth=8, per_cylinder=4, tol=1e-8)
        assert len(cloud) == 2**8 * 4
        assert np.all(np.isfinite(cloud.y))
        assert cloud.x.min() >= 0.0 and cloud.x.max() < 1.0

    def test_restricted_containment(self, m2, zeros):
        cloud = wl.sample_graph(m2, zeros, depth=10, per_cylinder=2, tol=1e-8,
                                restrict_to_repeller=True)
        # every x lies inside a depth-10 cylinder
        idx = m2.branch_index(cloud.x)
        assert np.all(idx >= 0)
        for x in cloud.x[:: len(cloud) // 50]:
            lo, hi = wl.cylinder_of(m2, wl.code_of(m2, float(x), 10))
            assert lo - 1e-12 <= x <= hi + 1e-12

    def test_budget(self, m1, zeros, monkeypatch):
        monkeypatch.setenv("WTF_LAB_BUDGET", "1000")
        with pytest.raises(BudgetExceeded):
            wl.sample_graph(m1, zeros, depth=10, per_cylinder=4)

    def test_csv_roundtrip_bit_exact(self, m2, zeros, tmp_path):
        cloud = wl.sample_graph(m2, zeros, depth=6, per_cylinder=3, tol=1e-8)
        path = tmp_path / "cloud.csv"
        wl.write_cloud_csv(cloud, path)
        back = wl.read_cloud_csv(path)
        assert np.array_equal(cloud.x, back.x)
        assert np.array_equal(cloud.y, back.y)
        assert back.provenance == cloud.provenance
        assert path.read_text().splitlines()[0] == "x,y"


def _unique_counts(cloud, scales):
    """Reference box counts: np.unique over the box keys at each scale."""
    y0 = cloud.y.min()
    counts = []
    for r in sorted(scales, reverse=True):
        ix = np.floor(cloud.x / r).astype(np.int64)
        iy = np.floor((cloud.y - y0) / r).astype(np.int64)
        counts.append(np.unique(ix * (iy.max() + 2) + iy).size)
    return tuple(counts)


class TestBoxDimension:
    def test_smooth_line(self, line_cloud):
        result = wl.box_dimension(line_cloud, [2.0**-k for k in range(4, 15)])
        assert result.slope == pytest.approx(1.0, abs=0.02)
        assert result.r2 > 0.999

    def test_counts_monotone_under_doubling(self, line_cloud, m1, zeros):
        cloud = wl.sample_graph(m1, zeros, depth=12, per_cylinder=2, tol=1e-8)
        try:
            result = wl.box_dimension(cloud, [2.0**-k for k in range(4, 13)])
        except DegenerateFit as err:  # sparse cloud: counts still usable
            result = err.result
        counts = np.array(result.counts)  # scales stored coarse -> fine
        assert np.all(np.diff(counts) >= 0)

    def test_needs_six_scales(self, line_cloud):
        with pytest.raises(ValueError):
            wl.box_dimension(line_cloud, [0.5, 0.25, 0.125, 0.0625, 0.03125])

    def test_degenerate_fit_carries_result(self, line_cloud, monkeypatch):
        monkeypatch.setattr(metrics, "_R2_MIN", 1.0 + 1e-9)
        with pytest.raises(DegenerateFit) as err:
            wl.box_dimension(line_cloud, [2.0**-k for k in range(4, 15)])
        assert err.value.result is not None
        assert err.value.result.slope == pytest.approx(1.0, abs=0.02)

    @pytest.mark.parametrize("name,seed,restrict", [
        ("M1", None, False), ("M1", 3, False), ("M2", None, True), ("M2", 3, True)])
    @pytest.mark.parametrize("scales", [[2.0**-k for k in range(2, 14)],
                                        [3.0**-k for k in range(1, 9)]],
                             ids=["dyadic", "triadic"])
    def test_counts_match_unique_reference(self, systems, name, seed, restrict, scales):
        theta = ThetaSequence.zeros() if seed is None else ThetaSequence.iid_uniform(seed)
        cloud = wl.sample_graph(systems[name], theta, depth=9, per_cylinder=4, tol=1e-8,
                                restrict_to_repeller=restrict)
        try:
            result = wl.box_dimension(cloud, scales)
        except DegenerateFit as err:
            result = err.result
        assert result.counts == _unique_counts(cloud, scales)

    @pytest.mark.parametrize("axis,value", [("y", math.nan), ("y", math.inf),
                                            ("x", math.nan), ("x", -math.inf)])
    def test_non_finite_points_refused(self, line_cloud, axis, value):
        x, y = line_cloud.x[:1000].copy(), line_cloud.y[:1000].copy()
        {"x": x, "y": y}[axis][17] = value
        cloud = GraphCloud(x, y, line_cloud.provenance)
        with pytest.raises(ValueError, match="finite"):
            wl.box_dimension(cloud, [2.0**-k for k in range(2, 10)])

    @pytest.mark.parametrize("bad", [math.nan, 0.0, -0.5, math.inf])
    def test_bad_scale_refused(self, line_cloud, bad):
        scales = [2.0**-k for k in range(2, 8)] + [bad]
        with pytest.raises(ValueError, match="finite and positive"):
            wl.box_dimension(line_cloud, scales)

    def test_empty_cloud_refused(self, line_cloud):
        cloud = GraphCloud(np.empty(0), np.empty(0), line_cloud.provenance)
        with pytest.raises(ValueError, match="non-empty"):
            wl.box_dimension(cloud, [2.0**-k for k in range(2, 10)])


class TestHolderBirkhoff:
    def test_m1_constant(self, m1):
        for x in (0.1, 0.3, 0.77):
            assert wl.holder_birkhoff(m1, x, 17) == pytest.approx(
                0.5145731728297583, abs=1e-12)

    def test_m3_branch1_fixed_point(self, m3):
        # fixed point of the second branch: x = 0.5/0.55 = 10/11
        x = 0.5 / 0.55
        value = wl.holder_birkhoff(m3, x, 40)
        assert value == pytest.approx(-np.log(0.7) / np.log(1 / 0.45), abs=1e-9)

    def test_m3_alternating_code(self, m3):
        # fixed point of rho_0 o rho_1: x = 0.15/0.865; even depth keeps the
        # two-cycle balanced (depth 30: float orbit drift still below the
        # distance of the cycle to the branch boundaries)
        x = 0.15 / 0.865
        assert wl.code_of(m3, x, 6).tolist() == [0, 1, 0, 1, 0, 1]
        value = wl.holder_birkhoff(m3, x, 30)
        assert value == pytest.approx(0.6356944177320357, abs=1e-9)

    def test_hull_invariant(self, systems):
        # finite-orbit averages stay inside the exponent interval
        bounds = {
            "M1": (0.5145731728297583, 0.5145731728297583),
            "M2": (0.7606123719283242, 0.7606123719283242),
            "M3": (0.446676901961204, 0.7610560044063083),
            "M4": (0.5, 0.5),
        }
        rng = np.random.default_rng(23)
        for name, (lo, hi) in bounds.items():
            sys = systems[name]
            words = rng.integers(0, sys.ell, size=(40, 25)).astype(np.uint8)
            clo, chi = cylinder_bounds_many(sys, words)
            words = words[(chi - clo) >= 1e-13][:25]
            xs = point_of_word(sys, words, 0.5)
            for x in xs:
                for n in (10, 18, 25):
                    v = wl.holder_birkhoff(sys, float(x), n)
                    assert lo - 1e-6 <= v <= hi + 1e-6


def _repeller_points(sys, count, seed):
    """Depth-30 cylinder midpoints whose orbits stay in the partition for 30
    steps (cylinders thinner than 1e-14 are dropped)."""
    words = np.random.default_rng(seed).integers(0, sys.ell, size=(4 * count, 30)).astype(np.uint8)
    lo, hi = cylinder_bounds_many(sys, words)
    return point_of_word(sys, words[(hi - lo) >= 1e-14][:count], 0.5)


class TestHolderBirkhoffMany:
    def test_matches_per_point(self, systems):
        # one walk, sums left to right: the bits of the per-point estimate
        # and of the two birkhoff_sum calls it stands for
        for name, sys in systems.items():
            xs = _repeller_points(sys, 12, 59)
            got = wl.holder_birkhoff_many(sys, xs, 30)
            for j, x in enumerate(xs.tolist()):
                num = -wl.birkhoff_sum(sys, "log_lambda", x, 30)
                den = wl.birkhoff_sum(sys, "log_abs_tau_prime", x, 30)
                assert got[j] == num / den == wl.holder_birkhoff(sys, x, 30), (name, j)

    def test_first_failing_point_reported(self, m2):
        # tau^5 of the second point and tau^3 of the third lie in M2's gap:
        # the error names the first failing point in point order
        good = float(point_of_word(m2, np.zeros((1, 30), dtype=np.uint8), 0.5)[0])
        xs = [good] + [float(point_of_word(m2, np.array([w], dtype=np.uint8), 0.5)[0])
                       for w in ([0, 1, 1, 0, 1], [0, 1, 1])]
        with pytest.raises(NotInPartition) as err:
            wl.holder_birkhoff_many(m2, xs, 30)
        assert err.value.iterate == 5
        with pytest.raises(NotInPartition) as err:
            wl.holder_birkhoff_many(m2, xs[::-1], 30)
        assert err.value.iterate == 3

    def test_depth_checked(self, m1):
        with pytest.raises(ValueError):
            wl.holder_birkhoff_many(m1, [0.3], 0)


class TestHolderOscillation:
    def test_batch_matches_per_point(self, systems, zeros):
        # every exponent has the bits of the point estimated alone
        for name, sys in systems.items():
            xs = _repeller_points(sys, 4, 61)
            got = wl.holder_oscillation_many(sys, xs, zeros)
            ref = [wl.holder_oscillation(sys, x, zeros) for x in xs.tolist()]
            assert got.tolist() == ref, name

    def test_m1_matches_symbolic(self, m1, zeros):
        v = wl.holder_oscillation(m1, 1.0 / 3.0, zeros, depth_range=range(8, 21))
        assert v == pytest.approx(0.5146, abs=0.02)

    def test_stub_smooth_curve_clamps(self, m1, zeros):
        # Lipschitz stub reads exponent 1; a flat critical point reads 2 and
        # is clamped to the admissible interval (0, 1]
        v = wl.holder_oscillation(m1, 1.0 / 3.0, zeros, depth_range=range(4, 13),
                                  _curve=lambda x: x)
        assert v == pytest.approx(1.0, abs=1e-9)
        v2 = wl.holder_oscillation(m1, 1.0 / 3.0, zeros, depth_range=range(4, 13),
                                   _curve=lambda x: (x - 1.0 / 3.0) ** 2)
        assert v2 == 1.0

    def test_m4_half(self, m4, zeros):
        word = np.random.default_rng(2).integers(0, 2, 24).astype(np.uint8)
        x = float(point_of_word(m4, word[None, :], 0.5)[0])
        v = wl.holder_oscillation(m4, x, zeros, depth_range=range(2, 19))
        assert v == pytest.approx(0.5, abs=0.02)

    def test_matches_per_depth_reference(self, systems, zeros):
        # reference: the per-depth route through the public pieces (code_of,
        # cylinder_of, oscillation_over and libm logs), bit for bit
        depths = range(2, 21)
        for name in ("M1", "M3", "M5"):
            sys = systems[name]
            words = np.random.default_rng(29).integers(0, 2, size=(3, 24)).astype(np.uint8)
            for x in point_of_word(sys, words, 0.5).tolist():
                def terms(n):
                    word = wl.code_of(sys, x, n)
                    osc = wl.oscillation_over(sys, word, zeros, probes=128, tol=1e-12)
                    lo, hi = wl.cylinder_of(sys, word)
                    return math.log(osc), math.log(hi - lo)
                lo_osc, lo_len = terms(2)
                hi = [terms(n) for n in depths[-7:]]
                hi_osc = hi_len = 0.0
                for o, l in hi:
                    hi_osc += o
                    hi_len += l
                slope = (hi_osc / 7 - lo_osc) / (hi_len / 7 - lo_len)
                expected = min(1.0, max(1e-12, slope))
                assert wl.holder_oscillation(sys, x, zeros, depths, 128, 1e-12) == expected

    def test_gap_iterate_reported(self, m2, m3, zeros):
        # tau^5 x is the centre of M2's gap
        x = float(point_of_word(m2, np.array([[0, 1, 1, 0, 1]], dtype=np.uint8), 0.5)[0])
        good = float(point_of_word(m2, np.zeros((1, 30), dtype=np.uint8), 0.5)[0])
        with pytest.raises(NotInPartition) as err:
            wl.holder_oscillation(m2, x, zeros, depth_range=range(2, 21))
        assert err.value.iterate == 5
        with pytest.raises(NotInPartition) as err:
            wl.holder_oscillation_many(m2, [good, x], zeros, depth_range=range(2, 21))
        assert err.value.iterate == 5

    def test_underflow_before_gap(self, zeros):
        # with g = 0 the depth-2 oscillation underflows before the orbit
        # reaches the gap at iterate 5, and depths are processed in order
        sys = wl.validate_system({**wl.model_spec("M2"), "g": {"kind": "zero"}, "id": "M2g0"})
        x = float(point_of_word(sys, np.array([[0, 1, 1, 0, 1]], dtype=np.uint8), 0.5)[0])
        with pytest.raises(OscillationUnderflow, match="at depth 2 "):
            wl.holder_oscillation(sys, x, zeros, depth_range=range(2, 21))

    def test_underflow(self, zeros):
        sys = wl.validate_system({**wl.model_spec("M1"), "g": {"kind": "zero"}, "id": "M1g0"})
        with pytest.raises(OscillationUnderflow):
            wl.holder_oscillation(sys, 0.3, zeros, depth_range=range(2, 9))

    def test_estimator_agreement_sample(self, m3, zeros):
        rng = np.random.default_rng(42)
        words = rng.integers(0, 2, size=(40, 30)).astype(np.uint8)
        lo, hi = cylinder_bounds_many(m3, words)
        words = words[(hi - lo) >= 1e-14][:20]
        xs = point_of_word(m3, words, 0.5)
        birk = np.array([wl.holder_birkhoff(m3, float(x), 30) for x in xs])
        osc = wl.holder_oscillation_many(m3, xs, zeros, depth_range=range(1, 31),
                                         probes=128, tol=1e-13)
        assert np.max(np.abs(birk - osc)) <= 0.03


class TestEmpiricalSpectrum:
    def test_m3_critical_and_ordered(self, m3):
        rows = wl.empirical_spectrum(m3, [0.0, 3.0], samples_per_q=4000,
                                     birkhoff_depth=1500, seed=77)
        (q0, hat0, pred0), (q3, hat3, pred3) = rows
        assert hat0 == pytest.approx(0.613744318754433, abs=0.005)
        assert hat3 == pytest.approx(pred3, abs=0.01)
        assert hat3 == pytest.approx(0.5407174514534251, abs=0.01)  # oracle alpha(3)
        assert hat3 < hat0  # exponent decreases in q

    def test_sublevel_monotone_proxy(self, m3):
        rows = wl.empirical_spectrum(m3, [-2.0, -1.0, 0.0, 1.0, 2.0],
                                     samples_per_q=3000, birkhoff_depth=1000, seed=3)
        hats = [r[1] for r in rows]
        for a, b in zip(hats, hats[1:]):
            assert a >= b - 0.01

    def test_m4_constant(self, m4):
        rows = wl.empirical_spectrum(m4, [-1.0, 0.0, 2.0], samples_per_q=500,
                                     birkhoff_depth=400, seed=1)
        for _, hat, pred in rows:
            assert hat == pytest.approx(0.5, abs=1e-6)
            assert pred == pytest.approx(0.5, abs=1e-6)


class TestCorrelationDimension:
    def test_uniform_square(self):
        rng = np.random.default_rng(5)
        cloud = GraphCloud(rng.random(10**5), rng.random(10**5),
                           CloudProvenance("unit-square", "zeros", None, 0, 0.0))
        result = wl.correlation_dimension(cloud, [2.0**-k for k in range(1, 8)], seed=1)
        assert result.slope == pytest.approx(2.0, abs=0.1)

    def test_preconditions(self):
        rng = np.random.default_rng(5)
        small = GraphCloud(rng.random(100), rng.random(100),
                           CloudProvenance("s", "zeros", None, 0, 0.0))
        with pytest.raises(ValueError):
            wl.correlation_dimension(small, [0.5, 0.25, 0.125, 0.0625, 0.03125])
        big = GraphCloud(rng.random(2000), rng.random(2000),
                         CloudProvenance("b", "zeros", None, 0, 0.0))
        with pytest.raises(ValueError):
            wl.correlation_dimension(big, [0.5, 0.25])

    def test_torus_metric_uniform_slope(self):
        # pairs that wrap around x = 0/1 count at their torus distance
        # min(|dx|, 1-|dx|), so a uniform square still reads slope 2
        rng = np.random.default_rng(6)
        cloud = GraphCloud(rng.random(20_000), rng.random(20_000),
                           CloudProvenance("u", "zeros", None, 0, 0.0))
        radii = [2.0**-k for k in range(2, 8)]
        d_min = wl.correlation_dimension(cloud, radii, seed=1).slope
        assert d_min == pytest.approx(2.0, abs=0.15)

    def test_m2_base_gibbs_cloud(self, m2):
        a0 = wl.moran_oracle(m2, "A_of_q", q=0.0)
        digits = sample_words(m2, PotentialSpec(-a0, 0.0), depth=50, count=30_000, seed=4181)
        xs = point_of_word(m2, digits, 0.5)
        cloud = GraphCloud(xs, np.zeros_like(xs), CloudProvenance("M2", "zeros", None, 50, 0.0))
        result = wl.correlation_dimension(cloud, [2.0**-k for k in range(5, 13)], seed=32)
        assert 0.61 <= result.slope <= 0.71
