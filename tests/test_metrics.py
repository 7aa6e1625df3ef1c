"""Empirical geometry: clouds, box counting, Hoelder estimators, probes."""

import math
import tracemalloc

import numpy as np
import pytest

import wtf_lab as wl
from wtf_lab import metrics
from wtf_lab import (
    BadConfig,
    BudgetExceeded,
    CloudProvenance,
    DegenerateFit,
    GraphCloud,
    InvalidTolerance,
    InversionFailed,
    NotBranchConstant,
    NotNormalised,
    NotInPartition,
    OscillationUnderflow,
    PotentialSpec,
    ThetaSequence,
)
from wtf_lab.dynamics import _birkhoff_sums_from_counts, _walk, cylinder_bounds_many, point_of_word
from wtf_lab.graph import _oscillations
from wtf_lab.thermo import gibbs_sample, sample_words
from wtf_lab.verify import _lifted_probe_cloud, moran_oracle, s1_family


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
            lo, hi = cylinder_bounds_many(m2, wl.code_of(m2, float(x), 10)[None, :])
            assert lo[0] - 1e-12 <= x <= hi[0] + 1e-12

    def test_budget(self, m1, zeros, monkeypatch):
        monkeypatch.setenv("WTF_LAB_BUDGET", "1000")
        with pytest.raises(BudgetExceeded):
            wl.sample_graph(m1, zeros, depth=10, per_cylinder=4)
        # a depth past the budget's bit length is refused before 2**depth is
        # formed; it raised ValueError from formatting that power
        with pytest.raises(BudgetExceeded):
            wl.sample_graph(m1, zeros, depth=10**7, per_cylinder=1)

    @pytest.mark.parametrize("depth, per_cylinder", [(-1, 4), (3, 0), (3, -1)])
    def test_bad_sizes_refused(self, m1, zeros, depth, per_cylinder):
        # per_cylinder 0 or -1 returned an empty cloud, depth -1 failed
        # inside with "shift must be nonnegative"
        for restrict in (False, True):
            with pytest.raises(ValueError, match="(depth must be >= 0|per_cylinder must be >= 1), got -?[01]"):
                wl.sample_graph(m1, zeros, depth, per_cylinder, restrict_to_repeller=restrict)

    def test_csv_roundtrip_bit_exact(self, m2, zeros, tmp_path):
        cloud = wl.sample_graph(m2, zeros, depth=6, per_cylinder=3, tol=1e-8)
        path = tmp_path / "cloud.csv"
        wl.write_cloud_csv(cloud, path)
        back = wl.read_cloud_csv(path)
        assert np.array_equal(cloud.x, back.x)
        assert np.array_equal(cloud.y, back.y)
        assert back.provenance == cloud.provenance
        assert path.read_text().splitlines()[0] == "x,y"

    @pytest.mark.parametrize("sidecar", ["[1]", '{"bogus": 1}', '{"model_id": "M1"}', "not json"],
                             ids=["list", "unknown_field", "missing_fields", "not_json"])
    def test_malformed_sidecar_refused(self, m1, zeros, tmp_path, sidecar):
        # each raised TypeError or JSONDecodeError
        path = tmp_path / "cloud.csv"
        wl.write_cloud_csv(wl.sample_graph(m1, zeros, depth=3, per_cylinder=1), path)
        (tmp_path / "cloud.csv.meta.json").write_text(sidecar)
        with pytest.raises(BadConfig, match="sidecar"):
            wl.read_cloud_csv(path)


def _mp_W_dyadic(x, theta, terms):
    """W_theta(x) on M1 at 40 digits for a dyadic x: the orbit 2^n x mod 1 is
    exact and reaches 0, where cos(2 pi theta_n) alone is left.  With theta
    = 0 the rest is the geometric tail lam^n / (1 - lam); else ``terms`` terms."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        lam, two_pi = mpmath.mpf(0.7), 2 * mpmath.pi
        u, total, weight = mpmath.mpf(x), mpmath.mpf(0), mpmath.mpf(1)
        for n in range(terms):
            if theta is None and u == 0:
                return total + weight / (1 - lam)
            total += weight * mpmath.cos(two_pi * (u + (0 if theta is None else mpmath.mpf(theta[n]))))
            weight *= lam
            u = 2 * u - mpmath.floor(2 * u)
        return total


def _level_order_cloud(sys, t, theta, depth, tol):
    """Reference pull-back: the whole walk one level at a time, each level's
    y from the level before, y <- lambda(u) y + g(u + theta_k)."""
    u = np.asarray(t, dtype=float)
    y, _, _ = wl.eval_W_many(sys, u, theta.shift(depth), tol)
    for k in range(depth - 1, -1, -1):
        level = [br.inverse(u) for br in sys.branches]
        y = np.concatenate([sys.lam_at(v) * y + sys.g(v + theta[k]) for v in level])
        u = np.concatenate(level)
    return u, y


class TestPullBackCloud:
    def test_m1_grid_within_1e_10_of_mpmath(self, m1, zeros):
        # depth 17 x 4 at tol 1e-8: a pulled-back value carries the base
        # error times 0.7^17, the forward sum the whole 1e-8
        cloud = wl.sample_graph(m1, zeros, depth=17, per_cylinder=4, tol=1e-8)
        total = 2**17 * 4
        assert cloud.x.tobytes() == (np.arange(total, dtype=float) / total).tobytes()
        pick = np.random.default_rng(41).choice(total, 128, replace=False)
        err = max(abs(cloud.y[i] - float(_mp_W_dyadic(cloud.x[i], None, 64))) for i in pick)
        assert err <= 1e-10

    def test_m1_grid_iid_theta_within_1e_10_of_mpmath(self, m1):
        theta = ThetaSequence.iid_uniform(901)
        cloud = wl.sample_graph(m1, theta, depth=17, per_cylinder=4, tol=1e-8)
        shifts = theta.block(0, 260)  # 0.7^260 / 0.3 < 1e-40
        pick = np.random.default_rng(43).choice(len(cloud), 6, replace=False)
        err = max(abs(cloud.y[i] - float(_mp_W_dyadic(cloud.x[i], shifts, 260))) for i in pick)
        assert err <= 1e-10

    @pytest.mark.parametrize("depth,per", [(10, 3), (5, 20)])
    def test_restricted_matches_level_order_walk(self, systems, monkeypatch, depth, per):
        # 256-point blocks: depth 10 walks 6 levels on all 3 start values and
        # 4 on chunks of 16 rows, depth 5 walks 3 levels on all 20 and 2 on
        # chunks of 64 rows; the bits are the unchunked walk's
        monkeypatch.setattr(wl.dynamics, "_EVAL_BLOCK", 256)
        mixed = wl.validate_system({"branches": [
            {"domain": [0.0, 0.4], "slope": -2.5, "offset": 1.0},
            {"domain": [0.6, 1.0], "slope": 2.5, "offset": -1.5}], "lambda": 0.7})
        t = (np.arange(per) + 0.5) / per
        for sys in [*systems.values(), mixed]:
            for theta in (ThetaSequence.zeros(), ThetaSequence.iid_uniform(depth)):
                cloud = wl.sample_graph(sys, theta, depth, per, 1e-8, restrict_to_repeller=True)
                assert cloud.x.tobytes() == np.sort(_walk(sys, t, depth)).tobytes()
                u, y = _level_order_cloud(sys, t, theta, depth, 1e-8)
                order = np.argsort(u, kind="stable")
                assert cloud.y.tobytes() == y[order].tobytes()

    def test_m1_grid_matches_level_order_walk(self, m1, monkeypatch):
        monkeypatch.setattr(wl.dynamics, "_EVAL_BLOCK", 256)
        for per in (1, 4, 5):
            theta = ThetaSequence.iid_uniform(per)
            cloud = wl.sample_graph(m1, theta, 9, per, 1e-8)
            u, y = _level_order_cloud(m1, np.arange(per) / per, theta, 9, 1e-8)
            assert cloud.x.tobytes() == u.tobytes()
            assert cloud.y.tobytes() == y.tobytes()

    @pytest.mark.parametrize("name, depth, calls", [("M5", 14, 20), ("M2", 16, 76)])
    def test_restricted_walk_chunks_only_past_the_block(self, systems, monkeypatch, name,
                                                        depth, calls):
        # 4 start values walk together while a level holds at most 2^14
        # points (12 levels), and only the last levels run on row chunks:
        # 12 + 4 * 2 and 12 + 16 * 4 level calls, where each start value
        # walked alone past 14 levels made 4 * 14 and 2 + 16 * 14.  x and y
        # keep the level-order walk's bits
        sys, theta = systems[name], ThetaSequence.iid_uniform(6)
        sizes, preimages = [], wl.dynamics._preimages
        monkeypatch.setattr(wl.dynamics, "_preimages",
                            lambda s, d, x: sizes.append(np.size(x)) or preimages(s, d, x))
        cloud = wl.sample_graph(sys, theta, depth, 4, 1e-8, restrict_to_repeller=True)
        assert len(sizes) == calls and max(sizes) * sys.ell <= 2**14
        u, y = _level_order_cloud(sys, (np.arange(4) + 0.5) / 4, theta, depth, 1e-8)
        order = np.argsort(u, kind="stable")
        assert cloud.x.tobytes() == u[order].tobytes() and cloud.y.tobytes() == y[order].tobytes()

    def test_other_grids_stay_forward(self, systems):
        # M1 with 3 points per cylinder: the walk from j / 3 misses the grid
        # k / (3 * 2^n) in the last bit, so the series is summed forward
        triadic = wl.validate_system({"branches": {"family": "ell_adic", "ell": 3}, "lambda": 0.5})
        for sys, per in ((systems["M5"], 4), (systems["M2"], 4), (systems["M1"], 3), (triadic, 2)):
            for theta in (ThetaSequence.zeros(), ThetaSequence.iid_uniform(3)):
                cloud = wl.sample_graph(sys, theta, 8, per, 1e-8)
                total = sys.ell**8 * per
                assert cloud.x.tobytes() == (np.arange(total, dtype=float) / total).tobytes()
                y, _, _ = wl.eval_W_many(sys, cloud.x, theta, 1e-8)
                assert cloud.y.tobytes() == y.tobytes()


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

    @pytest.mark.parametrize("scales", [[0.1] * 6, [2.0**-k for k in range(2, 9)] + [2.0**-5]],
                             ids=["all_equal", "one_repeat"])
    def test_repeated_scale_refused(self, line_cloud, scales):
        # six equal scales left the fit no spread: ZeroDivisionError
        with pytest.raises(ValueError, match="distinct"):
            wl.box_dimension(line_cloud, scales)

    def test_empty_cloud_refused(self, line_cloud):
        cloud = GraphCloud(np.empty(0), np.empty(0), line_cloud.provenance)
        with pytest.raises(ValueError, match="non-empty"):
            wl.box_dimension(cloud, [2.0**-k for k in range(2, 10)])

    @pytest.mark.parametrize("drop", [(2, -3), (-1, 2)])
    def test_negative_drop_refused(self, line_cloud, drop):
        # a negative entry would widen the fit window past the ends of the
        # scale list
        with pytest.raises(ValueError, match=">= 0"):
            wl.box_dimension(line_cloud, [2.0**-k for k in range(2, 10)], drop=drop)

    @pytest.mark.parametrize("drop", [(2.5, 2), (2, 2.0), (2, "2")])
    def test_non_integer_drop_refused(self, line_cloud, drop):
        # a fractional count of dropped scales has no meaning; it ended in a
        # TypeError from range
        with pytest.raises(ValueError, match="integers"):
            wl.box_dimension(line_cloud, [2.0**-k for k in range(2, 10)], drop=drop)


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
        # reference: the per-depth route through the public pieces
        # (_holder_reference), bit for bit
        depths = range(2, 21)
        for name in ("M1", "M3", "M5"):
            sys = systems[name]
            words = np.random.default_rng(29).integers(0, 2, size=(3, 24)).astype(np.uint8)
            for x in point_of_word(sys, words, 0.5).tolist():
                expected = float(_holder_reference(sys, [x], zeros, list(depths), 128, 1e-12)[0])
                assert wl.holder_oscillation(sys, x, zeros, depths, 128, 1e-12) == expected

    def test_oscillations_match_oscillation_over(self, systems, monkeypatch):
        # the bases of one walk of 1/2 give every point and depth the
        # oscillation of its own oscillation_over call and the cylinder
        # length of its own cylinder_bounds_many call, bit for bit
        calls = []

        def record(sys, word_sets, theta, probes, tol, _curve=None):
            pairs = oscillations(sys, word_sets, theta, probes, tol, _curve)
            for words, (osc, length) in zip(word_sets, pairs):
                calls.append((words.copy(), osc, length))
                yield osc, length

        oscillations = metrics._oscillations
        monkeypatch.setattr(metrics, "_oscillations", record)
        for name in ("M1", "M3", "M5"):
            sys = systems[name]
            words = np.random.default_rng(31).integers(0, 2, size=(4, 30)).astype(np.uint8)
            xs = point_of_word(sys, words, 0.5)
            for theta in (ThetaSequence.zeros(), ThetaSequence.iid_uniform(11)):
                calls.clear()
                wl.holder_oscillation_many(sys, xs, theta, range(3, 16), 64, 1e-12)
                assert [w.shape[1] for w, _, _ in calls] == [3] + list(range(9, 16))
                for rows, osc, length in calls:
                    ref = [wl.oscillation_over(sys, w, theta, probes=64, tol=1e-12) for w in rows]
                    assert osc.tolist() == ref, (name, rows.shape)
                    lo, hi = cylinder_bounds_many(sys, rows)
                    assert length.tolist() == (hi - lo).tolist(), (name, rows.shape)

    def test_depth_range_within_budget(self, m1, zeros):
        # a range of depths is bounded before it is listed; sorting this one
        # raised MemoryError
        with pytest.raises(BudgetExceeded):
            wl.holder_oscillation_many(m1, [0.1], zeros, range(1, 10**15))

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

    @pytest.mark.parametrize("depths, message", [(range(-3, 5), "depth must be >= 1"),
                                                 (range(0, 5), "depth must be >= 1"),
                                                 ([5, 5], "two distinct depths"),
                                                 ([5], "two distinct depths")])
    def test_invalid_depths_refused(self, m1, zeros, depths, message):
        # a negative depth sliced columns off the end of each word (0.582 on
        # range(-3, 5)), depth 0 read 0.264, and [5, 5] gave NaN with a warning
        with pytest.raises(ValueError, match=message):
            wl.holder_oscillation_many(m1, [0.3], zeros, depths)


STEEP_SINE = {"id": "S3", "branches": {"family": "doubling_plus_sine", "ell": 3, "eps": 0.3},
              "lambda": 0.95}


def _holder_reference(sys, xs, theta, depths, probes, tol):
    """holder_oscillation_many from the per-depth public pieces: per depth,
    code_of, oscillation_over and a one-row cylinder_bounds_many per point,
    the refusals in the same order (oscillation underflow, then an
    unresolved cylinder, then a zero length), libm logs."""
    def logs(n):
        words = [wl.code_of(sys, x, n) for x in xs]
        osc = [wl.oscillation_over(sys, w, theta, probes, tol) for w in words]
        if min(osc) < 10.0 * tol:
            raise OscillationUnderflow(f"depth {n}")
        length = []
        for w in words:
            lo, hi = cylinder_bounds_many(sys, w[None, :])
            length.append(float(hi[0] - lo[0]))
        if min(length) <= 0.0:
            raise OscillationUnderflow(f"depth {n}")
        return np.array([math.log(v) for v in osc]), np.array([math.log(v) for v in length])

    cluster = depths[-min(7, len(depths) - 1):]
    y_lo, x_lo = logs(depths[0])
    y_hi = x_hi = 0.0
    for n in cluster:
        lg_osc, lg_len = logs(n)
        y_hi = y_hi + lg_osc
        x_hi = x_hi + lg_len
    return np.clip((y_hi / len(cluster) - y_lo) / (x_hi / len(cluster) - x_lo), 1e-12, 1.0)


def _outcome(fn):
    """fn()'s bytes, or the type of the lab error it raises."""
    try:
        return fn().tobytes()
    except wl.WtfLabError as exc:
        return type(exc)


class TestOscillationSuffixWalk:
    """_oscillations composes each digit suffix once, over a walk of the
    probe tails and the ends 0 and 1; every oscillation, cylinder length
    and exponent keeps the bits of the per-word route."""

    @pytest.fixture(scope="class")
    def cases(self, systems):
        # (system, depths, repeller points): depth-30 (ell = 3: depth-16)
        # cylinder midpoints whose cylinders are resolved
        out = []
        for sys in (systems["M1"], systems["M3"], systems["M5"], wl.validate_system(STEEP_SINE)):
            depth = 30 if sys.ell == 2 else 16
            words = np.random.default_rng(37).integers(0, sys.ell, size=(40, depth)).astype(np.uint8)
            lo, hi = cylinder_bounds_many(sys, words)
            xs = point_of_word(sys, words[(hi - lo) >= 1e-14][:sys.ell**2 + 1], 0.5)
            out.append((sys, [2, 9, 14, 20] if sys.ell == 2 else [2, 8, 14], xs))
        return out

    @pytest.mark.parametrize("theta", [ThetaSequence.zeros(), ThetaSequence.iid_uniform(13)],
                             ids=["zeros", "iid"])
    def test_holder_matches_per_depth_reference(self, cases, theta):
        # point counts 1, ell^j - 1, ell^j and ell^j + 1 for j = 2: the walk
        # covers 0, 1, 2 and 2 suffix columns
        for sys, depths, xs in cases:
            for count in (1, sys.ell**2 - 1, sys.ell**2, sys.ell**2 + 1):
                got = wl.holder_oscillation_many(sys, xs[:count], theta, depths, 16, 1e-12)
                ref = _holder_reference(sys, xs[:count], theta, depths, 16, 1e-12)
                assert got.tobytes() == ref.tobytes(), (sys.model_id, count)

    @pytest.mark.parametrize("theta", [ThetaSequence.zeros(), ThetaSequence.iid_uniform(13)],
                             ids=["zeros", "iid"])
    def test_oscillations_match_per_word_reference(self, systems, theta):
        # deep words (70 > 64 digits) take their probes from the first 64
        # digits and their ends from all 70
        rng = np.random.default_rng(41)
        for sys, n_list in ((systems["M1"], (1, 12, 70)), (systems["M3"], (3, 70)),
                            (systems["M5"], (1, 25)), (wl.validate_system(STEEP_SINE), (2, 12))):
            for n in n_list:
                for count in (1, sys.ell**2 - 1, sys.ell**2, sys.ell**2 + 1):
                    words = rng.integers(0, sys.ell, size=(count, n)).astype(np.uint8)
                    [(osc, length)] = _oscillations(sys, [words], theta, 16, 1e-12)
                    ref = [wl.oscillation_over(sys, w, theta, 16, 1e-12) for w in words]
                    assert osc.tolist() == ref, (sys.model_id, n, count)
                    lo, hi = cylinder_bounds_many(sys, words)
                    assert length.tobytes() == (hi - lo).tobytes(), (sys.model_id, n, count)

    def test_many_matrices_match_one_matrix_calls(self, systems):
        # one call over matrices of several depths and counts gives each
        # matrix the bits of its own one-matrix call
        rng = np.random.default_rng(43)
        for sys in (systems["M1"], systems["M5"], wl.validate_system(STEEP_SINE)):
            for theta in (ThetaSequence.zeros(), ThetaSequence.iid_uniform(13)):
                word_sets = [rng.integers(0, sys.ell, size=(count, n)).astype(np.uint8)
                             for count, n in ((1, 1), (5, 12), (3, 12), (sys.ell**2, 2), (2, 16))]
                pairs = list(_oscillations(sys, word_sets, theta, 16, 1e-12))
                assert len(pairs) == len(word_sets)
                for words, got in zip(word_sets, pairs):
                    [alone] = _oscillations(sys, [words], theta, 16, 1e-12)
                    for a, b in zip(got, alone):
                        assert a.shape == (len(words),) and a.tobytes() == b.tobytes()

    def test_argument_errors_come_before_any_depth(self, m2, zeros):
        # M2's gap point 1/2 leaves the partition at once, but a tolerance or
        # probe count that the probe bases refuse is refused first
        with pytest.raises(InvalidTolerance):
            wl.holder_oscillation_many(m2, [0.5], zeros, range(2, 5), 16, 0.0)
        with pytest.raises(ValueError, match="probes must be >= 2"):
            wl.holder_oscillation_many(m2, [0.5], zeros, range(2, 5), 1, 1e-12)
        with pytest.raises(NotInPartition):
            wl.holder_oscillation_many(m2, [0.5], zeros, range(2, 5), 16, 1e-12)

    @pytest.mark.parametrize("model, depths, x", [("M5", range(2, 41), 0.3),
                                                  ("M1", range(60, 71), 1e-17),
                                                  ("M1", range(50, 71), 0.0)])
    def test_refusals_and_deep_ends_match_reference(self, systems, zeros, model, depths, x):
        # M5 past depth ~38 refuses an unresolved cylinder after the
        # oscillation check; M1's deep cylinders near 0 take their lengths
        # from every digit, not the 64 of the probes
        sys = systems[model]
        got = _outcome(lambda: wl.holder_oscillation_many(sys, [x], zeros, depths))
        ref = _outcome(lambda: _holder_reference(sys, [x], zeros, list(depths), 128, 1e-12))
        assert got == ref
        assert (got is InversionFailed) == (model == "M5")


class TestEmpiricalSpectrum:
    def test_m3_critical_and_ordered(self, m3):
        rows = wl.empirical_spectrum(m3, [0.0, 3.0], samples_per_q=4000,
                                     birkhoff_depth=1500, seed=77)
        (q0, hat0, pred0, _), (q3, hat3, pred3, _) = rows
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
        for _, hat, pred, _ in rows:
            assert hat == pytest.approx(0.5, abs=1e-6)
            assert pred == pytest.approx(0.5, abs=1e-6)

    def test_counts_from_their_law_without_uniforms(self, m3, monkeypatch):
        # q_j's row reads the mean and standard error of the exponents of
        # sample_digit_counts(..., seed + j), and no uniform is drawn; numpy's
        # Generator is an immutable type, so the patch wraps default_rng
        real = np.random.default_rng

        class NoUniforms:
            def __init__(self, seed):
                self.rng = real(seed)

            def random(self, *args, **kwargs):
                raise AssertionError("empirical_spectrum drew uniforms")

            def __getattr__(self, name):
                return getattr(self.rng, name)

        monkeypatch.setattr(np.random, "default_rng", NoUniforms)
        rows = wl.empirical_spectrum(m3, [-1.0, 2.0], samples_per_q=700,
                                     birkhoff_depth=90, seed=12)
        monkeypatch.undo()
        for j, (q, hat, _, stderr) in enumerate(rows):
            pot = PotentialSpec(-wl.A_of_q(m3, q), q)
            counts = wl.thermo.sample_digit_counts(m3, pot, 90, 700, 12 + j)
            u, v = _birkhoff_sums_from_counts(m3, counts)
            assert hat.hex() == float(np.mean(-v / u)).hex()
            assert stderr == float(np.std(-v / u, ddof=1)) / math.sqrt(700)

    def test_not_branch_constant_refused_before_drawing(self, m5, monkeypatch):
        # M5 spent about a second in the Markov sampler before refusing
        def no_draws(seed):
            raise AssertionError("empirical_spectrum drew a sample")

        monkeypatch.setattr(np.random, "default_rng", no_draws)
        with pytest.raises(NotBranchConstant):
            wl.empirical_spectrum(m5, [0.0], 10, 5, 1)

    @pytest.mark.parametrize("samples, depth", [(0, 5), (10, 0), (1, 5)])
    def test_empty_sample_refused(self, m3, samples, depth):
        # these read alpha_hat = NaN with a RuntimeWarning; one row has no
        # standard error
        with pytest.raises(ValueError, match=">= 1"):
            wl.empirical_spectrum(m3, [0.0], samples, depth, 1)

    @pytest.mark.parametrize("samples, depth, seed", [(10.5, 5, 1), (10, 5.0, 1), (10, 5, 1.5)])
    def test_non_integer_arguments_refused(self, m3, samples, depth, seed):
        # these raised TypeError; a float depth would reach rng.multinomial,
        # which truncates it
        with pytest.raises(ValueError, match="must be an integer"):
            wl.empirical_spectrum(m3, [0.0], samples, depth, seed)


@pytest.fixture(scope="module")
def lifted_probe_clouds(m1, m2):
    """Criterion 8's two clouds with its radii and seed: M1's nu1 draws on
    the iid-randomised graph from the criterion's own _lifted_probe_cloud,
    and M2's q = 0 draws on the repeller."""
    lifted = _lifted_probe_cloud(m1)
    pot = PotentialSpec(-moran_oracle(m2, "A_of_q", q=0.0), 0.0)
    xs = gibbs_sample(m2, pot, depth=50, count=10**5, seed=4181)[1]
    base = GraphCloud(xs, np.zeros_like(xs), CloudProvenance("M2", "zeros", None, 50, 0.0))
    return {"lifted": (lifted, [2.0**-k for k in range(2, 9)], 31),
            "base": (base, [2.0**-k for k in range(5, 13)], 32)}


def _full_array_correlations(cloud, radii, seed):
    """Reference C(r): every pair's int64 indices, coordinates and distance
    as whole arrays, then the fraction (d <= r).mean() per radius."""
    rng = np.random.default_rng(seed)
    i = rng.integers(0, len(cloud), size=10**6)
    j = rng.integers(0, len(cloud) - 1, size=10**6)
    j = np.where(j >= i, j + 1, j)
    d = np.hypot(wl.torus_distance(cloud.x[i], cloud.x[j]), cloud.y[i] - cloud.y[j])
    return np.array([(d <= r).mean() for r in sorted(radii)])


class TestLiftedProbeCloud:
    def test_pulled_back_ys_keep_the_seed_31_counts(self, m1, lifted_probe_clouds):
        # x has gibbs_sample's bits; y is within 1e-13 of a 107-term series
        # where the 56-term forward sum it replaced was 2.2e-9 off, and the
        # pair counts, so both slopes and the detail line, did not move
        cloud, radii, seed = lifted_probe_clouds["lifted"]
        xs = gibbs_sample(m1, s1_family(moran_oracle(m1, "s1")), 50, 10**5, 90210)[1]
        assert cloud.x.tobytes() == xs.tobytes()
        counts = metrics._pair_counts(cloud, sorted(radii), seed)
        assert counts.tolist() == [192, 490, 1471, 4068, 11806, 32347, 91999]
        theta = ThetaSequence.iid_uniform(777)
        ref, n_terms, _ = wl.eval_W_many(m1, xs, theta, tol=1e-16)
        forward, _, _ = wl.eval_W_many(m1, xs, theta, tol=1e-8)
        assert n_terms == 107
        assert np.max(np.abs(cloud.y - ref)) <= 1e-13
        assert np.max(np.abs(forward - ref)) > 2e-9

    def test_peak_memory_at_most_forward_route(self, m1):
        # the route it replaced (gibbs_sample, then eval_W_many) peaked at
        # 10.5 MB; a (count, 16) int64 matrix of suffix digits would add 12.8 MB
        tracemalloc.start()
        try:
            _lifted_probe_cloud(m1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 10.5e6

    def test_unnormalised_potential_refused(self, m1, monkeypatch):
        # gibbs_sample's refusal, before any draw
        monkeypatch.setattr(wl.verify, "moran_oracle", lambda sys, key: 0.9)
        monkeypatch.setattr(wl.verify, "sample_words", None)
        with pytest.raises(NotNormalised):
            _lifted_probe_cloud(m1)


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

    def test_non_integer_seed_refused(self, line_cloud):
        # rng.integers raised TypeError from the seed
        with pytest.raises(ValueError, match="seed must be an integer"):
            wl.correlation_dimension(line_cloud, [2.0**-k for k in range(1, 7)], seed=1.5)

    @pytest.mark.parametrize("bad", [math.inf, math.nan, 0.0, -0.25])
    def test_bad_radius_refused(self, bad):
        # an infinite radius read slope NaN with no warning; NaN and
        # non-positive radii were dropped as radii with zero pair counts
        rng = np.random.default_rng(5)
        cloud = GraphCloud(rng.random(2000), rng.random(2000),
                           CloudProvenance("b", "zeros", None, 0, 0.0))
        with pytest.raises(ValueError, match="finite and positive"):
            wl.correlation_dimension(cloud, [2.0**-k for k in range(1, 7)] + [bad])

    @pytest.mark.parametrize("radii", [[0.1] * 5, [2.0**-k for k in range(1, 7)] + [0.25]],
                             ids=["all_equal", "one_repeat"])
    def test_repeated_radius_refused(self, radii):
        rng = np.random.default_rng(5)
        cloud = GraphCloud(rng.random(2000), rng.random(2000),
                           CloudProvenance("b", "zeros", None, 0, 0.0))
        with pytest.raises(ValueError, match="distinct"):
            wl.correlation_dimension(cloud, radii)

    def test_torus_metric_uniform_slope(self):
        # pairs that wrap around x = 0/1 count at their torus distance
        # min(|dx|, 1-|dx|), so a uniform square still reads slope 2
        rng = np.random.default_rng(6)
        cloud = GraphCloud(rng.random(20_000), rng.random(20_000),
                           CloudProvenance("u", "zeros", None, 0, 0.0))
        radii = [2.0**-k for k in range(2, 8)]
        d_min = wl.correlation_dimension(cloud, radii, seed=1).slope
        assert d_min == pytest.approx(2.0, abs=0.15)

    @pytest.mark.parametrize("name", ["lifted", "base"])
    @pytest.mark.parametrize("shift", [0, 1, 2])
    def test_blocked_counts_match_full_arrays(self, lifted_probe_clouds, name, shift):
        # criterion 8's seed and two more: every C(r), so the fit too, keeps its bits
        cloud, radii, seed = lifted_probe_clouds[name]
        result = wl.correlation_dimension(cloud, radii, seed=seed + 17 * shift)
        expected = _full_array_correlations(cloud, radii, seed + 17 * shift)
        assert np.array(result.correlations).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("n", [1000, 10**5, 2**31 - 1])
    def test_int32_draws_equal_int64(self, n):
        draw = {dt: np.random.default_rng(31).integers(0, n, size=10**5, dtype=dt)
                for dt in (np.int32, np.int64)}
        assert np.array_equal(draw[np.int32], draw[np.int64])

    def test_peak_memory_bounded(self):
        # the full-array form held 10^6 int64 index pairs, gathered
        # coordinates and distances at once: a 53 MB peak
        rng = np.random.default_rng(8)
        cloud = GraphCloud(rng.random(10**5), rng.random(10**5),
                           CloudProvenance("u", "zeros", None, 0, 0.0))
        tracemalloc.start()
        try:
            wl.correlation_dimension(cloud, [2.0**-k for k in range(1, 8)], seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 2**20

    @pytest.mark.parametrize("axis, bad", [("y", math.nan), ("x", math.inf)])
    def test_non_finite_cloud_refused(self, axis, bad):
        # 2,000 NaN y values of 20,000 read slope 1.98 with no warning:
        # a pair with a NaN distance is within no radius
        rng = np.random.default_rng(5)
        xy = {"x": rng.random(20_000), "y": rng.random(20_000)}
        xy[axis][::10] = bad
        cloud = GraphCloud(xy["x"], xy["y"], CloudProvenance("u", "zeros", None, 0, 0.0))
        with pytest.raises(ValueError, match="finite points"):
            wl.correlation_dimension(cloud, [2.0**-k for k in range(1, 8)], seed=1)

    def test_m2_base_gibbs_cloud(self, m2):
        a0 = wl.moran_oracle(m2, "A_of_q", q=0.0)
        digits = sample_words(m2, PotentialSpec(-a0, 0.0), depth=50, count=30_000, seed=4181)
        xs = point_of_word(m2, digits, 0.5)
        cloud = GraphCloud(xs, np.zeros_like(xs), CloudProvenance("M2", "zeros", None, 50, 0.0))
        result = wl.correlation_dimension(cloud, [2.0**-k for k in range(5, 13)], seed=32)
        assert 0.61 <= result.slope <= 0.71
