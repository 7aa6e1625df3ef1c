"""Pressure, Bowen roots, spectrum, Gibbs machinery, dimension predictors.

Frozen targets are closed forms evaluated independently (full-shift pressure
log sum exp(phi_i); bisection on the Moran equation sum r_i^A lam_i^q = 1):

    M1: s1 = 2 + ln 0.7/ln 2          = 1.4854268271702415
        s2 = ln 2 / (-ln 0.7)         = 1.9433582098747315
        alpha_c = -ln 0.7 / ln 2      = 0.5145731728297583
    M2: s1 = 1 + (ln2 + ln .45)/ln(1/.35) = 0.8996396501853691
        s2 = ln 2 / (-ln .45)         = 0.8680532245877164
        dim J = ln 2 / ln(1/.35)      = 0.6602520221136932
        alpha(nu_2) = ln .45/ln .35   = 0.7606123719283242
    M3: A_0 = 0.7023801913390276, alpha_c = 0.613744318754433
        h(nu_0) = 0.6831108, chi(nu_0) = 0.9725656
        alpha range (0.446676901961204, 0.7610560044063083)
    M4: s1 = 1.1602520221136932, s2 = 1.3205040442273863
"""

import math
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import brentq
from scipy.special import logsumexp

import wtf_lab as wl
from wtf_lab import (
    BudgetExceeded,
    NoSignChange,
    NotBranchConstant,
    NotNormalised,
    PotentialSpec,
    TooFlat,
)
from wtf_lab.dynamics import (
    _birkhoff_sums_from_counts,
    _preimages,
    birkhoff_sums_along,
    cylinder_bounds_many,
)
from wtf_lab.thermo import (
    _branch_phi, _logsumexp, _nodes, _perron, aq_family, s1_family, s2_family)

M1_S1 = 1.4854268271702415
M1_S2 = 1.9433582098747315
M2_S1 = 0.8996396501853691
M2_S2 = 0.8680532245877164
M3_A0 = 0.7023801913390276
M3_ALPHA_C = 0.613744318754433
M4_S1 = 1.1602520221136932
# M5's map with lambda = 0.75 + 0.1 cos 2 pi x (a test system, not a bundled model)
M5_TRIG_LAMBDA = {**wl.model_spec("M5"), "id": "M5_trig_lambda",
                  "lambda": {"kind": "trig", "c0": 0.75, "harmonics": [[1, 0.1, 0.0]]}}
# rho_1 of this map fixes the first 32-node Chebyshev point x0 exactly
X0 = 0.5 - 0.5 * math.cos(math.pi / 64)
NODE_ON_NODE = {"id": "node_on_node",
                "branches": [{"domain": [X0 / 2, X0 / 2 + 0.5], "slope": 2.0, "offset": -X0},
                             {"domain": [0.6, 1.0]}],
                "lambda": {"kind": "trig", "c0": 0.8, "harmonics": [[1, 0.1, 0.0]]}}


class TestPressure:
    def test_entropy_of_full_shift(self, m1):
        est = wl.pressure(m1, PotentialSpec(0.0, 0.0))
        assert est.value == pytest.approx(math.log(2), abs=1e-12)
        assert est.exact and est.error_bound == 0.0

    def test_branch_constant_closed_form(self, m2):
        est = wl.pressure(m2, PotentialSpec(0.0, 1.0))
        assert est.value == pytest.approx(math.log(2) + math.log(0.45), abs=1e-12)
        assert est.exact

    def test_nonlinear_full_branch(self, m5):
        # repeller is the whole circle, so the Bowen root of -s log|tau'| is 1
        # and the pressure of -log|tau'| is exactly 0: the bound must cover it
        est = wl.pressure(m5, PotentialSpec(-1.0, 0.0))
        assert not est.exact
        assert abs(est.value) <= est.error_bound <= 1e-10

    def test_m5_repeller_dimension_is_one(self, m5):
        assert wl.A_of_q(m5, 0.0) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("name", ["M1", "M2", "M3", "M4"])
    def test_operator_matches_moran_oracle(self, systems, name):
        # called directly, both node grids give the closed form
        sys = systems[name]
        for pot in (PotentialSpec(-1.0, 0.0), PotentialSpec(0.3, -2.0),
                    PotentialSpec(-5.0, 30.0), PotentialSpec(-0.7, 1.3, 0.2)):
            ref = wl.moran_oracle(sys, "pressure", pot=pot)
            for n in (16, 32):
                assert _perron(_nodes(sys, n), pot)[0] == pytest.approx(ref, abs=1e-12), pot

    def test_trig_lambda_system(self):
        # M5's map with a non-constant lambda: neither observable is constant
        # on branches, and the s1 and s2 roots come from the operator alone
        sys = wl.validate_system(M5_TRIG_LAMBDA)
        for family in (s1_family, s2_family):
            est = wl.pressure(sys, family(wl.bowen_root(sys, family)))
            assert not est.exact
            assert abs(est.value) <= 1e-10 and est.error_bound <= 1e-9

    def test_operator_pulled_back_node_on_node(self):
        # rho_1 fixes the first 32-node x_0 exactly: its interpolation row is
        # the unit vector at x_0, not inf / inf
        sys = wl.validate_system(NODE_ON_NODE)
        interp = _nodes(sys, 32)[0]
        assert interp[0, 0, 0] == 1.0 and not interp[0, 0, 1:].any()
        est = wl.pressure(sys, PotentialSpec(-0.5, 1.0))
        assert math.isfinite(est.value) and est.error_bound <= 1e-10

    def test_additive_constant_slope(self, m3, m5):
        for sys in (m3, m5):
            base = wl.pressure(sys, PotentialSpec(-0.4, 0.7)).value
            shifted = wl.pressure(sys, PotentialSpec(-0.4, 0.7, 0.31)).value
            assert shifted - base == pytest.approx(0.31, abs=1e-10)


def _grid_reference(sys, n):
    """The n-node transfer-operator grid as CookieCutterSystem.transfer_nodes
    built it before thermo._nodes took it over."""
    angle = (2 * np.arange(n) + 1) * (math.pi / (2 * n))
    x = 0.5 - 0.5 * np.cos(angle)
    y = _preimages(sys, np.arange(sys.ell)[:, None], x)
    with np.errstate(divide="ignore", invalid="ignore"):
        b = (-1.0) ** np.arange(n) * np.sin(angle) / (y[:, :, None] - x)
        b /= b.sum(axis=2, keepdims=True)
    return np.nan_to_num(b, nan=1.0), *sys.log_terms(np.arange(sys.ell)[:, None], y)


class TestNodeGrids:
    def test_shared_by_value(self):
        # two validations of M5 are two systems with one grid per node count
        a, b = (wl.validate_system(wl.model_spec("M5")) for _ in range(2))
        assert a is not b
        assert _nodes(a, 32) is _nodes(b, 32) and _nodes(a, 16) is _nodes(b, 16)
        assert _nodes(a, 16) is not _nodes(a, 32)
        assert not any(array.flags.writeable for array in _nodes(a, 32))  # shared by every caller

    @pytest.mark.parametrize("name", ["M1", "M2", "M3", "M4", "M5", "M5_trig_lambda", "node_on_node"])
    def test_match_reference_bit_for_bit(self, systems, name):
        specs = {"M5_trig_lambda": M5_TRIG_LAMBDA, "node_on_node": NODE_ON_NODE}
        sys = systems[name] if name in systems else wl.validate_system(specs[name])
        for n in (16, 32):
            got, ref = _nodes(sys, n), _grid_reference(sys, n)
            assert [a.shape for a in got] == [(sys.ell, n, n), (sys.ell, n), (sys.ell, n)]
            for a, b in zip(got, ref):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (name, n)


class TestBowenRoots:
    @pytest.mark.parametrize("name,target_s1,target_s2", [
        ("M1", M1_S1, M1_S2),
        ("M2", M2_S1, M2_S2),
        ("M4", M4_S1, 1.3205040442273863),
    ])
    def test_closed_forms(self, systems, name, target_s1, target_s2):
        pred = wl.graph_dimension_prediction(systems[name])
        assert pred.s1 == pytest.approx(target_s1, abs=1e-9)
        assert pred.s2 == pytest.approx(target_s2, abs=1e-9)
        assert pred.box_dim == pred.s1
        assert pred.hausdorff_upper == min(pred.s1, pred.s2)

    def test_min_flags(self, m1, m2):
        assert wl.graph_dimension_prediction(m1).min_is == "s1"
        assert wl.graph_dimension_prediction(m2).min_is == "s2"

    def test_no_sign_change(self, m1):
        # Newton's method from s = 0 reaches a root far from it
        assert wl.bowen_root(m1, lambda s: s2_family(s - 7.0)) == pytest.approx(
            7.0 + wl.moran_oracle(m1, "s2"), abs=1e-9)
        # a positive constant pressure changes sign nowhere
        with pytest.raises(NoSignChange):
            wl.bowen_root(m1, lambda s: PotentialSpec(0.0, 0.0, 1.0))

    def test_too_flat(self, m1):
        # a sign change exists but the family barely moves the pressure
        def family(s):
            return PotentialSpec(0.0, 0.0, -math.log(2) + 1e-14 * (0.5 - s))
        with pytest.raises(TooFlat):
            wl.bowen_root(m1, family)

    def test_nan_pressure_is_too_flat(self, m1, monkeypatch):
        # a NaN pressure around the root is refused, not stepped from
        means = wl.thermo._equilibrium_means

        def nan_near_root(sys, pot, *directions):
            values = means(sys, pot, *directions)
            return (math.nan,) * len(values) if abs(pot.b - M1_S2) < 0.5 else values

        monkeypatch.setattr(wl.thermo, "_equilibrium_means", nan_near_root)
        with pytest.raises(TooFlat):
            wl.bowen_root(m1, s2_family)

    def test_root_residual_verified(self, m2):
        s1 = wl.bowen_root(m2, s1_family)
        assert abs(wl.pressure(m2, s1_family(s1)).value) <= 1e-10


class TestAq:
    def test_m3_bisection(self, m3):
        assert wl.A_of_q(m3, 0.0) == pytest.approx(M3_A0, abs=1e-9)

    def test_m2_linear_in_q(self, m2):
        # branch-constant: A_q = (ln2 + q ln .45)/ln(1/.35)
        for q in (-3.0, -1.0, 0.0, 2.0, 7.5):
            expected = (math.log(2) + q * math.log(0.45)) / math.log(1 / 0.35)
            assert wl.A_of_q(m2, q) == pytest.approx(expected, abs=1e-9)

    def test_m4_shift_identity(self, m4):
        # lambda = |tau'|^(-1/2) makes A_q = A_0 - q/2
        a0 = wl.A_of_q(m4, 0.0)
        assert wl.A_of_q(m4, 2.0) == pytest.approx(a0 - 1.0, abs=1e-9)

    def test_q_max_guard(self, m1):
        with pytest.raises(ValueError):
            wl.A_of_q(m1, 31.0)

    @pytest.mark.parametrize("name", ["M1", "M3", "M5"])
    def test_each_pressure_evaluated_once(self, systems, name, monkeypatch):
        # each Newton iterate is evaluated once, not again for the residual
        # (on M1 A_q is linear in the potential: one step lands on the root)
        seen = []
        means = wl.thermo._equilibrium_means

        def counting(sys, pot, *directions):
            seen.append(pot)
            return means(sys, pot, *directions)

        monkeypatch.setattr(wl.thermo, "_equilibrium_means", counting)
        wl.A_of_q(systems[name], 1.0)
        assert len(seen) == len(set(seen)) >= 2

    def test_convexity(self, m3):
        grid = np.arange(-6.0, 6.01, 0.5)
        a = np.array([wl.A_of_q(m3, float(q)) for q in grid])
        assert np.min(np.diff(a, 2)) >= -1e-6


class TestSpectrum:
    def test_m3_shape(self, m3):
        grid = [round(-3.0 + 0.25 * k, 2) for k in range(25)]
        curve = wl.spectrum(m3, grid)
        assert not curve.degenerate_flag
        assert curve.alpha_min == pytest.approx(0.446676901961204, abs=1e-6)
        assert curve.alpha_max == pytest.approx(0.7610560044063083, abs=1e-6)
        assert curve.alpha_c == pytest.approx(M3_ALPHA_C, abs=1e-5)
        q, a, alpha, dim = curve.as_arrays()
        assert np.max(np.abs(dim - (q * alpha + a))) == 0.0
        assert np.all(np.diff(alpha) <= 1e-6)
        order = np.argsort(alpha)
        slopes = np.diff(dim[order]) / np.diff(alpha[order])
        assert np.all(np.diff(slopes) <= 1e-6)

    def test_legendre_conjugate_consistency(self, m3):
        # with A_q convex and alpha = -A', the conjugate pairing is the inf:
        # D(alpha(q)) = inf_q' (q' alpha + A_q'), attained at q' = q
        grid = [round(-2.0 + 0.25 * k, 2) for k in range(17)]
        curve = wl.spectrum(m3, grid)
        q, a, alpha, dim = curve.as_arrays()
        for j in range(len(q)):
            conj = np.min(q * alpha[j] + a)
            assert dim[j] == pytest.approx(conj, abs=1e-4)

    def test_degenerate_flags(self, m1, m4):
        c1 = wl.spectrum(m1, [-1.0, 0.0, 1.0])
        assert c1.degenerate_flag
        assert c1.alpha_c == pytest.approx(0.5145731728297583, abs=1e-9)
        assert not c1.warnings  # cohomology diagnostic agrees
        c4 = wl.spectrum(m4, [-1.0, 0.0, 1.0])
        assert c4.degenerate_flag
        assert c4.alpha_c == pytest.approx(0.5, abs=1e-9)
        assert not c4.warnings

    def test_sorted_grid_required(self, m1):
        with pytest.raises(ValueError):
            wl.spectrum(m1, [1.0, -1.0])

    @pytest.mark.parametrize("name", ["M1", "M2", "M3", "M4"])
    def test_alpha_matches_moran_oracle(self, systems, name):
        sys = systems[name]
        grid = [round(-3.0 + 0.25 * k, 2) for k in range(25)]
        for q, _, alpha, _ in wl.spectrum(sys, grid).samples:
            assert alpha == pytest.approx(wl.moran_oracle(sys, "alpha_of_q", q=q), abs=1e-12), q

    def test_one_root_solve_per_q(self, m5, monkeypatch):
        seen = []
        A_of_q = wl.thermo.A_of_q

        def counting(sys, q):
            seen.append(q)
            return A_of_q(sys, q)

        monkeypatch.setattr(wl.thermo, "A_of_q", counting)
        wl.spectrum(m5, [-1.0, -0.5, 0.5, 0.5, 1.0])
        assert sorted(seen) == [-1.0, -0.5, 0.0, 0.5, 1.0]


class TestGibbs:
    def test_m1_s1_weights_symmetric(self, m1):
        # equal branch weights: the entropy of the fair coin
        s1 = wl.bowen_root(m1, s1_family)
        assert wl.measure_stats(m1, s1_family(s1)).entropy == pytest.approx(math.log(2), abs=1e-12)

    def test_not_normalised(self, m1):
        with pytest.raises(NotNormalised):
            wl.measure_stats(m1, PotentialSpec(0.0, 0.0))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("name", ["M3", "M5"])
    def test_gate_reads_equilibrium_pressure(self, systems, name, monkeypatch):
        # the gate takes P from _equilibrium_means, with no pressure call;
        # huge coefficients (an inf closed form on M3, a NaN operator on M5)
        # are refused without a warning
        sys = systems[name]
        pot = PotentialSpec(-wl.A_of_q(sys, 1.0), 1.0)
        want = wl.measure_stats(sys, pot)
        monkeypatch.setattr(wl.thermo, "pressure", None)
        assert wl.measure_stats(sys, pot) == want
        for a, b in ((1.7e308, 1.7e308), (1.7e308, -1.7e308), (0.0, -1.7e308)):
            with pytest.raises(NotNormalised):
                wl.measure_stats(sys, PotentialSpec(a, b))

    def test_sampling_frequency_and_determinism(self, m3):
        a0 = wl.A_of_q(m3, 0.0)
        pot = PotentialSpec(-a0, 0.0)
        digits, xs = wl.gibbs_sample(m3, pot, depth=50, count=20_000, seed=5)
        assert digits.dtype == np.uint8
        assert (digits == 0).mean() == pytest.approx(0.3**M3_A0, abs=0.005)
        again, xs_again = wl.gibbs_sample(m3, pot, depth=50, count=100, seed=5)
        assert np.array_equal(digits[:100], again)
        assert xs[:100].tolist() == xs_again.tolist()
        lo, hi = cylinder_bounds_many(m3, digits[:50, :12])
        assert np.all((lo - 1e-12 <= xs[:50]) & (xs[:50] <= hi + 1e-12))

    def test_m1_symmetric_sampling_frequency(self, m1):
        s1 = wl.bowen_root(m1, s1_family)
        digits, _ = wl.gibbs_sample(m1, s1_family(s1), depth=40, count=20_000, seed=8)
        assert (digits == 0).mean() == pytest.approx(0.5, abs=0.005)

    def test_markov_sampler_nonconstant_potential(self, m5):
        # normalise -log|tau'| by its pressure through the constant term
        p = wl.pressure(m5, PotentialSpec(-1.0, 0.0)).value
        pot = PotentialSpec(-1.0, 0.0, -p)
        digits, _ = wl.gibbs_sample(m5, pot, depth=12, count=4000, seed=9)
        # full-branch Lebesgue-like measure: digit frequencies near 1/2
        assert abs((digits == 0).mean() - 0.5) < 0.05

    @pytest.mark.parametrize("depth", [3, 8, 9, 20])
    def test_markov_sampler_matches_per_column_reference(self, m5, depth):
        # the first k digits from one base-ell decode and the state from the
        # joint index give the digits of the per-column loops, bit for bit
        pot = PotentialSpec(-1.0, 0.3)
        rng = np.random.default_rng(4)
        k = min(wl.thermo._MARKOV_DEPTH, depth)
        _, u, v = m5.tree(k)
        s = pot.a * u + pot.b * v
        w = np.exp(s - _logsumexp(s))
        ref = np.empty((50, depth), dtype=np.uint8)
        first = rng.choice(len(w), size=50, p=w / w.sum())
        for col in range(k - 1, -1, -1):
            ref[:, col] = first % m5.ell
            first //= m5.ell
        if depth > k:
            base = m5.ell ** (k - 1)
            cond = w.reshape(base, m5.ell)
            cum = np.cumsum(cond / cond.sum(axis=1, keepdims=True), axis=1)
            state = np.zeros(50, dtype=np.int64)
            for col in range(1, k):
                state = state * m5.ell + ref[:, col]
            for col in range(k, depth):
                ref[:, col] = (rng.random(50)[:, None] > cum[state]).sum(axis=1)
                state = (state % (base // m5.ell)) * m5.ell + ref[:, col]
        assert np.array_equal(wl.thermo.sample_words(m5, pot, depth, 50, 4), ref)


class TestMeasureStats:
    def test_m5_acim(self, m5):
        # -log|tau'| on the full-branch M5: the equilibrium state is the acim,
        # so dim = 1 and h = chi; chi is the a-derivative of the pressure, here
        # by a central difference, a route without the Perron vectors
        stats = wl.measure_stats(m5, PotentialSpec(-1.0, 0.0))
        assert abs(stats.dim - 1.0) <= 1e-10
        assert abs(stats.entropy - stats.lyapunov) <= 1e-12
        da = 1e-4
        chi = (wl.pressure(m5, PotentialSpec(-1.0 + da, 0.0)).value
               - wl.pressure(m5, PotentialSpec(-1.0 - da, 0.0)).value) / (2 * da)
        assert stats.lyapunov == pytest.approx(chi, abs=1e-7)

    def test_m1_uniform(self, m1):
        s1 = wl.bowen_root(m1, s1_family)
        stats = wl.measure_stats(m1, s1_family(s1))
        assert stats.entropy == pytest.approx(math.log(2), abs=1e-9)
        assert stats.lyapunov == pytest.approx(math.log(2), abs=1e-9)
        assert stats.dim == pytest.approx(1.0, abs=1e-9)

    def test_m3_critical(self, m3):
        a0 = wl.A_of_q(m3, 0.0)
        stats = wl.measure_stats(m3, PotentialSpec(-a0, 0.0))
        assert stats.entropy == pytest.approx(0.6831108, abs=1e-4)
        assert stats.lyapunov == pytest.approx(0.9725656, abs=1e-4)
        assert stats.dim == pytest.approx(M3_A0, abs=1e-9)
        assert stats.alpha == pytest.approx(M3_ALPHA_C, abs=1e-9)

    def test_m2_s2_measure(self, m2):
        s2 = wl.bowen_root(m2, s2_family)
        stats = wl.measure_stats(m2, s2_family(s2))
        assert stats.dim == pytest.approx(0.6602520221136932, abs=1e-9)
        assert stats.alpha == pytest.approx(0.7606123719283242, abs=1e-9)
        # s2 * (-mean log lambda) = entropy for the s2-equilibrium state
        assert s2 * (-stats.mean_log_lambda) == pytest.approx(stats.entropy, abs=1e-6)

    def test_entropy_cap(self, systems):
        for sys in systems.values():
            pred = wl.graph_dimension_prediction(sys)
            stats = wl.measure_stats(sys, s2_family(pred.s2))
            assert stats.entropy <= math.log(sys.ell) + 1e-12

    def test_identity_chain(self, m3):
        for q in (-2.0, -1.0, 0.0, 1.0, 2.0):
            a_q = wl.A_of_q(m3, q)
            alpha_q = -(wl.A_of_q(m3, q + 1e-3) - wl.A_of_q(m3, q - 1e-3)) / 2e-3
            stats = wl.measure_stats(m3, PotentialSpec(-a_q, q))
            assert stats.dim == pytest.approx(q * alpha_q + a_q, abs=2e-3)
            assert stats.alpha == pytest.approx(alpha_q, abs=1e-3)

    def test_s1_equals_one_plus_a1(self, m2):
        s1 = wl.bowen_root(m2, s1_family)
        assert s1 == pytest.approx(1.0 + wl.A_of_q(m2, 1.0), abs=1e-8)


class TestLift:
    def test_m1_nu1(self, m1):
        s1 = wl.bowen_root(m1, s1_family)
        stats = wl.measure_stats(m1, s1_family(s1))
        assert wl.lifted_dim_prediction(stats) == pytest.approx(M1_S1, abs=1e-9)

    def test_m2_nu2(self, m2):
        s2 = wl.bowen_root(m2, s2_family)
        stats = wl.measure_stats(m2, s2_family(s2))
        assert wl.lifted_dim_prediction(stats) == pytest.approx(M2_S2, abs=1e-9)

    def test_entropy_equals_neg_mean_log_lambda_gives_one(self):
        stats = wl.MeasureStats(entropy=0.5, lyapunov=1.0, mean_log_lambda=-0.5,
                                dim=0.5, alpha=0.5)
        assert stats.entropy / (-stats.mean_log_lambda) == 1.0

    def test_jin_examples(self, m4):
        assert wl.jin_upper(0.5, 0.5) == 1.0
        a0 = wl.A_of_q(m4, 0.0)
        assert wl.jin_upper(a0, 0.5) == pytest.approx(M4_S1, abs=1e-9)
        with pytest.raises(ValueError):
            wl.jin_upper(0.5, 0.0)
        with pytest.raises(ValueError):
            wl.jin_upper(1.5, 0.5)

    def test_lift_equals_jin_at_stats(self, m3):
        for q in (-2.0, 0.0, 1.5):
            a_q = wl.A_of_q(m3, q)
            stats = wl.measure_stats(m3, PotentialSpec(-a_q, q))
            assert wl.lifted_dim_prediction(stats) == pytest.approx(
                wl.jin_upper(stats.dim, stats.alpha), abs=1e-9)

    def test_jin_at_m3_critical_point(self, m3):
        a0 = wl.A_of_q(m3, 0.0)
        stats = wl.measure_stats(m3, PotentialSpec(-a0, 0.0))
        assert wl.jin_upper(a0, stats.alpha) == pytest.approx(1.0888, abs=2e-3)


class TestMoranOracle:
    def test_oracle_queries(self, m2):
        assert wl.moran_oracle(m2, "s1") == pytest.approx(M2_S1, abs=1e-10)
        assert wl.moran_oracle(m2, "s2") == pytest.approx(M2_S2, abs=1e-10)
        assert wl.moran_oracle(m2, "pressure", pot=PotentialSpec(0.0, 0.0)) == pytest.approx(
            math.log(2), abs=1e-12)

    def test_oracle_rejects_nonlinear(self, m5):
        with pytest.raises(NotBranchConstant):
            wl.moran_oracle(m5, "s1")

    def test_equivalence_spot_checks(self, systems):
        for name in ("M1", "M2", "M3", "M4"):
            sys = systems[name]
            for q in (-10.0, -2.5, 0.0, 4.0, 10.0):
                assert wl.A_of_q(sys, q) == pytest.approx(
                    wl.moran_oracle(sys, "A_of_q", q=q), abs=1e-6)

    @pytest.mark.filterwarnings("error")
    def test_narrow_branch_without_overflow(self):
        # branch ratio 0.05: r^A overflowed on a fixed [-300, 300] bracket
        sys = wl.validate_system({"branches": [{"domain": [0.0, 0.05]}, {"domain": [0.5, 1.0]}],
                                  "lambda": {"kind": "branch_constant", "values": [0.9, 0.6]}})
        assert wl.moran_oracle(sys, "s1") == pytest.approx(
            wl.bowen_root(sys, s1_family), abs=1e-6)
        assert wl.moran_oracle(sys, "s2") == pytest.approx(
            wl.bowen_root(sys, s2_family), abs=1e-6)
        exponents = [math.log(0.9) / math.log(0.05), math.log(0.6) / math.log(0.5)]
        for q in (-3.0, 0.0, 3.0):
            assert wl.moran_oracle(sys, "A_of_q", q=q) == pytest.approx(wl.A_of_q(sys, q), abs=1e-6)
            alpha = wl.moran_oracle(sys, "alpha_of_q", q=q)
            assert min(exponents) < alpha < max(exponents)


@st.composite
def affine_cutters(draw):
    """Random affine cookie cutter: 2-4 increasing branches on disjoint
    domains (gaps may be empty) with branch-constant lambda_i > |I_i|, so
    lambda_i |tau_i'| > 1."""
    ell = draw(st.integers(2, 4))
    widths = draw(st.lists(st.floats(0.05, 1.0), min_size=ell, max_size=ell))
    gaps = draw(st.lists(st.sampled_from([0.0, 0.1, 0.5, 1.0]), min_size=ell + 1, max_size=ell + 1))
    shares = draw(st.lists(st.floats(0.05, 0.95), min_size=ell, max_size=ell))
    total = sum(widths) + sum(gaps)
    branches, lams, lo = [], [], gaps[0] / total
    for w, g, u in zip(widths, gaps[1:], shares):
        hi = lo + w / total
        branches.append({"domain": [lo, hi]})
        lams.append(w / total + u * (1.0 - w / total))
        lo = hi + g / total
    branches[-1]["domain"][1] = min(branches[-1]["domain"][1], 1.0)
    return wl.validate_system({"branches": branches,
                               "lambda": {"kind": "branch_constant", "values": lams}})


class TestMoranProperty:
    @pytest.mark.filterwarnings("error")
    @given(sys=affine_cutters(), a=st.floats(-3.0, 3.0), b=st.floats(-3.0, 3.0),
           q=st.floats(-3.0, 3.0))
    def test_thermo_matches_oracle(self, sys, a, b, q):
        pot = PotentialSpec(a, b)
        assert wl.pressure(sys, pot).value == pytest.approx(
            wl.moran_oracle(sys, "pressure", pot=pot), abs=1e-6)
        assert wl.bowen_root(sys, s1_family) == pytest.approx(wl.moran_oracle(sys, "s1"), abs=1e-6)
        assert wl.bowen_root(sys, s2_family) == pytest.approx(wl.moran_oracle(sys, "s2"), abs=1e-6)
        assert wl.A_of_q(sys, q) == pytest.approx(wl.moran_oracle(sys, "A_of_q", q=q), abs=1e-6)


def _mpmath_root(sys, family, guess):
    """40-digit root of sum_i exp(phi_i + s psi_i) = 1 on an affine
    branch-constant system, phi = family(0) and psi = family(1) - family(0)
    on the branches: the Moran equation of the family, by Newton's method
    from guess with each log|tau_i'| and log lambda_i taken from the float
    slope and lambda at 40 digits."""
    with mpmath.workdps(40):
        zero, one = family(0.0), family(1.0)
        logs = [(mpmath.log(abs(mpmath.mpf(b.slope))), mpmath.log(mpmath.mpf(float(lam))))
                for b, lam in zip(sys.branches, sys.lam)]
        phi = [zero.a * u + zero.b * v + zero.c for u, v in logs]
        psi = [(one.a - zero.a) * u + (one.b - zero.b) * v + (one.c - zero.c) for u, v in logs]
        s = mpmath.mpf(guess)
        for _ in range(100):
            terms = [mpmath.exp(f + s * g) for f, g in zip(phi, psi)]
            step = (mpmath.fsum(terms) - 1) / mpmath.fsum(t * g for t, g in zip(terms, psi))
            s -= step
            if abs(step) < mpmath.mpf(10) ** -35:
                return float(s)
    raise AssertionError("the 40-digit Newton iteration did not converge")


def _root_and_evaluations(sys, family):
    """(bowen_root, number of _equilibrium_means calls it made)."""
    means = wl.thermo._equilibrium_means
    seen = []

    def counting(*args):
        seen.append(args)
        return means(*args)

    with mock.patch.object(wl.thermo, "_equilibrium_means", counting):
        return wl.bowen_root(sys, family), len(seen)


class TestNewtonRoots:
    @pytest.mark.filterwarnings("error")
    @given(sys=affine_cutters(), q=st.floats(-30.0, 30.0))
    def test_affine_matches_mpmath(self, sys, q):
        for family in (s1_family, s2_family, aq_family(q)):
            root, evaluations = _root_and_evaluations(sys, family)
            assert root == pytest.approx(_mpmath_root(sys, family, root), abs=1e-12)
            assert evaluations <= 12

    @pytest.mark.parametrize("family", [s1_family, s2_family, aq_family(-3.0), aq_family(0.0),
                                        aq_family(1.0)], ids=["s1", "s2", "A-3", "A0", "A1"])
    def test_m5_matches_brentq(self, m5, family):
        # scipy's brentq on the 32-node pressure is an independent route
        def f(s):
            return wl.pressure(m5, family(float(s))).value

        root = wl.bowen_root(m5, family)
        assert root == pytest.approx(brentq(f, -8.0, 8.0, xtol=1e-14), abs=1e-12)
        assert abs(f(root)) <= 1e-10

    def test_m5_spectrum_range(self, m5):
        # every A_q for integer q in [-30, 30] converges, with A_q decreasing
        roots = [wl.A_of_q(m5, float(q)) for q in range(-30, 31)]
        assert all(math.isfinite(a) for a in roots) and len(roots) == 61
        assert np.all(np.diff(roots) < 0)


_LSE_ELEMENTS = st.one_of(
    st.floats(-50.0, 50.0),
    st.floats(allow_nan=False, allow_infinity=False),  # magnitudes up to 1.8e308
    st.sampled_from([np.inf, -np.inf, np.nan, 0.0, -0.0]),
)


class TestLocalLogsumexp:
    """thermo._logsumexp has the bits of scipy.special.logsumexp."""

    @settings(max_examples=600)
    @given(values=st.lists(_LSE_ELEMENTS, min_size=1, max_size=64),
           ties=st.lists(st.integers(0, 63), max_size=8))
    def test_matches_scipy(self, values, ties):
        a = np.array(values, dtype=np.float64)
        finite = a[np.isfinite(a)]
        if finite.size:  # tie several elements at the largest finite value
            a[[t % a.size for t in ties]] = finite.max()
        with np.errstate(all="ignore"):
            ref = logsumexp(a)
        assert float(_logsumexp(a)).hex() == float(ref).hex()

    def test_tree_levels_match_scipy(self, systems):
        pots = [PotentialSpec(-1.0, 0.0), PotentialSpec(0.3, -2.0), PotentialSpec(-5.0, 30.0)]
        for name, sys in systems.items():
            for n in range(1, 13):
                _, u, v = sys.tree(n)
                for pot in pots:
                    s = pot.a * u + pot.b * v
                    assert float(_logsumexp(s)).hex() == float(logsumexp(s)).hex(), (name, n, pot)


THREE_BRANCH = {
    "branches": [{"domain": [0.0, 0.2]}, {"domain": [0.4, 0.6]}, {"domain": [0.7, 1.0]}],
    "lambda": {"kind": "branch_constant", "values": [0.5, 0.6, 0.7]},
}


@pytest.mark.parametrize("count", [1, 255, 256, 257, 1000])
@pytest.mark.parametrize("depth", [1, 50])
def test_bernoulli_words_match_rng_choice(m3, count, depth):
    # the blocked sampler draws the digits of one rng.choice call
    for sys in (m3, wl.validate_system(THREE_BRANCH)):
        pot = PotentialSpec(-0.8, 1.3)
        phi = _branch_phi(sys, pot)
        p = np.exp(phi - logsumexp(phi))
        p = p / p.sum()
        ref = np.random.default_rng(77).choice(sys.ell, size=(count, depth), p=p).astype(np.uint8)
        got = wl.thermo.sample_words(sys, pot, depth, count, 77)
        assert got.dtype == np.uint8 and got.shape == ref.shape
        assert got.tobytes() == ref.tobytes()


def test_bernoulli_nan_probabilities_refused():
    # inf - inf in the branch potential: rng.choice refused the NaN weights
    # with ValueError, and so does the blocked sampler
    sys = wl.validate_system({"branches": [{"domain": [0.0, 0.15]}, {"domain": [0.85, 1.0]}],
                              "lambda": {"kind": "branch_constant", "values": [0.2, 0.3]}})
    for sample in (wl.thermo.sample_words, wl.thermo.sample_digit_counts):
        with np.errstate(all="ignore"), pytest.raises(ValueError, match="Probabilities contain NaN"):
            sample(sys, PotentialSpec(1.7e308, 1.7e308), 5, 10, 1)


@pytest.mark.parametrize("count", [1, 300, 700])
def test_sampled_counts_give_the_sums_of_the_words(m3, count):
    # sample_digit_counts never forms the words, yet each of its rows is the
    # digit count of a word of length depth, and its sums are those
    # birkhoff_sums_along takes along such words, up to rounding
    depth = 37
    for sys in (m3, wl.validate_system(THREE_BRANCH)):
        for pot in (PotentialSpec(-0.8, 1.3), PotentialSpec(-wl.A_of_q(sys, -2.0), -2.0)):
            counts = wl.thermo.sample_digit_counts(sys, pot, depth, count, 91)
            assert counts.shape == (count, sys.ell)
            words = np.stack([np.repeat(np.arange(sys.ell, dtype=np.uint8), c) for c in counts])
            assert words.shape == (count, depth)
            assert counts.tolist() == [np.bincount(w, minlength=sys.ell).tolist() for w in words]
            for got, ref in zip(_birkhoff_sums_from_counts(sys, counts),
                                birkhoff_sums_along(sys, words)[1:]):
                assert got == pytest.approx(ref, rel=1e-13, abs=0.0)


def test_sampled_counts_follow_the_multinomial_law(m3):
    # the digit counts of iid rows are Multinomial(depth, p): integer rows
    # that sum to depth, with per-digit means depth * p
    depth, count = 37, 4000
    for sys in (m3, wl.validate_system(THREE_BRANCH)):
        for pot in (PotentialSpec(-0.8, 1.3), PotentialSpec(-wl.A_of_q(sys, -2.0), -2.0)):
            counts = wl.thermo.sample_digit_counts(sys, pot, depth, count, 91)
            assert counts.shape == (count, sys.ell) and counts.dtype == np.int64
            assert counts.min() >= 0 and (counts.sum(axis=1) == depth).all()
            phi = _branch_phi(sys, pot)
            p = np.exp(phi - logsumexp(phi))
            se = np.sqrt(depth * p * (1.0 - p) / count)
            assert (np.abs(counts.mean(axis=0) - depth * p) <= 5.0 * se).all()
            again = wl.thermo.sample_digit_counts(sys, pot, depth, count, 91)
            assert again.tobytes() == counts.tobytes()


@pytest.mark.parametrize("depth, count, seed", [(5.5, 10, 1), (5, 10.0, 1), (5, 10, 1.5),
                                                (5, True, 1), (5, 10, None)])
def test_samplers_refuse_non_integer_arguments(m3, depth, count, seed):
    # rng.multinomial(5.5, p) draws with n = 5, and the other draws raised
    # TypeError; every sampler refuses a non-integer with one ValueError
    pot = PotentialSpec(-wl.A_of_q(m3, 0.0), 0.0)
    for sample in (wl.thermo.sample_words, wl.thermo.sample_digit_counts, wl.gibbs_sample):
        with pytest.raises(ValueError, match="must be an integer"):
            sample(m3, pot, depth, count, seed)


def test_samplers_check_the_budget(m3, monkeypatch):
    # sample_words formed a 100 x 100 matrix past a budget of 1024 that
    # gibbs_sample refused; sample_digit_counts forms count * ell counts
    pot = PotentialSpec(-wl.A_of_q(m3, 0.0), 0.0)
    monkeypatch.setenv("WTF_LAB_BUDGET", "1024")
    for sample in (wl.thermo.sample_words, wl.gibbs_sample):
        assert sample(m3, pot, 32, 32, 1)[0].shape[-1] == 32
        with pytest.raises(BudgetExceeded):
            sample(m3, pot, 100, 100, 1)
    with pytest.raises(NotNormalised):  # before the budget
        wl.gibbs_sample(m3, PotentialSpec(0.0, 0.0), 100, 100, 1)
    assert wl.thermo.sample_digit_counts(m3, pot, 10**6, 512, 1).shape == (512, 2)
    with pytest.raises(BudgetExceeded):
        wl.thermo.sample_digit_counts(m3, pot, 5, 513, 1)


@pytest.mark.parametrize("value", [math.nan, math.inf, "a", None, [1.0]])
def test_potential_coefficients_refused(value):
    # a str raised TypeError from math.isfinite
    for args in ((value, 0.0), (0.0, value), (0.0, 0.0, value)):
        with pytest.raises(ValueError, match="finite real numbers"):
            PotentialSpec(*args)


def test_sampled_counts_need_branch_constant(m5):
    with pytest.raises(NotBranchConstant):
        wl.thermo.sample_digit_counts(m5, PotentialSpec(-1.0, 0.0), 5, 10, 1)
