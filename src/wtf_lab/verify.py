"""Acceptance battery: every criterion the lab must satisfy, with its stated
tolerance, runnable from the CLI (`wtf-lab verify`) and from the test suite.

Each check takes no argument, returns (passed, detail) and builds the
clouds, spectra and Gibbs draws it needs; the criteria read the bundled
models through _model, which validates each of them once per process.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass

import numpy as np

from .dynamics import (
    CookieCutterSystem,
    _orbit,
    birkhoff_sums_along,
    cylinder_bounds_many,
    point_of_word,
    validate_system,
)
from .errors import BadConfig
from .graph import _oscillations, _pull_back, _series, eval_W_many
from .metrics import (
    GraphCloud,
    CloudProvenance,
    box_dimension,
    correlation_dimension,
    empirical_spectrum,
    holder_oscillation_many,
    holder_birkhoff_many,
    sample_graph,
)
from .models import MODELS
from .theta import ThetaSequence
from .thermo import (
    A_of_q,
    PotentialSpec,
    _require_normalised,
    aq_family,
    bowen_root,
    gibbs_sample,
    graph_dimension_prediction,
    jin_upper,
    lifted_dim_prediction,
    measure_stats,
    moran_oracle,
    pressure,
    s1_family,
    s2_family,
    sample_words,
    spectrum,
)

BOX_SCALES = [2.0**-k for k in range(6, 15)]


@dataclass
class CheckResult:
    criterion: str
    title: str
    passed: bool
    detail: str
    elapsed: float


@functools.cache
def _model(name: str) -> CookieCutterSystem:
    """The bundled model of that name, validated on its first use in the process."""
    return validate_system(MODELS[name])


# ---------------------------------------------------------------------------
# criterion checks
# ---------------------------------------------------------------------------

def check_pressure_oracle() -> tuple[bool, str]:
    """Moran-oracle equality for pressure/bowen_root/A_of_q on M1-M4."""
    worst = 0.0
    for name in ("M1", "M2", "M3", "M4"):
        sys = _model(name)
        worst = max(worst, abs(bowen_root(sys, s1_family) - moran_oracle(sys, "s1")))
        worst = max(worst, abs(bowen_root(sys, s2_family) - moran_oracle(sys, "s2")))
        for q in range(-10, 11):
            a_here = A_of_q(sys, float(q))
            a_oracle = moran_oracle(sys, "A_of_q", q=float(q))
            worst = max(worst, abs(a_here - a_oracle))
            p = pressure(sys, aq_family(float(q))(a_oracle)).value
            worst = max(worst, abs(p))
    return worst <= 1e-6, f"worst |deviation| = {worst:.2e} (tol 1e-6)"


def check_bowen_roots() -> tuple[bool, str]:
    """Root values at 1e-6 from the closed (Moran) form, and the M2
    dim_H < dim_B flag."""
    errs = []
    ok = True
    for name, check_s2 in (("M1", True), ("M2", True), ("M4", False)):
        sys = _model(name)
        pred = graph_dimension_prediction(sys)
        errs.append(f"{name}: s1={pred.s1:.7f}, s2={pred.s2:.7f}")
        ok &= abs(pred.s1 - moran_oracle(sys, "s1")) <= 1e-6
        if check_s2:
            ok &= abs(pred.s2 - moran_oracle(sys, "s2")) <= 1e-6
        if name == "M2":
            ok &= pred.min_is == "s2" and pred.hausdorff_upper < pred.box_dim
    return ok, "; ".join(errs)


def check_nonlinear_pressure() -> tuple[bool, str]:
    """M5 full-branch map: the Bowen root of -s log|tau'| is s = 1, so the
    transfer-operator pressure of -log|tau'| must vanish (within 2e-3); the
    detail also states the estimate's error bound."""
    est = pressure(_model("M5"), PotentialSpec(-1.0, 0.0))
    return abs(est.value) <= 2e-3, (f"|P| = {abs(est.value):.2e} (tol 2e-3), "
                                    f"error_bound {est.error_bound:.2e}")


def check_box_dimension() -> tuple[bool, str]:
    sys1 = _model("M1")
    cloud = sample_graph(sys1, ThetaSequence.zeros(), depth=18, per_cylinder=4, tol=1e-8)
    r_full = box_dimension(cloud, BOX_SCALES)
    ok = abs(r_full.slope - 1.4854) <= 0.05

    cloud = sample_graph(_model("M2"), ThetaSequence.zeros(), depth=16, per_cylinder=4,
                         tol=1e-8, restrict_to_repeller=True)
    r_m2 = box_dimension(cloud, BOX_SCALES)
    ok &= abs(r_m2.slope - 0.8996) <= 0.07

    slopes = []
    for seed in (36, 39, 42):
        cloud = sample_graph(sys1, ThetaSequence.iid_uniform(seed), depth=18, per_cylinder=4, tol=1e-8)
        slopes.append(box_dimension(cloud, BOX_SCALES).slope)
    ok &= all(abs(s - 1.4854) <= 0.05 for s in slopes)
    ok &= max(slopes) - min(slopes) < 0.03
    return ok, (f"M1 slope {r_full.slope:.4f} (target 1.4854 +- 0.05); "
                f"M2 restricted {r_m2.slope:.4f} (0.8996 +- 0.07); "
                f"seeded {['%.4f' % s for s in slopes]} spread "
                f"{max(slopes) - min(slopes):.4f} (< 0.03)")


def check_spectrum() -> tuple[bool, str]:
    sys3 = _model("M3")
    curve = spectrum(sys3, [round(-3.0 + 0.25 * k, 2) for k in range(25)])
    a0 = A_of_q(sys3, 0.0)
    ok = abs(curve.alpha_min - 0.4466766) <= 1e-4
    ok &= abs(curve.alpha_max - 0.7610569) <= 1e-4
    ok &= abs(curve.alpha_c - 0.6137) <= 1e-3
    # D at the critical point and its flatness, via samples at q = +-0.01
    (_, _, al_m, d_m), (_, _, al_p, d_p) = spectrum(sys3, [-0.01, 0.01]).samples
    slope_c = (d_p - d_m) / (al_p - al_m)
    ok &= abs(slope_c) <= 1e-2
    d_c = max(s[3] for s in curve.samples)
    ok &= abs(d_c - a0) <= 1e-3

    # concavity: slopes of D against alpha nonincreasing (second differences)
    qs, a_q, alpha, dim = curve.as_arrays()
    order = np.argsort(alpha)
    al_s, d_s = alpha[order], dim[order]
    slopes = np.diff(d_s) / np.diff(al_s)
    concave = np.all(np.diff(slopes) <= 1e-6)
    ok &= bool(concave)

    m4 = spectrum(_model("M4"), [-1.0, -0.5, 0.0, 0.5, 1.0])
    m1 = spectrum(_model("M1"), [-1.0, -0.5, 0.0, 0.5, 1.0])
    ok &= m4.degenerate_flag and abs(m4.alpha_c - 0.5) <= 1e-6
    ok &= m1.degenerate_flag and abs(m1.alpha_c - 0.5145732) <= 1e-6
    return ok, (f"M3 alpha_min {curve.alpha_min:.7f}, alpha_max {curve.alpha_max:.7f}, "
                f"alpha_c {curve.alpha_c:.4f}, D(alpha_c)-A0 {d_c - a0:.1e}, "
                f"D'(alpha_c) {slope_c:.1e}, concave {concave}; "
                f"M4 degenerate alpha_c {m4.alpha_c:.4f}; M1 degenerate alpha_c {m1.alpha_c:.7f}")


def check_gibbs_chain() -> tuple[bool, str]:
    sys3 = _model("M3")
    worst_dim, worst_alpha = 0.0, 0.0
    for q in (-2.0, -1.0, 0.0, 1.0, 2.0):
        # the references are M3's Moran closed forms, not the route measured
        a_q = moran_oracle(sys3, "A_of_q", q=q)
        alpha_q = moran_oracle(sys3, "alpha_of_q", q=q)
        stats = measure_stats(sys3, PotentialSpec(-A_of_q(sys3, q), q))
        worst_dim = max(worst_dim, abs(stats.dim - (q * alpha_q + a_q)))
        worst_alpha = max(worst_alpha, abs(stats.alpha - alpha_q))
    ok = worst_dim <= 2e-3 and worst_alpha <= 1e-3

    emp = empirical_spectrum(sys3, [-2.0, -1.0, 0.0, 1.0, 2.0],
                             samples_per_q=10**4, birkhoff_depth=2000, seed=515)
    worst_emp = max(abs(ah - ap) for _, ah, ap, _ in emp)
    worst_z = max(abs(ah - ap) / se for _, ah, ap, se in emp)
    ok &= worst_emp <= 0.01 and worst_z <= 5.0
    return ok, (f"worst |dim - (q alpha + A_q)| = {worst_dim:.2e} (tol 2e-3); "
                f"worst |alpha - alpha(q)| = {worst_alpha:.2e} (tol 1e-3); "
                f"worst |alpha_hat - alpha(q)| = {worst_emp:.2e} (tol 0.01), "
                f"at most {worst_z:.2f} standard errors (cap 5)")


def check_lifted_predictor() -> tuple[bool, str]:
    sys1, sys2 = _model("M1"), _model("M2")
    s1 = bowen_root(sys1, s1_family)
    nu1 = measure_stats(sys1, s1_family(s1))
    lift1 = lifted_dim_prediction(nu1)
    s2 = bowen_root(sys2, s2_family)
    nu2 = measure_stats(sys2, s2_family(s2))
    lift2 = lifted_dim_prediction(nu2)
    ok = abs(lift1 - moran_oracle(sys1, "s1")) <= 1e-6
    ok &= abs(lift2 - moran_oracle(sys2, "s2")) <= 1e-6

    worst = 0.0
    sys3 = _model("M3")
    for q in (-2.0, -1.0, 0.0, 1.0, 2.0):
        a_q = A_of_q(sys3, q)
        stats = measure_stats(sys3, PotentialSpec(-a_q, q))
        worst = max(worst, abs(lifted_dim_prediction(stats)
                               - jin_upper(stats.dim, stats.alpha)))
    ok &= worst <= 1e-6
    return ok, (f"M1/nu1 -> {lift1:.7f} (= s1); M2/nu2 -> {lift2:.7f} (= s2); "
                f"worst |lift - jin| over M3 grid = {worst:.2e} (tol 1e-6)")


def _lifted_probe_cloud(sys1: CookieCutterSystem) -> GraphCloud:
    """Criterion 8's M1 cloud: 10^5 nu_1 draws of depth 50 on the graph of
    W_theta, theta iid uniform (seed 777).  gibbs_sample's refusal of an
    unnormalised potential, its digits, and one series value
    W_{sigma^50 theta}(1/2) at tol 1e-8 pulled back up every word
    (_pull_back): x has gibbs_sample's bits, and y's error is about
    lambda^50 * 1e-8 plus a few ulps per digit."""
    pot, theta = s1_family(moran_oracle(sys1, "s1")), ThetaSequence.iid_uniform(777)
    _require_normalised(pressure(sys1, pot).value)
    digits = sample_words(sys1, pot, depth=50, count=10**5, seed=90210)
    base, _, _ = eval_W_many(sys1, [0.5], theta.shift(50), tol=1e-8)
    xs, ys = _pull_back(sys1, digits, 0.5, base[0], theta)
    return GraphCloud(xs, ys, CloudProvenance("M1", "iid_uniform", 777, 50, 1e-8))


def check_lifted_probe() -> tuple[bool, str]:
    # M1: nu_1 draws on the iid-randomised graph
    lifted = correlation_dimension(_lifted_probe_cloud(_model("M1")),
                                   [2.0**-k for k in range(2, 9)], seed=31)
    # M2: draws of the q = 0 measure on the repeller itself
    sys2 = _model("M2")
    pot = PotentialSpec(-moran_oracle(sys2, "A_of_q", q=0.0), 0.0)
    xs = gibbs_sample(sys2, pot, depth=50, count=10**5, seed=4181)[1]
    cloud = GraphCloud(xs, np.zeros_like(xs), CloudProvenance("M2", "zeros", None, 50, 0.0))
    base = correlation_dimension(cloud, [2.0**-k for k in range(5, 13)], seed=32)
    ok = 1.37 <= lifted.slope <= 1.60
    ok &= 0.61 <= base.slope <= 0.71
    return ok, (f"M1 lifted nu1 correlation slope {lifted.slope:.3f} (band [1.37, 1.60]); "
                f"M2 base q=0 slope {base.slope:.3f} (band [0.61, 0.71], target 0.6603)")


def check_oscillation_holder() -> tuple[bool, str]:
    zeros = ThetaSequence.zeros()
    parts = []
    ok = True

    # (a) oscillation band osc/lambda^n over n = 1..16, positive and of bounded width
    band_caps = {"M1": 4.0, "M2": 8.0, "M3": 12.0}
    for name, cap in band_caps.items():
        ratios = _band_ratios(_model(name), zeros)
        lo, hi = min(ratios), max(ratios)
        ok &= lo > 0 and hi / lo <= cap
        parts.append(f"{name} band [{lo:.2f}, {hi:.2f}] width {hi / lo:.1f} (cap {cap})")

    # (b) the skew-product identity
    worst_skew, tol = 0.0, 1e-10
    xs, depths = np.array([0.3, 1.0 / 3.0, 0.1234, 0.77]), np.array([8, 10, 5, 3])
    for name in ("M1", "M2", "M3", "M5"):
        sys = _model(name)
        for theta in (zeros, ThetaSequence.iid_uniform(42)):
            direct, n_terms, _ = eval_W_many(sys, xs, theta, tol)
            skew = _skew_values(sys, xs, depths, theta, n_terms)
            gap = np.max(np.abs(direct - skew), initial=0.0, where=~np.isnan(skew))
            worst_skew = max(worst_skew, float(gap))
    ok &= worst_skew <= 10.0 * tol
    parts.append(f"skew |direct - pulled back| <= {worst_skew:.2e} (tol {10 * tol:.0e})")

    # (c) estimator agreement on 100 random repeller points per model.
    # Points are depth-30 cylinder midpoints: a float64 point only resolves
    # its first ~log(eps)/log(min |I_1|) digits, so orbits of deeper
    # representatives escape the repeller before step 30; cylinders thinner
    # than 1e-14 are redrawn for the same reason.
    worst_agree = 0.0
    for name in ("M1", "M2", "M3", "M5"):
        sys = _model(name)
        rng = np.random.default_rng(1234)
        words = rng.integers(0, sys.ell, size=(220, 30)).astype(np.uint8)
        lo, hi = cylinder_bounds_many(sys, words)
        words = words[(hi - lo) >= 1e-14][:100]
        xs = point_of_word(sys, words, 0.5)
        birk = holder_birkhoff_many(sys, xs, 30)
        oscs = holder_oscillation_many(sys, xs, zeros, depth_range=range(1, 31),
                                       probes=128, tol=1e-13)
        worst_here = float(np.max(np.abs(birk - oscs)))
        worst_agree = max(worst_agree, worst_here)
        parts.append(f"{name} agreement {worst_here:.3f}")
    ok &= worst_agree <= 0.03

    # (d) off-repeller smoothness: difference quotients Cauchy in the M2 gap
    sys2 = _model("M2")
    xs = np.linspace(0.37, 0.63, 100)
    quotients = {}
    for h in (1e-5, 1e-6):
        up, _, _ = eval_W_many(sys2, xs + h, zeros, tol=1e-12)
        dn, _, _ = eval_W_many(sys2, xs - h, zeros, tol=1e-12)
        quotients[h] = (up - dn) / (2.0 * h)
    cauchy = float(np.max(np.abs(quotients[1e-5] - quotients[1e-6])))
    ok &= cauchy <= 1e-4
    parts.append(f"gap quotient Cauchy gap {cauchy:.2e} (tol 1e-4)")

    return ok, "; ".join(parts)


def _skew_values(sys: CookieCutterSystem, xs: np.ndarray, depths: np.ndarray,
                 theta: ThetaSequence, n_terms: int) -> np.ndarray:
    """W_theta(x) through the skew product for each point x and depth n >= 1:
    the n_terms-term bases W_{sigma^n theta}(tau^n x) from one _series call,
    each pulled back along the point's first n digits from one _orbit walk.
    NaN where an orbit leaves the partition before n (no probe point)."""
    digits, points, left = _orbit(sys, xs, int(depths.max()))
    u = sys.tau(points[np.arange(xs.size), depths - 1])
    shifts = theta.block(0, int(depths.max()) + n_terms)
    bases = _series(sys, u, shifts[depths + np.arange(n_terms)[:, None]])
    out = np.full(xs.size, np.nan)
    for i in np.flatnonzero(left >= depths):
        out[i] = _pull_back(sys, digits[i:i + 1, :depths[i]], u[i], bases[i], theta)[1][0]
    return out


def _band_ratios(sys: CookieCutterSystem, theta: ThetaSequence) -> list[float]:
    """Criterion 9(a)'s osc/lambda^n for three random words per depth
    n = 1..16: one _oscillations call over the depths' word matrices of
    three words each, lambda^n = exp(S_n log lambda) along them."""
    rng = np.random.default_rng(97)
    word_sets = [rng.integers(0, sys.ell, (3, n)).astype(np.uint8) for n in range(1, 17)]
    ratios = []
    for words, (osc, _) in zip(word_sets, _oscillations(sys, word_sets, theta, 128, 1e-12)):
        ratios += (osc / np.exp(birkhoff_sums_along(sys, words)[2])).tolist()
    return ratios


def check_distortion() -> tuple[bool, str]:
    """Per depth n: fresh sampled depth-n cylinders, two representatives each
    (relative positions 0.25 / 0.75), exact orbits via suffix representatives
    tau^k rho_w(t) = rho_{sigma^k w}(t).  The three ratio families must stay
    under fixed caps for all n <= 20 and show no growth trend past the
    transient over which the distortion constant assembles (n >= 10)."""
    parts = []
    ok = True
    n_max = 20
    for name in ("M1", "M2", "M5"):
        sys = _model(name)
        per_word = {"A": [], "B": [], "C": []}
        for n in range(1, n_max + 1):
            rng = np.random.default_rng(777 + 13 * n)
            words = rng.integers(0, sys.ell, size=(128, n)).astype(np.uint8)
            sums = {t: birkhoff_sums_along(sys, words, t)[1] for t in (0.25, 0.75)}
            lo, hi = cylinder_bounds_many(sys, words)
            lens = hi - lo
            per_word["A"].append(np.exp(np.abs(sums[0.25] - sums[0.75])))
            prod_len = np.exp(sums[0.25]) * lens
            per_word["B"].append(np.maximum(prod_len, 1.0 / prod_len))
            lo1, hi1 = cylinder_bounds_many(
                sys, np.hstack([words, rng.integers(0, sys.ell, size=(len(words), 1),
                                                    dtype=np.uint8).astype(np.uint8)]))
            ratio = (hi1 - lo1) / lens
            per_word["C"].append(np.maximum(ratio, 1.0 / ratio))

        caps = {"A": 10.0, "B": 10.0, "C": 50.0}
        tops = {}
        trends = {}
        for fam, rows in per_word.items():
            bounds = np.array([r.max() for r in rows])
            tops[fam] = bounds.max()
            trends[fam] = _flat_or_noise(bounds[n_max // 2:], rows[-1])
        bounded = all(tops[f] < caps[f] for f in caps)
        trend_ok = all(trends.values())
        ok &= bounded and trend_ok
        parts.append(f"{name}: D_A {tops['A']:.3f}, D_B {tops['B']:.3f}, "
                     f"delta_0 width {tops['C']:.2f}, tail flat "
                     f"{[f for f, t in trends.items() if not t] or 'all'}")
    return ok, "; ".join(parts)


def _flat_or_noise(tail: np.ndarray, last_row: np.ndarray) -> bool:
    """True when the tail of the per-depth bound shows no growth: Spearman
    rank correlation <= 0.2, or total tail drift within 3x the sampling
    resolution of the max statistic (the empirical sup of a distortion
    family assembles monotonically toward its finite limit, which a
    scale-free rank test misreads as growth).  Sub-1e-5 relative variation
    is float noise: deep cylinder lengths lose eps/|I_n| to cancellation."""
    if np.ptp(tail) < 1e-5 * max(1.0, float(np.abs(tail).max())):
        return True
    rho = _rank_correlation(tail)
    if math.isnan(rho) or rho <= 0.2:
        return True
    groups = last_row[: 4 * (len(last_row) // 4)].reshape(4, -1).max(axis=1)
    noise = float(groups.std())
    return float(np.ptp(tail)) <= 3.0 * noise


def _rank_correlation(y: np.ndarray) -> float:
    """Spearman's rho of y against its index with spearmanr's bits: average
    ranks, correlation read at [1, 0] (corrcoef rounds [0, 1] differently);
    NaN when y holds a NaN."""
    if np.isnan(y).any():
        return math.nan
    s = np.sort(y)
    ranks = (np.searchsorted(s, y, "left") + np.searchsorted(s, y, "right") + 1) / 2.0
    return float(np.corrcoef(np.arange(1.0, len(y) + 1), ranks)[1, 0])


# (id, title, check, wall-clock gate in seconds or None)
CHECKS = [
    ("pressure_oracle", "1. pressure/bowen/A_q equal the Moran oracle on M1-M4", check_pressure_oracle, 1),
    ("bowen_roots", "2. Bowen roots at their stated values", check_bowen_roots, None),
    ("nonlinear_pressure", "3. nonlinear pressure sanity on M5", check_nonlinear_pressure, 30),
    ("box_dimension", "4. box-count slopes match s1 (incl. randomised)", check_box_dimension, 120),
    ("spectrum", "5. spectrum endpoints, critical point, concavity, degeneracy flags", check_spectrum, None),
    ("gibbs_chain", "6. Gibbs identity chain and empirical exponents on M3", check_gibbs_chain, 60),
    ("lifted_predictor", "7. lifted-dimension predictor identities", check_lifted_predictor, None),
    ("lifted_probe", "8. correlation-dimension probes in band", check_lifted_probe, None),
    ("oscillation_holder", "9. oscillation band, skew invariance, estimator agreement, gap smoothness",
     check_oscillation_holder, None),
    ("distortion", "10. bounded distortion with no growth trend", check_distortion, None),
]

CHECK_IDS = [cid for cid, *_ in CHECKS]


def run_battery(criteria=None) -> list[CheckResult]:
    """Run the criteria named in ``criteria`` (all ten when it is None) in
    battery order; BadConfig for an empty list or an unknown name.  The
    battery's one clock: a criterion that reaches its wall-clock gate fails,
    and only then does its detail state its time."""
    if criteria is not None:
        if not criteria:
            raise BadConfig("'criteria' must not be empty")
        unknown = set(criteria) - set(CHECK_IDS)
        if unknown:
            raise BadConfig(f"unknown criteria {sorted(unknown)}; known: {CHECK_IDS}")
    results = []
    for cid, title, fn, gate in CHECKS:
        if criteria is not None and cid not in criteria:
            continue
        t0 = time.perf_counter()
        try:
            passed, detail = fn()
        except Exception as exc:  # a crash is a failed criterion, not a crashed battery
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
        if gate is not None and elapsed >= gate:
            passed, detail = False, f"{detail}; elapsed {elapsed:.2f}s (< {gate:g}s)"
        results.append(CheckResult(cid, title, passed, detail, elapsed))
    return results
