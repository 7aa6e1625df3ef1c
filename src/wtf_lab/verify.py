"""Acceptance battery: every criterion the lab must satisfy, with its stated
tolerance, runnable from the CLI (`wtf-lab verify`) and from the test suite.

Each check returns (passed, detail) and builds the clouds, spectra and Gibbs
draws it needs; the criteria share the validated models through a
BatteryContext.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .dynamics import (
    CookieCutterSystem,
    _compose,
    cylinder_bounds_many,
    point_of_word,
    validate_system,
)
from .errors import NotInPartition
from .graph import _oscillations, _probe_bases, eval_W_many, eval_W_skew
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
    aq_family,
    bowen_root,
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


class BatteryContext:
    """The validated bundled models, shared by the criteria of one battery."""

    def __init__(self):
        self.systems: dict[str, CookieCutterSystem] = {
            name: validate_system(spec) for name, spec in MODELS.items()
        }


# ---------------------------------------------------------------------------
# criterion checks
# ---------------------------------------------------------------------------

def check_pressure_oracle(ctx: BatteryContext) -> tuple[bool, str]:
    """Moran-oracle equality for pressure/bowen_root/A_of_q on M1-M4."""
    t0 = time.perf_counter()
    worst = 0.0
    for name in ("M1", "M2", "M3", "M4"):
        sys = ctx.systems[name]
        worst = max(worst, abs(bowen_root(sys, s1_family) - moran_oracle(sys, "s1")))
        worst = max(worst, abs(bowen_root(sys, s2_family) - moran_oracle(sys, "s2")))
        for q in range(-10, 11):
            a_here = A_of_q(sys, float(q))
            a_oracle = moran_oracle(sys, "A_of_q", q=float(q))
            worst = max(worst, abs(a_here - a_oracle))
            p = pressure(sys, aq_family(float(q))(a_oracle)).value
            worst = max(worst, abs(p))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed < 1.0
    return ok, f"worst |deviation| = {worst:.2e} (tol 1e-6), elapsed {elapsed:.2f}s (< 1s)"


def check_bowen_roots(ctx: BatteryContext) -> tuple[bool, str]:
    """Root values at 1e-6 from the closed (Moran) form, and the M2
    dim_H < dim_B flag."""
    errs = []
    ok = True
    for name, check_s2 in (("M1", True), ("M2", True), ("M4", False)):
        sys = ctx.systems[name]
        pred = graph_dimension_prediction(sys)
        errs.append(f"{name}: s1={pred.s1:.7f}, s2={pred.s2:.7f}")
        ok &= abs(pred.s1 - moran_oracle(sys, "s1")) <= 1e-6
        if check_s2:
            ok &= abs(pred.s2 - moran_oracle(sys, "s2")) <= 1e-6
        if name == "M2":
            ok &= pred.min_is == "s2" and pred.hausdorff_upper < pred.box_dim
    return ok, "; ".join(errs)


def check_nonlinear_pressure(ctx: BatteryContext) -> tuple[bool, str]:
    """M5 full-branch map: the Bowen root of -s log|tau'| is s = 1, so the
    transfer-operator pressure of -log|tau'| must vanish (within 2e-3); the
    detail also states the estimate's error bound."""
    t0 = time.perf_counter()
    est = pressure(ctx.systems["M5"], PotentialSpec(-1.0, 0.0))
    elapsed = time.perf_counter() - t0
    ok = abs(est.value) <= 2e-3 and elapsed < 30.0
    return ok, (f"|P| = {abs(est.value):.2e} (tol 2e-3), error_bound {est.error_bound:.2e}, "
                f"elapsed {elapsed:.1f}s (< 30s)")


def check_box_dimension(ctx: BatteryContext) -> tuple[bool, str]:
    sys1 = ctx.systems["M1"]
    t0 = time.perf_counter()
    cloud = sample_graph(sys1, ThetaSequence.zeros(), depth=18, per_cylinder=4, tol=1e-8)
    r_full = box_dimension(cloud, BOX_SCALES)
    elapsed_m1 = time.perf_counter() - t0
    ok = abs(r_full.slope - 1.4854) <= 0.05 and elapsed_m1 < 120.0

    cloud = sample_graph(ctx.systems["M2"], ThetaSequence.zeros(), depth=16, per_cylinder=4,
                         tol=1e-8, restrict_to_repeller=True)
    r_m2 = box_dimension(cloud, BOX_SCALES)
    ok &= abs(r_m2.slope - 0.8996) <= 0.07

    slopes = []
    for seed in (36, 39, 42):
        cloud = sample_graph(sys1, ThetaSequence.iid_uniform(seed), depth=18, per_cylinder=4, tol=1e-8)
        slopes.append(box_dimension(cloud, BOX_SCALES).slope)
    ok &= all(abs(s - 1.4854) <= 0.05 for s in slopes)
    ok &= max(slopes) - min(slopes) < 0.03
    return ok, (f"M1 slope {r_full.slope:.4f} (target 1.4854 +- 0.05, {elapsed_m1:.0f}s); "
                f"M2 restricted {r_m2.slope:.4f} (0.8996 +- 0.07); "
                f"seeded {['%.4f' % s for s in slopes]} spread "
                f"{max(slopes) - min(slopes):.4f} (< 0.03)")


def check_spectrum(ctx: BatteryContext) -> tuple[bool, str]:
    sys3 = ctx.systems["M3"]
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

    m4 = spectrum(ctx.systems["M4"], [-1.0, -0.5, 0.0, 0.5, 1.0])
    m1 = spectrum(ctx.systems["M1"], [-1.0, -0.5, 0.0, 0.5, 1.0])
    ok &= m4.degenerate_flag and abs(m4.alpha_c - 0.5) <= 1e-6
    ok &= m1.degenerate_flag and abs(m1.alpha_c - 0.5145732) <= 1e-6
    return ok, (f"M3 alpha_min {curve.alpha_min:.7f}, alpha_max {curve.alpha_max:.7f}, "
                f"alpha_c {curve.alpha_c:.4f}, D(alpha_c)-A0 {d_c - a0:.1e}, "
                f"D'(alpha_c) {slope_c:.1e}, concave {concave}; "
                f"M4 degenerate alpha_c {m4.alpha_c:.4f}; M1 degenerate alpha_c {m1.alpha_c:.7f}")


def check_gibbs_chain(ctx: BatteryContext) -> tuple[bool, str]:
    sys3 = ctx.systems["M3"]
    t0 = time.perf_counter()
    ok = True
    worst_dim, worst_alpha = 0.0, 0.0
    for q in (-2.0, -1.0, 0.0, 1.0, 2.0):
        # the references are M3's Moran closed forms, not the route measured
        a_q = moran_oracle(sys3, "A_of_q", q=q)
        alpha_q = moran_oracle(sys3, "alpha_of_q", q=q)
        stats = measure_stats(sys3, PotentialSpec(-A_of_q(sys3, q), q))
        worst_dim = max(worst_dim, abs(stats.dim - (q * alpha_q + a_q)))
        worst_alpha = max(worst_alpha, abs(stats.alpha - alpha_q))
    ok &= worst_dim <= 2e-3 and worst_alpha <= 1e-3

    emp = empirical_spectrum(sys3, [-2.0, -1.0, 0.0, 1.0, 2.0],
                             samples_per_q=10**4, birkhoff_depth=2000, seed=515)
    worst_emp = max(abs(ah - ap) for _, ah, ap in emp)
    elapsed = time.perf_counter() - t0
    ok &= worst_emp <= 0.01 and elapsed < 60.0
    return ok, (f"worst |dim - (q alpha + A_q)| = {worst_dim:.2e} (tol 2e-3); "
                f"worst |alpha - alpha(q)| = {worst_alpha:.2e} (tol 1e-3); "
                f"worst |alpha_hat - alpha(q)| = {worst_emp:.4f} (tol 0.01); "
                f"elapsed {elapsed:.0f}s (< 60s)")


def check_lifted_predictor(ctx: BatteryContext) -> tuple[bool, str]:
    sys1, sys2 = ctx.systems["M1"], ctx.systems["M2"]
    s1 = bowen_root(sys1, s1_family)
    nu1 = measure_stats(sys1, s1_family(s1))
    lift1 = lifted_dim_prediction(nu1)
    s2 = bowen_root(sys2, s2_family)
    nu2 = measure_stats(sys2, s2_family(s2))
    lift2 = lifted_dim_prediction(nu2)
    ok = abs(lift1 - moran_oracle(sys1, "s1")) <= 1e-6
    ok &= abs(lift2 - moran_oracle(sys2, "s2")) <= 1e-6

    worst = 0.0
    sys3 = ctx.systems["M3"]
    for q in (-2.0, -1.0, 0.0, 1.0, 2.0):
        a_q = A_of_q(sys3, q)
        stats = measure_stats(sys3, PotentialSpec(-a_q, q))
        worst = max(worst, abs(lifted_dim_prediction(stats)
                               - jin_upper(stats.dim, stats.alpha)))
    ok &= worst <= 1e-6
    return ok, (f"M1/nu1 -> {lift1:.7f} (= s1); M2/nu2 -> {lift2:.7f} (= s2); "
                f"worst |lift - jin| over M3 grid = {worst:.2e} (tol 1e-6)")


def check_lifted_probe(ctx: BatteryContext) -> tuple[bool, str]:
    # M1: nu_1 draws on the iid-randomised graph
    sys1 = ctx.systems["M1"]
    pot = s1_family(moran_oracle(sys1, "s1"))
    xs = point_of_word(sys1, sample_words(sys1, pot, depth=50, count=10**5, seed=90210), 0.5)
    ys, _, _ = eval_W_many(sys1, xs, ThetaSequence.iid_uniform(777), tol=1e-8)
    cloud = GraphCloud(xs, ys, CloudProvenance("M1", "iid_uniform", 777, 50, 1e-8))
    lifted = correlation_dimension(cloud, [2.0**-k for k in range(2, 9)], seed=31)
    # M2: draws of the q = 0 measure on the repeller itself
    sys2 = ctx.systems["M2"]
    pot = PotentialSpec(-moran_oracle(sys2, "A_of_q", q=0.0), 0.0)
    xs = point_of_word(sys2, sample_words(sys2, pot, depth=50, count=10**5, seed=4181), 0.5)
    cloud = GraphCloud(xs, np.zeros_like(xs), CloudProvenance("M2", "zeros", None, 50, 0.0))
    base = correlation_dimension(cloud, [2.0**-k for k in range(5, 13)], seed=32)
    ok = 1.37 <= lifted.slope <= 1.60
    ok &= 0.61 <= base.slope <= 0.71
    return ok, (f"M1 lifted nu1 correlation slope {lifted.slope:.3f} (band [1.37, 1.60]); "
                f"M2 base q=0 slope {base.slope:.3f} (band [0.61, 0.71], target 0.6603)")


def check_oscillation_holder(ctx: BatteryContext) -> tuple[bool, str]:
    zeros = ThetaSequence.zeros()
    parts = []
    ok = True

    # (a) oscillation band osc/lambda^n over n = 1..16, positive and of bounded width
    band_caps = {"M1": 4.0, "M2": 8.0, "M3": 12.0}
    for name, cap in band_caps.items():
        ratios = _band_ratios(ctx.systems[name], zeros)
        lo, hi = min(ratios), max(ratios)
        ok &= lo > 0 and hi / lo <= cap
        parts.append(f"{name} band [{lo:.2f}, {hi:.2f}] width {hi / lo:.1f} (cap {cap})")

    # (b) skew-product invariance
    worst_skew = 0.0
    tol = 1e-10
    for name in ("M1", "M2", "M3", "M5"):
        sys = ctx.systems[name]
        for theta in (zeros, ThetaSequence.iid_uniform(42)):
            points = ((0.3, 8), (1.0 / 3.0, 10), (0.1234, 5), (0.77, 3), (0.3, 0))
            direct, _, _ = eval_W_many(sys, np.array([x for x, _ in points]), theta, tol)
            for (x, n), value in zip(points, direct.tolist()):
                try:
                    skew = eval_W_skew(sys, x, theta, n, tol)
                except NotInPartition:
                    continue  # orbit left the partition: not a valid probe point
                worst_skew = max(worst_skew, abs(value - skew))
    ok &= worst_skew <= 10.0 * tol
    parts.append(f"skew |direct - pulled back| <= {worst_skew:.2e} (tol {10 * tol:.0e})")

    # (c) estimator agreement on 100 random repeller points per model.
    # Points are depth-30 cylinder midpoints: a float64 point only resolves
    # its first ~log(eps)/log(min |I_1|) digits, so orbits of deeper
    # representatives escape the repeller before step 30; cylinders thinner
    # than 1e-14 are redrawn for the same reason.
    worst_agree = 0.0
    for name in ("M1", "M2", "M3", "M5"):
        sys = ctx.systems[name]
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
    sys2 = ctx.systems["M2"]
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


def _band_ratios(sys: CookieCutterSystem, theta: ThetaSequence) -> list[float]:
    """Criterion 9(a)'s osc/lambda^n for three random words per depth
    n = 1..16: one probe-base walk for all depths, each depth's three words
    in one _oscillations batch."""
    rng = np.random.default_rng(97)
    depths = range(1, 17)
    bases = _probe_bases(sys, depths, theta, 128, 1e-12)
    ratios = []
    for n, base in zip(depths, bases.tolist()):
        words = np.array([rng.integers(0, sys.ell, n) for _ in range(3)]).astype(np.uint8)
        for digits, osc in zip(words, _oscillations(sys, words, theta, 128, base).tolist()):
            if sys.lam.kind == "constant":
                lam_n = sys.lam.value**n
            else:
                lam_n = float(np.prod(np.asarray(sys.lam.values)[digits]))
            ratios.append(osc / lam_n)
    return ratios


def check_distortion(ctx: BatteryContext) -> tuple[bool, str]:
    """Per depth n: fresh sampled depth-n cylinders, two representatives each
    (relative positions 0.25 / 0.75), exact orbits via suffix representatives
    tau^k rho_w(t) = rho_{sigma^k w}(t).  The three ratio families must stay
    under fixed caps for all n <= 20 and show no growth trend past the
    transient over which the distortion constant assembles (n >= 10)."""
    parts = []
    ok = True
    n_max = 20
    for name in ("M1", "M2", "M5"):
        sys = ctx.systems[name]
        per_word = {"A": [], "B": [], "C": []}
        for n in range(1, n_max + 1):
            rng = np.random.default_rng(777 + 13 * n)
            words = rng.integers(0, sys.ell, size=(128, n)).astype(np.uint8)
            sums = {t: _suffix_log_derivative_sums(sys, words, t) for t in (0.25, 0.75)}
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


def _suffix_log_derivative_sums(sys: CookieCutterSystem, words: np.ndarray, t: float) -> np.ndarray:
    """sum_k log|tau'(rho_{sigma^k w}(t))|, k = 0..n-1 in that order, for each
    row w of a (count, n) digit matrix, n <= 64: one _compose, whose value
    after column k is the suffix point point_of_word gives words[:, k:]."""
    terms = [None] * words.shape[1]

    def step(k, u):
        terms[k] = sys.log_abs_tau_prime(u)

    _compose(sys, words, t, step)
    acc = np.zeros(len(words))
    for term in terms:
        acc += term
    return acc


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


CHECKS = [
    ("pressure_oracle", "1. pressure/bowen/A_q equal the Moran oracle on M1-M4", check_pressure_oracle),
    ("bowen_roots", "2. Bowen roots at their stated values", check_bowen_roots),
    ("nonlinear_pressure", "3. nonlinear pressure sanity on M5", check_nonlinear_pressure),
    ("box_dimension", "4. box-count slopes match s1 (incl. randomised)", check_box_dimension),
    ("spectrum", "5. spectrum endpoints, critical point, concavity, degeneracy flags", check_spectrum),
    ("gibbs_chain", "6. Gibbs identity chain and empirical exponents on M3", check_gibbs_chain),
    ("lifted_predictor", "7. lifted-dimension predictor identities", check_lifted_predictor),
    ("lifted_probe", "8. correlation-dimension probes in band", check_lifted_probe),
    ("oscillation_holder", "9. oscillation band, skew invariance, estimator agreement, gap smoothness", check_oscillation_holder),
    ("distortion", "10. bounded distortion with no growth trend", check_distortion),
]

CHECK_IDS = [cid for cid, _, _ in CHECKS]


def run_battery(criteria=None) -> list[CheckResult]:
    """Run the criteria named in ``criteria`` (all ten when it is None) in
    battery order, sharing one BatteryContext."""
    ctx = BatteryContext()
    results = []
    for cid, title, fn in CHECKS:
        if criteria is not None and cid not in criteria:
            continue
        t0 = time.perf_counter()
        try:
            passed, detail = fn(ctx)
        except Exception as exc:  # a crash is a failed criterion, not a crashed battery
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append(CheckResult(cid, title, passed, detail, time.perf_counter() - t0))
    return results
