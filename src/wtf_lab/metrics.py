"""Empirical fractal geometry: graph clouds, box counting, Hoelder-exponent
estimators, empirical multifractal spectra, and dimension probes for lifted
measures (pair-correlation slope, s-energy).

Clouds live on the cylinder [0,1) x R: horizontal distances are torus
distances, vertical distances Euclidean.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, asdict
from pathlib import Path

import numpy as np

from .dynamics import (
    CookieCutterSystem,
    birkhoff_sum,
    birkhoff_sums_from_digits,
    code_of,
    cylinder_bounds_many,
    cylinder_budget,
    cylinder_of,
    point_of_word,
    torus_distance,
)
from .errors import BudgetExceeded, DegenerateFit, OscillationUnderflow
from .graph import eval_W_many, oscillation_over
from .report import write_csv
from .theta import ThetaSequence
from .thermo import A_of_q, PotentialSpec, sample_words

_DENSITY_FLOOR = 10.0  # points per occupied box at the finest fitted scale
_CLUSTER = 7  # deep-anchor depths averaged by the oscillation slope estimator
_INSTABILITY = 0.10  # relative drift of the s-energy mean that reads as divergence


@dataclass(frozen=True)
class CloudProvenance:
    model_id: str
    theta_mode: str
    theta_seed: int | None
    depth: int
    tol: float
    restricted: bool = False
    per_cylinder: int = 1

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class GraphCloud:
    x: np.ndarray
    y: np.ndarray
    provenance: CloudProvenance

    def __post_init__(self):
        if len(self.x) != len(self.y):
            raise ValueError("x and y must have equal length")

    def __len__(self) -> int:
        return len(self.x)


def sample_graph(sys: CookieCutterSystem, theta: ThetaSequence, depth: int,
                 per_cylinder: int, tol: float = 1e-8,
                 restrict_to_repeller: bool = False,
                 budget: int | None = None) -> GraphCloud:
    """Sample (x, W_theta(x)).

    Unrestricted: uniform grid of ell^depth * per_cylinder points on [0,1).
    Restricted: per_cylinder stratified representatives inside every depth-n
    cylinder (a Moran cover of the repeller), so all x lie on the repeller.
    """
    budget = cylinder_budget() if budget is None else budget
    total = sys.ell**depth * per_cylinder
    if total > budget:
        raise BudgetExceeded(f"{total} sample points exceed budget {budget}")
    if restrict_to_repeller:
        parts = []
        for j in range(per_cylinder):
            t = (j + 0.5) / per_cylinder
            parts.append(sys.representatives(depth, t, budget=budget))
        xs = np.sort(np.concatenate(parts))
    else:
        xs = np.arange(total, dtype=float) / total
    ys, _, _ = eval_W_many(sys, xs, theta, tol)
    prov = CloudProvenance(
        model_id=sys.model_id,
        theta_mode=theta.mode,
        theta_seed=theta.seed,
        depth=depth,
        tol=tol,
        restricted=restrict_to_repeller,
        per_cylinder=per_cylinder,
    )
    return GraphCloud(xs, ys, prov)


def write_cloud_csv(cloud: GraphCloud, path) -> None:
    """x,y CSV (see report.write_csv), provenance sidecar <path>.meta.json."""
    write_csv(path, ("x", "y"), zip(cloud.x.tolist(), cloud.y.tolist()))
    with open(str(path) + ".meta.json", "w", newline="\n") as fh:
        json.dump(cloud.provenance.to_dict(), fh, sort_keys=True, indent=2)
        fh.write("\n")


def read_cloud_csv(path) -> GraphCloud:
    path = Path(path)
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    meta_path = Path(str(path) + ".meta.json")
    if meta_path.exists():
        prov = CloudProvenance(**json.loads(meta_path.read_text()))
    else:
        prov = CloudProvenance("unknown", "zeros", None, 0, 0.0)
    return GraphCloud(data[:, 0], data[:, 1], prov)


# ---------------------------------------------------------------------------
# box counting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoxCountResult:
    scales: tuple[float, ...]
    counts: tuple[int, ...]
    slope: float
    stderr: float
    r2: float
    scale_window: tuple[int, ...]
    warnings: tuple[str, ...] = ()


def _fit_loglog(log_x: np.ndarray, log_y: np.ndarray) -> tuple[float, float, float]:
    n = len(log_x)
    xm, ym = log_x.mean(), log_y.mean()
    sxx = float(((log_x - xm) ** 2).sum())
    slope = float(((log_x - xm) * (log_y - ym)).sum() / sxx)
    intercept = ym - slope * xm
    resid = log_y - (slope * log_x + intercept)
    sse = float((resid**2).sum())
    sst = float(((log_y - ym) ** 2).sum())
    stderr = math.sqrt(sse / max(n - 2, 1) / sxx)
    r2 = 1.0 - sse / sst if sst > 0 else 1.0
    return slope, stderr, r2


def box_dimension(cloud: GraphCloud, scales, drop: tuple[int, int] = (2, 2),
                  r2_threshold: float = 0.95) -> BoxCountResult:
    """Least-squares slope of log N_r against -log r for an axis-aligned grid
    anchored at (0, min y).

    Window policy: drop the coarsest/finest ``drop`` scales (coarse scales
    saturate, fine scales undersample), and keep only scales with at least
    10 points per occupied box -- a finite cloud cannot
    witness N_r beyond its own cardinality, so point-starved scales read a
    spurious slope.  If fewer than 3 scales survive both cuts, the
    density-valid scales alone are used; failing that, the drop window with
    a warning.
    """
    scales = sorted((float(r) for r in scales), reverse=True)
    if len(scales) < 6:
        raise ValueError("need at least 6 scales")
    y0 = float(cloud.y.min())
    counts = []
    for r in scales:
        ix = np.floor(cloud.x / r).astype(np.int64)
        iy = np.floor((cloud.y - y0) / r).astype(np.int64)
        key = ix * (iy.max() + 2) + iy
        counts.append(int(np.unique(key).size))

    warnings = []
    n_pts = len(cloud)
    valid = {i for i, c in enumerate(counts) if c * _DENSITY_FLOOR <= n_pts}
    lo, hi = drop
    candidate = range(lo, len(scales) - hi)
    window = tuple(i for i in candidate if i in valid)
    if len(window) < 3:
        window = tuple(sorted(valid))
    if len(window) < 3:
        window = tuple(candidate)
        warnings.append("density floor unreachable at every scale; "
                        "fitting the raw drop window")
    if len(window) < 2:
        raise ValueError("window policy leaves fewer than 2 scales")
    density = n_pts / counts[window[-1]]
    if density < _DENSITY_FLOOR:
        warnings.append(
            f"only {density:.1f} points per occupied box at the finest fitted "
            f"scale {scales[window[-1]]:g}; slope may be biased low")

    log_inv_r = np.log(1.0 / np.array([scales[i] for i in window]))
    log_n = np.log(np.array([counts[i] for i in window], dtype=float))
    slope, stderr, r2 = _fit_loglog(log_inv_r, log_n)
    result = BoxCountResult(tuple(scales), tuple(counts), slope, stderr, r2,
                            window, tuple(warnings))
    if r2 < r2_threshold:
        raise DegenerateFit(f"box-count fit r^2 = {r2:.4f} < {r2_threshold}", result)
    return result


# ---------------------------------------------------------------------------
# Hoelder exponents
# ---------------------------------------------------------------------------

def holder_birkhoff(sys: CookieCutterSystem, x: float, n: int) -> float:
    """Symbolic exponent -S_n(log lambda) / S_n(log|tau'|); lies in (0,1)
    whenever the partial hyperbolicity condition holds."""
    num = -birkhoff_sum(sys, "log_lambda", x, n)
    den = birkhoff_sum(sys, "log_abs_tau_prime", x, n)
    return num / den


def _osc_exponent_terms(sys, x, n, theta, probes, tol, _curve):
    word = code_of(sys, x, n)
    cyl = cylinder_of(sys, word)
    osc = oscillation_over(sys, word, theta, probes=probes, tol=tol, _curve=_curve).osc
    if osc < 10.0 * tol:
        raise OscillationUnderflow(
            f"oscillation {osc:.3g} at depth {n} is below 10*tol; "
            "increase probes or loosen the depth range")
    return math.log(osc), math.log(cyl.length)


def holder_oscillation(sys: CookieCutterSystem, x: float, theta: ThetaSequence,
                       depth_range=range(1, 21), probes: int = 128,
                       tol: float = 1e-12, estimator: str = "slope",
                       _curve=None) -> float:
    """Oscillation-based Hoelder exponent of W at x, clamped to (0,1].

    The default "slope" estimator is a difference quotient of log(osc over
    I_n(x)) against log|I_n(x)| across the depth range: the oscillation band
    constant cancels, which the raw per-depth ratio cannot afford at
    reachable depths (its bias is log(band)/log|I_n|, an O(1/n) term that
    swamps the exponent below depth ~100).  The shallow anchor is the first
    depth of the range -- anchoring deeper silently removes the leading
    digits from the exponent's symbolic window -- and the deep anchor
    averages the last 7 depths to tame per-depth band fluctuation.
    "ratio_min" keeps the conservative per-depth ratios and takes their
    minimum as the finite-depth liminf; expect it to sit below the true
    exponent by the band bias.
    """
    depths = sorted(depth_range)
    if not depths:
        raise ValueError("depth_range must be nonempty")
    if estimator == "slope":
        if len(depths) < 2:
            raise ValueError("slope estimator needs two distinct depths")
        lo_osc, lo_len = _osc_exponent_terms(sys, x, depths[0], theta, probes, tol, _curve)
        hi_osc = hi_len = 0.0
        hi_cluster = depths[-max(1, min(_CLUSTER, len(depths) - 1)):]
        for n in hi_cluster:
            o, l = _osc_exponent_terms(sys, x, n, theta, probes, tol, _curve)
            hi_osc += o
            hi_len += l
        hi_osc /= len(hi_cluster)
        hi_len /= len(hi_cluster)
        value = (hi_osc - lo_osc) / (hi_len - lo_len)
    elif estimator == "ratio_min":
        ratios = []
        for n in depths:
            lg_osc, lg_len = _osc_exponent_terms(sys, x, n, theta, probes, tol, _curve)
            ratios.append(lg_osc / lg_len)
        value = min(ratios)
    else:
        raise ValueError(f"unknown estimator {estimator!r}")
    return min(1.0, max(1e-12, value))


def _batched_osc_logs(sys, words_n: np.ndarray, theta, probes: int, tol: float):
    """log(osc) and log|I_n| for a batch of same-depth words, probing every
    word with the representatives of its depth-m refinements in one sweep."""
    from .dynamics import enumerate_words, point_of_word

    count, n = words_n.shape
    m = max(1, math.ceil(math.log(max(probes, 2)) / math.log(sys.ell)))
    sub = enumerate_words(sys.ell, m)
    per = len(sub)
    ext = np.empty((count * per, n + m), dtype=np.uint8)
    ext[:, :n] = np.repeat(words_n, per, axis=0)
    ext[:, n:] = np.tile(sub, (count, 1))
    pts = point_of_word(sys, ext, 0.5)
    ys, _, _ = eval_W_many(sys, pts, theta, tol)
    ys = ys.reshape(count, per)
    osc = ys.max(axis=1) - ys.min(axis=1)
    if np.any(osc < 10.0 * tol):
        raise OscillationUnderflow(f"oscillation underflow at depth {n}")
    lo, hi = cylinder_bounds_many(sys, words_n)
    return np.log(osc), np.log(hi - lo)


def holder_oscillation_many(sys: CookieCutterSystem, xs, theta: ThetaSequence,
                            depth_range=range(1, 21), probes: int = 128,
                            tol: float = 1e-12) -> np.ndarray:
    """Vectorized slope estimator (see holder_oscillation): shallow anchor at
    the first depth of the range, deep anchor averaged over the last 7
    depths, one batched series evaluation per depth."""
    depths = sorted(depth_range)
    if len(depths) < 2:
        raise ValueError("need at least two depths")
    hi_cluster = depths[-max(1, min(_CLUSTER, len(depths) - 1)):]
    xs = np.asarray(xs, dtype=float)

    def anchor(cluster_depths):
        y = np.zeros(len(xs))
        x_acc = np.zeros(len(xs))
        for n in cluster_depths:
            words = np.empty((len(xs), n), dtype=np.uint8)
            for j, x in enumerate(xs):
                words[j] = code_of(sys, float(x), n).as_array()
            lg_osc, lg_len = _batched_osc_logs(sys, words, theta, probes, tol)
            y += lg_osc
            x_acc += lg_len
        return y / len(cluster_depths), x_acc / len(cluster_depths)

    y_lo, x_lo = anchor(depths[:1])
    y_hi, x_hi = anchor(hi_cluster)
    value = (y_hi - y_lo) / (x_hi - x_lo)
    return np.clip(value, 1e-12, 1.0)


def empirical_spectrum(sys: CookieCutterSystem, q_grid, samples_per_q: int,
                       birkhoff_depth: int, seed: int,
                       fd_step: float = 1e-3) -> list[tuple[float, float, float]]:
    """For each q: draw a Gibbs sample for the spectrum potential and average
    the symbolic exponent over it; paired with the predicted alpha(q)."""
    out = []
    for j, q in enumerate(q_grid):
        a_q = A_of_q(sys, float(q))
        pot = PotentialSpec(-a_q, float(q))
        digits = sample_words(sys, pot, birkhoff_depth, samples_per_q, seed + j)
        u, v = birkhoff_sums_from_digits(sys, digits)
        alpha_hat = float(np.mean(-v / u))
        a_plus = A_of_q(sys, float(q) + fd_step)
        a_minus = A_of_q(sys, float(q) - fd_step)
        alpha_pred = -(a_plus - a_minus) / (2.0 * fd_step)
        out.append((float(q), alpha_hat, alpha_pred))
    return out


# ---------------------------------------------------------------------------
# pair probes
# ---------------------------------------------------------------------------

def _pair_distances(cloud: GraphCloud, max_pairs: int, seed: int) -> np.ndarray:
    n = len(cloud)
    if n < 2:
        raise ValueError("need at least 2 points")
    rng = np.random.default_rng(seed)
    i = rng.integers(0, n, size=max_pairs)
    j = rng.integers(0, n - 1, size=max_pairs)
    j = np.where(j >= i, j + 1, j)  # uniform over j != i
    dx = torus_distance(cloud.x[i], cloud.x[j])
    dy = cloud.y[i] - cloud.y[j]
    return np.hypot(dx, dy)


@dataclass(frozen=True)
class CorrelationResult:
    slope: float
    stderr: float
    r2: float
    radii: tuple[float, ...]
    correlations: tuple[float, ...]
    warnings: tuple[str, ...] = ()


def correlation_dimension(cloud: GraphCloud, radii, max_pairs: int = 10**6,
                          seed: int = 0, r2_threshold: float = 0.95) -> CorrelationResult:
    """Pair-correlation slope: fit log C(r) against log r over the radii
    ladder, C(r) the fraction of sampled pairs within distance r (planar
    distance with a torus first coordinate)."""
    radii = sorted(float(r) for r in radii)
    if len(radii) < 5:
        raise ValueError("need at least 5 radii")
    if len(cloud) < 10**3:
        raise ValueError("need at least 1000 points")
    d = _pair_distances(cloud, max_pairs, seed)
    corr = np.array([(d <= r).mean() for r in radii])
    warnings = []
    keep = corr > 0
    if not keep.all():
        warnings.append("dropped radii with zero pair counts")
    if keep.sum() < 3:
        raise DegenerateFit("fewer than 3 radii with nonzero pair counts",
                            CorrelationResult(math.nan, math.nan, 0.0,
                                              tuple(radii), tuple(corr)))
    slope, stderr, r2 = _fit_loglog(np.log(np.array(radii)[keep]), np.log(corr[keep]))
    result = CorrelationResult(slope, stderr, r2, tuple(radii), tuple(corr),
                               tuple(warnings))
    if r2 < r2_threshold:
        raise DegenerateFit(f"correlation fit r^2 = {r2:.4f} < {r2_threshold}", result)
    return result


@dataclass(frozen=True)
class EnergyEstimate:
    value: float
    diverged: bool
    pairs: int


def s_energy(cloud: GraphCloud, s: float, max_pairs: int = 10**6,
             seed: int = 0) -> EnergyEstimate:
    """Monte Carlo s-energy: mean of distance^(-s) over sampled pairs.

    Reported as diverged when the running mean moves by more than 10%
    (relative) over the last doubling of the sample --
    the signature of a non-integrable singularity."""
    if s <= 0:
        raise ValueError("s must be positive")
    d = _pair_distances(cloud, max_pairs, seed)
    d = d[d > 0]
    e = d ** (-s)
    half = len(e) // 2
    mean_half = float(e[:half].mean())
    mean_full = float(e.mean())
    rel = abs(mean_full - mean_half) / abs(mean_full)
    return EnergyEstimate(mean_full, rel > _INSTABILITY, len(e))
