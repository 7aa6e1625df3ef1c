"""Empirical fractal geometry: graph clouds, box counting, Hoelder-exponent
estimators, empirical multifractal spectra, and dimension probes for lifted
measures (pair-correlation slope).

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
    _check_budget,
    _orbit,
    _walk,
    birkhoff_sums_from_digits,
    cylinder_bounds_many,
    torus_distance,
)
from .errors import DegenerateFit, NotInPartition, OscillationUnderflow
from .graph import _oscillations, eval_W_many
from .report import write_csv
from .theta import ThetaSequence
from .thermo import A_of_q, PotentialSpec, sample_words

_DENSITY_FLOOR = 10.0  # points per occupied box at the finest fitted scale
_CLUSTER = 7  # deep-anchor depths averaged by the oscillation slope estimator
_R2_MIN = 0.95  # least r^2 of an accepted box-count or correlation fit
_MAX_PAIRS = 10**6  # point pairs sampled by correlation_dimension


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
                 restrict_to_repeller: bool = False) -> GraphCloud:
    """Sample (x, W_theta(x)).

    Unrestricted: uniform grid of ell^depth * per_cylinder points on [0,1).
    Restricted: per_cylinder stratified representatives inside every depth-n
    cylinder (a Moran cover of the repeller), so all x lie on the repeller.
    """
    total = sys.ell**depth * per_cylinder
    _check_budget(total)
    if restrict_to_repeller:
        xs = _walk(sys, (np.arange(per_cylinder) + 0.5) / per_cylinder, depth)
        xs.sort()  # in place: no second copy of the cloud
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


def box_dimension(cloud: GraphCloud, scales, drop: tuple[int, int] = (2, 2)) -> BoxCountResult:
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
    if not all(math.isfinite(r) and r > 0.0 for r in scales):
        raise ValueError("box scales must be finite and positive")
    if len(cloud) == 0 or not (np.isfinite(cloud.x).all() and np.isfinite(cloud.y).all()):
        raise ValueError("box counting needs a non-empty cloud of finite points")
    y0 = float(cloud.y.min())
    counts = []
    for r in scales:
        ix = np.floor(cloud.x / r).astype(np.int64)
        iy = np.floor((cloud.y - y0) / r).astype(np.int64)
        key = np.sort(ix * (iy.max() + 2) + iy)
        counts.append(int(np.count_nonzero(key[1:] != key[:-1])) + 1)

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
    if r2 < _R2_MIN:
        raise DegenerateFit(f"box-count fit r^2 = {r2:.4f} < {_R2_MIN}", result)
    return result


# ---------------------------------------------------------------------------
# Hoelder exponents
# ---------------------------------------------------------------------------

def holder_birkhoff(sys: CookieCutterSystem, x: float, n: int) -> float:
    """Symbolic exponent -S_n(log lambda) / S_n(log|tau'|); lies in (0,1)
    whenever the partial hyperbolicity condition holds."""
    return float(holder_birkhoff_many(sys, [x], n)[0])


def holder_birkhoff_many(sys: CookieCutterSystem, xs, n: int) -> np.ndarray:
    """holder_birkhoff at each point of xs, from one orbit walk; both sums
    add their terms left to right, as birkhoff_sum does.  NotInPartition(k)
    for the first point, in the order of xs, whose iterate k leaves the
    partition."""
    if n < 1:
        raise ValueError("depth must be >= 1")
    _, points, left = _orbit(sys, xs, n)
    out = np.flatnonzero(left < n)
    if out.size:
        raise NotInPartition(int(left[out[0]]))
    log_tp, log_lam = sys.log_abs_tau_prime(points), sys.log_lam(points)
    u, v = np.zeros(len(points)), np.zeros(len(points))
    for k in range(n):
        u += log_tp[:, k]
        v += log_lam[:, k]
    return -v / u


def holder_oscillation(sys: CookieCutterSystem, x: float, theta: ThetaSequence,
                       depth_range=range(1, 21), probes: int = 128,
                       tol: float = 1e-12, _curve=None) -> float:
    """Oscillation-based Hoelder exponent of W at x, clamped to (0,1].

    A difference quotient of log(osc over I_n(x)) against log|I_n(x)| across
    the depth range: the oscillation band constant cancels, which the raw
    per-depth ratio cannot afford at reachable depths (its bias is
    log(band)/log|I_n|, an O(1/n) term that swamps the exponent below depth
    ~100).  The shallow anchor is the first depth of the range -- anchoring
    deeper silently removes the leading digits from the exponent's symbolic
    window -- and the deep anchor averages the last 7 depths to tame
    per-depth band fluctuation.

    ``_curve`` swaps in an alternative height function (testing hook for
    synthetic smooth curves).
    """
    return float(holder_oscillation_many(sys, [x], theta, depth_range, probes, tol, _curve)[0])


def holder_oscillation_many(sys: CookieCutterSystem, xs, theta: ThetaSequence,
                            depth_range=range(1, 21), probes: int = 128,
                            tol: float = 1e-12, _curve=None) -> np.ndarray:
    """holder_oscillation at each point of xs: one orbit walk codes every
    itinerary to the deepest depth, one batched series evaluation per depth."""
    depths = sorted(depth_range)
    if not depths:
        raise ValueError("depth_range must be nonempty")
    if len(depths) < 2:
        raise ValueError("slope estimator needs two distinct depths")
    hi_cluster = depths[-max(1, min(_CLUSTER, len(depths) - 1)):]
    xs = np.asarray(xs, dtype=float)
    n_max = depths[-1]
    # Iterate at which each orbit leaves the partition.  It is raised at the
    # first depth past it, so an earlier depth's OscillationUnderflow still
    # comes first, as when each depth was coded on its own.
    words, _, left = _orbit(sys, xs, n_max)

    def logs(n):
        """log(osc over I_n) and log|I_n| per point."""
        out = np.flatnonzero(left < n)
        if out.size:
            raise NotInPartition(int(left[out[0]]))
        osc = _oscillations(sys, words[:, :n], theta, probes, tol, _curve)
        if np.any(osc < 10.0 * tol):
            raise OscillationUnderflow(
                f"oscillation {osc.min():.3g} at depth {n} is below 10*tol; "
                "increase probes or loosen the depth range")
        lo, hi = cylinder_bounds_many(sys, words[:, :n])
        # math.log, not np.log: numpy's SIMD log differs from libm in the
        # last bit on some inputs, and the per-point exponents used libm
        return (np.array([math.log(v) for v in osc.tolist()]),
                np.array([math.log(v) for v in (hi - lo).tolist()]))

    y_lo, x_lo = logs(depths[0])
    y_hi = x_hi = 0.0
    for n in hi_cluster:
        lg_osc, lg_len = logs(n)
        y_hi = y_hi + lg_osc
        x_hi = x_hi + lg_len
    value = (y_hi / len(hi_cluster) - y_lo) / (x_hi / len(hi_cluster) - x_lo)
    return np.clip(value, 1e-12, 1.0)


def empirical_spectrum(sys: CookieCutterSystem, q_grid, samples_per_q: int,
                       birkhoff_depth: int, seed: int) -> list[tuple[float, float, float]]:
    """For each q: draw a Gibbs sample for the spectrum potential and average
    the symbolic exponent over it; paired with the predicted alpha(q)."""
    step = 1e-3  # finite-difference step of the predicted alpha(q)
    out = []
    for j, q in enumerate(q_grid):
        a_q = A_of_q(sys, float(q))
        pot = PotentialSpec(-a_q, float(q))
        digits = sample_words(sys, pot, birkhoff_depth, samples_per_q, seed + j)
        u, v = birkhoff_sums_from_digits(sys, digits)
        alpha_hat = float(np.mean(-v / u))
        a_plus = A_of_q(sys, float(q) + step)
        a_minus = A_of_q(sys, float(q) - step)
        alpha_pred = -(a_plus - a_minus) / (2.0 * step)
        out.append((float(q), alpha_hat, alpha_pred))
    return out


# ---------------------------------------------------------------------------
# pair probes
# ---------------------------------------------------------------------------

def _pair_distances(cloud: GraphCloud, seed: int) -> np.ndarray:
    n = len(cloud)
    if n < 2:
        raise ValueError("need at least 2 points")
    rng = np.random.default_rng(seed)
    i = rng.integers(0, n, size=_MAX_PAIRS)
    j = rng.integers(0, n - 1, size=_MAX_PAIRS)
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


def correlation_dimension(cloud: GraphCloud, radii, *, seed: int = 0) -> CorrelationResult:
    """Pair-correlation slope: fit log C(r) against log r over the radii
    ladder, C(r) the fraction of sampled pairs within distance r (planar
    distance with a torus first coordinate)."""
    radii = sorted(float(r) for r in radii)
    if len(radii) < 5:
        raise ValueError("need at least 5 radii")
    if len(cloud) < 10**3:
        raise ValueError("need at least 1000 points")
    d = _pair_distances(cloud, seed)
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
    if r2 < _R2_MIN:
        raise DegenerateFit(f"correlation fit r^2 = {r2:.4f} < {_R2_MIN}", result)
    return result
