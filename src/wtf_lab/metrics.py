"""Empirical fractal geometry: graph clouds, box counting, Hoelder-exponent
estimators, the degeneracy test, empirical multifractal spectra, and
dimension probes for lifted measures (pair-correlation slope).

Clouds live on the cylinder [0,1) x R: horizontal distances are torus
distances, vertical distances Euclidean.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, asdict
from pathlib import Path

import numpy as np

from .dynamics import (
    CookieCutterSystem,
    _birkhoff_sums,
    _birkhoff_sums_from_counts,
    _check_budget,
    _check_words,
    _orbit,
    _require_ints,
    _walk,
    birkhoff_sums_along,
    enumerate_words,
    torus_distance,
)
from .errors import BadConfig, DegenerateFit, Inconclusive, NotInPartition, OscillationUnderflow
from .graph import _oscillations, _skew_step, eval_W_many
from .report import write_csv
from .theta import ThetaSequence
from .thermo import A_of_q, PotentialSpec, measure_stats, sample_digit_counts

_DENSITY_FLOOR = 10.0  # points per occupied box at the finest fitted scale
_CLUSTER = 7  # deep-anchor depths averaged by the oscillation slope estimator
_R2_MIN = 0.95  # least r^2 of an accepted box-count or correlation fit
_MAX_PAIRS = 10**6  # point pairs sampled by correlation_dimension
_PAIR_BLOCK = 2**16  # pairs per block of correlation_dimension's distance counts
# detect_degenerate: its depths, sampled cylinders per depth, probes per
# cylinder, series tolerance and word seed
_DEGENERACY_DEPTHS = range(2, 13)
_WORDS_PER_DEPTH = 8
_DEGENERACY_PROBES = 128
_DEGENERACY_TOL = 1e-12
_DEGENERACY_SEED = 2024


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

    Restricted clouds walk the start values (j + 1/2) / per_cylinder down
    the cylinder tree; affine full systems walk j / per_cylinder, kept where
    the walk gives the grid bit for bit (the ell-adic maps with a
    power-of-two per_cylinder).  One _walk carries one series value per
    start value up the skew product; every other grid sums the forward
    series at each point.  ValueError for a depth that is not an integer
    >= 0 or a per_cylinder that is not an integer >= 1.
    """
    _require_ints(0, depth=depth)
    _require_ints(1, per_cylinder=per_cylinder)
    total = _check_words(sys.ell, depth, per_cylinder)
    xs = ys = None
    if restrict_to_repeller or (sys.is_affine and sys.is_full):
        t = (np.arange(per_cylinder) + (0.5 if restrict_to_repeller else 0.0)) / per_cylinder
        base, _, _ = eval_W_many(sys, t, theta.shift(depth), tol)
        xs, ys = _walk(sys, t, depth, _skew_step(sys, theta, depth), base)
    if not restrict_to_repeller:
        grid = np.arange(total, dtype=float) / total
        if xs is None or not np.array_equal(xs, grid):
            ys, _, _ = eval_W_many(sys, grid, theta, tol)
        xs = grid
    elif not np.all(xs[1:] >= xs[:-1]):  # decreasing branches reverse the walk order
        order = np.argsort(xs, kind="stable")
        xs, ys = xs[order], ys[order]
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
    write_csv(path, ("x", "y"), (cloud.x, cloud.y))
    with open(str(path) + ".meta.json", "w", newline="\n") as fh:
        json.dump(cloud.provenance.to_dict(), fh, sort_keys=True, indent=2)
        fh.write("\n")


def read_cloud_csv(path) -> GraphCloud:
    """The cloud of an x,y CSV and of its provenance sidecar, if there is one.
    BadConfig naming path for one that cannot be opened (not a path, no such
    file, a directory), and BadConfig unless the file's first line is the
    header x,y and one or more rows of exactly two numeric columns follow it."""
    try:
        path = Path(path)
        fh = open(path)
    except (OSError, TypeError, ValueError) as exc:  # ValueError: a NUL in the name
        raise BadConfig(f"cannot read the cloud CSV {path}: {exc}") from exc
    try:
        with fh:
            header = fh.readline().rstrip("\r\n")
        if header == "x,y":
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # loadtxt's "no data" warning
                # a path, not fh: loadtxt reads a path in blocks, a handle line by line
                data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except ValueError as exc:  # UnicodeDecodeError included
        raise BadConfig(f"{path.name} is not an x,y CSV: {exc}") from exc
    if header != "x,y":
        raise BadConfig(f"{path.name} must start with the header line x,y, not {header[:40]!r}")
    if data.shape[0] == 0 or data.shape[1] != 2:
        raise BadConfig(f"{path.name} must hold one or more rows of exactly two numeric "
                        f"columns, not {data.shape[0]} rows of {data.shape[1]}")
    meta_path = Path(str(path) + ".meta.json")
    try:
        prov = (CloudProvenance(**json.loads(meta_path.read_text())) if meta_path.exists()
                else CloudProvenance("unknown", "zeros", None, 0, 0.0))
    except (TypeError, ValueError) as exc:  # not JSON, not an object, or other fields
        raise BadConfig(f"{meta_path.name} is not a cloud provenance sidecar: {exc}") from exc
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


def _morton(ix: np.ndarray, iy: np.ndarray) -> np.ndarray:
    """Z-order keys of uint64 indices below 2^32: bit i of ix to bit 2i, of iy to 2i + 1."""
    for v in (ix, iy):  # in place
        for shift, mask in ((16, 0x0000FFFF0000FFFF), (8, 0x00FF00FF00FF00FF), (4, 0x0F0F0F0F0F0F0F0F),
                            (2, 0x3333333333333333), (1, 0x5555555555555555)):
            v |= v << shift
            v &= mask
    return ix | iy << 1


def box_dimension(cloud: GraphCloud, scales, drop: tuple[int, int] = (2, 2)) -> BoxCountResult:
    """Least-squares slope of log N_r against -log r for an axis-aligned grid
    anchored at (0, min y).

    N_r counts the occupied boxes (floor(x / r), floor((y - min y) / r)); a
    point 2^31 or more finest boxes from (0, min y) is a ValueError before any
    count.  Scales r = fine 2^j <= 1 sort the finest boxes' Morton keys once
    (floor(x / r) is floor(x / fine) >> j); other lists sort per scale.

    Window policy: drop the coarsest/finest ``drop`` scales (coarse scales
    saturate, fine scales undersample), and keep only scales with at least
    10 points per occupied box -- a finite cloud cannot witness N_r beyond
    its own cardinality, so point-starved scales read a spurious slope.  If
    fewer than 3 scales survive both cuts, the density-valid scales alone
    are used; failing that, the drop window with a warning.
    """
    scales = sorted((float(r) for r in scales), reverse=True)
    if len(scales) < 6:
        raise ValueError("need at least 6 scales")
    if not all(math.isfinite(r) and r > 0.0 for r in scales):
        raise ValueError("box scales must be finite and positive")
    if len(set(scales)) < len(scales):  # equal scales leave the log-log fit no spread
        raise ValueError("box scales must be distinct")
    if len(cloud) == 0 or not (np.isfinite(cloud.x).all() and np.isfinite(cloud.y).all()):
        raise ValueError("box counting needs a non-empty cloud of finite points")
    if not all(isinstance(k, (int, np.integer)) for k in drop):
        raise ValueError("the scales dropped at each end must be integers")
    if min(drop) < 0:
        raise ValueError("the scales dropped at each end must be >= 0")
    y0, fine = float(cloud.y.min()), scales[-1]
    if max(-float(cloud.x.min()), float(cloud.x.max()), float(cloud.y.max()) - y0) / fine >= 2**31:
        raise ValueError(f"box scale {fine:g} puts a point 2^31 or more boxes from (0, min y)")
    (m, e), exps = math.frexp(fine), [math.frexp(r) for r in scales]
    if scales[0] <= 1.0 and all(mr == m for mr, _ in exps):  # r = fine 2^j, no x / r rounds to -0.0
        ix, iy = np.floor(cloud.x / fine), np.floor((cloud.y - y0) / fine)  # in [-2^31, 2^31)
        # the offset 2^31 is a multiple of 2^j for j <= 31, and past 31 no index moves
        key = _morton((ix + 2.0**31 if ix.min() < 0 else ix).astype(np.uint64), iy.astype(np.uint64))
        del ix, iy
        key.sort()
        high = key[1:] ^ key[:-1]  # >= 4^j where neighbours differ after >> 2j
        counts = [int(np.count_nonzero(high >= 1 << 2 * min(er - e, 31))) + 1 for _, er in exps]
    else:
        counts = []
        for r in scales:
            ix, iy = np.floor(cloud.x / r).astype(np.int64), np.floor((cloud.y - y0) / r).astype(np.int64)
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
    partition; ValueError for an n that is not an integer >= 1."""
    _require_ints(1, depth=n)
    u, v = _birkhoff_sums(sys, xs, n)
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
    itinerary to the deepest depth, and one _oscillations call over the
    word matrices of every depth used gives, depth by depth, the
    oscillations and the cylinder lengths.  Its tolerance and probe-count
    errors come before any depth; then per depth, earlier depths first,
    NotInPartition for a point whose orbit has left the partition,
    InversionFailed for an unresolved cylinder (from _oscillations),
    OscillationUnderflow when osc < 10*tol, and OscillationUnderflow when a
    cylinder length is 0.  ValueError for a depth or probe count that
    is not an integer, a depth below 1, or fewer than two distinct depths."""
    if isinstance(depth_range, range) and depth_range:  # lazy: bound its length before listing it
        _check_budget(abs(depth_range[-1] - depth_range[0]) + 1)
    depths = sorted(depth_range)
    _require_ints(probes=probes, **{f"depth_range entry {i}": n for i, n in enumerate(depths)})
    if not depths:
        raise ValueError("depth_range must be nonempty")
    if depths[0] < 1:
        raise ValueError("depth must be >= 1")
    if depths[0] == depths[-1]:
        raise ValueError("slope estimator needs two distinct depths")
    hi_cluster = depths[-max(1, min(_CLUSTER, len(depths) - 1)):]
    xs = np.asarray(xs, dtype=float)
    n_max = depths[-1]
    # Iterate at which each orbit leaves the partition.  It is raised at the
    # first depth past it, so an earlier depth's OscillationUnderflow still
    # comes first, as when each depth was coded on its own.
    words, _, left = _orbit(sys, xs, n_max)
    used = [depths[0]] + hi_cluster
    pairs = _oscillations(sys, [words[:, :n] for n in used], theta, probes, tol, _curve)

    def logs(n):
        """log(osc over I_n) and log|I_n| per point, n the next depth of used."""
        out = np.flatnonzero(left < n)
        if out.size:
            raise NotInPartition(int(left[out[0]]))
        osc, length = next(pairs)
        if np.any(osc < 10.0 * tol):
            raise OscillationUnderflow(
                f"oscillation {osc.min():.3g} at depth {n} is below 10*tol; "
                "increase probes or loosen the depth range")
        if not np.all(length > 0.0):
            raise OscillationUnderflow(f"a cylinder length at depth {n} rounds to 0")
        # math.log, not np.log: numpy's SIMD log differs from libm in the
        # last bit on some inputs, and the per-point exponents used libm
        return (np.array([math.log(v) for v in osc.tolist()]),
                np.array([math.log(v) for v in length.tolist()]))

    y_lo, x_lo = logs(depths[0])
    y_hi = x_hi = 0.0
    for n in hi_cluster:
        lg_osc, lg_len = logs(n)
        y_hi = y_hi + lg_osc
        x_hi = x_hi + lg_len
    value = (y_hi / len(hi_cluster) - y_lo) / (x_hi / len(hi_cluster) - x_lo)
    return np.clip(value, 1e-12, 1.0)


@dataclass(frozen=True)
class DegeneracyVerdict:
    degenerate: bool
    c_hat: float | None
    ratios: tuple[float, ...]
    lipschitz: tuple[float, ...]


def detect_degenerate(sys: CookieCutterSystem, theta: ThetaSequence) -> DegeneracyVerdict:
    """Finite-range Lipschitz test over the depths 2..12.

    Tracks r_n = max_w osc/lambda^n and the Lipschitz ratio max_w osc/|I_n|
    over sampled depth-n cylinders, osc and |I_n| from one _oscillations
    call over every depth, lambda^n = exp(S_n log lambda) along rho_w(1/2);
    InversionFailed for an unresolved cylinder, from _oscillations.
    Degenerate verdict: r_n decays exponentially while the Lipschitz ratio
    stays flat; non-degenerate: r_n stays bounded away from 0.  Mixed
    signals raise Inconclusive.
    """
    depths = list(_DEGENERACY_DEPTHS)
    rng = np.random.default_rng(_DEGENERACY_SEED)
    word_sets = [enumerate_words(sys.ell, n) if sys.ell**n <= 2 * _WORDS_PER_DEPTH
                 else rng.integers(0, sys.ell, size=(_WORDS_PER_DEPTH, n)).astype(np.uint8)
                 for n in depths]
    pairs = _oscillations(sys, word_sets, theta, _DEGENERACY_PROBES, _DEGENERACY_TOL)
    ratios, lips = [], []
    for words, (osc, length) in zip(word_sets, pairs):
        ratios.append(float(np.max(osc / np.exp(birkhoff_sums_along(sys, words)[2]))))
        lips.append(float(np.max(osc / length)))

    r, lip = np.array(ratios), np.array(lips)
    if np.all(r < 10.0 * _DEGENERACY_TOL):
        return DegeneracyVerdict(True, None, tuple(ratios), tuple(lips))

    # least-squares slopes of log r_n and log lip_n on n over positive values; 0.0 below 2
    ns = np.array(depths, dtype=float)
    slope_r, slope_lip = (_fit_loglog(ns[v > 0], np.log(v[v > 0]))[0] if np.sum(v > 0) >= 2
                          else 0.0 for v in (r, lip))
    decays = slope_r <= -0.2 and r[-1] < 0.2 * r[0]
    flat_r = slope_r > -0.05
    flat_lip = abs(slope_lip) <= 0.1
    if decays and flat_lip:
        return DegeneracyVerdict(True, None, tuple(ratios), tuple(lips))
    if flat_r and r.min() > 0.0:
        return DegeneracyVerdict(False, float(r.min()), tuple(ratios), tuple(lips))
    raise Inconclusive(
        f"oscillation diagnostics disagree over depths {depths[0]}..{depths[-1]}: "
        f"slope(osc/lambda^n)={slope_r:.3f}, slope(osc/|I_n|)={slope_lip:.3f}")


def empirical_spectrum(sys: CookieCutterSystem, q_grid, samples_per_q: int,
                       birkhoff_depth: int, seed: int) -> list[tuple[float, float, float, float]]:
    """For each q_j: (q_j, alpha_hat, the predicted alpha(q_j), alpha_hat's
    standard error), alpha_hat the mean symbolic exponent
    -S_n log lambda / S_n log|tau'| over samples_per_q iid Gibbs rows of depth
    birkhoff_depth for the spectrum potential -A_q log|tau'| + q log lambda.
    Both sums depend only on a row's digit counts, which sample_digit_counts
    draws from their multinomial law with seed + j; no row is formed.
    NotBranchConstant before any draw unless log|tau'| and log lambda are
    branch-constant; ValueError for fewer than 2 rows, an empty depth or an
    argument that is not an integer."""
    _require_ints(samples_per_q=samples_per_q, birkhoff_depth=birkhoff_depth, seed=seed)
    if samples_per_q < 2 or birkhoff_depth < 1:
        raise ValueError("samples_per_q must be >= 2 and birkhoff_depth >= 1")
    out = []
    for j, q in enumerate(q_grid):
        a_q = A_of_q(sys, float(q))
        pot = PotentialSpec(-a_q, float(q))
        counts = sample_digit_counts(sys, pot, birkhoff_depth, samples_per_q, seed + j)
        u, v = _birkhoff_sums_from_counts(sys, counts)
        exponents = -v / u
        stderr = float(np.std(exponents, ddof=1)) / math.sqrt(samples_per_q)
        out.append((float(q), float(np.mean(exponents)), measure_stats(sys, pot).alpha, stderr))
    return out


# ---------------------------------------------------------------------------
# pair probes
# ---------------------------------------------------------------------------

def _pair_counts(cloud: GraphCloud, radii: list[float], seed: int) -> np.ndarray:
    """How many of _MAX_PAIRS sampled pairs lie within each radius.  Every i,
    then every j != i, comes from one seeded stream as int32 (the values of
    the int64 draws); the distances are formed and counted _PAIR_BLOCK pairs
    at a time, so no array of all pairs' coordinates or distances exists."""
    rng = np.random.default_rng(seed)
    i = rng.integers(0, len(cloud), size=_MAX_PAIRS, dtype=np.int32)
    j = rng.integers(0, len(cloud) - 1, size=_MAX_PAIRS, dtype=np.int32)
    j += j >= i  # uniform over j != i
    counts = np.zeros(len(radii), dtype=np.int64)
    for s in range(0, _MAX_PAIRS, _PAIR_BLOCK):
        a, b = i[s:s + _PAIR_BLOCK], j[s:s + _PAIR_BLOCK]
        d = np.hypot(torus_distance(cloud.x[a], cloud.x[b]), cloud.y[a] - cloud.y[b])
        for k, r in enumerate(radii):
            counts[k] += np.count_nonzero(d <= r)
    return counts


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
    ladder, C(r) the fraction of the _MAX_PAIRS pairs _pair_counts samples
    that lie within distance r (planar distance with a torus first
    coordinate); ValueError for a seed that is not an integer or a cloud with
    a non-finite coordinate."""
    _require_ints(seed=seed)
    radii = sorted(float(r) for r in radii)
    if len(radii) < 5:
        raise ValueError("need at least 5 radii")
    if not all(math.isfinite(r) and r > 0.0 for r in radii):
        raise ValueError("correlation radii must be finite and positive")
    if len(set(radii)) < len(radii):
        raise ValueError("correlation radii must be distinct")
    if len(cloud) < 10**3:
        raise ValueError("need at least 1000 points")
    if not (np.isfinite(cloud.x).all() and np.isfinite(cloud.y).all()):
        raise ValueError("the correlation dimension needs a cloud of finite points")
    corr = _pair_counts(cloud, radii, seed) / _MAX_PAIRS
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
