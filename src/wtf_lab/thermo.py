"""Topological pressure, Bowen roots, the multifractal spectrum and Gibbs
measures on the full shift coding a cookie cutter.

Pressure is computed from cylinder sums at midpoint representatives,
P_n(phi) = (1/n) log sum_w exp(S_n phi(x_w)).  Every potential used here is
an affine combination a*log|tau'| + b*log lambda + c, so the per-depth
Birkhoff sums of the two base observables are cached once per system and
any pressure query reduces to one log-sum-exp.

For affine systems with branch-constant lambda the cylinder sums collapse
to the closed form log sum_i exp(phi_i) at every depth (the estimate is
exact); otherwise the value is Aitken-extrapolated over depths
{n-4, n-2, n} and an empirical distortion constant drives the error bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import CookieCutterSystem, point_of_word
from .errors import (
    NoSignChange,
    NotBranchConstant,
    NotNormalised,
    TooFlat,
)

DEFAULT_DEPTH = 12
Q_MAX = 30.0
_DEGENERATE_THRESHOLD = 1e-4
_MARKOV_DEPTH = 8
_SAMPLE_ROWS = 256  # Bernoulli words drawn per rng.random call


def _logsumexp(a: np.ndarray):
    """log(sum(exp(a))) for a 1-D float64 array, with the formula and bits
    of scipy.special.logsumexp (scipy 1.17): the maxima are split out of the
    shifted sum, and a non-finite result falls back to the direct formula."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a_max = a.max()
        top = a == a_max
        m = np.float64(np.count_nonzero(top))
        s = np.exp(np.where(top, -np.inf, a) - a_max).sum()
        if s != 0:
            s = s / m
        out = np.log1p(s) + np.log(m) + a_max
        if not np.isfinite(out):
            out = np.log(np.exp(a).sum())
    return out


@dataclass(frozen=True)
class PotentialSpec:
    """Potential a*log|tau'| + b*log(lambda) + c."""

    a: float
    b: float
    c: float = 0.0

    def __post_init__(self):
        for v in (self.a, self.b, self.c):
            if not math.isfinite(v):
                raise ValueError("potential coefficients must be finite")


def s1_family(s: float) -> PotentialSpec:
    """(1-s) log|tau'| + log lambda, whose Bowen root is the graph box dimension."""
    return PotentialSpec(1.0 - s, 1.0)


def s2_family(s: float) -> PotentialSpec:
    """s log lambda, whose Bowen root caps the graph Hausdorff dimension."""
    return PotentialSpec(0.0, s)


def aq_family(q: float):
    """A -> -A log|tau'| + q log lambda (Bowen equation for the spectrum)."""
    def fam(A: float) -> PotentialSpec:
        return PotentialSpec(-A, q)
    return fam


@dataclass(frozen=True)
class PressureEstimate:
    value: float
    error_bound: float
    exact: bool


def _is_exact(sys: CookieCutterSystem, pot: PotentialSpec) -> bool:
    tau_const = sys.is_affine or pot.a == 0.0
    lam_const = sys.lam.branch_constant or pot.b == 0.0
    return tau_const and lam_const


def _branch_phi(sys: CookieCutterSystem, pot: PotentialSpec) -> np.ndarray:
    log_tp = np.log(np.abs(np.array([b.slope for b in sys.branches]))) if sys.is_affine \
        else np.zeros(sys.ell)
    if sys.lam.branch_constant:
        log_lm = np.log(sys.lam.branch_values(sys.ell))
    else:
        log_lm = np.zeros(sys.ell)
    with np.errstate(over="ignore", invalid="ignore"):  # huge coefficients: inf or NaN
        return pot.a * log_tp + pot.b * log_lm + pot.c


def _cylinder_pressure(sys: CookieCutterSystem, pot: PotentialSpec, depth: int) -> float:
    _, u, v = sys.tree(depth)
    with np.errstate(over="ignore", invalid="ignore"):  # as in _branch_phi
        return float(_logsumexp(pot.a * u + pot.b * v)) / depth + pot.c


def pressure(sys: CookieCutterSystem, pot: PotentialSpec, depth: int = DEFAULT_DEPTH) -> PressureEstimate:
    """Topological pressure of the potential on the repeller.

    Exact (any depth) for branch-constant potentials; else cylinder sums with
    Aitken extrapolation over {depth-4, depth-2, depth} and error bound
    D_pot / depth from the empirical distortion constant of the potential.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if _is_exact(sys, pot):
        phi = _branch_phi(sys, pot)
        return PressureEstimate(float(_logsumexp(phi)), 0.0, True)

    p_n = _cylinder_pressure(sys, pot, depth)
    if depth >= 5:
        p0 = _cylinder_pressure(sys, pot, depth - 4)
        p1 = _cylinder_pressure(sys, pot, depth - 2)
        d2 = (p_n - p1) - (p1 - p0)
        if abs(d2) > 1e-15:
            value = p_n - (p_n - p1) ** 2 / d2
        else:
            value = p_n
    else:
        value = p_n
    du, dv = sys.distortion_constants
    d_pot = abs(pot.a) * du + abs(pot.b) * dv
    return PressureEstimate(float(value), d_pot / depth, False)


def _expand_bracket(f, lo: float, hi: float) -> tuple[float, float, float, float]:
    f_lo, f_hi = f(lo), f(hi)
    width = hi - lo
    for _ in range(60):
        if f_lo * f_hi <= 0:
            return lo, hi, f_lo, f_hi
        width *= 2.0
        if abs(f_lo) < abs(f_hi):
            lo -= width
            f_lo = f(lo)
        else:
            hi += width
            f_hi = f(hi)
    raise NoSignChange(f"no sign change found in [{lo}, {hi}]")


def bowen_root(sys: CookieCutterSystem, family, bracket: tuple[float, float] | None = None) -> float:
    """Unique zero of s -> pressure(family(s)), with a residual within 1e-8
    (exact pressure) or 1e-4 (cylinder sums).

    The families used here are strictly decreasing in s (their s-derivative
    is minus an integral of log|tau'| or of -log lambda against an invariant
    measure), which guarantees uniqueness once a sign change is bracketed.
    """
    def f(s: float) -> float:
        return pressure(sys, family(float(s))).value

    tol = 1e-8 if _is_exact(sys, family(0.0)) else 1e-4

    if bracket is None:
        lo, hi, f_lo, f_hi = _expand_bracket(f, -4.0, 4.0)
    else:
        lo, hi = bracket
        f_lo, f_hi = f(lo), f(hi)
        if f_lo * f_hi > 0:
            raise NoSignChange(
                f"pressure has the same sign at both bracket ends ({f_lo:.3g}, {f_hi:.3g})")
    if abs(f_lo - f_hi) < 1e-12:
        raise TooFlat("pressure does not vary across the bracket")
    from scipy.optimize import brentq  # imported here: the rest of the package runs without scipy
    root = brentq(f, lo, hi, xtol=1e-13, rtol=8.9e-16, maxiter=200)
    residual = abs(f(root))
    if residual > tol:
        raise TooFlat(f"root residual {residual:.3g} exceeds tolerance {tol:g}")
    return float(root)


@dataclass(frozen=True)
class DimensionPrediction:
    s1: float
    s2: float
    box_dim: float
    hausdorff_upper: float
    min_is: str  # "s1" | "s2"


def graph_dimension_prediction(sys: CookieCutterSystem) -> DimensionPrediction:
    """Box dimension s1 and Hausdorff cap min(s1, s2) for the graph over the
    repeller (equality holds a.s. for the iid-randomised function)."""
    s1 = bowen_root(sys, s1_family, bracket=(0.0, 2.0))
    s2 = bowen_root(sys, s2_family)
    return DimensionPrediction(
        s1=s1, s2=s2, box_dim=s1, hausdorff_upper=min(s1, s2),
        min_is="s1" if s1 <= s2 else "s2",
    )


def A_of_q(sys: CookieCutterSystem, q: float) -> float:
    """Root A of pressure(-A log|tau'| + q log lambda) = 0, for |q| <= Q_MAX."""
    if abs(q) > Q_MAX:
        raise ValueError(f"|q| exceeds the configured maximum {Q_MAX}")

    def f(a: float) -> float:
        return pressure(sys, aq_family(q)(a)).value

    span = 2.0 + 2.0 * abs(q)
    lo, hi, _, _ = _expand_bracket(f, -span, span)
    return bowen_root(sys, aq_family(q), bracket=(lo, hi))


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpectrumCurve:
    """Parametric multifractal data {(q, A_q, alpha(q), D)}.

    D(alpha) is the Hausdorff dimension of the level set of Hoelder exponent
    alpha; its parametric maximum D(alpha_c) equals the repeller dimension
    A_0.  degenerate_flag marks a collapsed exponent interval (constant
    alpha), in which case alpha_c is the single exponent.
    """

    samples: tuple[tuple[float, float, float, float], ...]
    alpha_min: float
    alpha_max: float
    alpha_c: float
    degenerate_flag: bool
    warnings: tuple[str, ...] = ()

    def as_arrays(self):
        arr = np.array(self.samples)
        return arr[:, 0], arr[:, 1], arr[:, 2], arr[:, 3]


def spectrum(sys: CookieCutterSystem, q_grid, fd_step: float = 1e-3) -> SpectrumCurve:
    """Sample the spectrum on a q grid.

    alpha(q) = -(A_{q+h} - A_{q-h}) / 2h with a Richardson consistency check
    at h/2; D = q alpha + A_q.  For branch-constant systems the exact branch
    exponents -log lambda_i / log|tau'_i| override the endpoint estimates.
    """
    q_grid = [float(q) for q in q_grid]
    if q_grid != sorted(q_grid):
        raise ValueError("q_grid must be sorted ascending")
    if fd_step <= 0:
        raise ValueError("fd_step must be positive")

    cache: dict[float, float] = {}

    def A(qv: float) -> float:
        if qv not in cache:
            cache[qv] = A_of_q(sys, qv)
        return cache[qv]

    warnings: list[str] = []

    def alpha(qv: float) -> float:
        h = fd_step
        a_full = -(A(qv + h) - A(qv - h)) / (2.0 * h)
        a_half = -(A(qv + h / 2) - A(qv - h / 2)) / h
        if abs(a_full - a_half) > max(1e-6, 1e-3 * abs(a_full)):
            warnings.append(f"alpha({qv}): finite difference unstable "
                            f"({a_full:.8f} vs {a_half:.8f} at h/2)")
        return a_half

    samples = []
    for q in q_grid:
        aq = A(q)
        al = alpha(q)
        samples.append((q, aq, al, q * al + aq))

    alpha_c = alpha(0.0)
    if sys.is_affine and sys.lam.branch_constant:
        log_tp = np.log(np.abs(np.array([b.slope for b in sys.branches])))
        log_lm = np.log(sys.lam.branch_values(sys.ell))
        ratios = -log_lm / log_tp
        alpha_min, alpha_max = float(ratios.min()), float(ratios.max())
    else:
        alphas = [s[2] for s in samples]
        alpha_min, alpha_max = min(alphas), max(alphas)

    degenerate = (alpha_max - alpha_min) < _DEGENERATE_THRESHOLD
    if degenerate:
        # corroborating cohomology diagnostic: A_q affine in q, i.e.
        # pressure((q alpha_c - A_0) log|tau'| + q log lambda) = 0
        a0 = A(0.0)
        for q in (-1.0, 1.0):
            p = pressure(sys, PotentialSpec(q * alpha_c - a0, q)).value
            if abs(p) > 1e-6:
                warnings.append(
                    f"degenerate flag set but cohomology diagnostic at q={q:+.0f} "
                    f"gives pressure {p:.2e}")

    return SpectrumCurve(
        samples=tuple(samples),
        alpha_min=alpha_min,
        alpha_max=alpha_max,
        alpha_c=alpha_c,
        degenerate_flag=degenerate,
        warnings=tuple(warnings),
    )


# ---------------------------------------------------------------------------
# Gibbs measures
# ---------------------------------------------------------------------------

_GIBBS_PRESSURE_TOL = 1e-6


def _require_normalised(sys: CookieCutterSystem, pot: PotentialSpec) -> None:
    """NotNormalised unless the pressure at DEFAULT_DEPTH, the depth at which
    A_of_q and measure_stats solve, is zero."""
    p = pressure(sys, pot).value
    if not abs(p) <= _GIBBS_PRESSURE_TOL:  # a NaN pressure is not normalised
        raise NotNormalised(
            f"potential has pressure {p:.3g}; subtract it as the constant c first")


def sample_words(sys: CookieCutterSystem, pot: PotentialSpec, depth: int, count: int,
                 seed: int) -> np.ndarray:
    """(count, depth) digit matrix of iid Gibbs draws.

    Branch-constant potentials sample the exact Bernoulli product; otherwise
    digits follow depth-limited conditional cylinder-weight ratios (a Markov
    approximation of order 7)."""
    rng = np.random.default_rng(seed)
    if sys.is_affine and sys.lam.branch_constant:
        # rng.choice(ell, size=(count, depth), p=p) in row blocks: numpy draws
        # u = rng.random(shape) row-major; the digit counts the cdf entries <= u.
        phi = _branch_phi(sys, pot)
        p = np.exp(phi - _logsumexp(phi))
        cdf = (p / p.sum()).cumsum()
        if np.isnan(cdf[-1]):
            raise ValueError("Probabilities contain NaN")  # as rng.choice
        cdf /= cdf[-1]  # its last entry is exactly 1 > u
        digits = np.zeros((count, depth), dtype=np.uint8)
        for r in range(0, count, _SAMPLE_ROWS):
            block = digits[r:r + _SAMPLE_ROWS]
            u = rng.random(block.shape)
            for c in cdf[:-1]:
                block += u >= c
        return digits

    k = min(_MARKOV_DEPTH, depth)
    _, u, v = sys.tree(k)
    s = pot.a * u + pot.b * v
    w = np.exp(s - _logsumexp(s))
    digits = np.empty((count, depth), dtype=np.uint8)
    # joint draw of the first k digits from the depth-k cylinder weights
    first = rng.choice(len(w), size=count, p=w / w.sum())
    for col in range(k - 1, -1, -1):
        digits[:, col] = first % sys.ell
        first //= sys.ell
    if depth > k:
        # next digit conditioned on the last k-1 digits (word index layout is
        # first-digit-major, so state*ell + d picks cylinder (state, d))
        base = sys.ell ** (k - 1)
        cond = w.reshape(base, sys.ell)
        cond = cond / cond.sum(axis=1, keepdims=True)
        cum = np.cumsum(cond, axis=1)
        state = np.zeros(count, dtype=np.int64)
        for col in range(1, k):
            state = state * sys.ell + digits[:, col]
        drop = base // sys.ell if k > 1 else 1
        for col in range(k, depth):
            u01 = rng.random(count)
            nxt = (u01[:, None] > cum[state]).sum(axis=1).astype(np.uint8)
            digits[:, col] = nxt
            if k > 1:
                state = (state % drop) * sys.ell + nxt
    return digits


def gibbs_sample(sys: CookieCutterSystem, pot: PotentialSpec, depth: int, count: int,
                 seed: int) -> list[tuple[np.ndarray, float]]:
    """iid draws (word, representative) from the Gibbs measure, each word a
    uint8 digit row; reproducible per seed."""
    _require_normalised(sys, pot)
    digits = sample_words(sys, pot, depth, count, seed)
    xs = point_of_word(sys, digits, 0.5)
    return list(zip(digits, xs.tolist()))


@dataclass(frozen=True)
class MeasureStats:
    entropy: float
    lyapunov: float
    mean_log_lambda: float
    dim: float
    alpha: float


def measure_stats(sys: CookieCutterSystem, pot: PotentialSpec) -> MeasureStats:
    """Entropy, Lyapunov exponent and lambda-average of the Gibbs measure,
    from the DEFAULT_DEPTH cylinder weights (exact per-digit quantities for
    Bernoulli products); dim = h/chi and alpha = -mean(log lambda)/chi."""
    depth = DEFAULT_DEPTH
    _require_normalised(sys, pot)
    _, u, v = sys.tree(depth)
    s = pot.a * u + pot.b * v
    log_w = s - _logsumexp(s)
    w = np.exp(log_w)
    h = float(-(w * log_w).sum()) / depth
    chi = float((w * u).sum()) / depth
    mll = float((w * v).sum()) / depth
    return MeasureStats(entropy=h, lyapunov=chi, mean_log_lambda=mll,
                        dim=h / chi, alpha=-mll / chi)


def lifted_dim_prediction(stats: MeasureStats) -> float:
    """Dimension of the push-forward of the measure onto the randomised graph:
    min(dim + 1 + mean_log_lambda/chi, entropy / (-mean_log_lambda))."""
    first = stats.dim + 1.0 + stats.mean_log_lambda / stats.lyapunov
    second = stats.entropy / (-stats.mean_log_lambda)
    return min(first, second)


def jin_upper(D: float, alpha: float) -> float:
    """min(D + 1 - alpha, D / alpha): the cap for graph points over a level
    set of dimension D at exponent alpha."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if not 0.0 <= D <= 1.0:
        raise ValueError("D must lie in [0,1]")
    return min(D + 1.0 - alpha, D / alpha)


# ---------------------------------------------------------------------------
# the closed-form Moran oracle (independent test route)
# ---------------------------------------------------------------------------

def _bisect(f, lo: float, hi: float) -> float:
    """Plain bisection to a 1e-12 bracket (at most 200 halvings);
    NoSignChange when f does not change sign on [lo, hi]."""
    f_lo = f(lo)
    if f_lo * f(hi) > 0:
        raise NoSignChange(f"no bracketed root in [{lo}, {hi}]")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if f_lo * fm <= 0:
            hi = mid
        else:
            lo, f_lo = mid, fm
        if hi - lo < 1e-12:
            break
    return 0.5 * (lo + hi)


def _moran_root(log_r: np.ndarray, log_w: np.ndarray) -> float:
    """Root A of sum_i exp(A log r_i + log w_i) = 1 for ratios r_i in (0,1).

    Term i decreases in A and equals 1 at A_i = -log w_i / log r_i.  At
    max_i A_i - 1 the term with the largest A_i is 1/r_i > 1, and at
    max_i (A_i + log ell / log(1/r_i)) + 1 every term is below 1/ell.  On
    that bracket no term exceeds 1/min r_i, so nothing overflows.
    """
    a_i = -log_w / log_r
    lo = float(a_i.max()) - 1.0
    hi = float(np.max(a_i - math.log(len(log_r)) / log_r)) + 1.0
    return _bisect(lambda A: float(np.sum(np.exp(A * log_r + log_w)) - 1.0), lo, hi)


def moran_oracle(sys: CookieCutterSystem, query: str, *, pot: PotentialSpec | None = None,
                 q: float | None = None) -> float:
    """Closed-form answers for affine branch-constant systems.

    Deliberately independent of the cylinder-sum pressure machinery: the only
    ingredients are the branch contraction ratios r_i, the branch lambda_i,
    full-shift pressure log sum_i exp(phi_i), and plain bisection on the
    Moran equation sum r_i^A lambda_i^q = 1.
    """
    if not (sys.is_affine and sys.lam.branch_constant):
        raise NotBranchConstant("the closed-form oracle needs an affine, branch-constant system")
    r = np.array([1.0 / abs(b.slope) for b in sys.branches])
    lam = sys.lam.branch_values(sys.ell)
    log_r, log_lam = np.log(r), np.log(lam)

    if query == "pressure":
        if pot is None:
            raise ValueError("pressure query needs pot=")
        phi = pot.a * np.log(1.0 / r) + pot.b * log_lam + pot.c
        return float(np.log(np.sum(np.exp(phi))))
    if query in ("A_of_q", "alpha_of_q") and q is None:
        raise ValueError(f"{query} query needs q=")
    if query == "A_of_q":
        return _moran_root(log_r, q * log_lam)
    if query == "alpha_of_q":
        A = _moran_root(log_r, q * log_lam)
        p = np.exp(A * log_r + q * log_lam)
        return float(np.sum(p * log_lam) / np.sum(p * log_r))
    if query == "s1":
        # sum (1/r)^(1-s) lam = 1  <=>  sum r^(s-1) lam = 1
        return 1.0 + _moran_root(log_r, log_lam)
    if query == "s2":
        return _moran_root(log_lam, np.zeros(sys.ell))
    raise ValueError(f"unknown oracle query {query!r}")
