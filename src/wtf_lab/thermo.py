"""Topological pressure, Bowen roots, the multifractal spectrum and Gibbs
measures on the full shift coding a cookie cutter.

Every potential used here is a*log|tau'| + b*log lambda + c.  Its pressure
is the closed form log sum_i exp(phi_i) when it is constant on branches, and
otherwise the log spectral radius of the transfer operator
L f(x) = sum_i exp(phi(rho_i x)) f(rho_i x), interpolated at Chebyshev nodes
of [0,1]: for analytic branches and weights its error decays geometrically in
the node count, so the 16-node value bounds the error of the 32-node one.  Measure statistics
and alpha(q) are means of the equilibrium state (_equilibrium_means), and so
is the slope of each Bowen root's Newton iteration; Gibbs sampling of
potentials not constant on branches uses midpoint cylinder weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import CookieCutterSystem, _check_budget, point_of_word
from .errors import (
    NoSignChange,
    NotBranchConstant,
    NotNormalised,
    TooFlat,
)

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


def _phi(pot: PotentialSpec, u, v):
    """a*u + b*v + c for u = log|tau'| and v = log lambda values."""
    with np.errstate(over="ignore", invalid="ignore"):  # huge coefficients: inf or NaN
        return pot.a * u + pot.b * v + pot.c


def _branch_phi(sys: CookieCutterSystem, pot: PotentialSpec) -> np.ndarray:
    return _phi(pot, *sys.branch_logs)


def _branch_constant(sys: CookieCutterSystem, *pots: PotentialSpec) -> bool:
    """True when every potential is constant on branches: a log|tau'| term
    only on an affine system, a log lambda term only for a branch-constant
    lambda."""
    return all((sys.is_affine or pot.a == 0.0) and (sys.lam.branch_constant or pot.b == 0.0)
               for pot in pots)


def _operators(nodes: tuple[np.ndarray, np.ndarray, np.ndarray], pot: PotentialSpec,
               *directions: PotentialSpec) -> tuple[float, list[np.ndarray]]:
    """(max phi, [L, then L_psi per direction psi]) on one grid of
    transfer_nodes: L has the weights exp(phi - max phi), as in _logsumexp,
    and L_psi those times psi."""
    interp, u, v = nodes
    phi = _phi(pot, u, v)
    with np.errstate(over="ignore", invalid="ignore"):  # as in _phi
        top = phi.max()
        w = np.exp(phi - top)
        ops = [np.einsum("ij,ijk->jk", w * psi, interp)
               for psi in (1.0, *(_phi(d, u, v) for d in directions))]
    return float(top), ops


def _operator_pressure(nodes: tuple[np.ndarray, np.ndarray, np.ndarray], pot: PotentialSpec) -> float:
    """log of the spectral radius of the transfer operator of pot on one node
    grid of CookieCutterSystem.transfer_nodes; NaN when the operator is not
    finite."""
    top, (op,) = _operators(nodes, pot)
    if not np.isfinite(op).all():
        return math.nan
    return math.log(np.abs(np.linalg.eigvals(op)).max()) + top


def _equilibrium_means(sys: CookieCutterSystem, pot: PotentialSpec,
                       *directions: PotentialSpec) -> tuple[float, ...]:
    """(P, then int psi dmu per direction psi) for the equilibrium state mu
    of pot, by Ruelle's formula dP(phi + t psi)/dt = int psi dmu: the Bernoulli
    p_i = exp(phi_i - P) when pot and every psi are constant on branches, else
    l L_psi h / l L h on the 32-node operator, h and l its Perron vectors.
    The means are NaN when P or the operator is not finite."""
    nan = (math.nan,) * len(directions)
    if _branch_constant(sys, pot, *directions):
        phi = _branch_phi(sys, pot)
        p_total = float(_logsumexp(phi))
        if not math.isfinite(p_total):
            return p_total, *nan
        p = np.exp(phi - p_total)
        return p_total, *(float(p @ _branch_phi(sys, d)) for d in directions)
    top, (op, *op_psi) = _operators(sys.transfer_nodes[1], pot, *directions)
    if not np.isfinite(op).all():  # np.linalg.eig raises on it
        return math.nan, *nan
    vals, right = np.linalg.eig(op)
    k = np.abs(vals).argmax()
    left_vals, left = np.linalg.eig(op.T)
    h, l = right[:, k].real, left[:, np.abs(left_vals).argmax()].real
    norm = l @ op @ h
    return math.log(abs(vals[k])) + top, *(float(l @ o @ h / norm) for o in op_psi)


def pressure(sys: CookieCutterSystem, pot: PotentialSpec) -> PressureEstimate:
    """Topological pressure of the potential on the repeller.

    Exact for branch-constant potentials; else the transfer operator at 32
    Chebyshev nodes, with error bound |P_16 - P_32|.
    """
    if _branch_constant(sys, pot):
        return PressureEstimate(float(_logsumexp(_branch_phi(sys, pot))), 0.0, True)
    coarse, fine = (_operator_pressure(nodes, pot) for nodes in sys.transfer_nodes)
    return PressureEstimate(fine, abs(coarse - fine), False)


def bowen_root(sys: CookieCutterSystem, family) -> float:
    """Zero of s -> P(family(s)) for a family affine in s, by Newton's method
    from s = 0, with a residual within 1e-10.

    The slope is Ruelle's dP/ds = int psi dmu_s for psi = family(1) -
    family(0), which _equilibrium_means returns with P.  The families used
    here are convex and strictly decreasing in s (their slope is minus a mean
    of log|tau'| or of -log lambda), so after the first step the iterates lie
    at or left of the root and climb to it.  The root is returned after the
    first step of at most 1e-13 max(1, |s|).  NoSignChange for a zero slope;
    TooFlat for a slope below 1e-12 in size, a value that is not finite, a
    residual past 1e-10 or 100 steps without convergence.
    """
    zero, one = family(0.0), family(1.0)
    psi = PotentialSpec(one.a - zero.a, one.b - zero.b, one.c - zero.c)
    s = 0.0
    for _ in range(100):
        p, slope = _equilibrium_means(sys, family(s), psi)
        if slope == 0.0:
            raise NoSignChange(f"pressure {p:.3g} does not vary along the family at s = {s}")
        step = p / slope
        if not (abs(slope) >= 1e-12 and math.isfinite(s - step)):  # NaN fails too
            raise TooFlat(f"pressure {p:.3g} with slope {slope:.3g} at s = {s}")
        s -= step
        if abs(step) <= 1e-13 * max(1.0, abs(s)):
            if not abs(p) <= 1e-10:
                raise TooFlat(f"root residual {abs(p):.3g} exceeds tolerance 1e-10")
            return s
    raise TooFlat("Newton's method did not converge in 100 steps")


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
    s1 = bowen_root(sys, s1_family)
    s2 = bowen_root(sys, s2_family)
    return DimensionPrediction(
        s1=s1, s2=s2, box_dim=s1, hausdorff_upper=min(s1, s2),
        min_is="s1" if s1 <= s2 else "s2",
    )


def A_of_q(sys: CookieCutterSystem, q: float) -> float:
    """Root A of pressure(-A log|tau'| + q log lambda) = 0, for |q| <= Q_MAX."""
    if abs(q) > Q_MAX:
        raise ValueError(f"|q| exceeds the configured maximum {Q_MAX}")
    return bowen_root(sys, aq_family(q))


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


def spectrum(sys: CookieCutterSystem, q_grid) -> SpectrumCurve:
    """Sample the spectrum on a q grid.

    alpha(q) = -A'(q) is the alpha of measure_stats at the root A_q, the
    mean -int log lambda / int log|tau'| of the equilibrium state of
    -A_q log|tau'| + q log lambda; D = q alpha + A_q.  For branch-constant
    systems the exact branch exponents -log lambda_i / log|tau'_i| override
    the endpoint estimates.
    """
    q_grid = [float(q) for q in q_grid]
    if q_grid != sorted(q_grid):
        raise ValueError("q_grid must be sorted ascending")

    points = dict.fromkeys([*q_grid, 0.0])  # (A_q, alpha(q)), one root per distinct q
    for q in points:
        aq = A_of_q(sys, q)
        points[q] = aq, measure_stats(sys, PotentialSpec(-aq, q)).alpha
    samples = []
    for q in q_grid:
        aq, al = points[q]
        samples.append((q, aq, al, q * al + aq))
    a0, alpha_c = points[0.0]
    if sys.is_affine and sys.lam.branch_constant:
        log_tp, log_lm = sys.branch_logs
        ratios = -log_lm / log_tp
        alpha_min, alpha_max = float(ratios.min()), float(ratios.max())
    else:
        alphas = [s[2] for s in samples]
        alpha_min, alpha_max = min(alphas), max(alphas)

    warnings: list[str] = []
    degenerate = (alpha_max - alpha_min) < _DEGENERATE_THRESHOLD
    if degenerate:
        # corroborating cohomology diagnostic: A_q affine in q, i.e.
        # pressure((q alpha_c - A_0) log|tau'| + q log lambda) = 0
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


def _require_normalised(p: float) -> None:
    """NotNormalised unless the pressure p of a potential is zero within 1e-6."""
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
    _require_normalised(pressure(sys, pot).value)
    _check_budget(count * depth)
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
    """Entropy, Lyapunov exponent and lambda-average of the Gibbs measure of
    a normalised potential, from the equilibrium means of _equilibrium_means:
    h = P - int phi, dim = h/chi and alpha = -mean(log lambda)/chi."""
    p_total, chi, mll = _equilibrium_means(sys, pot, PotentialSpec(1.0, 0.0), PotentialSpec(0.0, 1.0))
    _require_normalised(p_total)
    h = p_total - (pot.a * chi + pot.b * mll + pot.c)
    # Ruelle's inequality h <= chi caps the dimension of an invariant measure
    # of an interval map at 1; rounding alone can put h/chi an ulp above it
    return MeasureStats(entropy=h, lyapunov=chi, mean_log_lambda=mll,
                        dim=min(h / chi, 1.0), alpha=-mll / chi)


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
