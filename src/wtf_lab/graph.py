"""Evaluation of the Weierstrass-type series and its oscillation geometry.

W_theta(x) = sum_n lambda(x) lambda(tau x) ... lambda(tau^{n-1} x) * g(tau^n x + theta_n),
truncated where the geometric tail bound
(sup lambda)^N * sup|g| / (1 - sup lambda) drops below the requested
tolerance.  Orbits continue through gaps via tau(gap) = 0, so the series is
defined on the whole circle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import (
    CookieCutterSystem,
    _orbit_of,
    _walk,
    _word,
    birkhoff_sum,
    birkhoff_sums_from_digits,
    cylinder_bounds_many,
    enumerate_words,
    point_of_word,
)
from .errors import Inconclusive, InvalidTolerance
from .theta import ThetaSequence

# detect_degenerate: its depths, sampled cylinders per depth, probes per
# cylinder, series tolerance and word seed
_DEGENERACY_DEPTHS = range(2, 13)
_WORDS_PER_DEPTH = 8
_DEGENERACY_PROBES = 128
_DEGENERACY_TOL = 1e-12
_DEGENERACY_SEED = 2024
_EVAL_BLOCK = 2**14  # points per block in eval_W_many


@dataclass(frozen=True)
class EvalResult:
    value: float
    terms_used: int
    tail_bound: float


def _terms_for_tolerance(sys: CookieCutterSystem, tol: float) -> tuple[int, float]:
    if tol <= 0:
        raise InvalidTolerance("tolerance must be positive")
    g_sup = sys.g.sup_bound
    lam_sup = sys.lambda_sup
    if g_sup == 0.0:
        return 1, 0.0
    # smallest N with g_sup * lam_sup^N / (1 - lam_sup) <= tol
    n = max(1, math.ceil(math.log(tol * (1.0 - lam_sup) / g_sup) / math.log(lam_sup)))
    while g_sup * lam_sup**n / (1.0 - lam_sup) > tol:
        n += 1
    while n > 1 and g_sup * lam_sup**(n - 1) / (1.0 - lam_sup) <= tol:
        n -= 1
    return n, g_sup * lam_sup**n / (1.0 - lam_sup)


def eval_W_many(sys: CookieCutterSystem, xs: np.ndarray, theta: ThetaSequence,
                tol: float = 1e-10) -> tuple[np.ndarray, int, float]:
    """Vectorized series evaluation; one truncation index for the whole batch,
    in blocks of _EVAL_BLOCK points (every kernel is elementwise)."""
    n_terms, tail = _terms_for_tolerance(sys, tol)
    xs = np.asarray(xs, dtype=float)
    shifts = theta.block(0, n_terms)
    out = np.empty(xs.shape)
    for r in range(0, xs.size, _EVAL_BLOCK):
        cur = xs.reshape(-1)[r:r + _EVAL_BLOCK]
        acc, weight = np.zeros_like(cur), np.ones_like(cur)
        for n in range(n_terms):
            acc += weight * sys.g(cur + shifts[n])
            if n + 1 < n_terms:
                weight *= sys.lam_at(cur)
                cur = sys.tau(cur)
        out.reshape(-1)[r:r + _EVAL_BLOCK] = acc
    return out, n_terms, tail


def eval_W(sys: CookieCutterSystem, x: float, theta: ThetaSequence,
           tol: float = 1e-10) -> EvalResult:
    values, n_terms, tail = eval_W_many(sys, np.array([float(x)]), theta, tol)
    return EvalResult(float(values[0]), n_terms, tail)


def eval_W_skew(sys: CookieCutterSystem, x: float, theta: ThetaSequence,
                n: int, tol: float = 1e-10) -> float:
    """Evaluate W_theta(x) through the skew product: compute the deep value
    W_{sigma^n theta}(tau^n x), then pull it back by the n plane contractions
    F_{theta_k, i_k}(u, y) = (rho_i(u), lambda(rho_i(u)) y + g(rho_i(u)+theta_k)),
    applied for k = n-1 down to 0.  Exactly eval_W at n = 0."""
    if n == 0:
        return eval_W(sys, x, theta, tol).value
    word, orbit = _orbit_of(sys, x, n)
    u = float(sys.tau(orbit[-1:])[0])
    y = eval_W(sys, u, theta.shift(n), tol).value
    for k in range(n - 1, -1, -1):
        i = word[k]
        u = float(sys.branches[i].inverse(u))
        y = float(sys.lam_at(np.array([u]))[0]) * y + float(sys.g(np.array([u + theta[k]]))[0])
    return y


def _oscillations(sys: CookieCutterSystem, words: np.ndarray, theta: ThetaSequence,
                  probes: int, tol: float, _curve=None) -> np.ndarray:
    """sup - inf of W (or of the test hook ``_curve``) per row w of a
    (count, n) digit matrix: W is probed at rho_w(rho_v(1/2)) for every v of
    the least depth m with ell^m >= probes, a Moran cover of J cap I_w, in one
    series evaluation."""
    if probes < 2:
        raise ValueError("probes must be >= 2")
    count = words.shape[0]
    tails = _walk(sys, [0.5], max(1, math.ceil(math.log(probes) / math.log(sys.ell))))
    per = len(tails)
    pts = point_of_word(sys, np.repeat(words, per, axis=0), np.tile(tails, count))
    if _curve is None:
        ys, _, _ = eval_W_many(sys, pts, theta, tol)
    else:
        ys = np.asarray(_curve(pts), dtype=float)
    ys = ys.reshape(count, per)
    return ys.max(axis=1) - ys.min(axis=1)


def oscillation_over(sys: CookieCutterSystem, word, theta: ThetaSequence,
                     probes: int = 128, tol: float = 1e-10) -> float:
    """sup - inf of W over stratified sub-cylinder representatives of the word."""
    return float(_oscillations(sys, _word(sys, word)[None, :], theta, probes, tol)[0])


@dataclass(frozen=True)
class DegeneracyVerdict:
    degenerate: bool
    c_hat: float | None
    ratios: tuple[float, ...]
    lipschitz: tuple[float, ...]

    @property
    def label(self) -> str:
        return "degenerate" if self.degenerate else "non_degenerate"


def detect_degenerate(sys: CookieCutterSystem, theta: ThetaSequence) -> DegeneracyVerdict:
    """Finite-range Lipschitz test over the depths 2..12.

    Tracks r_n = max_w osc/lambda^n and the Lipschitz ratio max_w osc/|I_n|
    over sampled depth-n cylinders.  Degenerate verdict: r_n decays
    exponentially while the Lipschitz ratio stays flat; non-degenerate:
    r_n stays bounded away from 0.  Mixed signals raise Inconclusive.
    """
    depths = list(_DEGENERACY_DEPTHS)
    rng = np.random.default_rng(_DEGENERACY_SEED)
    ratios, lips = [], []
    for n in depths:
        if sys.ell**n <= 2 * _WORDS_PER_DEPTH:
            words = enumerate_words(sys.ell, n)
        else:
            words = rng.integers(0, sys.ell, size=(_WORDS_PER_DEPTH, n)).astype(np.uint8)
        lo, hi = cylinder_bounds_many(sys, words)
        r_best, lip_best = 0.0, 0.0
        for j in range(words.shape[0]):
            osc = oscillation_over(sys, words[j], theta, _DEGENERACY_PROBES, _DEGENERACY_TOL)
            lam_n = math.exp(_log_lambda_word(sys, words[j], lo[j], hi[j]))
            r_best = max(r_best, osc / lam_n)
            lip_best = max(lip_best, osc / (hi[j] - lo[j]))
        ratios.append(r_best)
        lips.append(lip_best)

    r = np.array(ratios)
    lip = np.array(lips)
    if np.all(r < 10.0 * _DEGENERACY_TOL):
        return DegeneracyVerdict(True, None, tuple(ratios), tuple(lips))

    ns = np.array(depths, dtype=float)
    slope_r = _log_slope(ns, r)
    slope_lip = _log_slope(ns, lip)
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


def _log_slope(ns: np.ndarray, values: np.ndarray) -> float:
    mask = values > 0
    if mask.sum() < 2:
        return 0.0
    x = ns[mask]
    y = np.log(values[mask])
    x = x - x.mean()
    return float((x * (y - y.mean())).sum() / (x * x).sum())


def _log_lambda_word(sys: CookieCutterSystem, digits: np.ndarray, lo: float, hi: float) -> float:
    """S_n log lambda at the cylinder's representative."""
    if sys.is_affine and sys.lam.branch_constant:
        _, v = birkhoff_sums_from_digits(sys, digits[None, :])
        return float(v[0])
    return birkhoff_sum(sys, "log_lambda", 0.5 * (lo + hi), len(digits))
