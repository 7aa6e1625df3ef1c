"""Evaluation of the Weierstrass-type series and its oscillation geometry.

W_theta(x) = sum_n lambda(x) lambda(tau x) ... lambda(tau^{n-1} x) * g(tau^n x + theta_n),
truncated where the geometric tail bound (sup lambda)^N * sup|g| / (1 - sup lambda)
drops below the requested tolerance.  Orbits continue through gaps via
tau(gap) = 0, so the series is defined on the whole circle.  _series is the
one term loop (eval_W_many, _probe_bases); _skew_step carries a series value
up the inverse branches by the skew-product identity, in metrics.sample_graph's
cloud walk and in _pull_back's compositions (lifted clouds, oscillation probes).
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from .dynamics import (
    _EVAL_BLOCK,
    _MAX_EFFECTIVE_DEPTH,
    CookieCutterSystem,
    _check_budget,
    _check_resolved,
    _compose,
    _require_ints,
    _walk,
    _word,
)
from .errors import InvalidTolerance
from .theta import ThetaSequence


def _terms_for_tolerance(sys: CookieCutterSystem, tol: float) -> tuple[int, float]:
    if not (isinstance(tol, numbers.Real) and math.isfinite(tol) and tol > 0):  # NaN fails too
        raise InvalidTolerance(f"tolerance must be finite and positive, got {tol!r}")
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


def _series(sys: CookieCutterSystem, xs: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """sum_k lambda(x) ... lambda(tau^{k-1} x) g(tau^k x + thetas[k]) over
    the rows k of thetas.  A row is one shift, one shift per point of xs, or
    many shifts for a single point, and broadcasts against xs elementwise, so
    a value has the same bits in any batch."""
    cur, acc, weight = xs, np.zeros_like(xs), np.ones_like(xs)
    for k, shift in enumerate(thetas):
        acc = acc + weight * sys.g(cur + shift)
        if k + 1 < len(thetas):
            weight = weight * sys.lam_at(cur)
            cur = sys.tau(cur)
    return acc


def eval_W_many(sys: CookieCutterSystem, xs: np.ndarray, theta: ThetaSequence,
                tol: float = 1e-10) -> tuple[np.ndarray, int, float]:
    """(W_theta at each point of xs, terms summed, tail bound), with one
    truncation index for the batch, summed in blocks of _EVAL_BLOCK points."""
    n_terms, tail = _terms_for_tolerance(sys, tol)
    xs = np.asarray(xs, dtype=float)
    shifts = theta.block(0, n_terms)
    out = np.empty(xs.shape)
    for r in range(0, xs.size, _EVAL_BLOCK):
        out.reshape(-1)[r:r + _EVAL_BLOCK] = _series(sys, xs.reshape(-1)[r:r + _EVAL_BLOCK], shifts)
    return out, n_terms, tail


def _skew_step(sys: CookieCutterSystem, theta: ThetaSequence, n: int):
    """The skew-product step (k, u, y) -> lambda(u) y + g(u + theta_k) for
    the columns k < n of _compose and _walk.  From y = W_{sigma^n theta} at
    the start values, y ends as W_theta at the composed points."""
    shifts = theta.block(0, n)
    one = sys.lam_is_table and sys.lambda_inf == sys.lambda_sup  # equal weights: no full array
    return lambda k, u, y: (sys.lambda_inf if one else sys.lam_at(u)) * y + sys.g(u + shifts[k])


def _pull_back(sys: CookieCutterSystem, digits: np.ndarray, t, y,
               theta: ThetaSequence) -> tuple[np.ndarray, np.ndarray]:
    """(rho_w(t), W_theta(rho_w(t))) per row w of a (count, n) digit matrix
    from y = W_{sigma^n theta}(t), t and y each a scalar, an (S, 1) column,
    one value per row or an (S, count) matrix of start values as in
    _compose: per column k, u <- rho_{w_k}(u) and y <- lambda(u) y +
    g(u + theta_k).  So rho_w(t) has point_of_word's bits, and y carries the
    base error times lambda^n plus a few ulps per step, not a forward
    orbit's rounding."""
    return _compose(sys, digits, t, _skew_step(sys, theta, np.shape(digits)[1]), y)


def _probe_depth(sys: CookieCutterSystem, probes: int) -> int:
    """The depth m of _probes' tails: the least m >= 1 with ell^m >= probes,
    in integers (a float log rounds 125 on 5 branches up to 4)."""
    _require_ints(2, probes=probes)
    m = 1
    while sys.ell**m < probes:
        m += 1
    return m


def _probe_bases(sys: CookieCutterSystem, depths, theta: ThetaSequence, probes: int,
                 tol: float) -> np.ndarray:
    """The base W_{sigma^{n+m} theta}(1/2) of _probes for each word depth n
    in depths (n capped at _MAX_EFFECTIVE_DEPTH), from one _series call at
    1/2 whose term k takes theta_{n+m+k} per depth.  Every base has the bits
    of eval_W_many(sys, [0.5], theta.shift(n + m), tol)."""
    n_terms, _ = _terms_for_tolerance(sys, tol)
    m = _probe_depth(sys, probes)
    shifts = np.minimum(np.asarray(depths, dtype=np.int64), _MAX_EFFECTIVE_DEPTH) + m
    thetas = theta.block(0, int(shifts.max()) + n_terms)
    return _series(sys, np.array([0.5]), thetas[shifts + np.arange(n_terms)[:, None]])


def _probes(sys: CookieCutterSystem, words: np.ndarray, theta: ThetaSequence,
            probes: int, base: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(u, W_theta(u), ends) per row w of a (count, n) digit matrix: u =
    rho_w(rho_v(1/2)) as a (count, ell^m) array over the words v of depth
    m = _probe_depth (a Moran cover of J cap I_w), and ends = (rho_w(0),
    rho_w(1)) as a (count, 2) array.

    A walk of 1/2 gives the tails rho_v(1/2) and carries the series value
    base = W_{sigma^{n+m} theta}(1/2) (see _probe_bases) up to them, so a
    probe carries its error times lambda^{n+m}.  The tails, 0 and 1 are the
    ell^m + 2 start values every row shares in one _pull_back, which
    composes each digit suffix once (_compose).  Like point_of_word, the
    probes use only the leading 64 digits (_MAX_EFFECTIVE_DEPTH): a deeper
    word gets its depth-64 prefix's probes, and so its oscillation, but its
    ends come from all its digits, as in cylinder_bounds_many."""
    m = _probe_depth(sys, probes)
    words = np.asarray(words)
    _check_budget(words.shape[0] * sys.ell**m)
    n = min(words.shape[1], _MAX_EFFECTIVE_DEPTH)
    tails, tail_y = _walk(sys, [0.5], m, _skew_step(sys, theta.shift(n), m), np.array([base]))
    u, y = _pull_back(sys, words[:, :n], np.append(tails, (0.0, 1.0))[:, None],
                      np.append(tail_y, (0.0, 0.0))[:, None], theta)
    ends = u[-2:] if words.shape[1] == n else _compose(sys, words, [[0.0], [1.0]])
    return u[:-2].T, y[:-2].T, ends.T


def _oscillations(sys: CookieCutterSystem, word_sets, theta: ThetaSequence, probes: int,
                  tol: float, _curve=None):
    """Per (count, n) digit matrix of the list word_sets, in order: (sup - inf
    of W over the probes of _probes, or of the test hook ``_curve`` there, and
    the cylinder length |rho_w(1) - rho_w(0)|, with the bits of
    cylinder_bounds_many's hi - lo) per row w.  The call sums every matrix's
    probe base in one _probe_bases call, so its tolerance and probe-count
    errors come first; each pair follows lazily, from one _probes pass, and
    a matrix with an unresolved cylinder raises InversionFailed
    (dynamics._check_resolved) in place of its pair."""
    bases = _probe_bases(sys, [np.shape(words)[1] for words in word_sets], theta, probes, tol)
    probed = (_probes(sys, w, theta, probes, b) for w, b in zip(word_sets, bases.tolist()))
    return ((np.ptp(ys if _curve is None else np.asarray(_curve(u), dtype=float), axis=1),
             _check_resolved(sys, np.abs(ends[:, 1] - ends[:, 0]))) for u, ys, ends in probed)


def oscillation_over(sys: CookieCutterSystem, word, theta: ThetaSequence,
                     probes: int = 128, tol: float = 1e-10) -> float:
    """sup - inf of W over stratified sub-cylinder representatives of the
    word; InversionFailed for an unresolved cylinder, as in _oscillations."""
    [(osc, _)] = _oscillations(sys, [_word(sys, word)[None, :]], theta, probes, tol)
    return float(osc[0])
