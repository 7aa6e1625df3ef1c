"""Cookie-cutter systems: branches, symbolic coding, cylinders, Birkhoff sums.

A cookie cutter is an expanding map of the circle [0,1) defined branchwise on
disjoint closed subintervals, each branch a monotone diffeomorphism onto
(0,1); points outside the branch union map to 0.  The invariant repeller is
coded by the full shift on ell symbols, and all downstream computations
(pressure sums, graph sampling, oscillation probes) work through the
depth-n cylinder structure built here.

Numeric conventions:
  * branch geometry (cylinders, inverse images) uses the closed domains;
  * digit assignment kappa(x) uses left-closed/right-open membership
    [a_i, b_i), so orbits through shared branch endpoints are coded the way
    the forward map actually moves them; points that no half-open domain
    covers (gaps, preimages of {0,1}) raise NotInPartition;
  * the torus metric is d(x,u) = min(|x-u|, 1-|x-u|).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache

import numpy as np

from .errors import (
    BadConfig,
    BudgetExceeded,
    HyperbolicityViolated,
    InversionFailed,
    LambdaOutOfRange,
    NotInPartition,
    NotOnto,
    OverlappingBranches,
)

DEFAULT_BUDGET = 2**24
_ONTO_TOL = 1e-9
_INVERT_TOL = 1e-12  # Newton step below which an inverse-branch root is accepted
_INVERT_MAX_ITER = 200
_PROBES_PER_BRANCH = 10_001
# Digits composed by point_of_word: deeper digits move the point by less than
# (max contraction)^64, far below float64 resolution.
_MAX_EFFECTIVE_DEPTH = 64
_EVAL_BLOCK = 2**14  # points per series block or _walk chunk, rows per block of _compose
_MAX_BRANCHES = 255  # digits are uint8


def cylinder_budget() -> int:
    """Word-count budget; WTF_LAB_BUDGET overrides the 2**24 default."""
    raw = os.environ.get("WTF_LAB_BUDGET")
    if raw is None:
        return DEFAULT_BUDGET
    try:
        value = int(raw)
    except ValueError as exc:
        raise BadConfig(f"WTF_LAB_BUDGET must be an integer, got {raw!r}") from exc
    if value < 2:
        raise BadConfig("WTF_LAB_BUDGET must be >= 2")
    return value


def _check_budget(count: int) -> None:
    """BudgetExceeded when count cylinders or points exceed cylinder_budget()."""
    budget = cylinder_budget()
    if count > budget:
        raise BudgetExceeded(f"{count} cylinders or points exceed the budget {budget}")


def _check_words(ell: int, depth: int, per: int = 1) -> int:
    """ell**depth * per after _check_budget; a depth past the budget's bit
    length is refused before that power is formed."""
    budget = cylinder_budget()
    if depth > budget.bit_length():
        raise BudgetExceeded(f"{ell}**{depth} cylinders exceed the budget {budget}")
    total = ell**depth * per
    _check_budget(total)
    return total


def _require_ints(low=None, /, **values) -> None:
    """ValueError naming the first value that is not an int or a numpy
    integer (a bool is refused too), or is below low: numpy truncates a float
    count, depth or seed silently in some calls and raises TypeError in others."""
    for name, v in values.items():
        if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
            raise ValueError(f"{name} must be an integer, got {v!r}")
        if low is not None and v < low:
            raise ValueError(f"{name} must be >= {low}, got {v!r}")


def torus_distance(x, u):
    """Circle metric min(|x-u|, 1-|x-u|)."""
    d = np.abs(np.asarray(x, dtype=float) - np.asarray(u, dtype=float))
    return np.minimum(d, 1.0 - d)


# ---------------------------------------------------------------------------
# trig polynomials (used for g and for analytic lambda)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrigPoly:
    """c0 + sum_k a_k cos(2 pi k x) + b_k sin(2 pi k x); 1-periodic."""

    c0: float = 0.0
    harmonics: tuple[tuple[int, float, float], ...] = ()

    def __call__(self, x):
        """c0 and the terms added left to right.  With c0 = 0 a leading
        cos(2 pi k x) starts the sum: 0 + 1 * cos(w) is cos(w) bit for bit, as
        a cosine is never 0 at a float.  So cos 2 pi x costs one cos."""
        x = np.asarray(x, dtype=float)
        out = None  # stands for c0 until the first term
        for k, a, b in self.harmonics:
            w = 2.0 * math.pi * k * x
            if a == 1.0 and out is None and self.c0 == 0.0:
                out = np.cos(w)
            elif a:
                out = (self.c0 if out is None else out) + a * np.cos(w)
            if b:
                out = (self.c0 if out is None else out) + b * np.sin(w)
        return np.full_like(x, self.c0) if out is None else out

    @property
    def sup_bound(self) -> float:
        return abs(self.c0) + sum(abs(a) + abs(b) for _, a, b in self.harmonics)


COS_2PI = TrigPoly(0.0, ((1, 1.0, 0.0),))


# ---------------------------------------------------------------------------
# branches
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AffineBranch:
    """tau(x) = slope*x + offset on [lo, hi], image [0,1]."""

    index: int
    lo: float
    hi: float
    slope: float
    offset: float

    kind = "affine"

    @property
    def orientation(self) -> int:
        return 1 if self.slope > 0 else -1

    def forward(self, x):
        return self.slope * np.asarray(x, dtype=float) + self.offset

    def derivative(self, x):
        return np.full_like(np.asarray(x, dtype=float), self.slope)

    def inverse(self, y):
        x = (np.asarray(y, dtype=float) - self.offset) / self.slope
        return np.minimum(np.maximum(x, self.lo), self.hi)  # _preimages' clip, signed zeros too


@dataclass(frozen=True)
class SineFamilyBranch:
    """Branch k of x -> ell*x + eps*sin(2 pi x) mod 1 (requires 2 pi eps < ell)."""

    index: int
    lo: float
    hi: float
    ell: int
    eps: float

    kind = "doubling_plus_sine"

    @property
    def orientation(self) -> int:
        return 1

    def _f(self, x):
        x = np.asarray(x, dtype=float)
        return self.ell * x + self.eps * np.sin(2.0 * math.pi * x)

    def forward(self, x):
        return self._f(x) - float(self.index)

    def derivative(self, x):
        x = np.asarray(x, dtype=float)
        return self.ell + 2.0 * math.pi * self.eps * np.cos(2.0 * math.pi * x)

    @cached_property
    def _image(self) -> tuple[float, float]:
        """(f(lo), f(hi)): the ends of the branch image before the index shift."""
        return float(self._f(self.lo)), float(self._f(self.hi))

    def inverse(self, y):
        """The root of f(x) = y + index, each element on its own: one in-place
        Newton step x = x0 - s over the batch from the seed x0 of _inverse_seed,
        kept where Newton's bound on its error, K (r s)^2, is at most half an
        ulp of x.  Then a target at or past an image end gives that end, as in
        _invert_increasing, which solves the rejected interior targets only,
        with its bits.  InversionFailed for a target that is not finite."""
        shape, y = np.shape(y), np.asarray(y, dtype=float).reshape(-1)  # a view if contiguous
        t, (f_lo, f_hi), seed = y + float(self.index), self._image, _inverse_seed(self)
        low, high = (float(t.min()), float(t.max())) if t.size else (f_hi, f_lo)
        if not (math.isfinite(low) and math.isfinite(high)):  # min and max are NaN if any is
            raise InversionFailed("inverse branch target is not finite")
        x, ok = np.empty_like(t), np.zeros(t.shape, dtype=bool)  # no seed: all to the fallback
        if seed is not None:
            center, scale, coefficients, bound = seed
            with np.errstate(all="ignore"):  # targets past the ends are overwritten below
                u = (t - center) * scale
                x = _clenshaw(coefficients, u)  # x0, then x
                w = np.multiply(x, 2.0 * math.pi, out=u)  # for the sin and the cos
                # f(x0) - (y + index) as (ell x0 - index - y) + eps sin: no y + index rounding
                r = x * self.ell - self.index
                r -= y
                v = np.sin(w)
                r += np.multiply(v, self.eps, out=v)
                np.multiply(np.cos(w, out=w), 2.0 * math.pi * self.eps, out=w)
                w += self.ell  # f'(x0)
                r /= w  # the step s
                x -= r
                np.multiply(r, r, out=w)
                w *= bound
                ok = w <= np.multiply(np.abs(x, out=v), _HALF_ULP, out=v)
        if low <= f_lo or high >= f_hi:
            for end, at in ((self.lo, t <= f_lo), (self.hi, t >= f_hi)):
                np.copyto(x, end, where=at)
                ok |= at
        if not ok.all():  # the rejected interior targets
            at = np.flatnonzero(~ok)
            x[at] = _invert_increasing(self._f, self.derivative, t[at], self.lo, self.hi, f_lo, f_hi)
        x = np.minimum(np.maximum(x, self.lo, out=x), self.hi, out=x)  # np.clip's bits: no NaN or -0.0
        return x.reshape(shape) if shape else x[0]


_SEED_DEGREES = range(8, 65, 4)  # Chebyshev degrees tried for the inverse seed
_SEED_TOL = 1e-9  # largest seed error on the check grid that a degree may leave
_HALF_ULP = 2.0**-54  # a lower bound on half an ulp of x, relative to |x|


def _clenshaw(coefficients, u):
    """sum_j c_j T_j(u) by Clenshaw's recurrence, elementwise, in reused buffers."""
    u2, tmp = u + u, np.empty_like(u)
    b1, b2 = np.full_like(u, coefficients[-1]), np.zeros_like(u)
    for j in range(len(coefficients) - 2, -1, -1):
        np.subtract(np.multiply(u2 if j else u, b1, out=tmp), b2, out=b2)
        b2 += coefficients[j]
        b1, b2 = b2, b1
    return b1


@lru_cache(maxsize=None)
def _inverse_seed(branch: SineFamilyBranch):
    """(center, scale, coefficients, K r^2) of the Chebyshev interpolant of
    the branch inverse on its image [f_lo, f_hi], in u = (t - center) * scale
    on [-1, 1], of the first degree in _SEED_DEGREES whose seed is within
    _SEED_TOL of the inverse on a check grid; None when none is.  The node
    values, at the extrema of T_n, and the grid values, at the zeros of
    T_64, which no node meets, come from _invert_increasing.

    With m = ell - 2 pi |eps| and M = ell + 2 pi |eps| bounding f', a seed
    error e is at most r |s| for the Newton step s and r = M / m, and the
    step leaves at most K e^2 for K = 2 pi^2 |eps| / m."""
    f_lo, f_hi = branch._image
    center, half = 0.5 * (f_lo + f_hi), 0.5 * (f_hi - f_lo)

    def inverse_at(u):
        return _invert_increasing(branch._f, branch.derivative, center + half * u,
                                  branch.lo, branch.hi, f_lo, f_hi)

    grid = np.cos((np.arange(64) + 0.5) * (math.pi / 64))
    reference = inverse_at(grid)
    for n in _SEED_DEGREES:
        # the DCT-I of the node values: c_j = (2/n) sum_k'' g_k cos(pi j k / n),
        # the ends of the sum and of c halved
        k = np.arange(n + 1)
        g = inverse_at(np.cos(k * (math.pi / n)))
        g[[0, -1]] *= 0.5
        c = (2.0 / n) * (np.cos(np.outer(k, k) * (math.pi / n)) @ g)
        c[[0, -1]] *= 0.5
        if np.abs(_clenshaw(c, grid) - reference).max() <= _SEED_TOL:
            slope = 2.0 * math.pi * abs(branch.eps)
            m = branch.ell - slope
            kr2 = (math.pi * slope / m) * ((branch.ell + slope) / m) ** 2
            return center, 1.0 / half, tuple(c.tolist()), kr2
    return None


def _invert_increasing(f, fprime, target, lo, hi, f_lo, f_hi):
    """Solve f(x) = target on [lo, hi] for increasing f, with f_lo = f(lo) and
    f_hi = f(hi), each element on its own: Newton from the chord guess,
    safeguarded by a bisection bracket.  An element stops at x - s once its
    step s = (f(x) - target) / f'(x) is below _INVERT_TOL, so its root
    depends on its own target only, alone or in any batch.  A target at or
    past f_lo or f_hi gives that end.  InversionFailed for a target that is
    not finite and when _INVERT_MAX_ITER steps leave an element unconverged."""
    target = np.asarray(target, dtype=float)
    if not np.isfinite(target).all():
        raise InversionFailed("inverse branch target is not finite")
    t = target.ravel()
    roots = np.where(t <= f_lo, lo, hi)
    live = np.flatnonzero((t > f_lo) & (t < f_hi))  # result slot of each working element
    t = t[live]
    a = np.full_like(t, lo)
    b = np.full_like(t, hi)
    x = lo + (t - f_lo) * ((hi - lo) / (f_hi - f_lo))
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(_INVERT_MAX_ITER):
            if not live.size:
                break
            fx = f(x) - t
            below = fx <= 0
            np.copyto(a, x, where=below)
            np.copyto(b, x, where=~below)
            s = fx / fprime(x)
            x = x - s
            done = np.abs(s) < _INVERT_TOL  # converged steps skip the bracket test
            if done.any():  # finished elements leave the working arrays
                roots[live[done]] = x[done]
                keep = ~done
                live, t, a, b, x = live[keep], t[keep], a[keep], b[keep], x[keep]
            inside = (x > a) & (x < b)  # False for NaN and +-inf too
            if not inside.all():
                np.copyto(x, 0.5 * (a + b), where=~inside)
    if live.size:
        raise InversionFailed(
            f"inverse branch root-finding did not reach {_INVERT_TOL:g} on [{lo}, {hi}]")
    return float(roots[0]) if target.ndim == 0 else roots.reshape(target.shape)


# ---------------------------------------------------------------------------
# the system
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class CookieCutterSystem:
    """Validated cookie cutter (tau, lambda, g). Immutable after construction;
    all operations are pure functions of (system, inputs).  lam, with values
    in (0,1), is a TrigPoly or a table of one value per branch (ell equal
    values for a constant); a gap point takes its nearest branch's value
    (lower index on ties), which only off-repeller visualisation touches."""

    model_id: str
    branches: tuple
    lam: tuple[float, ...] | TrigPoly
    g: TrigPoly
    hyperbolicity_margin: float
    margin_slack: float
    lambda_inf: float
    lambda_sup: float
    warnings: tuple[str, ...] = ()

    @property
    def ell(self) -> int:
        return len(self.branches)

    @cached_property
    def is_affine(self) -> bool:
        return all(b.kind == "affine" for b in self.branches)

    @property
    def lam_is_table(self) -> bool:
        return not isinstance(self.lam, TrigPoly)

    @property
    def branch_constant(self) -> bool:
        """True when log|tau'| and log lambda are both constant on branches."""
        return self.is_affine and self.lam_is_table

    @property
    def is_full(self) -> bool:
        """True when the branch domains tile [0,1] (repeller = whole circle)."""
        lows = self.branch_lows
        highs = self.branch_highs
        inner = np.all(np.abs(highs[:-1] - lows[1:]) < 1e-12)
        return bool(inner and lows[0] < 1e-12 and highs[-1] > 1.0 - 1e-12)

    @cached_property
    def branch_lows(self) -> np.ndarray:
        return np.array([b.lo for b in self.branches])

    @cached_property
    def branch_highs(self) -> np.ndarray:
        return np.array([b.hi for b in self.branches])

    # -- pointwise fields ---------------------------------------------------

    def branch_index(self, x):
        """kappa(x) with half-open membership; -1 marks points outside
        every [a_i, b_i)."""
        x = np.asarray(x, dtype=float)
        idx = np.zeros(x.shape, dtype=np.intp)
        for lo in self.branch_lows[1:]:  # lows are sorted: count those <= x
            idx += x >= lo
        inside = (x >= self.branch_lows[0]) & (x < self.branch_highs[idx])
        return np.where(inside, idx, -1)

    def nearest_branch(self, x):
        """Branch index for lambda evaluation off the branch union
        (ties go to the lower index)."""
        x = np.asarray(x, dtype=float)
        idx = self.branch_index(x)
        gap = idx < 0
        if np.any(gap):
            xg = x[gap]
            prev = np.clip(np.searchsorted(self.branch_lows, xg, side="right") - 1, 0, self.ell - 1)
            nxt = np.clip(prev + 1, 0, self.ell - 1)
            d_prev = np.abs(xg - self.branch_highs[prev])
            d_next = np.abs(self.branch_lows[nxt] - xg)
            pick = np.where(d_next < d_prev, nxt, prev)
            idx = idx.copy()
            idx[gap] = pick
        return idx

    @cached_property
    def _affine_coefficients(self) -> tuple[np.ndarray, np.ndarray]:
        return (np.array([b.slope for b in self.branches]),
                np.array([b.offset for b in self.branches]))

    @cached_property
    def branch_logs(self) -> tuple[np.ndarray, np.ndarray]:
        """(log|tau_i'|, log lambda_i); 0 for an observable not constant on branches."""
        zeros = np.zeros(self.ell)
        return (np.log(np.abs(self._affine_coefficients[0])) if self.is_affine else zeros,
                np.log(self.lam) if self.lam_is_table else zeros)

    def tau(self, x):
        """Forward map; gap points go to 0, endpoint images wrap mod 1.  Each
        point's branch is evaluated once: affine systems gather slope and
        offset by branch index, the sine family evaluates ell x + eps sin 2 pi x
        and subtracts the index, with each branch's forward bits."""
        x = np.asarray(x, dtype=float)
        idx = self.branch_index(x)
        with np.errstate(over="ignore", invalid="ignore"):  # only gap points can warn
            if self.is_affine:
                slope, offset = self._affine_coefficients
                out = slope[idx] * x + offset[idx]
            else:  # one doubling_plus_sine family
                out = self.branches[0]._f(x) - idx
            out = np.where(idx < 0, 0.0, out)
        return out - np.floor(out)  # np.mod(out, 1.0) bit for bit on finite out

    def lam_at(self, x):
        x = np.asarray(x, dtype=float)
        if not self.lam_is_table:
            return self.lam(x)
        if self.lambda_inf == self.lambda_sup:  # equal weights: no branch lookup
            return np.full_like(x, self.lambda_inf)
        return np.asarray(self.lam)[self.nearest_branch(x)]

    def log_terms(self, d, x):
        """(log|tau'|, log lambda) of branch d at the points x, in x's shape (d
        broadcasts): the one fork on representation for them, gathering affine
        slopes and a lambda table by digit, evaluating the sine family's
        derivative and a TrigPoly lambda at x."""
        x = np.asarray(x, dtype=float)
        d = np.broadcast_to(d, x.shape)
        log_tp, log_lm = self.branch_logs
        u = log_tp[d] if self.is_affine else np.log(np.abs(self.branches[0].derivative(x)))
        return u, log_lm[d] if self.lam_is_table else np.log(self.lam(x))

    # -- cylinder tree -------------------------------------------------------

    def tree(self, depth: int):
        """Level ``depth`` of the cylinder tree: (X, U, V) with X the midpoint
        representatives rho_w(1/2) of the depth-n words (lexicographic order,
        first digit most significant), U = S_n log|tau'| and V = S_n log lambda
        at X: birkhoff_sums_along the enumerated words; computed on each call.
        ValueError for a depth that is not an integer >= 0."""
        _require_ints(0, depth=depth)
        return birkhoff_sums_along(self, enumerate_words(self.ell, depth))


# ---------------------------------------------------------------------------
# construction / validation
# ---------------------------------------------------------------------------

def _integer(value, name: str) -> int:
    """int(value); BadConfig when that changes the value (``"ell": 2.5``)."""
    out = int(value)
    if out != value:
        raise BadConfig(f"{name} must be an integer, got {value!r}")
    return out


def _parse_g(spec) -> TrigPoly:
    if spec is None:
        return COS_2PI
    if isinstance(spec, TrigPoly):
        return spec
    kind = spec.get("kind", "trig")
    if kind == "zero":
        return TrigPoly(0.0, ())
    if kind == "trig":
        harmonics = tuple((_integer(k, "harmonic index"), float(a), float(b))
                          for k, a, b in spec.get("harmonics", []))
        return TrigPoly(float(spec.get("c0", 0.0)), harmonics)
    raise BadConfig(f"unknown g kind {kind!r}")


def _parse_lambda(spec) -> float | tuple[float, ...] | TrigPoly:
    if isinstance(spec, (int, float)):
        return float(spec)
    kind = spec.get("kind")
    if kind == "constant":
        return float(spec["value"])
    if kind == "branch_constant":
        return tuple(float(v) for v in spec["values"])
    if kind == "trig":
        return _parse_g(spec)
    raise BadConfig(f"unknown lambda kind {kind!r}")


def _parse_entry(parse, spec: dict, key: str):
    """parse(spec[key]), with a missing field or a value of the wrong type
    or out of range (``"ell": "two"``, ``"ell": 1e400``) inside the entry
    reported as BadConfig."""
    try:
        return parse(spec.get(key))
    except (AttributeError, KeyError, TypeError, OverflowError, ValueError) as exc:
        raise BadConfig(f"malformed {key!r} entry: {type(exc).__name__}: {exc}") from exc


def _build_branches(spec) -> tuple:
    if isinstance(spec, dict) and "family" in spec:
        family = spec["family"]
        if family not in ("ell_adic", "doubling_plus_sine"):
            raise BadConfig(f"unknown branch family {family!r}")
        ell = _integer(spec["ell"], "ell")
        if not 2 <= ell <= _MAX_BRANCHES:
            raise BadConfig(f"{family} needs 2 <= ell <= {_MAX_BRANCHES}")
        if family == "ell_adic":
            return tuple(
                AffineBranch(i, i / ell, (i + 1) / ell, float(ell), -float(i))
                for i in range(ell)
            )
        eps = float(spec.get("eps", 0.0))
        if 2.0 * math.pi * abs(eps) >= ell:
            raise BadConfig("doubling_plus_sine needs 2*pi*|eps| < ell for monotonicity")
        whole = SineFamilyBranch(0, 0.0, 1.0, ell, eps)  # ell x + eps sin(2 pi x) on [0, 1]
        cuts = [0.0] + [_invert_increasing(whole._f, whole.derivative, float(k), 0.0, 1.0,
                                           *whole._image) for k in range(1, ell)] + [1.0]
        return tuple(
            SineFamilyBranch(i, cuts[i], cuts[i + 1], ell, eps) for i in range(ell)
        )

    if len(spec) > _MAX_BRANCHES:
        raise BadConfig(f"an explicit branch list holds at most {_MAX_BRANCHES} branches")
    branches = []
    for i, b in enumerate(spec):
        if b.get("kind", "affine") != "affine":
            raise BadConfig("explicit branch lists support affine branches only")
        lo, hi = (float(v) for v in b["domain"])
        if not (0.0 <= lo < hi <= 1.0):
            raise BadConfig(f"branch {i} domain [{lo}, {hi}] not inside [0,1]")
        if "slope" in b:
            slope = float(b["slope"])
            offset = float(b["offset"]) if "offset" in b else (
                -slope * lo if slope > 0 else -slope * hi)
        else:
            slope = 1.0 / (hi - lo)
            offset = -slope * lo
        branches.append(AffineBranch(i, lo, hi, slope, offset))
    return tuple(branches)


def validate_system(spec: dict) -> CookieCutterSystem:
    """Validate a raw model description and compute the hyperbolicity margin.

    The margin is the probe-grid minimum of |tau'(x)| * lambda(x) minus a
    slack equal to the largest jump between adjacent probes; it must exceed 1.
    """
    if not isinstance(spec, dict):
        raise BadConfig("model spec must be a mapping")
    model_id = str(spec.get("id", "anonymous"))
    branches = _parse_entry(_build_branches, spec, "branches")
    if len(branches) < 2:
        raise BadConfig("need at least 2 branches")
    lam = _parse_entry(_parse_lambda, spec, "lambda")
    g = _parse_entry(_parse_g, spec, "g")
    if not math.isfinite(g.sup_bound):
        raise BadConfig("g coefficients must be finite")

    lam = (lam,) * len(branches) if isinstance(lam, float) else lam
    if isinstance(lam, tuple) and len(lam) != len(branches):
        raise BadConfig("branch_constant lambda needs one value per branch")

    order = sorted(range(len(branches)), key=lambda i: branches[i].lo)
    branches = tuple(branches[order[i]] for i in range(len(branches)))
    if any(br.index != i for i, br in enumerate(branches)):
        # re-index after sorting so digit i always means the i-th interval
        branches = tuple(replace(br, index=i) for i, br in enumerate(branches))

    for left, right in zip(branches, branches[1:]):
        if right.lo < left.hi - 1e-15:
            raise OverlappingBranches(
                f"branches [{left.lo}, {left.hi}] and [{right.lo}, {right.hi}] overlap")

    warnings = []
    margin = math.inf
    slack = 0.0
    lam_inf, lam_sup = math.inf, -math.inf
    orientations = set()
    for br in branches:
        grid = np.linspace(br.lo, br.hi, _PROBES_PER_BRANCH)
        image = br.forward(grid)
        d = br.derivative(grid)
        if np.any(np.abs(d) < 1e-12) or not np.all(np.isfinite(d)):
            raise BadConfig(f"branch {br.index}: derivative not bounded away from 0")
        if np.any(np.sign(d) != np.sign(d[0])):
            raise BadConfig(f"branch {br.index}: forward map not monotone")
        ends = sorted((image[0], image[-1]))
        if not (abs(ends[0]) <= _ONTO_TOL and abs(ends[1] - 1.0) <= _ONTO_TOL):  # NaN fails
            raise NotOnto(
                f"branch {br.index} image [{ends[0]:.3g}, {ends[1]:.3g}] != (0,1)")
        orientations.add(br.orientation)

        lam_vals = lam(grid) if isinstance(lam, TrigPoly) else np.full_like(grid, lam[br.index])
        if not np.all((lam_vals > 0.0) & (lam_vals < 1.0)):  # NaN included
            raise LambdaOutOfRange(
                f"lambda leaves (0,1) on branch {br.index}")
        lam_inf = min(lam_inf, float(lam_vals.min()))
        lam_sup = max(lam_sup, float(lam_vals.max()))

        product = np.abs(d) * lam_vals
        margin = min(margin, float(product.min()))
        if len(product) > 1:
            slack = max(slack, float(np.max(np.abs(np.diff(product)))))

    if len(orientations) > 1:
        warnings.append("mixed branch orientations: expansivity may fail on V-shaped configurations")

    margin_est = margin - slack
    if margin_est <= 1.0:
        raise HyperbolicityViolated(
            f"inf |tau'| * lambda = {margin:.6g} (slack {slack:.2g}) does not exceed 1")

    return CookieCutterSystem(
        model_id=model_id,
        branches=branches,
        lam=lam,
        g=g,
        hyperbolicity_margin=margin_est,
        margin_slack=slack,
        lambda_inf=lam_inf,
        lambda_sup=lam_sup,
        warnings=tuple(warnings),
    )


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def _orbit(sys: CookieCutterSystem, xs, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One walk for the points of xs: per point, its first n itinerary digits
    (uint8), its orbit points x, tau x, ..., tau^{n-1} x, and the iterate at
    which it leaves the partition (a gap, or an endpoint no half-open domain
    covers), n if it stays; digits and points from that iterate on are 0."""
    cur = np.array(xs, dtype=float).ravel()
    _check_budget(cur.size * n)
    digits = np.zeros((cur.size, n), dtype=np.uint8)
    points = np.zeros((cur.size, n))
    left = np.full(cur.size, n)
    rows = np.arange(cur.size)
    for k in range(n):
        idx = sys.branch_index(cur)
        out = idx < 0
        if out.any():
            left[rows[out]] = k
            rows, cur, idx = rows[~out], cur[~out], idx[~out]
        digits[rows, k] = idx
        points[rows, k] = cur
        if k + 1 < n:
            cur = sys.tau(cur)
    return digits, points, left


def code_of(sys: CookieCutterSystem, x: float, n: int) -> np.ndarray:
    """First n digits of x's itinerary (uint8); NotInPartition(k) if iterate
    k falls in a gap or on an endpoint no half-open domain covers; ValueError
    for an n that is not an integer >= 1."""
    _require_ints(1, depth=n)
    digits, _, left = _orbit(sys, [x], n)
    if left[0] < n:
        raise NotInPartition(int(left[0]))
    return digits[0]


def _digits(sys: CookieCutterSystem, digits) -> np.ndarray:
    """digits as an integer array; ValueError for a non-integer dtype and for
    a digit outside 0..ell-1."""
    d = np.asarray(digits)
    if d.dtype.kind not in "iu":
        raise ValueError(f"digits must have an integer dtype, not {d.dtype}")
    if d.size and (d.max() >= sys.ell or d.dtype.kind == "i" and d.min() < 0):
        raise ValueError(f"digit out of range for a system of {sys.ell} branches")
    return d


def _digit_matrix(sys: CookieCutterSystem, digits) -> np.ndarray:
    """digits as a 2-D integer matrix, one word per row; ValueError as
    _digits and for any other rank."""
    digits = _digits(sys, digits)
    if digits.ndim != 2:
        raise ValueError("a digit matrix is 2-D, one word per row")
    return digits


def _word(sys: CookieCutterSystem, word) -> np.ndarray:
    """A word argument as a uint8 digit row; ValueError for an empty or
    non-1-D word and for a digit outside 0..ell-1."""
    arr = np.asarray(word)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("a word is a nonempty 1-D sequence of digits")
    return _digits(sys, arr).astype(np.uint8)


def _preimages(sys: CookieCutterSystem, d, x) -> np.ndarray:
    """rho_d(x) elementwise, the digits d broadcast against the points x; the
    one fork on branch kind for inverses.  Affine systems gather by digit
    AffineBranch.inverse's (x - offset) / slope clipped to [lo, hi].  The sine
    family inverts once per branch: a walk level's row, the columns of an (S,
    count) start matrix or all points, and only a digit per element takes a
    flat index.  Every inverse is elementwise, so any layout keeps the bits."""
    x, d = np.asarray(x, dtype=float), np.asarray(d)
    if sys.is_affine:
        d, (slope, offset) = d.astype(np.intp), sys._affine_coefficients
        v = (x - offset.take(d)) / slope.take(d)
        np.maximum(v, sys.branch_lows.take(d), out=v)  # np.clip's bits, without its overhead
        return np.minimum(v, sys.branch_highs.take(d), out=v)
    shape = np.broadcast(d, x).shape
    axes = [k + len(shape) - d.ndim for k, n in enumerate(d.shape) if n > 1]
    out, x, dd = np.empty(shape), np.broadcast_to(x, shape), d.ravel()
    if d.shape == shape or len(axes) > 1:  # a digit per element: a flat index
        out, x, dd, axes = out.reshape(-1), x.ravel(), np.broadcast_to(d, shape).ravel(), [0]
    lead = (slice(None),) * axes[0] if axes else None  # None: one digit for every point
    for i, br in enumerate(sys.branches):
        at = np.flatnonzero(dd == i)
        if at.size:  # a run, such as a walk level's row, is sliced, not gathered
            at = slice(at[0], at[-1] + 1) if at[-1] - at[0] + 1 == at.size else at
            at = ... if lead is None else lead + (at,)
            out[at] = br.inverse(x[at])
    return out.reshape(shape)


def _compose_rows(sys: CookieCutterSystem, digits: np.ndarray, x, step=None, y=None):
    """(rho_{w_1} o ... o rho_{w_n}(x), y) for each row w of a (count, n)
    digit matrix, one _preimages call per column, last first: x is a scalar,
    one value per row or an (S, count) matrix of S start values for every
    row, and after column k, y <- step(k, u, y) with u the values there.
    The digits are not checked (see _compose)."""
    x = np.full(np.broadcast_shapes(np.shape(x), digits.shape[:1]), x, dtype=float)
    for col in range(digits.shape[1] - 1, -1, -1):
        x = _preimages(sys, digits[:, col], x)
        if step is not None:
            y = step(col, x, y)
    return x, y


def _compose(sys: CookieCutterSystem, digits, x, step=None, y=None):
    """rho_{w_1} o ... o rho_{w_n}(x) for each row w of a (count, n) digit
    matrix, and with a step the pair of it and y, carried as in _compose_rows.

    Start values shared by every row (x and y each a scalar or an (S, 1)
    column) compose each digit suffix once: with j the largest depth with
    ell^j <= count, one _walk covers the last j columns for all ell^j
    suffixes, each row gathers its suffix's values by a Horner index of its
    last j digits, and only the first n - j columns are composed per row,
    in blocks of _EVAL_BLOCK rows.  Other start values (one per row, or an
    (S, count) matrix) take _compose_rows on all n columns.  Every step is
    elementwise, so both routes give a value the same bits.  ValueError
    unless digits is a 2-D integer matrix of digits in 0..ell-1."""
    digits = _digit_matrix(sys, digits)
    (count, n), shape = digits.shape, np.broadcast_shapes(np.shape(x), np.shape(y))
    if shape[-1:] not in ((), (1,)):
        x, y = _compose_rows(sys, digits, x, step, y)
        return x if step is None else (x, y)
    j = 0
    while j < n and sys.ell**(j + 1) <= count:
        j += 1
    starts = np.broadcast_to(np.asarray(x, dtype=float), shape).ravel()
    if step is None:
        level, carried = _walk(sys, starts, j), None
    else:
        level, carried = _walk(sys, starts, j, lambda k, u, v: step(k + n - j, u, v),
                               np.broadcast_to(np.asarray(y, dtype=float), shape).ravel())
        carried = carried.reshape(-1, starts.size)
    level = level.reshape(-1, starts.size)
    x = np.empty((starts.size, count))
    y = None if step is None else np.empty_like(x)
    for r in range(0, count, _EVAL_BLOCK):
        rows = slice(r, r + _EVAL_BLOCK)
        at = np.zeros(min(_EVAL_BLOCK, count - r), dtype=np.intp)
        for col in range(n - j, n):  # Horner, never digits @ powers: no (rows, j) temporary
            at *= sys.ell
            at += digits[rows, col]
        x[:, rows], v = _compose_rows(sys, digits[rows, :n - j], level[at].T, step,
                                      None if carried is None else carried[at].T)
        if y is not None:
            y[:, rows] = v
    out = np.broadcast_shapes(shape, (count,))
    return x.reshape(out) if step is None else (x.reshape(out), y.reshape(out))


def _walk(sys: CookieCutterSystem, x, depth: int, step=None, y=None):
    """rho_w(x_j) for every depth-n word w and start value x_j, level by
    level; index i * len(x) + j holds word i in lexicographic order (first
    digit most significant) and start value j.  A level is one _preimages
    call with the digits 0..ell-1 on a new leading axis: after the level of
    digit column k, last first, y <- step(k, u, y) with u of shape
    (ell,) * m + (c,), c the level-above values in the call, so y (at first
    one value per start value) broadcasts against the new axis; with a step
    the result is the pair of the points and y, both raveled.  All start
    values walk together while a level holds at most _EVAL_BLOCK points; the
    last levels (at most floor(log_ell _EVAL_BLOCK)) run on row chunks of
    the level above, so no temporary holds more.  Every step is elementwise,
    so up to depth 64 each value has the bits point_of_word gives it."""
    x, d = np.asarray(x, dtype=float).ravel(), np.arange(sys.ell)[:, None]

    def levels(x, y, cols):
        for col in cols:
            x = _preimages(sys, d, x.ravel()).reshape((sys.ell,) + x.shape)
            if step is not None:
                y = step(col, x, y)
        return x.ravel(), (None if step is None else np.ravel(y))

    tail = 0
    while (tail < depth and x.size * sys.ell**(depth - tail) > _EVAL_BLOCK
           and sys.ell**(tail + 1) <= _EVAL_BLOCK):
        tail += 1
    x, y = levels(x, y, range(depth - 1, tail - 1, -1))
    if tail:  # row r of the level above and tail word p land at p * x.size + r
        fan = sys.ell**tail
        out = [np.empty((fan, x.size)) for _ in range(1 if step is None else 2)]  # x, y
        for r in range(0, x.size, _EVAL_BLOCK // fan):  # fan <= _EVAL_BLOCK
            rows = slice(r, r + _EVAL_BLOCK // fan)
            chunk = levels(x[rows], None if step is None else y[rows], range(tail - 1, -1, -1))
            for o, c in zip(out, chunk):
                o[:, rows] = c.reshape(fan, -1)
        x, y = out[0].ravel(), out[-1].ravel()
    return x if step is None else (x, y)


def _check_resolved(sys: CookieCutterSystem, length: np.ndarray) -> None:
    """InversionFailed on a non-affine system for a cylinder length below
    4 * 1e-12, four times the Newton step tolerance: the lab does not resolve
    geometry that fine."""
    if not sys.is_affine and np.any(length < 4.0 * _INVERT_TOL):
        raise InversionFailed(
            f"cylinder shorter than the inverse-branch resolution {4.0 * _INVERT_TOL:g}")


def cylinder_bounds_many(sys: CookieCutterSystem, digits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized cylinder endpoints for a (count, depth) digit matrix from
    one _compose call with start values 0 and 1; all digits count.
    InversionFailed as _check_resolved."""
    a, b = _compose(sys, digits, [[0.0], [1.0]])
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    _check_resolved(sys, hi - lo)
    return lo, hi


def point_of_word(sys: CookieCutterSystem, digits: np.ndarray, t=0.5) -> np.ndarray:
    """rho_w(t) for each row of a (count, depth) digit matrix; only the
    leading 64 digits are composed."""
    return _compose(sys, np.atleast_1d(digits)[..., :_MAX_EFFECTIVE_DEPTH], t)


def _words_at(idx, ell: int, depth: int) -> np.ndarray:
    """(len(idx), depth) digit matrix of the depth-n words with lexicographic
    indices idx: the base-ell digits of each index, most significant first."""
    idx = np.array(idx, dtype=np.int64)
    out = np.empty((len(idx), depth), dtype=np.uint8)
    for col in range(depth - 1, -1, -1):
        out[:, col] = idx % ell
        idx //= ell
    return out


def enumerate_words(ell: int, depth: int) -> np.ndarray:
    """(ell^depth, depth) digit matrix in lexicographic order; ValueError for
    non-integers, BudgetExceeded as _check_words."""
    _require_ints(ell=ell, depth=depth)
    return _words_at(np.arange(_check_words(ell, depth)), ell, depth)


BIRKHOFF_FIELDS = ("log_abs_tau_prime", "log_lambda")


def birkhoff_sum(sys: CookieCutterSystem, field_name: str, x: float, n: int) -> float:
    """Partial sum of log|tau'| or log lambda along the orbit of x; ValueError
    for an n that is not an integer."""
    _require_ints(n=n)
    if field_name not in BIRKHOFF_FIELDS:
        raise ValueError(f"field must be one of {BIRKHOFF_FIELDS}")
    sums = _birkhoff_sums(sys, [x], n)
    return float(sums[BIRKHOFF_FIELDS.index(field_name)][0])


def _birkhoff_sums(sys: CookieCutterSystem, xs, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(S_n log|tau'|, S_n log lambda) along the orbit of each point of xs,
    from one orbit walk; both sums add their terms left to right (np.sum
    adds pairwise).  NotInPartition(k) for the first point, in the order of
    xs, whose iterate k leaves the partition."""
    digits, points, left = _orbit(sys, xs, n)
    out = np.flatnonzero(left < n)
    if out.size:
        raise NotInPartition(int(left[out[0]]))
    log_tp, log_lam = sys.log_terms(digits, points)
    u, v = np.zeros(len(points)), np.zeros(len(points))
    for k in range(n):
        u += log_tp[:, k]
        v += log_lam[:, k]
    return u, v


def birkhoff_sums_along(sys: CookieCutterSystem, digits, t=0.5):
    """(rho_w(t), S_n log|tau'|, S_n log lambda) per row w of a (count, n)
    digit matrix, each term at tau^k rho_w(t) = rho_{sigma^k w}(t), the
    point after column k of _compose_rows, the loop a per-row hook needs;
    all n digits count.  ValueError as _compose."""
    digits = _digit_matrix(sys, digits)

    def add(k, x, sums):  # column k's terms onto the sums of the later columns
        du, dv = sys.log_terms(digits[:, k], x)
        return du + sums[0], dv + sums[1]

    zeros = np.zeros(digits.shape[:1])
    x, (u, v) = _compose_rows(sys, digits, t, add, (zeros, zeros))
    return x, u, v


def _birkhoff_sums_from_counts(sys: CookieCutterSystem, counts: np.ndarray):
    """(S_n log|tau'|, S_n log lambda) from digit counts c_i on the last axis:
    c_i log|tau'_i| and c_i log lambda_i summed in digit order."""
    log_tp, log_lm = sys.branch_logs
    u, v = np.zeros(counts.shape[:-1]), np.zeros(counts.shape[:-1])
    for i in range(sys.ell):
        c = counts[..., i]
        u += c * log_tp[i]
        v += c * log_lm[i]
    return u, v
