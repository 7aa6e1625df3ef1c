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
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .errors import (
    BadConfig,
    BudgetExceeded,
    HyperbolicityViolated,
    InversionFailed,
    LambdaOutOfRange,
    NotBranchConstant,
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
_DISTORTION_DEPTH = 8
_BIRKHOFF_ROWS = 256  # digit rows gathered at once by birkhoff_sums_from_digits
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
        x = np.asarray(x, dtype=float)
        out = np.full_like(x, self.c0)
        for k, a, b in self.harmonics:
            w = 2.0 * math.pi * k * x
            if a:
                out = out + a * np.cos(w)
            if b:
                out = out + b * np.sin(w)
        return out

    def derivative(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        for k, a, b in self.harmonics:
            w = 2.0 * math.pi * k * x
            c = 2.0 * math.pi * k
            if a:
                out = out - a * c * np.sin(w)
            if b:
                out = out + b * c * np.cos(w)
        return out

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
        return np.clip(x, self.lo, self.hi)


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

    def inverse(self, y):
        target = np.asarray(y, dtype=float) + float(self.index)
        x = _invert_increasing(self._f, self.derivative, target, self.lo, self.hi)
        return np.clip(x, self.lo, self.hi)


def _invert_increasing(f, fprime, target, lo, hi):
    """Solve f(x) = target on [lo, hi] for increasing f, each element on its
    own: Newton from the chord guess, safeguarded by a bisection bracket.  An
    element stops at x - s once its step s = (f(x) - target) / f'(x) is below
    _INVERT_TOL, so its root depends on its own target only, alone or in any
    batch.  A target at or past f(lo) or f(hi) gives that end.
    InversionFailed for a target that is not finite and when _INVERT_MAX_ITER
    steps leave an element unconverged."""
    target = np.asarray(target, dtype=float)
    if not np.isfinite(target).all():
        raise InversionFailed("inverse branch target is not finite")
    t = target.ravel()
    f_lo, f_hi = float(f(lo)), float(f(hi))
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
# lambda specifications
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LambdaSpec:
    """Contraction weight lambda with values in (0,1).

    kinds: "constant" (value), "branch_constant" (one value per branch),
    "trig" (TrigPoly).  Branch-constant evaluation at gap points takes the
    value of the nearest branch (lower index on ties); only off-repeller
    visualisation ever touches that case.
    """

    kind: str
    value: float = 0.0
    values: tuple[float, ...] = ()
    poly: TrigPoly | None = None

    @property
    def branch_constant(self) -> bool:
        return self.kind in ("constant", "branch_constant")

    def branch_values(self, n_branches: int) -> np.ndarray:
        if self.kind == "constant":
            return np.full(n_branches, self.value)
        if self.kind == "branch_constant":
            return np.asarray(self.values, dtype=float)
        raise NotImplementedError("analytic lambda has no branch values")


# ---------------------------------------------------------------------------
# the system
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class CookieCutterSystem:
    """Validated cookie cutter (tau, lambda, g). Immutable after construction;
    all operations are pure functions of (system, inputs)."""

    model_id: str
    branches: tuple
    lam: LambdaSpec
    g: TrigPoly
    hyperbolicity_margin: float
    margin_slack: float
    lambda_inf: float
    lambda_sup: float
    warnings: tuple[str, ...] = ()
    _tree_cache: dict = field(default_factory=dict, repr=False)

    @property
    def ell(self) -> int:
        return len(self.branches)

    @property
    def is_affine(self) -> bool:
        return all(b.kind == "affine" for b in self.branches)

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
        x = np.atleast_1d(np.asarray(x, dtype=float))
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

    def tau(self, x):
        """Forward map; gap points go to 0, endpoint images wrap mod 1."""
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        idx = self.branch_index(x)
        with np.errstate(over="ignore", invalid="ignore"):  # only points off br can warn
            for i, br in enumerate(self.branches):
                np.copyto(out, br.forward(x), where=idx == i)
        return out - np.floor(out)  # np.mod(out, 1.0) bit for bit on finite out

    def tau_prime(self, x):
        x = np.asarray(x, dtype=float)
        out = np.full_like(x, np.nan)
        idx = self.nearest_branch(x)
        for i, br in enumerate(self.branches):
            m = idx == i
            if np.any(m):
                out[m] = br.derivative(x[m])
        return out

    def log_abs_tau_prime(self, x):
        return np.log(np.abs(self.tau_prime(x)))

    def lam_at(self, x):
        x = np.asarray(x, dtype=float)
        if self.lam.kind == "constant":
            return np.full_like(x, self.lam.value)
        if self.lam.kind == "branch_constant":
            vals = np.asarray(self.lam.values)
            return vals[self.nearest_branch(x)]
        return self.lam.poly(x)

    def log_lam(self, x):
        return np.log(self.lam_at(x))

    @cached_property
    def distortion_constants(self) -> tuple[float, float]:
        """Largest in-cylinder oscillation of S_n log|tau'| and S_n log lambda
        over the depth-8 cylinders, from three representatives per cylinder."""
        cur = _walk(self, (0.15, 0.5, 0.85), _DISTORTION_DEPTH).reshape(-1, 3)
        u = np.zeros(cur.shape)
        v = np.zeros(cur.shape)
        for _ in range(_DISTORTION_DEPTH):
            u += self.log_abs_tau_prime(cur)
            v += self.log_lam(cur)
            cur = self.tau(cur)
        return float(np.ptp(u, axis=1).max()), float(np.ptp(v, axis=1).max())

    # -- cylinder tree -------------------------------------------------------

    def tree(self, depth: int):
        """Level ``depth`` of the cylinder tree: (X, U, V) with X the midpoint
        representatives rho_w(1/2) of the depth-n words (lexicographic order,
        first digit most significant), U = S_n log|tau'| and V = S_n log lambda
        at X.  Every level up to ``depth`` stays cached."""
        _check_budget(self.ell**depth)
        levels = self._tree_cache
        levels.setdefault(0, (np.array([0.5]), np.zeros(1), np.zeros(1)))
        for k in range(max(j for j in levels if j <= depth) + 1, depth + 1):
            xp, up, vp = levels[k - 1]
            x = _walk(self, xp, 1).reshape(self.ell, -1)  # row i: branch i's preimages
            d = np.stack([br.derivative(xi) for br, xi in zip(self.branches, x)])
            levels[k] = (x.ravel(), (np.log(np.abs(d)) + up).ravel(), (self.log_lam(x) + vp).ravel())
        return levels[depth]


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


def _parse_lambda(spec) -> LambdaSpec:
    if isinstance(spec, LambdaSpec):
        return spec
    if isinstance(spec, (int, float)):
        return LambdaSpec("constant", value=float(spec))
    kind = spec.get("kind")
    if kind == "constant":
        return LambdaSpec("constant", value=float(spec["value"]))
    if kind == "branch_constant":
        return LambdaSpec("branch_constant", values=tuple(float(v) for v in spec["values"]))
    if kind == "trig":
        return LambdaSpec("trig", poly=_parse_g(spec))
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
        cuts = [0.0] + [_invert_increasing(whole._f, whole.derivative, float(k), 0.0, 1.0)
                        for k in range(1, ell)] + [1.0]
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

    if lam.kind == "branch_constant" and len(lam.values) != len(branches):
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

        if lam.kind == "constant":
            lam_vals = np.full_like(grid, lam.value)
        elif lam.kind == "branch_constant":
            lam_vals = np.full_like(grid, lam.values[br.index])
        else:
            lam_vals = lam.poly(grid)
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


def _orbit_of(sys: CookieCutterSystem, x: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Digits and orbit points of one point (see _orbit); NotInPartition(k)
    if iterate k leaves the partition."""
    digits, points, left = _orbit(sys, [x], n)
    if left[0] < n:
        raise NotInPartition(int(left[0]))
    return digits[0], points[0]


def code_of(sys: CookieCutterSystem, x: float, n: int) -> np.ndarray:
    """First n digits of x's itinerary (uint8); NotInPartition(k) if iterate
    k falls in a gap or on an endpoint no half-open domain covers."""
    if n < 1:
        raise ValueError("depth must be >= 1")
    return _orbit_of(sys, x, n)[0]


def _word(sys: CookieCutterSystem, word) -> np.ndarray:
    """A word argument as a uint8 digit row; ValueError for an empty or
    non-1-D word and for a digit outside 0..ell-1."""
    arr = np.asarray(word)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("a word is a nonempty 1-D sequence of digits")
    if arr.dtype.kind not in "iu" or arr.min() < 0 or arr.max() >= sys.ell:
        raise ValueError(f"digit out of range for an {sys.ell}-branch system")
    return arr.astype(np.uint8)


def cylinder_of(sys: CookieCutterSystem, word) -> tuple[float, float]:
    """Endpoints (lo, hi) of rho_{w_1} o ... o rho_{w_n} ([0,1]), first digit
    outermost."""
    lo, hi = cylinder_bounds_many(sys, _word(sys, word)[None, :])
    return float(lo[0]), float(hi[0])


def _compose(sys: CookieCutterSystem, digits: np.ndarray, x) -> np.ndarray:
    """rho_{w_1} o ... o rho_{w_n}(x) for each row w of a (count, depth) uint8
    digit matrix; x is a scalar or one value per row.  One inverse call per
    (column, branch) on the rows carrying that digit; every inverse is
    elementwise, so a row gets the same bits in any batch."""
    count = digits.shape[0]
    x = np.full(count, x, dtype=float)
    for col in range(digits.shape[1] - 1, -1, -1):
        d = digits[:, col]
        nxt = np.empty(count)
        for i in range(sys.ell):
            m = d == i
            if np.any(m):
                nxt[m] = sys.branches[i].inverse(x[m])
        x = nxt
    return x


def _walk(sys: CookieCutterSystem, x, depth: int) -> np.ndarray:
    """rho_w(x_j) for every depth-n word w and start value x_j, level by
    level; index i * len(x) + j holds word i in lexicographic order (first
    digit most significant) and start value j.  Every inverse is elementwise,
    so up to depth 64 each value has the bits point_of_word gives it."""
    x = np.asarray(x, dtype=float).ravel()
    for _ in range(depth):
        x = np.concatenate([br.inverse(x) for br in sys.branches])
    return x


def cylinder_bounds_many(sys: CookieCutterSystem, digits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized cylinder endpoints for a (count, depth) digit matrix.

    Non-affine systems raise InversionFailed for a cylinder shorter than
    4 * 1e-12, four times the Newton step tolerance: the lab does not resolve
    geometry that fine."""
    a = _compose(sys, digits, 0.0)
    b = _compose(sys, digits, 1.0)
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    if not sys.is_affine and np.any(hi - lo < 4.0 * _INVERT_TOL):
        raise InversionFailed(
            f"cylinder shorter than the inverse-branch resolution {4.0 * _INVERT_TOL:g}")
    return lo, hi


def point_of_word(sys: CookieCutterSystem, digits: np.ndarray, t=0.5) -> np.ndarray:
    """rho_w(t) for each row of a (count, depth) digit matrix; only the
    leading 64 digits are composed."""
    return _compose(sys, digits[:, :_MAX_EFFECTIVE_DEPTH], t)


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
    """(ell^depth, depth) digit matrix in lexicographic order."""
    return _words_at(np.arange(ell**depth), ell, depth)


BIRKHOFF_FIELDS = ("log_abs_tau_prime", "log_lambda")


def birkhoff_sum(sys: CookieCutterSystem, field_name: str, x: float, n: int) -> float:
    """Partial sum of log|tau'| or log lambda along the orbit of x."""
    if field_name not in BIRKHOFF_FIELDS:
        raise ValueError(f"field must be one of {BIRKHOFF_FIELDS}")
    _, points = _orbit_of(sys, x, n)
    if field_name == "log_abs_tau_prime":
        terms = sys.log_abs_tau_prime(points)
    else:
        terms = sys.log_lam(points)
    total = 0.0
    for term in terms.tolist():  # left to right: np.sum adds pairwise
        total += term
    return total


def birkhoff_sums_from_digits(sys: CookieCutterSystem, digits: np.ndarray):
    """(S_n log|tau'|, S_n log lambda) per row, evaluated at the branch level.

    Exact for affine systems with branch-constant lambda, where both
    observables depend only on the digit; the bulk sampling paths rely on it.
    """
    if not (sys.is_affine and sys.lam.branch_constant):
        raise NotBranchConstant("digit-level Birkhoff sums need branch-constant observables")
    log_tp = np.log(np.abs(np.array([b.slope for b in sys.branches])))
    log_lm = np.log(sys.lam.branch_values(sys.ell))
    d = np.asarray(digits)
    if d.ndim != 2 or not d.flags.c_contiguous:
        return log_tp[d].sum(axis=-1), log_lm[d].sum(axis=-1)
    # Row blocks bound the gathered temporaries.  numpy reduces each
    # contiguous row on its own in pairwise order, so the blocks keep the bits.
    u, v = np.empty(len(d)), np.empty(len(d))
    for r in range(0, len(d), _BIRKHOFF_ROWS):
        block = d[r:r + _BIRKHOFF_ROWS]
        log_tp[block].sum(axis=-1, out=u[r:r + _BIRKHOFF_ROWS])
        log_lm[block].sum(axis=-1, out=v[r:r + _BIRKHOFF_ROWS])
    return u, v
