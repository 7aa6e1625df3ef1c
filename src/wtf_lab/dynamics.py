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
from functools import cached_property, lru_cache

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
_CHEBYSHEV_SIZES = (16, 32)  # node counts of the coarse and the fine transfer operator
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

    @cached_property
    def _image(self) -> tuple[float, float]:
        """(f(lo), f(hi)): the ends of the branch image before the index shift."""
        return float(self._f(self.lo)), float(self._f(self.hi))

    def inverse(self, y):
        """The root of f(x) = y + index, each element on its own.  A target
        strictly inside the branch image takes one Newton step x = x0 - s from
        the seed x0 of _inverse_seed; x is kept where Newton's bound on its
        error, K (r s)^2 (see _inverse_seed), is at most half an ulp of x.
        A target at or past an image end gives that end, as in
        _invert_increasing; every other element is solved by it, with its
        bits.  InversionFailed for a target that is not finite."""
        y = np.asarray(y, dtype=float)
        target = y + float(self.index)
        if not np.isfinite(target).all():
            raise InversionFailed("inverse branch target is not finite")
        f_lo, f_hi = self._image
        t = target.ravel()
        x = np.where(t <= f_lo, self.lo, self.hi)  # the image ends; the rest is overwritten
        rest = (t > f_lo) & (t < f_hi)  # elements left to _invert_increasing
        seed = _inverse_seed(self)
        if seed is not None:
            center, scale, coefficients, bound = seed
            live = np.flatnonzero(rest)
            x0 = _clenshaw(coefficients, (t[live] - center) * scale)
            # f(x0) - (y + index) with the nearly equal terms first: ell x0 -
            # index - y cancels almost exactly, so neither the rounding of
            # y + index nor that of f(x0) near it enters the step
            residual = (self.ell * x0 - self.index - y.ravel()[live]
                        + self.eps * np.sin(2.0 * math.pi * x0))
            s = residual / self.derivative(x0)
            xl = x0 - s
            ok = bound * (s * s) <= _HALF_ULP * np.abs(xl)
            kept = live[ok]
            x[kept] = xl[ok]
            rest[kept] = False
        if rest.any():
            x[rest] = _invert_increasing(self._f, self.derivative, t[rest], self.lo, self.hi,
                                         f_lo, f_hi)
        return np.clip(x.reshape(target.shape), self.lo, self.hi)


_SEED_DEGREES = range(8, 65, 4)  # Chebyshev degrees tried for the inverse seed
_SEED_TOL = 1e-9  # largest seed error on the check grid that a degree may leave
_HALF_ULP = 2.0**-54  # a lower bound on half an ulp of x, relative to |x|


def _clenshaw(coefficients, u):
    """sum_j c_j T_j(u) by Clenshaw's recurrence, elementwise."""
    u2 = u + u
    b1, b2 = np.full_like(u, coefficients[-1]), np.zeros_like(u)
    for c in coefficients[-2:0:-1]:
        b1, b2 = u2 * b1 - b2 + c, b1
    return u * b1 - b2 + coefficients[0]


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

    @cached_property
    def _affine_coefficients(self) -> tuple[np.ndarray, np.ndarray]:
        return (np.array([b.slope for b in self.branches]),
                np.array([b.offset for b in self.branches]))

    @cached_property
    def branch_logs(self) -> tuple[np.ndarray, np.ndarray]:
        """(log|tau_i'|, log lambda_i); 0 for an observable not constant on branches."""
        zeros = np.zeros(self.ell)
        return (np.log(np.abs(self._affine_coefficients[0])) if self.is_affine else zeros,
                np.log(self.lam.branch_values(self.ell)) if self.lam.branch_constant else zeros)

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

    def log_abs_tau_prime(self, x):
        x = np.asarray(x, dtype=float)
        out = np.full_like(x, np.nan)
        idx = self.nearest_branch(x).reshape(x.shape)  # 0-d for a scalar x
        for i, br in enumerate(self.branches):
            m = idx == i
            out[m] = br.derivative(x[m])
        return np.log(np.abs(out))

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
    def transfer_nodes(self) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
        """Transfer-operator data at N = 16 and N = 32 Chebyshev nodes x_j of
        [0,1] (first kind, so no node is an end): per N, (B, U, V) with B[i]
        the barycentric interpolation matrix taking f(x_k) to f(rho_i x_j),
        and U[i, j], V[i, j] log|tau'| and log lambda at rho_i x_j."""
        out = []
        for n in _CHEBYSHEV_SIZES:
            angle = (2 * np.arange(n) + 1) * (math.pi / (2 * n))
            x = 0.5 - 0.5 * np.cos(angle)
            y = np.stack([br.inverse(x) for br in self.branches])
            with np.errstate(divide="ignore", invalid="ignore"):
                b = (-1.0) ** np.arange(n) * np.sin(angle) / (y[:, :, None] - x)
                b /= b.sum(axis=2, keepdims=True)
            u = np.log(np.abs([br.derivative(yi) for br, yi in zip(self.branches, y)]))
            # a rho_i x_j on a node x_k reads inf / inf = NaN at k and 0 elsewhere
            out.append((np.nan_to_num(b, nan=1.0), u, self.log_lam(y)))
        return tuple(out)

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


def _compose(sys: CookieCutterSystem, digits: np.ndarray, x, step=None) -> np.ndarray:
    """rho_{w_1} o ... o rho_{w_n}(x) for each row w of a (count, depth) uint8
    digit matrix; x is a scalar or one value per row; ``step(k, u)`` sees the
    values after each column k, last first.  One inverse call per (column,
    branch) on the rows carrying that digit; every inverse is elementwise, so
    a row gets the same bits in any batch."""
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
        if step is not None:
            step(col, x)
    return x


def _walk(sys: CookieCutterSystem, x, depth: int, step=None) -> np.ndarray:
    """rho_w(x_j) for every depth-n word w and start value x_j, level by
    level; index i * len(x) + j holds word i in lexicographic order (first
    digit most significant) and start value j.  ``step(k, u)`` sees the
    values after the level of digit column k, last column first, as in
    _compose.  Every inverse is elementwise, so up to depth 64 each value has
    the bits point_of_word gives it."""
    x = np.asarray(x, dtype=float).ravel()
    for col in range(depth - 1, -1, -1):
        x = np.concatenate([br.inverse(x) for br in sys.branches])
        if step is not None:
            step(col, x)
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
    sums = _birkhoff_sums(sys, [x], n)
    return float(sums[BIRKHOFF_FIELDS.index(field_name)][0])


def _birkhoff_sums(sys: CookieCutterSystem, xs, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(S_n log|tau'|, S_n log lambda) along the orbit of each point of xs,
    from one orbit walk; both sums add their terms left to right (np.sum
    adds pairwise).  NotInPartition(k) for the first point, in the order of
    xs, whose iterate k leaves the partition."""
    _, points, left = _orbit(sys, xs, n)
    out = np.flatnonzero(left < n)
    if out.size:
        raise NotInPartition(int(left[out[0]]))
    log_tp, log_lam = sys.log_abs_tau_prime(points), sys.log_lam(points)
    u, v = np.zeros(len(points)), np.zeros(len(points))
    for k in range(n):
        u += log_tp[:, k]
        v += log_lam[:, k]
    return u, v


def birkhoff_sums_from_digits(sys: CookieCutterSystem, digits: np.ndarray):
    """(S_n log|tau'|, S_n log lambda) per row, evaluated at the branch level.

    Exact for affine systems with branch-constant lambda, where both
    observables depend only on the digit; the bulk sampling paths rely on it.
    """
    if not (sys.is_affine and sys.lam.branch_constant):
        raise NotBranchConstant("digit-level Birkhoff sums need branch-constant observables")
    log_tp, log_lm = sys.branch_logs
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
