"""The benchmark's workloads: which lab calls each runs, the work each call
counts and the checks its outputs must pass.

Every op drives the lab through a public entry point: ``wtf_lab.cli.main``
(one call per CLI invocation, each with a fresh ``--out`` directory) or
``wtf_lab.verify.run_battery([cid])`` (a fresh ``BatteryContext`` per
criterion).  Checks compare against references computed here from the model
definitions (the Moran closed forms for affine systems), against the
tolerances the acceptance battery states, or against exact identities.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path

# Branch contraction ratios r_i = 1/|tau_i'| and weights lambda_i of the
# bundled models (see src/wtf_lab/models.py).  M5 is a nonlinear full-branch
# map with constant lambda, so only its lambda-only quantities are closed form.
AFFINE = {
    "M1": ((0.5, 0.5), (0.7, 0.7)),
    "M2": ((0.35, 0.35), (0.45, 0.45)),
    "M3": ((0.3, 0.45), (0.4, 0.7)),
    "M4": ((0.35, 0.35), (math.sqrt(0.35), math.sqrt(0.35))),
}
LAMBDAS = {name: lam for name, (_, lam) in AFFINE.items()} | {"M5": (0.7, 0.7)}
MODELS = ("M1", "M2", "M3", "M4", "M5")
FULL_BRANCH = {"M1", "M5"}
M5_S1 = 1.4831  # box-dimension target for M5 clouds, as the acceptance spec states it
G_SUP = 1.0  # every bundled model uses g = cos 2 pi x

# Ops that fail at the commit that defined this benchmark, with the exception
# they end in.  They count as not done in ok_frac; if one starts to succeed
# its result is checked like any other, and any other outcome is a failure.
KNOWN_REFUSALS = {
    "holder.M2": "NotInPartition",
    "holder.M3": "NotInPartition",
    "holder.M4": "NotInPartition",
}

HOLDER_AGREEMENT_TOL = 0.03  # battery criterion 9(c): |birkhoff - oscillation|


def _bisect(f, lo=-50.0, hi=50.0) -> float:
    """Root of a decreasing function on [lo, hi]."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def moran_a_q(model: str, q: float) -> float:
    """A with sum_i lambda_i^q r_i^A = 1 (affine, branch-constant)."""
    r, lam = AFFINE[model]
    return _bisect(lambda a: sum(li**q * ri**a for ri, li in zip(r, lam)) - 1.0)


def moran_alpha(model: str, q: float) -> float:
    """alpha(q) = -dA/dq of the Moran equation."""
    r, lam = AFFINE[model]
    a = moran_a_q(model, q)
    p = [ri**a * li**q for ri, li in zip(r, lam)]
    return (sum(pi * math.log(li) for pi, li in zip(p, lam))
            / sum(pi * math.log(ri) for pi, ri in zip(p, r)))


def moran_s1(model: str) -> float:
    """Graph box dimension: sum_i lambda_i r_i^(s-1) = 1."""
    r, lam = AFFINE[model]
    return 1.0 + _bisect(lambda t: sum(li * ri**t for ri, li in zip(r, lam)) - 1.0)


def s2_closed(model: str) -> float:
    """Hausdorff cap: sum_i lambda_i^s = 1."""
    lam = LAMBDAS[model]
    return _bisect(lambda s: sum(li**s for li in lam) - 1.0, 0.0, 300.0)


def branch_exponents(model: str) -> list[float]:
    r, lam = AFFINE[model]
    return [math.log(li) / math.log(ri) for ri, li in zip(r, lam)]


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------

@dataclass
class Verdict:
    """Numeric checks (|value - ref| / tol) and pass/fail conditions of one op."""

    errs: list = field(default_factory=list)
    problems: list = field(default_factory=list)
    gates: list = field(default_factory=list)  # criterion failed only its wall-clock gate

    def within(self, label: str, value: float, ref: float, tol: float) -> None:
        value = float(value)
        err = abs(value - ref) / tol if math.isfinite(value) else math.inf
        self.errs.append((label, err))
        if not err <= 1.0:
            self.problems.append(f"{label} = {value:.10g}, want {ref:.10g} +- {tol:g}")

    def require(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)


@dataclass
class Op:
    name: str
    work: int                   # work units credited when the op passes
    command: str | None = None  # CLI command, or None for a battery criterion
    config: dict | None = None
    seeded: bool = False        # pass the benchmark seed as --seed
    criterion: str | None = None
    check: object = None        # check(op, outcome, verdict)


# ---------------------------------------------------------------------------
# CLI checks
# ---------------------------------------------------------------------------

def read_report(out_dir: Path) -> dict:
    return json.loads((out_dir / "report.json").read_text())


def _csv_rows(path: Path) -> list[list[str]]:
    lines = path.read_text().splitlines()
    return [line.split(",") for line in lines[1:]]


def _exact_text(text: str) -> bool:
    """The CSV writer's 17-significant-digit text reads back to the same bits."""
    value = float(text)
    return f"{value:.17g}" == text and float(f"{value:.17g}") == value


def check_sample(op, out_dir, v: Verdict, points: int, stride: int) -> None:
    rep = read_report(out_dir)
    v.require(rep["outputs"].get("points") == points, f"points {rep['outputs'].get('points')} != {points}")
    data = (out_dir / "cloud.csv").read_bytes().split(b"\n")
    v.require(data[0] == b"x,y", "cloud.csv header is not x,y")
    rows = data[1:-1] if data[-1] == b"" else data[1:]
    v.require(len(rows) == points, f"cloud.csv has {len(rows)} rows, want {points}")
    bound = G_SUP / (1.0 - max(LAMBDAS[op.config["model"]]))
    bad_text = bad_x = 0
    worst_y = 0.0
    for i in range(0, len(rows), stride):
        xs, ys = rows[i].decode().split(",")
        bad_text += not (_exact_text(xs) and _exact_text(ys))
        bad_x += float(xs) != i / points
        worst_y = max(worst_y, abs(float(ys)))
    v.require(bad_text == 0, f"{bad_text} sampled rows do not round-trip bit-exactly")
    v.require(bad_x == 0, f"{bad_x} sampled x values are off the grid i/{points}")
    v.require(worst_y <= bound, f"|W| reaches {worst_y:.6g} > series bound {bound:.6g}")


def check_boxdim(op, out_dir, v: Verdict, ref: float, tol: float) -> None:
    out = read_report(out_dir)["outputs"]
    v.within(f"{op.name} slope", out["slope"], ref, tol)
    counts = out["counts"]
    v.require(all(a <= b for a, b in zip(counts, counts[1:])), "box counts not monotone in scale")


def check_holder(op, out_dir, v: Verdict, rows_expected: int) -> None:
    model = op.config["model"]
    rows = [[float(c) for c in row] for row in _csv_rows(out_dir / "holder.csv")]
    v.require(len(rows) == rows_expected, f"holder.csv has {len(rows)} rows, want {rows_expected}")
    if not rows:
        return
    birk = [r[1] for r in rows]
    osc = [r[2] for r in rows]
    v.require(all(0.0 < b < 1.0 for b in birk), "Birkhoff exponent outside (0, 1)")
    v.require(all(0.0 < o <= 1.0 for o in osc), "oscillation exponent outside (0, 1]")
    if model in AFFINE and len(set(AFFINE[model][0])) == 1 and len(set(AFFINE[model][1])) == 1:
        # one ratio and one lambda: every point has the same exponent
        exact = branch_exponents(model)[0]
        v.within(f"{op.name} birkhoff", max(birk, key=lambda b: abs(b - exact)), exact, 1e-9)
    v.within(f"{op.name} mean oscillation", sum(osc) / len(osc), sum(birk) / len(birk),
             HOLDER_AGREEMENT_TOL)


def check_validate(op, out_dir, v: Verdict) -> None:
    out = read_report(out_dir)["outputs"]
    model = op.config["model"]
    v.require(out["branch_count"] == 2, "branch_count != 2")
    v.require(out["full_branch"] == (model in FULL_BRANCH), f"full_branch = {out['full_branch']}")
    v.require(out["hyperbolicity_margin"] > 1.0, "hyperbolicity margin <= 1")
    v.within(f"{op.name} lambda_sup", out["lambda_sup"], max(LAMBDAS[model]), 1e-12)


def check_predict(op, out_dir, v: Verdict) -> None:
    out = read_report(out_dir)["outputs"]
    model = op.config["model"]
    s1, s2 = out["s1"], out["s2"]
    if model in AFFINE:
        v.within(f"{op.name} s1", s1, moran_s1(model), 1e-6)
    else:
        v.require(1.0 < s1 < 2.0, f"s1 = {s1} outside (1, 2)")
    v.within(f"{op.name} s2", s2, s2_closed(model), 1e-6)
    v.require(out["box_dim"] == s1, "box_dim != s1")
    v.require(out["hausdorff_upper"] == min(s1, s2), "hausdorff_upper != min(s1, s2)")


def check_spectrum(op, out_dir, v: Verdict) -> None:
    out = read_report(out_dir)["outputs"]
    model = op.config["model"]
    rows = _csv_rows(out_dir / "spectrum.csv")
    v.require(len(rows) == op.config.get("q_steps", 25), f"spectrum.csv has {len(rows)} rows")
    for q, a_q, alpha, dim in ([float(c) for c in row] for row in rows):
        v.require(abs(dim - (q * alpha + a_q)) <= 1e-12 * max(1.0, abs(dim)), f"D != q alpha + A_q at q={q}")
    if model not in AFFINE:
        v.require(out["alpha_min"] <= out["alpha_c"] <= out["alpha_max"], "alpha_c outside [alpha_min, alpha_max]")
        return
    exps = branch_exponents(model)
    degenerate = max(exps) - min(exps) < 1e-4
    v.require(out["degenerate_flag"] == degenerate, f"degenerate_flag = {out['degenerate_flag']}")
    v.within(f"{op.name} alpha_min", out["alpha_min"], min(exps), 1e-4)
    v.within(f"{op.name} alpha_max", out["alpha_max"], max(exps), 1e-4)
    v.within(f"{op.name} alpha_c", out["alpha_c"], moran_alpha(model, 0.0), 1e-6 if degenerate else 1e-3)


def _check_gibbs_identity(v: Verdict, label: str, model: str, q: float, dim: float, alpha: float) -> None:
    """Battery criterion 6 tolerances: dim = q alpha + A_q, alpha = alpha(q)."""
    if model in AFFINE:
        v.within(f"{label} alpha", alpha, moran_alpha(model, q), 1e-3)
        v.within(f"{label} dim", dim, q * moran_alpha(model, q) + moran_a_q(model, q), 2e-3)


def check_gibbs(op, out_dir, v: Verdict) -> None:
    out = read_report(out_dir)["outputs"]
    model, q = op.config["model"], op.config["q"]
    count, depth = op.config.get("count", 10000), op.config.get("depth", 50)
    rows = _csv_rows(out_dir / "gibbs.csv")
    v.require(len(rows) == count, f"gibbs.csv has {len(rows)} rows, want {count}")
    v.require(all(len(w) == depth and set(w) <= {"0", "1"} and 0.0 <= float(x) <= 1.0 for w, x in rows),
              "gibbs.csv has malformed words or points")
    v.within(f"{op.name} dim = h/chi", out["dim"], out["entropy"] / out["lyapunov"], 1e-12)
    _check_gibbs_identity(v, op.name, model, q, out["dim"], out["alpha"])


def check_lift(op, out_dir, v: Verdict) -> None:
    model = op.config["model"]
    rows = [[float(c) for c in row] for row in _csv_rows(out_dir / "lift.csv")]
    v.require(len(rows) == 5, f"lift.csv has {len(rows)} rows, want 5")
    for q, dim, alpha, lifted, jin in rows:
        v.within(f"{op.name} lift - jin at q={q:g}", lifted, jin, 1e-6)
        _check_gibbs_identity(v, f"{op.name} q={q:g}", model, q, dim, alpha)


# ---------------------------------------------------------------------------
# battery criteria: PASS flag plus the numbers their detail line states
# ---------------------------------------------------------------------------

_NUM = r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)"


def _tol_rule(m):
    return "deviation", float(m[1]), 0.0, float(m[2])


# criterion -> [(regex, matches expected, match -> (label, value, ref, tol))]
DETAIL_RULES = {
    "pressure_oracle": [(rf"= {_NUM} \(tol {_NUM}\)", 1, _tol_rule)],
    "bowen_roots": [],  # 7-digit detail; predict.M* checks the roots at full precision
    "nonlinear_pressure": [(rf"\|P\| = {_NUM} \(tol {_NUM}\)", 1, lambda m: ("|P|", float(m[1]), 0.0, float(m[2])))],
    "spectrum": [
        (rf"M3 alpha_min {_NUM}", 1, lambda m: ("M3 alpha_min", float(m[1]), min(branch_exponents("M3")), 1e-4)),
        (rf"alpha_max {_NUM}", 1, lambda m: ("M3 alpha_max", float(m[1]), max(branch_exponents("M3")), 1e-4)),
        (rf"D\(alpha_c\)-A0 {_NUM}", 1, lambda m: ("D(alpha_c) - A0", float(m[1]), 0.0, 1e-3)),
        (rf"D'\(alpha_c\) {_NUM}", 1, lambda m: ("D'(alpha_c)", float(m[1]), 0.0, 1e-2)),
    ],
    "gibbs_chain": [(rf"= {_NUM} \(tol {_NUM}\)", 3, _tol_rule)],
    "lifted_predictor": [(rf"= {_NUM} \(tol {_NUM}\)", 1, _tol_rule)],
    "lifted_probe": [(rf"slope {_NUM} \(band \[{_NUM}, {_NUM}\]", 2,
                      lambda m: ("correlation slope", float(m[1]), (float(m[2]) + float(m[3])) / 2,
                                 (float(m[3]) - float(m[2])) / 2))],
    "oscillation_holder": [
        (rf"(M\d) band \[{_NUM}, {_NUM}\] width {_NUM} \(cap {_NUM}\)", 3,
         lambda m: (f"{m[1]} band width", float(m[4]), 0.0, float(m[5]))),
        (rf"<= {_NUM} \(tol {_NUM}\)", 1, lambda m: ("skew invariance", float(m[1]), 0.0, float(m[2]))),
        (rf"(M\d) agreement {_NUM}", 4,
         lambda m: (f"{m[1]} estimator agreement", float(m[2]), 0.0, HOLDER_AGREEMENT_TOL)),
        (rf"Cauchy gap {_NUM} \(tol {_NUM}\)", 1, lambda m: ("gap smoothness", float(m[1]), 0.0, float(m[2]))),
    ],
}


_WALL_GATE = rf"elapsed {_NUM}s \(< {_NUM}s\)"


def check_criterion(op, result, v: Verdict) -> None:
    before = len(v.problems)
    for pattern, expected, rule in DETAIL_RULES[op.criterion]:
        matches = list(re.finditer(pattern, result.detail))
        v.require(len(matches) == expected,
                  f"detail has {len(matches)} matches of {pattern!r}, want {expected}")
        for m in matches:
            label, value, ref, tol = rule(m)
            v.within(f"{op.criterion}: {label}", value, ref, tol)
    if result.passed:
        return
    gates = [m for m in re.finditer(_WALL_GATE, result.detail) if float(m[1]) >= float(m[2])]
    if gates and len(v.problems) == before:
        v.gates.append(f"criterion FAIL on its wall-clock gate only: {result.detail}")
    else:
        v.problems.append(f"criterion FAIL: {result.detail}")


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def _criterion(cid: str, work: int = 1) -> Op:
    return Op(f"verify.{cid}", work, criterion=cid, check=check_criterion)


def cloud(work_dir: str, tiny: bool) -> list[Op]:
    """A few huge batches: bulk tau and series evaluation, box counting and
    the CSV round trip; theta = 0 except for the seeded cloud."""
    depth, per = (12, 4) if tiny else (17, 4)
    n = 2**depth * per
    stride = 1 if tiny else 16
    scales = {"min_scale_exp": 2, "max_scale_exp": 8} if tiny else {}
    ops = []
    for model, ref in (("M1", moran_s1("M1")), ("M5", M5_S1)):
        ops.append(Op(f"sample.{model}", n, "sample", {"model": model, "depth": depth, "per_cylinder": per},
                      check=lambda op, out, v: check_sample(op, out, v, n, stride)))
        ops.append(Op(f"boxdim.{model}", n, "boxdim",
                      {"cloud_csv_in": f"{work_dir}/sample.{model}/cloud.csv", **scales},
                      check=lambda op, out, v, ref=ref: check_boxdim(op, out, v, ref, 0.05)))
    rdepth = depth - 1
    ops.append(Op("boxdim.M2r", 2 * 2**rdepth * per, "boxdim",
                  {"model": "M2", "depth": rdepth, "per_cylinder": per, "restrict_to_repeller": True, **scales},
                  check=lambda op, out, v: check_boxdim(op, out, v, moran_s1("M2"), 0.07)))
    ops.append(Op("sample.M1s", n, "sample", {"model": "M1", "depth": depth, "per_cylinder": per},
                  seeded=True, check=lambda op, out, v: check_sample(op, out, v, n, stride)))
    return ops


def holder(work_dir: str, tiny: bool) -> list[Op]:
    """Scalar itinerary coding, inverse-branch composition over digit
    matrices and the M5 Newton inverse, in small batches."""
    ops = [] if tiny else [_criterion("oscillation_holder", work=800)]
    for model in MODELS:
        config = {"model": model}
        if model in ("M1", "M5") and tiny:
            config["point_count"] = 3
        elif model == "M5":
            config["point_count"] = 10
        rows = config.get("point_count", 50)
        ops.append(Op(f"holder.{model}", 2 * rows, "holder", config, seeded=True,
                      check=lambda op, out, v, rows=rows: check_holder(op, out, v, rows)))
    return ops


def predict(work_dir: str, tiny: bool) -> list[Op]:
    """Many small thermodynamic problems, each a separate CLI invocation or
    battery criterion, so per-call overhead counts."""
    ops = []
    for model in MODELS:
        base = {"model": model}
        ops += [
            Op(f"validate.{model}", 1, "validate", base, seeded=True, check=check_validate),
            Op(f"predict.{model}", 1, "predict", base, seeded=True, check=check_predict),
            Op(f"spectrum.{model}", 1, "spectrum", base | ({"q_steps": 5} if tiny else {}),
               seeded=True, check=check_spectrum),
            Op(f"gibbs.{model}", 1, "gibbs", base | {"q": 1.0} | ({"count": 200} if tiny else {}),
               seeded=True, check=check_gibbs),
            Op(f"lift.{model}", 1, "lift", base, seeded=True, check=check_lift),
        ]
    cids = ["pressure_oracle", "bowen_roots", "nonlinear_pressure", "lifted_predictor"]
    if not tiny:
        cids += ["spectrum", "gibbs_chain", "lifted_probe"]
    return ops + [_criterion(cid) for cid in cids]


WORKLOADS = {"cloud": cloud, "holder": holder, "predict": predict}
