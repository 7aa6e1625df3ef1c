"""Batch front-end: wtf-lab <command> --config <path> [--out DIR] [--seed S].

One command per process; every run writes a deterministic report.json (and
any CSV outputs) into the output directory.  Exit codes: 0 ok; a lab error
exits with its class's ``exit_code`` (2 validation, 3 numerical failure, 4
budget exhausted; see errors), and any other ValueError with 2.  Any other
exception (a bug) also writes report.json with status "error" and its type
and message, then prints its traceback to stderr and exits 3;
KeyboardInterrupt and SystemExit propagate.
"""

from __future__ import annotations

import argparse
import functools
import sys as _sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .config import load_config, parse_model, parse_theta, require_int, require_list, require_number
from .dynamics import _check_budget, _words_at, point_of_word
from .errors import BadConfig, BudgetExceeded, Inconclusive, WtfLabError
from .metrics import (
    box_dimension,
    holder_birkhoff_many,
    holder_oscillation_many,
    read_cloud_csv,
    sample_graph,
    write_cloud_csv,
)
from .report import RunReport, write_csv
from .theta import counter_uniforms
from .thermo import (
    A_of_q,
    PotentialSpec,
    graph_dimension_prediction,
    gibbs_sample,
    jin_upper,
    lifted_dim_prediction,
    measure_stats,
    spectrum,
)
from .verify import run_battery


def _output_path(config, out_dir, key, default):
    """out_dir / config[key]; BadConfig unless a plain file name, so it stays in out_dir."""
    name = str(config.get(key, default))
    if name in ("", ".", "..", "report.json") or Path(name).name != name:
        raise BadConfig(f"{key!r} must be a plain file name other than report.json")
    return out_dir / name


def _cmd_validate(config, out_dir, seed, report):
    sys = parse_model(config)
    report.outputs = {
        "model_id": sys.model_id,
        "branch_count": sys.ell,
        "hyperbolicity_margin": sys.hyperbolicity_margin,
        "margin_slack": sys.margin_slack,
        "lambda_inf": sys.lambda_inf,
        "lambda_sup": sys.lambda_sup,
        "full_branch": sys.is_full,
    }
    report.warnings.extend(sys.warnings)


def _cmd_predict(config, out_dir, seed, report):
    sys = parse_model(config)
    pred = graph_dimension_prediction(sys)
    report.outputs = {
        "s1": pred.s1,
        "s2": pred.s2,
        "box_dim": pred.box_dim,
        "hausdorff_upper": pred.hausdorff_upper,
        "min_is": pred.min_is,
    }


def _sample_from_config(config, seed):
    sys = parse_model(config)
    theta = parse_theta(config, seed)
    depth = require_int(config, "depth", low=1, high=40)
    per_cylinder = require_int(config, "per_cylinder", default=1, low=1)
    tol = require_number(config, "tol", default=1e-8, low=1e-15)
    restricted = config.get("restrict_to_repeller", False)
    if not isinstance(restricted, bool):  # bool("false") is True
        raise BadConfig("'restrict_to_repeller' must be true or false")
    return sample_graph(sys, theta, depth, per_cylinder, tol, restricted)


def _cmd_sample(config, out_dir, seed, report):
    out = _output_path(config, out_dir, "cloud_csv", "cloud.csv")
    cloud = _sample_from_config(config, seed)
    write_cloud_csv(cloud, out)
    report.outputs = {
        "points": len(cloud),
        "cloud_csv": out.name,
        "provenance": cloud.provenance.to_dict(),
    }


def _cmd_boxdim(config, out_dir, seed, report):
    if "cloud_csv_in" in config:
        cloud = read_cloud_csv(config["cloud_csv_in"])
    else:
        cloud = _sample_from_config(config, seed)
    scales = require_list(config, "scales")
    if scales is not None and min(scales, default=1.0) <= 0.0:
        raise BadConfig("'scales' must be positive")
    if scales is None:
        # 2.0**-1075 is 0
        lo = require_int(config, "min_scale_exp", default=6, low=1, high=1074)
        hi = require_int(config, "max_scale_exp", default=14, low=2, high=1074)
        scales = [2.0**-k for k in range(lo, hi + 1)]
    drop = tuple(require_list(config, "window_drop", int, length=2, default=[2, 2]))
    if min(drop) < 0:
        raise BadConfig("'window_drop' entries must be >= 0")
    result = box_dimension(cloud, scales, drop=drop)
    report.outputs = {
        "slope": result.slope,
        "stderr": result.stderr,
        "r2": result.r2,
        "scales": list(result.scales),
        "counts": list(result.counts),
        "scale_window": list(result.scale_window),
    }
    report.warnings.extend(result.warnings)


def _cmd_holder(config, out_dir, seed, report):
    out = _output_path(config, out_dir, "holder_csv", "holder.csv")
    sys = parse_model(config)
    theta = parse_theta(config, seed)
    depth = require_int(config, "birkhoff_depth", default=30, low=1)
    lo = require_int(config, "osc_depth_min", default=2, low=1)
    hi = require_int(config, "osc_depth_max", default=20, low=2)
    probes = require_int(config, "probes", default=128, low=2)
    tol = require_number(config, "tol", default=1e-12, low=1e-16)
    points = require_list(config, "points")
    if points == []:
        raise BadConfig("'points' must not be empty")
    if points is None:  # count evenly spaced words of depth n, each at a seeded uniform
        n = require_int(config, "point_depth", default=12, low=1)
        count = require_int(config, "point_count", default=50, low=1)
        if n > 63 or sys.ell**n > np.iinfo(np.int64).max:  # before the power is formed
            raise BudgetExceeded(f"{sys.ell}**{n} words pass the int64 word index")
        _check_budget(min(count, total := sys.ell**n) * n)  # the digits of the words formed
        rows = np.arange(0, total, max(1, total // count))[:count]
        u = counter_uniforms(seed if seed is not None else 7, rows, stream=n)
        points = point_of_word(sys, _words_at(rows, sys.ell, n), u)
    # Errors: every point's Birkhoff walk first, then the depths in order.
    xs = np.asarray(points, dtype=float)
    bv = holder_birkhoff_many(sys, xs, depth)
    ov = holder_oscillation_many(sys, xs, theta, range(lo, hi + 1), probes, tol)
    write_csv(out, ("x", "birkhoff", "oscillation"), (xs, bv, ov))
    report.outputs = {
        "holder_csv": out.name,
        "points": len(xs),
        "birkhoff_mean": float(np.mean(bv)),
        "oscillation_mean": float(np.mean(ov)),
    }


def _cmd_spectrum(config, out_dir, seed, report):
    out = _output_path(config, out_dir, "spectrum_csv", "spectrum.csv")
    sys = parse_model(config)
    grid = require_list(config, "q_grid")
    if grid is None:
        q_min = require_number(config, "q_min", default=-3.0)
        q_max = require_number(config, "q_max", default=3.0)
        steps = require_int(config, "q_steps", default=25, low=2)
        _check_budget(steps)
        grid = list(np.linspace(q_min, q_max, steps))
    curve = spectrum(sys, grid)
    write_csv(out, ("q", "A_q", "alpha", "D"), curve.as_arrays())
    report.outputs = {
        "spectrum_csv": out.name,
        "alpha_min": curve.alpha_min,
        "alpha_max": curve.alpha_max,
        "alpha_c": curve.alpha_c,
        "degenerate_flag": curve.degenerate_flag,
    }
    report.warnings.extend(curve.warnings)


def _pot_from_config(sys, config) -> PotentialSpec:
    if "q" in config:
        q = require_number(config, "q")
        return PotentialSpec(-A_of_q(sys, q), q)
    a = require_number(config, "pot_a", default=0.0)
    b = require_number(config, "pot_b", default=0.0)
    c = require_number(config, "pot_c", default=0.0)
    return PotentialSpec(a, b, c)


def _cmd_gibbs(config, out_dir, seed, report):
    out = _output_path(config, out_dir, "sample_csv", "gibbs.csv")
    sys = parse_model(config)
    pot = _pot_from_config(sys, config)
    depth = require_int(config, "depth", default=50, low=1)
    count = require_int(config, "count", default=10000, low=1)
    sample_seed = seed if seed is not None else require_int(config, "seed", default=1)
    digits, xs = gibbs_sample(sys, pot, depth, count, sample_seed)
    # each word as one string: every digit in decimal, zero-padded to the
    # width of ell - 1, so the words of an ell > 10 sample stay decodable
    width = len(str(sys.ell - 1))
    chars = digits[..., None] // 10 ** np.arange(width - 1, -1, -1, dtype=np.uint8) % 10 + ord("0")
    words = chars.reshape(count, -1).view(f"S{depth * width}").ravel()
    write_csv(out, ("word", "x"), (words, xs))
    stats = measure_stats(sys, pot)
    report.outputs = {
        "sample_csv": out.name,
        "count": count,
        "entropy": stats.entropy,
        "lyapunov": stats.lyapunov,
        "mean_log_lambda": stats.mean_log_lambda,
        "dim": stats.dim,
        "alpha": stats.alpha,
    }


def _cmd_lift(config, out_dir, seed, report):
    out = _output_path(config, out_dir, "lift_csv", "lift.csv")
    sys = parse_model(config)
    grid = require_list(config, "q_grid", default=[-2.0, -1.0, 0.0, 1.0, 2.0])
    qs = [float(q) for q in grid]
    stats = [measure_stats(sys, PotentialSpec(-A_of_q(sys, q), q)) for q in qs]
    write_csv(out, ("q", "dim", "alpha", "lifted_dim", "jin_upper"), (
        qs, [s.dim for s in stats], [s.alpha for s in stats],
        [lifted_dim_prediction(s) for s in stats], [jin_upper(s.dim, s.alpha) for s in stats]))
    report.outputs = {"lift_csv": out.name, "rows": len(qs)}


def _cmd_verify(config, out_dir, seed, report):
    results = run_battery(require_list(config, "criteria", str))
    all_pass = all(r.passed for r in results)
    for r in results:
        line = f"{'PASS' if r.passed else 'FAIL'} {r.criterion}: {r.detail}"
        print(line)
        report.outputs[r.criterion] = {"passed": r.passed, "detail": r.detail}
        report.timings[r.criterion] = r.elapsed
    report.outputs["all_passed"] = all_pass
    if not all_pass:
        raise Inconclusive("acceptance battery has failing criteria")


COMMANDS = {
    "validate": _cmd_validate,
    "predict": _cmd_predict,
    "sample": _cmd_sample,
    "boxdim": _cmd_boxdim,
    "holder": _cmd_holder,
    "spectrum": _cmd_spectrum,
    "gibbs": _cmd_gibbs,
    "lift": _cmd_lift,
    "verify": _cmd_verify,
}


@functools.cache  # built on first use, once per process: parsing leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wtf-lab",
        description="Weierstrass-type function laboratory over cookie-cutter maps",
    )
    parser.add_argument("--version", action="version", version=f"wtf-lab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=(name != "verify"), default=None)
        p.add_argument("--out", default=None, help="output directory (default runs/<command>)")
        p.add_argument("--seed", type=int, default=None, help="override config seeds")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out_dir = Path(args.out) if args.out else Path("runs") / args.command
    report = RunReport(command=args.command, config={}, version=__version__)
    t0 = time.perf_counter()
    error = None
    try:
        config = load_config(args.config) if args.config else {}
        report.config = config
        COMMANDS[args.command](config, out_dir, args.seed, report)
    except Exception as exc:  # KeyboardInterrupt and SystemExit propagate
        error = exc
        report.status = "error"
        report.error = {"type": type(exc).__name__, "message": str(exc)}
    report.timings["total"] = time.perf_counter() - t0
    path = report.write(out_dir)
    if error is None:
        print(f"report: {path}")
        return 0
    if not isinstance(error, (WtfLabError, ValueError)):  # a bug: keep its traceback
        import traceback  # loaded only here
        traceback.print_exception(error)
    print(f"error: {type(error).__name__}: {error}", file=_sys.stderr)
    return getattr(error, "exit_code", 2 if isinstance(error, ValueError) else 3)


if __name__ == "__main__":
    raise SystemExit(main())
