#!/usr/bin/env python3
"""Benchmark of the wtf-lab package, run from the root of a source checkout:

    python3 perfbench/run.py --workload cloud|holder|predict --seed N \\
        --seconds S --trace 0|1 [--size full|tiny]

One process runs one workload serially: whole passes over the workload's ops
(see workloads.py) until the next pass would end past ``--seconds``, at least
one pass.  Every op's output is checked.  The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  A traced run spends half its time untraced and half traced,
so the tracing overhead is measured in the same process.  Run details
(environment, every op outcome, output digests, spans) go to perfbench/runs/.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import DETAIL_RULES, KNOWN_REFUSALS, WORKLOADS, Verdict, read_report

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUNS = BENCH / "runs"
WORK = RUNS / "work"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_REPEATS = 3
SETUP_CODE = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import wtf_lab.cli\n"
    "from wtf_lab import MODELS, validate_system\n"
    "for name in ('M1', 'M2', 'M3', 'M4', 'M5'):\n"
    "    validate_system(MODELS[name])\n"
    "print(repr(time.perf_counter() - t0))\n"
)


def cap_threads() -> int:
    """Cap BLAS/OpenMP pools at the cores this process may use."""
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    for var in THREAD_VARS:
        cur = os.environ.get(var, "")
        if not cur.isdigit() or not 0 < int(cur) <= nproc:
            os.environ[var] = str(nproc)
    return nproc


def _read(path: str) -> str | None:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def environment(seed: int, nproc: int) -> dict:
    import numpy
    import scipy

    cpu_model = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (_read(str(index / f)) for f in ("level", "type", "size"))
        if level and size:
            caches[f"L{level} {kind}"] = size
    git_sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        git_sha = proc.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "wtf_lab").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "seed": seed,
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": git_sha,
        "src_sha256": src.hexdigest(),
        "cpu_model": cpu_model,
        "caches": caches,
        "loadavg_start": list(os.getloadavg()),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def measure_setup() -> float:
    """Median over fresh processes of importing the CLI and validating M1-M5."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed: {proc.stderr.strip()[-500:]}")
        times.append(float(proc.stdout.split()[-1]))
    return statistics.median(times)


class Runner:
    """Runs a workload's ops, checks them and keeps one record per op run."""

    def __init__(self, workload: str, seed: int, tiny: bool):
        import wtf_lab.cli
        from wtf_lab.verify import run_battery

        self.cli_main, self.run_battery = wtf_lab.cli.main, run_battery
        self.seed = seed
        self.work = WORK / workload
        self.ops = WORKLOADS[workload](self.work.relative_to(ROOT).as_posix(), tiny)
        shutil.rmtree(self.work, ignore_errors=True)
        (self.work / "cfg").mkdir(parents=True)
        for op in self.ops:
            if op.command:
                (self.work / "cfg" / f"{op.name}.json").write_text(json.dumps(op.config, sort_keys=True))
        self.records: list[dict] = []
        self.digests: dict[str, str] = {}

    def run_op(self, op, phase: str, index: int, tracer=None) -> dict:
        verdict = Verdict()
        status = "ok"
        record = {"op": op.name, "phase": phase, "pass": index}
        out_dir = self.work / op.name
        if op.command:
            shutil.rmtree(out_dir, ignore_errors=True)
            argv = [op.command, "--config", str((self.work / "cfg" / f"{op.name}.json").relative_to(ROOT)),
                    "--out", str(out_dir.relative_to(ROOT))]
            if op.seeded:
                argv += ["--seed", str(self.seed)]
            sink = io.StringIO()
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    rc = tracer.span("cli.main", self.cli_main, argv) if tracer else self.cli_main(argv)
            except Exception as exc:  # an escaped exception is a failed op, not a crashed run
                rc = None
                verdict.problems.append(f"raised {type(exc).__name__}: {exc}")
            record["t0"], record["t1"] = t0, time.perf_counter()
            record["exit"] = rc
            files = sorted(p for p in out_dir.rglob("*") if p.is_file()) if out_dir.exists() else []
            record["bytes"] = sum(p.stat().st_size for p in files)
            self._digest(op, files, verdict)
            if rc == 0:
                try:
                    op.check(op, out_dir, verdict)
                except Exception as exc:  # a malformed output is a failed check
                    verdict.problems.append(f"check raised {type(exc).__name__}: {exc}")
            elif rc is not None:
                error = (read_report(out_dir).get("error") or {}) if (out_dir / "report.json").exists() else {}
                reason = f"exit {rc}: {error.get('type')}: {error.get('message')}"
                record["error"] = error.get("type")
                if KNOWN_REFUSALS.get(op.name) == error.get("type") and rc == 3:
                    status = "refused"
                    record["reason"] = reason
                else:
                    verdict.problems.append(reason)
        else:
            t0 = time.perf_counter()
            results = (tracer.span("verify.run_battery", self.run_battery, [op.criterion]) if tracer
                       else self.run_battery([op.criterion]))
            record["t0"], record["t1"] = t0, time.perf_counter()
            record["elapsed"] = results[0].elapsed
            record["detail"] = results[0].detail
            op.check(op, results[0], verdict)
            if verdict.gates and tracer:  # tracing slowed it past a gate: reported, not failed
                record["gates"] = verdict.gates
            else:
                verdict.problems += verdict.gates
        if verdict.problems:
            status = "failed"
        record["seconds"] = record["t1"] - record["t0"]
        record["status"] = status
        record["work"] = op.work if status == "ok" else 0
        record["errs"] = verdict.errs
        record["problems"] = verdict.problems
        self.records.append(record)
        return record

    def _digest(self, op, files, verdict) -> None:
        for path in files:
            key = f"{op.name}/{path.relative_to(self.work / op.name).as_posix()}"
            sha = hashlib.sha256(path.read_bytes()).hexdigest()
            if self.digests.setdefault(key, sha) != sha:
                verdict.problems.append(f"{key} differs from its first run in this process")

    def run_phase(self, phase: str, budget: float, tracer=None, probe=None) -> list[dict]:
        """Whole passes until the next one would end past the budget."""
        with probe or contextlib.nullcontext():
            self._passes(phase, budget, tracer)
        records = [r for r in self.records if r["phase"] == phase]
        for r in records:
            r["probe_s"], r["slowdown"] = probe.rescale(r["t0"], r["t1"]) if probe else (0.0, 1.0)
            r["ref_seconds"] = (r["seconds"] - r["probe_s"]) / r["slowdown"]
        return records

    def _passes(self, phase, budget, tracer) -> None:
        start = time.perf_counter()
        index = 0
        while True:
            t0 = time.perf_counter()
            for op in self.ops:
                self.run_op(op, phase, index, tracer)
            took = time.perf_counter() - t0
            if tracer:
                tracer.end_pass(took)
            if index == 0:  # later passes only add allocator slack, and their count varies
                self.first_pass_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            index += 1
            if time.perf_counter() - start + took > budget:
                break


def summarize(records: list[dict]) -> dict:
    work = sum(r["work"] for r in records)
    errs = [e for r in records for _, e in r["errs"]]
    return {
        "work_per_s": work / sum(r["ref_seconds"] for r in records),
        "raw_work_per_s": work / sum(r["seconds"] - r["probe_s"] for r in records),
        "ok_frac": sum(r["status"] == "ok" for r in records) / len(records),
        "err_ratio": min(max(errs, default=0.0), 1e6),
    }


def digest_changes(workload: str, seed: int, digests: dict) -> int:
    """Outputs whose SHA-256 differs from the one baseline.json recorded for
    them: under the plain key when it did not depend on the seed there, else
    under the key for this seed, if the baseline ran it."""
    path = BENCH / "baseline.json"
    if not path.exists():
        return 0
    recorded = json.loads(path.read_text()).get("digests", {}).get(workload, {})
    changed = 0
    for key, sha in digests.items():
        ref = recorded.get(key, recorded.get(f"{key}@seed{seed}"))
        changed += ref is not None and ref != sha
    return changed


def report_problems(records: list[dict]) -> None:
    seen = set()
    for r in records:
        if r["status"] == "failed":
            print(f"FAIL {r['op']} ({r['phase']} pass {r['pass']}): {'; '.join(r['problems'])}",
                  file=sys.stderr)
        elif r.get("gates"):
            print(f"traced {r['op']}: {'; '.join(r['gates'])}", file=sys.stderr)
        elif r["status"] == "refused" and r["op"] not in seen:
            seen.add(r["op"])
            print(f"refused (known): {r['op']}: {r['reason']}", file=sys.stderr)
    for name in KNOWN_REFUSALS:
        if any(r["op"] == name and r["status"] == "ok" for r in records):
            print(f"ledger: {name} no longer refuses and passes its checks", file=sys.stderr)


def load_lab() -> str | None:
    """Import wtf_lab from this checkout's src/; the reason if that fails."""
    os.chdir(ROOT)
    src = ROOT / "src"
    if not (src / "wtf_lab" / "__init__.py").is_file():
        return f"no wtf_lab sources under {src}"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import wtf_lab
    import wtf_lab.cli  # noqa: F401 -- the set-up every CLI call pays, outside the timed ops

    if Path(wtf_lab.__file__).resolve().parent != src / "wtf_lab":
        return f"imported wtf_lab from {wtf_lab.__file__}, not this checkout"
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["cloud", "holder", "predict"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "tiny"], default="full",
                        help="tiny shrinks every op for the smoke test")
    args = parser.parse_args(argv)

    nproc = cap_threads()
    problem = load_lab()
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    from probe import SpeedProbe
    from tracing import Tracer

    RUNS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}" + ("-tiny" if args.size == "tiny" else "")
    env = environment(args.seed, nproc)
    setup_s = None if args.trace else measure_setup()
    if args.trace:
        # one tiny pass first, so neither phase pays first-call costs alone
        Runner(args.workload, args.seed, tiny=True).run_phase("warm-up", 0.0)
    runner = Runner(args.workload, args.seed, args.size == "tiny")
    if args.trace:
        plain = summarize(runner.run_phase("untraced", args.seconds / 2))
        tracer = Tracer()
        tracer.install()
        try:
            traced_records = runner.run_phase("traced", args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
        traced = summarize(traced_records)
        passes = tracer.passes
        extra = {
            "cli.main.exit_nonzero": (sum(r.get("exit") not in (0, None) for r in traced_records
                                          if "exit" in r) / passes, "count"),
            "cli.bytes_written": (sum(r.get("bytes", 0) for r in traced_records) / passes, "bytes"),
            "cli.digest_changed": (digest_changes(args.workload, args.seed, runner.digests), "count"),
            "trace.overhead_frac": (1.0 - traced["raw_work_per_s"] / plain["raw_work_per_s"], "ratio"),
        }
        for cid in DETAIL_RULES:
            elapsed = sum(r.get("elapsed", 0.0) for r in traced_records if r["op"] == f"verify.{cid}")
            extra[f"verify.{cid}.elapsed_frac"] = (elapsed / tracer.pass_s, "ratio")
        metrics = tracer.metrics(extra)
        tracer.write_spans(RUNS / f"{stem}-spans.jsonl.gz")
    else:
        summary = summarize(runner.run_phase("untraced", args.seconds, probe=SpeedProbe()))
        metrics = {
            "setup_s": (setup_s, "s"),
            "work_per_s": (summary["work_per_s"], "1/s"),
            "peak_rss_mb": (runner.first_pass_rss_mb, "MB"),
            "ok_frac": (summary["ok_frac"], "ratio"),
            "err_ratio": (summary["err_ratio"], "ratio"),
        }
    shutil.rmtree(runner.work, ignore_errors=True)

    records = runner.records
    report_problems(records)
    failed = sum(r["status"] == "failed" for r in records)
    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    detail = {"args": vars(args), "environment": env, "result": result,
              "digests": runner.digests, "records": records}
    (RUNS / f"{stem}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
