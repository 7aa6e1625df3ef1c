#!/usr/bin/env python3
"""Medians and quartiles of benchmark runs, per workload and metric.

    python3 perfbench/summarize.py [perfbench/runs/*-trace0.json ...] [--write-baseline]

Reads the run files run.py writes (default: every one in perfbench/runs/).
For each end-to-end metric it prints the median, the quartiles and their
spread (q3 - q1) / median against the metric's bound in BENCHMARK.json.
--write-baseline records the summary, the medians of the traced runs, the
environment and the output digests as perfbench/baseline.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"n": len(values), "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("files", nargs="*", type=Path)
    parser.add_argument("--write-baseline", action="store_true")
    args = parser.parse_args(argv)
    files = args.files or sorted((BENCH / "runs").glob("*-trace[01].json"))
    runs = [json.loads(p.read_text()) for p in files]

    values = {0: defaultdict(lambda: defaultdict(list)), 1: defaultdict(lambda: defaultdict(list))}
    by_seed = defaultdict(lambda: defaultdict(dict))  # workload -> key -> seed -> sha
    for run in runs:
        workload, trace, seed = run["args"]["workload"], run["args"]["trace"], run["args"]["seed"]
        for name, m in run["result"]["metrics"].items():
            values[trace][workload][name].append(m["value"])
        for key, sha in run["digests"].items():
            if by_seed[workload][key].setdefault(seed, sha) != sha:
                print(f"warning: {workload} {key} differs between runs with seed {seed}", file=sys.stderr)
    digests = defaultdict(dict)  # one digest per key, or one per seed where the seed matters
    for workload, keys in by_seed.items():
        for key, seeds in keys.items():
            if len(set(seeds.values())) == 1:
                digests[workload][key] = next(iter(seeds.values()))
            else:
                digests[workload].update({f"{key}@seed{seed}": sha for seed, sha in seeds.items()})

    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    summary = {}
    for workload, metrics in sorted(values[0].items()):
        summary[workload] = {}
        for name, vals in metrics.items():
            stats = quartiles(vals) | {"unit": units[name]}
            summary[workload][name] = stats
            flag = "" if name == "setup_s" or stats["spread"] <= bounds[name] / 3 else "  SPREAD > bound/3"
            print(f"{workload:8s} {name:12s} n={stats['n']:2d} median={stats['median']:.6g} "
                  f"q1={stats['q1']:.6g} q3={stats['q3']:.6g} spread={stats['spread']:.4f} "
                  f"bound={bounds[name]}{flag}")

    if args.write_baseline:
        traced = {w: {name: statistics.median(v) for name, v in metrics.items()}
                  for w, metrics in sorted(values[1].items())}
        baseline = {
            "environment": runs[0]["environment"],
            "end_to_end": summary,
            "per_layer": traced,
            "digests": {w: dict(sorted(d.items())) for w, d in sorted(digests.items())},
        }
        (BENCH / "baseline.json").write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
