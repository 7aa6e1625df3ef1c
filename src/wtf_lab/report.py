"""Run reports: deterministic JSON artifacts plus wall-clock timings, and the
CSV writer every command uses.

report.json is byte-identical across reruns with the same config and seeds,
so wall times stay out of the file (they are printed to stderr instead).
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import dataclass, field
from itertools import chain, islice
from pathlib import Path

import numpy as np


def write_csv(path, header, rows) -> None:
    """The one CSV format of the lab: a header line of column names, then one
    line per row; numbers with 17 significant digits (they round-trip
    float64 exactly), strings as given, commas between, LF line endings.
    rows is an iterable of row tuples or a 2-D array, and every row has the
    column types of the first.  One % formats a block of rows at a time.
    Creates the parent directory."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    block = 1024  # rows per % call
    if isinstance(rows, np.ndarray):
        blocks = (rows[r:r + block].tolist() for r in range(0, len(rows), block))
    else:
        rows = iter(rows)
        blocks = iter(lambda: list(islice(rows, block)), [])
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        line = None
        for chunk in blocks:
            if line is None:
                line = ",".join("%s" if isinstance(v, str) else "%.17g" for v in chunk[0]) + "\n"
            fh.write(line * len(chunk) % tuple(chain.from_iterable(chunk)))


def config_hash(config: dict) -> str:
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


@dataclass
class RunReport:
    command: str
    config: dict
    version: str
    outputs: dict = field(default_factory=dict)
    warnings: list = field(default_factory=list)
    timings: dict = field(default_factory=dict)
    status: str = "ok"
    error: dict | None = None

    def to_json(self) -> str:
        doc = {
            "tool": "wtf-lab",
            "version": self.version,
            "command": self.command,
            "config_hash": config_hash(self.config),
            "inputs": self.config,
            "outputs": self.outputs,
            "warnings": self.warnings,
            "status": self.status,
        }
        if self.error is not None:
            doc["error"] = self.error
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"

    def write(self, out_dir) -> Path:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        path = out / "report.json"
        with open(path, "w", newline="\n") as fh:
            fh.write(self.to_json())
        for name, seconds in self.timings.items():
            print(f"[wtf-lab] {self.command}:{name} took {seconds:.3f}s", file=sys.stderr)
        return path
