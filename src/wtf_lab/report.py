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
from pathlib import Path

import numpy as np


# write_csv writes each numeric field as 40 bytes, five uint64 words: the
# sign, "0.000" for X < 0, then the 17 digits D0..D16 at the even offsets
# 6..38 with a "." slot after each of D0..D15, then the separator.  NUL fills
# every unused byte, and the NULs are dropped when a block is written.  For
# 1e-4 <= |x| < 1e14, X = floor(log10 of x rounded to 17 digits) is in
# [-4, 13] and the field is a table row for (sign, X, fraction or not) OR'd
# with table words for the digits.

# rows per numpy pass: writing a 2^19-row cloud at 16384 rows a block lifted
# the peak RSS of a process by 5.5 MB, at 8192 by 0.6 MB, in the same time
_BLOCK = 8192
_FIELD = 40
_U64 = np.uint64
_LOW32 = _U64(0xFFFFFFFF)
_TEN16, _TEN17 = _U64(10**16), _U64(10**17)
_POW5 = _U64(5) ** np.arange(21, dtype=np.uint64)  # 5**k for k = 16 - X in [2, 20]


def _tables():
    """(_LEAD, _GROUPS, _SKELETON) as uint64 words built from bytes.  _LEAD[d]:
    digit d at offset 6.  _GROUPS[g + 10000 * s]: the four digits of g at the
    even bytes of a word, all of them (s = 0), without trailing zeros (s = 1)
    or none (s = 2).  _SKELETON[X + 4 + 18 * dot + 36 * neg]: the bytes
    around the digits, and "0" at every integer digit, which a stripped
    digit leaves NUL."""
    lead = np.zeros((10, 8), np.uint8)
    lead[:, 6] = np.arange(48, 58)
    g = np.arange(10000, dtype=np.uint16)
    groups = np.zeros((3, 10000, 8), np.uint8)
    digits, stripped = groups[0, :, ::2], groups[1, :, ::2]
    for i, power in enumerate((1000, 100, 10, 1)):
        digits[:, i] = g // power % 10 + 48
    stripped[...] = digits
    trailing = np.ones(10000, bool)
    for i in range(3, -1, -1):
        trailing &= digits[:, i] == 48
        stripped[trailing, i] = 0
    x = np.arange(-4, 14)[:, None]
    skeleton = np.zeros((2, 2, 18, _FIELD), np.uint8)  # [neg, dot, X + 4]
    skeleton[1, ..., 0] = 45
    skeleton[..., 1:3] = (x < 0) * np.array([48, 46])
    skeleton[..., 3:6] = (np.arange(3) >= x + 4) * 48
    skeleton[..., 6:40:2] = (np.arange(17) <= x) * 48
    skeleton[:, 1, :, 7:38:2] = (np.arange(16) == x) * 46
    return (lead.view(np.uint64).ravel(), groups.view(np.uint64).ravel(),
            skeleton.reshape(-1, _FIELD).view(np.uint64))


_LEAD, _GROUPS, _SKELETON = _tables()


def _scaled(bits, x):
    """floor(a * 10**(16 - x)) and whether round-half-even goes up, for the
    positive normal floats a of the bit patterns bits.  With a = M * 2**(e -
    1075) and k = 16 - x this is M * 5**k / 2**sh, sh = 1075 - e - k; for
    1e-4 <= a < 1e14 and x at most one off floor(log10(a)), k is in [2, 20]
    and sh in [3, 46], so M * 5**k < 2**100 and the quotient is below 2**60.
    The product comes from 32-bit limbs in uint64: exact."""
    k = (16 - x).astype(np.uint64)
    m = bits & _U64(2**52 - 1) | _U64(2**52)
    sh = _U64(1075) - (bits >> _U64(52)) - k
    f = _POW5[k]
    m0, m1, f0, f1 = m & _LOW32, m >> _U64(32), f & _LOW32, f >> _U64(32)
    lo, mid = m0 * f0, m0 * f1 + m1 * f0
    low = lo + (mid << _U64(32))  # the product's low 64 bits, wrapped
    high = m1 * f1 + (mid >> _U64(32)) + (low < lo)
    q = low >> sh | high << (_U64(64) - sh)
    rem = low & (_U64(1) << sh) - _U64(1)
    return q, rem + (q & _U64(1)) > _U64(1) << sh - _U64(1)


def _format_floats(v) -> np.ndarray:
    """The %.17g text of each float64 of v as a row of five uint64 words,
    NUL-padded, the separator byte NUL: exact integer digits for 1e-4 <=
    |v| < 1e14 and Python's % for every other value (0, -0, non-finite,
    exponent notation)."""
    a = np.abs(v)
    fast = (a >= 1e-4) & (a < 1e14)
    a = np.where(fast, a, 1.0)
    bits = a.view(np.uint64)
    x = np.floor(np.log10(a)).astype(np.int64)
    q, up = _scaled(bits, x)
    while True:  # log10 near a power of ten may be one off: fix X from the floor
        step = (q >= _TEN17).astype(np.int64) - (q < _TEN16)
        rows = np.flatnonzero(step)
        if not rows.size:
            break
        x[rows] += step[rows]
        q[rows], up[rows] = _scaled(bits[rows], x[rows])
    # no float in the range rounds up to a power of ten at 17 digits: the
    # largest float below each of 10**-3 .. 10**14 keeps its digits (e.g.
    # 0.0099999999999999985), so q + up < 10**17
    lead, rest = np.divmod(q + up, _TEN16)
    hi, lo = np.divmod(rest, _U64(10**8))
    groups = np.divmod(hi.astype(np.int64), 10**4) + np.divmod(lo.astype(np.int64), 10**4)
    digits = np.empty((len(v), _FIELD // 8), np.uint64)
    digits[:, 0] = _LEAD[lead]
    zero = np.ones(len(v), bool)
    for i in range(4, 0, -1):  # group i: every digit, up to the last nonzero one, or none
        later, zero = zero, zero & (groups[i - 1] == 0)  # all 0: the groups right of i, and i too
        digits[:, i] = _GROUPS[groups[i - 1] + 10000 * later + 10000 * zero]
    first = np.arange(0, _FIELD * len(v), _FIELD) + 8 + 2 * x  # the byte of digit X + 1
    fraction = digits.view(np.uint8).reshape(-1)[first] != 0
    fields = _SKELETON[x + 4 + 18 * fraction + 36 * (v < 0)]
    fields |= digits
    slow = np.flatnonzero(~fast)
    if slow.size:
        text = np.array([b"%.17g" % t for t in v[slow].tolist()], dtype=f"S{_FIELD}")
        fields[slow] = text.view(np.uint64).reshape(-1, _FIELD // 8)
    return fields


def write_csv(path, header, columns) -> None:
    """The one CSV format of the lab: a header line of column names, then one
    line per row; commas between, LF line endings.  columns holds one 1-D
    array per header name, all of one length: a numeric column is written
    with 17 significant digits (%.17g, which round-trips float64 exactly),
    an S (bytes) column as given.  The text is made _BLOCK rows at a time.
    ValueError for a column that is not 1-D, ragged or of another dtype.
    Creates the parent directory."""
    columns = [np.asarray(c) for c in columns]
    if len(columns) != len(header) or not columns:
        raise ValueError(f"{len(header)} column names for {len(columns)} columns")
    for name, col in zip(header, columns):
        if col.ndim != 1 or col.dtype.kind not in "biufS":
            raise ValueError(f"column {name!r} must be a 1-D numeric or S array, "
                             f"not {col.ndim}-D {col.dtype}")
    count = len(columns[0])
    if any(len(col) != count for col in columns):
        raise ValueError(f"columns of unequal length {[len(col) for col in columns]}")
    # each field is a whole number of uint64 words and ends in its separator
    sizes = np.array([(col.itemsize // 8 + 1) * 8 if col.dtype.kind == "S" else _FIELD
                      for col in columns])
    ends = np.cumsum(sizes)
    words = np.zeros((min(count, _BLOCK), ends[-1] // 8), np.uint64)
    text = words.view(np.uint8)
    seps = np.full(len(columns), 44, np.uint8)
    seps[-1] = 10
    numeric = [col for col in columns if col.dtype.kind != "S"]
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        for r in range(0, count, _BLOCK):
            m = min(_BLOCK, count - r)
            if numeric:  # one pass over every numeric column of the block
                values = np.stack([col[r:r + m] for col in numeric], axis=1).astype(np.float64)
                fields = iter(_format_floats(values.ravel()).reshape(m, len(numeric), -1).swapaxes(0, 1))
            for col, start in zip(columns, ends - sizes):
                if col.dtype.kind == "S":
                    text[:m, start:start + col.itemsize] = (
                        np.ascontiguousarray(col[r:r + m]).view(np.uint8).reshape(m, -1))
                else:
                    words[:m, start // 8:start // 8 + _FIELD // 8] = next(fields)
            text[:m, ends - 1] = seps
            fh.write(text[:m].tobytes().translate(None, b"\0"))


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
