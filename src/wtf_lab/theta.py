"""Phase-shift sequences for the randomised function.

A ThetaSequence is either identically zero or an iid uniform sequence on
[0,1).  The uniform variant is counter-based (splitmix64 keyed by
(seed, index)), so theta[n] is computable in O(1) without storing the
stream, and shifting the sequence by k is exact: shift(k)[n] == theta[n+k].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_UNIT = float(2.0**-53)


def _splitmix64(v: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        z = (v + _GOLDEN).astype(np.uint64)
        z = (z ^ (z >> np.uint64(30))) * _MIX1
        z = (z ^ (z >> np.uint64(27))) * _MIX2
        return z ^ (z >> np.uint64(31))


def counter_uniforms(seed: int, positions, stream: int = 0) -> np.ndarray:
    """Uniform [0,1) doubles at the given non-negative counter positions.

    Distinct (seed, stream) pairs give independent deterministic streams.
    """
    with np.errstate(over="ignore"):
        base = _splitmix64(np.uint64(seed & 0xFFFFFFFFFFFFFFFF) ^ (np.uint64(stream) * _MIX2))
        idx = np.asarray(positions, dtype=np.uint64)
        z = _splitmix64(base + idx * _GOLDEN)
    return (z >> np.uint64(11)).astype(np.float64) * _UNIT


@dataclass(frozen=True)
class ThetaSequence:
    """Sequence of torus shifts theta_0, theta_1, ... applied to g's argument."""

    mode: str  # "zeros" | "iid_uniform"
    seed: int | None = None
    offset: int = 0

    def __post_init__(self):
        if self.mode not in ("zeros", "iid_uniform"):
            raise ValueError(f"unknown theta mode {self.mode!r}")
        if self.mode == "iid_uniform" and self.seed is None:
            raise ValueError("iid_uniform theta requires a seed")

    @classmethod
    def zeros(cls) -> "ThetaSequence":
        return cls("zeros")

    @classmethod
    def iid_uniform(cls, seed: int) -> "ThetaSequence":
        return cls("iid_uniform", seed=seed)

    def __getitem__(self, n: int) -> float:
        if n < 0:
            raise IndexError("theta index must be >= 0")
        if self.mode == "zeros":
            return 0.0
        return float(counter_uniforms(self.seed, [self.offset + n])[0])

    def block(self, start: int, count: int) -> np.ndarray:
        """theta[start .. start+count-1] as an array."""
        if self.mode == "zeros":
            return np.zeros(count)
        first = self.offset + start
        return counter_uniforms(self.seed, np.arange(first, first + count, dtype=np.uint64))

    def shift(self, k: int) -> "ThetaSequence":
        """Drop the first k entries: shift(k)[n] == self[n+k]."""
        if k < 0:
            raise ValueError("shift must be nonnegative")
        return ThetaSequence(self.mode, self.seed, self.offset + k)
