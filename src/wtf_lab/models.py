"""Bundled reference models used by tests and the `verify` command.

M1  doubling map, lambda 0.7, g = cos 2 pi x (classical Weierstrass setup)
M2  two affine branches of ratio 0.35 with a central gap, lambda 0.45
M3  affine gap system with distinct ratios (0.3, 0.45) and lambdas (0.4, 0.7):
    a genuinely multifractal exponent
M4  M2 geometry with lambda = 0.35^(1/2) = |tau'|^(-1/2): degenerate spectrum
M5  mildly nonlinear full-branch circle map 2x + 0.05 sin(2 pi x) mod 1
"""

from __future__ import annotations

import math

MODELS: dict[str, dict] = {
    "M1": {
        "id": "M1",
        "branches": {"family": "ell_adic", "ell": 2},
        "lambda": {"kind": "constant", "value": 0.7},
    },
    "M2": {
        "id": "M2",
        "branches": [
            {"kind": "affine", "domain": [0.0, 0.35], "slope": 1.0 / 0.35, "offset": 0.0},
            {"kind": "affine", "domain": [0.65, 1.0], "slope": 1.0 / 0.35, "offset": -0.65 / 0.35},
        ],
        "lambda": {"kind": "constant", "value": 0.45},
    },
    "M3": {
        "id": "M3",
        "branches": [
            {"kind": "affine", "domain": [0.0, 0.3], "slope": 1.0 / 0.3, "offset": 0.0},
            {"kind": "affine", "domain": [0.5, 0.95], "slope": 1.0 / 0.45, "offset": -0.5 / 0.45},
        ],
        "lambda": {"kind": "branch_constant", "values": [0.4, 0.7]},
    },
    "M4": {
        "id": "M4",
        "branches": [
            {"kind": "affine", "domain": [0.0, 0.35], "slope": 1.0 / 0.35, "offset": 0.0},
            {"kind": "affine", "domain": [0.65, 1.0], "slope": 1.0 / 0.35, "offset": -0.65 / 0.35},
        ],
        "lambda": {"kind": "constant", "value": math.sqrt(0.35)},
    },
    "M5": {
        "id": "M5",
        "branches": {"family": "doubling_plus_sine", "ell": 2, "eps": 0.05},
        "lambda": {"kind": "constant", "value": 0.7},
    },
}


def model_spec(name: str) -> dict:
    if name not in MODELS:
        raise KeyError(f"unknown bundled model {name!r}")
    return MODELS[name]
