"""Run-config parsing for the CLI (one JSON document per run)."""

from __future__ import annotations

import json
from pathlib import Path

from .dynamics import CookieCutterSystem, validate_system
from .errors import BadConfig
from .models import model_spec
from .theta import ThetaSequence


def load_config(path) -> dict:
    p = Path(path)
    if not p.exists():
        raise BadConfig(f"config file {p} does not exist")
    try:
        config = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise BadConfig(f"config is not valid JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise BadConfig("config must be a JSON object")
    return config


def parse_model(config: dict) -> CookieCutterSystem:
    model = config.get("model")
    if model is None:
        raise BadConfig("config needs a 'model' entry")
    if isinstance(model, str):
        try:
            model = model_spec(model)
        except KeyError as exc:
            raise BadConfig(str(exc)) from exc
    elif isinstance(model, dict) and "ref" in model:
        try:
            model = model_spec(model["ref"])
        except KeyError as exc:
            raise BadConfig(str(exc)) from exc
    return validate_system(model)


def parse_theta(config: dict, seed_override: int | None = None) -> ThetaSequence:
    spec = config.get("theta", {"mode": "zeros"})
    if isinstance(spec, str):
        spec = {"mode": spec}
    mode = spec.get("mode", "zeros")
    if mode == "zeros" and seed_override is None:
        return ThetaSequence.zeros()
    if mode == "zeros":
        return ThetaSequence.iid_uniform(seed_override)
    if mode == "iid_uniform":
        seed = seed_override if seed_override is not None else spec.get("seed")
        if seed is None:
            raise BadConfig("iid_uniform theta needs a seed")
        return ThetaSequence.iid_uniform(int(seed))
    raise BadConfig(f"unknown theta mode {mode!r}")


def require_number(config: dict, key: str, default=None, low=None, high=None):
    value = config.get(key, default)
    if value is None:
        raise BadConfig(f"config needs {key!r}")
    try:
        value = float(value)
    except (TypeError, ValueError) as exc:
        raise BadConfig(f"{key!r} must be numeric") from exc
    if low is not None and value < low:
        raise BadConfig(f"{key!r} must be >= {low}")
    if high is not None and value > high:
        raise BadConfig(f"{key!r} must be <= {high}")
    return value


def require_int(config: dict, key: str, default=None, low=None, high=None) -> int:
    value = require_number(config, key, default, low, high)
    if value != int(value):
        raise BadConfig(f"{key!r} must be an integer")
    return int(value)


def require_list(config: dict, key: str, item=float, length=None, default=None):
    """config[key] as a list of ``item`` (float, int or str) values, or
    ``default`` when the key is absent or null; BadConfig for any other
    shape or element type."""
    value = config.get(key)
    if value is None:
        return default
    kinds = {float: (int, float), int: int, str: str}[item]
    if (not isinstance(value, list) or (length is not None and len(value) != length)
            or not all(isinstance(v, kinds) for v in value)):
        size = f"{length} " if length is not None else ""
        raise BadConfig(f"{key!r} must be a list of {size}{item.__name__} values")
    return [item(v) for v in value]
