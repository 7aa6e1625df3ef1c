"""Run-config parsing for the CLI (one JSON document per run)."""

from __future__ import annotations

import json
import math
from pathlib import Path

from .dynamics import CookieCutterSystem, validate_system
from .errors import BadConfig
from .models import model_spec
from .theta import ThetaSequence


# Every top-level key a command reads; one config may serve several commands.
CONFIG_KEYS = frozenset((
    "model theta seed criteria depth per_cylinder tol restrict_to_repeller cloud_csv "
    "cloud_csv_in scales min_scale_exp max_scale_exp window_drop holder_csv birkhoff_depth "
    "osc_depth_min osc_depth_max probes points point_depth point_count spectrum_csv q_grid "
    "q_min q_max q_steps sample_csv q pot_a pot_b pot_c count lift_csv").split())
# Two ways to give one input, each pair read by one command: a config that
# sets a key and any key it is paired with contradicts itself.
_EXCLUSIVE_KEYS = {"q": ("pot_a", "pot_b", "pot_c"), "points": ("point_depth", "point_count"),
                   "scales": ("min_scale_exp", "max_scale_exp")}


def load_config(path) -> dict:
    p = Path(path)
    try:
        config = json.loads(p.read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError) as exc:  # missing, a directory, unreadable, not UTF-8
        raise BadConfig(f"cannot read config file {p}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise BadConfig(f"config is not valid JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise BadConfig("config must be a JSON object")
    unknown = sorted(set(config) - CONFIG_KEYS)
    if unknown:
        raise BadConfig(f"unknown config keys {unknown}")
    for key, others in _EXCLUSIVE_KEYS.items():
        if key in config and (clash := [k for k in others if k in config]):
            raise BadConfig(f"config keys {key!r} and {clash[0]!r} contradict: set one or the other")
    return config


def parse_model(config: dict) -> CookieCutterSystem:
    model = config.get("model")
    if model is None:
        raise BadConfig("config needs a 'model' entry")
    if isinstance(model, dict) and "ref" in model:
        model = model["ref"]
        if not isinstance(model, str):
            raise BadConfig("'model' ref must be a bundled model name")
    if isinstance(model, str):
        try:
            model = model_spec(model)
        except KeyError as exc:
            raise BadConfig(exc.args[0]) from exc
    return validate_system(model)


def parse_theta(config: dict, seed_override: int | None = None) -> ThetaSequence:
    spec = config.get("theta", {"mode": "zeros"})
    if isinstance(spec, str):
        spec = {"mode": spec}
    if not isinstance(spec, dict):
        raise BadConfig("'theta' must be a mode name or an object")
    mode = spec.get("mode", "zeros")
    if mode == "zeros" and seed_override is None:
        return ThetaSequence.zeros()
    if mode == "zeros":
        return ThetaSequence.iid_uniform(seed_override)
    if mode == "iid_uniform":
        if seed_override is not None:
            return ThetaSequence.iid_uniform(seed_override)
        return ThetaSequence.iid_uniform(require_int(spec, "seed"))
    raise BadConfig(f"unknown theta mode {mode!r}")


def require_number(config: dict, key: str, default=None, low=None, high=None):
    value = config.get(key, default)
    if value is None:
        raise BadConfig(f"config needs {key!r}")
    try:
        value = float(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise BadConfig(f"{key!r} must be numeric") from exc
    if not math.isfinite(value):
        raise BadConfig(f"{key!r} must be finite")
    if low is not None and value < low:
        raise BadConfig(f"{key!r} must be >= {low}")
    if high is not None and value > high:
        raise BadConfig(f"{key!r} must be <= {high}")
    return value


def require_int(config: dict, key: str, default=None, low=None, high=None) -> int:
    value = require_number(config, key, default, low, high)
    if not value.is_integer():
        raise BadConfig(f"{key!r} must be an integer")
    raw = config.get(key, default)
    return raw if type(raw) is int else int(value)  # ints past 2**53 stay exact


def require_list(config: dict, key: str, item=float, length=None, default=None):
    """config[key] as a list of ``item`` (float, int or str) values, or
    ``default`` when the key is absent or null; BadConfig for any other
    shape or element type, and for a float element that is not finite."""
    value = config.get(key)
    if value is None:
        return default
    kinds = {float: (int, float), int: int, str: str}[item]
    if (not isinstance(value, list) or (length is not None and len(value) != length)
            or not all(isinstance(v, kinds) for v in value)):
        size = f"{length} " if length is not None else ""
        raise BadConfig(f"{key!r} must be a list of {size}{item.__name__} values")
    if item is float:
        return [require_number({key: v}, key) for v in value]
    return [item(v) for v in value]
