"""Pipeline configuration: a single JSON file with one section per concern.

Every setting a run may vary appears here with its default, so a config
file only states what it overrides; the prescreener's sizes and the prompt
budgets are fixed, as constants in `candidates`, `cacl` and `examination`.
The --mock switch is applied here, at load time, so the config a run records
is the one it uses; the backends are built here too, each from one spec.
"""

from __future__ import annotations

import copy
import json
import math
from pathlib import Path
from typing import Any, Optional

from .corpus import DEFAULT_SCHEMA

DEFAULT_CONFIG: dict[str, Any] = {
    "seed": 11,
    "agent_concurrency": 4,
    "data": {
        "cases_path": None,
        "labels_path": None,
        "schema": {},
        "ratios": [0.8, 0.1, 0.1],
        "precedent_k": 3,
    },
    "providers": {
        "agent": {"kind": "synthetic-oracle", "world_path": None},
        "embedder": {"kind": "hashing", "dim": 256},
        # per-stage agent overrides, e.g. {"optimize": {"kind": "http", ...}}
        "routing": {},
        "mock": {},
    },
    "quiz": {
        "num_options": 4,
    },
    "optimization": {
        "defined_score": 0.9,
        "max_iterations": 5,
        "num_negatives": None,  # None -> |S_positive|
        "temperature": 0.7,
    },
    "examination": {
        "candidate_k": 10,
    },
}


class ConfigError(ValueError):
    pass


# sections whose keys are provider- or dataset-specific, not checked here
_FREEFORM = {
    "data.schema",
    "providers.agent",
    "providers.embedder",
    "providers.routing",
    "providers.mock",
}


# int settings and the least value each takes; num_negatives may also be null
_FLOORS = {
    "agent_concurrency": 1,
    "data.precedent_k": 1,
    "quiz.num_options": 2,
    "optimization.max_iterations": 0,
    "optimization.num_negatives": 1,
    "examination.candidate_k": 1,
}


def _fits(default, value) -> bool:
    """Whether `value` has the type of `default`. A finite int or float fits a
    float, a bool fits only a bool, and anything fits None; each element of a
    list must fit the default's first element."""
    if default is None:
        return True
    if isinstance(default, list):
        return isinstance(value, list) and all(_fits(default[0], item) for item in value)
    if isinstance(default, float) and not isinstance(value, bool):
        return isinstance(value, (int, float)) and math.isfinite(value)
    return type(value) is type(default)


def _merge(base: dict, override: dict, path: str = "") -> dict:
    """`base` with `override`'s values, each of which must fit its default."""
    merged = copy.deepcopy(base)
    for key, value in override.items():
        where = f"{path}.{key}" if path else key
        if key not in merged:
            raise ConfigError(f"unknown configuration key: {where}")
        if where in _FREEFORM:
            merged[key] = copy.deepcopy(value)
        elif isinstance(merged[key], dict) and isinstance(value, dict):
            merged[key] = _merge(merged[key], value, where)
        elif _fits(merged[key], value):
            merged[key] = value
        elif isinstance(merged[key], float) and isinstance(value, float):
            raise ConfigError(f"{where} must be finite, not {value!r}")
        else:
            raise ConfigError(
                f"{where} must have the type of its default {merged[key]!r}, not {value!r}"
            )
    return merged


def _resolve_paths(section: dict, base: Path) -> None:
    """Resolve every non-empty `*_path` string under `section` against `base`,
    in place."""
    for key, value in section.items():
        if isinstance(value, dict):
            _resolve_paths(value, base)
        elif key.endswith("_path") and isinstance(value, str) and value:
            section[key] = str((base / value).resolve())


def load_config(
    path: str | Path, *, seed_override: Optional[int] = None, mock: bool = False
) -> dict:
    """Parse and validate a config file against the defaults.

    With `mock`, providers.mock supplies the agent (default: the configured
    agent) and the embedder (default: hashing), and routing is emptied.
    """
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be an object")
    config = _merge(DEFAULT_CONFIG, raw)
    if seed_override is not None:
        config["seed"] = seed_override
    data = config["data"]
    if not isinstance(data["cases_path"], str) or not data["cases_path"]:
        raise ConfigError(f"data.cases_path must be a non-empty string, not {data['cases_path']!r}")
    if not isinstance(data["labels_path"], (str, type(None))):
        raise ConfigError(f"data.labels_path must be null or a string, not {data['labels_path']!r}")
    schema = data["schema"]
    if not isinstance(schema, dict):
        raise ConfigError(f"data.schema must be an object, not {schema!r}")
    for field, source in schema.items():
        if field not in DEFAULT_SCHEMA:
            fields = ", ".join(DEFAULT_SCHEMA)
            raise ConfigError(f"data.schema.{field} is not a case field; the fields are {fields}")
        if field == "case_id" and source is None:
            continue  # cases are then numbered by line
        if not isinstance(source, str) or not source:
            raise ConfigError(f"data.schema.{field} must be a non-empty string, not {source!r}")
    for where, floor in _FLOORS.items():
        section, _, key = where.rpartition(".")
        value = config[section][key] if section else config[key]
        if value is not None and (type(value) is not int or value < floor):
            raise ConfigError(f"{where} must be an integer of at least {floor}, not {value!r}")
    temperature = config["optimization"]["temperature"]
    if temperature < 0:
        raise ConfigError(f"optimization.temperature must be at least 0, not {temperature!r}")
    if config["quiz"]["num_options"] > 26:
        raise ConfigError("quiz.num_options must be at most 26: options are lettered A-Z")
    ratios = data["ratios"]
    if len(ratios) != 3 or min(ratios) < 0 or abs(sum(ratios) - 1.0) > 1e-9:
        raise ConfigError("data.ratios must be three non-negative fractions summing to 1")
    # paths are interpreted relative to the config file's directory
    _resolve_paths(config, path.parent)
    if mock:
        providers = config["providers"]
        offline = providers["mock"]
        providers["agent"] = offline.get("agent", providers["agent"])
        providers["embedder"] = offline.get("embedder", {"kind": "hashing"})
        providers["routing"] = {}
        for role in ("agent", "embedder"):
            if providers[role].get("kind") == "http":
                raise ConfigError(f"--mock cannot use an http {role}")
    return config


def build_agent(spec: dict):
    """Agent backend for one spec: providers.agent, a routing entry, or
    providers.mock.agent. A spec that cannot be built is a ConfigError that
    names it."""
    from .agents import HttpBackend, ScriptedBackend
    from .synthetic import OracleAgent, SyntheticWorld

    kind = spec.get("kind")
    if kind == "synthetic-oracle":
        world_path = spec.get("world_path")
        if not world_path:
            raise ConfigError("synthetic-oracle agent requires world_path")
        try:
            return OracleAgent(SyntheticWorld.load(world_path))
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise ConfigError(
                f"synthetic-oracle agent cannot load world_path {world_path!r}: {exc}"
            ) from exc
    if kind == "scripted":
        script_path = spec.get("script_path")
        if not script_path:
            raise ConfigError("scripted agent requires script_path")
        try:
            script = json.loads(Path(script_path).read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            raise ConfigError(
                f"scripted agent cannot load script_path {script_path!r}: {exc}"
            ) from exc
        if not isinstance(script, dict):
            raise ConfigError(f"scripted agent's script_path {script_path!r} is not a JSON object")
        return ScriptedBackend(script)
    if kind == "http":
        base_url = spec.get("base_url")
        model = spec.get("model")
        if not base_url or not model:
            raise ConfigError("http agent requires base_url and model")
        return HttpBackend(base_url, model)
    raise ConfigError(f"unknown agent kind {kind!r}")


def build_embedder(spec: dict):
    """Embedder for providers.embedder or providers.mock.embedder; a spec that
    cannot be built is a ConfigError that names it."""
    from .confusable import HashingEmbedder, HttpEmbedder

    kind = spec.get("kind")
    if kind == "hashing":
        dim = spec.get("dim", 256)
        if type(dim) is not int or dim < 1:
            raise ConfigError(f"hashing embedder dim must be an integer of at least 1, not {dim!r}")
        return HashingEmbedder(dim=dim)
    if kind == "http":
        base_url = spec.get("base_url")
        model = spec.get("model")
        if not base_url or not model:
            raise ConfigError("http embedder requires base_url and model")
        return HttpEmbedder(base_url, model)
    raise ConfigError(f"unknown embedder kind {kind!r}")
