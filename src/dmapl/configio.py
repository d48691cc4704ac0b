"""Flat key-value config files (a TOML subset) for runs and benchmark specs.

One `key = value` per line, `#` comments, values are ints, floats, booleans,
or (optionally quoted) strings. List-ish values (hidden dims, translation
vectors) are comma-separated strings like "32,16".
"""

from __future__ import annotations

from .datasets import DomainShiftSpec
from .numkit import DmaplError
from .trainer import MIN_SAMPLES_PER_CLASS, TrainConfig


class ConfigError(DmaplError):
    """Config file does not parse or carries unknown/invalid keys."""


def _parse_value(raw: str):
    if raw.startswith('"') and raw.endswith('"') and len(raw) >= 2:
        return raw[1:-1]
    if raw.lower() == "true":
        return True
    if raw.lower() == "false":
        return False
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        pass
    return raw


def parse_flat_config(text: str, source: str = "<config>") -> dict:
    out: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{source}: line {lineno}: expected 'key = value'")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        raw = raw.strip()
        if raw.startswith('"'):
            end = raw.find('"', 1)
            if end < 0:
                raise ConfigError(f"{source}: line {lineno}: unterminated string")
            raw = raw[:end + 1]
        else:
            raw = raw.split("#", 1)[0].strip()
        if not key or not raw:
            raise ConfigError(f"{source}: line {lineno}: expected 'key = value'")
        out[key] = _parse_value(raw)
    return out


def load_flat_config(path: str) -> dict:
    with open(path) as fh:
        return parse_flat_config(fh.read(), source=path)


def format_flat_config(values: dict) -> str:
    lines = []
    for key, value in values.items():
        if isinstance(value, bool):
            rendered = "true" if value else "false"
        elif isinstance(value, (int, float)):
            rendered = repr(value)
        elif isinstance(value, (list, tuple)):
            rendered = '"' + ",".join(str(v) for v in value) + '"'
        else:
            rendered = f'"{value}"'
        lines.append(f"{key} = {rendered}")
    return "\n".join(lines) + "\n"


def train_config_from_sources(path: str | None, overrides: dict) -> TrainConfig:
    """Defaults, then config file, then explicit overrides (CLI flags)."""
    values: dict = {}
    if path is not None:
        values.update(load_flat_config(path))
    values.update({k: v for k, v in overrides.items() if v is not None})
    try:
        return TrainConfig.from_dict(values)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from None


def shift_spec_from_sources(path: str | None, overrides: dict) -> DomainShiftSpec:
    """The benchmark spec of a file and overrides; it must leave every class
    of the benchmark splits non-empty."""
    values: dict = {}
    if path is not None:
        values.update(load_flat_config(path))
    values.update({k: v for k, v in overrides.items() if v is not None})
    if "shift_translation" in values and isinstance(values["shift_translation"], str):
        raw = values["shift_translation"]
        values["shift_translation"] = tuple(float(x) for x in raw.split(",") if x.strip())
    known = set(DomainShiftSpec.__dataclass_fields__)
    unknown = set(values) - known
    if unknown:
        raise ConfigError(f"unknown benchmark spec keys: {sorted(unknown)}")
    try:
        spec = DomainShiftSpec(**values)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from None
    if spec.samples_per_class < MIN_SAMPLES_PER_CLASS:
        raise ConfigError(f"samples_per_class must be >= {MIN_SAMPLES_PER_CLASS} for the "
                          "benchmark's train/test and validation splits, "
                          f"got {spec.samples_per_class}")
    return spec
