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
        if key in out:
            raise ConfigError(f"{source}: line {lineno}: duplicate key {key!r}")
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


# the settings whose value is a list, with the type of its elements
_LIST_SETTINGS = {"hidden_dims": int, "shift_translation": float}


def settings_from_sources(path: str | None, overrides: dict) -> dict:
    """The settings of the file at `path`, if any, overridden by the non-None
    `overrides` (CLI flags). A list setting, a comma-separated string, a lone
    number or a sequence, becomes a tuple; a bad element is an error naming
    the key, and the file when the value came from one."""
    given = {k: v for k, v in overrides.items() if v is not None}
    values = {**(load_flat_config(path) if path is not None else {}), **given}
    for key in _LIST_SETTINGS.keys() & values.keys():
        raw, kind = values[key], _LIST_SETTINGS[key]
        items = raw if isinstance(raw, (list, tuple)) else str(raw).split(",")
        try:
            values[key] = tuple(kind(str(x)) for x in items if str(x).strip())
        except ValueError:
            raise ConfigError(f"{'' if key in given else path + ': '}{key}: expected "
                              f"comma-separated {kind.__name__}s, got {raw!r}") from None
    return values


def _from_sources(path: str | None, overrides: dict, build):
    """`build` of the settings of the file at `path` and `overrides`; a
    ConfigError names the file unless the overrides alone fail the same."""
    try:
        return build(settings_from_sources(path, overrides))
    except (TypeError, ValueError) as exc:
        error = str(exc)
    try:
        build(settings_from_sources(None, overrides))
    except (TypeError, ValueError) as exc:
        path = None if str(exc) == error else path
    raise ConfigError(error if path is None else f"{path}: {error}")


def train_config_from_sources(path: str | None, overrides: dict) -> TrainConfig:
    """Defaults, then config file, then explicit overrides (CLI flags)."""
    return _from_sources(path, overrides, TrainConfig.from_dict)


def _shift_spec(values: dict) -> DomainShiftSpec:
    unknown = set(values) - set(DomainShiftSpec.__dataclass_fields__)
    if unknown:
        raise ValueError(f"unknown benchmark spec keys: {sorted(unknown)}")
    spec = DomainShiftSpec(**values)
    if spec.samples_per_class < MIN_SAMPLES_PER_CLASS:
        raise ValueError(f"samples_per_class must be >= {MIN_SAMPLES_PER_CLASS} for the "
                         "benchmark's train/test and validation splits, "
                         f"got {spec.samples_per_class}")
    return spec


def shift_spec_from_sources(path: str | None, overrides: dict) -> DomainShiftSpec:
    """The benchmark spec of a file and overrides; it must leave every class
    of the benchmark splits non-empty."""
    return _from_sources(path, overrides, _shift_spec)
