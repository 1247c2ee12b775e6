"""Structured-text configuration files.

Layout: an INI document with up to three sections,

    [circuit]   SQUID + cavity parameters (optional e_bar override)
    [scenario]  run parameters, keyed by scenario name
    [output]    output directory and formatting

Every key is schema-checked before any computation runs; unknown keys
or sections are rejected outright rather than ignored. The keys are the
fields of the config dataclasses; a float key takes finite numbers only.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import MISSING, dataclass, fields
from typing import get_args, get_type_hints

from .circuit import CavityParams, SquidParams
from .errors import ConfigError
from .scenarios import CircuitConfig, DceParams, ScenarioConfig


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not a finite number")
    return value


_PARSERS = {int: int, float: _finite, str: str.strip}


def _keys(cls, prefix: str = "") -> dict:
    """``prefix`` + name -> parser for each int, float or str field of the
    dataclass ``cls``, ``X | None`` included; sub-configs get no key."""
    kinds = {name: (get_args(hint) or (hint,))[0]
             for name, hint in get_type_hints(cls).items()}
    return {prefix + name: _PARSERS[kind] for name, kind in kinds.items()
            if kind in _PARSERS}


_CIRCUIT = (SquidParams, CavityParams)
_CIRCUIT_KEYS = {**_keys(SquidParams), **_keys(CavityParams),
                 "e_bar": _finite}
_CIRCUIT_REQUIRED = tuple(f.name for cls in _CIRCUIT for f in fields(cls)
                          if f.default is MISSING)

_SCENARIO_KEYS = {**_keys(ScenarioConfig), **_keys(DceParams, "dce_"),
                  "seed": int, "vlf_restarts": int}
_SECTIONS = {"circuit": _CIRCUIT_KEYS, "scenario": _SCENARIO_KEYS,
             "output": {"directory": str.strip}}


@dataclass
class CliConfig:
    circuit: CircuitConfig | None
    scenario: dict
    output: dict


def _parse_section(name: str, section) -> dict:
    schema = _SECTIONS[name]
    values = {}
    for key in section:
        if key not in schema:
            raise ConfigError(f"unknown key {key!r} in section [{name}]")
        try:
            values[key] = schema[key](section[key])
        except ValueError as exc:
            raise ConfigError(
                f"bad value for {key!r} in section [{name}]: {exc}") from exc
    return values


def parse_config(text: str) -> CliConfig:
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config: {exc}") from exc
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown section [{section}]")

    circuit = None
    if parser.has_section("circuit"):
        raw = _parse_section("circuit", parser["circuit"])
        missing = [k for k in _CIRCUIT_REQUIRED if k not in raw]
        if missing:
            raise ConfigError(f"[circuit] is missing keys: {missing}")
        try:
            squid, cavity = [cls(**{f.name: raw[f.name] for f in fields(cls)
                                    if f.name in raw}) for cls in _CIRCUIT]
        except ValueError as exc:
            raise ConfigError(f"invalid circuit parameters: {exc}") from exc
        circuit = CircuitConfig(squid=squid, cavity=cavity,
                                e_bar_override=raw.get("e_bar"))

    scenario = _parse_section("scenario", parser["scenario"]) \
        if parser.has_section("scenario") else {}
    output = _parse_section("output", parser["output"]) \
        if parser.has_section("output") else {}
    return CliConfig(circuit=circuit, scenario=scenario, output=output)


def load_config(path: str) -> CliConfig:
    try:
        with open(path) as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    return parse_config(text)


def build_scenario_config(cli: CliConfig) -> ScenarioConfig:
    """ScenarioConfig from a parsed file. The ``seed`` and
    ``vlf_restarts`` keys are accepted and not read: no witness is random
    any more."""
    raw = dict(cli.scenario)
    raw.pop("seed", None)
    raw.pop("vlf_restarts", None)
    if "name" not in raw:
        raise ConfigError("no scenario name given ([scenario] name)")
    dce = {key[len("dce_"):]: raw.pop(key)
           for key in list(raw) if key.startswith("dce_")}
    try:
        if dce:
            raw["dce"] = DceParams(**dce)
        return ScenarioConfig(circuit=cli.circuit, **raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid scenario parameters: {exc}") from exc
