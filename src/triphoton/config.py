"""Structured-text configuration files.

Layout: an INI document with up to three sections,

    [circuit]   SQUID + cavity parameters (optional e_bar override)
    [scenario]  run parameters, keyed by scenario name
    [output]    output directory and formatting

Every key is schema-checked before any computation runs; unknown keys
or sections are rejected outright rather than ignored.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass

from .circuit import CavityParams, SquidParams
from .errors import ConfigError
from .scenarios import CircuitConfig, DceParams, ScenarioConfig


_CIRCUIT_KEYS = {
    "ej1": float, "ej2": float, "c1": float, "c2": float,
    "flux_bias": float, "pump_amplitude": float, "pump_frequency": float,
    "length": float, "cap_per_len": float, "ind_per_len": float,
    "e_bar": float,
}
_CIRCUIT_REQUIRED = ("ej1", "ej2", "c1", "c2", "flux_bias",
                     "pump_amplitude", "length", "cap_per_len",
                     "ind_per_len")

_SCENARIO_KEYS = {
    "name": str.strip, "cutoff": int, "n_steps": int, "horizon": float,
    "seed": int, "g0": float, "vlf_restarts": int,
    "pair_coupling": float, "jc_ratio": float,
    "dce_mode_freq": float, "dce_qubit_freq": float,
    "dce_coupling": float, "dce_envelope": str.strip,
    "dce_tone_delta": float, "dce_cosine_freq": float,
    "dce_motional_velocity": float, "dce_motional_wavenumber": float,
    "dce_motional_origin": float,
    "dce_periods": int, "dce_steps_per_period": int,
    "dce_window_periods": int,
}

_OUTPUT_KEYS = {"directory": str.strip}

_SECTIONS = {"circuit": _CIRCUIT_KEYS, "scenario": _SCENARIO_KEYS,
             "output": _OUTPUT_KEYS}


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
            squid = SquidParams(
                ej1=raw["ej1"], ej2=raw["ej2"], c1=raw["c1"], c2=raw["c2"],
                flux_bias=raw["flux_bias"],
                pump_amplitude=raw["pump_amplitude"],
                pump_frequency=raw.get("pump_frequency", 0.0))
            cavity = CavityParams(length=raw["length"],
                                  cap_per_len=raw["cap_per_len"],
                                  ind_per_len=raw["ind_per_len"])
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
    if dce:
        raw["dce"] = DceParams(**dce)
    try:
        return ScenarioConfig(circuit=cli.circuit, **raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid scenario parameters: {exc}") from exc
