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


def _float(text: str) -> float:
    return float(text)


def _int(text: str) -> int:
    return int(text)


def _str(text: str) -> str:
    return text.strip()


_CIRCUIT_KEYS = {
    "ej1": _float, "ej2": _float, "c1": _float, "c2": _float,
    "flux_bias": _float, "pump_amplitude": _float, "pump_frequency": _float,
    "length": _float, "cap_per_len": _float, "ind_per_len": _float,
    "e_bar": _float,
}
_CIRCUIT_REQUIRED = ("ej1", "ej2", "c1", "c2", "flux_bias",
                     "pump_amplitude", "length", "cap_per_len",
                     "ind_per_len")

_SCENARIO_KEYS = {
    "name": _str, "cutoff": _int, "n_steps": _int, "horizon": _float,
    "seed": _int, "g0": _float, "pump_frequency": _float,
    "vlf_restarts": _int, "pair_coupling": _float, "jc_ratio": _float,
    "dce_mode_freq": _float, "dce_qubit_freq": _float,
    "dce_coupling": _float, "dce_envelope": _str,
    "dce_tone_delta": _float, "dce_cosine_freq": _float,
    "dce_motional_velocity": _float, "dce_motional_wavenumber": _float,
    "dce_motional_origin": _float,
    "dce_periods": _int, "dce_steps_per_period": _int,
    "dce_window_periods": _int,
}

_OUTPUT_KEYS = {"directory": _str}

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


def build_scenario_config(cli: CliConfig, name: str | None = None,
                          seed: int | None = None) -> ScenarioConfig:
    """ScenarioConfig from a parsed file, with optional name/seed
    overrides from the command line."""
    raw = dict(cli.scenario)
    if name is not None:
        raw["name"] = name
    if "name" not in raw:
        raise ConfigError("no scenario name given (config [scenario] name "
                          "or --scenario)")
    if seed is not None:
        raw["seed"] = seed

    dce_kwargs = {}
    for key in list(raw):
        if key.startswith("dce_"):
            dce_kwargs[key[len("dce_"):]] = raw.pop(key)
    kwargs = dict(raw)
    kwargs.pop("name", None)
    if dce_kwargs:
        kwargs["dce"] = DceParams(**dce_kwargs)
    try:
        return ScenarioConfig(name=raw["name"], circuit=cli.circuit,
                              **kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid scenario parameters: {exc}") from exc
