"""The four workloads: configs, CLI commands per iteration, output checks.

Each workload iteration is a fixed list of ``triphoton`` CLI commands.
The workload seed reaches the program only through ``--seed``. The
checks read what the commands wrote and return one message per value
outside its reference; an iteration with any message, or with a
non-zero exit, is a failed iteration.

This module imports neither numpy nor triphoton, so the launcher can use
it to write the derived configs before any timed process starts.
"""

from __future__ import annotations

import configparser
import json
import math
import os

WORKLOADS = ("spdc3", "spdc22", "dce-rabi", "hybrid-sweep")

# Coarse time grids for the two down-conversion runs. The full 101-point
# grids cost ~31 s per iteration (0.3 s of VLF search per point), which a
# benchmark run cannot repeat. Both coarse grids end on the configured
# horizon: spdc3's g2 peaks there, and spdc22's endpoint g*t = 0.3 is
# where the VLF seed spread shows (n_steps = 2 gives S = 0.98, 0.70,
# 0.69, 0.31, 0.23, 0.13 on seeds 7, 1, 2, 3, 11, 123).
SPDC3_STEPS = 3
SPDC22_STEPS = 2
SWEEP_CUTOFFS = "4,6,8,10,12"

# Reference values of the acceptance runs (tests/test_acceptance.py).
G2_PEAK_3SPDC = 0.1720736
DCE_N_FINAL = 0.0150200
REF_TOL = 1e-6
# Coarse-grid analog of ROADMAP's criterion-3 figure (S_peak = 1.001 on
# seed 7 over 101 points): the default seed reaches 0.9806 at g*t = 0.3.
# A search change may raise it, never lower it.
S_PEAK_22SPDC_DEFAULT_SEED = 0.98


def config_paths(workload: str, root: str, work: str,
                 mini: bool = False) -> dict[str, str]:
    """Config files one iteration reads, by role."""
    src = os.path.join(root, "configs")
    tag = "mini-" if mini else ""
    if workload == "spdc3":
        return {"circuit": os.path.join(src, "reference.ini"),
                "run": os.path.join(work, f"{tag}spdc3.ini")}
    if workload == "spdc22":
        return {"run": os.path.join(work, f"{tag}spdc22.ini")}
    if workload == "dce-rabi":
        return {"run": os.path.join(work, "mini-dce.ini") if mini
                else os.path.join(src, "dce.ini")}
    if workload == "hybrid-sweep":
        return {"run": os.path.join(work, "mini-hybrid.ini") if mini
                else os.path.join(src, "hybrid.ini")}
    raise ValueError(f"unknown workload {workload!r}")


# [scenario] overrides of the derived configs. The "mini" configs are the
# first-call warm-up of the set-up measurement: every command and code
# path of the workload at negligible size.
_DERIVED = {
    ("spdc3", False): ("reference.ini", {"n_steps": SPDC3_STEPS}),
    ("spdc22", False): ("spdc22.ini", {"n_steps": SPDC22_STEPS}),
    ("spdc3", True): ("reference.ini",
                      {"n_steps": 2, "vlf_restarts": 1, "cutoff": 2}),
    ("spdc22", True): ("spdc22.ini",
                       {"n_steps": 2, "vlf_restarts": 1, "cutoff": 2}),
    ("dce-rabi", True): ("dce.ini",
                         {"cutoff": 2, "dce_periods": 1,
                          "dce_window_periods": 1}),
    ("hybrid-sweep", True): ("hybrid.ini", {"n_steps": 2}),
}


def write_configs(workload: str, root: str, work: str) -> None:
    """Write the derived full-size and mini configs into ``work``."""
    for mini in (False, True):
        spec = _DERIVED.get((workload, mini))
        if spec is None:
            continue
        source, overrides = spec
        parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
        with open(os.path.join(root, "configs", source)) as handle:
            parser.read_file(handle)
        for key, value in overrides.items():
            parser["scenario"][key] = str(value)
        with open(config_paths(workload, root, work, mini)["run"], "w") as f:
            parser.write(f)


def commands(workload: str, root: str, work: str, seed: int,
             mini: bool = False) -> list[tuple[str, list[str]]]:
    """(label, argv) for each CLI command of one iteration."""
    cfg = config_paths(workload, root, work, mini)
    out = os.path.join(work, "out")
    s = ["--seed", str(seed)]
    if workload == "spdc3":
        return [
            ("modes", ["modes", "--config", cfg["circuit"], "--n-modes", "4",
                       "--out", os.path.join(out, "modes.csv"),
                       "--tables-json", os.path.join(out, "tables.json")]),
            ("rwa", ["rwa", "--config", cfg["circuit"]]),
            ("run", ["run", "--config", cfg["run"],
                     "--out", os.path.join(out, "spdc3")] + s),
        ]
    if workload == "spdc22":
        # the config's default seed (7), then the workload seed
        return [
            ("run-default-seed", ["run", "--config", cfg["run"], "--out",
                                  os.path.join(out, "spdc22-default")]),
            ("run", ["run", "--config", cfg["run"],
                     "--out", os.path.join(out, "spdc22")] + s),
        ]
    if workload == "dce-rabi":
        return [("run", ["run", "--config", cfg["run"],
                         "--out", os.path.join(out, "dce")] + s)]
    if workload == "hybrid-sweep":
        cutoffs = "2,3" if mini else SWEEP_CUTOFFS
        return [("sweep", ["sweep", "--config", cfg["run"], "--cutoffs",
                           cutoffs, "--jobs", "1",
                           "--out", os.path.join(out, "sweep.json")] + s)]
    raise ValueError(f"unknown workload {workload!r}")


def _load(path: str) -> dict:
    with open(path) as handle:
        return json.load(handle)


def _near(value, ref: float, tol: float) -> bool:
    return isinstance(value, (int, float)) and abs(value - ref) <= tol


def _check_spdc3(out: str, stdout: dict[str, str], notes: dict) -> list[str]:
    bad = []
    s = _load(os.path.join(out, "spdc3", "summary.json"))
    notes["s_peak[seed]"] = s.get("s_peak")
    if not _near(s.get("g2_peak"), G2_PEAK_3SPDC, REF_TOL):
        bad.append(f"spdc3 g2_peak {s.get('g2_peak')!r} != "
                   f"{G2_PEAK_3SPDC} +- {REF_TOL}")
    if not (isinstance(s.get("s_peak"), float) and s["s_peak"] <= 1e-9):
        bad.append(f"spdc3 s_peak {s.get('s_peak')!r} > 1e-9")
    if s.get("cov_cross_max") != 0.0:
        bad.append(f"spdc3 cov_cross_max {s.get('cov_cross_max')!r} != 0")
    with open(os.path.join(out, "modes.csv")) as handle:
        rows = handle.read().splitlines()
    if len(rows) != 5:
        bad.append(f"modes.csv has {len(rows) - 1} mode rows, not 4")
    tables = _load(os.path.join(out, "tables.json"))
    if len(tables.get("spectrum", {}).get("frequencies", [])) != 4:
        bad.append("tables.json does not hold 4 mode frequencies")
    bad.extend(_check_rwa_listing(stdout.get("rwa", "")))
    return bad


def _check_rwa_listing(text: str) -> list[str]:
    """The rwa listing must hold as many rows as its headers announce."""
    lines = text.splitlines()
    declared = {}
    for line in lines:
        for kind in ("resonant", "counter-rotating"):
            prefix = f"# {kind} terms: "
            if line.startswith(prefix):
                declared[kind] = int(line[len(prefix):])
    rows = {"resonant": sum(ln.startswith("resonant,") for ln in lines),
            "counter-rotating": sum(ln.startswith("counter,")
                                    for ln in lines)}
    if set(declared) != set(rows) or declared != rows or not rows["resonant"]:
        return [f"rwa listing rows {rows} do not match headers {declared}"]
    return []


def _check_spdc22(out: str, stdout: dict[str, str], notes: dict) -> list[str]:
    bad = []
    for label, sub in (("default seed", "spdc22-default"),
                       ("workload seed", "spdc22")):
        s = _load(os.path.join(out, sub, "summary.json"))
        key = "s_peak[default seed]" if sub.endswith("default") \
            else "s_peak[seed]"
        notes[key] = s.get("s_peak")
        if not (isinstance(s.get("s_peak"), float) and s["s_peak"] > 0.0):
            bad.append(f"spdc22 ({label}) s_peak {s.get('s_peak')!r} <= 0")
        elif sub.endswith("default") and \
                s["s_peak"] < S_PEAK_22SPDC_DEFAULT_SEED:
            bad.append(f"spdc22 (default seed) s_peak {s['s_peak']!r} < "
                       f"{S_PEAK_22SPDC_DEFAULT_SEED}")
        for name in ("g1_peak", "g2_peak"):
            if not (isinstance(s.get(name), float) and s[name] <= 0.0):
                bad.append(f"spdc22 ({label}) {name} {s.get(name)!r} > 0")
    return bad


def _check_dce(out: str, stdout: dict[str, str], notes: dict) -> list[str]:
    bad = []
    s = _load(os.path.join(out, "dce", "summary.json"))
    notes["n_final"] = s.get("n_final")
    if s.get("windowed_monotone") is not True:
        bad.append("dce-rabi windowed photon number is not monotone")
    if not _near(s.get("n_final"), DCE_N_FINAL, REF_TOL):
        bad.append(f"dce-rabi n_final {s.get('n_final')!r} != "
                   f"{DCE_N_FINAL} +- {REF_TOL}")
    for name in ("qubit_excitation_max", "qubit_entropy_max"):
        if not (isinstance(s.get(name), float) and s[name] < 0.1):
            bad.append(f"dce-rabi {name} {s.get(name)!r} >= 0.1")
    if not (isinstance(s.get("norm_drift"), float) and s["norm_drift"] < 1e-8):
        bad.append(f"dce-rabi norm_drift {s.get('norm_drift')!r} >= 1e-8")
    return bad


def _check_sweep(out: str, stdout: dict[str, str], notes: dict) -> list[str]:
    report = _load(os.path.join(out, "sweep.json"))
    threshold = report.get("threshold")
    finals = {name: d[-1] for name, d in report.get("deltas", {}).items()}
    notes["max_final_delta"] = max(finals.values()) if finals else None
    bad = []
    if report.get("cutoffs") != [int(c) for c in SWEEP_CUTOFFS.split(",")]:
        bad.append(f"sweep cutoffs {report.get('cutoffs')!r}")
    if not finals:
        bad.append("sweep report has no deltas")
    for name, delta in finals.items():
        if not (isinstance(delta, float) and math.isfinite(delta)
                and delta < threshold):
            bad.append(f"sweep final delta {name} = {delta!r} "
                       f">= threshold {threshold!r}")
    if report.get("converged") is not True:
        bad.append("sweep reports not converged")
    return bad


_CHECKS = {"spdc3": _check_spdc3, "spdc22": _check_spdc22,
           "dce-rabi": _check_dce, "hybrid-sweep": _check_sweep}


def check(workload: str, work: str, exits: dict[str, object],
          stdout: dict[str, str]) -> tuple[list[str], dict]:
    """Failure messages (empty when the iteration passed) and notable
    output values of one iteration."""
    bad = [f"{label} exited with {code!r}" for label, code in exits.items()
           if code != 0]
    notes: dict = {}
    if bad:
        return bad, notes
    try:
        bad = _CHECKS[workload](os.path.join(work, "out"), stdout, notes)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        bad = [f"unreadable output: {exc!r}"]
    return bad, notes
