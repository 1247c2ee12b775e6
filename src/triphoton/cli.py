"""Command-line frontend.

Subcommands: modes (cavity spectrum to CSV), rwa (term classification
tables), run (scenario to trajectory CSV + summary JSON), witness
(evaluate the suite on a saved state), sweep (cutoff convergence).

Exit codes: 0 success, 2 configuration error, 3 numeric or solver error,
4 convergence warning. Diagnostics go to stderr; no command leaves a
partial output file behind.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from functools import partial

import numpy as np

from .circuit import coupling_table
from .config import build_scenario_config, load_config
from .dynamics import cutoff_sweep
from .errors import ConfigError, TriphotonError
from .rwa import classify_terms, driven_cavity_terms
from .scenarios import (
    SCENARIO_NAMES,
    resolve_circuit,
    run_scenario,
    sweep_observables,
)
from .serialize import (
    FLOAT_FMT,
    atomic_write_text,
    circuit_tables_json,
    load_state,
    series_csv,
    snapshot_states,
    summary_json,
)
from .witnesses import (
    dv_genuine_witness,
    mode_moment_witnesses,
    negativity,
    optimize_vlf,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_NOT_CONVERGED = 4

_IGNORED_SEED = "accepted and ignored: nothing in a run is random"


def _fail(code: int, message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _require_circuit(cli_config):
    if cli_config.circuit is None:
        raise ConfigError("this command needs a [circuit] section")
    return cli_config.circuit


def cmd_modes(args) -> int:
    cfg = load_config(args.config)
    circuit = _require_circuit(cfg)
    eff, spectrum = resolve_circuit(circuit, args.n_modes)
    if args.tables_json:
        atomic_write_text(args.tables_json, circuit_tables_json(
            spectrum, coupling_table(spectrum, eff)))
    lines = ["n,k_n,omega_n,c_n,l_n,edge_amplitude"]
    for i in range(spectrum.n_modes):
        row = (i + 1, spectrum.wavenumbers[i], spectrum.frequencies[i],
               spectrum.mode_caps[i], spectrum.mode_inds[i],
               spectrum.edge_amplitudes[i])
        lines.append(",".join([str(row[0])] +
                              [FLOAT_FMT % v for v in row[1:]]))
    text = "\n".join(lines) + "\n"
    if args.out:
        atomic_write_text(args.out, text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


_SYMBOLS = {"create": "a+", "annihilate": "a", "number": "n",
            "pauli_plus": "s+", "pauli_minus": "s-", "pauli_z": "sz"}
_DRIVE_LABELS = {1: " e^{+iwd t}", -1: " e^{-iwd t}", 0: ""}


def _term_label(term, pending: dict) -> str:
    """The term's operators and drive branch, as ``rwa`` lists them.
    ``pending`` holds, by factors, the operator label of each driven term
    whose other drive branch is still to come: the two branches build it
    once, and the label is dropped at its second use, so the listing
    never holds every label at once."""
    ops = pending.pop(term.factors, None)
    if ops is None:
        ops = " ".join(f"{_SYMBOLS[kind]}_{idx + 1}"
                       for idx, kind in term.factors) or "1"
        if term.drive_sign:
            pending[term.factors] = ops
    return ops + _DRIVE_LABELS[term.drive_sign]


def cmd_rwa(args) -> int:
    cfg = load_config(args.config)
    circuit = _require_circuit(cfg)
    eff, spectrum = resolve_circuit(circuit)
    lam = circuit.squid.pump_amplitude
    terms = driven_cavity_terms(coupling_table(spectrum, eff), lam,
                                spectrum.n_modes)
    freqs = list(spectrum.frequencies)
    drive = circuit.squid.pump_frequency or float(np.sum(freqs))
    cls = classify_terms(terms, freqs, drive, tolerance=args.tolerance)
    pending: dict = {}

    def listing():
        yield (f"# pump = {FLOAT_FMT % drive}, tolerance = "
               f"{FLOAT_FMT % cls.tolerance}\n")
        yield f"# resonant terms: {len(cls.resonant)}\n"
        for term in cls.resonant:
            yield (f"resonant,{_term_label(term, pending)},"
                   f"{FLOAT_FMT % abs(term.coefficient)}\n")
        yield f"# counter-rotating terms: {len(cls.counter_rotating)}\n"
        for term, detuning in cls.counter_rotating:
            yield (f"counter,{_term_label(term, pending)},"
                   f"{FLOAT_FMT % abs(term.coefficient)},"
                   f"{FLOAT_FMT % detuning}\n")

    # one write call, line by line: no joined copy of the whole listing
    sys.stdout.writelines(listing())
    return EXIT_OK


def cmd_run(args) -> int:
    cfg = load_config(args.config)
    config = build_scenario_config(cfg, name=args.scenario)
    result = run_scenario(config, check_convergence=args.check_convergence)
    out_dir = args.out or cfg.output.get("directory", ".")
    os.makedirs(out_dir, exist_ok=True)
    if args.snapshot_times:
        # first, so a time outside the run leaves no output behind
        times = [float(t) for t in args.snapshot_times.split(",")]
        snapshot_states(result.trajectory, times, out_dir)
    columns = dict(result.trajectory.observables)
    columns.update(result.witness_series)
    atomic_write_text(os.path.join(out_dir, "trajectory.csv"),
                      series_csv(result.trajectory.times, columns))
    atomic_write_text(os.path.join(out_dir, "summary.json"),
                      summary_json(result.summary))
    print(f"wrote {out_dir}/trajectory.csv and {out_dir}/summary.json")
    if args.check_convergence and not result.summary.get("converged", True):
        print("warning: observables not converged at the configured cutoff",
              file=sys.stderr)
        return EXIT_NOT_CONVERGED
    return EXIT_OK


def cmd_witness(args) -> int:
    state = load_state(args.state)
    rows = []

    def add(rep):
        arg = rep.argmax_bipartition()
        rows.append((rep.name, rep.value, rep.detects,
                     "" if arg is None else str(arg)))

    bosons = state.layout.boson_indices()
    qubits = state.layout.qubit_indices()
    if len(bosons) == 3:
        add(optimize_vlf(state))
        for rep in mode_moment_witnesses(state).values():
            add(rep)
    if len(qubits) == 3:
        add(dv_genuine_witness(state))
    if not rows:
        return _fail(EXIT_CONFIG,
                     "state has neither three modes nor three qubits")
    n_sub = state.layout.n_subsystems
    if n_sub > 1:
        for i in range(n_sub):
            neg = negativity(state, {i})
            rows.append((f"negativity_{i}|rest", neg, neg > 1e-12, ""))
    print("witness,value,detects,argmax_bipartition")
    for name, value, detects, arg in rows:
        print(f"{name},{FLOAT_FMT % value},{str(bool(detects)).lower()},{arg}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be at least 1, got {args.jobs}")
    cfg = load_config(args.config)
    config = build_scenario_config(cfg, name=args.scenario)
    cutoffs = sorted(int(c) for c in args.cutoffs.split(","))
    if len(cutoffs) < 2:
        raise ConfigError("sweep needs at least two cutoffs")
    pool = contextlib.nullcontext()
    if args.jobs > 1:
        # the process pool's imports are paid only by parallel sweeps
        from concurrent.futures import ProcessPoolExecutor
        pool = ProcessPoolExecutor(max_workers=args.jobs)
    with pool as executor:
        report = cutoff_sweep(partial(sweep_observables, config), cutoffs,
                              threshold=args.threshold,
                              map=executor.map if executor else map)
    doc = {"cutoffs": cutoffs, "deltas": report.deltas,
           "converged": report.converged, "threshold": args.threshold}
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if args.out:
        atomic_write_text(args.out, text)
    else:
        sys.stdout.write(text)
    return EXIT_OK if report.converged else EXIT_NOT_CONVERGED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="triphoton",
        description="SQUID-terminated cavity down-conversion toolkit: "
                    "mode solving, rotating-wave reduction, scenario "
                    "simulation and entanglement witnesses.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("modes", help="solve the cavity mode spectrum")
    p.add_argument("--config", required=True, help="config file path")
    p.add_argument("--n-modes", type=int, default=3,
                   help="number of modes to solve (default 3)")
    p.add_argument("--out", help="output CSV path (default: stdout)")
    p.add_argument("--tables-json", dest="tables_json", default=None,
                   help="also write spectrum + coupling tensors as JSON")
    p.set_defaults(func=cmd_modes)

    p = sub.add_parser("rwa", help="classify driven-cavity terms")
    p.add_argument("--config", required=True)
    p.add_argument("--tolerance", type=float, default=None,
                   help="resonance tolerance in rad/s "
                        "(default: 1e-6 x smallest mode frequency)")
    p.set_defaults(func=cmd_rwa)

    p = sub.add_parser("run", help="run a scenario end to end")
    p.add_argument("--scenario", choices=SCENARIO_NAMES, default=None,
                   help="scenario name (overrides the config)")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None, help="output directory")
    p.add_argument("--seed", type=int, default=None, help=_IGNORED_SEED)
    p.add_argument("--check-convergence", action="store_true",
                   help="gate the run on a cutoff sweep (exit 4 on fail)")
    p.add_argument("--snapshot-times", default=None,
                   help="comma-separated times whose states are dumped "
                        "as JSON next to the trajectory")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("witness", help="evaluate witnesses on a saved state")
    p.add_argument("--state", required=True, help="state JSON path")
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("sweep", help="cutoff convergence sweep")
    p.add_argument("--scenario", choices=SCENARIO_NAMES, default=None)
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None, help=_IGNORED_SEED)
    p.add_argument("--cutoffs", required=True,
                   help="comma-separated cutoff list, e.g. 6,8,10")
    p.add_argument("--threshold", type=float, default=1e-6)
    p.add_argument("--jobs", type=int, default=1,
                   help="parallel workers across cutoffs (at least 1)")
    p.add_argument("--out", help="report JSON path (default: stdout)")
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # downstream pipe (head, less) closed early; not an error
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_OK
    except ConfigError as exc:
        return _fail(EXIT_CONFIG, str(exc))
    except TriphotonError as exc:
        return _fail(EXIT_NUMERIC, str(exc))
    except ValueError as exc:
        return _fail(EXIT_CONFIG, str(exc))


if __name__ == "__main__":
    sys.exit(main())
