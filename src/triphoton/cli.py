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
import functools
import os
import sys

import numpy as np

from .circuit import coupling_table
from .config import build_scenario_config, load_config
from .errors import ConfigError, TriphotonError
from .rwa import _classify_cavity, default_tolerance
from .scenarios import (
    CONVERGENCE_THRESHOLD,
    _pump_tone,
    convergence_gate,
    resolve_circuit,
    run_scenario,
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


_DRIVE_LABELS = {1: " e^{+iwd t}", -1: " e^{-iwd t}", 0: ""}


def _term_labels(modes: np.ndarray, signs: np.ndarray) -> np.ndarray:
    """The operator labels ``rwa`` lists, as a (tuples, sign tuples)
    object array over the index tuples ``modes`` and the sign tuples
    ``signs`` of one expansion group: a+_n for a creation (+1), a_n for
    an annihilation (-1) on mode n, counted from 1, in factor order. The
    listing appends the drive branch."""
    ops = np.array([[f"a+_{i + 1}", f"a_{i + 1}"]
                    for i in range(int(modes.max()) + 1)], dtype=object)
    spaced = " " + ops
    # column 0 of ops is the creation, 1 the annihilation
    pick = (signs < 0).astype(np.intp)
    labels = ops[modes[:, None, 0], pick[None, :, 0]]
    for k in range(1, modes.shape[1]):
        labels = labels + spaced[modes[:, None, k], pick[None, :, k]]
    return labels


def _formatted(values: np.ndarray, fmt: str = FLOAT_FMT) -> np.ndarray:
    """``fmt % v`` of each entry as an object array, each distinct value
    formatted once."""
    distinct, inverse = np.unique(values, return_inverse=True)
    return np.array([fmt % v for v in distinct.tolist()],
                    dtype=object)[inverse]


def _listing_lines(kind: str, group, pick: np.ndarray, tails) -> np.ndarray:
    """The ``rwa`` lines of the rows of ``group`` where ``pick`` holds, in
    row order: ``kind``, operator label and drive branch, |coefficient|,
    then ``tails`` (a line end, or one per picked row). The rows of every
    index tuple with a pick are joined by object-array sums; each sum
    writes over its operand, so one string per row is held at a time."""
    hits = pick.reshape(len(group.indices), -1)
    live = np.flatnonzero(hits.any(axis=1))
    labels = _term_labels(group.indices[live], group.signs)
    branches = np.array([_DRIVE_LABELS[b] + "," for b in group.branches],
                        dtype=object)
    lines = np.add.outer(f"{kind}," + labels, branches)
    coeffs = _formatted(np.abs(group.coefficients[live]))
    np.add(lines, coeffs[:, None, None], out=lines)
    lines = lines.reshape(len(live), -1)[hits[live]]
    return np.add(lines, tails, out=lines)


def cmd_rwa(args) -> int:
    cfg = load_config(args.config)
    circuit = _require_circuit(cfg)
    eff, spectrum = resolve_circuit(circuit)
    freqs = list(spectrum.frequencies)
    drive = _pump_tone(circuit, freqs)
    # every mask first, so the headers can count the rows
    groups = _classify_cavity(coupling_table(spectrum, eff),
                              circuit.squid.pump_amplitude, freqs, drive)
    n_resonant = sum(int(resonant.sum()) for _, _, resonant in groups)
    n_rows = sum(len(resonant) for _, _, resonant in groups)

    def write(kind: str, take_resonant: bool):
        # one writelines call per group and pass: the listing is never
        # held whole
        for group, w, resonant in groups:
            pick = resonant == take_resonant
            if pick.any():
                tails = ("\n" if take_resonant else
                         _formatted(w[pick], f",{FLOAT_FMT}\n"))
                sys.stdout.writelines(
                    _listing_lines(kind, group, pick, tails))

    sys.stdout.write(f"# pump = {FLOAT_FMT % drive}, tolerance = "
                     f"{FLOAT_FMT % default_tolerance(freqs)}\n"
                     f"# resonant terms: {n_resonant}\n")
    write("resonant", True)
    sys.stdout.write(f"# counter-rotating terms: {n_rows - n_resonant}\n")
    write("counter", False)
    return EXIT_OK


def cmd_run(args) -> int:
    cfg = load_config(args.config)
    config = build_scenario_config(cfg)
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
    cfg = load_config(args.config)
    config = build_scenario_config(cfg)
    cutoffs = sorted(int(c) for c in args.cutoffs.split(","))
    report = convergence_gate(config, cutoffs)
    doc = {"cutoffs": cutoffs, "deltas": report.deltas,
           "converged": report.converged,
           "threshold": CONVERGENCE_THRESHOLD}
    text = summary_json(doc)
    if args.out:
        atomic_write_text(args.out, text)
    else:
        sys.stdout.write(text)
    return EXIT_OK if report.converged else EXIT_NOT_CONVERGED


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: ``parse_args`` leaves it
    as it is, so repeated ``main`` calls share it."""
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
    p.set_defaults(func=cmd_rwa)

    p = sub.add_parser("run", help="run a scenario end to end")
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
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None, help=_IGNORED_SEED)
    p.add_argument("--cutoffs", required=True,
                   help="comma-separated cutoff list, e.g. 6,8,10")
    p.add_argument("--jobs", type=int, help="accepted and ignored (serial)")
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
