"""State/report serialization and atomic file output.

State JSON schema: {"layout": [[kind, dim], ...], "kind": "pure" or
"density", "data": [[re, im], ...]} with the vector (or the row-major
flattened density matrix) in the big-endian basis order documented in
the register module. CSV numbers carry 17 significant digits so that
round-trips through text are lossless for doubles.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Mapping

import numpy as np

from .errors import ConfigError
from .hilbert import QuantumState, RegisterLayout

FLOAT_FMT = "%.17g"


def atomic_write_text(path: str, text: str):
    """Write via a temp file in the target directory plus rename, so a
    failure never leaves a partial file behind."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _fmt(x: float) -> str:
    return FLOAT_FMT % x


def state_to_json(state: QuantumState) -> str:
    data = state.data.reshape(-1)
    return json.dumps({
        "layout": [[kind, dim] for kind, dim in state.layout.subsystems],
        "kind": "pure" if state.is_pure else "density",
        "data": [[float(v.real), float(v.imag)] for v in data],
    })


def state_from_json(text: str) -> QuantumState:
    """State from its JSON document; ``ConfigError`` when the text is not
    JSON or a key is missing or malformed."""
    try:
        doc = json.loads(text)
        layout = RegisterLayout(tuple((k, int(d)) for k, d in doc["layout"]))
        flat = np.array([complex(re, im) for re, im in doc["data"]])
        if doc["kind"] not in ("pure", "density"):
            raise ValueError(f"unknown state kind {doc['kind']!r}")
        n = layout.total_dim
        data = flat if doc["kind"] == "pure" else flat.reshape(n, n)
        return QuantumState(layout, data, validate=False)
    except KeyError as exc:
        raise ConfigError(f"state JSON has no {exc} key") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"malformed state JSON: {exc}") from exc


def save_state(state: QuantumState, path: str):
    atomic_write_text(path, state_to_json(state))


def load_state(path: str) -> QuantumState:
    try:
        with open(path) as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read state {path!r}: {exc}") from exc
    return state_from_json(text)


def series_csv(times: np.ndarray, columns: Mapping[str, np.ndarray]) -> str:
    """Time plus named columns; complex series split into _re/_im."""
    headers = ["time"]
    cols = [np.asarray(times, dtype=float)]
    for name, values in columns.items():
        values = np.asarray(values)
        if np.iscomplexobj(values):
            headers.extend([f"{name}_re", f"{name}_im"])
            cols.extend([values.real, values.imag])
        else:
            headers.append(name)
            cols.append(values.astype(float))
    lines = [",".join(headers)]
    for row in zip(*cols):
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def summary_json(summary: dict) -> str:
    return json.dumps(summary, indent=2, sort_keys=True) + "\n"


def circuit_tables_json(spectrum, table) -> str:
    """Mode spectrum and coupling tensors as one JSON record."""
    doc = {
        "spectrum": {
            "wavenumbers": spectrum.wavenumbers.tolist(),
            "frequencies": spectrum.frequencies.tolist(),
            "mode_caps": spectrum.mode_caps.tolist(),
            "mode_inds": spectrum.mode_inds.tolist(),
            "edge_amplitudes": spectrum.edge_amplitudes.tolist(),
            "zero_point": spectrum.zero_point.tolist(),
        },
        "coupling": {
            name: getattr(table, name).tolist()
            for name in ("m1", "m2", "m3", "n4", "m4", "m1_tilde",
                         "m2_tilde", "m3_tilde", "n4_tilde", "m4_tilde")
        },
    }
    return json.dumps(doc, indent=2) + "\n"


def snapshot_states(trajectory, times, directory: str):
    """Dump the trajectory states nearest to the requested times as JSON
    files; returns the written paths. A time outside the run's span
    raises ``ConfigError`` before any file is written."""
    grid = np.asarray(trajectory.times)
    outside = [t for t in times if not grid[0] <= t <= grid[-1]]
    if outside:
        raise ConfigError(
            f"snapshot times {outside} lie outside the run's span "
            f"[{float(grid[0])!r}, {float(grid[-1])!r}]")
    paths = []
    for t in times:
        k = int(np.argmin(np.abs(grid - t)))
        path = os.path.join(directory, f"state_{grid[k]:g}.json")
        save_state(trajectory.state(k), path)
        paths.append(path)
    return paths
