"""State/report serialization and atomic file output.

State JSON schema: {"layout": [[kind, dim], ...], "kind": "pure" or
"density", "data": [[re, im], ...]} with the vector (or the row-major
flattened density matrix) in the big-endian basis order documented in
the register module. CSV numbers carry 17 significant digits so that
round-trips through text are lossless for doubles.
"""

from __future__ import annotations

import json
import math
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


def state_to_json(state: QuantumState) -> str:
    data = state.data.reshape(-1)
    return json.dumps({
        "layout": [[kind, dim] for kind, dim in state.layout.subsystems],
        "kind": "pure" if state.is_pure else "density",
        "data": [[float(v.real), float(v.imag)] for v in data],
    })


def state_from_json(text: str) -> QuantumState:
    """State from its JSON document; ``ConfigError`` when the text is not
    JSON, a key is missing or malformed, or the data is not a state (a
    vector of norm 1, or a Hermitian, positive density of trace 1)."""
    try:
        doc = json.loads(text)
        layout = RegisterLayout(tuple((k, int(d)) for k, d in doc["layout"]))
        flat = np.array([complex(re, im) for re, im in doc["data"]])
        if doc["kind"] not in ("pure", "density"):
            raise ValueError(f"unknown state kind {doc['kind']!r}")
        n = layout.total_dim
        data = flat if doc["kind"] == "pure" else flat.reshape(n, n)
        return QuantumState(layout, data)
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
    # each column formatted at once, then joined row by row
    texts = [map(FLOAT_FMT.__mod__, col.tolist()) for col in cols]
    return "\n".join([",".join(headers), *map(",".join, zip(*texts))]) + "\n"


def summary_json(summary: dict) -> str:
    return json.dumps(summary, indent=2, sort_keys=True) + "\n"


def _json_array(values: np.ndarray, level: int) -> str:
    """``json.dumps(values.tolist(), indent=2)`` as it reads ``level``
    levels deep in a document. Every entry's token comes from one call of
    json's C encoder on the flat list (its ``NaN`` and ``Infinity``
    included); the tokens are then joined axis by axis, innermost first,
    with the line breaks and indents of ``indent=2``."""
    texts = (json.dumps(values.ravel().tolist())[1:-1].split(", ")
             if values.size else [])
    for axis in reversed(range(values.ndim)):
        n = values.shape[axis]
        if n == 0:
            texts = ["[]"] * math.prod(values.shape[:axis])
            continue
        inner = "\n" + "  " * (level + axis + 1)
        outer = "\n" + "  " * (level + axis) + "]"
        sep = "," + inner
        texts = ["[" + inner + sep.join(texts[i:i + n]) + outer
                 for i in range(0, len(texts), n)]
    return texts[0]


def _json_document(doc: dict, level: int = 0) -> str:
    """``json.dumps(doc, indent=2)`` of nested dicts with array leaves."""
    inner = "\n" + "  " * (level + 1)
    items = [f"{json.dumps(key)}: " + (
                 _json_document(value, level + 1) if isinstance(value, dict)
                 else _json_array(np.asarray(value), level + 1))
             for key, value in doc.items()]
    return "{" + inner + ("," + inner).join(items) + "\n" + "  " * level + "}"


def circuit_tables_json(spectrum, table) -> str:
    """Mode spectrum and coupling tensors as one JSON record, the bytes
    of ``json.dumps(doc, indent=2)`` written from the arrays."""
    doc = {
        "spectrum": {
            name: getattr(spectrum, name)
            for name in ("wavenumbers", "frequencies", "mode_caps",
                         "mode_inds", "edge_amplitudes", "zero_point")
        },
        "coupling": {
            name: getattr(table, name)
            for name in ("m1", "m2", "m3", "n4", "m4", "m1_tilde",
                         "m2_tilde", "m3_tilde", "n4_tilde", "m4_tilde")
        },
    }
    return _json_document(doc) + "\n"


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
