"""Workload process of the benchmark; ``run.py`` starts it.

    worker.py setup   --workload W --root R --work D
    worker.py measure --workload W --root R --work D --seed N
                      --seconds S --trace 0|1 --result FILE

``setup`` is what a fresh CLI process pays before useful work: import
``triphoton.cli``, load the workload's configs and run the first-call
warm-up (the workload's commands on mini configs). ``measure`` times
five such processes from the outside.

``measure`` runs one untimed warm-up iteration, then a closed loop with
one client: the next iteration starts when the previous one ended,
until ``--seconds`` have passed, with the set-up samples taken between
iterations. Every iteration is checked. With
``--trace 1`` each iteration is a pair, untraced then traced, and the
per-layer numbers come from the traced halves. The result is written as
JSON to ``--result``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

import tracing
import workloads

SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 30


def _import_cli(root: str):
    src = os.path.join(root, "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    import triphoton.cli
    return triphoton.cli


def _run_commands(cli, cmds) -> tuple[dict, dict]:
    exits, stdout = {}, {}
    for label, argv in cmds:
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                exits[label] = cli.main(argv)
        except Exception:  # an iteration that raises is a failed one
            exits[label] = "exception"
            traceback.print_exc(file=sys.stderr)
        stdout[label] = out.getvalue()
    return exits, stdout


def setup(workload: str, root: str, work: str) -> int:
    cli = _import_cli(root)
    from triphoton.config import load_config
    for path in workloads.config_paths(workload, root, work).values():
        load_config(path)
    cmds = workloads.commands(workload, root, work, seed=1, mini=True)
    exits, _ = _run_commands(cli, cmds)
    # exit 4: the mini sweep (cutoffs 2,3) is not converged, as expected
    return 0 if all(code in (0, 4) for code in exits.values()) else 1


class Iterations:
    """Runs, times and checks iterations of one workload."""

    def __init__(self, workload, root, work, seed, tamper=None):
        self.workload, self.work = workload, work
        self.cli = _import_cli(root)
        self.cmds = workloads.commands(workload, root, work, seed)
        self.tamper = tamper  # test hook: edits outputs before the check
        self.attempted = 0
        self.failures: list[str] = []
        self.notes: dict = {}

    def run(self, tracer=None) -> float:
        """One iteration; returns its wall time in seconds. The check
        runs after the clock stops."""
        if tracer is not None:
            tracer.reset()
        start = perf_counter()
        if tracer is None:
            exits, stdout = _run_commands(self.cli, self.cmds)
        else:
            exits, stdout = tracer.span("bench", self._traced_commands,
                                        tracer)
        elapsed = perf_counter() - start
        if self.tamper is not None:
            self.tamper(os.path.join(self.work, "out"))
        bad, notes = workloads.check(self.workload, self.work, exits, stdout)
        self.attempted += 1
        if bad:
            self.failures.append("; ".join(bad))
            print(f"iteration {self.attempted} failed: {bad}",
                  file=sys.stderr)
        self.notes = notes
        return elapsed

    def _traced_commands(self, tracer):
        exits, stdout = {}, {}
        for label, argv in self.cmds:
            tracer.label = label
            e, o = _run_commands(self.cli, [(label, argv)])
            exits.update(e)
            stdout.update(o)
        return exits, stdout


def _per_layer(tracer, traced_s: float) -> dict:
    """Per-layer metrics of the traced iteration held by ``tracer``."""
    s, n, c = tracer.self_s, tracer.calls, tracer.counters
    points = sorted(tracer.point_latencies_ms())
    restarts = c["restarts"]
    return {
        "circuit.s": s["circuit"], "circuit.calls": n["circuit"],
        "rwa.s": s["rwa"], "rwa.terms": c["rwa_terms"],
        "hilbert.build_s": s["hilbert.build"],
        "hilbert.build_calls": n["hilbert.build"],
        "hilbert.max_dim": c["max_dim"],
        "hilbert.moment_s": s["hilbert.moment"],
        "hilbert.moment_calls": n["hilbert.moment"],
        "hilbert.partial_trace_s": s["hilbert.partial_trace"],
        "hilbert.other_s": s["hilbert.other"],
        "dynamics.evolve_s": s["dynamics.evolve"],
        "dynamics.rhs_evals": c["rhs_evals"],
        "dynamics.norm_drift": c["norm_drift"],
        "witnesses.vlf_s": s["witnesses.vlf"],
        "witnesses.vlf_calls": n["witnesses.vlf"],
        "witnesses.vlf_objective_evals": c["objective_evals"],
        "witnesses.vlf_restart_yield":
            c["restarts_at_best"] / restarts if restarts else 0.0,
        "witnesses.vlf_best": tracer.vlf_best.get("run", 0.0),
        "witnesses.vlf_best_default_seed":
            tracer.vlf_best.get("run-default-seed", 0.0),
        "witnesses.moment_s": s["witnesses.moment"],
        "witnesses.negativity_s": s["witnesses.negativity"],
        "witnesses.point_p50_ms": _quantile(points, 0.5),
        "witnesses.point_p90_ms": _quantile(points, 0.9),
        "witnesses.points": len(points),
        "scenarios.self_s": s["scenarios"],
        "scenarios.grid_points": c["grid_points"],
        "serialize.write_s": s["serialize.write"],
        "serialize.bytes": c["bytes"],
        "cli.self_s": s["cli"],
        "bench.self_s": s["bench"],
        "trace.self_sum_s": sum(s.values()),
        "trace.run_s": traced_s,
    }


def _quantile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank quantile; 0 for an empty list."""
    if not sorted_values:
        return 0.0
    return sorted_values[max(1, math.ceil(q * len(sorted_values))) - 1]


# Counters that must repeat exactly between runs with the same seed; the
# rest of the per-layer metrics are times or depend on the clock.
EXACT = ("circuit.calls", "rwa.terms", "hilbert.build_calls",
         "hilbert.max_dim", "hilbert.moment_calls", "dynamics.rhs_evals",
         "dynamics.norm_drift", "witnesses.vlf_calls",
         "witnesses.vlf_objective_evals", "witnesses.vlf_restart_yield",
         "witnesses.vlf_best", "witnesses.vlf_best_default_seed",
         "witnesses.points", "scenarios.grid_points", "serialize.bytes")


def _traced_loop(it: Iterations, seconds: float) -> dict:
    tracer = tracing.Tracer()
    untraced, layers = [], []
    deadline = perf_counter() + seconds
    while True:
        untraced.append(it.run())
        tracer.install()
        try:
            traced_s = it.run(tracer)
        finally:
            tracer.uninstall()
        layers.append(_per_layer(tracer, traced_s))
        if perf_counter() >= deadline:
            break
    per_layer = {}
    for name in layers[0]:
        if name in EXACT:
            per_layer[name] = layers[0][name]
        else:
            per_layer[name] = statistics.median(x[name] for x in layers)
    per_layer["trace.overhead_s"] = statistics.median(
        x["trace.run_s"] - u for x, u in zip(layers, untraced))
    repeats = all(x[name] == layers[0][name]
                  for x in layers for name in EXACT)
    return {"per_layer": per_layer, "pairs": len(layers),
            "counters_repeat": repeats}


def _setup_sample(workload: str, root: str, work: str) -> float:
    """Wall time of one fresh ``setup`` process."""
    cmd = [sys.executable, os.path.abspath(__file__), "setup", "--workload",
           workload, "--root", root, "--work", work]
    start = perf_counter()
    proc = subprocess.run(cmd, stdout=subprocess.DEVNULL,
                          timeout=SETUP_TIMEOUT_S)
    elapsed = perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"set-up process exited with {proc.returncode}")
    return elapsed


def _timed_loop(it: Iterations, seconds: float, root: str, work: str) -> dict:
    """Iterations until ``seconds`` have passed. The set-up samples are
    spread over the same window, between iterations, so that both
    metrics see the same machine."""
    samples, setup_s = [], []
    start = perf_counter()

    def due() -> int:
        done = (perf_counter() - start) / seconds if seconds > 0 else 1.0
        return min(SETUP_SAMPLES, math.ceil(SETUP_SAMPLES * done))

    while True:
        samples.append(it.run())
        while len(setup_s) < due():
            setup_s.append(_setup_sample(it.workload, root, work))
        if perf_counter() - start >= seconds:
            break
    while len(setup_s) < SETUP_SAMPLES:
        setup_s.append(_setup_sample(it.workload, root, work))
    return {"samples": samples, "setup_s": setup_s}


def measure(workload, root, work, seed, seconds, trace, tamper=None) -> dict:
    it = Iterations(workload, root, work, seed, tamper=tamper)
    it.run()  # warm-up: untimed, but checked and counted
    result: dict = {}
    if trace:
        result.update(_traced_loop(it, seconds))
    else:
        result.update(_timed_loop(it, seconds, root, work))
    result.update({
        "attempted": it.attempted,
        "failed": len(it.failures),
        "failures": it.failures[:5],
        "notes": it.notes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "env": environment(root),
    })
    return result


def _blas_threads() -> dict:
    """Thread count of every OpenBLAS mapped into this process."""
    found = {}
    try:
        with open("/proc/self/maps") as handle:
            libs = sorted({ln.split()[-1] for ln in handle
                           if "openblas" in ln.lower() and ".so" in ln})
    except OSError:
        return found
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[os.path.basename(lib)] = fn()
                break
    return found


def _git_commit(root: str) -> str:
    """HEAD commit read from .git, or "unknown" outside a git checkout."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(root: str) -> dict:
    import numpy
    import scipy
    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}) \
        .get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": _blas_threads(),
        "blas_env": {k: os.environ.get(k) for k in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                      "MKL_NUM_THREADS")},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "commit": _git_commit(root),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "measure"))
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--root", required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result")
    args = parser.parse_args(argv)
    if args.mode == "setup":
        return setup(args.workload, args.root, args.work)
    result = measure(args.workload, args.root, args.work, args.seed,
                     args.seconds, bool(args.trace))
    with open(args.result, "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
