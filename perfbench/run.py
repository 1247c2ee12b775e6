"""triphoton benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload spdc3 --seed 1 --seconds 12 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
With ``--trace 0`` it prints the end-to-end metrics (run_s, setup_s,
peak_rss_mb, and fail_frac on its own line); with ``--trace 1`` the
per-layer metrics of a traced run. The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
See perfbench/README.md for the workloads and the metric map.

This launcher imports neither numpy nor triphoton. It writes the derived
configs and runs the workload in one worker process with one BLAS
thread; see worker.py for what is timed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import workloads  # noqa: E402

WORKER_GRACE_S = 120  # beyond --seconds: warm-up, last iteration, set-up
BLAS_THREADS = "1"


def _child_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    env["PYTHONHASHSEED"] = "0"
    # cached bytecode, as an installed CLI has it
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def _run(cmd, env, timeout) -> int:
    """Run a child to completion; on timeout kill it and wait for it."""
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise


def _tail_percentile(samples: list[float]) -> str:
    """Highest nearest-rank percentile with at least ten samples above it."""
    n = len(samples)
    if n < 11:
        return f"none (n={n}; needs n >= 11)"
    rank = n - 10
    return f"p{100.0 * rank / n:.0f} = {sorted(samples)[rank - 1]:.6f} s"


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    needed = ["BENCHMARK.json", os.path.join("src", "triphoton", "cli.py")]
    needed += [os.path.join("configs", name) for name in
               ("reference.ini", "spdc22.ini", "dce.ini", "hybrid.ini")]
    missing = [p for p in needed if not os.path.isfile(os.path.join(root, p))]
    if missing:
        return _fail(f"not a triphoton checkout (missing {missing}); "
                     f"run from the repository root")

    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-",
                            dir=os.path.join(HERE, "out"))
    try:
        return _measure(args, root, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _measure(args, root: str, work: str) -> int:
    with open(os.path.join(root, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    workloads.write_configs(args.workload, root, work)
    env = _child_env(root)
    worker = [sys.executable, os.path.join(HERE, "worker.py")]
    common = ["--workload", args.workload, "--root", root, "--work", work]

    result_path = os.path.join(work, "result.json")
    code = _run(worker + ["measure"] + common + [
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--result", result_path],
        env, args.seconds + WORKER_GRACE_S)
    if code != 0:
        return _fail(f"worker exited with {code}")
    with open(result_path) as handle:
        res = json.load(handle)

    attempted, failed = res["attempted"], res["failed"]
    print(f"workload {args.workload}  seed {args.seed}  "
          f"seconds {args.seconds:g}  trace {args.trace}")
    print("env " + json.dumps(res["env"], sort_keys=True))
    for name, value in sorted(res["notes"].items()):
        print(f"output {name} = {value!r}")
    for failure in res["failures"]:
        print(f"failed iteration: {failure}")
    print(f"fail_frac = {failed / attempted:.6g} (ratio; {failed} of "
          f"{attempted} iterations failed, warm-up included)")

    if args.trace:
        values = res["per_layer"]
        print(f"traced pairs {res['pairs']}; work counters repeat across "
              f"them: {res['counters_repeat']}")
    else:
        samples, setup_s = res["samples"], res["setup_s"]
        values = {"run_s": statistics.median(samples),
                  "setup_s": statistics.median(setup_s),
                  "peak_rss_mb": res["peak_rss_mb"]}
        print(f"run_s samples n={len(samples)}: "
              + " ".join(f"{v:.4f}" for v in samples))
        print(f"run_s tail: {_tail_percentile(samples)}")
        print(f"setup_s samples n={len(setup_s)}: "
              + " ".join(f"{v:.4f}" for v in setup_s))
    # names and units as BENCHMARK.json declares them
    declared = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    for name, m in metrics.items():
        print(f"{name} = {m['value']!r} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
