"""Self-tests of the benchmark harness (about three minutes in all):

    python3 -m pytest perfbench/test_bench.py -q

- a tampered output makes its iteration fail, so fail_frac rises;
- work counters repeat exactly across two traced runs with one seed,
  and the layer self times sum to the traced iteration time;
- outside a checkout the benchmark exits non-zero without a result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import worker  # noqa: E402
import workloads  # noqa: E402


def _scratch() -> str:
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    return tempfile.mkdtemp(prefix="selftest-", dir=os.path.join(HERE, "out"))


def _edit_json(path: str, edit) -> None:
    with open(path) as handle:
        doc = json.load(handle)
    edit(doc)
    with open(path, "w") as handle:
        json.dump(doc, handle)


def _bump(key, by):
    def edit(doc):
        doc[key] += by
    return edit


def _raise_last_delta(doc):
    name = sorted(doc["deltas"])[0]
    doc["deltas"][name][-1] = 10 * doc["threshold"]


# One output value per workload pushed just outside its reference check.
TAMPER = {
    "spdc3": ("spdc3/summary.json", _bump("g2_peak", 2e-6)),
    "spdc22": ("spdc22/summary.json", _bump("g2_peak", 1e-3)),
    "dce-rabi": ("dce/summary.json", _bump("n_final", 2e-6)),
    "hybrid-sweep": ("sweep.json", _raise_last_delta),
}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tampered_output_raises_fail_frac(workload):
    rel, edit = TAMPER[workload]
    calls = []

    def tamper_second(out_dir):
        calls.append(out_dir)
        if len(calls) == 2:
            _edit_json(os.path.join(out_dir, rel), edit)

    work = _scratch()
    try:
        workloads.write_configs(workload, ROOT, work)
        res = worker.measure(workload, ROOT, work, seed=3, seconds=0,
                             trace=False, tamper=tamper_second)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    # warm-up untouched and passing, the timed iteration tampered
    assert res["attempted"] == 2
    assert res["failed"] == 1, res["failures"]


def _traced(workload: str, seed: int) -> dict:
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    doc = json.loads(out.stdout.strip().splitlines()[-1])
    assert doc["correct"] and doc["failed"] == 0
    return {k: v["value"] for k, v in doc["metrics"].items()}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_work_counters_repeat_exactly(workload):
    first, second = _traced(workload, 5), _traced(workload, 5)
    for name in worker.EXACT:
        assert first[name] == second[name], name
    for run in (first, second):
        assert run["trace.self_sum_s"] == pytest.approx(
            run["trace.run_s"], rel=1e-3)


def test_bare_directory_fails_without_result():
    bare = _scratch()
    try:
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "spdc3",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert out.returncode != 0
    assert out.stdout.strip() == ""
