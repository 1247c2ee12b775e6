"""Smoke tests for the tooling under scripts/: each script still runs
against the current API and reproduces what it shipped."""

import os
import runpy

from triphoton.config import build_scenario_config, load_config
from triphoton.scenarios import run_scenario

ROOT = os.path.join(os.path.dirname(__file__), "..")


def test_dce_tuning_scores_the_shipped_point():
    # configs/dce.ini is the DceParams default point at cutoff 8, as
    # chosen by this scan
    tuning = runpy.run_path(os.path.join(ROOT, "scripts", "dce_tuning.py"))
    scored = tuning["score"](tuning["DceParams"]())
    shipped = run_scenario(build_scenario_config(
        load_config(os.path.join(ROOT, "configs", "dce.ini"))))
    assert scored["ok"]
    assert scored["n_final"] == shipped.summary["n_final"]
