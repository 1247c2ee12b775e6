#!/usr/bin/env python3
"""Parameter search for the pair-production regime of the modulated
Rabi model.

Scans coupling strength and tone splitting, scoring each point on three
requirements at once: windowed photon growth that is monotone, qubit
excitation staying under its ceiling, and cutoff-insensitive
observables. The shipped configs/dce.ini values came from this scan.

Run:  python scripts/dce_tuning.py [--quick]
"""

import argparse

from triphoton.scenarios import DceParams, ScenarioConfig, run_scenario


def score(params: DceParams, cutoff: int = 8) -> dict:
    cfg = ScenarioConfig(name="dce-rabi", cutoff=cutoff, dce=params)
    s = run_scenario(cfg, check_convergence=True).summary
    # cutoff sensitivity of the photon number, from the run's own
    # (cutoff, cutoff + 2) gate
    dn = s["convergence_final_change"]["n"]
    return {
        "monotone": s["windowed_monotone"],
        "n_final": s["n_final"],
        "excitation": s["qubit_excitation_max"],
        "entropy": s["qubit_entropy_max"],
        "cutoff_change": dn,
        "ok": (s["windowed_monotone"]
               and s["qubit_excitation_max"] < 0.1
               and s["qubit_entropy_max"] < 0.1
               and dn < 1e-6),
    }


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--quick", action="store_true",
                        help="coarse grid only")
    args = parser.parse_args()

    couplings = [0.08, 0.1, 0.12] if args.quick else \
        [0.06, 0.08, 0.1, 0.12, 0.15, 0.2]
    deltas = [0.35] if args.quick else [0.25, 0.35, 0.45]

    print("coupling,delta,monotone,n_final,excitation,entropy,"
          "cutoff_change,ok")
    best = None
    for g in couplings:
        for d in deltas:
            p = DceParams(coupling=g, tone_delta=d)
            r = score(p)
            print(f"{g},{d},{r['monotone']},{r['n_final']:.5f},"
                  f"{r['excitation']:.5f},{r['entropy']:.5f},"
                  f"{r['cutoff_change']:.2e},{r['ok']}")
            if r["ok"] and (best is None or r["n_final"] > best[2]):
                best = (g, d, r["n_final"])
    if best:
        print(f"# best passing point: coupling={best[0]} delta={best[1]} "
              f"(n_final={best[2]:.5f})")
    else:
        print("# no grid point satisfied all requirements")


if __name__ == "__main__":
    main()
