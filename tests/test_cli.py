"""Command-line interface tests: schema validation, exit codes,
deterministic and atomic output."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from triphoton.cli import build_parser, main
from triphoton.circuit import coupling_table
from triphoton.config import (
    _SCENARIO_KEYS,
    build_scenario_config,
    load_config,
    parse_config,
)
from triphoton.errors import ConfigError
from triphoton.rwa import (
    ANNIHILATE,
    CREATE,
    NUMBER,
    PAULI_MINUS,
    PAULI_PLUS,
    PAULI_Z,
    classify_terms,
    default_tolerance,
    driven_cavity_terms,
)
from triphoton.scenarios import DceParams, ScenarioConfig, resolve_circuit
from triphoton.hilbert import QuantumState, RegisterLayout, fock_state
from triphoton.serialize import (
    FLOAT_FMT,
    circuit_tables_json,
    load_state,
    save_state,
    series_csv,
    state_from_json,
    state_to_json,
)

from oracles import ghz_state, triple_superposition

REFERENCE = os.path.join(os.path.dirname(__file__), "..", "configs",
                         "reference.ini")
FREE = os.path.join(os.path.dirname(__file__), "..", "configs",
                    "free_cavity.ini")
CONFIGS = os.path.abspath(os.path.join(os.path.dirname(__file__), "..",
                                       "configs"))
SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


MINIMAL_CIRCUIT = """
[circuit]
ej1 = 6.1
ej2 = 4.99
c1 = 1e-13
c2 = 1e-13
flux_bias = 0.4
pump_amplitude = 0.05
length = 1.0
cap_per_len = 1000.0
ind_per_len = 1.0
"""


class TestConfigParsing:
    def test_minimal_circuit(self):
        cfg = parse_config(MINIMAL_CIRCUIT)
        assert cfg.circuit is not None
        assert cfg.circuit.squid.ej1 == 6.1
        assert cfg.circuit.e_bar_override is None

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config(MINIMAL_CIRCUIT + "mystery_knob = 2\n")

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError):
            parse_config(MINIMAL_CIRCUIT + "\n[plotting]\ncolor = red\n")

    def test_missing_required_key(self):
        broken = MINIMAL_CIRCUIT.replace("length = 1.0\n", "")
        with pytest.raises(ConfigError):
            parse_config(broken)

    def test_bad_value_type(self):
        with pytest.raises(ConfigError):
            parse_config(MINIMAL_CIRCUIT.replace("0.4", "fourish"))

    def test_scenario_round_trip(self):
        cfg = parse_config("""
[scenario]
name = dce-rabi
cutoff = 6
dce_coupling = 0.07
dce_periods = 10
""")
        sc = build_scenario_config(cfg)
        assert sc.name == "dce-rabi"
        assert sc.cutoff == 6
        assert sc.dce.coupling == 0.07
        assert sc.dce.periods == 10

    def test_cli_overrides(self):
        # seed and vlf_restarts are accepted and not read: nothing random
        # is left for them to set
        cfg = parse_config("[scenario]\nname = 3spdc\nseed = 1\n"
                           "vlf_restarts = 4\n")
        assert build_scenario_config(cfg) == ScenarioConfig(name="3spdc")

    def test_scenario_keys_are_the_config_fields(self):
        # each [scenario] key sets one field, and each field has one key;
        # seed and vlf_restarts are the inert keys the schema still takes
        fields = {f.name for f in dataclasses.fields(ScenarioConfig)}
        dce = {f"dce_{f.name}" for f in dataclasses.fields(DceParams)}
        assert set(_SCENARIO_KEYS) == (fields - {"circuit", "dce"}) | dce \
            | {"seed", "vlf_restarts"}

    def test_invalid_scenario_name(self):
        cfg = parse_config("[scenario]\nname = warp\n")
        with pytest.raises(ConfigError):
            build_scenario_config(cfg)

    @pytest.mark.parametrize("line", ["kerr = keep", "rtol = 1e-5",
                                      "atol = 1e-8", "pump_frequency = 1.0"])
    def test_removed_scenario_keys_rejected(self, line):
        # the integrator setting is fixed, no scenario reads a Kerr mode
        # and the pump tone is the [circuit] one, so these keys are unknown
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(f"[scenario]\nname = 3spdc\n{line}\n")

    @pytest.mark.parametrize("command, key, text", [
        ("run", "g0", "[scenario]\nname = 3spdc\ng0 = nan\nn_steps = 5\n"),
        ("run", "pair_coupling",
         "[scenario]\nname = 22spdc\npair_coupling = inf\nn_steps = 5\n"),
        ("run", "dce_coupling",
         "[scenario]\nname = dce-rabi\ndce_coupling = nan\ndce_periods = 2\n"),
        ("sweep", "horizon",
         "[scenario]\nname = 3spdc\ng0 = 1.0\nhorizon = inf\nn_steps = 5\n"),
        ("modes", "length",
         MINIMAL_CIRCUIT.replace("length = 1.0", "length = inf")),
        ("modes", "ej1", MINIMAL_CIRCUIT.replace("ej1 = 6.1", "ej1 = nan")),
        ("rwa", "cap_per_len", MINIMAL_CIRCUIT.replace(
            "cap_per_len = 1000.0", "cap_per_len = inf")),
    ], ids=["run-g0", "run-pair_coupling", "run-dce_coupling",
            "sweep-horizon", "modes-length", "modes-ej1", "rwa-cap_per_len"])
    def test_non_finite_number_exits_2_without_output(
            self, tmp_path, capsys, command, key, text):
        # NaN and +-inf parse as floats, but no key takes them: each is
        # rejected by name before anything runs or is written
        cfg = write(tmp_path, "bad.ini", text)
        out = tmp_path / "never"
        argv = {"run": ["--out", str(out)],
                "sweep": ["--cutoffs", "4,6", "--out", str(out)],
                "modes": ["--out", str(out)], "rwa": []}[command]
        assert main([command, "--config", cfg, *argv]) == 2
        captured = capsys.readouterr()
        assert f"bad value for {key!r}" in captured.err
        assert "not a finite number" in captured.err
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("field, line", [
        ("window_periods", "dce_window_periods = 0"),
        ("steps_per_period", "dce_steps_per_period = 0"),
        ("mode_freq", "dce_mode_freq = 0"),
        ("window_periods", "dce_window_periods = 30"),
        ("periods", "dce_periods = 0"),
        ("horizon", "horizon = 0"),
    ], ids=["window-zero", "steps-zero", "freq-zero", "window-too-long",
            "periods-zero", "horizon-zero"])
    def test_out_of_range_value_exits_2_without_output(
            self, tmp_path, capsys, field, line):
        # each would divide by zero, judge photon growth over no window,
        # or fail later under a name no config has; the field is named
        cfg = write(tmp_path, "bad.ini",
                    f"[scenario]\nname = dce-rabi\n{line}\n")
        out = tmp_path / "never"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert "invalid scenario parameters" in captured.err
        assert field in captured.err
        assert captured.out == ""
        assert not out.exists()


class TestModesCommand:
    def test_writes_spectrum_csv(self, tmp_path, capsys):
        out = str(tmp_path / "modes.csv")
        code = main(["modes", "--config", REFERENCE, "--n-modes", "4",
                     "--out", out])
        assert code == 0
        lines = Path(out).read_text().strip().splitlines()
        assert lines[0] == "n,k_n,omega_n,c_n,l_n,edge_amplitude"
        assert len(lines) == 5

    def test_free_cavity_harmonic_spectrum(self, tmp_path):
        out = str(tmp_path / "modes.csv")
        assert main(["modes", "--config", FREE, "--out", out]) == 0
        rows = [line.split(",") for line in
                Path(out).read_text().strip().splitlines()[1:]]
        omegas = [float(r[2]) for r in rows]
        base = omegas[0]
        for n, w in enumerate(omegas, start=1):
            assert w == pytest.approx(n * base, rel=1e-12)

    def test_byte_identical_reruns(self, tmp_path):
        out_a = str(tmp_path / "a.csv")
        out_b = str(tmp_path / "b.csv")
        main(["modes", "--config", REFERENCE, "--out", out_a])
        main(["modes", "--config", REFERENCE, "--out", out_b])
        assert Path(out_a).read_bytes() == Path(out_b).read_bytes()

    def test_malformed_config_exits_2_without_output(self, tmp_path):
        bad = write(tmp_path, "bad.ini", MINIMAL_CIRCUIT + "bogus = 1\n")
        out = str(tmp_path / "never.csv")
        assert main(["modes", "--config", bad, "--out", out]) == 2
        assert not os.path.exists(out)

    def test_singular_bias_exits_3_without_output(self, tmp_path, capsys):
        # cos(pi/2) is 6e-17, on the tan singularity of the bias
        bad = write(tmp_path, "bad.ini", MINIMAL_CIRCUIT.replace(
            "flux_bias = 0.4", f"flux_bias = {np.pi / 2!r}"))
        out = str(tmp_path / "never.csv")
        assert main(["modes", "--config", bad, "--out", out]) == 3
        assert "singularity" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_missing_circuit_section(self, tmp_path):
        cfg = write(tmp_path, "s.ini", "[scenario]\nname = 3spdc\n")
        assert main(["modes", "--config", cfg]) == 2


class TestRwaCommand:
    def test_reference_classification(self, capsys):
        assert main(["rwa", "--config", REFERENCE]) == 0
        out = capsys.readouterr().out
        resonant = [line for line in out.splitlines()
                    if line.startswith("resonant,")]
        # the only driven resonant content is the triple pair, plus the
        # static number-conserving quartics
        driven = [line for line in resonant if "e^{" in line]
        assert len(driven) == 12
        for line in driven:
            ops = sorted(line.split(",")[1].split(" e^{")[0].split())
            assert ops in (["a+_1", "a+_2", "a+_3"], ["a_1", "a_2", "a_3"])

    @pytest.fixture(params=["reference", "unpumped", "pair-pump"])
    def rwa_config(self, request, tmp_path):
        """reference.ini; with no pump amplitude, so the driven groups
        drop out; and pumped at w1 + w2, off the three-mode resonance."""
        text = Path(REFERENCE).read_text()
        if request.param == "unpumped":
            edit = ("pump_amplitude = 0.05", "pump_amplitude = 0.0")
        elif request.param == "pair-pump":
            _, spectrum = resolve_circuit(load_config(REFERENCE).circuit)
            pair = float(spectrum.frequencies[0] + spectrum.frequencies[1])
            edit = ("pump_frequency = 0.0", f"pump_frequency = {pair!r}")
        else:
            return REFERENCE
        assert edit[0] in text
        return write(tmp_path, "rwa.ini", text.replace(*edit))

    def test_rows_follow_classify_terms(self, capsys, rwa_config):
        # every listed row, in order, against the classification the
        # command prints: operator label, drive branch, |coefficient| and
        # the counter-rotating detuning
        circuit = load_config(rwa_config).circuit
        eff, spectrum = resolve_circuit(circuit)
        terms = driven_cavity_terms(coupling_table(spectrum, eff),
                                    circuit.squid.pump_amplitude,
                                    spectrum.n_modes)
        freqs = list(spectrum.frequencies)
        cls = classify_terms(terms, freqs, circuit.squid.pump_frequency
                             or float(np.sum(freqs)))
        expected = ([("resonant", term, ()) for term in cls.resonant]
                    + [("counter", term, (FLOAT_FMT % detuning,))
                       for term, detuning in cls.counter_rotating])
        assert main(["rwa", "--config", rwa_config]) == 0
        rows = [line.split(",") for line in
                capsys.readouterr().out.splitlines()
                if not line.startswith("#")]
        assert len(rows) == len(expected) > 0
        symbols = {CREATE: "a+", ANNIHILATE: "a", NUMBER: "n",
                   PAULI_PLUS: "s+", PAULI_MINUS: "s-", PAULI_Z: "sz"}
        branches = {1: " e^{+iwd t}", -1: " e^{-iwd t}", 0: ""}
        for row, (kind, term, detuning) in zip(rows, expected):
            ops = " ".join(f"{symbols[k]}_{i + 1}" for i, k in term.factors)
            label = (ops or "1") + branches[term.drive_sign]
            assert row == [kind, label, FLOAT_FMT % abs(term.coefficient),
                           *detuning]

    def test_listing_bytes_follow_classify_terms(self, capsys, rwa_config):
        # the whole listing, headers included, written out from
        # classify_terms one term at a time
        circuit = load_config(rwa_config).circuit
        eff, spectrum = resolve_circuit(circuit)
        terms = driven_cavity_terms(coupling_table(spectrum, eff),
                                    circuit.squid.pump_amplitude,
                                    spectrum.n_modes)
        freqs = list(spectrum.frequencies)
        drive = circuit.squid.pump_frequency or float(np.sum(freqs))
        cls = classify_terms(terms, freqs, drive)

        def row(kind, term):
            ops = " ".join(f"{'a+' if k == CREATE else 'a'}_{i + 1}"
                           for i, k in term.factors)
            branch = {1: " e^{+iwd t}", -1: " e^{-iwd t}", 0: ""}
            return (f"{kind},{ops}{branch[term.drive_sign]},"
                    f"{FLOAT_FMT % abs(term.coefficient)}")

        expected = "".join(
            [f"# pump = {FLOAT_FMT % drive}, tolerance = "
             f"{FLOAT_FMT % default_tolerance(freqs)}\n",
             f"# resonant terms: {len(cls.resonant)}\n"]
            + [row("resonant", term) + "\n" for term in cls.resonant]
            + [f"# counter-rotating terms: {len(cls.counter_rotating)}\n"]
            + [f"{row('counter', term)},{FLOAT_FMT % detuning}\n"
               for term, detuning in cls.counter_rotating])
        assert main(["rwa", "--config", rwa_config]) == 0
        out = capsys.readouterr().out
        assert out == expected
        # unpumped: the static n4~ group alone, with no drive branch
        assert ("e^{" in out) == (circuit.squid.pump_amplitude != 0.0)

    def test_circuit_pump_tone_is_listed(self, tmp_path, capsys):
        # rwa lists at the [circuit] tone, the one ``run`` checks
        text = Path(REFERENCE).read_text()
        assert "pump_frequency = 0.0\n" in text
        cfg = write(tmp_path, "pumped.ini", text.replace(
            "pump_frequency = 0.0\n", "pump_frequency = 123\n"))
        assert main(["rwa", "--config", cfg]) == 0
        assert capsys.readouterr().out.startswith("# pump = 123, ")
        assert main(["run", "--config", cfg, "--out",
                     str(tmp_path / "out")]) == 3
        assert "pump tone 123 does not match" in capsys.readouterr().err

    def test_degenerate_config_exits_3(self, capsys):
        assert main(["rwa", "--config", FREE]) == 3
        assert "multiple" in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["rwa", "--help"])
        assert info.value.code == 0


class TestRunCommand:
    @pytest.mark.parametrize("command, extra", [
        ("run", ["--out"]), ("sweep", ["--cutoffs", "2,3", "--out"])])
    def test_scenario_flag_rejected(self, tmp_path, capsys, command, extra):
        # the scenario is named in [scenario] only
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as info:
            main([command, "--config", REFERENCE, "--scenario", "3spdc",
                  *extra, str(out)])
        assert info.value.code == 2
        assert "--scenario" in capsys.readouterr().err
        assert not out.exists()

    def test_run_22spdc_writes_outputs(self, tmp_path):
        cfg = write(tmp_path, "fast.ini", """
[scenario]
name = 22spdc
n_steps = 9
""")
        out = str(tmp_path / "out")
        assert main(["run", "--config", cfg, "--out", out]) == 0
        summary = json.loads(Path(out, "summary.json").read_text())
        assert summary["scenario"] == "22spdc"
        assert summary["s_peak"] > 0
        header = Path(out, "trajectory.csv").read_text().splitlines()[0]
        for column in ("time", "n1", "triple_re", "g2", "s_opt"):
            assert column in header

    def test_seeded_reruns_identical(self, tmp_path):
        # --seed is accepted and ignored: the covariance witness, the one
        # optimizer in a run, is deterministic
        cfg = write(tmp_path, "fast.ini", """
[scenario]
name = 22spdc
n_steps = 7
""")
        out_a = str(tmp_path / "a")
        out_b = str(tmp_path / "b")
        assert main(["run", "--config", cfg, "--out", out_a,
                     "--seed", "1"]) == 0
        assert main(["run", "--config", cfg, "--out", out_b,
                     "--seed", "5"]) == 0
        summary = json.loads(Path(out_a, "summary.json").read_text())
        assert summary["s_peak"] > 0 and summary["s_undecided_points"] == 0
        for name in ("trajectory.csv", "summary.json"):
            a = Path(out_a, name).read_bytes()
            b = Path(out_b, name).read_bytes()
            assert a == b

    def test_scenario_name_required_somewhere(self, tmp_path):
        cfg = write(tmp_path, "none.ini", "[scenario]\nn_steps = 5\n")
        assert main(["run", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 2

    def test_nonconverged_run_exits_4(self, tmp_path):
        cfg = write(tmp_path, "hot.ini", """
[scenario]
name = 3spdc
g0 = 1.0
horizon = 1.5
cutoff = 4
n_steps = 9
""")
        out = str(tmp_path / "out")
        code = main(["run", "--config", cfg, "--out", out,
                     "--check-convergence"])
        assert code == 4
        summary = json.loads(Path(out, "summary.json").read_text())
        assert summary["converged"] is False


class TestWitnessCommand:
    def test_three_mode_state(self, tmp_path, capsys):
        state = triple_superposition(RegisterLayout.bosons(3, 3), 0.5)
        path = str(tmp_path / "state.json")
        save_state(state, path)
        assert main(["witness", "--state", path]) == 0
        out = capsys.readouterr().out
        lines = {line.split(",")[0]: line for line in out.splitlines()[1:]}
        assert lines["genuine_max"].split(",")[2] == "true"
        assert float(lines["genuine_max"].split(",")[1]) == \
            pytest.approx(0.2, rel=1e-9)

    def test_vacuum_not_detected(self, tmp_path, capsys):
        path = str(tmp_path / "vacuum.json")
        save_state(fock_state(RegisterLayout.bosons(3, 4), (0, 0, 0)), path)
        assert main(["witness", "--state", path]) == 0
        out = capsys.readouterr().out
        rows = {line.split(",")[0]: line.split(",") for line in
                out.splitlines()[1:]}
        assert float(rows["vlf_s_opt"][1]) == 0.0
        assert rows["vlf_s_opt"][2] == "false"

    def test_three_qubit_state(self, tmp_path, capsys):
        path = str(tmp_path / "ghz.json")
        save_state(ghz_state(RegisterLayout.qubits(3)), path)
        assert main(["witness", "--state", path]) == 0
        out = capsys.readouterr().out
        rows = {line.split(",")[0]: line.split(",") for line in
                out.splitlines()[1:]}
        assert float(rows["negativity_0|rest"][1]) == pytest.approx(0.5,
                                                                    abs=1e-9)

    def test_unusable_layout(self, tmp_path):
        lay = RegisterLayout.bosons(2, 2)
        path = str(tmp_path / "pair.json")
        save_state(fock_state(lay, (0, 0)), path)
        assert main(["witness", "--state", path]) == 2

    @pytest.mark.parametrize("text, message", [
        (None, "cannot read state"),
        ("{not json", "malformed state JSON"),
        ('{"layout": [["boson", 2]], "data": [[1, 0], [0, 0]]}',
         "no 'kind' key"),
        ('{"layout": [["boson", 2]], "kind": "mixed", "data": []}',
         "unknown state kind"),
        ('{"layout": [["boson", 2]], "kind": "pure", "data": [[1, 0]]}',
         "does not match register"),
        ('{"layout": 3, "kind": "pure", "data": []}', "malformed state"),
    ], ids=["missing", "not-json", "no-kind", "bad-kind", "bad-length",
            "bad-layout"])
    def test_bad_state_file_exits_2(self, tmp_path, capsys, text, message):
        path = tmp_path / "state.json"
        if text is not None:
            path.write_text(text)
        assert main(["witness", "--state", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    def test_unnormalized_state_exits_2(self, tmp_path, capsys):
        # the product ((|0> + |1>)/sqrt 2)^3 scaled to norm 1.1225: read
        # unchecked, the covariance witness called it genuinely entangled
        plus = np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0)
        vec = 1.1225 * np.kron(np.kron(plus, plus), plus)
        path = str(tmp_path / "product.json")
        save_state(QuantumState(RegisterLayout.bosons(3, 2), vec,
                                validate=False), path)
        assert main(["witness", "--state", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: malformed state JSON: ")
        assert "norm" in captured.err

    def test_restart_options_removed(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["witness", "--state", "s.json", "--restarts", "3"])
        assert info.value.code == 2


class TestSweepCommand:
    def test_converged_sweep(self, tmp_path):
        cfg = write(tmp_path, "s.ini", """
[scenario]
name = 3spdc
g0 = 1.0
n_steps = 9
""")
        out = str(tmp_path / "report.json")
        code = main(["sweep", "--config", cfg, "--cutoffs", "8,10",
                     "--out", out])
        assert code == 0
        doc = json.loads(Path(out).read_text())
        assert doc["converged"] is True
        assert doc["cutoffs"] == [8, 10]

    @pytest.mark.parametrize("horizon, cutoffs, code", [
        ("0.2", "8,10", 0), ("1.5", "4,6", 4)])
    def test_report_threshold_and_verdict(self, tmp_path, horizon, cutoffs,
                                          code):
        # the threshold is fixed; the verdict is "every final change is
        # below it"
        cfg = write(tmp_path, "s.ini", f"""
[scenario]
name = 3spdc
g0 = 1.0
horizon = {horizon}
n_steps = 9
""")
        out = str(tmp_path / "report.json")
        assert main(["sweep", "--config", cfg, "--cutoffs", cutoffs,
                     "--out", out]) == code
        doc = json.loads(Path(out).read_text())
        assert doc["threshold"] == 1e-6
        assert '"threshold": 1e-06' in Path(out).read_text()
        assert doc["converged"] is all(
            d[-1] < doc["threshold"] for d in doc["deltas"].values())
        assert doc["converged"] is (code == 0)

    @pytest.mark.parametrize("argv", [
        ["rwa", "--config", REFERENCE, "--tolerance", "1e-3"],
        ["sweep", "--config", REFERENCE, "--cutoffs", "4,6",
         "--threshold", "1e-3"]], ids=["rwa-tolerance", "sweep-threshold"])
    def test_fixed_settings_have_no_flag(self, tmp_path, capsys, argv):
        out = str(tmp_path / "report.json")
        extra = ["--out", out] if argv[0] == "sweep" else []
        with pytest.raises(SystemExit) as info:
            main(argv + extra)
        assert info.value.code == 2
        assert capsys.readouterr().out == ""
        assert not os.path.exists(out)

    def test_nonconverged_sweep_exit_code(self, tmp_path):
        cfg = write(tmp_path, "s.ini", """
[scenario]
name = 3spdc
g0 = 1.0
horizon = 1.5
n_steps = 9
""")
        assert main(["sweep", "--config", cfg, "--cutoffs", "4,6"]) == 4

    def test_jobs_accepted_and_ignored(self, tmp_path):
        cfg = write(tmp_path, "s.ini", """
[scenario]
name = 3spdc
g0 = 1.0
n_steps = 9
""")
        runs = []
        for jobs in ([], ["--jobs", "0"], ["--jobs", "1"], ["--jobs", "2"]):
            out = str(tmp_path / f"report{len(runs)}.json")
            code = main(["sweep", "--config", cfg, "--cutoffs", "4,6", *jobs,
                         "--out", out])
            runs.append((code, Path(out).read_bytes()))
        assert runs[1:] == runs[:1] * 3

    def test_repeated_cutoffs_rejected(self, tmp_path, capsys):
        out = str(tmp_path / "report.json")
        assert main(["sweep", "--config", os.path.join(CONFIGS, "hybrid.ini"),
                     "--cutoffs", "4,4", "--out", out]) == 2
        assert "strictly increasing" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_single_cutoff_rejected(self, tmp_path, capsys):
        out = str(tmp_path / "report.json")
        assert main(["sweep", "--config", os.path.join(CONFIGS, "hybrid.ini"),
                     "--cutoffs", "4", "--out", out]) == 2
        assert "need at least two cutoffs" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_pump_mismatch_exits_3_like_run(self, tmp_path, capsys):
        cfg = write(tmp_path, "s.ini", MINIMAL_CIRCUIT + """
pump_frequency = 123.0

[scenario]
name = 3spdc
n_steps = 5
""")
        out = str(tmp_path / "report.json")
        assert main(["run", "--config", cfg,
                     "--out", str(tmp_path / "run")]) == 3
        assert main(["sweep", "--config", cfg, "--cutoffs", "2,3",
                     "--out", out]) == 3
        assert "pump tone" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_22spdc_checks_the_circuit_pump_tone(self, tmp_path, capsys):
        # the [circuit] tone is the one rwa lists at; off both pair
        # resonances it stops 22spdc as it stops 3spdc
        cfg = write(tmp_path, "s.ini", MINIMAL_CIRCUIT + """
pump_frequency = 123.0

[scenario]
name = 22spdc
n_steps = 3
""")
        assert main(["run", "--config", cfg,
                     "--out", str(tmp_path / "run")]) == 3
        assert "pump tone 123 matches neither pair resonance" in \
            capsys.readouterr().err


class TestAuxiliaryOutputs:
    def test_tables_json(self, tmp_path):
        out = str(tmp_path / "modes.csv")
        tables = str(tmp_path / "tables.json")
        assert main(["modes", "--config", REFERENCE, "--out", out,
                     "--tables-json", tables]) == 0
        doc = json.loads(Path(tables).read_text())
        assert len(doc["spectrum"]["frequencies"]) == 3
        m3 = np.array(doc["coupling"]["m3_tilde"])
        assert m3.shape == (3, 3, 3)
        assert np.array_equal(m3, np.transpose(m3, (2, 0, 1)))

    def test_state_snapshots(self, tmp_path):
        cfg = write(tmp_path, "fast.ini", """
[scenario]
name = 3spdc
g0 = 1.0
n_steps = 5
""")
        out = str(tmp_path / "out")
        assert main(["run", "--config", cfg, "--out", out,
                     "--snapshot-times", "0,0.2"]) == 0
        first = load_state(os.path.join(out, "state_0.json"))
        assert abs(first.data[0]) == pytest.approx(1.0, abs=1e-12)
        last = load_state(os.path.join(out, "state_0.2.json"))
        assert abs(last.data[0]) < 1.0

    @pytest.mark.parametrize("times", ["0.5", "-0.1,0.1"])
    def test_snapshot_outside_the_run_rejected(self, tmp_path, capsys, times):
        out = tmp_path / "out"
        assert main(["run", "--config", REFERENCE, "--out", str(out),
                     f"--snapshot-times={times}"]) == 2
        assert "outside the run's span [0.0, 0.2]" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_witness_argmax_column(self, tmp_path, capsys):
        state = triple_superposition(RegisterLayout.bosons(3, 3), 0.5)
        path = str(tmp_path / "state.json")
        save_state(state, path)
        assert main(["witness", "--state", path]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "witness,value,detects,argmax_bipartition"
        row = [l for l in out.splitlines() if l.startswith("genuine_max,")][0]
        assert row.split(",")[3] in ("1", "2", "3")


SPECTRUM_FIELDS = ("wavenumbers", "frequencies", "mode_caps", "mode_inds",
                   "edge_amplitudes", "zero_point")
COUPLING_FIELDS = ("m1", "m2", "m3", "n4", "m4", "m1_tilde", "m2_tilde",
                   "m3_tilde", "n4_tilde", "m4_tilde")


def tables_doc(spectrum, table):
    """The record ``modes --tables-json`` writes, as plain lists."""
    return {"spectrum": {name: getattr(spectrum, name).tolist()
                         for name in SPECTRUM_FIELDS},
            "coupling": {name: getattr(table, name).tolist()
                         for name in COUPLING_FIELDS}}


def rowwise_csv(times, columns):
    """``series_csv`` formatted value by value, one row at a time."""
    headers, cols = ["time"], [np.asarray(times, dtype=float)]
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
        lines.append(",".join(FLOAT_FMT % v for v in row))
    return "\n".join(lines) + "\n"


# entries whose text differs from a plain decimal: signed zero, a tiny
# and a whole number, and the non-finite ones json writes as NaN/Infinity
SPECIAL = [-0.0, 1e-300, 1.0, np.nan, np.inf, -np.inf]


def awkward_array(rng, shape):
    """Seeded entries drawn from SPECIAL and from numbers over 60 decades."""
    pool = np.concatenate([SPECIAL, rng.normal(size=20)
                           * 10.0 ** rng.integers(-30, 30, size=20)])
    return rng.choice(pool, size=shape)


class TestEmitters:
    """The text emitters write the bytes of their plain forms."""

    @pytest.mark.parametrize("n_modes", [3, 4])
    def test_tables_json_is_json_dumps(self, n_modes):
        eff, spectrum = resolve_circuit(load_config(REFERENCE).circuit,
                                        n_modes)
        table = coupling_table(spectrum, eff)
        assert circuit_tables_json(spectrum, table) == json.dumps(
            tables_doc(spectrum, table), indent=2) + "\n"

    def test_tables_json_of_awkward_arrays(self):
        # ranks 1 to 4 with unequal axes, empty axes and a 0-d entry
        rng = np.random.default_rng(5)
        shapes = [(3,), (1,), (0,), (), (2, 0), (4,), (5,), (2, 3),
                  (3, 1, 2), (2, 2, 3, 2), (1, 4, 2, 3), (0, 2), (4, 4),
                  (2, 3, 4), (3, 3, 3, 3), (2, 1, 1, 5)]
        arrays = iter([awkward_array(rng, shape) for shape in shapes])
        spectrum = SimpleNamespace(**{n: next(arrays)
                                      for n in SPECTRUM_FIELDS})
        table = SimpleNamespace(**{n: next(arrays) for n in COUPLING_FIELDS})
        text = circuit_tables_json(spectrum, table)
        assert text == json.dumps(tables_doc(spectrum, table),
                                  indent=2) + "\n"
        for token in ("-0.0", "1e-300", "1.0", "NaN", "Infinity"):
            assert token in text

    def test_series_csv_is_rowwise(self):
        rng = np.random.default_rng(9)
        times = np.linspace(0.0, 0.3, 193)
        triple = awkward_array(rng, 193).astype(complex)
        triple.imag = awkward_array(rng, 193)
        columns = {"n1": awkward_array(rng, 193), "triple": triple,
                   "count": np.arange(193), "g2": rng.normal(size=193)}
        text = series_csv(times, columns)
        assert text == rowwise_csv(times, columns)
        assert text.splitlines()[0] == "time,n1,triple_re,triple_im,count,g2"
        assert series_csv(times, {}) == rowwise_csv(times, {})
        empty = {"n1": np.zeros(0)}
        assert series_csv(times[:0], empty) == rowwise_csv(times[:0], empty)


class TestParserReuse:
    """``main`` builds its parser once per process; no option of one call
    reaches the next."""

    FAST = "[scenario]\nname = 3spdc\ng0 = 1.0\nn_steps = 5\n"
    HOT = ("[scenario]\nname = 3spdc\ng0 = 1.0\nhorizon = 1.5\n"
           "cutoff = 4\nn_steps = 9\n")

    def test_one_parser(self):
        assert build_parser() is build_parser()

    def test_snapshot_times_do_not_carry_over(self, tmp_path):
        cfg = write(tmp_path, "fast.ini", self.FAST)
        first, second = tmp_path / "first", tmp_path / "second"
        assert main(["run", "--config", cfg, "--out", str(first),
                     "--snapshot-times", "0.1"]) == 0
        assert main(["run", "--config", cfg, "--out", str(second)]) == 0
        assert sorted(p.name for p in first.iterdir()) == [
            "state_0.1.json", "summary.json", "trajectory.csv"]
        assert sorted(p.name for p in second.iterdir()) == [
            "summary.json", "trajectory.csv"]

    def test_check_convergence_does_not_carry_over(self, tmp_path):
        cfg = write(tmp_path, "hot.ini", self.HOT)
        gated, plain = tmp_path / "gated", tmp_path / "plain"
        assert main(["run", "--config", cfg, "--out", str(gated),
                     "--check-convergence"]) == 4
        assert main(["run", "--config", cfg, "--out", str(plain)]) == 0
        summary = json.loads((plain / "summary.json").read_text())
        assert "converged" not in summary

    def test_help_twice(self, capsys):
        texts = []
        for _ in range(2):
            with pytest.raises(SystemExit) as info:
                main(["--help"])
            assert info.value.code == 0
            texts.append(capsys.readouterr().out)
        assert texts[0] == texts[1]
        assert texts[0].startswith("usage: triphoton")

    def test_bad_subcommand_between_good_calls(self, tmp_path, capsys):
        out = tmp_path / "modes.csv"
        argv = ["modes", "--config", REFERENCE, "--out", str(out)]
        assert main(argv) == 0
        text = out.read_text()
        out.unlink()
        with pytest.raises(SystemExit) as info:
            main(["bogus", "--config", REFERENCE])
        assert info.value.code == 2
        assert "invalid choice: 'bogus'" in capsys.readouterr().err
        assert main(argv) == 0
        assert out.read_text() == text


class TestStateSerialization:
    def test_pure_round_trip(self):
        state = triple_superposition(RegisterLayout.bosons(3, 2), 0.3)
        again = state_from_json(state_to_json(state))
        assert again.layout == state.layout
        assert np.allclose(again.data, state.data)

    def test_density_round_trip(self, tmp_path):
        state = ghz_state(RegisterLayout.qubits(3)).to_density()
        path = str(tmp_path / "rho.json")
        save_state(state, path)
        again = load_state(path)
        assert not again.is_pure
        assert np.allclose(again.data, state.data)


class TestColdStart:
    """scipy loads only on the path that calls it: ``scipy.sparse`` for
    Magnus runs on sectors above ``SPARSE_EVOLVE_LIMIT`` states or with
    two or more envelope groups. ``scipy.integrate``
    never loads, and no process pool does: a sweep runs its cutoffs one
    after another, whatever ``--jobs`` says. ``modes`` and ``rwa`` load
    none of them.

    The suite itself imports scipy, so each check runs in a fresh
    interpreter and reads back what it had loaded.
    """

    LAZY = ("scipy.integrate", "scipy.sparse", "concurrent.futures.process")

    def fresh(self, body: str) -> dict:
        """Run ``body`` after ``import triphoton, triphoton.cli`` in a new
        interpreter; it sets ``result``, which comes back with the lazy
        modules then loaded under ``"loaded"``."""
        script = (f"import json, sys\nimport triphoton, triphoton.cli\n"
                  f"{body}\nresult['loaded'] = [m for m in {self.LAZY!r} "
                  f"if m in sys.modules]\nprint(json.dumps(result))\n")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [SRC, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout.splitlines()[-1])

    def run(self, tmp_path, *names) -> dict:
        """``triphoton run`` on each shipped config, in one interpreter."""
        runs = [(os.path.join(CONFIGS, n), str(tmp_path / n)) for n in names]
        return self.fresh(
            "result = {'codes': [triphoton.cli.main(['run', '--config', c, "
            f"'--out', o]) for c, o in {runs!r}]}}")

    def test_static_runs_load_neither_scipy_nor_the_pool(self, tmp_path):
        result = self.run(tmp_path, "reference.ini", "spdc22.ini",
                          "hybrid.ini")
        assert result == {"codes": [0, 0, 0], "loaded": []}

    def test_driven_run_loads_no_scipy(self, tmp_path):
        # the propagator is numpy alone; the 9-state sector stays dense
        result = self.run(tmp_path, "dce.ini")
        assert result == {"codes": [0], "loaded": []}
        summary = json.loads((tmp_path / "dce.ini" / "summary.json")
                             .read_text())
        assert summary["diagnostics"]["path"] == "magnus-dense"
        assert summary["diagnostics"]["exponentials"] == 18_432

    def test_modes_and_rwa_load_no_scipy(self, tmp_path):
        out = str(tmp_path / "modes.csv")
        result = self.fresh(
            "result = {'codes': [triphoton.cli.main(['modes', '--config', "
            f"{REFERENCE!r}, '--n-modes', '4', '--out', {out!r}]), "
            f"triphoton.cli.main(['rwa', '--config', {REFERENCE!r}])]}}")
        assert result == {"codes": [0, 0], "loaded": []}

    def test_sweep_jobs_loads_no_pool(self, tmp_path):
        out = str(tmp_path / "report.json")
        result = self.fresh(
            "result = {'code': triphoton.cli.main(['sweep', '--config', "
            f"{os.path.join(CONFIGS, 'hybrid.ini')!r}, '--cutoffs', '4,6', "
            f"'--jobs', '2', '--out', {out!r}])}}")
        assert result == {"code": 4, "loaded": []}
        assert json.loads(Path(out).read_text())["cutoffs"] == [4, 6]

    def test_large_sector_loads_sparse(self):
        result = self.fresh("""
from triphoton.dynamics import (SPARSE_EVOLVE_LIMIT, Cosine,
                                HamiltonianSpec, evolve)
import numpy as np
from triphoton.hilbert import RegisterLayout, _basis_matrix, fock_state
from triphoton.rwa import ANNIHILATE, CREATE, NUMBER, LadderMonomial
layout = RegisterLayout.bosons(1, SPARSE_EVOLVE_LIMIT + 8)
number = LadderMonomial(((0, NUMBER),), 1.0)
_basis_matrix([number], layout, np.arange(layout.total_dim))
result = {'sparse_after_dense_build': 'scipy.sparse' in sys.modules}
drive = [(LadderMonomial(((0, kind),), 0.01), Cosine(1.0, 1.0))
         for kind in (CREATE, ANNIHILATE)]
grid = [0.0, 0.05, 0.1]
traj = evolve(HamiltonianSpec([number], drive), fock_state(layout, (0,)),
              grid)
result['diagnostics'] = traj.diagnostics
result['limit'] = SPARSE_EVOLVE_LIMIT
# the same drive on a register small enough for the dense route; the
# displacement stays far below its top level, so the low levels agree
small = RegisterLayout.bosons(1, SPARSE_EVOLVE_LIMIT - 1)
low = evolve(HamiltonianSpec([number], drive), fock_state(small, (0,)),
             grid)
result['small_path'] = low.diagnostics['path']
result['low_levels'] = float(abs(
    traj.columns[:SPARSE_EVOLVE_LIMIT] - low.columns).max())
result['high_levels'] = float(abs(traj.columns[SPARSE_EVOLVE_LIMIT:]).max())
""")
        assert result["sparse_after_dense_build"] is False
        assert result["loaded"] == ["scipy.sparse"]
        assert result["diagnostics"]["path"] == "magnus-taylor"
        assert result["diagnostics"]["evolved_dim"] > result["limit"]
        assert result["small_path"] == "magnus-dense"
        assert result["low_levels"] <= 1e-13
        assert result["high_levels"] <= 1e-30


def test_top_level_help(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--help"])
    assert info.value.code == 0
    out = capsys.readouterr().out
    for name in ("modes", "rwa", "run", "witness", "sweep"):
        assert name in out
