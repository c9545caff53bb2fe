import hashlib
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from optomagnon.cli import (
    _FIELD_TYPES,
    COMMANDS,
    EXIT_DOMAIN_ERROR,
    EXIT_OK,
    EXIT_ORACLE_FAILURE,
    EXIT_PARSE_ERROR,
    EXIT_RUNTIME_ERROR,
    ConfigDomainError,
    ConfigParseError,
    load_config,
    main,
    parse_config_text,
    parse_sweep,
    write_table,
)
from optomagnon.fock import FockSpaceError
from optomagnon.montecarlo import EstimatorError
from optomagnon.protocol import ProtocolConfig, ProtocolRegimeWarning

COUNTING_CFG = ("pulse_mean_photons = 0.1\nstokes_probability = 0.1\n"
                "read_swap_angle_rad = 1.5707963267948966\n")

REFERENCE_CFG = """
# reference operating point
pulse_mean_photons = 0.01
stokes_probability = 0.01
magnon_frequency_hz = 7.0e9
temperature_k = 0.1
detector.efficiency = 1.0
detector.dark_click_probability = 0.0
read_swap_angle_rad = 0.2
"""


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# ---------------------------------------------------------------------------
# config loading


def test_empty_config_gives_reference_defaults(tmp_path):
    cfg = load_config(_write(tmp_path, "empty.cfg", ""))
    assert cfg.magnon_frequency_hz == 7.0e9
    assert cfg.temperature_k == 0.1
    assert cfg.pulse_mean_photons == 0.01
    assert cfg.stokes_probability == 0.01
    assert load_config(None) == cfg


def test_config_round_trip_fields(tmp_path):
    cfg = load_config(_write(tmp_path, "reference.cfg", REFERENCE_CFG))
    assert cfg.detector.efficiency == 1.0
    assert cfg.read_swap_angle_rad == 0.2


def test_config_domain_error_names_field():
    with pytest.raises(ConfigDomainError) as err:
        parse_config_text("temperature_k = -1\n")
    assert "temperature_k" in str(err.value)

    with pytest.raises(ConfigDomainError) as err:
        parse_config_text("frobnicate = 3\n")
    assert "frobnicate" in str(err.value)


def test_config_domain_error_names_the_whole_field_name():
    with pytest.raises(ConfigDomainError) as err:
        parse_config_text("stokes_probability = 0.01\nstokes_probability_b = 2\n")
    assert str(err.value).startswith("field 'stokes_probability_b':")


def test_config_parse_error_carries_line_number():
    with pytest.raises(ConfigParseError) as err:
        parse_config_text("pulse_mean_photons = 0.01\nthis line has no equals\n")
    assert "line 2" in str(err.value)


@pytest.mark.parametrize("first, second", [
    ("temperature_k = 0.1", "temperature_k = 0.2"),
    ("detector.efficiency = 0.9", "detector.efficiency = 0.9"),
    ("thermal_model = mixture_overlay", "thermal_model = squeezed_thermal  # again"),
])
def test_repeated_config_key_is_a_parse_error_naming_both_lines(tmp_path, capsys, first, second):
    key = first.split(" = ")[0]
    text = f"{first}\n# comment\n{second}\n"
    with pytest.raises(ConfigParseError) as err:
        parse_config_text(text)
    assert str(err.value) == f"line 3: key {key!r} repeated (first set on line 1)"
    assert _run(["witness-sweep", "--config", _write(tmp_path, "dup.cfg", text)]) \
        == EXIT_PARSE_ERROR
    assert capsys.readouterr().err == f"config parse error: {err.value}\n"


@pytest.mark.parametrize("key", ["herald_floor", "witness_divergence_epsilon", "detector.gain"])
def test_keys_outside_the_config_schema_are_unknown_fields(tmp_path, capsys, key):
    cfg = _write(tmp_path, "unknown.cfg", f"{key} = 1e-8\n")
    assert _run(["witness-sweep", "--config", cfg]) == EXIT_DOMAIN_ERROR
    assert capsys.readouterr().err == f"domain error: unknown config field {key!r} (line 1)\n"


def _readme_config_block():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```ini\n(.*?)```", text, flags=re.S)
    assert len(blocks) == 1
    return blocks[0]


def test_readme_config_block_gives_the_default_config():
    assert parse_config_text(_readme_config_block()) == ProtocolConfig()


def test_readme_config_block_names_only_config_fields():
    keys = re.findall(r"^[#\s]*([\w.]+)\s*=", _readme_config_block(), flags=re.M)
    assert "nbar_override" in keys  # the commented-out lines are checked too
    assert len(keys) == len(set(keys))
    assert set(keys) == set(_FIELD_TYPES)


def test_config_with_a_utf8_byte_order_mark_reads_as_without(tmp_path):
    outs = []
    for prefix in (b"", b"\xef\xbb\xbf"):
        cfg = tmp_path / "bom.cfg"
        cfg.write_bytes(prefix + b"temperature_k = 0.2\n")
        out = tmp_path / "o.csv"
        assert _run(["witness-sweep", "--config", str(cfg), "--grid-points", "2",
                     "--out", str(out)]) == EXIT_OK
        outs.append(out.read_bytes())
    assert outs[1] == outs[0]


def test_sweep_spec_parsing(capsys):
    field, values = parse_sweep("temperature_k:0.05:0.1:3")
    assert field == "temperature_k"
    assert list(values) == [0.05, 0.07500000000000001, 0.1]
    with pytest.raises(ConfigDomainError):
        parse_sweep("temperature_k:0:1")
    # the sweep's owner, entangle_sweep, rejects any other field
    assert _run(["fidelity-sweep", "--sweep", "herald_detector_index:1:2:2"]) == EXIT_DOMAIN_ERROR
    assert "for a thermal-ratio sweep use nbar_override = S/(1-S)" in capsys.readouterr().err
    with pytest.raises(ConfigDomainError):
        parse_sweep("temperature_k:0:1:0")


# ---------------------------------------------------------------------------
# commands


def _run(args):
    return main(args)


def test_fidelity_sweep_reference_rows(tmp_path):
    out = tmp_path / "fid.csv"
    code = _run(["fidelity-sweep", "--sweep", "temperature_k:0.05:0.1:2",
                 "--out", str(out)])
    assert code == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == "temperature_k,nbar,S,F_closed_form,F_pipeline"
    row_50mk = lines[1].split(",")
    row_100mk = lines[2].split(",")
    assert abs(float(row_50mk[3]) - 0.998) < 0.005
    assert abs(float(row_100mk[3]) - 0.93) < 0.005
    assert abs(float(row_100mk[3]) - float(row_100mk[4])) < 0.01


def test_fidelity_sweep_lifts_nothing_after_its_first_point(tmp_path, lifts, mode_operators):
    for model in ("mixture_overlay", "squeezed_thermal"):
        cfg = _write(tmp_path, "model.cfg", f"thermal_model = {model}\n")
        runs = []
        for sweep in ("temperature_k:0.05:0.05:1", "temperature_k:0.05:0.15:3"):
            start = len(lifts)
            assert _run(["fidelity-sweep", "--config", cfg, "--sweep", sweep,
                         "--out", str(tmp_path / "o.csv")]) == EXIT_OK
            runs.append(lifts[start:])
        assert runs[0], model
        assert runs[1] == runs[0], model
        assert len(set(runs[1])) == len(runs[1]), model
    assert mode_operators == []


def test_reference_point_exact_ops_lift_seven_blocks(tmp_path, lifts):
    # the front's two squeezers, pair phase and herald beamsplitter, the two read swaps, and
    # the closing beamsplitter once for every anti-Stokes photon-number shell
    for argv in (["witness-sweep"], ["oracle-compare", "--trials", "1000"]):
        start = len(lifts)
        assert _run(argv + ["--out", str(tmp_path / "o.csv")]) in (EXIT_OK, EXIT_ORACLE_FAILURE)
        assert len(lifts) - start == 7, argv


def test_fidelity_sweep_zero_thermal_row(tmp_path):
    out = tmp_path / "fid0.csv"
    code = _run(["fidelity-sweep", "--sweep", "nbar_override:0.0:0.0:1", "--out", str(out)])
    assert code == EXIT_OK
    row = out.read_text().splitlines()[1].split(",")
    assert abs(float(row[3]) - 1.0) < 1e-6
    assert abs(float(row[4]) - 1.0) < 1e-3


def test_temperature_sweep_under_nbar_override_is_a_domain_error(tmp_path, capsys):
    # nbar_override takes precedence, so every row would repeat the same point
    cfg = _write(tmp_path, "override.cfg", "nbar_override = 0.05\n")
    out = tmp_path / "o.csv"
    assert _run(["fidelity-sweep", "--config", cfg, "--sweep", "temperature_k:0.05:0.3:3",
                 "--out", str(out)]) == EXIT_DOMAIN_ERROR
    err = capsys.readouterr().err
    assert err.startswith("domain error: ")
    assert "temperature_k" in err and "nbar_override" in err
    assert not out.exists()
    assert _run(["fidelity-sweep", "--config", cfg, "--sweep", "nbar_override:0.05:0.3:3",
                 "--out", str(out)]) == EXIT_OK


def test_witness_sweep_has_entangled_row_and_is_deterministic(tmp_path):
    args = ["witness-sweep", "--grid-points", "9", "--out"]
    out1, out2 = tmp_path / "w1.csv", tmp_path / "w2.csv"
    assert _run(args + [str(out1)]) == EXIT_OK
    assert _run(args + [str(out2)]) == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()

    lines = out1.read_text().splitlines()
    assert lines[0] == "delta_phi,j,g2_A1Sj,g2_A2Sj,R_m,divergence_flag"
    finite = [float(row.split(",")[4]) for row in lines[1:]
              if row.split(",")[5] == "false"]
    assert finite and min(finite) < 1.0


def test_witness_sweep_json_mirrors_csv_fields(tmp_path):
    out = tmp_path / "w.json"
    assert _run(["witness-sweep", "--grid-points", "5", "--format", "json",
                 "--out", str(out)]) == EXIT_OK
    payload = json.loads(out.read_text())
    assert list(payload[0].keys()) == ["delta_phi", "j", "g2_A1Sj", "g2_A2Sj",
                                       "R_m", "divergence_flag"]
    # divergent points serialize their infinite value as null
    divergent_rows = [row for row in payload if row["divergence_flag"]]
    assert all(row["R_m"] is None for row in divergent_rows)


def test_witness_sweep_with_mc_columns(tmp_path, monkeypatch):
    cfg_text = ("pulse_mean_photons = 0.1\nstokes_probability = 0.1\n"
                "read_swap_angle_rad = 1.5707963267948966\n")
    cfg = _write(tmp_path, "boost.cfg", cfg_text)
    out = tmp_path / "wmc.csv"
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = _run(["witness-sweep", "--config", cfg, "--grid-points", "3",
                     "--trials", "2000", "--seed", "4", "--out", str(out)])
    assert code == EXIT_OK
    header = out.read_text().splitlines()[0]
    assert header.endswith("mc_g2_A1Sj,mc_g2_A1Sj_err,mc_g2_A2Sj,mc_g2_A2Sj_err,mc_R_m,mc_R_m_err")


def test_baseline_command_all_rows_flagged(tmp_path):
    out = tmp_path / "base.csv"
    assert _run(["baseline", "--grid-points", "5", "--out", str(out)]) == EXIT_OK
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    for row in rows:
        if row[5] == "false":
            assert float(row[4]) >= 1.0 - 1e-6


def test_mc_run_deterministic_across_workers(tmp_path):
    cfg = _write(tmp_path, "mc.cfg", "pulse_mean_photons = 0.05\nstokes_probability = 0.05\n")
    out1, out2 = tmp_path / "mc1.csv", tmp_path / "mc2.csv"
    base = ["mc-run", "--config", cfg, "--trials", "6000", "--seed", "12"]
    assert _run(base + ["--workers", "1", "--out", str(out1)]) == EXIT_OK
    assert _run(base + ["--workers", "3", "--out", str(out2)]) == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()
    assert out1.read_text().splitlines()[0] == "trial_index,stokes_click,antistokes_click"


def test_exit_codes(tmp_path):
    bad_parse = _write(tmp_path, "bad.cfg", "no equals sign here\n")
    assert _run(["witness-sweep", "--config", bad_parse]) == EXIT_PARSE_ERROR

    bad_domain = _write(tmp_path, "dom.cfg", "temperature_k = -2\n")
    assert _run(["witness-sweep", "--config", bad_domain]) == EXIT_DOMAIN_ERROR

    assert _run(["mc-run"]) == EXIT_DOMAIN_ERROR  # missing --trials
    assert _run(["fidelity-sweep"]) == EXIT_DOMAIN_ERROR  # missing --sweep
    assert _run(["oracle-compare"]) == EXIT_DOMAIN_ERROR  # missing --trials

    dead = _write(tmp_path, "dead.cfg", "pulse_mean_photons = 0.0\n")
    assert _run(["fidelity-sweep", "--config", dead,
                 "--sweep", "temperature_k:0.1:0.1:1"]) == EXIT_RUNTIME_ERROR


@pytest.mark.parametrize("config_text, message", [
    ("pulse_mean_photons = 0.5\nstokes_probability = 0.5\n",
     "squeezer tail 2.441e-04 exceeds bound 1.000e-05; raise cutoffs or lower r"),
    ("pulse_mean_photons = 2.0\nstokes_probability = 1.0\n", "pair probability 1.0 outside [0, 1)"),
])
def test_a_squeezer_the_config_makes_impossible_is_a_domain_error(tmp_path, capsys, config_text,
                                                                  message):
    cfg = _write(tmp_path, "squeeze.cfg", config_text)
    with pytest.warns(ProtocolRegimeWarning):
        code = _run(["fidelity-sweep", "--config", cfg, "--sweep", "temperature_k:0.1:0.1:1",
                     "--out", str(tmp_path / "o.csv")])
    assert code == EXIT_DOMAIN_ERROR
    assert capsys.readouterr().err == f"domain error: {message}\n"


@pytest.mark.parametrize("detector_line, message", [
    ("detector.efficiency = 0.0", "herald detector 1 clicks with probability 0.000e+00, "
                                  "below HERALD_FLOOR = 1.0e-12"),
    ("detector.dark_click_probability = 1.0", "herald detector 1 clicks with detector 2 silent with "
                                              "probability 0.000e+00, below HERALD_FLOOR = 1.0e-12"),
])
def test_each_herald_floor_is_a_runtime_error(tmp_path, capsys, detector_line, message):
    cfg = _write(tmp_path, "det.cfg", detector_line + "\n")
    assert _run(["fidelity-sweep", "--config", cfg, "--sweep", "temperature_k:0.1:0.1:1",
                 "--out", str(tmp_path / "o.csv")]) == EXIT_RUNTIME_ERROR
    assert capsys.readouterr().err == f"runtime error: {message}\n"


@pytest.mark.parametrize("line", ["nbar_override = 0", "temperature_k = 0"])
def test_product_thermal_baseline_at_zero_occupation_says_no_light_reaches_the_detectors(
        tmp_path, capsys, line):
    cfg = _write(tmp_path, "cold.cfg", line + "\n")
    assert _run(["baseline", "--config", cfg, "--grid-points", "3"]) == EXIT_RUNTIME_ERROR
    assert capsys.readouterr().err == (
        "runtime error: the product_thermal baseline at zero thermal occupation is the magnon "
        "vacuum, so no anti-Stokes light reaches the detectors; the classical_mixture baseline "
        "has light\n")
    assert _run(["baseline", "--config", cfg, "--grid-points", "3", "--baseline", "classical_mixture",
                 "--out", str(tmp_path / "o.csv")]) == EXIT_OK


def _env_with_src() -> dict:
    """The environment of a child Python that imports the package from this tree."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_a_stdout_closed_early_is_a_runtime_error_without_a_traceback():
    # 200000 records are megabytes, far past a pipe's buffer: the writer meets the closed end
    proc = subprocess.Popen([sys.executable, "-m", "optomagnon.cli", "mc-run", "--trials", "200000"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_env_with_src())
    assert proc.stdout.readline() == b"trial_index,stokes_click,antistokes_click\n"
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == EXIT_RUNTIME_ERROR
    assert "Traceback" not in err
    assert err.startswith("runtime error: output closed before the command finished")
    assert err.count("\n") == 1


def test_main_leaves_the_root_logger_as_it_found_it(tmp_path):
    # in a fresh process, since pytest puts its own handlers on the root logger
    probe = ("import logging, sys\n"
             "from optomagnon.cli import main\n"
             "root = logging.getLogger()\n"
             "before = (list(root.handlers), root.level)\n"
             "code = main(sys.argv[1:])\n"
             "print(code, len(before[0]), len(root.handlers), (list(root.handlers), root.level) == before)\n")
    argv = ["fidelity-sweep", "--sweep", "nbar_override:0.01:0.01:1", "--out", str(tmp_path / "o.csv")]
    printed = subprocess.run([sys.executable, "-c", probe, *argv], env=_env_with_src(),
                             capture_output=True, text=True, check=True).stdout
    assert printed == f"{EXIT_OK} 0 0 True\n"


def test_verbose_is_not_an_option(capsys):
    with pytest.raises(SystemExit) as caught:
        main(["fidelity-sweep", "--sweep", "temperature_k:0.1:0.1:1", "--verbose"])
    assert caught.value.code == 2  # argparse's usage error
    assert capsys.readouterr().err.endswith("error: unrecognized arguments: --verbose\n")


@pytest.mark.parametrize("error, code, message", [
    (FockSpaceError("lost trace"), EXIT_RUNTIME_ERROR, "runtime error: lost trace"),
    (EstimatorError("no trials"), EXIT_RUNTIME_ERROR, "runtime error: no trials"),
    (None, EXIT_DOMAIN_ERROR, "domain error: unknown output format 'xml'"),
])
def test_a_runner_error_exits_with_its_code(monkeypatch, capsys, error, code, message):
    def runner(config, fmt, out):
        if error is not None:
            raise error
        write_table(("a",), [(1,)], "xml", out)

    monkeypatch.setitem(COMMANDS, "mc-run", (runner, ()))
    assert _run(["mc-run"]) == code
    assert capsys.readouterr() == ("", message + "\n")


def test_a_failing_command_leaves_an_existing_out_unchanged(tmp_path):
    out = tmp_path / "o.csv"
    out.write_text("kept\n")
    dead = _write(tmp_path, "dead.cfg", "pulse_mean_photons = 0.0\n")
    assert _run(["fidelity-sweep", "--config", dead, "--sweep", "temperature_k:0.1:0.1:1",
                 "--out", str(out)]) == EXIT_RUNTIME_ERROR
    assert out.read_text() == "kept\n"
    assert sorted(path.name for path in tmp_path.iterdir()) == ["dead.cfg", "o.csv"]


def test_a_failing_oracle_report_replaces_out(tmp_path):
    # a low-count g2 row fails its 4-sigma band here (a known defect of the gate)
    cfg = _write(tmp_path, "oc.cfg", COUNTING_CFG + "temperature_k = 0.17143585626709526\n")
    out = tmp_path / "o.csv"
    out.write_text("kept\n")
    assert _run(["oracle-compare", "--config", cfg, "--trials", "200000",
                 "--seed", "1694927838", "--out", str(out)]) == EXIT_ORACLE_FAILURE
    assert out.read_text().splitlines()[0] == "observable,exact,mc_estimate,sigma,passed"
    assert sorted(path.name for path in tmp_path.iterdir()) == ["o.csv", "oc.cfg"]


def test_an_out_symlink_is_written_through_in_place(tmp_path):
    target, link = tmp_path / "target.csv", tmp_path / "link.csv"
    target.write_text("kept\n")
    link.symlink_to(target)
    assert _run(["baseline", "--grid-points", "2", "--out", str(link)]) == EXIT_OK
    assert link.is_symlink()
    assert target.read_text().startswith("delta_phi,j,")


@pytest.mark.parametrize("args", [
    ["fidelity-sweep", "--sweep", "temperature_k:0.1:0.1:1"],
    ["witness-sweep"], ["baseline"], ["mc-run", "--trials", "10"],
    ["oracle-compare", "--trials", "10"],
])
def test_unopenable_out_is_a_domain_error(tmp_path, capsys, args):
    out = tmp_path / "missing" / "o.csv"
    assert _run(args + ["--out", str(out)]) == EXIT_DOMAIN_ERROR
    err = capsys.readouterr().err
    assert err.startswith(f"domain error: cannot open --out {str(out)!r}: ")
    assert err.count("\n") == 1
    assert not out.parent.exists()


def test_oracle_compare_small_run(tmp_path):
    cfg = _write(tmp_path, "oc.cfg",
                 "pulse_mean_photons = 0.1\nstokes_probability = 0.1\n"
                 "read_swap_angle_rad = 1.5707963267948966\n")
    out = tmp_path / "oc.csv"
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = _run(["oracle-compare", "--config", cfg, "--trials", "20000",
                     "--seed", "6", "--out", str(out)])
    assert code == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == "observable,exact,mc_estimate,sigma,passed"
    names = [line.split(",")[0] for line in lines[1:]]
    assert names == ["herald_probability", "stokes_click_rate_d1", "stokes_click_rate_d2",
                     "antistokes_click_rate_d1", "antistokes_click_rate_d2",
                     "g2_A1S1", "g2_A2S1", "R_m"]
    assert all(line.split(",")[4] == "true" for line in lines[1:])


def test_oracle_compare_single_trial_report_is_well_formed(tmp_path):
    # one trial: wide sigmas, correlation rows marked not estimable,
    # nonzero exit because 4-sigma checks cannot pass without counts
    out = tmp_path / "oc1.csv"
    code = _run(["oracle-compare", "--trials", "1", "--seed", "3", "--out", str(out)])
    lines = out.read_text().splitlines()
    assert lines[0] == "observable,exact,mc_estimate,sigma,passed"
    assert len(lines) == 9
    assert code in (EXIT_OK, 5)


@pytest.mark.parametrize("trials, code, row", [
    # too few counts for an estimate
    (300, EXIT_ORACLE_FAILURE, "R_m,0.1500048747349587,,,false"),
    # the estimated denominator lies within two standard errors of zero
    (1000, EXIT_ORACLE_FAILURE, "R_m,0.1500048747349587,inf,nan,false"),
    (3000, EXIT_OK, "R_m,0.1500048747349587,0.14991600000000002,0.06174991835497761,true"),
])
def test_oracle_r_m_row_is_pinned_in_each_branch(tmp_path, trials, code, row):
    cfg = _write(tmp_path, "counting.cfg", COUNTING_CFG)
    out = tmp_path / "oc.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert _run(["oracle-compare", "--config", cfg, "--trials", str(trials), "--seed", "1",
                     "--out", str(out)]) == code
    assert out.read_text().splitlines()[-1] == row


def test_mc_run_bytes_are_pinned(tmp_path):
    # sha256 of these records as the per-record sampler wrote them, before
    # sampling moved to chunked count tables and streamed output
    cfg = _write(tmp_path, "counting.cfg", COUNTING_CFG)
    out = tmp_path / "mc.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = _run(["mc-run", "--config", cfg, "--trials", "10000", "--seed", "9",
                     "--out", str(out)])
    assert code == EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "30d76c6f0c6860c5c0c407c34439b7f0cf287e9c2d609cff6f384061dfa51030")


def test_mc_run_json_bytes_are_pinned(tmp_path):
    # sha256 of these records as the per-trial string writer wrote them,
    # before each chunk's text was assembled as numpy bytes
    cfg = _write(tmp_path, "counting.cfg", COUNTING_CFG)
    out = tmp_path / "mc.json"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = _run(["mc-run", "--config", cfg, "--trials", "10000", "--seed", "9",
                     "--format", "json", "--out", str(out)])
    assert code == EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "e4452ee52e89824e4e49e2aac2b3dcc995467df99762b70ab12adc06f8c546b3")


# The lossy cutoff-4 operating point at a temperature whose dark-fringe
# g2 (0.980158287732) carries about 4e-12 of the read engine's rounding.
LOSSY_C4_CFG = ("optical_cutoff = 4\nmagnon_cutoff = 4\npropagation_transmissivity_a = 0.8\n"
                "propagation_transmissivity_b = 0.8\ndetector.efficiency = 0.6\n"
                "detector.dark_click_probability = 0.0001\nmagnon_decay_delay_ratio = 0.1\n"
                "temperature_k = 0.026056639852347633\n")


@pytest.mark.parametrize("cfg_text, args, digest", [
    (LOSSY_C4_CFG, ["witness-sweep", "--grid-points", "5"],
     "dba07fc8f032a2356332258bb9cbcf411747e7358553a729964d13ea5560f635"),
    (REFERENCE_CFG, ["baseline", "--grid-points", "25", "--baseline", "classical_mixture"],
     "2187918d3935473f1b96a90bbcce3fea56e47c702acd7ce44d3a4ea98142c7e5"),
])
def test_exact_engine_bytes_are_pinned(tmp_path, cfg_text, args, digest):
    # sha256 of these outputs as the dense full-space read engine wrote them,
    # before the read stages were restricted to the blocks they pass on
    cfg = _write(tmp_path, "point.cfg", cfg_text)
    out = tmp_path / "out.csv"
    assert _run([args[0], "--config", cfg, *args[1:], "--out", str(out)]) == EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_oversized_cutoffs_exit_with_a_domain_error_naming_the_field(tmp_path, capsys):
    cfg = _write(tmp_path, "big.cfg", "optical_cutoff = 9\nmagnon_cutoff = 9\n")
    assert _run(["witness-sweep", "--config", cfg, "--out", str(tmp_path / "o.csv")]) \
        == EXIT_DOMAIN_ERROR
    assert "field 'optical_cutoff'" in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    ["witness-sweep", "--grid-points", "5", "--trials", "2000", "--seed", "4"],
    ["oracle-compare", "--trials", "20000", "--seed", "6"],
])
def test_sampler_commands_build_the_front_state_once(tmp_path, monkeypatch, args):
    from optomagnon import protocol

    calls = []
    original = protocol.entangle_front_state

    def counted(config):
        calls.append(config)
        return original(config)

    monkeypatch.setattr(protocol, "entangle_front_state", counted)
    cfg = _write(tmp_path, "counting.cfg", COUNTING_CFG)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = _run([args[0], "--config", cfg, *args[1:], "--out", str(tmp_path / "o.csv")])
    assert code == EXIT_OK
    assert len(calls) == 1


@pytest.mark.parametrize("args, builds", [
    (["witness-sweep", "--grid-points", "5", "--trials", "2000", "--seed", "4"], 5),
    (["oracle-compare", "--trials", "20000", "--seed", "6"], 1),
])
def test_sampler_commands_build_one_click_table_per_phase(tmp_path, monkeypatch, args, builds):
    # the report, the sampler and each click g2 read one table per JointStatistics
    from optomagnon.protocol import JointStatistics

    calls = []
    build = JointStatistics._click_table.func

    def counted(stats):
        calls.append(stats.delta_phi)
        return build(stats)

    monkeypatch.setattr(JointStatistics._click_table, "func", counted)
    cfg = _write(tmp_path, "counting.cfg", COUNTING_CFG)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = _run([args[0], "--config", cfg, *args[1:], "--out", str(tmp_path / "o.csv")])
    assert code == EXIT_OK
    assert len(calls) == builds
    assert len(set(calls)) == builds  # one per phase


@pytest.mark.parametrize("args, flag", [
    (["witness-sweep", "--grid-points", "-1"], "--grid-points"),
    (["baseline", "--grid-points", "-2"], "--grid-points"),
    (["witness-sweep", "--trials", "-5"], "--trials"),
])
def test_negative_counts_are_domain_errors(capsys, args, flag):
    assert _run(args) == EXIT_DOMAIN_ERROR
    assert flag in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    ["mc-run", "--trials", "10", "--seed", "-1"],
    ["oracle-compare", "--trials", "100", "--seed", "-3"],
    ["witness-sweep", "--grid-points", "3", "--trials", "100", "--seed", "-2"],
])
def test_negative_seed_is_a_domain_error_naming_the_flag(tmp_path, capsys, args):
    assert _run(args + ["--out", str(tmp_path / "o.csv")]) == EXIT_DOMAIN_ERROR
    assert "--seed must be >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["mc-run", "oracle-compare", "witness-sweep"])
def test_negative_config_seed_is_a_domain_error_naming_the_field(tmp_path, capsys, command):
    cfg = _write(tmp_path, "seed.cfg", "rng_seed = -4\n")
    assert _run([command, "--config", cfg, "--trials", "10",
                 "--out", str(tmp_path / "o.csv")]) == EXIT_DOMAIN_ERROR
    assert "field 'rng_seed': rng_seed must be >= 0" in capsys.readouterr().err


def test_witness_sweep_zero_count_phases_leave_mc_cells_empty(tmp_path):
    # at the reference point a Stokes click comes once in ~2e4 trials, so
    # 2000 trials per phase leave phases with zero counts
    args = ["witness-sweep", "--grid-points", "5", "--trials", "2000", "--seed", "7"]
    csv_out, json_out = tmp_path / "w.csv", tmp_path / "w.json"
    assert _run(args + ["--out", str(csv_out)]) == EXIT_OK
    assert _run(args + ["--format", "json", "--out", str(json_out)]) == EXIT_OK
    rows = [line.split(",") for line in csv_out.read_text().splitlines()[1:]]
    payload = json.loads(json_out.read_text())
    assert len(rows) == len(payload) == 5
    mc_columns = [key for key in payload[0] if key.startswith("mc_")]
    assert len(mc_columns) == 6
    empty = [k for k, row in enumerate(rows) if row[6:] == [""] * 6]
    assert empty
    assert all(k in empty or "" not in row[6:10] for k, row in enumerate(rows))
    for k in empty:
        assert all(payload[k][key] is None for key in mc_columns)


@pytest.mark.parametrize("line", [
    *(f"{name} = {value}" for name, kind in sorted(_FIELD_TYPES.items())
      if kind is float and "." not in name for value in ("nan", "inf")),
    "pulse_mean_photons = -1", "magnon_decay_delay_ratio = -1",
])
def test_non_finite_and_negative_float_fields_exit_with_a_domain_error(tmp_path, capsys, line):
    cfg = _write(tmp_path, "bad.cfg", line + "\n")
    assert _run(["witness-sweep", "--config", cfg, "--out", str(tmp_path / "o.csv")]) \
        == EXIT_DOMAIN_ERROR
    assert f"field '{line.split(' = ')[0]}'" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["optical_cutoff", "magnon_cutoff"])
def test_a_zero_cutoff_is_a_domain_error_naming_its_key(tmp_path, capsys, key):
    cfg = _write(tmp_path, "cut.cfg", f"{key} = 0\n")
    assert _run(["witness-sweep", "--config", cfg]) == EXIT_DOMAIN_ERROR
    assert capsys.readouterr().err == f"domain error: field {key!r}: {key} must be >= 1, got 0\n"


def test_a_detector_efficiency_outside_its_range_names_its_key(tmp_path, capsys):
    cfg = _write(tmp_path, "det.cfg", "detector.dark_click_probability = 0.1\n"
                                      "detector.efficiency = 2\n")
    assert _run(["witness-sweep", "--config", cfg]) == EXIT_DOMAIN_ERROR
    assert capsys.readouterr().err \
        == "domain error: field 'detector.efficiency': efficiency 2.0 outside [0, 1]\n"


@pytest.mark.parametrize("line", [
    "magnon_frequency_hz = 0", "nbar_override = -0.5", "propagation_transmissivity_b = 1.5",
    "herald_detector_index = 3", "read_swap_angle_rad = 2", "thermal_model = quantum_foam",
])
def test_each_config_range_check_is_a_domain_error_naming_its_field(tmp_path, capsys, line):
    cfg = _write(tmp_path, "range.cfg", line + "\n")
    assert _run(["witness-sweep", "--config", cfg]) == EXIT_DOMAIN_ERROR
    assert capsys.readouterr().err.startswith(f"domain error: field '{line.split(' = ')[0]}': ")


@pytest.mark.parametrize("args, text, code, phrase", [
    (["witness-sweep"], "temperature_k =\n", EXIT_PARSE_ERROR, "line 1: empty key or value"),
    (["witness-sweep"], "= 0.1\n", EXIT_PARSE_ERROR, "line 1: empty key or value"),
    (["witness-sweep"], "optical_cutoff = 3.5\n", EXIT_DOMAIN_ERROR,
     "field 'optical_cutoff': bad value '3.5' (line 1)"),
    (["fidelity-sweep", "--sweep", "temperature_k:a:0.2:3"], "", EXIT_DOMAIN_ERROR,
     "bad sweep bounds in 'temperature_k:a:0.2:3'"),
])
def test_malformed_config_values_and_sweep_bounds_exit_with_their_message(
        tmp_path, capsys, args, text, code, phrase):
    assert _run(args + ["--config", _write(tmp_path, "bad.cfg", text)]) == code
    assert phrase in capsys.readouterr().err


def test_a_missing_config_file_is_a_parse_error(tmp_path, capsys):
    missing = str(tmp_path / "absent.cfg")
    assert _run(["witness-sweep", "--config", missing]) == EXIT_PARSE_ERROR
    assert capsys.readouterr().err.startswith(f"config parse error: cannot read config {missing!r}: ")


def test_a_config_that_is_not_utf8_is_a_parse_error(tmp_path, capsys):
    cfg = tmp_path / "utf16.cfg"
    cfg.write_bytes(b"\xff\xfet\x00e\x00")  # a UTF-16 byte order mark
    assert _run(["mc-run", "--trials", "10", "--config", str(cfg)]) == EXIT_PARSE_ERROR
    err = capsys.readouterr().err
    assert err.startswith(f"config parse error: cannot read config {str(cfg)!r}: ")
    assert err.count("\n") == 1


POINT_COUNT_FLAGS = [
    pytest.param(["witness-sweep", "--grid-points"], "", "--grid-points", id="grid-points"),
    pytest.param(["fidelity-sweep", "--sweep"], "temperature_k:0:1:", "--sweep", id="sweep"),
]


@pytest.mark.parametrize("args, prefix, flag", POINT_COUNT_FLAGS)
def test_a_point_count_past_numpy_s_largest_array_is_a_domain_error_naming_its_flag(
        capsys, args, prefix, flag):
    # numpy refuses 10**20 points before it allocates anything
    assert _run(args + [f"{prefix}{10 ** 20}"]) == EXIT_DOMAIN_ERROR
    err = capsys.readouterr().err
    assert err.startswith(f"domain error: {flag}: {10 ** 20} points do not fit in memory (")
    assert err.count("\n") == 1


@pytest.mark.parametrize("args, prefix, flag", POINT_COUNT_FLAGS)
def test_a_point_grid_that_runs_out_of_memory_is_a_domain_error_naming_its_flag(
        monkeypatch, capsys, args, prefix, flag):
    def out_of_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate")

    monkeypatch.setattr(np, "linspace", out_of_memory)
    assert _run(args + [f"{prefix}5"]) == EXIT_DOMAIN_ERROR
    assert capsys.readouterr().err == f"domain error: {flag}: 5 points do not fit in memory (Unable to allocate)\n"


@pytest.mark.parametrize("command", ["mc-run", "oracle-compare"])
def test_a_read_phase_whose_top_level_overflows_is_a_domain_error_naming_it(tmp_path, capsys, command):
    cfg = _write(tmp_path, "phase.cfg", "read_phase_rad = 1e308\n")
    assert _run([command, "--trials", "10", "--config", cfg]) == EXIT_DOMAIN_ERROR
    assert capsys.readouterr().err == ("domain error: field 'read_phase_rad': read_phase_rad = 1e+308 "
                                       "times optical_cutoff = 3 overflows\n")
    cfg = _write(tmp_path, "phase.cfg", "read_phase_rad = 1e300\n")
    assert _run([command, "--trials", "10", "--config", cfg, "--out", str(tmp_path / "o.csv")]) in (
        EXIT_OK, EXIT_ORACLE_FAILURE)


@pytest.mark.parametrize("text, args, message", [
    pytest.param("pulse_mean_photons = 0\n", [], "no Stokes light reaches Stokes detector 1", id="no-pulse"),
    pytest.param("pulse_mean_photons = 0\n", ["--detector", "2"], "no Stokes light reaches Stokes detector 2",
                 id="no-pulse-detector-2"),
    pytest.param("read_swap_angle_rad = 0\n", [], "no anti-Stokes light reaches anti-Stokes detector 1",
                 id="no-read-swap"),
    pytest.param("magnon_decay_delay_ratio = 800\n", [], "no anti-Stokes light reaches anti-Stokes detector 1",
                 id="magnons-decayed"),
    pytest.param("read_swap_angle_rad = 1e-160\n", [], "the Stokes intensity 5.000046841703813e-05 times "
                 "the anti-Stokes intensity 3.66e-322 underflows", id="product-underflows"),
    # the transmissivities also set the anti-Stokes losses
    pytest.param("propagation_transmissivity_a = 0\npropagation_transmissivity_b = 0\n", [],
                 "no Stokes light reaches Stokes detector 1; no anti-Stokes light reaches anti-Stokes detector 1",
                 id="no-transmission"),
])
def test_a_vanished_intensity_names_the_light_and_its_detector(tmp_path, capsys, text, args, message):
    cfg = _write(tmp_path, "dark.cfg", text)
    assert _run(["witness-sweep", "--config", cfg, "--grid-points", "3"] + args) == EXIT_RUNTIME_ERROR
    assert capsys.readouterr().err == f"runtime error: a detector intensity vanished: {message}\n"


@pytest.mark.parametrize("command, kind", [
    (["witness-sweep", "--grid-points", "3"], "intensity"),
    (["oracle-compare", "--trials", "1000"], "click rate"),
])
@pytest.mark.parametrize("text, weight, rest", [
    # the magnons paired with the faint Stokes light, and their anti-Stokes light, go with its sectors
    pytest.param("stokes_probability = 1e-160\ntemperature_k = 0\n", "5.000e-163",
                 "; any anti-Stokes light at anti-Stokes detector 1 was dropped with those Stokes sectors",
                 id="faint-scattering-cold"),
    pytest.param("pulse_mean_photons = 1e-320\n", "4.941e-323", "", id="faint-pulse"),
])
def test_a_stokes_light_below_the_sector_floor_is_named_as_such(tmp_path, capsys, command, kind, text,
                                                                weight, rest):
    # the light is there, but every Stokes sector holding it weighs less than STOKES_SECTOR_FLOOR;
    # the sampler reads the same statistics and draws no Stokes click
    cfg = _write(tmp_path, "faint.cfg", text)
    assert _run([command[0], "--config", cfg, *command[1:], "--out", str(tmp_path / "o.csv")]) == (
        EXIT_RUNTIME_ERROR)
    assert capsys.readouterr().err == (
        f"runtime error: a detector {kind} vanished: the Stokes light at Stokes detector 1 is below "
        f"STOKES_SECTOR_FLOOR = 1.0e-18 (weight {weight}){rest}\n")
    out = tmp_path / "records.csv"
    assert _run(["mc-run", "--config", cfg, "--trials", "1000", "--out", str(out)]) == EXIT_OK
    assert {row.split(",")[1] for row in out.read_text().splitlines()[1:]} == {"none"}


def test_non_finite_sweep_value_is_a_domain_error(tmp_path, capsys):
    assert _run(["fidelity-sweep", "--sweep", "temperature_k:nan:0.1:2",
                 "--out", str(tmp_path / "o.csv")]) == EXIT_DOMAIN_ERROR
    assert "temperature_k must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("sweep, bound", [
    ("temperature_k:0.1:inf:2", "stop = inf"),
    ("temperature_k:inf:inf:1", "start = inf"),
    ("temperature_k:-inf:0.1:2", "start = -inf"),
    ("temperature_k:nan:0.1:2", "start = nan"),
    ("nbar_override:1e308:-1e308:3", "stop - start = -inf"),
])
def test_non_finite_sweep_bound_is_a_domain_error_naming_it(tmp_path, capsys, sweep, bound):
    field = sweep.split(":")[0]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = _run(["fidelity-sweep", "--sweep", sweep, "--out", str(tmp_path / "o.csv")])
    assert code == EXIT_DOMAIN_ERROR
    assert caught == []
    err = capsys.readouterr().err
    assert err == f"domain error: --sweep {field} must be finite, got {bound}\n"



@pytest.mark.parametrize("field, value", [("nbar_override", "1e16"), ("temperature_k", "1e30")])
@pytest.mark.parametrize("command", ["witness-sweep", "baseline", "fidelity-sweep"])
def test_thermal_ratio_rounding_to_one_is_a_domain_error_naming_the_field(
        tmp_path, capsys, command, field, value):
    if command == "fidelity-sweep":
        args = [command, "--sweep", f"{field}:{value}:{value}:1"]
    else:
        args = [command, "--config", _write(tmp_path, "hot.cfg", f"{field} = {value}\n")]
    assert _run(args + ["--out", str(tmp_path / "o.csv")]) == EXIT_DOMAIN_ERROR
    err = capsys.readouterr().err
    assert f"{field} makes the thermal ratio nbar/(nbar + 1) round to 1" in err


def test_an_occupation_overflowing_to_inf_is_a_domain_error(tmp_path, capsys):
    # h nu / k T is subnormal here, so nbar = 1/expm1(h nu / k T) is inf and nbar/(nbar + 1) NaN
    cfg = _write(tmp_path, "hot.cfg", "magnon_frequency_hz = 1e-08\n"
                                      "temperature_k = 8.627566325525974e+289\n")
    assert _run(["witness-sweep", "--config", cfg]) == EXIT_DOMAIN_ERROR
    assert capsys.readouterr().err == ("domain error: field 'temperature_k': temperature_k makes "
                                       "the thermal ratio nbar/(nbar + 1) round to 1\n")


@pytest.mark.parametrize("text, field", [
    ("magnon_frequency_hz = 1e-300\n", "magnon_frequency_hz"),
    ("nbar_override = 1e16\ntemperature_k = 1e30\n", "nbar_override"),
    ("magnon_cutoff = 40\n", "magnon_cutoff"),
])
def test_a_check_reading_several_fields_names_the_one_the_file_set(tmp_path, capsys, text, field):
    assert _run(["witness-sweep", "--config", _write(tmp_path, "c.cfg", text)]) == EXIT_DOMAIN_ERROR
    assert capsys.readouterr().err.startswith(f"domain error: field {field!r}: ")


def test_an_occupation_whose_exponent_underflows_is_a_domain_error(tmp_path, capsys):
    # h nu / k T underflows to 0, so nbar is inf (not 0, as for k T underflowing)
    cfg = _write(tmp_path, "hot.cfg", "magnon_frequency_hz = 1e-30\ntemperature_k = 1e300\n")
    out = tmp_path / "o.csv"
    assert _run(["fidelity-sweep", "--config", cfg, "--sweep", "temperature_k:1e300:1e300:1",
                 "--out", str(out)]) == EXIT_DOMAIN_ERROR
    err = capsys.readouterr().err
    assert err.startswith("domain error: ")
    assert "temperature_k makes the thermal ratio nbar/(nbar + 1) round to 1" in err
    assert not out.exists()


def test_a_temperature_whose_k_t_underflows_runs_with_zero_occupation(tmp_path):
    out = tmp_path / "o.csv"
    assert _run(["fidelity-sweep", "--sweep", "temperature_k:5e-324:5e-324:1",
                 "--out", str(out)]) == EXIT_OK
    assert out.read_text().splitlines()[1].split(",")[1:4] == ["0.0", "0.0", "1.0"]


@pytest.mark.parametrize("command", ["witness-sweep", "fidelity-sweep"])
def test_temperature_below_half_a_millikelvin_runs_with_zero_occupation(tmp_path, command):
    # h nu / k T = 840 at 7 GHz: exp overflows, and nbar is 0 to double precision
    cfg = _write(tmp_path, "cold.cfg", "temperature_k = 0.0004\n")
    out = tmp_path / "o.csv"
    extra = ["--sweep", "temperature_k:0.0004:0.0004:1"] if command == "fidelity-sweep" else []
    assert _run([command, "--config", cfg, *extra, "--out", str(out)]) == EXIT_OK
    if command == "fidelity-sweep":
        assert out.read_text().splitlines()[1].split(",")[1:4] == ["0.0", "0.0", "1.0"]


# command-specific flags each command reads; it rejects the others
FLAGS_READ = {
    "fidelity-sweep": {"--sweep"},
    "witness-sweep": {"--grid-points", "--detector", "--trials"},
    "baseline": {"--grid-points", "--detector", "--baseline"},
    "mc-run": {"--trials"},
    "oracle-compare": {"--trials"},
}
FLAG_VALUES = {"--sweep": "temperature_k:0.1:0.1:1", "--trials": "10", "--grid-points": "3",
               "--detector": "1", "--baseline": "classical_mixture"}


@pytest.mark.parametrize("command, flag", [
    (command, flag) for command, reads in FLAGS_READ.items()
    for flag in FLAG_VALUES if flag not in reads])
def test_a_flag_the_command_does_not_read_is_a_domain_error(capsys, command, flag):
    assert _run([command, flag, FLAG_VALUES[flag]]) == EXIT_DOMAIN_ERROR
    assert f"{command} does not read {flag}" in capsys.readouterr().err
