"""End-to-end checks of the command-line front end.

Golden files under tests/golden/ freeze the exact bytes each command
emits for a small deterministic configuration; any formatting, grid,
seeding or numerical drift shows up as a byte difference.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).parent / "golden"


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "pfwigner.cli", *map(str, args)],
        capture_output=True, text=True)


def run_cli_bytes(*args):
    return subprocess.run(
        [sys.executable, "-m", "pfwigner.cli", *map(str, args)],
        capture_output=True)


BOOST_ARGS = ("boost-scan", "--v-min", -0.9, "--v-max", 0.9, "--v-step", 0.3)
ROTATION_ARGS = ("rotation-scan", "--delta-max", math.pi,
                 "--delta-step", 0.25 * math.pi, "--chi-steps", 4)
MALUS_ARGS = ("malus", "--delta-max", math.pi, "--delta-step", 0.5 * math.pi,
              "--samples", 10000, "--seed", 7)
WIGNER_ARGS = ("wigner", "--transform", "rotation:k:0.7853981633974483",
               "--transform", "boost:z:0.25")


@pytest.mark.parametrize(
    "args,golden",
    [
        (BOOST_ARGS, "boost_scan.csv"),
        (ROTATION_ARGS, "rotation_scan.csv"),
        (MALUS_ARGS, "malus.csv"),
        (WIGNER_ARGS, "wigner.json"),
    ],
    ids=["boost-scan", "rotation-scan", "malus", "wigner"],
)
def test_golden_output(args, golden, tmp_path):
    out = tmp_path / golden
    res = run_cli(*args, "--output", out)
    assert res.returncode == 0, res.stderr
    assert out.read_bytes() == (GOLDEN / golden).read_bytes()


def test_default_boost_scan_is_byte_exact(tmp_path):
    out = tmp_path / "boost_scan_default.csv"
    res = run_cli("boost-scan", "--output", out)
    assert res.returncode == 0, res.stderr
    assert out.read_bytes() == (GOLDEN / "boost_scan_default.csv").read_bytes()


def test_stdout_matches_file_output(tmp_path):
    out = tmp_path / "scan.csv"
    res_file = run_cli_bytes(*BOOST_ARGS, "--output", out)
    res_stdout = run_cli_bytes(*BOOST_ARGS)
    assert res_file.returncode == 0 and res_stdout.returncode == 0
    assert res_stdout.stdout == out.read_bytes()


def test_reruns_are_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(*MALUS_ARGS, "--output", a).returncode == 0
    assert run_cli(*MALUS_ARGS, "--output", b).returncode == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize(
    "args,header",
    [
        (BOOST_ARGS, "V,phi_cf,phi_mx,abs_diff"),
        (ROTATION_ARGS, "delta,chi,phi_ex,dphi_ex,dphi_ap,abs_err"),
        (MALUS_ARGS, "delta,p_classical,p_pf,mc_freq,mc_err"),
    ],
    ids=["boost-scan", "rotation-scan", "malus"],
)
def test_csv_headers_and_line_endings(args, header):
    res = run_cli_bytes(*args)
    assert res.returncode == 0
    assert b"\r" not in res.stdout
    text = res.stdout.decode("ascii")
    assert text.splitlines()[0] == header
    assert text.endswith("\n")


def test_csv_values_carry_full_precision():
    # .17g formatting must round-trip: re-formatting the parsed float
    # reproduces the token exactly
    res = run_cli(*BOOST_ARGS)
    for line in res.stdout.splitlines()[1:]:
        for token in line.split(","):
            assert format(float(token), ".17g") == token


def test_json_format_mirrors_csv():
    csv_res = run_cli(*BOOST_ARGS)
    json_res = run_cli(*BOOST_ARGS, "--format", "json")
    assert json_res.returncode == 0
    doc = json.loads(json_res.stdout)
    assert doc["columns"] == ["V", "phi_cf", "phi_mx", "abs_diff"]
    csv_rows = csv_res.stdout.splitlines()[1:]
    assert len(doc["rows"]) == len(csv_rows)
    first_csv = [float(tok) for tok in csv_rows[0].split(",")]
    assert doc["rows"][0] == pytest.approx(first_csv, abs=0.0)


def test_wigner_report_is_consistent():
    res = run_cli(*WIGNER_ARGS)
    doc = json.loads(res.stdout)
    assert set(doc) == {"phi_pf", "phi_std", "delta_phi", "residual_pf",
                        "residual_std", "stabiliser_pf", "stabiliser_std"}
    assert doc["delta_phi"] == pytest.approx(
        math.remainder(doc["phi_pf"] - doc["phi_std"], math.tau), abs=1e-15)
    assert doc["residual_pf"] < 1e-9 and doc["residual_std"] < 1e-9


# --- configuration handling ---------------------------------------------


def test_config_file_sets_grid(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("v-min = -0.9\nv-max = 0.9\nv_step = 0.3  # comment\n")
    res = run_cli("boost-scan", "--config", cfg)
    assert res.returncode == 0
    assert res.stdout == run_cli(*BOOST_ARGS).stdout


def test_flags_override_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("v-min = -0.9\nv-max = 0.9\nv-step = 0.9\n")
    res = run_cli("boost-scan", "--config", cfg, "--v-step", 0.3)
    assert res.returncode == 0
    assert res.stdout == run_cli(*BOOST_ARGS).stdout


@pytest.mark.parametrize(
    "content,fragment",
    [
        ("volume = 3\n", "unknown key"),
        ("just some text\n", "expected key=value"),
        ("v-min = fast\n", "bad value"),
    ],
)
def test_malformed_config_file_exits_2(tmp_path, content, fragment):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(content)
    res = run_cli("boost-scan", "--config", cfg)
    assert res.returncode == 2
    assert fragment in res.stderr


def test_missing_config_file_exits_2(tmp_path):
    res = run_cli("boost-scan", "--config", tmp_path / "absent.cfg")
    assert res.returncode == 2


@pytest.mark.parametrize(
    "args",
    [
        ("boost-scan", "--v-min", 1.5),
        ("boost-scan", "--v-step", -0.1),
        ("rotation-scan", "--chi", 4.0),
        ("malus", "--samples", 0),
        ("wigner", "--transform", "boost:z:1.5"),
        ("wigner", "--transform", "rotation:q:1.0"),
        ("wigner", "--transform", "rotation:z"),
        ("wigner", "--transform", "twist:z:1.0"),
        ("boost-scan", "--v-step", "nan"),
        ("rotation-scan", "--delta-max", "inf"),
        ("malus", "--state-angle", "inf"),
        ("malus", "--seed", -1),
        ("wigner", "--transform", "rotation:z:inf"),
        ("validate", "--tol-scale", "nan"),
        ("malus", "--pol-angle", "nan"),
        ("boost-scan", "--v-step", 1e-12),
        ("malus", "--samples", 100_000_001),
        ("malus", "--samples", 30_000_000),
        ("boost-scan", "--v-step", 0.1),
    ],
)
def test_invalid_values_exit_2(args):
    res = run_cli(*args)
    assert res.returncode == 2
    assert res.stderr.startswith("error:")


def test_unknown_subcommand_exits_2():
    assert run_cli("frobnicate").returncode == 2


def test_missing_subcommand_exits_2():
    assert run_cli().returncode == 2


def test_numerical_degeneracy_exits_3():
    res = run_cli("wigner", "--pf-speed", 0.0, "--transform",
                  "boost:z:0.999999999999")
    assert res.returncode == 3
    assert "internal numerical error" in res.stderr


def test_numerical_error_names_row_pair_and_gamma():
    res = run_cli("malus", "--pf-speed", 0.999999999)
    assert res.returncode == 3
    assert res.stderr.startswith("internal numerical error: row 0: pair moved by ")
    assert " (k=(1, 0, 0, 1), u=(22360.68009, 22360.68007, 0, " in res.stderr
    assert res.stderr.endswith(", transform gamma=1)\n")


def test_numerical_error_names_the_row_of_the_sweep():
    # the sweep runs in blocks of STACK_BLOCK rows; the first row to fail
    # lies past the first block, and the row named is the row of the sweep
    from pfwigner.minkowski import STACK_BLOCK

    res = run_cli("boost-scan", "--pf-speed", 0.99999, "--chi", 1.0, "--v-min", 0.0)
    assert res.returncode == 3
    head = "internal numerical error: row "
    assert res.stderr.startswith(head)
    row = int(res.stderr[len(head):].split(":")[0])
    assert row >= STACK_BLOCK
    v = row * 0.0033
    assert res.stderr.endswith(f", transform gamma={1.0 / math.sqrt(1.0 - v * v):.10g})\n")


# --- validation suite ------------------------------------------------------


def test_validate_passes_and_reports_named_checks():
    res = run_cli("validate")
    assert res.returncode == 0
    lines = res.stdout.splitlines()
    checks = [ln for ln in lines if ln.startswith(("PASS", "FAIL"))]
    assert len(checks) >= 6
    assert all(ln.startswith("PASS") for ln in checks)
    names = {ln.split()[1] for ln in checks}
    assert len(names) == len(checks)
    assert lines[-1].endswith("checks passed")


def test_validate_values_are_bit_exact():
    # the exact value of every check and the stabiliser they accumulate,
    # beyond the three digits that `validate` prints
    from pfwigner import cli

    state = {}
    got = {name: repr(func(state)[0]) for name, func in cli.CHECKS}
    got["stabiliser"] = repr(state["stabiliser"])
    assert got == json.loads((GOLDEN / "validate_values.json").read_text())


def test_validate_detects_tampered_tolerances():
    # shrinking every tolerance by 1e9 must trip the suite; guards that
    # the checks compare real residuals rather than printing PASS
    res = run_cli("validate", "--tol-scale", "1e-9")
    assert res.returncode == 1
    assert any(ln.startswith("FAIL") for ln in res.stdout.splitlines())
