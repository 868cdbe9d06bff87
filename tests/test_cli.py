"""End-to-end checks of the command-line front end.

Golden files under tests/golden/ freeze the exact bytes each command
emits for a small deterministic configuration; any formatting, grid,
seeding or numerical drift shows up as a byte difference.

Most tests call `cli.main` in the test process (`run_cli`); a few start
`python -m pfwigner.cli` (`run_process` and the standard-output tests), so
that the entry point and the exit codes of a real process stay covered.
"""

import contextlib
import dataclasses
import hashlib
import io
import itertools
import json
import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pfwigner import cli, closed_form, minkowski

GOLDEN = Path(__file__).parent / "golden"


def run_cli(*args):
    """cli.main(args) in this process, with its standard output and error
    captured as text and a SystemExit turned into the return code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main([str(a) for a in args])
        except SystemExit as exc:
            code = exc.code
    return subprocess.CompletedProcess(args, code, out.getvalue(), err.getvalue())


def run_cli_bytes(*args):
    res = run_cli(*args)
    return subprocess.CompletedProcess(args, res.returncode, res.stdout.encode(),
                                       res.stderr.encode())


def run_process(*args, text=True):
    return subprocess.run(
        [sys.executable, "-m", "pfwigner.cli", *map(str, args)],
        capture_output=True, text=text)


BOOST_ARGS = ("boost-scan", "--v-min", -0.9, "--v-max", 0.9, "--v-step", 0.3)
ROTATION_ARGS = ("rotation-scan", "--delta-max", math.pi,
                 "--delta-step", 0.25 * math.pi, "--chi-steps", 4)
MALUS_ARGS = ("malus", "--delta-max", math.pi, "--delta-step", 0.5 * math.pi,
              "--samples", 10000, "--seed", 7)
WIGNER_ARGS = ("wigner", "--transform", "rotation:k:0.7853981633974483",
               "--transform", "boost:z:0.25")
# the exact identity: phi_std is -0.0 and phi_pf -4.890303485836872e-40
WIGNER_IDENTITY_ARGS = ("wigner", "--transform", "rotation:k:0")
# a generic pair and transform, whose stabilisers are far from 0
WIGNER_GENERIC_ARGS = ("wigner", "--pf-speed", 0.5, "--chi", 1.0, "--transform", "boost:x:0.99",
                       "--transform", "rotation:y:1.1", "--transform", "boost:k:-0.9")


@pytest.mark.parametrize(
    "args,golden",
    [
        (BOOST_ARGS, "boost_scan.csv"),
        (ROTATION_ARGS, "rotation_scan.csv"),
        (MALUS_ARGS, "malus.csv"),
        (WIGNER_ARGS, "wigner.json"),
        (WIGNER_IDENTITY_ARGS, "wigner_identity.json"),
        (WIGNER_GENERIC_ARGS, "wigner_generic.json"),
        # wigner writes JSON whatever --format says
        (WIGNER_ARGS + ("--format", "csv"), "wigner.json"),
        (WIGNER_ARGS + ("--format", "json"), "wigner.json"),
    ],
    ids=["boost-scan", "rotation-scan", "malus", "wigner", "wigner-identity", "wigner-generic",
         "wigner-format-csv", "wigner-format-json"],
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


# sha256 of `rotation-scan --delta-step pi/480 --chi-steps 30`, the
# 29 791-row grid of the benchmark, as CSV and as JSON
FINE_ROTATION_SHA256 = {
    "csv": "affe4adafd8bbaaada407ff7d563a96ad1be011a4ff8519b52aa75928573f5fa",
    "json": "a2639d632dfd96c284707aa447ceb368182d9585648586e6046944e0dbd0b6ca",
}


@pytest.mark.parametrize("fmt", sorted(FINE_ROTATION_SHA256))
def test_fine_rotation_scan_is_byte_exact(fmt, tmp_path):
    from pfwigner import cli

    out = tmp_path / f"fine.{fmt}"
    assert cli.main(["rotation-scan", "--delta-step", repr(math.pi / 480), "--chi-steps", "30",
                     "--format", fmt, "--output", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == FINE_ROTATION_SHA256[fmt]


# tracemalloc peak of the fine rotation-scan, in bytes: the writer holds
# one block of rows and its text, not the table (11.7 MB as CSV and
# 31.9 MB as JSON when the whole text was built before the first write)
FINE_ROTATION_PEAK = {"csv": 3_000_000, "json": 10_000_000}


@pytest.mark.parametrize("fmt", sorted(FINE_ROTATION_PEAK))
def test_fine_rotation_scan_holds_one_block_of_rows(fmt, tmp_path):
    out = tmp_path / f"fine.{fmt}"
    tracemalloc.start()
    try:
        code = cli.main(["rotation-scan", "--delta-step", repr(math.pi / 480), "--chi-steps", "30",
                         "--format", fmt, "--output", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < FINE_ROTATION_PEAK[fmt]


# tracemalloc peaks, in bytes, of the two matrix-route sweeps: each makes
# its rows STACK_BLOCK at a time through `in_blocks` (cmd_boost_scan and
# anomalous_malus_curve), the only bound on their memory, since the route
# runs the rows it is given at once. Measured 1.7 MB (8 333 speeds) and
# 2.7 MB (9 601 deltas) in blocks; 8.1 MB and 9.2 MB without.
SWEEP_PEAK = {
    "boost-scan": (["boost-scan", "--v-step", "2.4e-4"], 4_000_000),
    "malus": (["malus", "--delta-step", "0.0006544984694978736", "--samples", "1"], 5_000_000),
}


@pytest.mark.parametrize("command", sorted(SWEEP_PEAK))
def test_matrix_route_sweep_holds_one_block_of_rows(command, tmp_path):
    args, bound = SWEEP_PEAK[command]
    tracemalloc.start()
    try:
        code = cli.main(args + ["--output", str(tmp_path / "sweep.csv")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < bound


# a scan of one delta by 50 000 chis, whose one outer value alone has more
# rows than a block: its sha256 as written by the whole-table writer, and
# its tracemalloc peak in bytes now that the writer blocks the chis too
# (21.2 MB as CSV and 42.8 MB as JSON when a block took every chi)
ONE_DELTA_SHA256 = {
    "csv": "a0efd1aa7885a08e938f216d5e35f33b8a8c846a305ce8e8c55b435fe1ec2de7",
    "json": "82e42f0fc0c31c19504d0b9a2ee99d3f957830d74d86b257c599e3793e12297d",
}
ONE_DELTA_PEAK = {"csv": 6_000_000, "json": 10_000_000}


@pytest.mark.parametrize("fmt", sorted(ONE_DELTA_PEAK))
def test_one_delta_scan_holds_one_block_of_chis(fmt, tmp_path):
    out = tmp_path / f"one_delta.{fmt}"
    tracemalloc.start()
    try:
        code = cli.main(["rotation-scan", "--delta-step", "13", "--chi-steps", "49999",
                         "--format", fmt, "--output", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < ONE_DELTA_PEAK[fmt]
    assert hashlib.sha256(out.read_bytes()).hexdigest() == ONE_DELTA_SHA256[fmt]


def test_rotation_scan_checks_its_grid_once(monkeypatch, tmp_path):
    # the scan validates the whole grid before the first row; the blocks
    # that _emit asks for are not validated again
    calls = []
    check = closed_form.check_rotation_grid

    def counted(*args):
        calls.append(args)
        check(*args)

    monkeypatch.setattr(closed_form, "check_rotation_grid", counted)
    monkeypatch.setattr(cli, "check_rotation_grid", counted)
    assert cli.main(["rotation-scan", "--delta-step", repr(math.pi / 480), "--chi-steps", "30",
                     "--output", str(tmp_path / "fine.csv")]) == 0
    assert len(calls) == 1


def test_rotation_scan_checks_each_grid_axis_as_one_array(monkeypatch, tmp_path):
    # one row check for theta_pf, one for the 31 chis and one for the 961
    # deltas, each a single test over the whole axis, all read through
    # minkowski._checked_rows
    calls = []
    check = minkowski._check_rows

    def counted(tests, *args, **kwargs):
        calls.append([np.shape(ok) for ok, _ in tests])
        return check(tests, *args, **kwargs)

    monkeypatch.setattr(minkowski, "_check_rows", counted)
    assert cli.main(["rotation-scan", "--delta-step", repr(math.pi / 480), "--chi-steps", "30",
                     "--output", str(tmp_path / "fine.csv")]) == 0
    assert calls == [[(1,)], [(31,)], [(961,)]]


def test_stdout_matches_file_output(tmp_path):
    out = tmp_path / "scan.csv"
    res_file = run_process(*BOOST_ARGS, "--output", out, text=False)
    res_stdout = run_process(*BOOST_ARGS, text=False)
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


# rotation-scan grids with negative deltas, deltas in exponent form and
# zero fields (chi = 0): 96 fields, written one by one, and 8 016, written
# by the array route
ROTATION_EXPONENT_ARGS = ("rotation-scan", "--delta-min=-2e-5", "--delta-max", "3e-5",
                          "--delta-step", "1e-5", "--chi-steps", 3, "--pf-speed", 0.1)
ROTATION_EXPONENT_FINE_ARGS = ROTATION_EXPONENT_ARGS[:5] + ("1e-7",) + ROTATION_EXPONENT_ARGS[6:]


def test_csv_values_carry_full_precision():
    # .17g formatting must round-trip: re-formatting the parsed float
    # reproduces the token exactly, in every sweep, on both routes of the
    # writer (the default boost-scan's 607 rows take the array route)
    for args in (BOOST_ARGS, ("boost-scan",), MALUS_ARGS, ("malus", "--samples", 1000),
                 ROTATION_EXPONENT_ARGS, ROTATION_EXPONENT_FINE_ARGS):
        res = run_cli(*args)
        assert res.returncode == 0, (args, res.stderr)
        for line in res.stdout.splitlines()[1:]:
            for token in line.split(","):
                assert format(float(token), ".17g") == token, args


def test_json_format_mirrors_csv():
    for args, columns in (
        (BOOST_ARGS, ["V", "phi_cf", "phi_mx", "abs_diff"]),
        (ROTATION_ARGS, ["delta", "chi", "phi_ex", "dphi_ex", "dphi_ap", "abs_err"]),
    ):
        csv_res = run_cli(*args)
        json_res = run_cli(*args, "--format", "json")
        assert json_res.returncode == 0
        doc = json.loads(json_res.stdout)
        assert doc["columns"] == columns
        csv_rows = [[float(tok) for tok in line.split(",")]
                    for line in csv_res.stdout.splitlines()[1:]]
        assert doc["rows"] == csv_rows
        # the tuple rows of rotation-scan give the text that lists give
        assert json_res.stdout == json.dumps({"columns": columns, "rows": csv_rows},
                                             indent=2) + "\n"


def test_emit_writes_the_bytes_of_format_17g(capsys, monkeypatch):
    # the special values both as the axes of a grid of three, formatted
    # once per value, and as computed columns, formatted on every row;
    # with blocks of one outer value, of one outer and one middle value and
    # of one point, so that blocks are joined and the inner axes blocked too
    special = [-0.0, math.inf, -math.inf, math.nan, 5e-324, 1e16]
    axes = [special[:2], special[2:4], special[4:]]
    values = np.array([special + special[:2], special[::-1] + special[:2]]).T
    columns = ["a", "b", "c", "d", "e"]
    rows = [list(point) + row for point, row in zip(itertools.product(*axes), values.tolist())]
    want = {
        "csv": "\n".join([",".join(columns)]
                         + [",".join(format(v, ".17g") for v in row) for row in rows]) + "\n",
        "json": json.dumps({"columns": columns, "rows": rows}, indent=2) + "\n",
    }
    grid = list(itertools.product(range(2), repeat=3))
    for emit_block, n_blocks in ((4, 2), (2, 4), (1, 8)):
        monkeypatch.setattr(cli, "EMIT_BLOCK", emit_block)
        for fmt in want:
            asked = []

            def block_values(block):
                asked.append(block)
                return values.reshape(2, 2, 2, 2)[block].reshape(-1, 2)

            cfg = cli._resolve_config(cli.build_parser().parse_args(["boost-scan", "--format", fmt]))
            cli._emit(cfg, columns, axes, block_values)
            # the blocks cover the grid once, in row order
            assert len(asked) == n_blocks
            assert [p for b in asked for p in itertools.product(*(range(2)[s] for s in b))] == grid
            assert capsys.readouterr().out == want[fmt]


# values at the edges of the CSV writer's routes and of %g's fixed form
CSV_SPECIALS = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 1e-5, 1e16,
                9.999999999999999e16]
csv_fields = st.floats() | st.sampled_from(CSV_SPECIALS)


def _emitted_csv(axes, values) -> tuple[str, str, int]:
    """The CSV text `cli._emit` writes for a grid of `axes` whose rows of
    computed columns are `values`, of shape (*lengths, k); the text of
    "%.17g" of each field; and the number of `_format_17g` calls made."""
    columns = [f"c{j}" for j in range(len(axes) + values.shape[-1])]
    rows = [list(point) + row for point, row in
            zip(itertools.product(*axes), values.reshape(-1, values.shape[-1]).tolist())]
    want = "".join([",".join(columns) + "\n"]
                   + [",".join(format(v, ".17g") for v in row) + "\n" for row in rows])
    calls = []
    format_17g = cli._format_17g

    def counted(*args):
        calls.append(args)
        return format_17g(*args)

    out = io.StringIO()
    with mock.patch.object(cli, "_format_17g", counted), contextlib.redirect_stdout(out):
        cli._emit(cli.RunConfig(), columns, axes,
                  lambda block: values[block].reshape(-1, values.shape[-1]))
    return out.getvalue(), want, len(calls)


@st.composite
def small_tables(draw):
    """The axes (one or two) and computed rows of a grid of fewer than
    _ARRAY_MIN fields in all, axes included."""
    n_axes, n_computed = draw(st.integers(1, 2)), draw(st.integers(1, 4))
    budget = (cli._ARRAY_MIN - 1) // (n_axes + n_computed)
    lengths = [draw(st.integers(1, budget))]
    if n_axes == 2:
        lengths.append(draw(st.integers(1, budget // lengths[0])))
    axes = [draw(st.lists(csv_fields, min_size=m, max_size=m)) for m in lengths]
    size = math.prod(lengths) * n_computed
    values = draw(st.lists(csv_fields, min_size=size, max_size=size))
    return axes, np.array(values, dtype=float).reshape(*lengths, n_computed)


@given(small_tables())
@settings(max_examples=200, deadline=None)
def test_a_table_below_array_min_fields_is_the_text_of_format_17g(table):
    # written by one "%" over the table, with no slot of _format_17g
    axes, values = table
    got, want, format_calls = _emitted_csv(axes, values)
    assert got == want
    assert format_calls == 0


def test_a_table_of_array_min_fields_takes_the_slot_route():
    # 64 rows of an axis and 3 computed columns: 256 fields, the smallest
    # table that the slot route writes, with the specials among them
    assert cli._ARRAY_MIN == 256
    rng = np.random.default_rng(43)
    axis = np.concatenate([CSV_SPECIALS, rng.uniform(-20.0, 20.0, 64 - len(CSV_SPECIALS))])
    values = rng.uniform(-1.0, 1.0, (64, 3)) * 10.0 ** rng.integers(-8, 20, (64, 3))
    values[:len(CSV_SPECIALS), 0] = CSV_SPECIALS
    got, want, format_calls = _emitted_csv([axis.tolist()], values)
    assert got == want
    assert format_calls == 2
    # one row fewer is a small table again
    got, want, format_calls = _emitted_csv([axis[:63].tolist()], values[:63])
    assert (got, format_calls) == (want, 0)


def test_rotation_scan_writes_the_bytes_of_format_17g_of_every_field():
    # negative deltas, deltas in exponent form and a chi of 0 and of pi
    from pfwigner.closed_form import rotation_table

    res = run_cli("rotation-scan", "--delta-min=-2e-5", "--delta-max", "3e-5",
                  "--delta-step", "1e-5", "--chi-steps", 3, "--pf-speed", "1e-1")
    assert res.returncode == 0, res.stderr
    deltas = cli._grid(-2e-5, 3e-5, 1e-5)
    table = rotation_table(deltas, 0.1, [i * math.pi / 3 for i in range(4)])
    want = ["delta,chi,phi_ex,dphi_ex,dphi_ap,abs_err"] + [
        ",".join(format(v, ".17g") for v in row) for row in table.tolist()]
    assert res.stdout == "\n".join(want) + "\n"
    fields = {field for line in want[1:] for field in line.split(",")[:2]}
    assert {"-2.0000000000000002e-05", "1.0000000000000003e-05", "0",
            "3.1415926535897931"} <= fields


def _texts_17g(values) -> list[str]:
    """The text of each value as `cli._format_17g` writes it, NULs deleted."""
    slots = cli._format_17g(np.array(values, dtype=float))
    return [slot.tobytes().replace(b"\0", b"").decode() for slot in slots]


@given(st.one_of(st.lists(st.floats(), max_size=1),
                 st.lists(st.floats(), min_size=cli._ARRAY_MIN, max_size=2 * cli._ARRAY_MIN)))
@settings(max_examples=200, deadline=None)
def test_format_17g_writes_format_17g_of_any_floats(values):
    # nan, inf and subnormals included; arrays of 0 and 1 values take the
    # per-value route, and of at least _ARRAY_MIN the array route
    assert _texts_17g(values) == [format(v, ".17g") for v in values]


def _power_of_ten_neighbours(k: int) -> list[float]:
    p = 10.0 ** k
    return [np.nextafter(p, 0.0), p, np.nextafter(p, math.inf)]


# each a value the array route must get right, or hand to `%`
FORMAT_17G_TABLE = (
    [0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]
    + [v for k in range(-30, 31) for v in _power_of_ten_neighbours(k)]
    # where %g switches between fixed and exponent form: 1e-5, 1e-4,
    # 1e16 and 1e17, and the values that round to them
    + [v for p in (1e-5, 1e-4, 1e16, 1e17) for v in
       (p * 0.99999999999999994, p * 0.999999999999999994, p * (1 + 4e-16), p * 9.99)]
    # integers in [2**53, 2**60], and 10**17 with its neighbours
    + [float(2 ** b + d) for b in range(53, 61) for d in (-2, 0, 2, 8, 2 ** (b - 53) * 7)]
    + [float(10 ** 17 + d) for d in (-32, -16, 16, 32)]
    # the doubles nearest 10**k that lie below it by less than half a unit
    # of the 17th digit: their 17 digits carry into the next power of ten
    + [1e-79, 1e-78, 1e-73, 1e-70, 1e-14, 1e98, 1e129, 1e153]
    # within 1e-16 of a half in the 18th digit, where the sum of the
    # double-double product can round either way
    + [1.2568395420297045e-10, 2.2422607587866907e-07, 2.460469286850939e-10,
       4.8677287764934085e-09, 4.9102966142601843e-08, 5.016716208677124e-09]
)


def test_format_17g_writes_format_17g_of_a_fixed_table():
    # the table takes the array route, both signs
    values = FORMAT_17G_TABLE + [-v for v in FORMAT_17G_TABLE]
    assert len(values) >= cli._ARRAY_MIN
    assert _texts_17g(values) == [format(v, ".17g") for v in values]
    # the carries are what they are listed as
    for v in (1e-79, 1e-14, 1e98):
        k = round(math.log10(v))
        assert Fraction(v) < Fraction(10) ** k and format(v, ".17g") == f"{10.0 ** k:g}"


def _routing_table() -> list[float]:
    """Values of every class of the router, both signs: zeros, values the
    array route writes, 10 <= |v| < 1e17, digits ending in 0000, nan,
    inf, subnormals and |v| beyond 1e-200 and 1e200; none a near-tie."""
    rng = np.random.default_rng(25)
    mantissas = rng.uniform(1.0, 10.0, 40).tolist()
    values = ([0.0, math.nan, math.inf, 5e-324, 2.2250738585072014e-308, 1e-200,
               np.nextafter(1e-200, 1.0), np.nextafter(1e200, 0.0), 1e200, 1.7976931348623157e308]
              + [m * 10.0 ** e for m in mantissas[:10] for e in range(-8, 20)]
              + [m * 10.0 ** e for m in mantissas[10:] for e in (-199, -120, -5, 17, 120, 199)]
              # 17 digits ending in 0000, with the point after the first
              # digit, in the lead or after a later digit
              + [0.5, 1.25, 3.0, 0.0001, 0.000123, 6.25e-5, 7.5e20, 2.0 ** -40, 10.5, 1e16]
              + [10.0, np.nextafter(10.0, 0.0), np.nextafter(1e17, 0.0), 1e17])

    def near_tie(v: float) -> bool:
        if not 1e-200 < abs(v) < 1e200:
            return False
        e = int(f"{v:.16e}".split("e")[1])
        t = Fraction(abs(v)) * Fraction(10) ** (16 - e)
        return abs(t - math.floor(t) - Fraction(1, 2)) < 1e-8

    return [s * v for v in values if not near_tie(v) for s in (1.0, -1.0)]


def _route_class(v: float) -> str:
    """The class of v in the router of `cli._format_17g`, read from its text."""
    if v == 0.0:
        return "zero"
    if not 1e-200 < abs(v) < 1e200:
        return "special"
    if 10.0 <= abs(v) < 1e17:
        return "point after a later digit"
    digits = f"{abs(v):.16e}".split("e")[0].replace(".", "")
    return "trailing zeros" if digits.endswith("0000") else "array"


def test_array_route_hands_exactly_its_listed_classes_to_percent():
    values = _routing_table()
    classes = [_route_class(v) for v in values]
    assert len(values) >= cli._ARRAY_MIN
    assert set(classes) == {"zero", "special", "point after a later digit", "trailing zeros",
                            "array"}
    x = np.array(values)
    out = np.zeros(x.shape + (cli.FIELD,), np.uint8)
    written = cli._array_format_17g(x, out).tolist()
    assert written == [c in ("zero", "array") for c in classes]
    assert [s.tobytes().replace(b"\0", b"").decode() for s in out[np.array(written)]] == [
        format(v, ".17g") for v, w in zip(values, written) if w]


def test_a_negative_value_in_exponent_form_may_be_a_separate_argument():
    # argparse by itself takes "-2e-5" for an option, not for the value of one
    grid = ("--delta-max", "3e-5", "--delta-step", "1e-5", "--chi-steps", 3)
    spaced = run_cli_bytes("rotation-scan", "--delta-min", "-2e-5", *grid)
    joined = run_cli_bytes("rotation-scan", "--delta-min=-2e-5", *grid)
    assert spaced.returncode == 0, spaced.stderr
    assert spaced.stdout == joined.stdout
    parser = cli.build_parser()
    for key in (f.name for f in dataclasses.fields(cli.RunConfig) if isinstance(f.default, float)):
        for value in ("-2.5e-1", "-.25E+0", "-0.25", "-25e-2"):
            args = parser.parse_args(["wigner", "--" + key.replace("_", "-"), value])
            assert getattr(args, key) == -0.25


def test_wigner_report_is_consistent():
    res = run_cli(*WIGNER_ARGS)
    doc = json.loads(res.stdout)
    assert set(doc) == {"phi_pf", "phi_std", "delta_phi", "stabiliser_pf", "stabiliser_std"}
    assert doc["delta_phi"] == pytest.approx(
        math.remainder(doc["phi_pf"] - doc["phi_std"], math.tau), abs=1e-15)
    assert doc["stabiliser_pf"] < 1e-9 and doc["stabiliser_std"] < 1e-9


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
        ("chi-steps = 2.5\n", "bad value"),
        (b"v-min = -0.9\xff\n", "cannot read config file"),
    ],
)
def test_malformed_config_file_exits_2(tmp_path, content, fragment):
    cfg = tmp_path / "run.cfg"
    (cfg.write_bytes if isinstance(content, bytes) else cfg.write_text)(content)
    res = run_cli("boost-scan", "--config", cfg)
    assert res.returncode == 2
    assert fragment in res.stderr


# a valid value other than the default for each setting, in the default's type
SETTINGS = {"pf_speed": 0.25, "chi": 1.0, "v_min": -0.5, "v_max": 0.5, "v_step": 0.25,
            "delta_min": 0.5, "delta_max": 3.0, "delta_step": 0.5, "chi_steps": 3,
            "samples": 100, "seed": 7, "state_angle": 0.5, "pol_angle": 1.0,
            "output": "out.csv", "format": "json", "tol_scale": 2.0}


def test_every_setting_is_a_flag_and_a_config_key_in_its_type(tmp_path):
    settings = dataclasses.fields(cli.RunConfig)
    assert [s.name for s in settings] == list(SETTINGS)
    parser = cli.build_parser()
    assert cli._resolve_config(parser.parse_args(["boost-scan"])) == cli.RunConfig()
    cfg = tmp_path / "run.cfg"
    for setting in settings:
        value = SETTINGS[setting.name]
        assert value != setting.default
        assert isinstance(setting.default, (type(value), type(None)))
        cfg.write_text(f"{setting.name} = {value}\n")
        for args in (["--" + setting.name.replace("_", "-"), str(value)], ["--config", str(cfg)]):
            got = getattr(cli._resolve_config(parser.parse_args(["boost-scan", *args])),
                          setting.name)
            assert got == value and type(got) is type(value), (setting.name, args)


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
        # numpy's binomial counts are int64: a count past 2^63 - 1, which
        # would end in its OverflowError, and one past uint64 too
        ("malus", "--samples", 2 ** 63),
        ("malus", "--samples", 2 ** 64),
        ("boost-scan", "--v-step", 0.1),
        ("boost-scan", "--output", "no-such-directory/x.csv"),
        ("rotation-scan", "--output", "."),
        # forty boosts of gamma 6.7e7 compose to entries too large to validate
        ("wigner", *["--transform", "boost:z:0.9999999999999999"] * 40),
        # finite angles whose difference, or whose sum with a delta of the
        # grid, overflows to inf: cos(inf) is undefined
        ("malus", "--state-angle", 1e308, "--pol-angle", -1e308),
        ("malus", "--pol-angle", 1.7e308, "--delta-min", 1e308, "--delta-max", 1e308),
        ("malus", "--state-angle", -1e308, "--pol-angle", 1e308, "--delta-min", -1e308,
         "--delta-max", -1e308),
        # two boosts of gamma 6.7e7 compose to gamma 9e15, above
        # minkowski.MAX_ENTRY
        ("wigner", *["--transform", "boost:x:0.9999999999999999"] * 2),
    ],
)
def test_invalid_values_exit_2(args):
    res = run_cli(*args)
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr.startswith("error:")
    assert "Traceback" not in res.stderr


def test_samples_past_int64_exit_2_as_a_flag_and_as_a_config_key(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"samples = {2 ** 63}\n")
    for args in (["--samples", 2 ** 63], ["--config", cfg]):
        res = run_cli("malus", *args)
        assert res.returncode == 2, args
        assert res.stdout == ""
        assert res.stderr == "error: samples must lie in [1, 2^63)\n"


def _malus_columns(stdout: str) -> dict[str, tuple[str, ...]]:
    # the fields of a malus CSV by column name
    header, *rows = stdout.splitlines()
    return dict(zip(header.split(","), zip(*[row.split(",") for row in rows])))


@pytest.mark.parametrize("samples", [30_000_000, 2 ** 63 - 1])
def test_malus_of_any_int64_samples_is_the_one_stream_draw(samples):
    # a run is bounded by its rows, whatever its draws: 49 rows of 3e7 or
    # of 2^63 - 1 samples, numpy's largest binomial count
    res = run_cli("malus", "--seed", 3, "--samples", samples)
    assert res.returncode == 0 and res.stderr == ""
    columns = _malus_columns(res.stdout)
    assert len(columns["mc_freq"]) == 49
    p_pf = np.array([float(x) for x in columns["p_pf"]])
    want = np.random.default_rng(3).binomial(samples, p_pf) / samples
    assert list(columns["mc_freq"]) == ["%.17g" % x for x in want]


@pytest.mark.parametrize("command", ["rotation-scan", "malus"])
def test_reversed_grid_exits_2(command):
    # max below min by less than half a step rounds to a span of 0 steps,
    # which once emitted one row at min
    res = run_cli(command, "--delta-min", 1, "--delta-max", 0.9, "--delta-step", 1)
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr == "error: empty grid: max < min\n"


def test_grid_past_its_max_exits_2():
    # a step of 1 over [0, 0.9] rounds to one step, which ends at 1
    res = run_cli("malus", "--delta-min", 0, "--delta-max", 0.9, "--delta-step", 1)
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr == ("error: the grid ends at 1.0, past its max 0.9: (max - min) / step "
                          "= 0.9 rounds up to 1 step; use a step that divides max - min or "
                          "for which it rounds down\n")


@pytest.mark.parametrize("delta_max,delta_step,deltas", [
    (1, 0.4, [0.0, 0.4, 0.8]),  # 2.5 steps round down, to even
    (1.25, 0.5, [0.0, 0.5, 1.0]),  # 2.5 steps round down, to even
    (1, 0.38, None),  # 2.63 steps round up, to 3, past 1
    (1.75, 0.5, None),  # 3.5 steps round up, to even, past 1.75
    (2 * math.pi, 13, [0.0]),  # 0.48 steps round down, to one delta
])
def test_grid_steps_are_max_minus_min_over_step_rounded(delta_max, delta_step, deltas):
    # the grid takes (max - min) / step rounded to the nearest integer
    # steps: a step that rounds down stops short of max, one that rounds
    # up and ends past max exits 2
    res = run_cli("rotation-scan", "--delta-max", delta_max, "--delta-step", delta_step,
                  "--chi-steps", 1)
    if deltas is None:
        assert res.returncode == 2
        assert res.stdout == ""
        assert "rounds up to" in res.stderr
    else:
        assert res.returncode == 0, res.stderr
        assert sorted({float(line.split(",")[0]) for line in res.stdout.splitlines()[1:]}) == deltas


def test_chi_grid_ends_at_pi():
    # 13 * pi / 13 rounds one ulp above pi
    assert 13 * math.pi / 13 > math.pi
    res = run_cli("rotation-scan", "--delta-max", 0, "--chi-steps", 13)
    assert res.returncode == 0, res.stderr
    chis = [float(line.split(",")[1]) for line in res.stdout.splitlines()[1:]]
    assert len(chis) == 14 and chis[-1] == math.pi


def test_unknown_subcommand_exits_2():
    assert run_process("frobnicate").returncode == 2


@pytest.mark.parametrize("name", list(cli.COMMANDS))
def test_every_subcommand_shows_its_help(name):
    res = run_cli(name, "--help")
    assert res.returncode == 0, res.stderr
    assert res.stdout.startswith(f"usage: pfwigner {name} [-h]")


# the environment of a process whose stdout is buffered, as where
# PYTHONUNBUFFERED is not set: what a failed write leaves in the buffer is
# flushed again at exit
BUFFERED_ENV = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}


def test_a_closed_stdout_pipe_ends_the_run_quietly_with_status_141():
    # 128 + SIGPIPE, as `head` leaves a producer in a shell pipeline
    proc = subprocess.Popen([sys.executable, "-m", "pfwigner.cli", "boost-scan", "--v-step", "2e-5"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=BUFFERED_ENV)
    assert proc.stdout.readline() == b"V,phi_cf,phi_mx,abs_diff\n"
    proc.stdout.close()
    assert proc.stderr.read() == b""
    proc.stderr.close()
    assert proc.wait(timeout=120) == 141


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
@pytest.mark.parametrize("args", [("validate",), ("wigner",), ("boost-scan",)])
def test_a_full_stdout_exits_2_with_one_error_line(args):
    with open("/dev/full", "wb") as full:
        res = subprocess.run([sys.executable, "-m", "pfwigner.cli", *args], stdout=full,
                             stderr=subprocess.PIPE, text=True, env=BUFFERED_ENV)
    assert res.returncode == 2
    assert res.stderr == "error: cannot write standard output: No space left on device\n"


def test_missing_subcommand_exits_2():
    assert run_cli().returncode == 2


def test_main_builds_its_parser_once(monkeypatch):
    # a run, --help and usage errors leave the one parser of main fit for
    # the next run, which writes the same bytes
    build, built = cli.build_parser, []
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(build()) or built[-1])
    cli._parser.cache_clear()
    first = run_cli_bytes(*MALUS_ARGS)
    shown = run_cli("malus", "--help")
    bad_int = run_cli("malus", "--samples", "many")
    no_command = run_cli()
    second = run_cli_bytes(*MALUS_ARGS)
    assert len(built) == 1
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout == (GOLDEN / "malus.csv").read_bytes()
    assert shown.returncode == 0 and shown.stdout.startswith("usage: pfwigner malus [-h]")
    assert bad_int.returncode == 2 and "invalid int value: 'many'" in bad_int.stderr
    assert no_command.returncode == 2


def test_numerical_degeneracy_exits_3():
    res = run_cli("wigner", "--pf-speed", 0.0, "--transform",
                  "boost:z:0.999999999999")
    assert res.returncode == 3
    assert "internal numerical error" in res.stderr


def test_numerical_domain_error_exits_3():
    # valid input whose moved frame's speed rounds to 1.0 in the numerics
    res = run_process("wigner", "--pf-speed", 0.9, "--chi", 1.5, "--transform",
                      "boost:x:0.9999999999999999")
    assert res.returncode == 3
    assert res.stderr == ("internal numerical error: row 0: theta_pf=1.0 outside [0.0, 1.0) "
                          "in the gauge of the pair (k=(67108864, 67108864, 0, 1), "
                          "u=(292173655.6, 292173655.6, 0, 0.1460540433))\n")


def test_a_moved_frame_past_the_validation_bound_names_the_pair_and_transform():
    # the moved frame's gamma passes MAX_ENTRY; its standard element is not
    # validated, so the stabiliser test refuses it and names both
    res = run_cli("wigner", "--pf-speed", 0.9999999999999999, "--chi", 0.3,
                  "--transform", "boost:k:-0.9999999999999999")
    assert res.returncode == 3
    assert res.stdout == ""
    assert res.stderr.count("\n") == 1 and res.stderr.endswith("\n")
    for part in ("pair moved by", "frame gamma=", "transform gamma="):
        assert part in res.stderr


@pytest.mark.parametrize("args", [
    ("boost-scan",),
    ("wigner", "--transform", "boost:z:-0.9999"),
])
def test_a_moved_pair_that_fails_validation_names_the_pair_and_transform(args):
    # the frame gamma rounds to 2^26 and the boost against it leaves a moved
    # u that is no longer unit timelike; the message names the moved pair,
    # the given one and both gammas
    res = run_cli(*args, "--pf-speed", 0.9999999999999999, "--chi", 1e-300)
    assert res.returncode == 3
    assert res.stdout == ""
    assert res.stderr.count("\n") == 1 and res.stderr.endswith("\n")
    assert res.stderr.startswith("internal numerical error: row 0: moved pair fails validation: "
                                 "u is not unit timelike (k=(0.007071244595, ")
    assert "; given pair (k=(1, 0, 0, 1), u=(67108864, " in res.stderr
    assert res.stderr.endswith(", frame gamma=67108864, transform gamma=70.71244595)\n")


def test_any_row_error_exits_3(monkeypatch):
    # a RowError that is neither a StabilityError nor a DomainError, such as
    # a row of the numerics failing validation, is a numerical failure too
    from pfwigner.minkowski import RowValueError

    def failing(kin, L):
        raise RowValueError(4, "speed must be < 1")

    monkeypatch.setattr(cli, "pf_wigner", failing)
    res = run_cli(*BOOST_ARGS)
    assert res.returncode == 3
    assert res.stderr == "internal numerical error: row 4: speed must be < 1\n"


def test_numerical_error_names_row_pair_and_gamma():
    res = run_cli("malus", "--pf-speed", 0.999999999)
    assert res.returncode == 3
    assert res.stderr.startswith("internal numerical error: row 0: pair moved by ")
    assert " (k=(1, 0, 0, 1), u=(22360.68009, 22360.68007, 0, " in res.stderr
    assert res.stderr.endswith(", transform gamma=1)\n")


def test_numerical_error_names_the_row_of_the_sweep(tmp_path):
    # the sweep runs in blocks of STACK_BLOCK rows; the first row to fail
    # (at V near 0.99) lies past the first block of a grid of 2 STACK_BLOCK
    # steps up to 0.9999, and the row named is the row of the sweep
    from pfwigner.minkowski import STACK_BLOCK

    v_step = 0.9999 / (2 * STACK_BLOCK)
    args = ("boost-scan", "--pf-speed", 0.99999, "--chi", 1.0, "--v-min", 0.0,
            "--v-step", v_step)
    res = run_cli(*args)
    assert res.returncode == 3
    assert res.stdout == ""
    head = "internal numerical error: row "
    assert res.stderr.startswith(head)
    row = int(res.stderr[len(head):].split(":")[0])
    assert row >= STACK_BLOCK
    v = row * v_step
    assert res.stderr.endswith(f", transform gamma={1.0 / math.sqrt(1.0 - v * v):.10g})\n")
    # a failed run creates no output file
    out = tmp_path / "scan.csv"
    res = run_cli(*args, "--output", out)
    assert res.returncode == 3 and res.stdout == ""
    assert not out.exists()


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
    # the exact value of every check and the largest stabiliser residual
    # they return, beyond the three digits that `validate` prints
    from pfwigner import checks, cli

    results = checks.run_checks(cli.CHECKS)
    got = {name: repr(r.value) for name, r in results.items()}
    got["stabiliser"] = repr(max(r.stabiliser for r in results.values()))
    assert got == json.loads((GOLDEN / "validate_values.json").read_text())


def test_validate_sweeps_the_grids_of_the_acceptance_criteria():
    from pfwigner import checks
    from test_acceptance import CHI_GRID, DELTA_GRID, THETA_GRID, V_GRID

    assert cli.CHECKS is checks.CHECKS
    table = {name: check.args for name, check in cli.CHECKS}
    assert table["boost_oracle_equivalence"][:3] == (V_GRID, THETA_GRID, CHI_GRID)
    assert table["rotation_oracle_equivalence"][:3] == (DELTA_GRID, THETA_GRID, CHI_GRID)
    assert table["approximation_order"][1] == DELTA_GRID
    assert table["chi_extremum"][0] == tuple(v for v in V_GRID if v != 0.0)
    assert table["chi_extremum"][2] == CHI_GRID


def test_validate_writes_text_and_json_to_output(tmp_path):
    text_out, json_out = tmp_path / "v.txt", tmp_path / "v.json"
    res = run_cli("validate", "--output", text_out)
    assert res.returncode == 0 and res.stdout == ""
    res = run_cli("validate", "--output", json_out, "--format", "json")
    assert res.returncode == 0 and res.stdout == ""
    report = json.loads(json_out.read_text())["checks"]
    lines = text_out.read_text().splitlines()
    assert len(report) == len(lines) - 1 == len(cli.CHECKS)
    assert lines[-1] == f"{len(cli.CHECKS)}/{len(cli.CHECKS)} checks passed"
    for check, line in zip(report, lines):
        assert set(check) == {"name", "value", "tol", "margin", "passed"}
        assert check["passed"] is True
        assert check["margin"] == check["value"] / check["tol"] <= 1.0
        assert line == (f"PASS {check['name']:32s} value={check['value']:.3e} "
                        f"tol={check['tol']:.3e}")


def test_benchmark_reference_names_checks_of_the_suite():
    # the benchmark counts a `validate` operation as failed unless the
    # check each name of its reference prints PASS; make_reference.py
    # writes the names, unpacking each entry of cli.CHECKS as (name, check)
    names = [name for name, _ in cli.CHECKS]
    reference = Path(__file__).parents[1] / "benchmarks" / "reference" / "validate.txt"
    assert set(reference.read_text(encoding="utf-8").split()) <= set(names)


def test_a_result_passes_when_its_value_is_within_its_tolerance():
    from pfwigner.checks import CheckResult

    assert CheckResult(1.0, 1.0).passed and not CheckResult(1.5, 1.0).passed
    # a NaN value fails, and a zero tolerance gives an IEEE margin
    assert not CheckResult(math.nan, 1.0).passed
    assert CheckResult(0.0, 0.0).passed and math.isnan(CheckResult(0.0, 0.0).margin)
    assert CheckResult(1e-15, 0.0).margin == math.inf
    assert CheckResult(3.0, 2.0).margin == 1.5


def test_validate_verdict_where_the_tolerance_underflows():
    # --tol-scale 1e-320 takes each tolerance to 0 or a subnormal: each
    # check with a nonzero value fails with margin inf, and no warning is
    # raised on the way
    res = subprocess.run(
        [sys.executable, "-m", "pfwigner.cli", "validate", "--format", "json",
         "--tol-scale", "1e-320"],
        capture_output=True, text=True, env={**os.environ, "PYTHONWARNINGS": "error"})
    assert res.returncode == 1 and res.stderr == ""
    report = {c["name"]: c for c in json.loads(res.stdout)["checks"]}
    assert list(report) == [name for name, _ in cli.CHECKS]
    chi, malus = report.pop("chi_extremum"), report.pop("malus_monte_carlo")
    assert chi["passed"] is True and chi["tol"] == 0.0 and math.isnan(chi["margin"])
    assert malus["passed"] is True and malus["tol"] == 1e-320 and malus["margin"] == 0.0
    assert all(c["passed"] is False and c["margin"] == math.inf for c in report.values())


def test_validate_detects_tampered_tolerances():
    # shrinking every tolerance by 1e9 must trip the suite; guards that
    # the checks compare real residuals rather than printing PASS
    res = run_cli("validate", "--tol-scale", "1e-9")
    assert res.returncode == 1
    assert any(ln.startswith("FAIL") for ln in res.stdout.splitlines())
