"""Correctness gate: compare one run's output with the checked-in reference.

Every checker returns (attempted, failed), counted in operations: one
output row for a sweep, one check for `validate`. A row fails when it is
missing, does not parse to finite numbers, or leaves the tolerance.
"""

from __future__ import annotations

import math
from pathlib import Path

TOL = 1e-12  # absolute, on angle and probability columns
MC_SIGMAS = 4.0

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def parse_csv(text: str) -> tuple[list[str], list[list[float]]]:
    """Header and rows; a row that does not parse comes back empty."""
    lines = text.splitlines()
    if not lines:
        return [], []
    rows = []
    for line in lines[1:]:
        try:
            rows.append([float(v) for v in line.split(",")])
        except ValueError:
            rows.append([])
    return lines[0].split(","), rows


def load_reference(name: str) -> tuple[list[str], list[list[float]]]:
    return parse_csv((REFERENCE_DIR / name).read_text(encoding="utf-8"))


def check_sweep(text: str, out_columns: list[str], n_rows: int,
                ref_columns: list[str], ref_rows: list[list[float]],
                row_check=None) -> tuple[int, int]:
    """Rows of a sweep against a reference that holds some of its columns.

    A reference whose first column is `row` is a subsample: each line names
    the output row it belongs to. Otherwise it holds every row in order.
    Output rows the reference does not name must still parse to finite
    numbers. `row_check`, if given, is one more test on each row, passed
    the row as a column -> value dict. A wrong header or row count fails
    every row.
    """
    columns, rows = parse_csv(text)
    if columns != out_columns or len(rows) != n_rows:
        return n_rows, n_rows
    if ref_columns[0] == "row":
        want = {int(r[0]): dict(zip(ref_columns[1:], r[1:])) for r in ref_rows}
    else:
        want = dict(enumerate(dict(zip(ref_columns, r)) for r in ref_rows))

    def ok(i: int, row: list[float]) -> bool:
        if len(row) != len(columns) or not all(math.isfinite(v) for v in row):
            return False
        got = dict(zip(columns, row))
        if any(abs(got[c] - v) > TOL for c, v in want.get(i, {}).items()):
            return False
        return row_check is None or row_check(got)

    return n_rows, sum(not ok(i, row) for i, row in enumerate(rows))


def malus_draw_ok(row: dict[str, float]) -> bool:
    """The Monte Carlo frequency lies within 4 standard errors of p_pf."""
    return abs(row["mc_freq"] - row["p_pf"]) <= MC_SIGMAS * row["mc_err"]


def check_validate(text: str, check_names: list[str]) -> tuple[int, int]:
    """One operation per check: it must print a PASS line."""
    passed = set()
    for line in text.splitlines():
        parts = line.split()
        if len(parts) >= 2 and parts[0] == "PASS":
            passed.add(parts[1])
    return len(check_names), sum(name not in passed for name in check_names)
