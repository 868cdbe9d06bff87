"""The four benchmark workloads: CLI arguments, reference and checker.

Each workload is one `pfwigner` command, chosen so that every module has
a workload where it dominates (see README.md for the profile behind each
choice). Only `malus` takes the benchmark seed; the other commands have
no random input, so every seed gives them the same input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import gate


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    argv: Callable[[int], list[str]]
    ops: int  # operations per run: output rows, or checks for validate
    check: Callable[[str], tuple[int, int]]


def _sweep(name: str, why: str, argv, reference: str, out_columns: list[str], n_rows: int,
           row_check=None) -> Workload:
    def check(text: str) -> tuple[int, int]:
        ref_columns, ref_rows = gate.load_reference(reference)
        return gate.check_sweep(text, out_columns, n_rows, ref_columns, ref_rows, row_check)
    return Workload(name, why, argv, n_rows, check)


def _validate_checker(text: str) -> tuple[int, int]:
    names = (gate.REFERENCE_DIR / "validate.txt").read_text(encoding="utf-8").split()
    return gate.check_validate(text, names)


WORKLOADS = {w.name: w for w in (
    _sweep(
        "boost-scan",
        "matrix route on one shared pair: pf_wigner and 12 transform validations per row; "
        "induction and minkowski dominate",
        lambda seed: ["boost-scan"],
        "boost_scan.csv", ["V", "phi_cf", "phi_mx", "abs_diff"], 607,
    ),
    _sweep(
        "malus",
        "Monte Carlo draws inline in cmd_malus dominate and induction is under 10%; "
        "an induction speed-up shows no change here",
        lambda seed: ["malus", "--seed", str(seed)],
        "malus.csv", ["delta", "p_classical", "p_pf", "mc_freq", "mc_err"], 49,
        gate.malus_draw_ok,
    ),
    _sweep(
        "rotation-scan-fine",
        "29791 rows through closed_form and CSV formatting only; induction is never called",
        lambda seed: ["rotation-scan", "--delta-step", repr(math.pi / 480), "--chi-steps", "30"],
        "rotation_scan_fine.csv", ["delta", "chi", "phi_ex", "dphi_ex", "dphi_ap", "abs_err"],
        961 * 31,  # delta steps of pi/480 over [0, 2pi], 31 chi values
    ),
    Workload(
        "validate",
        "all ten checks: distinct random pairs, generic transforms, the only standard_wigner "
        "calls; a per-pair cache gets no hits",
        lambda seed: ["validate"],
        10,
        _validate_checker,
    ),
)}
