"""Write the correctness references in reference/ from the current source.

    PYTHONPATH=src python3 benchmarks/make_reference.py

Run it only when a change to the program's numbers is intended and
explained; the gate exists to catch changes that are not.
"""

from __future__ import annotations

import contextlib
import io
import sys

import gate
from workloads import WORKLOADS

from pfwigner import cli

ROTATION_STRIDE = 37  # coprime with the 31 chi values, so every chi is sampled


def _run(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    if rc != 0:
        raise SystemExit(f"{' '.join(argv)} exited {rc}")
    return out.getvalue()


def _write(name: str, lines: list[str]) -> None:
    (gate.REFERENCE_DIR / name).write_text("\n".join(lines) + "\n", encoding="utf-8")


def main() -> None:
    _write("boost_scan.csv", _run(WORKLOADS["boost-scan"].argv(0)).splitlines())

    text = _run(WORKLOADS["rotation-scan-fine"].argv(0)).splitlines()
    _write("rotation_scan_fine.csv",
           ["row," + text[0]]
           + [f"{i},{line}" for i, line in enumerate(text[1:]) if i % ROTATION_STRIDE == 0])

    # mc_freq depends on the seed and is checked statistically, not stored
    rows = [line.split(",") for line in _run(WORKLOADS["malus"].argv(0)).splitlines()]
    _write("malus.csv", [",".join(r[:3] + r[4:]) for r in rows])

    _write("validate.txt", [name for name, _ in cli.CHECKS])


if __name__ == "__main__":
    sys.exit(main())
