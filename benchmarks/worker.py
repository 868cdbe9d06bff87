"""Child process that runs one workload in-process through `pfwigner.cli.main`.

    python3 worker.py WORKLOAD SEED SECONDS TRACE WORKDIR

run.py starts it with the source tree on PYTHONPATH and native thread
pools pinned to one thread. Each run's standard output goes to a file in
WORKDIR; a run whose output differs from every earlier one is kept there
for run.py to check. The result goes to WORKDIR/result.json.

Untraced, it makes one warm-up run and then timed runs until SECONDS
have passed (at least MIN_RUNS), each with a SpeedProbe sampling the
machine's speed so that its time can be given in reference seconds.
Traced, it alternates untraced and traced runs the same way, without
the probe, so the two wall times see the same machine state and their
ratio is the tracing overhead.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

from calibrate import SpeedProbe
from spans import Tracer, summarise
from workloads import WORKLOADS

from pfwigner import cli, closed_form, induction, minkowski, polarisation

MODULES = {"minkowski": minkowski, "closed_form": closed_form, "induction": induction,
           "polarisation": polarisation, "cli": cli}
MIN_RUNS = 3


def _digest(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


class Runner:
    def __init__(self, argv: list[str], workdir: Path):
        self.argv = argv
        self.workdir = workdir
        self.kept: dict[str, str] = {}  # output digest -> kept file name
        self.runs: list[tuple[int | None, str]] = []  # (exit code, kept output)

    def once(self, record: bool = True, probe: SpeedProbe | None = None) -> float:
        """Wall time of one run, less the time `probe` spent sampling in it."""
        out = self.workdir / "run.out"
        rc = None
        with (open(out, "w", encoding="utf-8", newline="") as fh, contextlib.redirect_stdout(fh),
              probe or contextlib.nullcontext()):
            t0 = time.perf_counter()
            try:
                rc = cli.main(self.argv)
            except SystemExit as exc:
                rc = exc.code
            except Exception:  # the run fails; the benchmark goes on and counts it
                traceback.print_exc()
            wall = time.perf_counter() - t0
        if probe:
            wall -= probe.spent
        if record:
            digest = _digest(out)
            if digest not in self.kept:
                self.kept[digest] = f"out-{len(self.kept)}.txt"
                shutil.copyfile(out, self.workdir / self.kept[digest])
            self.runs.append((rc, self.kept[digest]))
        return wall


def main() -> int:
    name, seed, seconds, trace, workdir = sys.argv[1:]
    seconds = float(seconds)
    workdir = Path(workdir)
    runner = Runner(WORKLOADS[name].argv(int(seed)), workdir)
    runner.once(record=False)  # warm-up: lazy imports and first-call set-up

    result: dict = {}
    walls: list[float] = []
    start = time.perf_counter()
    if trace == "0":
        probe, ref_walls = SpeedProbe(), []
        while len(walls) < MIN_RUNS or time.perf_counter() - start < seconds:
            walls.append(runner.once(probe=probe))
            ref_walls.append(probe.reference_seconds(walls[-1]))
        result["ref_walls"] = ref_walls
        result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        tracer = Tracer()
        traced_walls, layers = [], []
        while len(walls) < MIN_RUNS or time.perf_counter() - start < seconds:
            walls.append(runner.once())
            tracer.reset()
            tracer.install(MODULES)
            try:
                traced_walls.append(runner.once())
            finally:
                tracer.uninstall()
            layers.append(summarise(tracer.spans))
        result["traced_walls"] = traced_walls
        result["layers"] = layers
    result["walls"] = walls
    result["runs"] = runner.runs
    with open(workdir / "result.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
