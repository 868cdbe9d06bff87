"""pfwigner benchmark: one CLI workload, timed end to end or traced per module.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
src/. With --trace 0 it reports the end-to-end metrics:

  setup_s       median over SETUP_RUNS fresh interpreters of
                `import pfwigner.cli` plus building the parser (cold start)
  wall_s        median wall time of one in-process `cli.main` run, after a
                warm-up run, with output to a file

Both times are in reference seconds (see calibrate.py): each timing is
scaled by the speed of a fixed kernel sampled in the same process during
the timed interval. The raw medians are printed beside them. The
benchmark and every process it starts run pinned to one vCPU.
  peak_rss_mb   peak resident memory of the process that ran the workload
  ops_ok_frac   operations that passed the correctness gate / attempted

With --trace 1 a separate process wraps calls into the five modules and
reports, per traced function M.F, M.F.calls (per run), M.F.self_us_per_call
and M.F.self_share (self time / traced wall time); per module M.self_s
(self seconds per run; for cli, also the time outside every span);
cli.self_share (wall time outside every span) and trace.overhead_frac.

The last line of standard output is the JSON result; lines before it
give the machine facts and every metric by name and unit.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from spans import TRACED
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_RUNS = 7
# the probe starts before numpy loads, so it samples the numpy-free kernel
SETUP_CHILD = """
import calibrate
probe = calibrate.SpeedProbe("python", period_s=0.01)
with probe:
    import pfwigner.cli
    pfwigner.cli.build_parser()
print(probe.spent, probe.reference_seconds(1.0))
"""
TIME_LIMIT_S = 170.0
PINNED_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                  "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def child_env() -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(HERE)]))
    env.update({name: "1" for name in PINNED_THREADS})
    return env


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "pfwigner").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def machine_facts() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_at_start": os.getloadavg(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "git_sha": git_sha(),
        "source_sha256": source_sha256(),
    }


def setup_times(env: dict[str, str]) -> tuple[list[float], list[float]]:
    """Wall times of fresh interpreters importing the CLI and building its
    parser, raw and in reference seconds.

    The child samples its own speed while it imports; the time of its
    samples is taken out. The first set-up is dropped: it may write the
    bytecode cache. The wait has no timeout, because waiting with one
    polls the child at up to 50 ms intervals.
    """
    raw, ref = [], []
    for _ in range(SETUP_RUNS + 1):
        t0 = time.perf_counter()
        out = subprocess.run([sys.executable, "-c", SETUP_CHILD], env=env, check=True,
                             capture_output=True, text=True).stdout
        wall = time.perf_counter() - t0
        spent, scale = map(float, out.split())
        raw.append(wall - spent)
        ref.append(raw[-1] * scale)
    return raw[1:], ref[1:]


def count_ops(workload, runs: list, workdir: Path) -> tuple[int, int]:
    """Gate every run; a non-zero exit or an exception fails all its operations."""
    verdicts: dict[str, tuple[int, int]] = {}
    attempted = failed = 0
    for rc, kept in runs:
        if rc != 0:
            a, f = workload.ops, workload.ops
        else:
            if kept not in verdicts:
                verdicts[kept] = workload.check((workdir / kept).read_text(encoding="utf-8"))
            a, f = verdicts[kept]
        attempted += a
        failed += f
    return attempted, failed


def layer_metrics(result: dict) -> tuple[dict, bool]:
    """Per-layer metrics from the traced runs, and whether call counts repeated."""
    layers = result["layers"]  # per traced run: [{name: [calls, self_s]}, covered_s]
    n = len(layers)
    traced_total = sum(result["traced_walls"])
    calls_each = [{k: v[0] for k, v in per.items()} for per, _ in layers]
    metrics = {}
    for mod, funcs in TRACED.items():
        mod_self = 0.0
        for func in funcs:
            key = f"{mod}.{func}"
            calls = sum(c.get(key, 0) for c in calls_each)
            own = sum(per[key][1] for per, _ in layers if key in per)
            mod_self += own
            metrics[f"{key}.calls"] = (calls_each[0].get(key, 0), "count")
            metrics[f"{key}.self_us_per_call"] = (1e6 * own / calls if calls else 0.0, "us")
            metrics[f"{key}.self_share"] = (own / traced_total, "frac")
        if mod == "cli":
            outside = traced_total - sum(covered for _, covered in layers)
            mod_self += outside
            metrics["cli.self_share"] = (outside / traced_total, "frac")
        metrics[f"{mod}.self_s"] = (mod_self / n, "s")
    overhead = statistics.median(result["traced_walls"]) / statistics.median(result["walls"]) - 1
    metrics["trace.overhead_frac"] = (overhead, "frac")
    return metrics, all(c == calls_each[0] for c in calls_each)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "pfwigner" / "cli.py").is_file():
        print(f"error: no pfwigner source under {SRC}", file=sys.stderr)
        return 2

    started = time.monotonic()
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    facts = dict(machine_facts(), pinned_cpu=cpu)
    workload = WORKLOADS[args.workload]
    env = child_env()
    metrics: dict[str, tuple[float, str]] = {}
    raw: dict[str, float] = {}
    if not args.trace:
        raw_setup, ref_setup = setup_times(env)
        raw["setup_s"] = statistics.median(raw_setup)
        metrics["setup_s"] = (statistics.median(ref_setup), "s")

    (HERE / ".work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=HERE / ".work"))
    try:
        subprocess.run([sys.executable, str(HERE / "worker.py"), args.workload, str(args.seed),
                        str(args.seconds), str(args.trace), str(workdir)],
                       env=env, check=True, timeout=TIME_LIMIT_S - (time.monotonic() - started))
        result = json.loads((workdir / "result.json").read_text(encoding="utf-8"))
        attempted, failed = count_ops(workload, result["runs"], workdir)
    finally:
        shutil.rmtree(workdir)
        with contextlib.suppress(OSError):
            (HERE / ".work").rmdir()

    walls = result["walls"]
    correct = failed == 0
    if args.trace:
        layer, counts_repeat = layer_metrics(result)
        metrics.update(layer)
        if not counts_repeat:
            print("error: call counts differ between traced runs", file=sys.stderr)
            correct = False
    else:
        raw["wall_s"] = statistics.median(walls)
        metrics["wall_s"] = (statistics.median(result["ref_walls"]), "s")
        metrics["peak_rss_mb"] = (result["peak_rss_kb"] / 1024.0, "MiB")
        metrics["ops_ok_frac"] = (1.0 - failed / attempted, "frac")

    q1, _, q3 = statistics.quantiles(walls, n=4)
    print("# facts " + json.dumps(facts))
    print(f"# {args.workload}: {len(walls)} untraced runs, raw wall min {min(walls):.6f} "
          f"q1 {q1:.6f} q3 {q3:.6f} max {max(walls):.6f} s")
    for name, value in raw.items():
        print(f"# raw {name} {value!r} s (median, uncalibrated)")
    print(f"ops_failed_frac {failed / attempted!r} frac ({failed}/{attempted})")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
