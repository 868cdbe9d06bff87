"""Command-line front end: experiment sweeps, single-shot angle queries,
Malus statistics, and the validation suite.

Output is CSV (17 significant digits, LF endings) or JSON; identical
config and seed give byte-identical files. Exit codes: 0 success,
1 validation failure, 2 usage or config error or an output that cannot
be written, 3 internal numerical error, 141 (128 + SIGPIPE) a standard
output whose reader has gone.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from contextlib import contextmanager
from dataclasses import Field, dataclass, field, fields
from functools import cache, partial
from itertools import product
from typing import Callable, Iterator, Sequence, TextIO

import numpy as np

from . import checks
from .checks import CHI_GRID, DELTA_GRID, THETA_GRID, V_GRID
from .closed_form import boost_phase, check_rotation_grid, rotation_rows
from .induction import bench_pair, pf_wigner, standard_wigner
from .minkowski import (
    IDENTITY,
    LorentzTransform,
    PairStack,
    RowError,
    RowValueError,
    along_z,
    boost_from_velocity,
    compose,
    rotation_about,
    row_blocks,
    rows_from,
    unit_rows,
    wrap_angle,
)
from .polarisation import anomalous_malus_curve, malus_probability, monte_carlo_malus

# cap on the rows one sweep may emit, checked before any row is built
MAX_ROWS = 1_000_000
# cap on the Monte Carlo draws of one malus sweep, rows times samples,
# checked before any row is built
MAX_DRAWS = 1_000_000_000

# CMB dipole speed, 369.8 km/s in units of c
CMB_DIPOLE_SPEED = 1.2336e-3


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    """The settings of a run, one field each. Field pf_speed is the flag
    --pf-speed and the config-file key pf_speed or pf-speed, read in the
    type of its default (str for a default of None); the default holds
    where neither gives a value. A field's metadata holds the other
    arguments of its flag: its help, or the choices of --format."""

    pf_speed: float = field(default=CMB_DIPOLE_SPEED, metadata={
        "help": f"frame speed in units of c (default {CMB_DIPOLE_SPEED})"})
    chi: float = field(default=0.5 * math.pi, metadata={
        "help": "angle between photon and frame velocity, radians"})
    v_min: float = -0.9999
    v_max: float = 0.9999
    v_step: float = 0.0033
    delta_min: float = 0.0
    delta_max: float = 2.0 * math.pi
    delta_step: float = math.pi / 24.0
    chi_steps: int = 12
    samples: int = 1_000_000
    seed: int = 12345
    state_angle: float = field(default=0.0, metadata={
        "help": "polarisation angle of the prepared state, radians"})
    pol_angle: float = field(default=0.25 * math.pi, metadata={
        "help": "polariser transmission axis angle, radians"})
    output: str | None = None
    format: str = field(default="csv", metadata={"choices": ("csv", "json")})
    tol_scale: float = field(default=1.0, metadata={
        "help": "multiply validation tolerances (diagnostic)"})

    def __post_init__(self):
        for name, value in vars(self).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{name.replace('_', '-')} must be finite")
        if not 0.0 <= self.pf_speed < 1.0:
            raise ConfigError("pf-speed must lie in [0, 1)")
        if not 0.0 <= self.chi <= math.pi:
            raise ConfigError("chi must lie in [0, pi]")
        if self.v_step <= 0.0 or self.delta_step <= 0.0:
            raise ConfigError("step sizes must be positive")
        if not (-1.0 < self.v_min <= self.v_max < 1.0):
            raise ConfigError("v range must satisfy -1 < v_min <= v_max < 1")
        if self.chi_steps < 1:
            raise ConfigError("chi-steps must be >= 1")
        if self.samples < 1:
            raise ConfigError("samples must be >= 1")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if self.format not in ("csv", "json"):
            raise ConfigError(f"unknown format {self.format!r}")
        if self.tol_scale <= 0.0:
            raise ConfigError("tol-scale must be positive")


def _kind(setting: Field) -> type:
    """The type a setting is read in: that of its default, or str."""
    return str if setting.default is None else type(setting.default)


def _read_config_file(path: str) -> dict:
    kinds = {setting.name: _kind(setting) for setting in fields(RunConfig)}
    values = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for ln, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{ln}: expected key=value")
                key, _, val = line.partition("=")
                key = key.strip().replace("-", "_")
                if key not in kinds:
                    raise ConfigError(f"{path}:{ln}: unknown key {key!r}")
                try:
                    values[key] = kinds[key](val.strip())
                except ValueError as exc:
                    raise ConfigError(f"{path}:{ln}: bad value for {key}: {exc}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return values


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    """The settings of a run: its flags over its config file over the
    defaults."""
    values = _read_config_file(args.config) if args.config else {}
    for setting in fields(RunConfig):
        if getattr(args, setting.name) is not None:
            values[setting.name] = getattr(args, setting.name)
    return RunConfig(**values)


def _grid(lo: float, hi: float, step: float) -> list[float]:
    if hi < lo:
        raise ConfigError("empty grid: max < min")
    span = (hi - lo) / step
    if span > MAX_ROWS - 1:
        raise ConfigError(f"grid exceeds {MAX_ROWS} rows; use a larger step")
    n = int(round(span))
    vals = [lo + i * step for i in range(n + 1)]
    # a last point past max by rounding alone, under 1e-9 of a step, is kept
    if vals[-1] > hi + 1e-9 * step:
        raise ConfigError(f"the grid ends at {vals[-1]!r}, past its max {hi!r}; "
                          "use a step that divides max - min")
    return vals


# rows of a sweep formatted and written at a time: bounds the text the
# writer holds, one block's, never that of the whole table; it is not
# tied to STACK_BLOCK, so the writer's memory stays as it is when the
# compute block changes
EMIT_BLOCK = 4096


def _drop_stdout() -> None:
    """Point stdout's file descriptor, if it has one, at devnull."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


@contextmanager
def _sink(cfg: RunConfig) -> Iterator[TextIO]:
    """Where a command writes its output: stdout, flushed when the context
    exits, or the --output file, created when the context is entered. Open
    it only once nothing can fail, so that a failed run writes nothing and
    creates no file. A write error is a ConfigError, except a closed pipe,
    which `main` ends the run on."""
    try:
        if not cfg.output:
            yield sys.stdout
            sys.stdout.flush()
            return
        with open(cfg.output, "w", encoding="utf-8", newline="") as fh:
            yield fh
    except OSError as exc:
        if not cfg.output:
            # stdout still holds what failed to be written: send it to
            # devnull, so that its flush at exit cannot raise again
            _drop_stdout()
        if isinstance(exc, BrokenPipeError):
            raise
        where = f"output file {cfg.output}" if cfg.output else "standard output"
        raise ConfigError(f"cannot write {where}: {exc.strerror}") from exc


def _grid_blocks(lengths: list[int], size: int) -> list[tuple[slice, ...]]:
    """Blocks of at most `size` points of a grid with axes of the given
    lengths (outer axis first), in row order, each a tuple of one slice
    per axis: as many outer values as fit with whole inner axes or, when
    one outer value has more than `size` points, one outer value with each
    block of the inner axes in turn."""
    inner = math.prod(lengths[1:])
    if inner <= size:
        step = max(1, size // inner)
        return [(slice(i, i + step),) + (slice(None),) * (len(lengths) - 1)
                for i in range(0, lengths[0], step)]
    return [(slice(i, i + 1),) + block for i in range(lengths[0])
            for block in _grid_blocks(lengths[1:], size)]


def _emit(cfg: RunConfig, columns: list[str], axes: list[Sequence[float]],
          values: Callable[[tuple[slice, ...]], np.ndarray]) -> None:
    """Write a sweep: for each point of the grid of `axes` (outer axis
    first), its coordinates and then its row of computed columns.

    values(block) gives the (n, k) array of those rows for the points of
    a block, a tuple of one slice per axis: the points whose coordinates
    lie in axes[0][block[0]], axes[1][block[1]], ... It is called for
    blocks of about EMIT_BLOCK rows (see `_grid_blocks`), and each block is
    formatted and written before the next is asked for, so no row may fail
    once the first is written.
    """
    blocks = _grid_blocks([len(axis) for axis in axes], EMIT_BLOCK)
    with _sink(cfg) as out:
        if cfg.format == "csv":
            # each inner axis value of a block is formatted once, into the %
            # format of the lines of one outer value, which blocks that take
            # the same inner slices share; a block makes one string per
            # outer value and fills its computed fields with one %
            out.write(",".join(columns) + "\n")
            inner = None
            for block in blocks:
                if block[1:] != inner:
                    inner = block[1:]
                    lines = [",".join(["%.17g"] * (len(columns) - len(axes))) + "\n"]
                    for axis, part in reversed(list(zip(axes[1:], inner))):
                        lines = [prefix + line for prefix in ["%.17g," % v for v in axis[part]]
                                 for line in lines]
                text = "".join([prefix + prefix.join(lines)
                                for prefix in ["%.17g," % v for v in axes[0][block[0]]]])
                out.write(text % tuple(values(block).ravel().tolist()))
        else:
            # the bytes of json.dumps(..., indent=2) of the whole document:
            # each block's rows are dumped alone and indented one level more
            head, tail = json.dumps({"columns": columns, "rows": [None]},
                                    indent=2).split("\n    null")
            out.write(head)
            for i, block in enumerate(blocks):
                rows = [[*point, *row] for point, row in
                        zip(product(*(axis[part] for axis, part in zip(axes, block))),
                            values(block).tolist())]
                text = json.dumps(rows, indent=2)[1:-2].replace("\n", "\n  ")
                out.write("," + text if i else text)
            out.write(tail + "\n")


def _axis_vector(token: str, pair: PairStack) -> np.ndarray:
    if token == "k":
        return unit_rows(pair.k[:, 1:])[0]
    try:
        return {"x": np.array([1.0, 0.0, 0.0]),
                "y": np.array([0.0, 1.0, 0.0]),
                "z": np.array([0.0, 0.0, 1.0])}[token]
    except KeyError:
        raise ConfigError(f"unknown axis {token!r} (expected x, y, z or k)") from None


def _parse_transform(specs: list[str] | None, pair: PairStack) -> LorentzTransform:
    L = IDENTITY
    for spec in specs or []:
        parts = spec.split(":")
        if len(parts) != 3:
            raise ConfigError(f"bad transform spec {spec!r} (expected kind:axis:value)")
        kind, axis_token, value = parts
        try:
            val = float(value)
        except ValueError:
            val = math.nan
        if not math.isfinite(val):
            raise ConfigError(f"bad numeric value in transform spec {spec!r}")
        axis = _axis_vector(axis_token, pair)
        if kind == "boost":
            if not -1.0 < val < 1.0:
                raise ConfigError("boost speed must lie in (-1, 1)")
            step = boost_from_velocity(axis * val)
        elif kind == "rotation":
            step = rotation_about(axis, val)
        else:
            raise ConfigError(f"unknown transform kind {kind!r}")
        try:
            L = compose(step, L)
        except RowValueError as exc:
            raise ConfigError(f"applying transform spec {spec!r} gives an invalid transform: "
                              f"{exc.reason}") from None
    return L


def cmd_boost_scan(cfg: RunConfig) -> int:
    pair = bench_pair(cfg.pf_speed, cfg.chi)
    grid = _grid(cfg.v_min, cfg.v_max, cfg.v_step)
    if grid[-1] >= 1.0:
        raise ConfigError(f"the v grid ends at V = {grid[-1]:.17g}, not below 1; "
                          "use a v-step that divides v-max - v-min")
    phi_mx = []
    for block in row_blocks(len(grid)):
        with rows_from(block.start):
            phi_mx.append(pf_wigner(pair, boost_from_velocity(along_z(grid[block]))).phi)
    phi_mx = np.concatenate(phi_mx)
    phi_cf = boost_phase(grid, cfg.pf_speed, cfg.chi)
    _emit(cfg, ["V", "phi_cf", "phi_mx", "abs_diff"], [grid],
          np.column_stack([phi_cf, phi_mx, np.abs(phi_cf - phi_mx)]).__getitem__)
    return 0


def cmd_rotation_scan(cfg: RunConfig) -> int:
    deltas = _grid(cfg.delta_min, cfg.delta_max, cfg.delta_step)
    if len(deltas) * (cfg.chi_steps + 1) > MAX_ROWS:
        raise ConfigError(f"scan exceeds {MAX_ROWS} rows; use a larger delta-step "
                          "or fewer chi-steps")
    # i*pi/n can round one ulp above pi, as at n = 13
    chis = [min(i * math.pi / cfg.chi_steps, math.pi) for i in range(cfg.chi_steps + 1)]
    check_rotation_grid(deltas, cfg.pf_speed, chis)
    _emit(cfg, ["delta", "chi", "phi_ex", "dphi_ex", "dphi_ap", "abs_err"], [deltas, chis],
          lambda block: rotation_rows(deltas[block[0]], cfg.pf_speed, chis[block[1]])[:, 2:])
    return 0


def cmd_wigner(cfg: RunConfig, transform_specs: list[str] | None) -> int:
    pair = bench_pair(cfg.pf_speed, cfg.chi)
    L = _parse_transform(transform_specs, pair)
    w_pf = pf_wigner(pair, L)
    w_std = standard_wigner(pair.k, L)
    report = {
        "phi_pf": w_pf.phi,
        "phi_std": w_std.phi,
        "delta_phi": wrap_angle(w_pf.phi - w_std.phi),
        "residual_pf": w_pf.residual,
        "residual_std": w_std.residual,
        "stabiliser_pf": w_pf.stabiliser,
        "stabiliser_std": w_std.stabiliser,
    }
    record = {name: float(value[0]) for name, value in report.items()}
    with _sink(cfg) as out:
        out.write(json.dumps(record, indent=2) + "\n")
    return 0


def cmd_malus(cfg: RunConfig) -> int:
    pair = bench_pair(cfg.pf_speed, cfg.chi)
    deltas = _grid(cfg.delta_min, cfg.delta_max, cfg.delta_step)
    if len(deltas) * cfg.samples > MAX_DRAWS:
        raise ConfigError(f"malus exceeds {MAX_DRAWS} draws (rows times samples); "
                          "use fewer samples or a larger delta-step")
    # finite angles can still sum to inf, whose cosine is undefined; the
    # curve's sum is monotone in delta, so the grid's ends bound every row's
    ends = (0.0, deltas[0], deltas[-1])
    if not all(math.isfinite(cfg.pol_angle + d - cfg.state_angle) for d in ends):
        raise ConfigError("pol-angle + delta - state-angle must be finite at delta = 0 "
                          "and over the delta grid")
    p_pf = anomalous_malus_curve(pair, cfg.state_angle, cfg.pol_angle, deltas)
    p_classical = np.repeat(malus_probability(cfg.state_angle, cfg.pol_angle), len(deltas))
    freq = monte_carlo_malus(p_pf, cfg.samples, cfg.seed)
    err = np.sqrt(p_pf * (1.0 - p_pf) / cfg.samples)
    _emit(cfg, ["delta", "p_classical", "p_pf", "mc_freq", "mc_err"], [deltas],
          np.column_stack([p_classical, p_pf, freq, err]).__getitem__)
    return 0


# --- validation suite -------------------------------------------------

# each check of `validate`, bound to the grids, seeds and tolerance it runs with
CHECKS = tuple((check.func.__name__, check) for check in (
    partial(checks.boost_oracle_equivalence, V_GRID, THETA_GRID, CHI_GRID, 1e-9),
    partial(checks.rotation_oracle_equivalence, DELTA_GRID, THETA_GRID, CHI_GRID, 1e-9),
    partial(checks.composition_law_pair, 2024, 1000, 1e-9),
    partial(checks.composition_law_standard, 2025, 1000, 1e-9),
    partial(checks.stabiliser_residuals, tol=1e-9),
    partial(checks.standard_anchors, 2026, 100, 1e-10),
    partial(checks.reduction_zero_theta, 2027, 500, 1e-9),
    partial(checks.approximation_order, (1e-2, 1e-3, 1e-4), DELTA_GRID,
            tuple(i * math.pi / 12.0 for i in range(13)), 0.1),
    partial(checks.chi_extremum, tuple(v for v in V_GRID if v != 0.0), (1e-3, 0.1, 0.5),
            CHI_GRID, 1e-12),
    partial(checks.malus_monte_carlo, 2028, 3000, 20, 1_000_000, 1.0),
))


def cmd_validate(cfg: RunConfig) -> int:
    report = []
    for name, result in checks.run_checks(CHECKS).items():
        tol = result.tol * cfg.tol_scale
        report.append({"name": name, "value": result.value, "tol": tol,
                       "passed": result.value <= tol})
    passed = sum(r["passed"] for r in report)
    if cfg.format == "json":
        text = json.dumps({"checks": report}, indent=2) + "\n"
    else:
        lines = [f"{'PASS' if r['passed'] else 'FAIL'} {r['name']:32s} "
                 f"value={r['value']:.3e} tol={r['tol']:.3e}" for r in report]
        lines.append(f"{passed}/{len(report)} checks passed")
        text = "\n".join(lines) + "\n"
    with _sink(cfg) as out:
        out.write(text)
    return 0 if passed == len(report) else 1


# --- entry point ------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that reads a negative number in exponent form,
    such as -2e-5, as the value of an option, as it reads -2 and -0.5;
    argparse by itself takes -2e-5 for an option. The parsers that
    add_subparsers makes are of this class too."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="pfwigner",
        description="Photon polarisation phases with and without a distinguished frame.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # the options of every subcommand, added once and shared by each
    common = _Parser(add_help=False)
    for setting in fields(RunConfig):
        common.add_argument("--" + setting.name.replace("_", "-"), type=_kind(setting),
                            **setting.metadata)
    common.add_argument("--config", type=str, help="key=value config file; flags win")

    for name, help_text in (
        ("boost-scan", "sweep boost speed along the photon, emit both phase routes"),
        ("rotation-scan", "sweep rotation angle and chi, emit exact and approximate shifts"),
        ("malus", "Malus transmission under apparatus rotation, with Monte Carlo"),
        ("validate", "run the full invariant suite and report per-check residuals"),
    ):
        sub.add_parser(name, help=help_text, parents=[common])

    wig = sub.add_parser("wigner", help="single transformation: both angles and residuals",
                         parents=[common])
    wig.add_argument("--transform", action="append", metavar="KIND:AXIS:VALUE",
                     help="boost:z:0.5 or rotation:k:0.785; repeatable, applied in order")
    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser of `main`, built on its first call and reused: a parser
    is a graph of cyclic references, which only a full garbage collection
    frees, so one built per call piles up over many in-process runs."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = _resolve_config(args)
        if args.command == "boost-scan":
            return cmd_boost_scan(cfg)
        if args.command == "rotation-scan":
            return cmd_rotation_scan(cfg)
        if args.command == "wigner":
            return cmd_wigner(cfg, args.transform)
        if args.command == "malus":
            return cmd_malus(cfg)
        if args.command == "validate":
            return cmd_validate(cfg)
        raise ConfigError(f"unknown command {args.command!r}")
    except BrokenPipeError:
        # the reader has gone: end silently, with the status of a process
        # killed by SIGPIPE
        return 141
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RowError as exc:
        print(f"internal numerical error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
