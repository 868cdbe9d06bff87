"""Command-line front end: experiment sweeps, single-shot angle queries,
Malus statistics, and the validation suite.

Output is CSV (17 significant digits, LF endings) or JSON; identical
config and seed give byte-identical files. A CSV field is the text of
"%.17g" % v, written for a whole block of values at once by
`_format_17g`, which hands the values it cannot certify (nan, inf,
magnitudes beyond 1e-200 and 1e200, near-ties), those it does not lay
out (10 <= |v| < 1e17, 17 digits ending in 0000) and arrays of fewer
than `_ARRAY_MIN` values to "%" itself; a block of fewer than
`_ARRAY_MIN` fields in all is one "%" over its table. Exit codes: 0 success,
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
from dataclasses import Field, dataclass, field, fields, replace
from functools import cache
from itertools import product
from typing import Callable, Iterator, Sequence, TextIO

import numpy as np

from .checks import CHECKS, run_checks
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
    in_blocks,
    rotation_about,
    unit_rows,
    wrap_angle,
)
from .polarisation import anomalous_malus_curve, malus_probability, monte_carlo_malus

# cap on the rows one sweep may emit, checked before any row is built
MAX_ROWS = 1_000_000

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
    arguments of its flag: its help and, for --format, its choices."""

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
    format: str = field(default="csv", metadata={
        "choices": ("csv", "json"),
        "help": "csv or json for the sweeps; csv is the text report of validate; "
                "wigner always writes json"})
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
        # numpy's binomial counts are int64
        if not 1 <= self.samples < 2 ** 63:
            raise ConfigError("samples must lie in [1, 2^63)")
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


def _grid(lo: float, hi: float, step: float) -> np.ndarray:
    """The array of the points lo + i * step for i = 0..n, n being
    (hi - lo) / step rounded to the nearest integer, half to even. A step
    for which it rounds down ends the grid short of hi; one for which it
    rounds up ends it past hi, which is an error unless by under 1e-9 of
    a step."""
    if hi < lo:
        raise ConfigError("empty grid: max < min")
    span = (hi - lo) / step
    if span > MAX_ROWS - 1:
        raise ConfigError(f"grid exceeds {MAX_ROWS} rows; use a larger step")
    n = int(round(span))
    vals = lo + np.arange(n + 1) * step
    if vals[-1] > hi + 1e-9 * step:
        raise ConfigError(f"the grid ends at {vals[-1].item()!r}, past its max {hi!r}: "
                          f"(max - min) / step = {span!r} rounds up to {n} "
                          f"step{'s' if n != 1 else ''}; use a step that divides "
                          "max - min or for which it rounds down")
    return vals


# --- CSV fields -------------------------------------------------------
#
# `_format_17g` writes the text of "%.17g" % v of each value into a slot
# of FIELD bytes padded with NULs, which the writer deletes. Each part of
# the text has bytes of its own in the slot, so it is written for every
# value at once:
#   byte 0        "-"
#   bytes 1-5     "0." and the zeros before the first digit, for E in [-4, 0)
#   byte 6        the first digit
#   byte 7        the point after it, unless the lead holds the point
#   bytes 8-23    the other 16 digits, as four 4-byte words of four digits
#   bytes 24-28   "e", the sign of E and its two or three digits
#   byte 31       left for the writer's separator
# E is the decimal exponent of v after rounding to 17 digits; %g prints
# v with an exponent when E < -4 or E >= 17, and drops trailing zeros
# after the point, and the point itself when none are left. The array
# route writes a value only when its point follows the first digit or
# lies in the lead (E <= 0 or E >= 17) and its last four digits are not
# all zero, so that every trailing zero lies in the last word; "%"
# writes the others.
FIELD = 32
# 2**27 + 1, which splits a double into halves of 26 and 27 bits
_SPLIT = 134217729.0

# powers of ten 10**k for k in [-200, 216]: values 1e-200 < |v| < 1e200
# have E in [-200, 200] and are scaled by 10**(16 - E), k in [-183, 216]
_POW_MIN, _POW_MAX = -200, 216


def _powers_of_ten() -> tuple[np.ndarray, ...]:
    """For each k from _POW_MIN to _POW_MAX: the double nearest 10**k, its
    two halves of 26 and 27 bits (Dekker's split), the double nearest
    the remainder 10**k - nearest, and the least double >= 10**k; each
    from exact integers, so each is correctly rounded."""
    near, rem = [], []
    for k in range(_POW_MIN, _POW_MAX + 1):
        num, den = (10 ** k, 1) if k >= 0 else (1, 10 ** -k)
        nearest = num / den
        n, d = nearest.as_integer_ratio()
        near.append(nearest)
        rem.append((num * d - n * den) / (den * d))
    near, rem = np.array(near), np.array(rem)
    c = near * _SPLIT
    high = c - (c - near)
    return near, high, near - high, rem, np.where(rem > 0.0, np.nextafter(near, np.inf), near)


_POW, _POW_HIGH, _POW_LOW, _POW_REM, _POW_CEIL = _powers_of_ten()


def _exponent_parts() -> tuple[np.ndarray, np.ndarray]:
    """For each E from _POW_MIN to _POW_MAX: the 8-byte words, little-endian,
    of bytes 0-7 of a slot (its lead, a first digit of 0 and the point)
    and of bytes 24-31 (the exponent)."""
    head, tail = [], []
    for e in range(_POW_MIN, _POW_MAX + 1):
        lead, exp = b"", b""
        if e < -4 or e >= 17:
            exp = b"e" + (b"+" if e >= 0 else b"-") + b"%02d" % abs(e)
        elif e < 0:
            lead = b"0." + b"0" * (-e - 1)
        head.append(b"\0" + lead.ljust(5, b"\0") + (b"0\0" if lead else b"0."))
        tail.append(exp.ljust(8, b"\0"))
    return np.frombuffer(b"".join(head), "<u8"), np.frombuffer(b"".join(tail), "<u8")


_HEAD, _TAIL = _exponent_parts()


def _four_digits() -> tuple[np.ndarray, np.ndarray]:
    """The 4-byte words, little-endian, of the four digits of 0..9999,
    with and without their trailing zeros."""
    n = np.arange(10000, dtype=np.uint16)
    digits, trimmed = np.zeros((2, 10000, 4), np.uint8)
    for byte, place in enumerate((1000, 100, 10, 1)):
        digits[:, byte] = n // place % 10 + 48
        # a digit is trailing when it and those after it are all zero
        trimmed[:, byte] = digits[:, byte] * (n % (10 * place) != 0)
    return digits.view("<u4").ravel(), trimmed.view("<u4").ravel()


_DIGITS, _TRIMMED = _four_digits()

# arrays of fewer values are formatted by "%": below about 80 values that
# is faster than the array route, whose fixed cost is about 40 us, and up
# to 196 values the array route saves under 60 us a run while its numpy
# calls raise malus's peak_rss_mb by 0.25 MiB (measured with _ARRAY_MIN at
# 64). A CSV block of fewer fields in all, axes included, such as the 245
# of the default malus, takes no slots: it is one "%" over its table.
# _ARRAY_MIN at 128, which sends that table through the array route, read
# malus wall_s 1.502-1.516 ms against 1.410-1.433 ms at 256
# (`benchmarks/run.py --seconds 3`, seeds 1-4, alternating, 2 vCPUs) and
# raised its peak_rss_mb by 0.1-0.4 MiB
_ARRAY_MIN = 256


def _format_17g(x, out: np.ndarray | None = None) -> np.ndarray:
    """The slots of the text "%.17g" % v of each value v of the array x,
    written into out, of shape x.shape + (FIELD,), or a new array.

    For 1e-200 < |v| < 1e200, with E the decimal exponent of |v|, found
    exactly from the table of powers of ten, t = |v| * 10**(16 - E) lies
    in [1e16, 1e17). It is computed as p + e: p the double product of |v|
    and the double nearest 10**(16 - E), e its rounding error (Dekker's
    TwoProduct, exact) plus |v| times the remainder of that power, so
    that p + e is within 1e-14 of t. Its 17 digits D = p + rint(e) are
    those of %.17g unless t is within 1e-9 of a half. The array route
    writes zeros and the values whose digits it certifies and whose text
    the slot lays out (see FIELD); "%.17g" % v itself writes the rest:
    near-ties, 10 <= |v| < 1e17 (a point after a later digit), digits
    ending in 0000 (zeros to drop before the last four), 0 < |v| <=
    1e-200, |v| >= 1e200, nan and inf, and every value of an array of
    fewer than _ARRAY_MIN. Each step is its own ufunc call, so no fused
    multiply-add enters.
    """
    x = np.asarray(x, dtype=float)
    if out is None:
        out = np.empty(x.shape + (FIELD,), np.uint8)
    if x.size < _ARRAY_MIN:
        out[...] = _percent_17g(x).reshape(out.shape)
    else:
        rest = np.nonzero(~_array_format_17g(x, out))
        if len(rest[0]):
            out[rest] = _percent_17g(x[rest])
    return out


def _percent_17g(x: np.ndarray) -> np.ndarray:
    """The (n, FIELD) slots of "%.17g" % v of each value of x, by one %."""
    text = b"%.17g " * x.size % tuple(x.ravel().tolist())
    return np.array(text.split(), f"S{FIELD}").view(np.uint8).reshape(-1, FIELD)


def _array_format_17g(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write the slots of the values of x that the array route can
    certify into out; return the mask of those values."""
    a = np.abs(x)
    zero = a == 0.0
    ok = (a > 1e-200) & (a < 1e200)
    a[~ok] = 1.0
    # j indexes 10**E in the tables: log10 is within an ulp, so the floor
    # of it less 1e-10 is E or E - 1, and the least double >= 10**(E + 1)
    # decides
    j = np.floor(np.log10(a) - 1e-10).astype(np.int64)
    j -= _POW_MIN
    j += a >= _POW_CEIL[j + 1]
    k = (16 - 2 * _POW_MIN) - j
    p = a * _POW[k]
    # e = ((high * ten_high - p) + high * ten_low + low * ten_high)
    #     + low * ten_low + a * remainder, a term at a time
    high = a * _SPLIT
    high -= high - a
    low = a - high
    ten_high, ten_low = _POW_HIGH[k], _POW_LOW[k]
    e = high * ten_high
    e -= p
    e += high * ten_low
    e += low * ten_high
    e += low * ten_low
    e += a * _POW_REM[k]
    del a, high, low, ten_high, ten_low, k
    whole = np.rint(e)
    e -= whole
    ok &= np.abs(e) < 0.5 - 1e-9
    digits = p.astype(np.int64)
    digits += whole.astype(np.int64)
    del p, e, whole
    # for E in [1, 16] the point falls after digit E + 1; a t that rounds
    # up to 1e17 is 1e16 at the next exponent, whose last four digits are
    # zero, so "%" writes it and no carry is made here
    ok &= (j <= -_POW_MIN) | (j >= 17 - _POW_MIN)
    digits[zero] = 0
    # the words of four digits from the last, whose trailing zeros are
    # dropped, to the first digit, which is left in rest; a floor division
    # and a product take less time than numpy's divmod
    rest = digits // 10 ** 4
    last = digits - rest * 10 ** 4
    quads = out.view("<u4")
    quads[..., 5] = _TRIMMED[last]
    for word in (4, 3, 2):
        high = rest // 10 ** 4
        quads[..., word] = _DIGITS[rest - high * 10 ** 4]
        rest = high
    words = out.view("<u8")
    words[..., 0] = (_HEAD[j] + (rest.astype("<u8") << np.uint64(48))
                     + np.signbit(x) * np.uint64(ord("-")))
    words[..., 3] = _TAIL[j]
    # a zero is the first digit alone, with no point
    out[zero, 7:24] = 0
    return (ok & (last != 0)) | zero


# rows of a sweep formatted and written at a time: bounds the text the
# writer holds, one block's, never that of the whole table; it is not
# tied to STACK_BLOCK, so the writer's memory stays as it is when the
# compute block changes. On the fine rotation-scan (29 791 rows, 6
# fields of FIELD bytes each) the tracemalloc peak is 0.65 MB at 1024,
# 1.25 MB at 2048 and 2.48 MB at 4096, against a bound of 3 MB in the
# tests; wall_s (benchmarks/run.py) was 0.026-0.029 s at 1024, as each
# block has a fixed cost. At 2048 and 4096, re-measured with
# `run.py --seconds 3`, seeds 1-3, the two alternating, on 2 vCPUs, it
# read 0.0226-0.0228 s at 2048 and 0.0243-0.0245 s at 4096, with
# peak_rss_mb 0.6-0.9 MiB higher: 4096 gains nothing
EMIT_BLOCK = 2048


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
    axes = [np.asarray(axis, dtype=float) for axis in axes]
    blocks = _grid_blocks([len(axis) for axis in axes], EMIT_BLOCK)
    with _sink(cfg) as out:
        if cfg.format == "csv":
            out.write(",".join(columns) + "\n")
            row_format = ",".join(["%.17g"] * len(columns)) + "\n"
            for block in blocks:
                parts = [axis[part] for axis, part in zip(axes, block)]
                shape = [len(part) for part in parts]
                rows = math.prod(shape)
                if rows * len(columns) < _ARRAY_MIN:
                    # a small block is one "%" over its row-major table
                    table = np.empty((*shape, len(columns)))
                    for i, part in enumerate(parts):
                        table[..., i] = part.reshape([-1 if d == i else 1
                                                      for d in range(len(parts))])
                    table[..., len(axes):] = values(block).reshape(*shape, -1)
                    out.write(row_format * rows % tuple(table.ravel().tolist()))
                    continue
                # a block's fields are the FIELD-byte slots of one buffer, row
                # by row: each axis value of the block is formatted once and
                # copied to the rows it belongs to, the computed fields are
                # formatted at once, and the NULs of the slots are deleted
                text = bytearray(rows * len(columns) * FIELD)
                slots = np.frombuffer(text, np.uint8).reshape(*shape, len(columns), FIELD)
                for i, part in enumerate(parts):
                    slots[..., i, :] = _format_17g(part).reshape(
                        [-1 if d == i else 1 for d in range(len(parts))] + [FIELD])
                _format_17g(values(block).reshape(*shape, -1), slots[..., len(axes):, :])
                slots[..., -1] = ord(",")
                slots[..., -1, -1] = ord("\n")
                # without the view, the buffer is freed once translated
                del slots
                text = text.translate(None, b"\0")
                out.write(text.decode())
        else:
            # the bytes of json.dumps(..., indent=2) of the whole document:
            # each block's rows are dumped alone and indented one level more
            head, tail = json.dumps({"columns": columns, "rows": [None]},
                                    indent=2).split("\n    null")
            out.write(head)
            for i, block in enumerate(blocks):
                rows = [[*point, *row] for point, row in
                        zip(product(*(axis[part].tolist() for axis, part in zip(axes, block))),
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


def cmd_boost_scan(cfg: RunConfig, args: argparse.Namespace) -> int:
    pair = bench_pair(cfg.pf_speed, cfg.chi)
    grid = _grid(cfg.v_min, cfg.v_max, cfg.v_step)
    if grid[-1] >= 1.0:
        raise ConfigError(f"the v grid ends at V = {grid[-1]:.17g}, not below 1; "
                          "use a v-step that divides v-max - v-min")
    phi_mx = in_blocks(len(grid),
                       lambda rows: pf_wigner(pair, boost_from_velocity(along_z(grid[rows]))).phi)
    phi_cf = boost_phase(grid, cfg.pf_speed, cfg.chi)
    _emit(cfg, ["V", "phi_cf", "phi_mx", "abs_diff"], [grid],
          np.column_stack([phi_cf, phi_mx, np.abs(phi_cf - phi_mx)]).__getitem__)
    return 0


def cmd_rotation_scan(cfg: RunConfig, args: argparse.Namespace) -> int:
    deltas = _grid(cfg.delta_min, cfg.delta_max, cfg.delta_step)
    if len(deltas) * (cfg.chi_steps + 1) > MAX_ROWS:
        raise ConfigError(f"scan exceeds {MAX_ROWS} rows; use a larger delta-step "
                          "or fewer chi-steps")
    # i*pi/n can round one ulp above pi, as at n = 13
    chis = np.minimum(np.arange(cfg.chi_steps + 1) * math.pi / cfg.chi_steps, math.pi)
    check_rotation_grid(deltas, cfg.pf_speed, chis)
    _emit(cfg, ["delta", "chi", "phi_ex", "dphi_ex", "dphi_ap", "abs_err"], [deltas, chis],
          lambda block: rotation_rows(deltas[block[0]], cfg.pf_speed, chis[block[1]]))
    return 0


def cmd_wigner(cfg: RunConfig, args: argparse.Namespace) -> int:
    pair = bench_pair(cfg.pf_speed, cfg.chi)
    L = _parse_transform(args.transform, pair)
    w_pf = pf_wigner(pair, L)
    w_std = standard_wigner(pair.k, L)
    report = {
        "phi_pf": w_pf.phi,
        "phi_std": w_std.phi,
        "delta_phi": wrap_angle(w_pf.phi - w_std.phi),
        "stabiliser_pf": w_pf.stabiliser,
        "stabiliser_std": w_std.stabiliser,
    }
    record = {name: float(value[0]) for name, value in report.items()}
    with _sink(cfg) as out:
        out.write(json.dumps(record, indent=2) + "\n")
    return 0


def cmd_malus(cfg: RunConfig, args: argparse.Namespace) -> int:
    pair = bench_pair(cfg.pf_speed, cfg.chi)
    deltas = _grid(cfg.delta_min, cfg.delta_max, cfg.delta_step)
    # finite angles can still sum to inf, whose cosine is undefined; the
    # curve's sum is monotone in delta, so the grid's ends bound every row's
    ends = (0.0, deltas[0].item(), deltas[-1].item())
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

def cmd_validate(cfg: RunConfig, args: argparse.Namespace) -> int:
    results = {name: replace(result, tol=result.tol * cfg.tol_scale)
               for name, result in run_checks(CHECKS).items()}
    passed = sum(r.passed for r in results.values())
    if cfg.format == "json":
        report = [{"name": name, "value": r.value, "tol": r.tol, "margin": r.margin,
                   "passed": r.passed} for name, r in results.items()]
        text = json.dumps({"checks": report}, indent=2) + "\n"
    else:
        lines = [f"{'PASS' if r.passed else 'FAIL'} {name:32s} "
                 f"value={r.value:.3e} tol={r.tol:.3e}" for name, r in results.items()]
        lines.append(f"{passed}/{len(results)} checks passed")
        text = "\n".join(lines) + "\n"
    with _sink(cfg) as out:
        out.write(text)
    return 0 if passed == len(results) else 1


# --- entry point ------------------------------------------------------

# each subcommand, in the order --help lists them: its help and the
# function that runs it on the run's settings and parsed arguments and
# returns the exit code
COMMANDS = {
    "boost-scan": ("sweep boost speed along the photon, emit both phase routes",
                   cmd_boost_scan),
    "rotation-scan": ("sweep rotation angle and chi, emit exact and approximate shifts",
                      cmd_rotation_scan),
    "malus": ("Malus transmission under apparatus rotation, with Monte Carlo", cmd_malus),
    "validate": ("run the full invariant suite and report per-check residuals", cmd_validate),
    "wigner": ("single transformation: both angles and stabilisers", cmd_wigner),
}


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

    for name, (help_text, run) in COMMANDS.items():
        command = sub.add_parser(name, help=help_text, parents=[common])
        if run is cmd_wigner:
            command.add_argument("--transform", action="append", metavar="KIND:AXIS:VALUE",
                                 help="boost:z:0.5 or rotation:k:0.785; repeatable, applied "
                                      "in order")
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
        _, run = COMMANDS[args.command]
        return run(_resolve_config(args), args)
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
