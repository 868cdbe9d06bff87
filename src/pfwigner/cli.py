"""Command-line front end: experiment sweeps, single-shot angle queries,
Malus statistics, and the validation suite.

Output is CSV (17 significant digits, LF endings) or JSON; identical
config and seed give byte-identical files. Exit codes: 0 success,
1 validation failure, 2 usage or config error, 3 internal numerical error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, fields

import numpy as np

from .closed_form import (
    BoostScenario,
    RotationScenario,
    boost_phase,
    boost_phase_asymptote,
    rotation_phase,
    rotation_phase_shift,
    rotation_shift_approx,
)
from .induction import (
    StabilityError,
    bench_pair,
    pf_wigner,
    phase_difference,
    standard_wigner,
    transform_pair,
)
from .minkowski import (
    LorentzTransform,
    PairStack,
    PhotonKinematics,
    apply,
    boost_from_velocity,
    compose,
    four_velocity,
    rotation_about,
    row_blocks,
    rows_from,
    unit_rows,
    wrap_angle,
)
from .polarisation import anomalous_malus_curve, malus_probability, monte_carlo_malus

DEFAULTS = {
    "pf_speed": 1.2336e-3,  # CMB dipole speed, 369.8 km/s in units of c
    "chi": 0.5 * math.pi,
    "v_min": -0.9999,
    "v_max": 0.9999,
    "v_step": 0.0033,
    "delta_min": 0.0,
    "delta_max": 2.0 * math.pi,
    "delta_step": math.pi / 24.0,
    "chi_steps": 12,
    "samples": 1_000_000,
    "seed": 12345,
    "state_angle": 0.0,
    "pol_angle": 0.25 * math.pi,
    "format": "csv",
    "output": None,
    "tol_scale": 1.0,
}

# cap on the rows one sweep may emit, checked before any row is built
MAX_ROWS = 1_000_000
# cap on the Monte Carlo draws of one malus sweep, rows times samples,
# checked before any row is built
MAX_DRAWS = 1_000_000_000

_INT_KEYS = {"chi_steps", "samples", "seed"}
_STR_KEYS = {"format", "output"}


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    pf_speed: float
    chi: float
    v_min: float
    v_max: float
    v_step: float
    delta_min: float
    delta_max: float
    delta_step: float
    chi_steps: int
    samples: int
    seed: int
    state_angle: float
    pol_angle: float
    format: str
    output: str | None
    tol_scale: float

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{f.name.replace('_', '-')} must be finite")
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


def _read_config_file(path: str) -> dict:
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
                val = val.strip()
                if key not in DEFAULTS:
                    raise ConfigError(f"{path}:{ln}: unknown key {key!r}")
                try:
                    if key in _STR_KEYS:
                        values[key] = val
                    elif key in _INT_KEYS:
                        values[key] = int(val)
                    else:
                        values[key] = float(val)
                except ValueError as exc:
                    raise ConfigError(f"{path}:{ln}: bad value for {key}: {exc}") from exc
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return values


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    file_values = _read_config_file(args.config) if args.config else {}
    merged = {}
    for key in DEFAULTS:
        flag = getattr(args, key, None)
        if flag is not None:
            merged[key] = flag
        elif key in file_values:
            merged[key] = file_values[key]
        else:
            merged[key] = DEFAULTS[key]
    return RunConfig(**merged)


def _grid(lo: float, hi: float, step: float) -> list[float]:
    span = (hi - lo) / step
    if span > MAX_ROWS - 1:
        raise ConfigError(f"grid exceeds {MAX_ROWS} rows; use a larger step")
    n = int(round(span))
    if n < 0:
        raise ConfigError("empty grid: max < min")
    vals = [lo + i * step for i in range(n + 1)]
    if vals and vals[-1] > hi + 0.5 * step:
        vals.pop()
    return vals


def _emit(cfg: RunConfig, columns: list[str], rows: list[list[float]]) -> None:
    if cfg.format == "csv":
        lines = [",".join(columns)]
        lines.extend(",".join(format(v, ".17g") for v in row) for row in rows)
        text = "\n".join(lines) + "\n"
    else:
        text = json.dumps({"columns": columns, "rows": rows}, indent=2) + "\n"
    _write(cfg, text)


def _write(cfg: RunConfig, text: str) -> None:
    if cfg.output:
        with open(cfg.output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _axis_vector(token: str, kin: PhotonKinematics) -> np.ndarray:
    if token == "k":
        ks = kin.k.spatial
        return ks / np.linalg.norm(ks)
    try:
        return {"x": np.array([1.0, 0.0, 0.0]),
                "y": np.array([0.0, 1.0, 0.0]),
                "z": np.array([0.0, 0.0, 1.0])}[token]
    except KeyError:
        raise ConfigError(f"unknown axis {token!r} (expected x, y, z or k)") from None


def _parse_transform(specs: list[str] | None, kin: PhotonKinematics) -> LorentzTransform:
    L = LorentzTransform(np.eye(4))
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
        axis = _axis_vector(axis_token, kin)
        if kind == "boost":
            if not -1.0 < val < 1.0:
                raise ConfigError("boost speed must lie in (-1, 1)")
            step = boost_from_velocity(axis * val)
        elif kind == "rotation":
            step = rotation_about(axis, val)
        else:
            raise ConfigError(f"unknown transform kind {kind!r}")
        L = compose(step, L)
    return L


def _along_z(speeds) -> np.ndarray:
    v = np.zeros((len(speeds), 3))
    v[:, 2] = speeds
    return v


def cmd_boost_scan(cfg: RunConfig) -> int:
    kin = bench_pair(cfg.pf_speed, cfg.chi)
    grid = _grid(cfg.v_min, cfg.v_max, cfg.v_step)
    if grid[-1] >= 1.0:
        raise ConfigError(f"the v grid ends at V = {grid[-1]:.17g}, not below 1; "
                          "use a v-step that divides v-max - v-min")
    rows = []
    for block in row_blocks(len(grid)):
        with rows_from(block.start):
            phi = pf_wigner(kin, boost_from_velocity(_along_z(grid[block]))).phi
        for v, phi_mx in zip(grid[block], phi.tolist()):
            phi_cf = boost_phase(BoostScenario(v, cfg.pf_speed, cfg.chi))
            rows.append([v, phi_cf, phi_mx, abs(phi_cf - phi_mx)])
    _emit(cfg, ["V", "phi_cf", "phi_mx", "abs_diff"], rows)
    return 0


def cmd_rotation_scan(cfg: RunConfig) -> int:
    deltas = _grid(cfg.delta_min, cfg.delta_max, cfg.delta_step)
    if len(deltas) * (cfg.chi_steps + 1) > MAX_ROWS:
        raise ConfigError(f"scan exceeds {MAX_ROWS} rows; use a larger delta-step "
                          "or fewer chi-steps")
    chis = [i * math.pi / cfg.chi_steps for i in range(cfg.chi_steps + 1)]
    rows = []
    for d in deltas:
        for chi in chis:
            s = RotationScenario(d, cfg.pf_speed, chi)
            phi_ex = rotation_phase(s)
            dphi_ex = wrap_angle(phi_ex - d)
            dphi_ap = rotation_shift_approx(s)
            rows.append([d, chi, wrap_angle(phi_ex), dphi_ex, dphi_ap,
                         abs(abs(dphi_ex) - dphi_ap)])
    _emit(cfg, ["delta", "chi", "phi_ex", "dphi_ex", "dphi_ap", "abs_err"], rows)
    return 0


def cmd_wigner(cfg: RunConfig, transform_specs: list[str] | None) -> int:
    kin = bench_pair(cfg.pf_speed, cfg.chi)
    L = _parse_transform(transform_specs, kin)
    w_pf = pf_wigner(kin, L)
    w_std = standard_wigner(kin.k, L)
    record = {
        "phi_pf": w_pf.phi,
        "phi_std": w_std.phi,
        "delta_phi": wrap_angle(w_pf.phi - w_std.phi),
        "residual_pf": w_pf.residual,
        "residual_std": w_std.residual,
        "stabiliser_pf": w_pf.stabiliser,
        "stabiliser_std": w_std.stabiliser,
    }
    _write(cfg, json.dumps(record, indent=2) + "\n")
    return 0


def cmd_malus(cfg: RunConfig) -> int:
    kin = bench_pair(cfg.pf_speed, cfg.chi)
    deltas = _grid(cfg.delta_min, cfg.delta_max, cfg.delta_step)
    if len(deltas) * cfg.samples > MAX_DRAWS:
        raise ConfigError(f"malus exceeds {MAX_DRAWS} draws (rows times samples); "
                          "use fewer samples or a larger delta-step")
    curve = anomalous_malus_curve(kin, cfg.state_angle, cfg.pol_angle, deltas)
    p_classical = malus_probability(cfg.state_angle, cfg.pol_angle)
    rows = []
    for i, (d, p_pf) in enumerate(curve):
        freq = monte_carlo_malus(p_pf, cfg.samples, cfg.seed + i)
        err = math.sqrt(p_pf * (1.0 - p_pf) / cfg.samples)
        rows.append([d, p_classical, p_pf, freq, err])
    _emit(cfg, ["delta", "p_classical", "p_pf", "mc_freq", "mc_err"], rows)
    return 0


# --- validation suite -------------------------------------------------

BOOST_GRID_V = [round(-0.99 + 0.03 * i, 10) for i in range(67)]
GRID_THETA = (0.0, 1e-3, 0.1, 0.5)
GRID_CHI = tuple(i * math.pi / 6.0 for i in range(7))
GRID_DELTA = tuple(i * math.pi / 24.0 for i in range(1, 48))


def _random_direction(rng) -> np.ndarray:
    d = rng.normal(size=3)
    return d / np.linalg.norm(d)


def _random_null(rng) -> np.ndarray:
    d = _random_direction(rng)
    e = rng.uniform(0.2, 5.0)
    return np.concatenate(([e], e * d))


def _random_velocity(rng) -> np.ndarray:
    return _random_direction(rng) * rng.uniform(0.0, 0.99)


def _random_transform(rng) -> np.ndarray:
    """Rotation axis and angle, then boost velocity, of a random transform."""
    axis = _random_direction(rng)
    return np.concatenate((axis, [rng.uniform(-math.pi, math.pi)], _random_velocity(rng)))


def _random_transforms(t: np.ndarray) -> LorentzTransform:
    """The stack of transforms drawn as the rows of t by `_random_transform`."""
    return compose(boost_from_velocity(t[:, 4:]), rotation_about(t[:, :3], t[:, 3]))


def _draw_rows(n: int, draw) -> np.ndarray:
    # one row of numbers per call of draw(), in order, so that each check
    # takes the same values from its generator as a loop over rows would
    first = np.concatenate(draw())
    rows = np.empty((n, len(first)))
    rows[0] = first
    for i in range(1, n):
        rows[i] = np.concatenate(draw())
    return rows


def check_boost_oracle_equivalence(state: dict) -> tuple[float, float]:
    worst = 0.0
    stab = state.get("stabiliser", 0.0)
    boosts = boost_from_velocity(_along_z(BOOST_GRID_V))
    for th in GRID_THETA:
        for chi in GRID_CHI:
            w = pf_wigner(bench_pair(th, chi), boosts)
            for v, phi in zip(BOOST_GRID_V, w.phi.tolist()):
                worst = max(worst, abs(phi - boost_phase(BoostScenario(v, th, chi))))
            stab = max(stab, float(w.stabiliser.max()))
    state["stabiliser"] = stab
    return worst, 1e-9


def check_rotation_oracle_equivalence(state: dict) -> tuple[float, float]:
    worst = 0.0
    stab = state.get("stabiliser", 0.0)
    sign_ok = True
    rotations = rotation_about(np.array([0.0, 0.0, 1.0]), np.array(GRID_DELTA))
    for th in GRID_THETA:
        for chi in GRID_CHI:
            w = pf_wigner(bench_pair(th, chi), rotations)
            for d, phi in zip(GRID_DELTA, w.phi.tolist()):
                want = wrap_angle(rotation_phase(RotationScenario(d, th, chi)))
                worst = max(worst, abs(abs(phi) - abs(want)))
                if phi * want < 0.0 and abs(want) > 1e-12:
                    sign_ok = False
            stab = max(stab, float(w.stabiliser.max()))
    state["stabiliser"] = stab
    if not sign_ok:
        return math.inf, 1e-9
    return worst, 1e-9


def _composition_defect(w1, w2, w12) -> float:
    return max(abs(wrap_angle(d)) for d in (w12.phi - w1.phi - w2.phi).tolist())


def check_composition_law_pair(state: dict) -> tuple[float, float]:
    rng = np.random.default_rng(2024)
    rows = _draw_rows(1000, lambda: (_random_null(rng), _random_velocity(rng),
                                     _random_transform(rng), _random_transform(rng)))
    kin = PairStack(rows[:, :4], four_velocity(rows[:, 4:7]))
    l1, l2 = _random_transforms(rows[:, 7:14]), _random_transforms(rows[:, 14:])
    w1 = pf_wigner(kin, l1)
    w2 = pf_wigner(transform_pair(kin, l1), l2)
    w12 = pf_wigner(kin, compose(l2, l1))
    state["stabiliser"] = max(state.get("stabiliser", 0.0), float(w1.stabiliser.max()),
                              float(w2.stabiliser.max()), float(w12.stabiliser.max()))
    return _composition_defect(w1, w2, w12), 1e-9


def check_composition_law_standard(state: dict) -> tuple[float, float]:
    rng = np.random.default_rng(2025)
    rows = _draw_rows(1000, lambda: (_random_null(rng), _random_transform(rng),
                                     _random_transform(rng)))
    k = rows[:, :4]
    l1, l2 = _random_transforms(rows[:, 4:11]), _random_transforms(rows[:, 11:])
    w1 = standard_wigner(k, l1)
    w2 = standard_wigner(apply(l1, k), l2)
    w12 = standard_wigner(k, compose(l2, l1))
    return _composition_defect(w1, w2, w12), 1e-9


def check_stabiliser_residuals(state: dict) -> tuple[float, float]:
    # max residual accumulated by the oracle and composition checks above
    return state.get("stabiliser", math.inf), 1e-9


def check_standard_anchors(state: dict) -> tuple[float, float]:
    rng = np.random.default_rng(2026)
    rows = _draw_rows(100, lambda: (_random_null(rng), [rng.uniform(-0.99, 0.99)],
                                    [rng.uniform(-math.pi, math.pi)]))
    k, v, d = rows[:, :4], rows[:, 4], rows[:, 5]
    kh = unit_rows(k[:, 1:])
    boosted = standard_wigner(k, boost_from_velocity(kh * v[:, None])).phi
    rotated = standard_wigner(k, rotation_about(kh, d)).phi
    worst = max(abs(wrap_angle(x)) for x in (rotated - d).tolist())
    return max(float(np.abs(boosted).max()), worst), 1e-10


def check_reduction_zero_theta(state: dict) -> tuple[float, float]:
    # transform classes under which both constructions' conventions agree:
    # rotations about any axis, boosts along the photon, and their products
    rng = np.random.default_rng(2027)
    rows = _draw_rows(500, lambda: (_random_null(rng), _random_direction(rng),
                                    [rng.uniform(-math.pi, math.pi)], [rng.uniform(-0.99, 0.99)]))
    k, axes, angles, v = rows[:, :4], rows[:, 4:7], rows[:, 7], rows[:, 8]
    kh = unit_rows(k[:, 1:])
    rot = rotation_about(axes, angles)
    kboost = boost_from_velocity(kh * v[:, None])
    choices = np.stack([rot.m, kboost.m, compose(rot, kboost).m])
    L = LorentzTransform(choices[np.arange(len(k)) % 3, np.arange(len(k))])
    rest = np.tile([1.0, 0.0, 0.0, 0.0], (len(k), 1))
    return float(np.abs(phase_difference(PairStack(k, rest), L)).max()), 1e-9


def check_approximation_order(state: dict) -> tuple[float, float]:
    errs = []
    thetas = (1e-2, 1e-3, 1e-4)
    for th in thetas:
        worst = 0.0
        for d in GRID_DELTA:
            for chi in (i * math.pi / 12.0 for i in range(13)):
                s = RotationScenario(d, th, chi)
                worst = max(worst, abs(abs(rotation_phase_shift(s)) - rotation_shift_approx(s)))
        errs.append(worst)
    slope = float(np.polyfit(np.log(thetas), np.log(errs), 1)[0])
    return abs(slope - 2.0), 0.1


def check_chi_extremum(state: dict) -> tuple[float, float]:
    # |phi| peaks at chi = pi/2 on the pi/6 grid for every tested (v, theta);
    # the magnitude makes the statement hold for negative v as well
    worst = 0.0
    for v in BOOST_GRID_V:
        if v == 0.0:
            continue
        for th in (1e-3, 0.1, 0.5):
            if boost_phase(BoostScenario(v, th, 0.0)) != 0.0:
                worst = math.inf
            phis = [abs(boost_phase(BoostScenario(v, th, chi))) for chi in GRID_CHI]
            worst = max(worst, abs(GRID_CHI[int(np.argmax(phis))] - 0.5 * math.pi))
    return worst, 1e-12


def check_malus_monte_carlo(state: dict) -> tuple[float, float]:
    rng = np.random.default_rng(2028)
    n = 1_000_000
    hits = 0
    for i in range(20):
        theta = rng.uniform(0.0, math.pi)
        big = rng.uniform(0.0, math.pi)
        p = malus_probability(theta, big)
        freq = monte_carlo_malus(p, n, seed=3000 + i)
        sigma = math.sqrt(max(p * (1.0 - p), 1e-12) / n)
        if abs(freq - p) <= 4.0 * sigma:
            hits += 1
    return float(20 - hits), 1.0


CHECKS = [
    ("boost_oracle_equivalence", check_boost_oracle_equivalence),
    ("rotation_oracle_equivalence", check_rotation_oracle_equivalence),
    ("composition_law_pair", check_composition_law_pair),
    ("composition_law_standard", check_composition_law_standard),
    ("stabiliser_residuals", check_stabiliser_residuals),
    ("standard_anchors", check_standard_anchors),
    ("reduction_zero_theta", check_reduction_zero_theta),
    ("approximation_order", check_approximation_order),
    ("chi_extremum", check_chi_extremum),
    ("malus_monte_carlo", check_malus_monte_carlo),
]


def cmd_validate(cfg: RunConfig) -> int:
    state: dict = {}
    failures = 0
    for name, func in CHECKS:
        value, tol = func(state)
        tol *= cfg.tol_scale
        ok = value <= tol
        failures += 0 if ok else 1
        print(f"{'PASS' if ok else 'FAIL'} {name:32s} value={value:.3e} tol={tol:.3e}")
    print(f"{len(CHECKS) - failures}/{len(CHECKS)} checks passed")
    return 0 if failures == 0 else 1


# --- entry point ------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pfwigner",
        description="Photon polarisation phases with and without a distinguished frame.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--pf-speed", dest="pf_speed", type=float,
                       help=f"frame speed in units of c (default {DEFAULTS['pf_speed']})")
        p.add_argument("--chi", type=float, help="angle between photon and frame velocity, radians")
        p.add_argument("--v-min", dest="v_min", type=float)
        p.add_argument("--v-max", dest="v_max", type=float)
        p.add_argument("--v-step", dest="v_step", type=float)
        p.add_argument("--delta-min", dest="delta_min", type=float)
        p.add_argument("--delta-max", dest="delta_max", type=float)
        p.add_argument("--delta-step", dest="delta_step", type=float)
        p.add_argument("--chi-steps", dest="chi_steps", type=int)
        p.add_argument("--samples", type=int)
        p.add_argument("--seed", type=int)
        p.add_argument("--state-angle", dest="state_angle", type=float,
                       help="polarisation angle of the prepared state, radians")
        p.add_argument("--pol-angle", dest="pol_angle", type=float,
                       help="polariser transmission axis angle, radians")
        p.add_argument("--output", type=str)
        p.add_argument("--format", choices=("csv", "json"))
        p.add_argument("--config", type=str, help="key=value config file; flags win")
        p.add_argument("--tol-scale", dest="tol_scale", type=float,
                       help="multiply validation tolerances (diagnostic)")

    for name, help_text in (
        ("boost-scan", "sweep boost speed along the photon, emit both phase routes"),
        ("rotation-scan", "sweep rotation angle and chi, emit exact and approximate shifts"),
        ("malus", "Malus transmission under apparatus rotation, with Monte Carlo"),
        ("validate", "run the full invariant suite and report per-check residuals"),
    ):
        add_common(sub.add_parser(name, help=help_text))

    wig = sub.add_parser("wigner", help="single transformation: both angles and residuals")
    add_common(wig)
    wig.add_argument("--transform", action="append", metavar="KIND:AXIS:VALUE",
                     help="boost:z:0.5 or rotation:k:0.785; repeatable, applied in order")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
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
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except StabilityError as exc:
        print(f"internal numerical error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
