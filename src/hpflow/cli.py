"""Command-line front end: verify, simulate, hierarchy, reconstruct.

Configuration is a JSON document with sections algebra / grid / flow /
initial / output, whose keys are those of CONFIG_KEYS.  Every command reads
every key a config sets; an unknown key, a value that cannot be read, or one
that builds no grid or state is refused by an error naming its key.  A
hierarchy flow is stepped only at levels 0 and 1, the levels whose flows are
local: the highest is its soliton_flows.FLOWS row's max_level.  The kinds
with a map check, and the file it writes, are curve_geometry.MAP_CHECKS.
Exit codes: 0 on success, 1 when a check or run fails, 2 on configuration
errors.  All numeric output is written in full double precision so runs are
byte-reproducible given the same config and seed.
"""

from __future__ import annotations

import argparse
import inspect
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import biham_ops as bo
from . import curve_geometry as cg
from . import grid_calculus as gcalc
from . import soliton_flows as sf
from . import verify_suites as vs
from .errors import (
    BlowUpError,
    ConfigError,
    DomainError,
    IntegrationAccuracyError,
    NonlocalityError,
    ShootingError,
)


def _integer(value):
    """An integer, or a float with no fractional part; int() alone would
    truncate 2.5 to 2 and read true as 1."""
    if isinstance(value, bool):
        raise TypeError("must be an integer, not a boolean")
    if isinstance(value, float) and not value.is_integer():
        raise ValueError("must be an integer")
    return int(value)


def _at_least(low: int):
    """An integer cast that refuses values below `low`."""

    def cast(value):
        k = _integer(value)
        if k < low:
            raise ValueError(f"must be >= {low}")
        return k

    return cast


def _real(value):
    """A JSON number as a float; float() alone would read true as 1.0 and
    "0.5" as 0.5."""
    if isinstance(value, (bool, str)):
        raise TypeError("must be a number")
    return float(value)


def _finite(value):
    x = _real(value)
    if not math.isfinite(x):
        raise ValueError("must be finite")
    return x


def _nonzero_finite(value):
    x = _finite(value)
    if x == 0.0:
        raise ValueError("must be nonzero")
    return x


def _or_null(cast):
    """A cast that also takes JSON null, as None: the library's 'not set'."""
    return lambda value: None if value is None else cast(value)


def _json(kind):
    """A cast that takes a value of one JSON type as it stands."""
    name = {bool: "boolean", str: "string"}[kind]

    def cast(value):
        if not isinstance(value, kind):
            raise TypeError(f"must be a JSON {name}")
        return value

    return cast


def _finite_array(value):
    """Nested JSON arrays as a float array, every entry read by _finite."""

    def entries(v):
        return [entries(e) for e in v] if isinstance(v, list) else _finite(v)

    return np.asarray(entries(value), dtype=float)


def _direction(value):
    """Four finite quaternion components, not all zero."""
    q = _finite_array(value)
    if q.shape != (4,) or not np.any(q):
        raise ValueError("need four finite quaternion components, not all zero")
    return q


def _coefficients(value):
    """Rows of inline Fourier coefficients, every entry finite; null is no rows."""
    return _finite_array([] if value is None else value)


def _mode(value):
    if value not in ("periodic", "line"):
        raise ValueError("must be 'periodic' or 'line'")
    return value


# snapshot files of simulate (csv, binary) and the chordal matrix of reconstruct
OUTPUT_FORMATS = ("csv", "binary", "chordal")


def _formats(value):
    if not isinstance(value, list):
        raise TypeError("must be a JSON array")
    unknown = [f for f in value if f not in OUTPUT_FORMATS]
    if unknown:
        raise ValueError(f"unknown {unknown!r}, choose from {list(OUTPUT_FORMATS)}")
    return value


# Every config key, and the cast that reads it whenever a config sets it.
# Ranges that PeriodicGrid or SimConfig check (grid.N, grid.L, the flow's
# numbers, output.cadence) are left to them.
CONFIG_KEYS = {
    "algebra": {"n": _at_least(1)},
    "grid": {"N": _integer, "L": _real, "mode": _mode},
    "flow": {
        "kind": _json(str), "l": _integer, "dt": _real, "t_end": _real,
        "sg_branch": _json(str), "galilean_removed": _json(bool),
        "cfl_constant": _real, "sg_refine": _integer, "project_fraction": _or_null(_real),
    },
    "initial": {
        "preset": _json(str), "seed": _at_least(0), "amplitude": _finite,
        "kmax": _at_least(1), "a": _nonzero_finite, "x0": _or_null(_finite),
        "direction": _or_null(_direction), "u_cos": _coefficients,
        "u_sin": _coefficients, "bu_cos": _coefficients, "bu_sin": _coefficients,
    },
    "output": {
        "directory": _json(str), "cadence": _integer, "formats": _formats,
        "reconstruct": _json(bool), "map_check": _json(bool),
    },
}

# The defaults only the command line has.  Any other key a config leaves out
# is not passed on, so the preset function or SimConfig uses its own default.
CLI_DEFAULTS = {
    "algebra": {"n": 1},
    "grid": {"N": 128, "L": 20.0, "mode": "periodic"},
    "flow": {"dt": 1e-3, "t_end": 1.0},
    "initial": {"preset": "random_band"},
    "output": {"directory": "out", "formats": ["csv"], "reconstruct": False, "map_check": True},
}


def _check_object(value, keys, where: str):
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be a JSON object, got {value!r}")
    unknown = set(value) - set(keys)
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")


def load_config(path) -> dict:
    """{section: {key: value}}: each key the config sets, read by its cast,
    over the CLI_DEFAULTS.  A value its cast refuses is a ConfigError that
    names the key."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    _check_object(raw, CONFIG_KEYS, "config")
    cfg = {}
    for name, casts in CONFIG_KEYS.items():
        section = raw.get(name, {})
        _check_object(section, casts, name)
        cfg[name] = dict(CLI_DEFAULTS[name])
        for key, value in section.items():
            try:
                cfg[name][key] = casts[key](value)
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"{name}.{key} = {value!r}: {exc}") from exc
    return cfg


def build_grid(cfg) -> gcalc.PeriodicGrid:
    N, L = cfg["grid"]["N"], cfg["grid"]["L"]
    try:
        return gcalc.PeriodicGrid(N, L)
    except DomainError as exc:
        raise ConfigError(f"grid.N = {N}, grid.L = {L}: {exc}") from exc


def _inline_state(grid, n, u_cos=(), u_sin=(), bu_cos=(), bu_sin=()) -> bo.StatePair:
    """Band-limited state from inline Fourier coefficient rows."""
    base = 2 * np.pi / grid.length

    def synth(name, shape, cos_rows, sin_rows):
        vals = np.zeros((grid.num_points,) + shape)
        for trig, rows in (("cos", cos_rows), ("sin", sin_rows)):
            wave = getattr(np, trig)
            try:
                for k, row in enumerate(rows, start=1):
                    vals += wave(k * base * grid.x).reshape((-1,) + (1,) * len(shape)) * row
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"initial.{name}_{trig}: {exc}") from exc
        return vals

    u = synth("u", (4,), u_cos, u_sin)
    u[:, 0] = 0.0
    bu = synth("bu", (n - 1, 4), bu_cos, bu_sin)
    return bo.make_state(grid, u, bu)


# initial.preset -> the state builder; it gets the initial.* keys named by
# its parameters that the config sets
PRESETS = {
    "random_band": sf.preset_random_band,
    "mkdv_soliton": sf.preset_mkdv_soliton,
    "sg_kink": sf.preset_sg_kink,
    "inline": _inline_state,
}


def build_state(cfg, seed_override=None) -> bo.StatePair:
    init = cfg["initial"]
    if init["preset"] not in PRESETS:
        raise ConfigError(f"initial.preset = {init['preset']!r}: choose from {list(PRESETS)}")
    make = PRESETS[init["preset"]]
    takes = inspect.signature(make).parameters
    params = {key: value for key, value in init.items() if key in takes}
    if seed_override is not None and "seed" in takes:
        params["seed"] = seed_override
    try:
        return make(build_grid(cfg), cfg["algebra"]["n"], **params)
    except DomainError as exc:  # a direction with a real part
        raise ConfigError(f"initial.direction = {init.get('direction')}: {exc}") from exc


def build_sim_config(cfg) -> sf.SimConfig:
    flow = cfg["flow"]
    # the recursion's D_x^{-1} constants are the jet constants only up to level
    # 1: from level 2 on the flow is measurably non-local, so it is not stepped
    kind = sf.FLOWS.get(flow.get("kind"))  # SimConfig refuses an unknown kind
    top = None if kind is None else kind.max_level
    level = flow.get("l")
    if top is not None and level is not None and level > top:
        raise ConfigError(
            f"flow.l = {level}: hierarchy level {level} is not supported, only levels "
            f"0 to {top} are local flows ('hpflow hierarchy' still tabulates higher levels)"
        )
    renamed = {"kind": "flow", "l": "hierarchy_level"}  # config key -> SimConfig field
    settings = {renamed.get(key, key): value for key, value in flow.items()}
    if "cadence" in cfg["output"]:
        settings["cadence"] = cfg["output"]["cadence"]
    return sf.SimConfig(
        n=cfg["algebra"]["n"], grid=build_grid(cfg), sg_mode=cfg["grid"]["mode"], **settings
    )


def _write_snapshot(outdir: Path, index: int, t: float, state: bo.StatePair, formats):
    grid = state.grid
    flat_u = state.u.values
    flat_bu = state.bu.values.reshape(grid.num_points, -1)
    data = np.column_stack([grid.x, flat_u, flat_bu])
    if "csv" in formats:
        gcalc.array_to_csv(
            outdir / f"snapshot_{index:06d}.csv",
            data,
            header=f"t={t!r}; columns: x, u(4), bu(4 per component)",
        )
    if "binary" in formats:
        gcalc.field_to_binary(outdir / f"snapshot_u_{index:06d}.qfld", state.u, state.n)
        gcalc.field_to_binary(outdir / f"snapshot_bu_{index:06d}.qfld", state.bu, state.n)


def cmd_verify(args) -> int:
    if args.scope not in vs.SCOPES:
        raise ConfigError(f"--scope = {args.scope!r}: choose from {list(vs.SCOPES)}")
    checks = vs.run_scope(args.scope, seed=args.seed)
    report = {
        "scope": args.scope,
        "seed": args.seed,
        "checks": [c.as_dict() for c in checks],
        "passed": all(c.passed for c in checks),
    }
    for c in checks:
        flag = "PASS" if c.passed else "FAIL"
        print(f"[{flag}] {c.name}: residual {c.residual:.3e} (tolerance {c.tolerance:.1e})")
    if args.out:
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        gcalc.report_to_json(outdir / f"verify_{args.scope}.json", report)
    return 0 if report["passed"] else 1


def _prologue(args, simulate=False):
    """The config, its state, its SimConfig (simulate only) and the output
    directory, made last: a configuration error leaves no directory behind."""
    cfg = load_config(args.config)
    state = build_state(cfg, seed_override=args.seed)
    sim = build_sim_config(cfg) if simulate else None
    outdir = Path(args.out or cfg["output"]["directory"])
    outdir.mkdir(parents=True, exist_ok=True)
    return cfg, state, sim, outdir


def cmd_simulate(args) -> int:
    cfg, state, sim, outdir = _prologue(args, simulate=True)
    formats = cfg["output"]["formats"]

    index = [0]

    def observer(t, s):
        index[0] += 1
        _write_snapshot(outdir, index[0], t, s, formats)

    _write_snapshot(outdir, 0, 0.0, state, formats)
    # no numpy warnings while stepping: every non-finite result there raises
    # BlowUpError (a non-finite monodromy is reported as one)
    try:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            traj = sf.run_flow(sim, state, observer=observer)
    except (BlowUpError, NonlocalityError, ShootingError, IntegrationAccuracyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    report = sf.conserved_report(traj)
    sf.report_to_csv(outdir / "conservation.csv", report)
    gcalc.report_to_json(outdir / "conservation.json", report.as_dict())

    if cfg["output"]["reconstruct"]:
        # the map check starts from this frame; the curve is written first, so
        # a map check that blows up still leaves it behind
        frame = cg.grid_frame(traj.states[-1], refine=8)
        cg.curve_to_csv(outdir / "curve_final.csv", frame)
        check = cg.MAP_CHECKS.get(sim.flow) if cfg["output"]["map_check"] else None
        if check is not None:
            try:
                with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                    res = cg.map_residuals(
                        traj.states[-1], frame, sim.flow, sim.dt,
                        branch=sim.sg_branch, sg_mode=sim.sg_mode, sg_refine=sim.sg_refine,
                    )
            except BlowUpError as exc:
                print(f"error: map check: {exc}", file=sys.stderr)
                return 1
            gcalc.report_to_json(outdir / check.file, res)
    print(f"wrote {index[0] + 1} snapshots to {outdir}")
    print(
        f"conservation drift: H0 {report.h0_drift:.3e}, H1 {report.h1_drift:.3e}"
    )
    return 0


def cmd_hierarchy(args) -> int:
    _, state, _, outdir = _prologue(args)
    grid = state.grid
    try:
        flows = bo.hierarchy_flows(state, args.lmax)
    except NonlocalityError as exc:
        level = getattr(exc, "hierarchy_level", "?")
        print(f"error at hierarchy level {level}: {exc}", file=sys.stderr)
        return 1
    cols = [grid.x]
    names = ["x"]
    for l, h in enumerate(flows):
        cols.append(h.hs.values)
        cols.append(h.hv.values.reshape(grid.num_points, -1))
        names.append(f"h{l}_scalar(4)")
        names.append(f"h{l}_vector({4 * (state.n - 1)})")
    gcalc.array_to_csv(outdir / "hierarchy.csv", np.column_stack(cols), header=", ".join(names))
    values = {}
    for l in range(args.lmax + 1):
        values[f"H{l}"] = bo.hamiltonian_value(state, l) if l <= 1 else None
    gcalc.report_to_json(outdir / "hamiltonians.json", values)
    print(f"wrote hierarchy levels 0..{args.lmax} to {outdir}")
    return 0


def cmd_reconstruct(args) -> int:
    cfg, state, _, outdir = _prologue(args)
    report, frame, formulas = cg.reconstruction_errors(state)
    cg.curve_to_csv(outdir / "curve.csv", frame)
    inv_cols = np.column_stack(
        [state.grid.x] + [formulas[k].values for k in ("g_NN", "g_NNx", "g_NxNx")]
    )
    gcalc.array_to_csv(
        outdir / "invariants.csv", inv_cols, header="x,g_NN,g_NNx,g_NxNx", comments=""
    )
    if "chordal" in cfg["output"]["formats"]:
        chordal = cg.chordal_distance_matrix(cg.reconstruct_curve(frame))
        gcalc.array_to_csv(outdir / "chordal.csv", chordal)
    gcalc.report_to_json(outdir / "reconstruction.json", report)
    print(f"wrote curve and invariants to {outdir}")
    return 0


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hpflow",
        description="Quaternionic bi-Hamiltonian curve flows: verification, "
        "simulation, hierarchy generation, curve reconstruction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run seeded property suites")
    p_verify.add_argument("--scope", default="all")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--out", default=None)
    p_verify.set_defaults(func=cmd_verify)

    p_sim = sub.add_parser("simulate", help="integrate a configured flow")
    p_sim.add_argument("--config", required=True)
    p_sim.add_argument("--seed", type=int, default=None)
    p_sim.add_argument("--out", default=None)
    p_sim.set_defaults(func=cmd_simulate)

    p_h = sub.add_parser("hierarchy", help="tabulate hierarchy flows and Hamiltonians")
    p_h.add_argument("--config", required=True)
    p_h.add_argument("--lmax", type=int, default=1)
    p_h.add_argument("--seed", type=int, default=None)
    p_h.add_argument("--out", default=None)
    p_h.set_defaults(func=cmd_hierarchy)

    p_r = sub.add_parser("reconstruct", help="reconstruct the curve from a state")
    p_r.add_argument("--config", required=True)
    p_r.add_argument("--seed", type=int, default=None)
    p_r.add_argument("--out", default=None)
    p_r.set_defaults(func=cmd_reconstruct)
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        if args.seed is not None and args.seed < 0:  # every command takes --seed
            raise ConfigError(f"--seed = {args.seed} must be >= 0")
        if args.command == "hierarchy" and args.lmax < 0:
            raise ConfigError(f"--lmax = {args.lmax} must be >= 0")
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (BlowUpError, NonlocalityError, ShootingError, IntegrationAccuracyError) as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
