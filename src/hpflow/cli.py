"""Command-line front end: verify, simulate, hierarchy, reconstruct.

Configuration is a JSON document with sections algebra / grid / flow /
initial / output; unknown keys anywhere are rejected, and so is a value that
cannot be read or builds no grid or state, by an error naming its key.  A
hierarchy flow is stepped only at levels 0 and 1, the levels whose flows are
local.  Exit codes: 0 on success, 1 when a check or run fails, 2 on
configuration errors.  All numeric output is written in full double
precision so runs are byte-reproducible given the same config and seed.
"""

from __future__ import annotations

import argparse
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


def _check_keys(section, allowed: set, where: str):
    if not isinstance(section, dict):
        raise ConfigError(f"{where} must be a JSON object, got {section!r}")
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")


def _read(section: dict, key: str, cast, default, where: str):
    """section[key], or the default, converted by cast; a value cast rejects
    is a ConfigError that names the key."""
    value = section.get(key, default)
    try:
        return cast(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}.{key} = {value!r}: {exc}") from exc


_JSON_TYPE = {bool: "boolean", str: "string", list: "array"}


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


def _finite(value):
    x = float(value)
    if not math.isfinite(x):
        raise ValueError("must be finite")
    return x


def _nonzero_finite(value):
    x = _finite(value)
    if x == 0.0:
        raise ValueError("must be nonzero")
    return x


def _optional_float(value):
    return None if value is None else float(value)


def _optional_finite(value):
    return None if value is None else _finite(value)


def _direction(value):
    """None, or four finite quaternion components, not all zero."""
    if value is None:
        return None
    q = np.asarray(value, dtype=float)
    if q.shape != (4,) or not np.all(np.isfinite(q)) or not np.any(q):
        raise ValueError("need four finite quaternion components, not all zero")
    return q


# snapshot files of simulate (csv, binary) and the chordal matrix of reconstruct
OUTPUT_FORMATS = ("csv", "binary", "chordal")


def load_config(path) -> dict:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    _check_keys(raw, {"algebra", "grid", "flow", "initial", "output"}, "config")

    algebra = raw.get("algebra", {})
    _check_keys(algebra, {"n"}, "algebra")
    grid_sec = raw.get("grid", {})
    _check_keys(grid_sec, {"N", "L", "mode"}, "grid")
    flow_sec = raw.get("flow", {})
    _check_keys(
        flow_sec,
        {"kind", "l", "dt", "t_end", "sg_branch", "galilean_removed", "cfl_constant",
         "sg_refine", "project_fraction"},
        "flow",
    )
    init_sec = raw.get("initial", {})
    _check_keys(
        init_sec,
        {"preset", "seed", "amplitude", "kmax", "a", "x0", "direction",
         "u_cos", "u_sin", "bu_cos", "bu_sin"},
        "initial",
    )
    out_sec = raw.get("output", {})
    _check_keys(
        out_sec, {"directory", "cadence", "formats", "reconstruct", "map_check"}, "output"
    )

    cfg = {
        "n": _read(algebra, "n", _integer, 1, "algebra"),
        "N": _read(grid_sec, "N", _integer, 128, "grid"),
        "L": _read(grid_sec, "L", float, 20.0, "grid"),
        "mode": grid_sec.get("mode", "periodic"),
        "flow": dict(flow_sec),
        "initial": dict(init_sec),
        "output": dict(out_sec),
    }
    if cfg["n"] < 1:
        raise ConfigError(f"algebra.n = {cfg['n']} must be >= 1")
    # values used as they stand, not converted: only their JSON type is checked
    for where, section, key, kind in (
        ("flow", flow_sec, "galilean_removed", bool),
        ("output", out_sec, "directory", str),
        ("output", out_sec, "formats", list),
        ("output", out_sec, "reconstruct", bool),
        ("output", out_sec, "map_check", bool),
    ):
        if key in section and not isinstance(section[key], kind):
            raise ConfigError(f"{where}.{key} = {section[key]!r} must be a JSON {_JSON_TYPE[kind]}")
    unknown = [f for f in out_sec.get("formats", []) if f not in OUTPUT_FORMATS]
    if unknown:
        raise ConfigError(
            f"output.formats = {out_sec['formats']!r}: unknown {unknown!r}, "
            f"choose from {list(OUTPUT_FORMATS)}"
        )
    if cfg["mode"] not in ("periodic", "line"):
        raise ConfigError("grid.mode must be 'periodic' or 'line'")
    return cfg


def build_grid(cfg) -> gcalc.PeriodicGrid:
    try:
        return gcalc.PeriodicGrid(cfg["N"], cfg["L"])
    except DomainError as exc:
        raise ConfigError(f"grid.N = {cfg['N']}, grid.L = {cfg['L']}: {exc}") from exc


def build_state(cfg, seed_override=None) -> bo.StatePair:
    grid = build_grid(cfg)
    n = cfg["n"]
    init = cfg["initial"]
    preset = init.get("preset", "random_band")
    if preset == "random_band":
        if seed_override is None:
            seed = _read(init, "seed", _at_least(0), 0, "initial")
        else:
            seed = seed_override
        return sf.preset_random_band(
            grid, n, seed=seed,
            amplitude=_read(init, "amplitude", _finite, 0.3, "initial"),
            kmax=_read(init, "kmax", _at_least(1), 4, "initial"),
        )
    if preset in ("mkdv_soliton", "sg_kink"):
        make, a = {"mkdv_soliton": (sf.preset_mkdv_soliton, 1.5),
                   "sg_kink": (sf.preset_sg_kink, 1.0)}[preset]
        direction = _read(init, "direction", _direction, None, "initial")
        try:
            return make(
                grid, n, a=_read(init, "a", _nonzero_finite, a, "initial"),
                x0=_read(init, "x0", _optional_finite, None, "initial"),
                direction=direction,
            )
        except DomainError as exc:  # a direction with a real part
            raise ConfigError(f"initial.direction = {init['direction']!r}: {exc}") from exc
    if preset == "inline":
        return _inline_state(grid, n, init)
    raise ConfigError(f"unknown preset {preset!r}")


def _inline_state(grid, n, init) -> bo.StatePair:
    """Band-limited state from inline Fourier coefficient lists."""
    base = 2 * np.pi / grid.length

    def synth(name, shape):
        vals = np.zeros((grid.num_points,) + shape)
        for trig in ("cos", "sin"):
            key = f"{name}_{trig}"
            wave = getattr(np, trig)
            try:
                for k, row in enumerate(init.get(key) or [], start=1):
                    vals += wave(k * base * grid.x).reshape((-1,) + (1,) * len(shape)) * np.asarray(row, dtype=float)
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"initial.{key}: {exc}") from exc
        return vals

    u = synth("u", (4,))
    u[:, 0] = 0.0
    bu = synth("bu", (n - 1, 4))
    return bo.make_state(grid, u, bu)


def build_sim_config(cfg) -> sf.SimConfig:
    flow = cfg["flow"]
    kind = flow.get("kind", "mkdv")
    level = _read(flow, "l", _integer, 1, "flow")
    # the recursion's D_x^{-1} constants are the jet constants only up to level
    # 1: from level 2 on the flow is measurably non-local, so it is not stepped
    if kind == "hierarchy" and level >= 2:
        raise ConfigError(
            f"flow.l = {level}: hierarchy level {level} is not supported, only levels "
            "0 and 1 are local flows ('hpflow hierarchy' still tabulates higher levels)"
        )
    return sf.SimConfig(
        n=cfg["n"],
        grid=build_grid(cfg),
        dt=_read(flow, "dt", float, 1e-3, "flow"),
        t_end=_read(flow, "t_end", float, 1.0, "flow"),
        flow=kind,
        galilean_removed=flow.get("galilean_removed", True),
        sg_branch=flow.get("sg_branch", "-"),
        sg_mode="line" if cfg["mode"] == "line" else "periodic",
        sg_refine=_read(flow, "sg_refine", _integer, 8, "flow"),
        hierarchy_level=level,
        cadence=_read(cfg["output"], "cadence", _integer, 1, "output"),
        cfl_constant=_read(flow, "cfl_constant", float, sf.DEFAULT_CFL_CONSTANT, "flow"),
        project_fraction=_read(
            flow, "project_fraction", _optional_float, sf.DEFAULT_PROJECT_FRACTION, "flow"
        ),
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
        print(f"error: unknown scope {args.scope!r}; choose from {vs.SCOPES}", file=sys.stderr)
        return 2
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


def cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    outdir = Path(args.out or cfg["output"].get("directory", "out"))
    outdir.mkdir(parents=True, exist_ok=True)
    formats = cfg["output"].get("formats", ["csv"])
    state = build_state(cfg, seed_override=args.seed)
    sim = build_sim_config(cfg)

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

    if cfg["output"].get("reconstruct", False):
        curve = cg.reconstruct_curve(cg.grid_frame(traj.states[-1], refine=4))
        cg.curve_to_csv(outdir / "curve_final.csv", curve)
        if cfg["output"].get("map_check", True) and sim.flow in ("mkdv", "sg"):
            # the residuals are read at snapshot idx.  The -1 flow's right side
            # is bounded by its constraint (|h_s| <= 2 chi, |h_v| <= chi), so
            # its check stops at idx + 1.  The mKdV check keeps 2 idx steps:
            # they are its only probe of RK4 stability at the run's dt
            # (tests/test_cli.py::test_simulate_map_check_blowup_exits_1).
            idx = 5
            steps = idx + 1 if sim.flow == "sg" else 2 * idx
            dt_check = min(sim.dt, 1e-3 if sim.flow == "sg" else sim.dt)
            try:
                with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                    ftraj = cg.evolve_with_frame(
                        traj.states[-1], sim.flow, dt_check, steps,
                        branch=sim.sg_branch, sg_mode=sim.sg_mode, sg_refine=sim.sg_refine,
                    )
            except BlowUpError as exc:
                print(f"error: map check: {exc}", file=sys.stderr)
                return 1
            if sim.flow == "mkdv":
                res = cg.verify_mkdv_map(ftraj, idx=idx)
                gcalc.report_to_json(outdir / "mkdv_map_residuals.json", res)
            else:
                res = cg.verify_wave_map(ftraj, idx=idx)
                gcalc.report_to_json(outdir / "wave_map_residuals.json", res)
    print(f"wrote {index[0] + 1} snapshots to {outdir}")
    print(
        f"conservation drift: H0 {report.h0_drift:.3e}, H1 {report.h1_drift:.3e}"
    )
    return 0


def cmd_hierarchy(args) -> int:
    cfg = load_config(args.config)
    if args.lmax < 0:
        print("error: --lmax must be >= 0", file=sys.stderr)
        return 2
    outdir = Path(args.out or cfg["output"].get("directory", "out"))
    outdir.mkdir(parents=True, exist_ok=True)
    state = build_state(cfg, seed_override=args.seed)
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
    cfg = load_config(args.config)
    outdir = Path(args.out or cfg["output"].get("directory", "out"))
    outdir.mkdir(parents=True, exist_ok=True)
    state = build_state(cfg, seed_override=args.seed)
    measured = cg.geometric_invariants_from_curve(state, refine=8)
    frame = measured["frame"]
    curve = cg.reconstruct_curve(frame)
    cg.curve_to_csv(outdir / "curve.csv", curve)
    formulas = cg.geometric_invariants(state)
    inv_dev = max(
        float(
            np.max(
                np.abs(
                    measured[k]
                    - gcalc.spectral_refine(formulas[k].values, state.grid, 8)
                )
            )
        )
        for k in ("g_NN", "g_NNx", "g_NxNx")
    )
    report = {
        "unitarity_defect": frame.unitarity_defect(),
        "speed_max_deviation": float(np.max(np.abs(measured["speed"] - 1.0))),
        "invariant_max_deviation": inv_dev,
    }
    inv_cols = np.column_stack(
        [state.grid.x] + [formulas[k].values for k in ("g_NN", "g_NNx", "g_NxNx")]
    )
    gcalc.array_to_csv(
        outdir / "invariants.csv", inv_cols, header="x,g_NN,g_NNx,g_NxNx", comments=""
    )
    if "chordal" in cfg["output"].get("formats", []):
        gcalc.array_to_csv(outdir / "chordal.csv", cg.chordal_distance_matrix(curve))
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
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (BlowUpError, NonlocalityError, ShootingError, IntegrationAccuracyError) as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
