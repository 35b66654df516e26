"""Command-line front end: verify, simulate, hierarchy, reconstruct.

Configuration is a JSON document with sections algebra / grid / flow /
initial / output; unknown keys anywhere are rejected.  Exit codes: 0 on
success, 1 when a check or run fails, 2 on configuration errors.  All
numeric output is written in full double precision so runs are
byte-reproducible given the same config and seed.
"""

from __future__ import annotations

import argparse
import json
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
    IntegrationAccuracyError,
    NonlocalityError,
    ShootingError,
)


def _check_keys(section: dict, allowed: set, where: str):
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")


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
        "n": int(algebra.get("n", 1)),
        "N": int(grid_sec.get("N", 128)),
        "L": float(grid_sec.get("L", 20.0)),
        "mode": grid_sec.get("mode", "periodic"),
        "flow": dict(flow_sec),
        "initial": dict(init_sec),
        "output": dict(out_sec),
    }
    if cfg["mode"] not in ("periodic", "line"):
        raise ConfigError("grid.mode must be 'periodic' or 'line'")
    return cfg


def build_grid(cfg) -> gcalc.PeriodicGrid:
    return gcalc.PeriodicGrid(cfg["N"], cfg["L"])


def build_state(cfg, seed_override=None) -> bo.StatePair:
    grid = build_grid(cfg)
    n = cfg["n"]
    init = cfg["initial"]
    preset = init.get("preset", "random_band")
    if preset == "random_band":
        seed = int(init.get("seed", 0)) if seed_override is None else seed_override
        return sf.preset_random_band(
            grid, n, seed=seed,
            amplitude=float(init.get("amplitude", 0.3)),
            kmax=int(init.get("kmax", 4)),
        )
    if preset == "mkdv_soliton":
        return sf.preset_mkdv_soliton(
            grid, n, a=float(init.get("a", 1.5)), x0=init.get("x0"),
            direction=init.get("direction"),
        )
    if preset == "sg_kink":
        return sf.preset_sg_kink(
            grid, n, a=float(init.get("a", 1.0)), x0=init.get("x0"),
            direction=init.get("direction"),
        )
    if preset == "inline":
        return _inline_state(grid, n, init)
    raise ConfigError(f"unknown preset {preset!r}")


def _inline_state(grid, n, init) -> bo.StatePair:
    """Band-limited state from inline Fourier coefficient lists."""
    base = 2 * np.pi / grid.length

    def synth(cos_rows, sin_rows, shape):
        vals = np.zeros((grid.num_points,) + shape)
        for k, row in enumerate(cos_rows or [], start=1):
            vals += np.cos(k * base * grid.x).reshape((-1,) + (1,) * len(shape)) * np.asarray(row, dtype=float)
        for k, row in enumerate(sin_rows or [], start=1):
            vals += np.sin(k * base * grid.x).reshape((-1,) + (1,) * len(shape)) * np.asarray(row, dtype=float)
        return vals

    u = synth(init.get("u_cos"), init.get("u_sin"), (4,))
    u[:, 0] = 0.0
    bu = synth(init.get("bu_cos"), init.get("bu_sin"), (n - 1, 4))
    return bo.make_state(grid, u, bu)


def build_sim_config(cfg) -> sf.SimConfig:
    flow = cfg["flow"]
    kind = flow.get("kind", "mkdv")
    return sf.SimConfig(
        n=cfg["n"],
        grid=build_grid(cfg),
        dt=float(flow.get("dt", 1e-3)),
        t_end=float(flow.get("t_end", 1.0)),
        flow=kind,
        galilean_removed=bool(flow.get("galilean_removed", True)),
        sg_branch=flow.get("sg_branch", "-"),
        sg_mode="line" if cfg["mode"] == "line" else "periodic",
        sg_refine=int(flow.get("sg_refine", 8)),
        hierarchy_level=int(flow.get("l", 1)),
        cadence=int(cfg["output"].get("cadence", 1)),
        cfl_constant=float(flow.get("cfl_constant", sf.DEFAULT_CFL_CONSTANT)),
        project_fraction=flow.get("project_fraction", 2.0 / 3.0),
    )


def _write_snapshot(outdir: Path, index: int, t: float, state: bo.StatePair, formats):
    grid = state.grid
    flat_u = state.u.values
    flat_bu = state.bu.values.reshape(grid.num_points, -1)
    data = np.column_stack([grid.x, flat_u, flat_bu])
    if "csv" in formats:
        np.savetxt(
            outdir / f"snapshot_{index:06d}.csv",
            data,
            delimiter=",",
            header=f"t={t!r}; columns: x, u(4), bu(4 per component)",
            fmt="%.17e",
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
    try:
        traj = sf.run_flow(sim, state, observer=observer)
    except (BlowUpError, NonlocalityError, ShootingError, IntegrationAccuracyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    report = sf.conserved_report(traj)
    sf.report_to_csv(outdir / "conservation.csv", report)
    gcalc.report_to_json(outdir / "conservation.json", report.as_dict())

    if cfg["output"].get("reconstruct", False):
        curve = cg.reconstruct_curve(
            cg.downsample_frame(cg.transport_frame(traj.states[-1], refine=4), 4)
        )
        cg.curve_to_csv(outdir / "curve_final.csv", curve)
        if cfg["output"].get("map_check", True) and sim.flow in ("mkdv", "sg"):
            steps = 10
            dt_check = min(sim.dt, 1e-3 if sim.flow == "sg" else sim.dt)
            try:
                ftraj = cg.evolve_with_frame(
                    traj.states[-1], sim.flow, dt_check, steps,
                    branch=sim.sg_branch, sg_mode=sim.sg_mode, sg_refine=sim.sg_refine,
                )
            except BlowUpError as exc:
                print(f"error: map check: {exc}", file=sys.stderr)
                return 1
            if sim.flow == "mkdv":
                res = cg.verify_mkdv_map(ftraj)
                gcalc.report_to_json(outdir / "mkdv_map_residuals.json", res)
            else:
                res = cg.verify_wave_map(ftraj)
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
    np.savetxt(
        outdir / "hierarchy.csv",
        np.column_stack(cols),
        delimiter=",",
        header=", ".join(names),
        fmt="%.17e",
    )
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
    frame = cg.transport_frame(state, refine=8)
    curve = cg.reconstruct_curve(frame)
    cg.curve_to_csv(outdir / "curve.csv", curve)
    measured = cg.geometric_invariants_from_curve(state, refine=8)
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
    np.savetxt(
        outdir / "invariants.csv",
        inv_cols,
        delimiter=",",
        header="x,g_NN,g_NNx,g_NxNx",
        comments="",
        fmt="%.17e",
    )
    if "chordal" in cfg["output"].get("formats", []):
        np.savetxt(
            outdir / "chordal.csv", cg.chordal_distance_matrix(curve), delimiter=",",
            fmt="%.17e",
        )
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
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (BlowUpError, NonlocalityError, ShootingError, IntegrationAccuracyError) as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
