"""The benchmark's workloads: inputs made from the seed, one op, and its gates.

A workload object builds its inputs in `__init__` from the seed alone, so
the program only ever sees the generated inputs.  `unit()` runs one unit of
fixed work (the thing `run_s` times) and returns its outputs;
`gates(result)` checks them against the repository's pinned acceptance
tolerances (tests/test_acceptance.py), never looser.  `ops_per_unit` says
how many ops (the thing `step_ms_*` times) one unit holds.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
import time
from pathlib import Path

import numpy as np

from hpflow import biham_ops as bo
from hpflow import cli
from hpflow import grid_calculus as gcalc
from hpflow import soliton_flows as sf


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else np.ascontiguousarray(part).tobytes())
    return h.hexdigest()


def _run_cli(argv) -> tuple[int, str]:
    """In-process `hpflow <argv>`, returning the exit code and captured stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _dir_digest(path: Path) -> str:
    files = sorted(p for p in path.rglob("*") if p.is_file())
    return _digest(*(f"{p.relative_to(path)}\0".encode() + p.read_bytes() for p in files))


class MkdvSoliton:
    """The +1-flow hot loop: RK4 on the n=1 sech soliton, as in the acceptance fixture.

    One op is one `step_rk4` call; one unit is STEPS steps from the seeded
    initial state with H0/H1 sampled every CADENCE steps.  The seed shifts
    x0 by at most 2 from L/2, which keeps the soliton's tail at the seam
    below 1e-11.
    """

    name = "mkdv_soliton"
    STEPS = 1000
    CADENCE = 250

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        self.grid = gcalc.PeriodicGrid(256, 40.0)
        self.a = 1.5
        self.x0 = self.grid.length / 2 + rng.uniform(-2.0, 2.0)
        period = self.grid.length / (self.a * self.a / 4.0)
        steps = int(round(period / (0.8 * self.grid.dx**3)))
        self.dt = period / steps
        self.state = sf.preset_mkdv_soliton(self.grid, n=1, a=self.a, x0=self.x0)
        self.ops_per_unit = self.STEPS
        self.describe = {"a": self.a, "x0": self.x0, "dt": self.dt, "steps": self.STEPS}

    def _rhs(self, s):
        return sf.mkdv_rhs(s)

    def _step(self, s, i):
        return sf.step_rk4(s, self._rhs, self.dt, i * self.dt, project_fraction=2 / 3)

    def warm_up(self):
        self._step(self.state, 0)

    def unit(self) -> dict:
        clock = time.perf_counter
        s = self.state
        h0 = [bo.hamiltonian_value(s, 0)]
        h1 = [bo.hamiltonian_value(s, 1)]
        sampled = [s]
        op_s = []
        for i in range(self.STEPS):
            t0 = clock()
            s = self._step(s, i)
            op_s.append(clock() - t0)
            if (i + 1) % self.CADENCE == 0:
                h0.append(bo.hamiltonian_value(s, 0))
                h1.append(bo.hamiltonian_value(s, 1))
                sampled.append(s)
        return {"final": s, "sampled": sampled, "h0": np.array(h0), "h1": np.array(h1), "op_s": op_s}

    def exact_profile(self, t: float) -> np.ndarray:
        """Periodic image of `mkdv_soliton_profile` at time t."""
        L = self.grid.length
        xi = np.mod(self.grid.x - self.x0 + self.a * self.a * t / 4.0 + L / 2, L) - L / 2
        return self.a / np.cosh(self.a * xi)

    def gates(self, result) -> list[tuple[str, float, float]]:
        u = result["final"].u.values
        shape = float(np.max(np.abs(u[:, 1] - self.exact_profile(self.STEPS * self.dt)))) / self.a
        h0, h1 = result["h0"], result["h1"]
        drift = max(
            float(np.max(np.abs(h0 - h0[0])) / abs(h0[0])),
            float(np.max(np.abs(h1 - h1[0])) / abs(h1[0])),
        )
        max_re = max(float(np.max(np.abs(s.u.values[:, 0]))) for s in result["sampled"])
        return [
            ("shape_error", shape, 1e-4),
            ("H0_H1_relative_drift", drift, 1e-6),
            ("max_abs_re_u", max_re, 1e-10),
        ]

    def diagnostics(self, result) -> dict:
        return {}

    def digest(self, result) -> str:
        final = result["final"]
        return _digest(final.u.values, final.bu.values, result["h0"], result["h1"])

    def cleanup(self, result):
        pass


class _CliWorkload:
    """One op and one unit are one in-process hpflow CLI call writing into a
    fresh directory under the workload's scratch directory."""

    ops_per_unit = 1

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self._count = 0

    def argv(self, out: Path) -> list[str]:
        raise NotImplementedError

    def warm_up(self):
        self.cleanup(self.unit())

    def unit(self) -> dict:
        self._count += 1
        out = self.workdir / f"op{self._count}"
        code, text = _run_cli(self.argv(out))
        return {"exit": code, "out": out, "stdout": text}

    def digest(self, result) -> str:
        return _digest(str(result["exit"]).encode(), _dir_digest(result["out"]).encode())

    def cleanup(self, result):
        shutil.rmtree(result["out"], ignore_errors=True)


class SgKink(_CliWorkload):
    """The -1-flow / Lie-group path end to end: `hpflow simulate` on a kink.

    Mirrors configs/sg_kink.json with t_end = 0.1, the acceptance window of
    criterion 6.  One op and one unit are one in-process `simulate` call.
    Line mode needs data that vanishes near the seam, so the seed only moves
    the kink where its seam tail stays no larger than the acceptance kink's
    (a = 1, x0 = L/2) over the run: a >= 1, x0 >= L/2, and x0 bounded above
    by the right-hand tail.
    """

    name = "sg_kink"
    T_END = 0.1
    DT = 5e-3

    def __init__(self, seed: int, workdir: Path):
        super().__init__(workdir)
        rng = np.random.default_rng(seed)
        self.grid = gcalc.PeriodicGrid(256, 40.0)
        L = self.grid.length
        limit = self.seam_magnitude(1.0, L / 2)
        self.a = rng.uniform(1.0, 1.25)
        x0_max = (L - self.grid.dx) - np.arccosh(self.a / limit) / self.a
        self.x0 = rng.uniform(L / 2, x0_max)
        seam = self.seam_magnitude(self.a, self.x0)
        if seam > limit * (1 + 1e-9):
            raise ValueError(f"kink seam tail {seam:.3e} exceeds the acceptance kink's {limit:.3e}")
        self.config = workdir / "sg_kink.json"
        self.config.write_text(json.dumps({
            "algebra": {"n": 1},
            "grid": {"N": 256, "L": L, "mode": "line"},
            "flow": {"kind": "sg", "dt": self.DT, "t_end": self.T_END,
                     "sg_branch": "-", "sg_refine": 8},
            "initial": {"preset": "sg_kink", "a": self.a, "x0": self.x0},
            "output": {"cadence": 4, "formats": ["csv"], "reconstruct": True, "map_check": True},
        }))
        self.describe = {"a": self.a, "x0": self.x0, "seam_bound": limit}

    def seam_magnitude(self, a: float, x0: float) -> float:
        """Largest |u| at the two seam points of the exact kink over [0, T_END]."""
        return max(
            float(np.max(np.abs(sf.sg_kink_profile(self.grid, a, x0, t)[[0, -1]])))
            for t in (0.0, self.T_END)
        )

    def argv(self, out: Path) -> list[str]:
        return ["simulate", "--config", str(self.config), "--out", str(out)]

    def _final_snapshot(self, out: Path):
        path = sorted(out.glob("snapshot_*.csv"))[-1]
        with open(path) as fh:
            t = float(fh.readline().split(";")[0].split("=")[1])
        return t, np.loadtxt(path, delimiter=",")

    def gates(self, result) -> list[tuple[str, float, float]]:
        gates = [("exit_code", float(result["exit"]), 0.0)]
        if result["exit"] != 0:
            return gates
        out = result["out"]
        t, data = self._final_snapshot(out)
        kink = float(np.max(np.abs(data[:, 2] - sf.sg_kink_profile(self.grid, self.a, self.x0, t))))
        wave = json.loads((out / "wave_map_residuals.json").read_text())
        cons = json.loads((out / "conservation.json").read_text())
        return gates + [
            ("kink_error", kink, 1e-6),
            ("wave_map_residual", wave["residual"], 1e-5),
            ("unitarity", wave["unitarity"], 1e-9),
            ("constraint_drift", cons["sg_constraint_drift"], 1e-8),
        ]

    def diagnostics(self, result) -> dict:
        if result["exit"] != 0:
            return {}
        _, data = self._final_snapshot(result["out"])
        return {"final_seam_magnitude": float(np.max(np.abs(data[[0, -1], 1:5])))}


class VerifyAll(_CliWorkload):
    """`hpflow verify --scope all --seed S` in-process: every layer on small inputs.

    One op and one unit are one `verify` call; the benchmark seed is the
    verify seed.
    """

    name = "verify_all"

    def __init__(self, seed: int, workdir: Path):
        super().__init__(workdir)
        self.seed = int(seed)
        self.describe = {"verify_seed": self.seed}

    def argv(self, out: Path) -> list[str]:
        return ["verify", "--scope", "all", "--seed", str(self.seed), "--out", str(out)]

    def gates(self, result) -> list[tuple[str, float, float]]:
        gates = [("exit_code", float(result["exit"]), 0.0)]
        path = result["out"] / "verify_all.json"
        if not path.exists():
            return gates + [("report_written", 1.0, 0.0)]
        checks = json.loads(path.read_text())["checks"]
        passes = sum(line.startswith("[PASS]") for line in result["stdout"].splitlines())
        return gates + [
            ("checks_failed", float(sum(not c["passed"] for c in checks)), 0.0),
            ("pass_lines_missing", float(abs(len(checks) - passes)), 0.0),
            ("no_checks_run", float(not checks), 0.0),
        ]

    def diagnostics(self, result) -> dict:
        path = result["out"] / "verify_all.json"
        return {"checks": len(json.loads(path.read_text())["checks"])} if path.exists() else {}


WORKLOADS = {w.name: w for w in (MkdvSoliton, SgKink, VerifyAll)}
