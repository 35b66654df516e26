import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from hpflow import biham_ops as bo
from hpflow import cli
from hpflow import curve_geometry as cg
from hpflow import soliton_flows as sf
from hpflow import verify_suites as vs

from conftest import read_qfld


CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.json"))


def write_config(tmp_path, **overrides):
    cfg = {
        "algebra": {"n": 1},
        "grid": {"N": 64, "L": 20.0, "mode": "periodic"},
        "flow": {"kind": "mkdv", "dt": 1e-3, "t_end": 0.01, "cfl_constant": 0.5},
        "initial": {"preset": "random_band", "seed": 11, "amplitude": 0.2, "kmax": 3},
        "output": {"directory": str(tmp_path / "out"), "cadence": 5, "formats": ["csv"]},
    }
    for key, val in overrides.items():
        if isinstance(val, dict):
            cfg.setdefault(key, {}).update(val)
        else:
            cfg[key] = val
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def test_verify_algebra_scope(capsys):
    rc = cli.main(["verify", "--scope", "algebra", "--seed", "1"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "PASS" in out and "FAIL" not in out


def test_verify_invalid_scope(capsys):
    assert cli.main(["verify", "--scope", "bogus"]) == 2
    assert capsys.readouterr().err == (
        "configuration error: --scope = 'bogus': choose from "
        "['algebra', 'operators', 'flows', 'geometry', 'all']\n"
    )


def test_verify_writes_report(tmp_path, capsys):
    rc = cli.main(
        ["verify", "--scope", "algebra", "--seed", "1", "--out", str(tmp_path)]
    )
    assert rc == 0
    report = json.loads((tmp_path / "verify_algebra.json").read_text())
    assert report["passed"] is True
    assert all("residual" in c for c in report["checks"])


def test_simulate_writes_artifacts(tmp_path, capsys):
    cfg = write_config(tmp_path)
    rc = cli.main(["simulate", "--config", str(cfg)])
    assert rc == 0
    outdir = tmp_path / "out"
    snaps = sorted(outdir.glob("snapshot_*.csv"))
    assert len(snaps) >= 2
    assert (outdir / "conservation.csv").exists()
    report = json.loads((outdir / "conservation.json").read_text())
    assert report["H0_relative_drift"] <= 1e-7


def test_simulate_t_end_zero_initial_snapshot_only(tmp_path):
    cfg = write_config(tmp_path, flow={"kind": "mkdv", "dt": 1e-3, "t_end": 0.0, "cfl_constant": 0.5})
    rc = cli.main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o2")])
    assert rc == 0
    snaps = sorted((tmp_path / "o2").glob("snapshot_*.csv"))
    assert len(snaps) == 1


def test_simulate_deterministic(tmp_path):
    cfg = write_config(tmp_path)
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "a")]) == 0
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "b")]) == 0
    for name in ("snapshot_000000.csv", "snapshot_000002.csv", "conservation.csv"):
        a = (tmp_path / "a" / name).read_bytes()
        b = (tmp_path / "b" / name).read_bytes()
        assert a == b


def test_config_rejects_unknown_keys(tmp_path):
    cfg = write_config(tmp_path)
    raw = json.loads(cfg.read_text())
    raw["grid"]["bogus_key"] = 1
    cfg.write_text(json.dumps(raw))
    assert cli.main(["simulate", "--config", str(cfg)]) == 2
    assert not (tmp_path / "out").exists()


def test_config_rejects_bad_flow_kind(tmp_path, capsys):
    cfg = write_config(tmp_path, flow={"kind": "nope", "dt": 1e-3, "t_end": 0.1})
    assert cli.main(["simulate", "--config", str(cfg)]) == 2
    assert not (tmp_path / "out").exists()
    err = capsys.readouterr().err
    assert err.startswith("configuration error: unknown flow kind 'nope': choose from")
    assert all(repr(kind) in err for kind in sf.FLOWS)


def test_simulate_hierarchy_with_map_check_writes_the_curve_and_no_residuals(tmp_path):
    # hierarchy has no frame co-evolution: reconstruct and map_check both on
    # write its curve and no map-residual file
    assert "hierarchy" not in cg.MAP_CHECKS
    cfg = write_config(
        tmp_path,
        flow={"kind": "hierarchy", "l": 1, "dt": 1e-3, "t_end": 0.005},
        output={"reconstruct": True, "map_check": True},
    )
    out = tmp_path / "h"
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "curve_final.csv").exists()
    assert not any((out / check.file).exists() for check in cg.MAP_CHECKS.values())


def test_hierarchy_command(tmp_path):
    cfg = write_config(tmp_path, algebra={"n": 2})
    rc = cli.main(
        ["hierarchy", "--config", str(cfg), "--lmax", "1", "--out", str(tmp_path / "h")]
    )
    assert rc == 0
    data = np.loadtxt(tmp_path / "h" / "hierarchy.csv", delimiter=",", skiprows=1)
    assert data.shape[0] == 64
    values = json.loads((tmp_path / "h" / "hamiltonians.json").read_text())
    assert "H0" in values and "H1" in values
    assert values["H0"] > 0.0


def test_hierarchy_zero_state_zero_tables(tmp_path):
    cfg = write_config(
        tmp_path,
        algebra={"n": 1},
        initial={"preset": "random_band", "seed": 0, "amplitude": 0.0, "kmax": 1},
    )
    rc = cli.main(
        ["hierarchy", "--config", str(cfg), "--lmax", "0", "--out", str(tmp_path / "hz")]
    )
    assert rc == 0
    data = np.loadtxt(tmp_path / "hz" / "hierarchy.csv", delimiter=",", skiprows=1)
    assert np.max(np.abs(data[:, 1:])) == 0.0


def test_reconstruct_command(tmp_path):
    cfg = write_config(tmp_path)
    rc = cli.main(
        ["reconstruct", "--config", str(cfg), "--out", str(tmp_path / "r")]
    )
    assert rc == 0
    report = json.loads((tmp_path / "r" / "reconstruction.json").read_text())
    assert report["unitarity_defect"] <= 1e-9
    assert report["speed_max_deviation"] <= 1e-8
    assert report["invariant_max_deviation"] <= 1e-5
    assert (tmp_path / "r" / "curve.csv").exists()
    assert (tmp_path / "r" / "invariants.csv").exists()


def test_sg_simulation_with_wave_map_residual(tmp_path):
    cfg = write_config(
        tmp_path,
        algebra={"n": 1},
        grid={"N": 256, "L": 40.0, "mode": "line"},
        flow={"kind": "sg", "dt": 5e-3, "t_end": 0.02, "sg_branch": "-", "sg_refine": 8},
        initial={"preset": "sg_kink", "a": 1.0},
        output={
            "directory": str(tmp_path / "sg"),
            "cadence": 2,
            "formats": ["csv"],
            "reconstruct": True,
        },
    )
    rc = cli.main(["simulate", "--config", str(cfg)])
    assert rc == 0
    res = json.loads((tmp_path / "sg" / "wave_map_residuals.json").read_text())
    assert res["residual"] <= 1e-5
    report = json.loads((tmp_path / "sg" / "conservation.json").read_text())
    assert report["sg_constraint_drift"] <= 1e-7


def test_sg_map_check_stops_at_its_snapshot(tmp_path, monkeypatch):
    # the wave-map check reads snapshots 4-6 only: evolving 6 steps must write
    # the residuals that 10 steps give on the same final state
    calls = []
    evolve = cg.evolve_with_frame

    def recording(state, frame, flow, dt, steps, **kw):
        calls.append((state, frame, flow, dt, steps, kw))
        return evolve(state, frame, flow, dt, steps, **kw)

    monkeypatch.setattr(cg, "evolve_with_frame", recording)
    cfg = write_config(
        tmp_path,
        grid={"N": 128, "L": 40.0, "mode": "line"},
        flow={"kind": "sg", "dt": 5e-3, "t_end": 0.01, "sg_branch": "-", "sg_refine": 8},
        initial={"preset": "sg_kink", "a": 1.0},
        output={"directory": str(tmp_path / "sg"), "reconstruct": True},
    )
    assert cli.main(["simulate", "--config", str(cfg)]) == 0
    (final, frame, flow, dt_check, steps, kw), = calls
    assert steps == 6
    full = evolve(final, frame, flow, dt_check, 10, **kw)
    res = json.loads((tmp_path / "sg" / "wave_map_residuals.json").read_text())
    assert res == cg.verify_wave_map(full, idx=5)


def test_simulate_transports_the_final_state_once(tmp_path, monkeypatch):
    # curve_final.csv and the map check read one refine-8 frame of the final state
    made, started = [], []
    grid_frame, evolve = cg.grid_frame, cg.evolve_with_frame

    def frame_spy(state, refine=8):
        made.append((state, refine, grid_frame(state, refine)))
        return made[-1][2]

    def evolve_spy(state, frame, *args, **kw):
        started.append(frame)
        return evolve(state, frame, *args, **kw)

    monkeypatch.setattr(cg, "grid_frame", frame_spy)
    monkeypatch.setattr(cg, "evolve_with_frame", evolve_spy)
    cfg = write_config(tmp_path, output={"reconstruct": True, "map_check": True})
    assert cli.main(["simulate", "--config", str(cfg)]) == 0
    (final, refine, frame), = made
    assert refine == 8
    assert len(started) == 1 and started[0] is frame
    assert (tmp_path / "out" / "mkdv_map_residuals.json").exists()
    cg.curve_to_csv(tmp_path / "expected.csv", frame)
    expected = (tmp_path / "expected.csv").read_bytes()
    assert (tmp_path / "out" / "curve_final.csv").read_bytes() == expected


def test_inline_preset(tmp_path):
    cfg = write_config(
        tmp_path,
        initial={
            "preset": "inline",
            "u_cos": [[0.0, 0.1, 0.0, 0.05]],
            "u_sin": [[0.0, 0.0, 0.2, 0.0]],
        },
    )
    rc = cli.main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "i")])
    assert rc == 0


def test_missing_config_file(tmp_path):
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", str(tmp_path / "nope.json"), "--out", str(out)]) == 2
    assert not out.exists()


def test_config_accepts_every_documented_key(tmp_path):
    cfg = {
        "algebra": {"n": 2},
        "grid": {"N": 64, "L": 12.0, "mode": "periodic"},
        "flow": {
            "kind": "hierarchy", "l": 1, "dt": 5e-4, "t_end": 0.001,
            "sg_branch": "-", "galilean_removed": True, "cfl_constant": 0.5,
            "sg_refine": 4, "project_fraction": None,
        },
        "initial": {"preset": "random_band", "seed": 2, "amplitude": 0.1, "kmax": 2},
        "output": {
            "directory": str(tmp_path / "full"), "cadence": 1,
            "formats": ["csv", "binary"], "reconstruct": False, "map_check": False,
        },
    }
    path = tmp_path / "full.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["simulate", "--config", str(path)]) == 0
    assert any((tmp_path / "full").glob("*.qfld"))


def test_binary_snapshots_hold_the_csv_snapshot_values(tmp_path):
    # %.17e round-trips float64, so the CSV columns give the binary's bits
    cfg = write_config(
        tmp_path, algebra={"n": 2}, output={"cadence": 5, "formats": ["csv", "binary"]}
    )
    assert cli.main(["simulate", "--config", str(cfg)]) == 0
    out = tmp_path / "out"
    snaps = sorted(out.glob("snapshot_*.csv"))
    assert len(snaps) == 3
    for index, path in enumerate(snaps):
        rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
        csv = np.array([[float(v) for v in row] for row in rows])
        n, N, L, kind, u = read_qfld(out / f"snapshot_u_{index:06d}.qfld")
        assert (n, N, L, kind) == (2, 64, 20.0, "iquat")
        assert u.tobytes() == np.ascontiguousarray(csv[:, 1:5]).tobytes()
        n, N, L, kind, bu = read_qfld(out / f"snapshot_bu_{index:06d}.qfld")
        assert (n, N, L, kind) == (2, 64, 20.0, "qvec")
        assert bu.shape == (64, 1, 4)
        assert bu.tobytes() == np.ascontiguousarray(csv[:, 5:9]).tobytes()


def test_hierarchy_level_2_past_its_bound_is_a_config_error(tmp_path, capsys):
    # without the per-level bound this run blew up and reported a NonlocalityError
    cfg = write_config(
        tmp_path,
        algebra={"n": 2},
        grid={"N": 64, "L": 10.0},
        flow={"kind": "hierarchy", "l": 2, "dt": 1e-2, "t_end": 0.1},
    )
    assert cli.main(["simulate", "--config", str(cfg)]) == 2
    assert "hierarchy level 2" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_hierarchy_level_2_inside_its_bound_is_a_config_error(tmp_path, capsys):
    # dt is inside the level-2 bound 0.05 dx^5, but the level-2 flow is not
    # local, so it is not stepped; the hierarchy command still tabulates it
    cfg = write_config(
        tmp_path,
        algebra={"n": 2},
        grid={"N": 32, "L": 20.0},
        flow={"kind": "hierarchy", "l": 2, "dt": 1e-3, "t_end": 0.01, "cfl_constant": 0.05},
    )
    assert 1e-3 <= 0.05 * (20.0 / 32) ** 5
    assert cli.main(["simulate", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and "hierarchy level 2" in err
    assert not (tmp_path / "out").exists()
    out = tmp_path / "h2"
    assert cli.main(["hierarchy", "--config", str(cfg), "--lmax", "2", "--out", str(out)]) == 0
    assert (out / "hierarchy.csv").exists()


@pytest.mark.parametrize("command", ["simulate", "reconstruct", "hierarchy"])
@pytest.mark.parametrize(
    "raw, key",
    [
        ([], "config"),
        ({"grid": 5}, "grid"),
        ({"algebra": {"n": "two"}}, "algebra.n"),
        ({"algebra": {"n": 0}}, "algebra.n"),
        ({"grid": {"N": "abc"}}, "grid.N"),
        ({"grid": {"N": 4}}, "grid.N"),
        ({"grid": {"L": -1.0}}, "grid.L"),
        ({"flow": {"dt": "x"}}, "flow.dt"),
        ({"flow": {"dt": float("nan")}}, "dt"),
        ({"flow": {"project_fraction": "x"}}, "flow.project_fraction"),
        ({"flow": {"project_fraction": 0.0}}, "project_fraction"),
        ({"output": {"cadence": [1]}}, "output.cadence"),
        ({"output": {"formats": "csv"}}, "output.formats"),
        ({"output": {"directory": 5}}, "output.directory"),
        ({"output": {"reconstruct": "false"}}, "output.reconstruct"),
        ({"flow": {"galilean_removed": "no"}}, "flow.galilean_removed"),
        ({"initial": {"preset": "sg_kink", "a": "q"}}, "initial.a"),
        ({"initial": {"preset": "mkdv_soliton", "x0": "q"}}, "initial.x0"),
        ({"initial": {"preset": "mkdv_soliton", "direction": [0, 1]}}, "initial.direction"),
        ({"initial": {"preset": "mkdv_soliton", "direction": [1, 1, 0, 0]}}, "initial.direction"),
        ({"initial": {"preset": "random_band", "seed": "s"}}, "initial.seed"),
        ({"initial": {"preset": "inline", "u_cos": [[1, 2, 3]]}}, "initial.u_cos"),
        # integer keys: a boolean or a fractional part is refused, not truncated
        ({"algebra": {"n": True}}, "algebra.n"),
        ({"algebra": {"n": 1.5}}, "algebra.n"),
        ({"grid": {"N": 256.7}}, "grid.N"),
        ({"flow": {"l": 0.5}}, "flow.l"),
        ({"flow": {"sg_refine": 2.5}}, "flow.sg_refine"),
        ({"flow": {"sg_refine": True}}, "flow.sg_refine"),
        ({"flow": {"sg_refine": 0}}, "sg_refine"),
        ({"flow": {"sg_refine": -4}}, "sg_refine"),
        ({"output": {"cadence": 4.9}}, "output.cadence"),
        ({"output": {"cadence": False}}, "output.cadence"),
        ({"initial": {"preset": "random_band", "seed": 0.5}}, "initial.seed"),
        ({"initial": {"preset": "random_band", "kmax": True}}, "initial.kmax"),
        # non-finite or degenerate values that would build a grid or a state
        ({"grid": {"L": float("nan")}}, "grid.L"),
        ({"grid": {"L": float("inf")}}, "grid.L"),
        ({"initial": {"preset": "sg_kink", "a": float("nan")}}, "initial.a"),
        ({"initial": {"preset": "sg_kink", "a": 0}}, "initial.a"),
        ({"initial": {"preset": "mkdv_soliton", "a": float("-inf")}}, "initial.a"),
        ({"initial": {"preset": "random_band", "amplitude": float("inf")}}, "initial.amplitude"),
        ({"initial": {"preset": "random_band", "amplitude": float("nan")}}, "initial.amplitude"),
        ({"initial": {"preset": "mkdv_soliton", "x0": float("inf")}}, "initial.x0"),
        ({"initial": {"preset": "sg_kink", "x0": float("nan")}}, "initial.x0"),
        ({"initial": {"preset": "random_band", "kmax": -1}}, "initial.kmax"),
        ({"initial": {"preset": "random_band", "kmax": 0}}, "initial.kmax"),
        ({"initial": {"preset": "random_band", "seed": -5}}, "initial.seed"),
        ({"output": {"formats": ["cvs"]}}, "output.formats"),
        ({"grid": {"mode": "ring"}}, "grid.mode"),
        ({"flow": {"kind": 5}}, "flow.kind"),
        ({"flow": {"sg_branch": ["-"]}}, "flow.sg_branch"),
        ({"initial": {"preset": "nope"}}, "initial.preset"),
        ({"output": {"map_check": 1}}, "output.map_check"),
        # non-finite inline Fourier coefficients
        ({"initial": {"preset": "inline", "u_cos": [[0, float("nan"), 0, 0]]}}, "initial.u_cos"),
        ({"initial": {"preset": "inline", "u_sin": [[0, float("inf"), 0, 0]]}}, "initial.u_sin"),
        ({"algebra": {"n": 2}, "initial": {"preset": "inline", "bu_cos": [[[float("-inf"), 0, 0, 0]]]}},
         "initial.bu_cos"),
        ({"algebra": {"n": 2}, "initial": {"preset": "inline", "bu_sin": [[[0, 0, float("nan"), 0]]]}},
         "initial.bu_sin"),
        # values of the right JSON type that only SimConfig rejects, like the
        # unprefixed dt, project_fraction and sg_refine cases above
        ({"flow": {"dt": 1.0}}, "dt"),
        ({"flow": {"cfl_constant": float("nan")}}, "cfl_constant"),
        ({"flow": {"cfl_constant": float("inf")}}, "cfl_constant"),
        ({"flow": {"cfl_constant": float("-inf")}}, "cfl_constant"),
        ({"flow": {"cfl_constant": 0.0}}, "cfl_constant"),
        ({"flow": {"cfl_constant": -1.0}}, "cfl_constant"),
        # real keys: a boolean or a string is refused, not read as a number
        ({"grid": {"L": True}}, "grid.L"),
        ({"grid": {"L": "0.5"}}, "grid.L"),
        ({"flow": {"dt": True}}, "flow.dt"),
        ({"flow": {"dt": "0.5"}}, "flow.dt"),
        ({"flow": {"t_end": True}}, "flow.t_end"),
        ({"flow": {"t_end": "0.5"}}, "flow.t_end"),
        ({"flow": {"cfl_constant": True}}, "flow.cfl_constant"),
        ({"flow": {"cfl_constant": "0.5"}}, "flow.cfl_constant"),
        ({"flow": {"project_fraction": True}}, "flow.project_fraction"),
        ({"flow": {"project_fraction": "0.5"}}, "flow.project_fraction"),
        ({"initial": {"preset": "random_band", "amplitude": True}}, "initial.amplitude"),
        ({"initial": {"preset": "random_band", "amplitude": "0.5"}}, "initial.amplitude"),
        ({"initial": {"preset": "mkdv_soliton", "x0": True}}, "initial.x0"),
        ({"initial": {"preset": "mkdv_soliton", "x0": "0.5"}}, "initial.x0"),
        ({"initial": {"preset": "sg_kink", "a": True}}, "initial.a"),
        ({"initial": {"preset": "sg_kink", "a": "0.5"}}, "initial.a"),
        # array keys: every entry is read as a number, so a boolean or a
        # string entry is refused
        ({"initial": {"preset": "mkdv_soliton", "direction": ["0", True, "0", 0]}},
         "initial.direction"),
        ({"initial": {"preset": "mkdv_soliton", "direction": [0, True, 0, 0]}}, "initial.direction"),
        ({"initial": {"preset": "sg_kink", "direction": [0, "1", 0, 0]}}, "initial.direction"),
        ({"initial": {"preset": "inline", "u_cos": [["0", "0.5", True, 0]]}}, "initial.u_cos"),
        ({"initial": {"preset": "inline", "u_sin": [[0, True, 0, 0]]}}, "initial.u_sin"),
        ({"algebra": {"n": 2}, "initial": {"preset": "inline", "bu_cos": [[[0, "1", 0, 0]]]}},
         "initial.bu_cos"),
        ({"algebra": {"n": 2}, "initial": {"preset": "inline", "bu_sin": [[[False, 0, 0, 1]]]}},
         "initial.bu_sin"),
    ],
)
def test_malformed_config_values_exit_2_naming_the_key(tmp_path, capsys, command, raw, key):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    rc = cli.main([command, "--config", str(path), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    if command != "simulate" and key in ("dt", "project_fraction", "sg_refine", "cfl_constant"):
        assert rc == 0  # every command reads the key, only simulate builds a SimConfig
        return
    assert rc == 2
    assert err.startswith("configuration error: ") and key in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["verify", "simulate", "hierarchy", "reconstruct"])
def test_negative_seed_exits_2_naming_the_option(tmp_path, capsys, command):
    argv = [command, "--seed", "-1", "--out", str(tmp_path / "out")]
    if command != "verify":
        argv += ["--config", str(write_config(tmp_path))]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and "--seed" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_negative_lmax_exits_2_naming_the_option(tmp_path, capsys):
    out = tmp_path / "h"
    argv = ["hierarchy", "--config", str(write_config(tmp_path)), "--lmax", "-1", "--out", str(out)]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err == "configuration error: --lmax = -1 must be >= 0\n"
    assert not out.exists()


@pytest.mark.parametrize("preset", ["random_band", "mkdv_soliton", "sg_kink"])
def test_unset_keys_take_the_library_defaults(tmp_path, preset):
    # a config that sets no preset or flow parameter builds what the library
    # builds from its own defaults
    path = tmp_path / "bare.json"
    path.write_text(json.dumps({
        "algebra": {"n": 2},
        "grid": {"N": 64, "L": 30.0, "mode": "line"},
        "flow": {"dt": 1e-5, "t_end": 0.0},
        "initial": {"preset": preset},
    }))
    cfg = cli.load_config(path)
    grid = cli.build_grid(cfg)
    expected = getattr(sf, f"preset_{preset}")(grid, 2)
    state = cli.build_state(cfg)
    assert np.array_equal(state.u.values, expected.u.values)
    assert np.array_equal(state.bu.values, expected.bu.values)
    assert cli.build_sim_config(cfg) == sf.SimConfig(n=2, grid=grid, dt=1e-5, t_end=0.0)


def test_unknown_output_format_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, output={"formats": ["csv", "cvs"]})
    for command in ("simulate", "reconstruct"):
        out = tmp_path / command
        assert cli.main([command, "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: output.formats") and "'cvs'" in err
        assert not out.exists()
    for formats in (["csv", "binary"], ["chordal"], []):
        cfg = write_config(tmp_path, output={"formats": formats})
        assert cli.main(["reconstruct", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 0


def test_shipped_configs(tmp_path, capsys):
    assert [p.stem for p in CONFIGS] == ["mkdv_soliton", "random_n2", "sg_kink"]
    for path in CONFIGS:
        rc = cli.main(["simulate", "--config", str(path), "--out", str(tmp_path / path.stem)])
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert rc == 0, err
    # the soliton's map check co-evolves the frame at the simulation dt
    res = json.loads((tmp_path / "mkdv_soliton" / "mkdv_map_residuals.json").read_text())
    assert res["unitarity"] <= 1e-9


def test_simulate_map_check_blowup_exits_1(tmp_path, capsys):
    # dt = 2 dx^3 passes the run's one step, but the map check's ten steps at
    # that dt leave RK4's stability region
    dx = 10.0 / 64
    cfg = write_config(
        tmp_path,
        grid={"N": 64, "L": 10.0, "mode": "periodic"},
        flow={"kind": "mkdv", "dt": 2 * dx**3, "t_end": 2 * dx**3, "cfl_constant": 2.0},
        initial={"preset": "mkdv_soliton", "a": 1.5},
        output={"reconstruct": True},
    )
    rc = cli.main(["simulate", "--config", str(cfg)])
    err = capsys.readouterr().err
    assert rc == 1
    assert "error: map check: solution blew up" in err
    assert "Traceback" not in err
    assert (tmp_path / "out" / "curve_final.csv").exists()


def test_simulate_map_check_blowup_warns_nothing(tmp_path, capsys):
    # the blow-up is reported once, by its typed error, with no numpy warnings
    dx = 10.0 / 64
    cfg = write_config(
        tmp_path,
        grid={"N": 64, "L": 10.0, "mode": "periodic"},
        flow={"kind": "mkdv", "dt": 2 * dx**3, "t_end": 2 * dx**3, "cfl_constant": 2.0},
        initial={"preset": "mkdv_soliton", "a": 1.5},
        output={"reconstruct": True},
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = cli.main(["simulate", "--config", str(cfg)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: map check: solution blew up")
    assert err.count("\n") == 1


def _simulate_quietly(cfg, capsys):
    """Run simulate with warnings as errors; return the exit code and stderr."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = cli.main(["simulate", "--config", str(cfg)])
    return rc, capsys.readouterr().err


def test_simulate_run_blowup_exits_1(tmp_path, capsys):
    # 20 steps at dt = 2 dx^3 leave RK4's stability region in the run itself
    dx = 10.0 / 64
    cfg = write_config(
        tmp_path,
        grid={"N": 64, "L": 10.0, "mode": "periodic"},
        flow={"kind": "mkdv", "dt": 2 * dx**3, "t_end": 40 * dx**3, "cfl_constant": 2.0},
        initial={"preset": "mkdv_soliton", "a": 1.5},
    )
    rc, err = _simulate_quietly(cfg, capsys)
    assert rc == 1
    assert err.startswith("error: solution blew up")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_simulate_without_periodic_flow_exits_1(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        grid={"N": 64, "L": 2 * np.pi, "mode": "periodic"},
        flow={"kind": "sg", "dt": 1e-3, "t_end": 2e-3},
        initial={"preset": "random_band", "seed": 3},
    )
    rc, err = _simulate_quietly(cfg, capsys)
    assert rc == 1
    assert err.startswith("error: no periodic -1 flow")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_verify_negative_control_fails_without_vector_coupling(monkeypatch, capsys):
    # a right side whose u-row vanishes at u = 0 must fail the negative control
    rhs = sf.mkdv_rhs

    def uncoupled(state, *args, **kw):
        out = rhs(state, *args, **kw)
        return bo.make_flow(state.grid, np.zeros_like(out.hs.values), out.hv.values)

    monkeypatch.setattr(sf, "mkdv_rhs", uncoupled)
    name = "no consistent non-commutative vector reduction (negative control)"
    control, = (c for c in vs.flow_suite(3) if c.name == name)
    assert not control.passed
    assert cli.main(["verify", "--scope", "flows"]) == 1
    assert f"[FAIL] {name}" in capsys.readouterr().out
