import json
from pathlib import Path

import numpy as np
import pytest

from hpflow import cli
from hpflow.errors import ConfigError


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


def test_verify_invalid_scope():
    assert cli.main(["verify", "--scope", "bogus"]) == 2


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


def test_config_rejects_bad_flow_kind(tmp_path):
    cfg = write_config(tmp_path, flow={"kind": "nope", "dt": 1e-3, "t_end": 0.1})
    assert cli.main(["simulate", "--config", str(cfg)]) == 2


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
    assert cli.main(["simulate", "--config", str(tmp_path / "nope.json")]) == 2


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


def test_shipped_configs(tmp_path, capsys):
    # mkdv_soliton's map check steps its frame co-evolution at the simulation
    # dt, beyond RK4's stability limit there; it must fail as a typed blow-up
    assert [p.stem for p in CONFIGS] == ["mkdv_soliton", "random_n2", "sg_kink"]
    for path in CONFIGS:
        rc = cli.main(["simulate", "--config", str(path), "--out", str(tmp_path / path.stem)])
        err = capsys.readouterr().err
        assert "Traceback" not in err
        if path.stem == "mkdv_soliton":
            assert rc == 1
            assert "error: map check: solution blew up (non-finite values)" in err
        else:
            assert rc == 0, err
