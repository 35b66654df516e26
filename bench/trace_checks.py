"""Checks on the benchmark itself: tracing must not change the program, the
seeded inputs must respect the solvers' preconditions, and the metric names
must agree with BENCHMARK.json.  Kept out of the tier-1 collection path by
its file name; run from the repository root with

    python3 -m pytest -q bench/trace_checks.py
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import layers  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SEED = 7


def make(name, workdir):
    wl = workloads.WORKLOADS[name](SEED, workdir)
    if name == "mkdv_soliton":
        wl.STEPS, wl.CADENCE = 8, 4
    return wl


def run_unit(wl, trace=None) -> str:
    if trace is None:
        result = wl.unit()
    else:
        with trace.op():
            result = wl.unit()
    try:
        return wl.digest(result)
    finally:
        wl.cleanup(result)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_trace_leaves_program_unchanged(name, tmp_path):
    wl = make(name, tmp_path)
    plain = run_unit(wl)
    trace = tracer.Tracer()
    before = trace.bound_functions()
    counts, digests = [], []
    with trace.installed():
        assert trace.bound_functions() != before
        for _ in range(2):
            digests.append(run_unit(wl, trace))
            counts.append({n: e["calls"] for n, e in trace.summary().items()})
            trace.reset()
    after = trace.bound_functions()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before), "wrappers left installed"
    assert digests == [plain, plain], "traced outputs differ from untraced ones"
    assert counts[0] == counts[1], "call counts differ between two traced runs"
    assert counts[0]["soliton_flows.step_rk4"] > 0


def test_one_wrapper_per_function_in_every_namespace():
    from hpflow import biham_ops, curve_geometry, soliton_flows

    trace = tracer.Tracer()
    original = biham_ops.make_state
    with trace.installed():
        assert biham_ops.make_state is not original
        assert soliton_flows.make_state is biham_ops.make_state
        assert curve_geometry.make_state is biham_ops.make_state
        assert biham_ops.make_state.__wrapped__ is original
    assert soliton_flows.make_state is original


def test_self_times_nonnegative_and_within_root(tmp_path):
    wl = make("sg_kink", tmp_path)
    trace = tracer.Tracer()
    with trace.installed():
        run_unit(wl, trace)
    table = trace.table()
    root = table["key"] == 0
    assert root.sum() == 1
    assert (table["self"] >= 0).all()
    root_s = float((table["end"] - table["start"])[root][0])
    assert float(table["self"][~root].sum()) <= root_s
    summary = trace.summary()
    # the scan recurses through its module global, so every level is a span
    assert summary["soliton_flows.prefix_products"]["calls"] > summary[
        "soliton_flows.sg_solve_h"]["calls"]
    assert trace.calls_within(["soliton_flows.sg_solve_h"], "soliton_flows.step_rk4") == 80


def test_seeded_inputs_respect_preconditions(tmp_path):
    for seed in range(200):
        kink = workloads.SgKink(seed, tmp_path)  # raises if the seam tail is too large
        assert kink.a >= 1.0 and kink.x0 >= kink.grid.length / 2
        soliton = workloads.MkdvSoliton(seed, tmp_path)
        assert abs(soliton.x0 - soliton.grid.length / 2) <= 2.0


def test_benchmark_json_matches_layer_table():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == layers.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == layers.per_layer_metrics()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS) == list(run.WORKLOADS)


def test_refuses_to_run_without_the_program(tmp_path):
    (tmp_path / "bench").mkdir()
    for path in (ROOT / "bench").glob("*.py"):
        (tmp_path / "bench" / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "mkdv_soliton", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
