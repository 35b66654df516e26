"""One benchmark run of one workload in a fresh process; prints one JSON line.

Started by run.py from the root of a checkout, with the BLAS thread count
pinned in its environment.  hpflow is imported from `src/` of that checkout.

    --setup-only   import, build inputs, one untimed warm-up op; report setup_s
    --trace 0      time units of fixed work with tracing off for --seconds
    --trace 1      untraced units for half of --seconds, then traced units
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import numpy as np  # noqa: E402

import hpflow  # noqa: E402
import layers  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values), q))


def run_unit(wl, trace=None) -> dict:
    """One unit of fixed work; an exception or a failed gate fails its ops."""
    t0 = time.perf_counter()
    try:
        if trace is None:
            result = wl.unit()
        else:
            with trace.op():
                result = wl.unit()
    except (Exception, SystemExit) as exc:  # a failed op is counted, not fatal
        return {"wall_s": time.perf_counter() - t0, "error": repr(exc), "gates": [],
                "op_s": [], "digest": None, "diagnostics": {}}
    wall = time.perf_counter() - t0
    try:
        return {
            "wall_s": wall,
            "error": None,
            "gates": wl.gates(result),
            "op_s": result.get("op_s", [wall]),
            "digest": wl.digest(result),
            "diagnostics": wl.diagnostics(result),
        }
    finally:
        wl.cleanup(result)


def measure(wl, seconds: float, trace=None, on_unit=None) -> list[dict]:
    """Run units until the next one would end past `seconds`; at least one."""
    units = []
    deadline = time.perf_counter() + seconds
    while not units or time.perf_counter() + units[-1]["wall_s"] <= deadline:
        units.append(run_unit(wl, trace))
        if on_unit is not None:
            on_unit(units[-1])
    return units


def unit_failed(unit) -> bool:
    """An exception or a gate value that is not <= its tolerance (NaN included)."""
    return unit["error"] is not None or any(not v <= tol for _, v, tol in unit["gates"])


def gate_summary(units) -> dict:
    worst = {}
    for unit in units:
        for name, value, tol in unit["gates"]:
            value = float(value)
            prev = worst.get(name, (value, tol))[0]
            worst[name] = (value if np.isnan(value) or value > prev else prev, tol)
    return {name: {"worst": v, "tolerance": tol, "passed": bool(v <= tol)}
            for name, (v, tol) in worst.items()}


def layer_values(trace, ops: int) -> dict:
    """Per-layer values from the spans of one traced unit."""
    summary = trace.summary()
    values = {}
    for name in layers.function_names():
        entry = summary.get(name, {"calls": 0, "self_s": 0.0})
        values[f"{name}.calls"] = entry["calls"]
        values[f"{name}.self_s"] = entry["self_s"]
    for module in layers.modules():
        values[f"{module}.self_s"] = sum(
            e["self_s"] for n, e in summary.items() if n.startswith(module + ".")
        )
    for d in layers.DERIVED:
        if d["within"]:
            count = trace.calls_within(d["count"], d["within"])
        else:
            count = sum(summary.get(n, {"calls": 0})["calls"] for n in d["count"])
        per = ops if d["per"] == "op" else summary.get(d["per"], {"calls": 0})["calls"]
        values[d["name"]] = count / per if per else 0.0
    return values


def traced_run(wl, seconds: float):
    """Traced units; per-layer values are medians of self time, counts of unit 0."""
    trace = tracer.Tracer()
    per_unit = []

    def collect(unit):
        per_unit.append(layer_values(trace, wl.ops_per_unit))
        trace.reset()

    with trace.installed():
        units = measure(wl, seconds, trace, on_unit=collect)
    first = per_unit[0]
    counts = [k for k in first if not k.endswith("self_s")]
    repeat = all(p[k] == first[k] for p in per_unit for k in counts)
    values = {
        k: statistics.median(p[k] for p in per_unit) if k.endswith("self_s") else first[k]
        for k in first
    }
    return units, values, repeat


def versions() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    src = (ROOT / "src").resolve()
    if src not in Path(hpflow.__file__).resolve().parents:
        print(f"error: imported hpflow from {hpflow.__file__}, not {src}", file=sys.stderr)
        return 2

    scratch = ROOT / ".bench_build"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        wl = workloads.WORKLOADS[args.workload](args.seed, Path(tmp))
        wl.warm_up()
        setup_s = time.perf_counter() - T_START
        out = {"setup_s": setup_s, "inputs": wl.describe, "versions": versions()}
        if not args.setup_only:
            out.update(measure_run(wl, args))
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    print(json.dumps(out))
    return 0


def unit_time(units) -> float:
    """run_s: the 90th percentile of the units' wall times.

    On a shared host the speed alternates between a steady loaded level and
    bursts of extra speed whose share of a run varies from run to run.  The
    90th percentile tracks the steady level; the median tracks the share of
    bursts, and spreads two to three times wider across runs.
    """
    return percentile([u["wall_s"] for u in units], 90)


def measure_run(wl, args) -> dict:
    seconds = args.seconds if args.trace == 0 else args.seconds / 2
    units = measure(wl, seconds)
    run_s = unit_time(units)
    traced, per_layer, counts_repeat = [], {}, True
    if args.trace:
        traced, per_layer, counts_repeat = traced_run(wl, seconds)
        per_layer[layers.OVERHEAD] = unit_time(traced) / run_s - 1.0
    everything = units + traced
    digests = {u["digest"] for u in everything if u["digest"] is not None}
    op_s = [t for u in units for t in u["op_s"]] or [u["wall_s"] for u in units]
    return {
        "units": len(units),
        "traced_units": len(traced),
        "attempted": wl.ops_per_unit * len(everything),
        "failed": sum(wl.ops_per_unit for u in everything if unit_failed(u)),
        "errors": sorted({u["error"] for u in everything if u["error"]}),
        "repeatable": len(digests) <= 1,
        "trace_counts_repeat": counts_repeat,
        "gates": gate_summary(everything),
        "diagnostics": [u["diagnostics"] for u in everything],
        "run_s": run_s,
        "run_s_p50": percentile([u["wall_s"] for u in units], 50),
        "unit_s": [u["wall_s"] for u in units],
        "ops_timed": len(op_s),
        "step_ms_p50": 1e3 * percentile(op_s, 50),
        "step_ms_p90": 1e3 * percentile(op_s, 90),
        "per_layer": per_layer,
    }


if __name__ == "__main__":
    sys.exit(main())
