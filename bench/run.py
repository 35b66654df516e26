"""hpflow benchmark: times the pipeline end to end and, traced, per layer.

Run from the root of a checkout (the directory holding `src/hpflow`):

    python3 bench/run.py --workload sg_kink --seed 0 --seconds 20 --trace 0
    python3 bench/run.py                  # all three workloads, one after another

Each workload runs in fresh worker processes (bench/worker.py) whose BLAS
thread count is pinned to 1 through their environment.  With --trace 0 the
last stdout line is a JSON object with every end-to-end metric; with
--trace 1 it holds every per-layer metric instead.  Every run also writes a
run record (machine, versions, gates, metrics) under .bench_build/records/.
The exit code is 0 only when every gate passed; without `src/hpflow` the
benchmark exits 2 and prints no result.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import layers  # noqa: E402

WORKLOADS = ("mkdv_soliton", "sg_kink", "verify_all")
SETUP_SAMPLES = 3  # setup_s is the median of at least this many fresh processes,
SETUP_SECONDS = 3.0  # and of more while their total stays under this many seconds
SETUP_MAX_SAMPLES = 15
BLAS_THREADS = 1
WORKER_TIMEOUT_S = 170


def child_env() -> dict:
    env = dict(os.environ)
    threads = str(min(BLAS_THREADS, os.cpu_count() or 1))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def run_worker(root: Path, args, *extra) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           *extra]
    proc = subprocess.run(cmd, cwd=root, env=child_env(), capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError(f"worker failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_state(root: Path) -> dict:
    """SHA and dirty flag of the checkout; unknown when it is not a git work tree."""
    if not (root / ".git").exists():
        return {"sha": None, "dirty": None}
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                             capture_output=True, text=True, timeout=30).stdout.strip()
        status = subprocess.run(["git", "status", "--porcelain"], cwd=root, env=env,
                                capture_output=True, text=True, timeout=30).stdout
    except (OSError, subprocess.TimeoutExpired):
        return {"sha": None, "dirty": None}
    return {"sha": sha or None, "dirty": bool(status.strip()) if sha else None}


def machine(root: Path, worker: dict) -> dict:
    return {
        **git_state(root),
        "python": platform.python_version(),
        **worker["versions"],
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": int(child_env()["OPENBLAS_NUM_THREADS"]),
        "platform": platform.platform(),
    }


def run_one(root: Path, args) -> dict:
    res = run_worker(root, args)
    setups = [res["setup_s"]]
    started = time.perf_counter()
    while args.trace == 0 and len(setups) < SETUP_MAX_SAMPLES and (
            len(setups) < SETUP_SAMPLES or time.perf_counter() - started < SETUP_SECONDS):
        setups.append(run_worker(root, args, "--setup-only")["setup_s"])
    gates_ok = all(g["passed"] for g in res["gates"].values())
    correct = (gates_ok and not res["errors"] and res["failed"] == 0 and res["repeatable"]
               and res["trace_counts_repeat"])
    if args.trace == 0:
        values = {
            "setup_s": statistics.median(setups),
            "run_s": res["run_s"],
            "step_ms_p90": res["step_ms_p90"],
            "peak_rss_mb": res["peak_rss_mb"],
        }
        units = dict(layers.END_TO_END)
    else:
        values = res["per_layer"]
        units = dict(layers.per_layer_metrics())
    if set(values) != set(units):
        raise RuntimeError(f"metric set mismatch: {sorted(set(values) ^ set(units))}")
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "correct": correct,
        "attempted": res["attempted"], "failed": res["failed"],
        "fail_frac": res["failed"] / res["attempted"],
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
        "setup_samples_s": setups, "worker": res,
    }


def report(record: dict):
    res = record["worker"]
    print(f"== {record['workload']} seed={record['seed']} trace={record['trace']} "
          f"inputs={json.dumps(res['inputs'])}")
    for name, g in res["gates"].items():
        print(f"gate {name}: worst {g['worst']:.3e} <= {g['tolerance']:.1e} "
              f"{'PASS' if g['passed'] else 'FAIL'}")
    print(f"repeatable outputs: {res['repeatable']}; trace counts repeat: "
          f"{res['trace_counts_repeat']}; errors: {res['errors'] or 'none'}")
    seams = [d["final_seam_magnitude"] for d in res["diagnostics"] if "final_seam_magnitude" in d]
    if seams:
        print(f"final seam magnitude: {max(seams):.3e}")
    print(f"fail_frac {record['fail_frac']:.6g} ({record['failed']}/{record['attempted']} ops); "
          f"units timed {res['units']} (+{res['traced_units']} traced); medians: "
          f"run_s {res['run_s_p50']:.6g} s, step_ms {res['step_ms_p50']:.6g} ms")
    for name, m in record["metrics"].items():
        print(f"metric {name} = {m['value']!r} {m['unit']}")


def write_record(root: Path, record: dict) -> Path:
    folder = root / ".bench_build" / "records"
    folder.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%SZ", time.gmtime())
    path = folder / f"{record['workload']}_seed{record['seed']}_trace{record['trace']}_{stamp}.json"
    path.write_text(json.dumps({**record, "machine": machine(root, record["worker"])}, indent=1)
                    + "\n")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, default=None,
                        help="one workload (default: all three in turn)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "hpflow" / "__init__.py").is_file():
        print("error: run from a checkout root holding src/hpflow", file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else list(WORKLOADS)
    all_correct = True
    for name in names:
        one = argparse.Namespace(**{**vars(args), "workload": name})
        record = run_one(root, one)
        path = write_record(root, record)
        report(record)
        print(f"run record: {path.relative_to(root)}")
        print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))
        all_correct &= record["correct"]
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
