"""The layer table: which hpflow functions the traced run reports, and what
each is expected to move.

Every function below gets `<module>.<function>.calls` (exact count per unit
of fixed work) and `<module>.<function>.self_s` (self time per unit); every
module gets `<module>.self_s`, the self time of all its public functions.
`moves` names the end-to-end metric and workload a speed-up of the row
should move; `steady_on` names workloads where it should not (the layer is
bypassed or negligible there).  BENCHMARK.json's `per_layer` list holds the
same names; bench/trace_checks.py keeps the two in step.
"""

FFT_PAIRS = [
    "grid_calculus.spectral_deriv",
    "grid_calculus.dealias_values",
    "grid_calculus.spectral_refine",
    "grid_calculus.spectral_antideriv",
]

LAYERS = [
    {"module": "grid_calculus",
     "functions": ["spectral_deriv", "dealias_values", "spectral_refine", "spectral_antideriv"],
     "moves": [("step_ms_p90", "mkdv_soliton"), ("run_s", "mkdv_soliton")],
     "steady_on": ["sg_kink"]},
    {"module": "biham_ops",
     "functions": ["make_state", "make_flow"],
     "moves": [("step_ms_p90", "mkdv_soliton")],
     "steady_on": []},
    {"module": "biham_ops",
     "functions": ["hamiltonian_value"],
     "moves": [("run_s", "mkdv_soliton")],
     "steady_on": []},
    {"module": "biham_ops",
     "functions": ["apply_J", "apply_H", "hierarchy_flows", "variational_derivative_fd"],
     "moves": [("run_s", "verify_all")],
     "steady_on": ["mkdv_soliton", "sg_kink"]},
    {"module": "soliton_flows",
     "functions": ["mkdv_rhs", "step_rk4"],
     "moves": [("step_ms_p90", "mkdv_soliton")],
     "steady_on": ["sg_kink"]},
    {"module": "soliton_flows",
     "functions": ["sg_step", "sg_solve_h", "sg_system_matrix", "prefix_products", "run_flow"],
     "moves": [("run_s", "sg_kink"), ("run_s", "verify_all")],
     "steady_on": ["mkdv_soliton"]},
    {"module": "curve_geometry",
     "functions": ["transport_frame", "expm_antihermitian", "evolve_with_frame",
                   "geometric_invariants_from_curve", "reconstruct_curve", "curve_to_csv",
                   "verify_wave_map", "verify_mkdv_map"],
     "moves": [("run_s", "sg_kink"), ("run_s", "verify_all")],
     "steady_on": ["mkdv_soliton"]},
    {"module": "quat_core",
     "functions": ["qmul", "qmatmul", "qmat_to_complex"],
     "moves": [("run_s", "verify_all"), ("step_ms_p90", "mkdv_soliton")],
     "steady_on": ["sg_kink"]},
    {"module": "symm_lie",
     "functions": ["bracket", "bracket_projected", "killing"],
     "moves": [("run_s", "verify_all")],
     "steady_on": ["mkdv_soliton", "sg_kink"]},
    {"module": "verify_suites",
     "functions": ["algebra_suite", "bracket_table_suite", "operator_suite", "flow_suite",
                   "geometry_suite"],
     "moves": [("run_s", "verify_all")],
     "steady_on": []},
    {"module": "cli",
     "functions": ["cmd_simulate", "cmd_verify"],
     "moves": [("run_s", "sg_kink")],
     "steady_on": []},
]

# count / per: calls of `count` made inside a call of `within` (when given),
# divided by the calls of `per`, or by the ops of the unit when per is "op".
DERIVED = [
    {"name": "grid_calculus.fft_pairs_per_step", "count": FFT_PAIRS,
     "within": "soliton_flows.step_rk4", "per": "soliton_flows.step_rk4"},
    {"name": "biham_ops.make_state_per_step", "count": ["biham_ops.make_state"],
     "within": "soliton_flows.step_rk4", "per": "soliton_flows.step_rk4"},
    {"name": "soliton_flows.x_solves_per_op", "count": ["soliton_flows.sg_solve_h"],
     "within": None, "per": "op"},
]

OVERHEAD = "trace.overhead_frac"

END_TO_END = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("step_ms_p90", "ms"),
    ("peak_rss_mb", "MB"),
]


def function_names() -> list[str]:
    return [f"{row['module']}.{fn}" for row in LAYERS for fn in row["functions"]]


def modules() -> list[str]:
    return list(dict.fromkeys(row["module"] for row in LAYERS))


def per_layer_metrics() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    out = []
    for name in function_names():
        out += [(f"{name}.calls", "count"), (f"{name}.self_s", "s")]
    out += [(f"{module}.self_s", "s") for module in modules()]
    out += [(d["name"], "count") for d in DERIVED]
    out.append((OVERHEAD, "ratio"))
    return out
