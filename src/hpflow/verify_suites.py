"""Seeded property suites behind the `verify` command.

Each suite runs a list of named checks at fixed tolerances and returns
CheckResult records; the CLI renders them as JSON and an exit status.  The
suites reuse the same kernels the library exposes, with matrix-commutator
and finite-difference oracles on the other side of every comparison.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from . import biham_ops as bo
from . import curve_geometry as cg
from . import grid_calculus as gcalc
from . import quat_core as qc
from . import soliton_flows as sf
from . import symm_lie as sl
from .symm_lie import chi

@dataclass
class CheckResult:
    name: str
    tolerance: float
    residual: float

    @property
    def passed(self) -> bool:
        return bool(self.residual <= self.tolerance)

    def as_dict(self):
        out = asdict(self)
        out["passed"] = self.passed
        return out


_PART_KINDS = ("m_par", "m_perp", "h_par", "h_perp")


def _part_size(n, kind):
    """Number of normal draws behind one random part."""
    return {"m_par": 1, "m_perp": 4 * n, "h_par": 4 * (n - 1) ** 2 + 4, "h_perp": 4 * n}[kind]


def _part_from_draws(x, n, kind):
    """Batched random part from draws x shaped (reps, _part_size(n, kind))."""
    reps = x.shape[0]
    if kind == "m_par":
        return sl.MPar(x[:, 0])
    if kind == "h_par":
        k = 4 * (n - 1) ** 2
        A = x[:, :k].reshape(reps, n - 1, n - 1, 4)
        return sl.HPar(qc.qim(x[:, k:]), 0.5 * (A - qc.qmat_conj_t(A)))
    cls = sl.MPerp if kind == "m_perp" else sl.HPerp
    return cls(qc.qim(x[:, :4]), x[:, 4:].reshape(reps, n - 1, 4))


def _rand_parts(rng, n, kinds, reps):
    """reps random instances of each part in kinds, batched, from one draw.

    Row r of the draw holds instance r's parts in the order of kinds, so the
    stream is the one a loop drawing each instance's parts in turn consumes.
    """
    sizes = [_part_size(n, kind) for kind in kinds]
    x = rng.standard_normal((reps, sum(sizes)))
    edges = np.cumsum([0] + sizes)
    return [
        _part_from_draws(x[:, lo:hi], n, kind)
        for kind, lo, hi in zip(kinds, edges[:-1], edges[1:])
    ]


def _rand_elements(rng, n, count, reps):
    """count batched random elements of reps instances each, from one draw."""
    parts = _rand_parts(rng, n, _PART_KINDS * count, reps)
    return [sl.element_from_parts(n, *parts[4 * i : 4 * i + 4]) for i in range(count)]


def _max_abs(x):
    return float(np.max(np.abs(x), initial=0.0))


def _part_deviation(a, b):
    def arrs(x):
        if isinstance(x, sl.MPar):
            return [np.atleast_1d(x.coeff)]
        if isinstance(x, sl.HPar):
            return [x.p, x.mat]
        return [x.s, x.v]

    worst = 0.0
    for u, v in zip(arrs(a), arrs(b)):
        if u.shape != v.shape:
            worst = max(worst, _max_abs(u), _max_abs(v))
        else:
            worst = max(worst, _max_abs(u - v))
    return worst


_TABLE_CASES = [
    ("m_par", "m_par", "h_par"),
    ("m_par", "h_par", "m_par"),
    ("h_par", "h_par", "h_par"),
    ("m_par", "m_perp", "h_perp"),
    ("m_par", "h_perp", "m_perp"),
    ("h_par", "m_perp", "m_perp"),
    ("h_par", "h_perp", "h_perp"),
    ("m_perp", "m_perp", "h_par"),
    ("m_perp", "m_perp", "h_perp"),
    ("h_perp", "h_perp", "h_par"),
    ("h_perp", "h_perp", "h_perp"),
    ("m_perp", "h_perp", "m_par"),
    ("m_perp", "h_perp", "m_perp"),
]


def _project(g, target):
    return {
        "m_par": sl.MPar(g.m_par),
        "m_perp": g.m_perp,
        "h_par": g.h_par,
        "h_perp": g.h_perp,
    }[target]


def algebra_suite(seed: int = 0, instances: int = 1000) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    results = []

    worst = 0.0
    for q1, q2, expect in ((qc.I, qc.J, qc.K), (qc.J, qc.K, qc.I), (qc.K, qc.I, qc.J)):
        worst = max(worst, float(np.max(np.abs(qc.qmul(q1, q2) - expect))))
        worst = max(worst, float(np.max(np.abs(qc.qmul(q2, q1) + expect))))
        worst = max(worst, float(np.max(np.abs(qc.qmul(q1, q1) + qc.ONE))))
    results.append(CheckResult("quaternion generator relations", 1e-15, worst))

    q = qc.qim(rng.standard_normal((instances, 3, 4)))
    a, b, c = q[:, 0], q[:, 1], q[:, 2]
    abc = qc.qre(qc.qmul(qc.qmul(a, b), c))
    bca = qc.qre(qc.qmul(qc.qmul(b, c), a))
    bac = qc.qre(qc.qmul(qc.qmul(b, a), c))
    worst = max(_max_abs(abc - bca), _max_abs(abc + bac))
    results.append(CheckResult("cyclic trace identities", 1e-12, worst))

    for n in (1, 2, 3):
        reps = max(instances // 10, 10)
        a, b, c = _rand_elements(rng, n, 3, reps)
        j = sl.bracket(a, sl.bracket(b, c)).add(
            sl.bracket(b, sl.bracket(c, a))
        ).add(sl.bracket(c, sl.bracket(a, b)))
        scale = np.max([qc.qmat_frobenius(g.to_matrix()) for g in (a, b, c)], axis=0) ** 3
        worst = _max_abs(qc.qmat_frobenius(j.to_matrix()) / np.maximum(scale, 1e-30))
        results.append(CheckResult(f"Jacobi identity (n={n})", 1e-12, worst))

        mpar1, mperp1, mpar2, mperp2, hpar1, hperp1, hperp2 = _rand_parts(
            rng, n, ("m_par", "m_perp", "m_par", "m_perp", "h_par", "h_perp", "h_perp"), reps
        )
        m1 = sl.element_from_parts(n, mpar1, mperp1)
        m2 = sl.element_from_parts(n, mpar2, mperp2)
        h1 = sl.element_from_parts(n, hpar1, hperp1)
        mm = sl.bracket(m1, m2)
        hm = sl.bracket(h1, m1)
        hh = sl.bracket(h1, sl.element_from_parts(n, hperp2))
        worst = max(
            _max_abs(mm.m_par),
            _max_abs(mm.m_perp.s),
            _max_abs(hm.h_par.p),
            _max_abs(hm.h_perp.s),
            _max_abs(hh.m_par),
        )
        results.append(CheckResult(f"symmetric-space inclusions (n={n})", 1e-12, worst))

        (hp,) = _rand_parts(rng, n, ("h_perp",), reps)
        twice = sl.ad_e(sl.ad_e(hp))
        worst = max(_max_abs(twice.s + 4.0 * hp.s), _max_abs(twice.v + hp.v))
        results.append(CheckResult(f"ad(e)^2 eigenvalues (n={n})", 1e-12, worst))

        g1, g2 = _rand_elements(rng, n, 2, reps)
        k = sl.killing(g1, g2)
        worst = _max_abs((k - sl.killing_components(g1, g2)) / (1 + np.abs(k)))
        e = sl.cartan_element(n)
        worst = max(worst, abs(sl.killing(e, e) + chi(n)) / chi(n))
        results.append(CheckResult(f"Killing form formulas agree (n={n})", 1e-12, worst))

    return results


def bracket_table_suite(seed: int = 1, instances: int = 500) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    results = []
    for ka, kb, target in _TABLE_CASES:
        worst = 0.0
        for n in (1, 2, 3):
            pa, pb = _rand_parts(rng, n, (ka, kb), instances // 3 + 1)
            closed = sl.bracket_projected(pa, pb, target)
            oracle = _project(
                sl.bracket(sl.element_from_parts(n, pa), sl.element_from_parts(n, pb)),
                target,
            )
            worst = max(worst, _part_deviation(closed, oracle))
        results.append(
            CheckResult(f"bracket table [{ka}, {kb}] -> {target}", 1e-12, worst)
        )
    return results


def _pair_dev(p, q):
    v = float(np.max(np.abs(p.v.values - q.v.values))) if p.v.values.size else 0.0
    return max(float(np.max(np.abs(p.s.values - q.s.values))), v)


def _pair_scale(p):
    v = float(np.max(np.abs(p.v.values))) if p.v.values.size else 0.0
    return max(float(np.max(np.abs(p.s.values))), v, 1.0)


def operator_suite(seed: int = 2, num_points: int = 256, n: int = 2) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    grid = gcalc.PeriodicGrid(num_points, 16.0)

    def band():
        return sf.preset_random_band(grid, n, seed=rng, amplitude=0.4, kmax=5)

    state = band()
    results = []

    w_state = bo.make_covector(grid, state.u.values, state.bu.values)
    out = bo.apply_H(state, w_state)
    target = bo.state_deriv(state)
    results.append(
        CheckResult(
            "H applied to the state covector gives the derivative flow",
            1e-10,
            _pair_dev(out, target) / _pair_scale(target),
        )
    )

    w = bo.make_covector(grid, *band().arrays())
    h = bo.make_flow(grid, *band().arrays())
    hk = bo.apply_H_via_K(state, w, mean_tolerance=np.inf)
    hd = bo.apply_H(state, w, mean_tolerance=np.inf)
    results.append(
        CheckResult("H equals its ad-form composition", 1e-10, _pair_dev(hk, hd) / _pair_scale(hd))
    )
    jk = bo.apply_J_via_K(state, h, mean_tolerance=np.inf)
    jd = bo.apply_J(state, h, mean_tolerance=np.inf)
    results.append(
        CheckResult("J equals its ad-form composition", 1e-10, _pair_dev(jk, jd) / _pair_scale(jd))
    )

    comp = bo.apply_R(state, h, mean_tolerance=np.inf)
    blocks = bo.apply_R_blocks(state, h, mean_tolerance=np.inf)
    results.append(
        CheckResult(
            "explicit recursion blocks equal the composition",
            1e-9,
            _pair_dev(comp, blocks) / _pair_scale(comp),
        )
    )

    a = bo.make_covector(grid, *band().arrays())
    b = bo.make_covector(grid, *band().arrays())
    lhs = bo.pairing(a, bo.apply_H(state, b, mean_tolerance=np.inf))
    rhs = bo.pairing(b, bo.apply_H(state, a, mean_tolerance=np.inf))
    results.append(CheckResult("skew-adjointness of H", 1e-9, abs(lhs + rhs) / (1 + abs(lhs))))
    fa = bo.make_flow(grid, *band().arrays())
    fb = bo.make_flow(grid, *band().arrays())
    lhs = bo.pairing(fa, bo.apply_J(state, fb, mean_tolerance=np.inf))
    rhs = bo.pairing(fb, bo.apply_J(state, fa, mean_tolerance=np.inf))
    results.append(CheckResult("skew-adjointness of J", 1e-9, abs(lhs + rhs) / (1 + abs(lhs))))

    aq = rng.standard_normal(4)
    aq /= qc.qnorm(aq)
    S = rng.standard_normal((n - 1, n - 1, 4))
    S = 0.5 * (S - qc.qmat_conj_t(S))
    lam, V = np.linalg.eigh(1j * qc.qmat_to_complex(S)) if n > 1 else (None, None)
    A = (
        qc.qmat_from_complex(V @ np.diag(np.exp(-1j * lam)) @ V.conj().T)
        if n > 1
        else np.zeros((0, 0, 4))
    )
    worst = 0.0
    for op, arg in (
        (bo.apply_H, w),
        (bo.apply_J, h),
        (bo.apply_R, h),
    ):
        lhs_p = bo.equivalence_action_pair(aq, A, op(state, arg, mean_tolerance=np.inf))
        rhs_p = op(
            bo.equivalence_action_pair(aq, A, state),
            bo.equivalence_action_pair(aq, A, arg),
            mean_tolerance=np.inf,
        )
        worst = max(worst, _pair_dev(lhs_p, rhs_p) / _pair_scale(lhs_p))
    results.append(CheckResult("equivariance of H, J, R", 1e-10, worst))

    h1 = bo.hierarchy_flow(state, 1)
    local = sf.mkdv_rhs(state)
    results.append(
        CheckResult(
            "recursion flow at level 1 equals the local mKdV right side",
            1e-8,
            _pair_dev(h1, local) / _pair_scale(local),
        )
    )

    worst = 0.0
    for l in (0, 1):
        dens = bo.hamiltonian_density(state, l)
        hpar = bo.h_parallel(state, bo.hierarchy_flow(state, l))
        worst = max(worst, float(np.max(np.abs(dens.values - hpar.values / (1 + 2 * l)))))
    results.append(CheckResult("density equals tangential part / (1+2l)", 1e-9, worst))

    br = bo.poisson_bracket(state, bo.HierarchyFunctional(0), bo.HierarchyFunctional(1))
    results.append(
        CheckResult(
            "first two Hamiltonians Poisson-commute",
            1e-8,
            abs(br) / (1 + abs(bo.hamiltonian_value(state, 1))),
        )
    )

    small_grid = gcalc.PeriodicGrid(32, 7.0)
    small = sf.preset_random_band(small_grid, n, seed=rng, amplitude=0.4, kmax=3)
    grad0 = bo.variational_derivative_fd(bo.HierarchyFunctional(0), small)
    dev0 = max(
        float(np.max(np.abs(grad0.ws.values - small.u.values))),
        float(np.max(np.abs(grad0.wv.values - small.bu.values))),
    )
    grad1 = bo.variational_derivative_fd(bo.HierarchyFunctional(1), small)
    w1 = bo.hierarchy_covector(small, 1)
    dev1 = max(
        float(np.max(np.abs(grad1.ws.values - w1.ws.values))),
        float(np.max(np.abs(grad1.wv.values - w1.wv.values))),
    )
    results.append(
        CheckResult("variational derivatives reproduce the covector hierarchy", 1e-6, max(dev0, dev1))
    )
    return results


def flow_suite(seed: int = 3) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    results = []

    grid = gcalc.PeriodicGrid(96, 12.0)
    state = sf.preset_random_band(grid, 1, seed=rng, amplitude=0.5, kmax=5)
    out = sf.mkdv_rhs(state)
    u = state.u.values
    expected = 0.25 * gcalc.spectral_deriv(u, grid, 3) + 1.5 * qc.qnormsq(u)[
        :, None
    ] * gcalc.spectral_deriv(u, grid)
    results.append(
        CheckResult(
            "scalar reduction of the mKdV right side",
            1e-9,
            float(np.max(np.abs(out.hs.values - expected))) / max(1.0, np.max(np.abs(expected))),
        )
    )

    grid2 = gcalc.PeriodicGrid(64, 10.0)
    vec_state = sf.preset_random_band(grid2, 2, seed=rng, amplitude=0.4, kmax=5)
    zero_u = bo.make_state(grid2, np.zeros((64, 4)), vec_state.bu.values)
    results.append(
        CheckResult(
            "no consistent non-commutative vector reduction (negative control)",
            np.inf,
            0.0 if float(np.max(np.abs(sf.mkdv_rhs(zero_u).hs.values))) >= 1e-3 else 1.0,
        )
    )

    kink_grid = gcalc.PeriodicGrid(256, 40.0)
    kink = sf.preset_sg_kink(kink_grid, n=1, a=1.0)
    s = kink
    dt, steps = 5e-3, 20
    for i in range(steps):
        s = sf.sg_step(s, dt, branch="-", refine=8, t=i * dt)
    exact = sf.sg_kink_profile(kink_grid, 1.0, kink_grid.length / 2, steps * dt)
    results.append(
        CheckResult(
            "kink obeys the classical sine-Gordon reduction (branch -)",
            1e-6,
            float(np.max(np.abs(s.u.values[:, 1] - exact))),
        )
    )
    _, _, info = sf.sg_solve_h(kink, branch="-", refine=8)
    results.append(
        CheckResult(
            "pointwise -1 flow constraint constant in x",
            1e-8,
            info["constraint_max_dev"] / info["constraint_target"],
        )
    )

    cfg = sf.SimConfig(
        n=2, grid=grid2, dt=1e-3, t_end=0.05, flow="mkdv", cadence=10, cfl_constant=0.5
    )
    traj = sf.run_flow(
        cfg, sf.preset_random_band(grid2, 2, seed=rng, amplitude=0.25, kmax=5)
    )
    rep = sf.conserved_report(traj)
    results.append(CheckResult("short-run conservation drift", 1e-7, max(rep.h0_drift, rep.h1_drift)))
    results.append(CheckResult("imaginarity preserved along trajectories", 1e-10, rep.max_re_u))
    return results


def geometry_suite(seed: int = 4) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    results = []
    grid = gcalc.PeriodicGrid(128, 16.0)
    for n in (1, 2):
        state = sf.preset_random_band(grid, n, seed=rng, amplitude=0.4, kmax=3)
        measured = cg.geometric_invariants_from_curve(state, refine=8)
        results.append(
            CheckResult(f"frame unitarity (n={n})", 1e-9, measured["frame"].unitarity_defect())
        )
        results.append(
            CheckResult(
                f"non-stretching |gamma_x| = 1 (n={n})",
                1e-8,
                float(np.max(np.abs(measured["speed"] - 1.0))),
            )
        )
        formulas = cg.geometric_invariants(state)
        worst = 0.0
        for key in ("g_NN", "g_NNx", "g_NxNx"):
            target = gcalc.spectral_refine(formulas[key].values, grid, 8)
            worst = max(
                worst,
                float(np.max(np.abs(measured[key] - target))) / max(1.0, np.max(np.abs(target))),
            )
        results.append(CheckResult(f"curvature invariants vs reconstruction (n={n})", 1e-5, worst))

    sol_grid = gcalc.PeriodicGrid(256, 40.0)
    soliton = sf.preset_mkdv_soliton(sol_grid, n=1, a=1.0)
    traj = cg.evolve_with_frame(soliton, "mkdv", 2e-3, 10, transport_refine=8)
    out = cg.verify_mkdv_map(traj, idx=5)
    results.append(CheckResult("mKdV map residual", 1e-4, out["residual"]))
    results.append(CheckResult("mKdV map tangential component", 1e-5, out["tangential_residual"]))

    kink = sf.preset_sg_kink(sol_grid, n=1, a=1.0)
    straj = cg.evolve_with_frame(kink, "sg", 1e-4, 6, branch="-", sg_refine=8, transport_refine=8)
    wout = cg.verify_wave_map(straj, idx=5)
    results.append(CheckResult("wave map residual", 1e-5, wout["residual"]))
    results.append(CheckResult("wave map speed constancy in x", 1e-6, wout["speed_constancy"]))
    return results


# scope -> its suites in run order, each with the offset added to the run's
# seed.  Suites are named, not bound: run_scope looks each up in the module
# when it runs, so a wrapper put on the module's function (bench/tracer.py
# does this) sees the call.
SCOPE_SUITES = {
    "algebra": (("algebra_suite", 0), ("bracket_table_suite", 1)),
    "operators": (("operator_suite", 2),),
    "flows": (("flow_suite", 3),),
    "geometry": (("geometry_suite", 4),),
}
SCOPE_SUITES["all"] = sum(SCOPE_SUITES.values(), ())
SCOPES = tuple(SCOPE_SUITES)


def run_scope(scope: str, seed: int = 0) -> list[CheckResult]:
    suites = SCOPE_SUITES[scope]
    return [check for name, offset in suites for check in globals()[name](seed + offset)]
