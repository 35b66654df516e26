"""Bi-Hamiltonian quaternionic curve flows.

Quaternion and symmetric-Lie-algebra kernels, the compatible Hamiltonian
operator pair and recursion operator on periodic quaternion-valued fields,
hierarchy generation, mKdV and sine-Gordon time integration with
conservation monitoring, and moving-frame curve reconstruction.
"""

from .biham_ops import (
    CovectorPair,
    FlowPair,
    HierarchyFunctional,
    StatePair,
    apply_H,
    apply_J,
    apply_K,
    apply_R,
    apply_R_blocks,
    h_parallel,
    hamiltonian_density,
    hamiltonian_value,
    hierarchy_covector,
    hierarchy_flow,
    hierarchy_flows,
    make_covector,
    make_flow,
    make_state,
    pairing,
    poisson_bracket,
    variational_derivative_fd,
    w_parallel,
)
from .curve_geometry import (
    FrameState,
    evolve_with_frame,
    geometric_invariants,
    reconstruct_curve,
    transport_frame,
)
from .grid_calculus import Field, PeriodicGrid, integrate
from .soliton_flows import (
    ConservationReport,
    SimConfig,
    Trajectory,
    conserved_report,
    mkdv_rhs,
    preset_mkdv_soliton,
    preset_random_band,
    preset_sg_kink,
    run_flow,
    sg_solve_h,
    sg_step,
    step_rk4,
)
from .symm_lie import (
    HPar,
    HPerp,
    LieElement,
    MPar,
    MPerp,
    ad_e,
    ad_e_inv,
    bracket,
    bracket_projected,
    cartan_element,
    chi,
    equivalence_action,
    killing,
)

__version__ = "0.1.0"
