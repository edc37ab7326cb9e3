"""Tensor calculus and geometric flows for left-invariant data on nilpotent Lie groups.

Structure-constant algebra, the algebraic exterior differential, Hodge
duality, (generalized) Ricci curvature, soliton fitting, Dorfman brackets,
and adaptive Dormand-Prince 5(4) and fixed-step RK4 drivers for bracket
flows and the gauge-fixed generalized Ricci flow, with a small CLI on top.
"""

from .config import (
    DEFAULT_ATOL,
    DEFAULT_RTOL,
    MAX_PROBLEM_DIM,
    STRUCTURE_TOL,
)
from .curvature import (
    bismut_nabla_theta,
    christoffels,
    generalized_ricci_plus,
    h_circ_h,
    rc_metric,
    ric_orthonormal,
    symmetric_part,
)
from .dorfman import (
    DorfmanBracket,
    GeneralizedVector,
    closedness_residual,
    dorfman_eval,
    dorfman_jacobi_residual,
    dorfman_structure_constants,
    dorfman_total_skew_residual,
    neutral_pairing,
)
from .errors import NilflowError, NumericalError, ValidationError
from .flows import (
    BlowupReport,
    BracketState,
    GrfState,
    IntegratorControls,
    PhiSpec,
    SweepRow,
    Trajectory,
    blowup_time,
    gbf_decay_bound_check,
    gbf_rhs,
    grf_rhs,
    integrate_gbf,
    integrate_grf,
    tmin_sweep,
    trajectory_column_labels,
    trajectory_from_columns,
)
from .hodge import (
    Metric,
    as_metric,
    codifferential,
    form_inner,
    hodge_laplacian,
    hodge_star,
    orthonormalize,
    vol_form,
)
from .io import (
    Problem,
    builtin_problem,
    emit_phase_svg,
    emit_trajectory_csv,
    load_problem,
    problem_from_dict,
    read_trajectory_csv,
)
from .lie import (
    KForm,
    LieBracket,
    ce_differential,
    compound_matrix,
    form_dense,
    gl_action,
    gl_action_form,
    index_tuples,
    jacobi_residual,
    nilpotency_step,
    pi_form,
    pi_mu,
    sort_sign,
    wedge,
)
from .soliton import (
    SolitonData,
    derivation_space,
    soliton_fit,
    soliton_residual,
    symmetric_derivations,
)

__version__ = "0.1.0"
