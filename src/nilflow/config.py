"""Numeric defaults, collected in one place.

Every tolerance and horizon the library uses is defined here so that the
values can be audited without hunting through the modules.  All are plain
module constants.  DEFAULT_RTOL and DEFAULT_ATOL are the defaults of
IntegratorControls and can be overridden per call; the others, MAX_STEPS
among them, are fixed.

========================  ==========  =================================================
constant                  value       used for
========================  ==========  =================================================
RANK_TOL_FACTOR           1e-9        SVD rank cutoff, relative to largest singular value
METRIC_SYMMETRY_TOL       1e-12       max allowed asymmetry of a metric matrix
SKEW_TOL                  1e-8        max allowed relative symmetry leak in bracket/form input
BASIS_COND_LIMIT          1e12        smallest condition number refused in a basis change
DEFAULT_RTOL              1e-9        adaptive integrator, relative error per step
DEFAULT_ATOL              1e-10       adaptive integrator, absolute error per step
INITIAL_STEP              0.1         first trial step, capped by the span or horizon
STEP_FLOOR                1e-13       smallest trial step; below it the run stops (singular time)
SAFETY                    0.9         step controller: safety factor on ratio^(-1/5), error O(h^5)
MIN_SHRINK                0.2         step controller: smallest step factor (and after a failed trial)
MAX_GROW                  5.0         step controller: largest step factor
MAX_STEPS                 1_000_000   hard cap on attempted steps (accepted plus rejected)
FIXED_STEP_COUNT_SLACK    1e-12       fixed-step runs take ceil(span / h - slack) steps
STRUCTURE_TOL             1e-7        Jacobi and closedness of (mu, H) at every entry point,
                                      bracket-flow drift, tr ad (d*)
DECAY_BOUND_SLACK         1e-9        slack over the decay bound in gbf_decay_bound_check
FAMILY_TOL                1e-8        gbf_decay_bound_check: stray mu columns (relative) and
                                      the start's distance from (1, a)
DEFAULT_HORIZON           1000.0      clock-time budget of a blowup_time search
SWEEP_T_LONG              50.0        forward horizon used by the T_min sweep asymptotics
SWEEP_HORIZON_BACK        10.0        clock-time budget of each backward search in the T_min sweep
MAX_PROBLEM_DIM           10          largest dimension accepted by the problem loader
==========================================================================================
"""

__all__ = ["DEFAULT_ATOL", "DEFAULT_RTOL", "MAX_PROBLEM_DIM", "STRUCTURE_TOL"]

RANK_TOL_FACTOR = 1e-9
METRIC_SYMMETRY_TOL = 1e-12
SKEW_TOL = 1e-8
BASIS_COND_LIMIT = 1e12

DEFAULT_RTOL = 1e-9
DEFAULT_ATOL = 1e-10
INITIAL_STEP = 0.1
STEP_FLOOR = 1e-13
SAFETY = 0.9
MIN_SHRINK = 0.2
MAX_GROW = 5.0
MAX_STEPS = 1_000_000
FIXED_STEP_COUNT_SLACK = 1e-12
STRUCTURE_TOL = 1e-7
DECAY_BOUND_SLACK = 1e-9
FAMILY_TOL = 1e-8

DEFAULT_HORIZON = 1000.0
SWEEP_T_LONG = 50.0
SWEEP_HORIZON_BACK = 10.0

MAX_PROBLEM_DIM = 10
