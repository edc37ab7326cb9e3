"""Numeric defaults, collected in one place.

Every tolerance and horizon the library uses is defined here so that the
values can be audited without hunting through the modules.  All are plain
module constants.  DEFAULT_RTOL, DEFAULT_ATOL and MAX_STEPS are the
defaults of IntegratorControls and can be overridden per call; the others
are fixed.

========================  ==========  =================================================
constant                  value       used for
========================  ==========  =================================================
DEFAULT_TOL               1e-9        generic residual threshold (Jacobi, closedness)
RANK_TOL_FACTOR           1e-9        SVD rank cutoff, relative to largest singular value
METRIC_SYMMETRY_TOL       1e-12       max allowed asymmetry of a metric matrix
SKEW_TOL                  1e-8        max allowed relative symmetry leak in bracket/form input
DEFAULT_RTOL              1e-9        adaptive integrator, relative error per step
DEFAULT_ATOL              1e-10       adaptive integrator, absolute error per step
INITIAL_STEP              0.1         first trial step, capped by the span or horizon
STEP_FLOOR                1e-13       smallest trial step; below it the run stops (singular time)
SAFETY                    0.9         step controller: safety factor on ratio^(-1/5), error O(h^5)
MIN_SHRINK                0.2         step controller: smallest step factor (and after a failed trial)
MAX_GROW                  5.0         step controller: largest step factor
MAX_STEPS                 1_000_000   hard cap on attempted steps (accepted plus rejected)
STRUCTURE_TOL             1e-7        Jacobi / closedness residual: flow start, GBF steps
DECAY_BOUND_SLACK         1e-9        slack over the decay bound in gbf_decay_bound_check
DEFAULT_HORIZON           1000.0      clock-time budget of a blowup_time search
SWEEP_T_LONG              50.0        forward horizon used by the T_min sweep asymptotics
SWEEP_HORIZON_BACK        10.0        clock-time budget of each backward search in the T_min sweep
MAX_PROBLEM_DIM           10          largest dimension accepted by the problem loader
==========================================================================================
"""

DEFAULT_TOL = 1e-9
RANK_TOL_FACTOR = 1e-9
METRIC_SYMMETRY_TOL = 1e-12
SKEW_TOL = 1e-8

DEFAULT_RTOL = 1e-9
DEFAULT_ATOL = 1e-10
INITIAL_STEP = 0.1
STEP_FLOOR = 1e-13
SAFETY = 0.9
MIN_SHRINK = 0.2
MAX_GROW = 5.0
MAX_STEPS = 1_000_000
STRUCTURE_TOL = 1e-7
DECAY_BOUND_SLACK = 1e-9

DEFAULT_HORIZON = 1000.0
SWEEP_T_LONG = 50.0
SWEEP_HORIZON_BACK = 10.0

MAX_PROBLEM_DIM = 10

# Environment variable consulted by the test suite for its RNG seed.
SEED_ENV_VAR = "NILFLOW_SEED"
