"""Ground holding optimization: deterministic, stochastic and distributionally
robust models over a self-contained simplex / branch-and-bound engine.

Importing the package pins the BLAS library numpy uses to one thread unless
the environment already says otherwise: pivot counts, node counts and the
last bits of an optimum depend on the thread count, and extra threads cost
CPU time on the small products the simplex kernel makes.  This runs before
any submodule imports numpy, which reads the setting once, at load.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
del _var

from .domain import (
    AmbiguitySpec,
    CapacityDistribution,
    ConnectionPair,
    Flight,
    FlightSchedule,
    NetworkInstance,
    SupportGrid,
    TimeHorizon,
    Violation,
    default_support_grid,
    validate_schedule,
)
from .evaluate import (
    DEFAULT_OMEGA,
    IndexedTuple,
    PolicyEvaluation,
    SweepResult,
    SweepRow,
    arrivals_from_policy,
    deterministic_capacity,
    epsilon_sweep,
    evaluate_policy,
    expected_policy_cost,
    sample_capacities,
    second_stage_cost,
)
from .ingest import (
    CapacityHistoryRecord,
    IngestError,
    Instance,
    SynthParams,
    empirical_distribution,
    load_instance,
    parse_capacity_history,
    parse_schedule,
    serialize_capacity_history,
    serialize_schedule,
    synth_instance,
    throughput_from_arrivals,
    write_instance,
)
from .milp import (
    BINARY,
    CONTINUOUS,
    SENSE_EQ,
    SENSE_GE,
    SENSE_LE,
    LinearConstraint,
    MilpModel,
    ModelError,
    Solution,
    VariableDef,
    constraint_residuals,
    export_mps,
    is_feasible,
)
from .models import (
    DrDiagnostics,
    GroundHoldingPolicy,
    ModelIndex,
    PolicyExtractionError,
    build_d_saghp,
    build_dr_maghp,
    build_dr_saghp,
    build_s_saghp,
    check_policy,
    dr_diagnostics,
    extract_policy,
    policy_from_assignments,
    reprice_dr_saghp,
)
from .solver import (
    LpSolution,
    NumericalInstabilityError,
    solve_lp,
    solve_milp,
)
from .wasserstein import (
    TransportPlan,
    wasserstein_distance,
    worst_case_distribution,
)

__version__ = "0.1.0"
