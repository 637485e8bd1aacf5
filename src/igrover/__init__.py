"""Two-oracle search over nested sets: exact simulators plus cost accounting.

Given Y inside X inside [0, n-1], with a cheap membership oracle for X and
an expensive one for Y, the schedule L cheap / 1 expensive / 2L cheap
iterations finds a member of Y with far fewer expensive queries than
searching with the expensive oracle alone.  This package simulates that
schedule two ways (a three-coordinate model, O(1) per untraced run, and
a full n-amplitude vector), verifies they agree, and prices the query savings.
"""

from .errors import (
    DimensionMismatch,
    EmptyX,
    EmptyY,
    IGroverError,
    IndexOutOfRange,
    InstanceTooLarge,
    NormDrift,
    NotClassUniform,
    NotSubset,
    SpecFormatError,
)
from .instance import (
    ClassCounts,
    Members,
    Modular,
    ProblemInstance,
    Range,
    build_instance,
    instance_to_json,
    kth_in_class,
    load_instance,
    partition_classes,
    verify_outcome,
)
from .reduced import (
    POLICY_PAPER_FORMULA,
    POLICY_ROUNDED_HALF,
    POLICY_SWEPT,
    QueryStats,
    Schedule,
    Trace,
    final_point,
    initial_point,
    run_schedule,
    success_probability,
    write_trace_csv,
)
from .fullstate import (
    DEFAULT_FULL_CAP,
    init_uniform,
    project_to_reduced,
    run_schedule_full,
    sample_measurement,
)
from .scheduling import (
    CostModel,
    RunOutcome,
    choose_L,
    compute_theta,
    crossover_t_y,
    naive_iterations,
    query_cost,
    result_record,
    run_with_repetitions,
    sample_from_reduced,
    sweep_L,
)

__version__ = "0.1.0"
