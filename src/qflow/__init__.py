"""Energy-reducing implicit flow for grid functions whose values are
unordered multisets of points.

Layers: qspace (value algebra, matching metric and the batched branch
matching), grid (lattice domains and discrete energies), morseflow (the
implicit stepping engine and interpolated trajectories), oracle
(independent reference computations), checks (named verification suites),
cli (operator surface).
"""

__version__ = "0.1.0"

from .qspace import (
    Matching,
    QPoint,
    ascending_projection,
    make_qpoint,
    match_rows,
    matching_distance,
    optimal_matching,
    sorted_embedding,
)
from .grid import (
    GridDomain,
    InitialSpec,
    QGridFunction,
    branch_mean_field,
    build_domain,
    dirichlet_energy,
    domain_manifest,
    l2_distance_sq,
    read_snapshot_csv,
    sample_initial,
    write_snapshot_csv,
)
from .morseflow import (
    FlowTrajectory,
    StepReport,
    StepSchedule,
    evaluate_at_time,
    final_state,
    geometric_schedule,
    holder_margin,
    minimize_step,
    run_flow,
    uniform_schedule,
)
from .oracle import (
    EigenMode,
    brute_force_step,
    exact_eigen_solution,
    implicit_euler_chain,
)
from .checks import CHECK_NAMES, CheckResult

__all__ = [
    "__version__",
    "Matching", "QPoint", "ascending_projection", "make_qpoint",
    "match_rows", "matching_distance", "optimal_matching", "sorted_embedding",
    "GridDomain", "InitialSpec", "QGridFunction", "branch_mean_field",
    "build_domain", "dirichlet_energy", "domain_manifest", "l2_distance_sq",
    "read_snapshot_csv", "sample_initial", "write_snapshot_csv",
    "FlowTrajectory", "StepReport", "StepSchedule",
    "evaluate_at_time", "final_state", "geometric_schedule", "holder_margin",
    "minimize_step", "run_flow", "uniform_schedule",
    "EigenMode", "brute_force_step", "exact_eigen_solution",
    "implicit_euler_chain",
    "CHECK_NAMES", "CheckResult",
]
