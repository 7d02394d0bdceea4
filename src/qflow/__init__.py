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
    branch_mean,
    make_qpoint,
    match_rows,
    matching_distance,
    optimal_matching,
    qpoint_norm,
    sorted_embedding,
    translate,
)
from .grid import (
    GridDomain,
    InitialSpec,
    QGridFunction,
    branch_mean_field,
    branch_mean_residual,
    build_domain,
    dirichlet_energy,
    domain_manifest,
    l2_distance_sq,
    make_grid_function,
    read_snapshot_csv,
    sample_initial,
    scalar_dirichlet_energy,
    translate_field,
    write_snapshot_csv,
)
from .morseflow import (
    FlowTrajectory,
    StepReport,
    StepSchedule,
    evaluate_at_time,
    geometric_schedule,
    holder_margin,
    minimize_step,
    run_flow,
    step_estimate_margin,
    uniform_schedule,
)
from .oracle import (
    EigenMode,
    brute_force_step,
    exact_eigen_solution,
    implicit_euler_chain,
    max_principle_check,
)
from .checks import CHECK_NAMES, CheckResult

__all__ = [
    "__version__",
    "Matching", "QPoint", "ascending_projection", "branch_mean",
    "make_qpoint", "match_rows", "matching_distance", "optimal_matching",
    "qpoint_norm", "sorted_embedding", "translate",
    "GridDomain", "InitialSpec", "QGridFunction", "branch_mean_field",
    "branch_mean_residual", "build_domain", "dirichlet_energy",
    "domain_manifest", "l2_distance_sq", "make_grid_function",
    "read_snapshot_csv", "sample_initial", "scalar_dirichlet_energy",
    "translate_field", "write_snapshot_csv",
    "FlowTrajectory", "StepReport", "StepSchedule",
    "evaluate_at_time", "geometric_schedule", "holder_margin",
    "minimize_step", "run_flow", "step_estimate_margin", "uniform_schedule",
    "EigenMode", "brute_force_step", "exact_eigen_solution",
    "implicit_euler_chain", "max_principle_check",
    "CHECK_NAMES", "CheckResult",
]
