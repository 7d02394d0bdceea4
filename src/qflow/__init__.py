"""Energy-reducing implicit flow for grid functions whose values are
unordered multisets of points.

Layers: qspace (canonical value arrays, the batched branch matching and
the ascending projection), grid (lattice domains and discrete energies),
morseflow (the implicit stepping engine and interpolated trajectories),
oracle (independent reference computations), checks (named verification
suites), cli (operator surface).
"""

__version__ = "0.1.0"

from .qspace import ascending_projection, match_rows, optimal_matching
from .grid import (
    GridDomain,
    InitialSpec,
    QGridFunction,
    build_domain,
    dirichlet_energy,
    domain_manifest,
    l2_distance_sq,
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
    "ascending_projection", "match_rows", "optimal_matching",
    "GridDomain", "InitialSpec", "QGridFunction", "build_domain",
    "dirichlet_energy", "domain_manifest", "l2_distance_sq",
    "sample_initial", "write_snapshot_csv",
    "FlowTrajectory", "StepReport", "StepSchedule",
    "evaluate_at_time", "final_state", "geometric_schedule", "holder_margin",
    "minimize_step", "run_flow", "uniform_schedule",
    "EigenMode", "brute_force_step", "exact_eigen_solution",
    "implicit_euler_chain",
    "CHECK_NAMES", "CheckResult",
]
