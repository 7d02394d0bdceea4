"""Energy-reducing implicit flow for grid functions whose values are
unordered multisets of points.

Layers: qspace (canonical value arrays, the batched branch matching and
the ascending projection), grid (lattice domains and discrete energies),
morseflow (the implicit stepping engine and interpolated trajectories),
oracle (independent reference computations), checks (named verification
suites), cli (operator surface).
"""

__version__ = "0.1.0"

from .qspace import *
from .grid import *
from .morseflow import *
from .oracle import *
from .checks import CHECK_NAMES, CheckResult

__all__ = ["__version__", "CHECK_NAMES", "CheckResult"]
__all__ += qspace.__all__
__all__ += grid.__all__
__all__ += morseflow.__all__
__all__ += oracle.__all__
