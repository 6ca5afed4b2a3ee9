"""Power control for differentiated services on WDM optical links.

Builds the channel-coupling matrix from a physical link description,
solves the mixed game-player/target-seeker allocation directly, falls back
to constrained least squares when the targets are unattainable, and
provides the distributed OSNR-driven iteration with its diagnostics.

The names imported below are the documented surface (see README.md); the
link model, the iteration and the report types live in their modules.
"""

from .direct import check_feasibility, power_bounds, solve_dsnp
from .iterate import convergence_rate
from .link import SystemMatrix
from .model import PlayerParams, SeekerParams, ServicePartition, assemble, osnr
from .qp import solve_qp
from .run import emit, execute
from .scenario import load_scenario

__version__ = "0.1.0"
