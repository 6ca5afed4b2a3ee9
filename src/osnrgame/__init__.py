"""Power control for differentiated services on WDM optical links.

Builds the channel-coupling matrix from a physical link description,
solves the mixed game-player/target-seeker allocation directly, falls back
to constrained least squares when the targets are unattainable, and
provides the distributed OSNR-driven iteration with its diagnostics.
"""

from .direct import (
    BoundsReport,
    FeasibilityReport,
    Solution,
    check_feasibility,
    power_bounds,
    solve_dsnp,
    verify,
)
from .iterate import (
    IterationConfig,
    IterationTrace,
    convergence_rate,
    step,
)
from .link import (
    AseParams,
    ChannelSpec,
    GainProfile,
    Link,
    LinkNetwork,
    Span,
    SystemMatrix,
    build_system_matrix,
    evaluate_gain,
    span_ase,
)
from .model import (
    ChannelSystem,
    PlayerParams,
    SeekerParams,
    ServicePartition,
    assemble,
    osnr,
    osnr_all,
    osnr_db,
    player_cost,
)
from .qp import QpResult, solve_qp
from .run import RunReport, emit, execute
from .scenario import (
    RunOptions,
    Scenario,
    demo3_scenario,
    demo30_scenario,
    load_scenario,
)

__version__ = "0.1.0"
