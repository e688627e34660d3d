"""Hierarchical boundary control of the wave equation on an expanding interval.

A leader and a follower share the fixed endpoint of a string whose other
endpoint moves away at constant subcharacteristic speed.  The follower
reacts optimally to the leader (a one-follower equilibrium of the tracking
cost); the leader then steers the final state into prescribed balls at
minimal cost, computed by minimizing a nonsmooth dual functional over the
adjoint final data.
"""

from .errors import (
    ConfigurationError,
    ConvergenceError,
    InfeasibleError,
    InstabilityError,
)
from .geometry import (
    AdmissibilityReport,
    DomainSpec,
    SigmaPartition,
    alpha,
    check_admissible,
    min_control_time,
)
from .grid import (
    Field,
    GridSpec,
    Mesh,
    PoissonRiesz,
    SpatialProfile,
    Trace,
    duality_pairing,
    hminus1_norm_physical,
    l2_norm_physical,
)
from .wave_core import (
    final_value_profile,
    final_velocity_profile,
    solve_forward,
    trace_normal_derivative,
)
from .coupled import (
    FollowerConfig,
    NashSolution,
    PicardOptions,
    apply_A,
    apply_A_star,
    cost_J,
    cost_J2,
    euler_lagrange_residual,
    solve_nash_system,
)
from .leader_dual import (
    DualOptions,
    DualPoint,
    DualReport,
    TargetSpec,
    duality_gap,
    minimize_dual,
    vi_residual,
)

__version__ = "0.1.0"
