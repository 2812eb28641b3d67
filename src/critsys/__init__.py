"""Solver and verifier for the coupled critical-exponent elliptic system.

-Lap(u) = u^alpha v^beta, -Lap(v) = u^beta v^alpha on R^n with
alpha + beta = (n+2)/(n-2): exact bubble solutions, radial shooting with
trajectory classification, Newtonian potential / Picard iteration / HLS
functionals, and moving-plane symmetry verification.
"""

__version__ = "0.1.0"

from .core import (
    ExponentConfig,
    RadialGrid,
    RadialProfilePair,
    lp_norm_radial,
)
from .bubble import (
    BubbleParams,
    amplitude_constant,
    bubble_residual,
    eval_bubble,
    eval_bubble_radial,
    make_bubble,
)
from .shooting import (
    IntegralIdentityReport,
    Kind,
    ShootInput,
    ShootOutcome,
    check_integral_identity,
    classify,
    classify_batch,
    integrate_radial,
    integrate_radial_batch,
    uniqueness_sweep,
)
from .potential import (
    KernelSpec,
    hls_functional,
    newton_potential_radial,
    picard_step,
)
from .moving_plane import (
    CartesianSampler,
    PlaneParam,
    ReflectionReport,
    critical_plane_scan,
    greens_reflection_identity,
    reflect,
    reflection_inequality_check,
)
