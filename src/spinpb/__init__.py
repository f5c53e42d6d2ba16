"""Nonreciprocal unconventional photon blockade in a spinning magnomechanical cavity.

Two complementary engines over the same reduced photon-magnon model: a
weak-drive amplitude solver (interference optima, analytic g2) and a full
Lindblad master-equation engine (steady states, Mandel Q, delayed
correlations), plus a sweep CLI that writes CSV results with provenance
manifests.
"""

__version__ = "0.1.0"

from .analytic import (
    AmplitudeVector,
    OptimalPair,
    evolve_amplitudes,
    find_optimal_pairs,
    g2_analytic,
    steady_amplitudes,
)
from .errors import (
    ConfigError,
    DimensionError,
    LiouvillianSizeError,
    NonUniqueSteadyStateError,
    SingularSystemError,
    SolverError,
    UndefinedCorrelationError,
)
from .lindblad import (
    DensityMatrix,
    Liouvillian,
    build_liouvillian,
    evolve,
    g2_tau,
    g2_zero,
    mandel_q,
    steady_state,
)
from .model import (
    DriveDirection,
    SpinGeometry,
    SystemParams,
    build_hamiltonian,
    effective_kerr,
    sagnac_shift,
)
from .operators import HilbertConfig, ModeOperators, annihilation, embed_ops, tensor
from .sweep import AxisSpec, RunManifest, SweepSpec, run_g2tau, run_optimal, run_sweep

__all__ = [
    "AmplitudeVector",
    "AxisSpec",
    "ConfigError",
    "DensityMatrix",
    "DimensionError",
    "DriveDirection",
    "HilbertConfig",
    "Liouvillian",
    "LiouvillianSizeError",
    "ModeOperators",
    "NonUniqueSteadyStateError",
    "OptimalPair",
    "RunManifest",
    "SingularSystemError",
    "SolverError",
    "SpinGeometry",
    "SweepSpec",
    "SystemParams",
    "UndefinedCorrelationError",
    "annihilation",
    "build_hamiltonian",
    "build_liouvillian",
    "effective_kerr",
    "embed_ops",
    "evolve",
    "evolve_amplitudes",
    "find_optimal_pairs",
    "g2_analytic",
    "g2_tau",
    "g2_zero",
    "mandel_q",
    "run_g2tau",
    "run_optimal",
    "run_sweep",
    "sagnac_shift",
    "steady_amplitudes",
    "steady_state",
    "tensor",
]
