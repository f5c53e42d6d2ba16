"""Nonreciprocal unconventional photon blockade in a spinning magnomechanical cavity.

Two complementary engines over the same reduced photon-magnon model: a
weak-drive amplitude solver (interference optima, analytic g2) and a full
Lindblad master-equation engine (steady states, Mandel Q, delayed
correlations), plus a sweep CLI that writes CSV results with provenance
manifests.

The package root exports what a sweep or a paper figure needs.  Result
types and the ``SolverError`` subclasses live in their modules
(``spinpb.analytic``, ``spinpb.lindblad``, ``spinpb.errors``, ...).
"""

__version__ = "0.1.0"

from .analytic import (
    find_optimal_pairs,
    g2_analytic,
    steady_amplitudes,
)
from .errors import ConfigError, SolverError
from .lindblad import build_liouvillian, g2_tau, g2_zero, mandel_q, steady_state
from .model import (
    SpinGeometry,
    SystemParams,
    build_hamiltonian,
    effective_kerr,
    sagnac_shift,
)
from .operators import HilbertConfig
from .sweep import AxisSpec, SweepSpec, run_g2tau, run_optimal, run_sweep

__all__ = [
    "AxisSpec",
    "ConfigError",
    "HilbertConfig",
    "SolverError",
    "SpinGeometry",
    "SweepSpec",
    "SystemParams",
    "build_hamiltonian",
    "build_liouvillian",
    "effective_kerr",
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
]
