"""Shared fixtures: the published working point of the spinning-cavity model."""

import numpy as np
import pytest

from spinpb import HilbertConfig, SystemParams
from spinpb.lindblad import DensityMatrix

TWO_PI = 2.0 * np.pi

GAMMA = TWO_PI * 0.55e6        # rad/s
OMEGA_B = TWO_PI * 11.0308e6   # rad/s
J = TWO_PI * 7.37e6            # rad/s

# published six-digit optimal pairs (delta/omega_b, Lambda/omega_b) per
# drive direction, delta_F = +/- 0.5 gamma.  The first CW Lambda (2.46157e-6)
# is 0.59% from the program's root (2.475996e-6); the other three pairs match
# the roots to all six digits.  At that published pair the analytic g2(0) is
# 3.4e-5, not 0, so tests that need the exact optimum take it from
# find_optimal_pairs.  The values stay as published because test_01 checks
# them at 1%; the paper's abstract does not settle which of the two Lambdas
# is the misprint.
PAIRS_CW = [(-0.684495, 2.46157e-6), (0.654639, 2.45563e-6)]
PAIRS_CCW = [(0.679535, 2.46105e-6), (-0.659796, 2.47275e-6)]


def random_density(rng, dim: int) -> DensityMatrix:
    raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = raw @ raw.conj().T
    return DensityMatrix(rho / np.trace(rho).real)


@pytest.fixture(scope="session")
def working_params() -> SystemParams:
    """CW working point: K = 0.1 gamma, E = 0.005 gamma, delta_F = +0.5 gamma."""
    return SystemParams(
        gamma=GAMMA,
        omega_b=OMEGA_B,
        J=J,
        K=0.1 * GAMMA,
        E=0.005 * GAMMA,
        delta_F=0.5 * GAMMA,
    )


@pytest.fixture(scope="session")
def cfg55() -> HilbertConfig:
    return HilbertConfig(5, 5)
