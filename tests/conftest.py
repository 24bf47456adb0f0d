"""Shared fixtures.

The optimizer is the slow piece (about 0.25 s for the noisy walk below), so
anything that needs a fitted sequence shares these session-scoped results
instead of re-running the solver per test.
"""

import pytest

from stridelab import WalkerSpec, generate, optimize

CLEAN_SPEC = WalkerSpec(
    speed_m_s=1.2,
    cadence_steps_min=110.0,
    distance_m=6.0,
    fps=30.0,
    seed=0,
)

NOISY_SPEC = WalkerSpec(
    speed_m_s=1.2,
    cadence_steps_min=110.0,
    distance_m=6.0,
    fps=30.0,
    sigma3d_m=0.01,
    sigma2d_px=2.0,
    seed=11,
)


@pytest.fixture(scope="session")
def clean_walk():
    return generate(CLEAN_SPEC)


@pytest.fixture(scope="session")
def noisy_walk():
    return generate(NOISY_SPEC)


@pytest.fixture(scope="session")
def fitted_clean(clean_walk):
    seq, truth = clean_walk
    return optimize(seq, truth.anatomy)


@pytest.fixture(scope="session")
def fitted_noisy(noisy_walk):
    seq, truth = noisy_walk
    return optimize(seq, truth.anatomy)
