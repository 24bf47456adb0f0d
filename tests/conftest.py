"""Shared fixtures.

The optimizer is the slow piece (about 0.05 s for the noisy walk below), so
anything that needs a fitted sequence shares these session-scoped results
instead of re-running the solver per test.
"""

import numpy as np
import pytest

from stridelab import WalkerSpec, derive_anatomy, generate, optimize
from stridelab.kinematics import CANONICAL_TREE, KinematicTree, lengths_vector

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


def _swing_tree():
    """Seven joints with two one-child joints: "a", whose child "b" has two
    children, and "e", whose child "f" is a leaf.  The bones a -> b and
    e -> f lie along x and in the xy plane, and the skeleton's along y, so
    between them the three trees reach every branch of the swing basis."""
    dirs = np.array([
        [0.0, 0.0, 0.0],
        [0.0, 1.0, 0.0],
        [1.0, 0.0, 0.0],
        [0.0, 0.6, 0.8],
        [0.0, -1.0, 0.0],
        [0.0, 0.0, -1.0],
        [0.8, 0.6, 0.0],
    ])
    # Joints root, a, b, c, d, e, f.
    return KinematicTree(
        parents=(-1, 0, 1, 2, 2, 0, 5),
        rest_dirs=dirs,
    )


@pytest.fixture(params=["canonical", "small", "zero-bone"])
def step_tree(request):
    """(tree, bone lengths) for the checks of the solver's step layout: the
    skeleton, and a small tree with two one-child joints, once with every
    bone positive and once with the bone a -> b of length zero."""
    if request.param == "canonical":
        return CANONICAL_TREE, lengths_vector(derive_anatomy(1.72))
    lengths = np.array([0.0, 0.5, 0.3, 0.25, 0.4, 0.35, 0.2])
    if request.param == "zero-bone":
        lengths[2] = 0.0
    return _swing_tree(), lengths
