"""Energy model and solver.

Two oracles anchor this file: a direct summation of the four residual terms
(independent of the vectorized implementation) and central finite
differences for the gradient.
"""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from stridelab import optimizer as optimizer_module
from stridelab import (
    CameraModel,
    StrideLabError,
    EnergyConfig,
    JointId,
    Point2D,
    Point3D,
    SkeletonFrame2D,
    SkeletonFrame3D,
    SkeletonSequence,
    derive_anatomy,
    energy,
    energy_breakdown,
    energy_gradient,
    initial_params,
    optimize,
    project,
)
from stridelab.kinematics import (
    CANONICAL_TREE,
    PoseParams,
    forward_kinematics,
    lengths_vector,
    position_jacobian,
)
from stridelab.optimizer import _problem_for, _second_difference_gram

ANATOMY = derive_anatomy(1.72)
LENGTHS = lengths_vector(ANATOMY)
CAMERA = CameraModel.default()


def _params(rng, n_frames, spread=0.3):
    nr = CANONICAL_TREE.n_rotations
    return PoseParams(
        translations=rng.normal(0.0, 0.2, (n_frames, 3)) + [0, 0, 4.0],
        rotations=rng.normal(0.0, spread, (n_frames, nr, 3)),
    )


def _sequence_from_params(params, fps=30.0, jitter3d=0.0, rng=None):
    """Build a two-stream sequence whose 3D/2D observations come from FK."""
    X = forward_kinematics(CANONICAL_TREE, LENGTHS, params)
    if jitter3d:
        X = X + rng.normal(0.0, jitter3d, X.shape)
    frames_3d = []
    frames_2d = []
    for f in range(X.shape[0]):
        joints = {j: Point3D(*X[f, j.value]) for j in JointId}
        fr3 = SkeletonFrame3D(index=f, time_s=f / fps, joints=joints)
        frames_3d.append(fr3)
        frames_2d.append(project(fr3, CAMERA))
    return SkeletonSequence(
        fps=fps,
        frames_2d=tuple(frames_2d),
        frames_3d=tuple(frames_3d),
        subject_height_m=1.72,
    )


def _energy_oracle(params, seq, cfg):
    """Direct per-term summation, written independently of the solver."""
    X = forward_kinematics(CANONICAL_TREE, LENGTHS, params)
    w_proj = cfg.resolved_w_proj(CAMERA)
    total = 0.0
    for f, fr in enumerate(seq.frames_3d):
        for j, p in fr.joints.items():
            d = X[f, j.value] - np.array(p)
            total += cfg.w_ik * float(d @ d)
    for f, fr in enumerate(seq.frames_2d):
        for j, p in fr.joints.items():
            x, y, z = X[f, j.value]
            u = CAMERA.fx * x / z + CAMERA.cx
            v = CAMERA.fy * y / z + CAMERA.cy
            total += w_proj * p.confidence * ((u - p.x) ** 2 + (v - p.y) ** 2)
    F = X.shape[0]
    if F >= 3:
        dd = X[2:] - 2.0 * X[1:-1] + X[:-2]
        total += cfg.w_smooth * float(np.sum(dd * dd))
    if F >= 2:
        tz = params.translations[:, 2]
        total += cfg.w_depth * float(np.sum(np.diff(tz) ** 2))
    return total


def test_energy_matches_direct_summation():
    rng = np.random.default_rng(5)
    params = _params(rng, 3)
    seq = _sequence_from_params(params)
    probe = _params(rng, 3)
    cfg = EnergyConfig(w_ik=0.7, w_proj=2e-6, w_smooth=0.3, w_depth=0.05)
    got = energy(probe, seq, ANATOMY, CAMERA, cfg=cfg)
    want = _energy_oracle(probe, seq, cfg)
    assert got == pytest.approx(want, rel=1e-9)


def test_energy_zero_at_exact_data():
    rng = np.random.default_rng(1)
    params = _params(rng, 1)
    seq = _sequence_from_params(params)
    cfg = EnergyConfig(w_smooth=0.0, w_depth=0.0)
    assert energy(params, seq, ANATOMY, CAMERA, cfg=cfg) < 1e-16


def test_breakdown_sums_to_energy():
    rng = np.random.default_rng(9)
    params = _params(rng, 4)
    seq = _sequence_from_params(params)
    probe = _params(rng, 4)
    terms = energy_breakdown(probe, seq, ANATOMY, CAMERA)
    assert set(terms) == {"ik", "proj", "smooth", "depth"}
    total = energy(probe, seq, ANATOMY, CAMERA)
    assert sum(terms.values()) == pytest.approx(total, rel=1e-12)
    assert all(v >= 0 for v in terms.values())


def test_energy_linear_in_weights():
    rng = np.random.default_rng(2)
    params = _params(rng, 2)
    seq = _sequence_from_params(params)
    probe = _params(rng, 2)
    base = EnergyConfig(w_ik=1.0, w_proj=1e-6, w_smooth=0.1, w_depth=0.1)
    double = EnergyConfig(w_ik=2.0, w_proj=2e-6, w_smooth=0.2, w_depth=0.2)
    e1 = energy(probe, seq, ANATOMY, CAMERA, cfg=base)
    e2 = energy(probe, seq, ANATOMY, CAMERA, cfg=double)
    assert e2 == pytest.approx(2 * e1, rel=1e-12)


def _fd_gradient(params, seq, cfg, h=1e-6):
    """Central finite differences in PoseParams.as_vector() layout."""
    nr = CANONICAL_TREE.n_rotations
    flat = params.as_vector()
    g = np.empty_like(flat)
    for i in range(flat.size):
        up = flat.copy()
        up[i] += h
        dn = flat.copy()
        dn[i] -= h
        g[i] = (
            energy(PoseParams.from_vector(up, nr), seq, ANATOMY, CAMERA, cfg=cfg)
            - energy(PoseParams.from_vector(dn, nr), seq, ANATOMY, CAMERA, cfg=cfg)
        ) / (2 * h)
    return g


@pytest.mark.parametrize("n_frames", [2, 5])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_gradient_matches_finite_differences(seed, n_frames):
    """Two frames have no smoothness term; five exercise it and couple the
    root depth across four steps."""
    rng = np.random.default_rng(seed)
    params = _params(rng, n_frames)
    seq = _sequence_from_params(params)
    probe = _params(rng, n_frames)
    cfg = EnergyConfig()
    got = energy_gradient(probe, seq, ANATOMY, CAMERA, cfg=cfg)
    want = _fd_gradient(probe, seq, cfg)
    assert np.linalg.norm(got - want) / np.linalg.norm(want) < 1e-4


def test_optimize_monotone_and_converged(fitted_clean):
    hist = fitted_clean.energy_history
    assert len(hist) >= 2
    assert all(b <= a + 1e-12 for a, b in zip(hist, hist[1:]))
    assert fitted_clean.converged


def test_optimize_preserves_bone_lengths(fitted_clean, clean_walk):
    _, truth = clean_walk
    frames = fitted_clean.frames
    for fr in frames[:: max(1, len(frames) // 8)]:
        for child, parent in enumerate(CANONICAL_TREE.parents):
            if parent < 0:
                continue
            a = np.array(fr.joints[JointId(child)])
            b = np.array(fr.joints[JointId(parent)])
            want = truth.anatomy.length(JointId(child))
            assert abs(np.linalg.norm(a - b) - want) < 1e-6


def test_optimize_is_deterministic():
    rng = np.random.default_rng(17)
    params = _params(rng, 3, spread=0.15)
    seq = _sequence_from_params(params, jitter3d=0.01, rng=rng)
    first = optimize(seq, ANATOMY, CAMERA)
    second = optimize(seq, ANATOMY, CAMERA)
    assert first.final_energy == second.final_energy
    assert first.iterations == second.iterations
    a = np.array([[p for j in JointId for p in fr.joints[j]] for fr in first.frames])
    b = np.array([[p for j in JointId for p in fr.joints[j]] for fr in second.frames])
    assert np.array_equal(a, b)


def test_optimize_denoises(noisy_walk, clean_walk, fitted_noisy):
    """Fitting noisy observations should land closer to the clean positions
    than the observations themselves are."""
    noisy_seq, _ = noisy_walk
    clean_seq, _ = clean_walk

    def stack(frames):
        return np.array(
            [[fr.joints[j] for j in JointId] for fr in frames], dtype=float
        )

    clean = stack(clean_seq.frames_3d)
    noisy = stack(noisy_seq.frames_3d)
    fit = stack(fitted_noisy.frames)
    rmse_in = np.sqrt(np.mean((noisy - clean) ** 2))
    rmse_out = np.sqrt(np.mean((fit - clean) ** 2))
    assert rmse_out < 0.8 * rmse_in


def test_initial_params_reconstruct_clean_walk(clean_walk):
    seq, truth = clean_walk
    init = initial_params(seq, truth.anatomy)
    X = forward_kinematics(
        CANONICAL_TREE, lengths_vector(truth.anatomy), init
    )
    obs = np.array(
        [[fr.joints[j] for j in JointId] for fr in seq.frames_3d], dtype=float
    )
    assert np.max(np.abs(X - obs)) < 1e-6


def test_camera_distance_tracks_root(fitted_clean):
    d = np.array(fitted_clean.camera_distance_m)
    assert d.shape == (len(fitted_clean.frames),)
    roots = np.array(
        [fitted_clean.frames[i].joints[JointId.PELVIS] for i in range(len(d))]
    )
    assert np.allclose(d, np.linalg.norm(roots, axis=1), atol=1e-9)


def test_wrong_param_shape_rejected(clean_walk):
    seq, truth = clean_walk
    bad = PoseParams(
        translations=np.zeros((3, 3)) + [0, 0, 4],
        rotations=np.zeros((3, CANONICAL_TREE.n_rotations, 3)),
    )
    with pytest.raises(StrideLabError):
        energy(bad, seq, truth.anatomy)


def _head(seq, n_frames):
    """The first n_frames frames of a two-stream sequence."""
    return SkeletonSequence(
        fps=seq.fps,
        frames_2d=seq.frames_2d[:n_frames],
        frames_3d=seq.frames_3d[:n_frames],
        subject_height_m=seq.subject_height_m,
    )


def _dense_normal_equations(prob, X, G):
    """J^T W J and J^T W r of the whole sequence, built row by row from the
    residual Jacobians of the four energy terms: an oracle written
    independently of the band builder."""
    F, P = prob.F, CANONICAL_TREE.params_per_frame
    cam = prob.camera
    jpos = position_jacobian(CANONICAL_TREE, X, G)  # (F, J, 3, P)
    rows, weights, resid = [], [], []

    def add(w, r, *parts):
        row = np.zeros(F * P)
        for f, coef, jac in parts:
            row[f * P:(f + 1) * P] += coef * jac
        rows.append(row)
        weights.append(w)
        resid.append(r)

    for f in range(F):
        for j in range(CANONICAL_TREE.n_joints):
            if prob.m3[f, j]:
                for c in range(3):
                    add(prob.w_ik, X[f, j, c] - prob.y3[f, j, c], (f, 1.0, jpos[f, j, c]))
            if prob.conf[f, j] > 0:
                x, y, z = X[f, j]
                du = np.array([cam.fx / z, 0.0, -cam.fx * x / z**2]) @ jpos[f, j]
                dv = np.array([0.0, cam.fy / z, -cam.fy * y / z**2]) @ jpos[f, j]
                w = prob.w_proj * prob.conf[f, j]
                add(w, cam.fx * x / z + cam.cx - prob.y2[f, j, 0], (f, 1.0, du))
                add(w, cam.fy * y / z + cam.cy - prob.y2[f, j, 1], (f, 1.0, dv))
    for f in range(F - 2):
        for j in range(CANONICAL_TREE.n_joints):
            for c in range(3):
                add(
                    prob.w_smooth,
                    X[f + 2, j, c] - 2.0 * X[f + 1, j, c] + X[f, j, c],
                    (f, 1.0, jpos[f, j, c]),
                    (f + 1, -2.0, jpos[f + 1, j, c]),
                    (f + 2, 1.0, jpos[f + 2, j, c]),
                )
    depth = np.eye(P)[2]  # the root translation's z parameter
    for f in range(F - 1):
        add(prob.w_depth, X[f + 1, 0, 2] - X[f, 0, 2], (f, -1.0, depth), (f + 1, 1.0, depth))
    Jr = np.array(rows)
    w = np.array(weights)
    return Jr.T @ (w[:, None] * Jr), Jr.T @ (w * np.array(resid))


@pytest.mark.parametrize("n_frames", [1, 2, 3, 5])
def test_banded_normal_matrix_and_solve_match_dense(noisy_walk, n_frames):
    """F = 1 and 2 have no smoothness term and F = 3 a single second
    difference; the band storage must still hold the lower triangle of the
    dense matrix (to round-off) and exact zeros everywhere else."""
    seq, truth = noisy_walk
    seq = _head(seq, n_frames)
    cfg = EnergyConfig()
    prob = _problem_for(seq, truth.anatomy, CAMERA, cfg)
    init = initial_params(seq, truth.anatomy)
    X, G = forward_kinematics(
        CANONICAL_TREE, lengths_vector(truth.anatomy), init, with_globals=True
    )
    H, g = _dense_normal_equations(prob, X, G)
    ab, jtr = prob._normal_blocks(X, G)

    P = CANONICAL_TREE.params_per_frame
    n = H.shape[0]
    assert ab.shape == (3 * P, n)
    from_band = np.zeros_like(H)
    for k in range(min(3 * P, n)):
        j = np.arange(n - k)
        from_band[j + k, j] = ab[k, j]
    assert np.abs(from_band - np.tril(H)).max() <= 1e-12 * np.abs(H).max()
    # Blocks three or more frames apart are structurally zero.
    frame = np.arange(n) // P
    assert not from_band[frame[:, None] - frame[None, :] >= 3].any()
    # Storage cells past the matrix end (bottom-right corner) stay zero.
    for k in range(1, 3 * P):
        assert not ab[k, max(n - k, 0):].any()
    assert np.abs(jtr.reshape(-1) - g).max() <= 1e-12 * np.abs(g).max()

    d0 = ab[0].copy()
    damp_base = np.maximum(d0, 1e-12 * d0.max())
    for lam in (1e-3, 1.0):
        got = prob._damped_solve(ab.copy(order="F"), lam * damp_base, -g)
        want = np.linalg.solve(H + np.diag(lam * damp_base), -g)
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)


def _thinned(walk, rate=0.2, seed=4):
    """The walk with a fraction of its 2D joints removed, as the walker's
    dropout does, and random 2D confidences, so the projection weights
    differ from frame to frame."""
    seq, truth = walk
    rng = np.random.default_rng(seed)
    frames_2d = tuple(
        replace(fr, joints={j: p._replace(confidence=rng.uniform(0.2, 1.0))
                            for j, p in fr.joints.items() if rng.random() >= rate})
        for fr in seq.frames_2d
    )
    return replace(seq, frames_2d=frames_2d), truth


@pytest.mark.parametrize("n_frames", [5, 7])
@pytest.mark.parametrize("chunk", [1, 2, 3])
def test_band_across_chunk_boundaries(noisy_walk, monkeypatch, chunk, n_frames):
    """Chunks of one to three frames split F = 5 and 7 so that blocks (f + k, f)
    cross chunk edges and the last chunk is partial (5 = 2 + 2 + 1, 7 = 3 + 3
    + 1); the band, J^T r and the solve still match the dense reference, on
    a walk whose 2D masks and confidences vary between frames."""
    monkeypatch.setattr(optimizer_module, "_CHUNK_FRAMES", chunk)
    real = optimizer_module.kin.position_jacobian
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1].shape[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(optimizer_module.kin, "position_jacobian", counted)
    test_banded_normal_matrix_and_solve_match_dense(_thinned(noisy_walk), n_frames)
    assert len(calls) == math.ceil(n_frames / chunk)
    assert max(calls) <= chunk + 2


@pytest.mark.parametrize("chunk", [1, 2, 3])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_gradient_across_chunk_boundaries(monkeypatch, seed, chunk):
    """gradient() reaches the chunked assembly through rotations=."""
    monkeypatch.setattr(optimizer_module, "_CHUNK_FRAMES", chunk)
    test_gradient_matches_finite_differences(seed, 5)


@pytest.mark.parametrize("n_frames", [2, 3, 7])
def test_band_rewritten_in_place_matches_a_fresh_one(noisy_walk, n_frames):
    """solve() reuses one band: writing a pose's band over another pose's,
    or over the Cholesky factor a damped solve leaves in it, must leave
    exactly what a freshly zeroed band holds, also with F = 2, where no
    smoothness block rewrites the root-depth coupling, and with F = 7, where
    the factor fills in the blocks three frames apart."""
    seq, truth = noisy_walk
    seq = _head(seq, n_frames)
    prob = _problem_for(seq, truth.anatomy, CAMERA, EnergyConfig())
    lengths = lengths_vector(truth.anatomy)
    init = initial_params(seq, truth.anatomy)
    other = PoseParams(init.translations + 0.05, init.rotations * 0.5)
    X, G = forward_kinematics(CANONICAL_TREE, lengths, init, with_globals=True)
    X2, G2 = forward_kinematics(CANONICAL_TREE, lengths, other, with_globals=True)
    stale, _ = prob._normal_blocks(X2, G2)
    reused, _ = prob._normal_blocks(X, G, out=stale)
    fresh, _ = prob._normal_blocks(X, G)
    assert reused is stale
    assert np.array_equal(reused, fresh)

    d0 = fresh[0].copy()
    prob._damped_solve(reused, 1e-3 * d0, np.ones(d0.size))
    assert not np.array_equal(reused, fresh)
    over_factor, _ = prob._normal_blocks(X, G, out=reused)
    assert over_factor is reused
    assert np.array_equal(over_factor, fresh)


def _traced_peak(fn):
    """Peak bytes traced while fn runs, above what was traced before it, and
    fn's result."""
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        result = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - start, result


def test_assembly_memory_does_not_grow_with_frames(noisy_walk):
    """Beyond its band, _normal_blocks holds one chunk's buffers and a few
    per-frame residual and weight arrays, and a solve iteration factors the
    band in place.  Walk-sized Jacobians or block arrays, or a second
    band-sized array such as a separate Cholesky factor, would grow these
    excesses by megabytes between 64 and 148 frames."""
    seq, truth = noisy_walk
    assert len(seq.frames_3d) >= 148
    P = CANONICAL_TREE.params_per_frame
    bands, assembly, solve = [], [], []
    for n_frames in (64, 148):
        part = _head(seq, n_frames)
        prob = _problem_for(part, truth.anatomy, CAMERA, EnergyConfig())
        init = initial_params(part, truth.anatomy)
        X, G = forward_kinematics(
            CANONICAL_TREE, lengths_vector(truth.anatomy), init, with_globals=True
        )
        band = 3 * P * n_frames * P * np.dtype(np.float64).itemsize
        peak, _ = _traced_peak(lambda: prob._normal_blocks(X, G))
        bands.append(band)
        assembly.append(peak - band)
        # Two iterations: the second assembles into the band the first
        # factored.
        peak, (_, info) = _traced_peak(
            lambda: prob.solve(init, EnergyConfig(max_iterations=2))
        )
        assert info["iterations"] == 2
        solve.append(peak - band)
    assert abs(assembly[1] - assembly[0]) < 1e6
    # The solve also keeps a few per-frame pose arrays (X, G, rotations and
    # their trial copies), well under half a band per frame.
    assert solve[1] - solve[0] < 0.5 * (bands[1] - bands[0])


def test_cholesky_failure_raises_damping(noisy_walk, monkeypatch):
    seq, truth = noisy_walk
    seq = _head(seq, 12)
    real = optimizer_module.cholesky_banded
    diagonals = []

    def fail_once(ab, **kwargs):
        diagonals.append(ab[0].copy())
        if len(diagonals) == 1:
            raise np.linalg.LinAlgError("not positive definite")
        return real(ab, **kwargs)

    monkeypatch.setattr(optimizer_module, "cholesky_banded", fail_once)
    fit = optimize(seq, truth.anatomy, CAMERA)
    assert len(diagonals) >= 2
    # The retry solves the same matrix with a larger damping.
    assert np.all(diagonals[1] >= diagonals[0])
    assert np.any(diagonals[1] > diagonals[0])
    # Both attempts damp the band assembled at the initial pose, the retry
    # with the larger damping alone: it is assembled again, not the failed
    # attempt's matrix damped once more.
    prob = _problem_for(seq, truth.anatomy, CAMERA, EnergyConfig())
    init = initial_params(seq, truth.anatomy)
    X, G = forward_kinematics(
        CANONICAL_TREE, lengths_vector(truth.anatomy), init, with_globals=True
    )
    d0 = prob._normal_blocks(X, G)[0][0]
    damp_base = np.maximum(d0, 1e-12 * d0.max())
    lam = optimizer_module._INIT_DAMPING
    assert np.array_equal(diagonals[0], d0 + lam * damp_base)
    lam *= optimizer_module._DAMPING_INCREASE
    assert np.array_equal(diagonals[1], d0 + lam * damp_base)
    hist = fit.energy_history
    assert len(hist) >= 2
    assert all(b < a for a, b in zip(hist, hist[1:]))


@pytest.mark.parametrize("n_frames", range(1, 8))
def test_smoothness_diagonals_match_dense_operator(n_frames):
    """The O(F) diagonals equal those of D^T D for the dense (F-2) x F
    second-difference operator; for F < 3 there is no row and all vanish."""
    D = np.zeros((max(n_frames - 2, 0), n_frames))
    for r in range(n_frames - 2):
        D[r, r:r + 3] = (1.0, -2.0, 1.0)
    M = D.T @ D
    for k, got in enumerate(_second_difference_gram(n_frames)):
        assert np.array_equal(got, np.diag(M, k))
