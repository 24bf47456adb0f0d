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
import scipy.linalg

from stridelab import optimizer as optimizer_module
from stridelab import (
    CameraModel,
    StrideLabError,
    EnergyConfig,
    JointId,
    MissingModality,
    SkeletonSequence,
    compute_report,
    derive_anatomy,
    detect_steps,
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
    so3_exp,
    swing_axes,
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
    F = X.shape[0]
    present = np.ones((F, len(JointId)), dtype=bool)
    return SkeletonSequence(
        fps=fps,
        times=np.arange(F) / fps,
        indices=np.arange(F),
        points_3d=X,
        mask_3d=present,
        pixels_2d=project(X, CAMERA),
        confidence_2d=np.ones((F, len(JointId))),
        mask_2d=present,
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


def test_stopping_rule_is_scale_free(noisy_walk):
    """Scaling all four weights alike scales the energy and leaves its
    minimizer, the Marquardt steps and the relative stopping tests alone, so
    the fit takes the same iterations and stops for the same reason."""
    seq, truth = noisy_walk
    base = EnergyConfig()
    base = replace(base, w_proj=base.resolved_w_proj(CAMERA))
    fits = [
        optimize(seq, truth.anatomy, CAMERA, cfg=replace(
            base, w_ik=s * base.w_ik, w_proj=s * base.w_proj,
            w_smooth=s * base.w_smooth, w_depth=s * base.w_depth))
        for s in (1e-3, 1.0, 1e3)
    ]
    assert len({fit.iterations for fit in fits}) == 1
    assert len({fit.stop_reason for fit in fits}) == 1
    assert fits[0].converged


def test_iteration_cap_is_not_converged(noisy_walk):
    seq, truth = noisy_walk
    fit = optimize(seq, truth.anatomy, CAMERA, cfg=EnergyConfig(max_iterations=1))
    assert fit.stop_reason == "iteration_cap"
    assert fit.converged is False
    assert fit.iterations == 1
    assert len(fit.energy_history) == 2


def test_refit_from_a_converged_fit_stops_at_once(noisy_walk, fitted_noisy):
    """A converged fit's own parameters are a minimum to within the
    tolerance: a refit from them stops within one iteration."""
    seq, truth = noisy_walk
    assert fitted_noisy.converged
    refit = optimize(seq, truth.anatomy, CAMERA, init=fitted_noisy.params)
    assert refit.stop_reason in ("decrease", "flat")
    assert refit.converged is True
    assert refit.iterations <= 1
    assert refit.final_energy <= fitted_noisy.final_energy * (1 + 1e-12)


def test_failed_factorizations_exhaust_the_damping(noisy_walk, monkeypatch):
    """When no damping gives a positive definite matrix, the fit stops with
    the damping exhausted and returns its initialization unchanged."""
    seq, truth = noisy_walk
    seq = _head(seq, 12)

    def never_positive_definite(ab, **kwargs):
        raise np.linalg.LinAlgError("not positive definite")

    monkeypatch.setattr(scipy.linalg, "cholesky_banded", never_positive_definite)
    init = initial_params(seq, truth.anatomy)
    fit = optimize(seq, truth.anatomy, CAMERA, init=init)
    assert fit.stop_reason == "damping_exhausted"
    assert fit.converged is False
    assert fit.iterations == 0
    assert fit.energy_history == (fit.final_energy,)
    assert fit.final_energy == energy(init, seq, truth.anatomy, CAMERA)


def _exact_3d_only(n_frames, seed):
    """A 3D-only sequence observed exactly from FK, with its parameters."""
    params = _params(np.random.default_rng(seed), n_frames, spread=0.15)
    seq = _sequence_from_params(params)
    return replace(seq, pixels_2d=None, confidence_2d=None, mask_2d=None), params


def test_zero_energy_stops_as_flat():
    """At an energy of exactly 0 the relative tests have no room: the zero
    step changes nothing and stops as flat, not as damping exhausted."""
    seq, params = _exact_3d_only(1, seed=23)
    fit = optimize(seq, ANATOMY, CAMERA, init=params)
    assert fit.final_energy == 0.0
    assert fit.stop_reason == "flat"
    assert fit.converged is True
    assert fit.iterations == 1


def test_zero_band_diagonal_stops_as_flat():
    """With every weight zero no parameter moves any residual."""
    seq, params = _exact_3d_only(3, seed=29)
    cfg = EnergyConfig(w_ik=0.0, w_proj=0.0, w_smooth=0.0, w_depth=0.0)
    fit = optimize(seq, ANATOMY, CAMERA, cfg=cfg)
    assert fit.stop_reason == "flat"
    assert fit.converged is True
    assert fit.iterations == 0


def test_optimize_preserves_bone_lengths(fitted_clean, clean_walk):
    _, truth = clean_walk
    X = fitted_clean.points_3d
    for child, parent in enumerate(CANONICAL_TREE.parents):
        if parent < 0:
            continue
        got = np.linalg.norm(X[:, child] - X[:, parent], axis=1)
        want = truth.anatomy.length(JointId(child))
        assert np.abs(got - want).max() < 1e-6


def test_frames_view_lists_every_fitted_joint(fitted_clean, clean_walk):
    """OptimizedSequence.frames: one record per fitted frame, every joint."""
    seq, _ = clean_walk
    frames = fitted_clean.frames
    assert [fr.index for fr in frames] == seq.indices.tolist()
    assert [fr.time_s for fr in frames] == seq.times.tolist()
    X = np.array([[fr.joints[j] for j in JointId] for fr in frames])
    assert np.array_equal(X, fitted_clean.points_3d)


def test_optimize_is_deterministic():
    rng = np.random.default_rng(17)
    params = _params(rng, 3, spread=0.15)
    seq = _sequence_from_params(params, jitter3d=0.01, rng=rng)
    first = optimize(seq, ANATOMY, CAMERA)
    second = optimize(seq, ANATOMY, CAMERA)
    assert first.final_energy == second.final_energy
    assert first.iterations == second.iterations
    assert np.array_equal(first.points_3d, second.points_3d)


def test_optimize_denoises(noisy_walk, clean_walk, fitted_noisy):
    """Fitting noisy observations should land closer to the clean positions
    than the observations themselves are."""
    clean = clean_walk[0].points_3d
    noisy = noisy_walk[0].points_3d
    fit = fitted_noisy.points_3d
    rmse_in = np.sqrt(np.mean((noisy - clean) ** 2))
    rmse_out = np.sqrt(np.mean((fit - clean) ** 2))
    assert rmse_out < 0.8 * rmse_in


def test_initial_params_reconstruct_clean_walk(clean_walk):
    seq, truth = clean_walk
    init = initial_params(seq, truth.anatomy)
    X = forward_kinematics(
        CANONICAL_TREE, lengths_vector(truth.anatomy), init
    )
    assert np.max(np.abs(X - seq.points_3d)) < 1e-6


def test_camera_distance_tracks_root(fitted_clean):
    d = np.array(fitted_clean.camera_distance_m)
    assert d.shape == (len(fitted_clean),)
    roots = fitted_clean.points_3d[:, JointId.PELVIS.value]
    assert np.allclose(d, np.linalg.norm(roots, axis=1), atol=1e-9)


def _worst_rel_error(fitted, truth):
    rep = compute_report(detect_steps(fitted))
    return max(abs(rep.gait_speed_m_s / truth.speed_m_s - 1),
               abs(rep.cadence_steps_min / truth.cadence_steps_min - 1),
               abs(rep.step_length_cm / (100 * truth.step_length_m) - 1))


def test_three_d_only_stream_fits(noisy_walk, fitted_noisy):
    """Without a 2D block the fit runs on the 3D term alone.  On this walk
    it takes as many iterations as the two-stream fit, and the worst gait
    parameter error moves by under 0.003 percentage points; the bounds
    below leave room for that."""
    seq, truth = noisy_walk
    only_3d = replace(seq, pixels_2d=None, confidence_2d=None, mask_2d=None)
    fit = optimize(only_3d, truth.anatomy)
    assert fit.converged
    assert fit.energy_breakdown["proj"] == 0.0
    assert abs(fit.iterations - fitted_noisy.iterations) <= 2
    assert np.all(np.diff(fit.energy_history) <= 0)
    err, err_both = _worst_rel_error(fit, truth), _worst_rel_error(fitted_noisy, truth)
    assert err < 0.05
    assert abs(err - err_both) < 5e-4


def test_two_d_only_stream_is_missing_modality(noisy_walk):
    """Depth cannot come from 2D joints alone: a stream without 3D joints is
    refused with a typed error that says so, by the fit and by the
    initialization."""
    seq, truth = noisy_walk
    for no_3d in (replace(seq, points_3d=None, mask_3d=None),
                  replace(seq, mask_3d=np.zeros_like(seq.mask_3d))):
        with pytest.raises(MissingModality, match="depth"):
            optimize(no_3d, truth.anatomy)
        with pytest.raises(MissingModality, match="depth"):
            initial_params(no_3d, truth.anatomy)


def test_wrong_param_shape_rejected(clean_walk):
    seq, truth = clean_walk
    bad = PoseParams(
        translations=np.zeros((3, 3)) + [0, 0, 4],
        rotations=np.zeros((3, CANONICAL_TREE.n_rotations, 3)),
    )
    with pytest.raises(StrideLabError):
        energy(bad, seq, truth.anatomy)


_FRAME_ARRAYS = ("times", "indices", "points_3d", "mask_3d",
                 "pixels_2d", "confidence_2d", "mask_2d")


def _head(seq, n_frames):
    """The first n_frames frames of a sequence."""
    return replace(seq, **{name: getattr(seq, name)[:n_frames]
                           for name in _FRAME_ARRAYS if getattr(seq, name) is not None})


def _dense_normal_equations(prob, X, G):
    """J^T W J and J^T W r of the whole sequence, built row by row from the
    residual Jacobians of the four energy terms: an oracle written
    independently of the band builder."""
    F, P = prob.F, prob.tree.params_per_frame
    cam = prob.camera
    jpos = position_jacobian(prob.tree, X, G)  # (F, J, 3, P)
    rows, weights, resid = [], [], []

    def add(w, r, *parts):
        row = np.zeros(F * P)
        for f, coef, jac in parts:
            row[f * P:(f + 1) * P] += coef * jac
        rows.append(row)
        weights.append(w)
        resid.append(r)

    for f in range(F):
        for j in range(prob.tree.n_joints):
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
        for j in range(prob.tree.n_joints):
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


def _band_to_lower(ab, n):
    """The lower triangle of the n x n matrix held in lower band storage ab."""
    lower = np.zeros((n, n))
    for k in range(min(ab.shape[0], n)):
        j = np.arange(n - k)
        lower[j + k, j] = ab[k, j]
    return lower


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
    from_band = _band_to_lower(ab, n)
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


def test_swing_band_is_the_projected_dense_normal_matrix(step_tree):
    """The solver's band is T^T H T and its right-hand side T^T g, H and g the
    dense reference in left-multiplied increments and T the block-diagonal
    map from swing steps to increments (per frame the identity on the root
    translation and, per rotated joint, its kept step axes)."""
    tree, lengths = step_tree
    rng = np.random.default_rng(31)
    F, J = 5, tree.n_joints

    def pose():
        return PoseParams(
            translations=rng.normal(0.0, 0.2, (F, 3)) + [0.0, 0.0, 4.0],
            rotations=rng.normal(0.0, 0.5, (F, tree.n_rotations, 3)),
        )

    truth = forward_kinematics(tree, lengths, pose())
    y2 = np.stack([CAMERA.fx * truth[..., 0] / truth[..., 2] + CAMERA.cx,
                   CAMERA.fy * truth[..., 1] / truth[..., 2] + CAMERA.cy], axis=-1)
    conf = np.where(rng.random((F, J)) < 0.8, rng.uniform(0.2, 1.0, (F, J)), 0.0)
    prob = optimizer_module.EnergyProblem(
        tree, lengths, truth + rng.normal(0.0, 0.02, truth.shape),
        rng.random((F, J)) < 0.8, y2 + rng.normal(0.0, 2.0, y2.shape), conf, CAMERA,
        w_ik=1.0, w_proj=CAMERA.fx ** -2, w_smooth=0.1, w_depth=0.1,
    )
    params = pose()
    X, G = forward_kinematics(tree, lengths, params, with_globals=True)
    H, g = _dense_normal_equations(prob, X, G)

    axes = swing_axes(tree, so3_exp(params.rotations))
    layout = tree.step_layouts[True]
    P, Q = tree.params_per_frame, layout.params_per_frame
    T = np.zeros((F * P, F * Q))
    for f in range(F):
        T[f * P:f * P + 3, f * Q:f * Q + 3] = np.eye(3)
        for s, i in zip(*np.nonzero(layout.columns >= 0)):
            row = f * P + 3 + 3 * s
            T[row:row + 3, f * Q + layout.columns[s, i]] = axes[f, s, :, i]
    want_H, want_g = T.T @ H @ T, T.T @ g

    ab, jtr = prob._normal_blocks(X, G, axes, swing=True)
    assert ab.shape == (3 * Q, F * Q)
    got = _band_to_lower(ab, F * Q)
    assert np.abs(got - np.tril(want_H)).max() <= 1e-12 * np.abs(want_H).max()
    assert np.abs(jtr.reshape(-1) - want_g).max() <= 1e-12 * np.abs(want_g).max()


def _thinned(walk, rate=0.2, seed=4):
    """The walk with a fraction of its 2D joints removed, as the walker's
    dropout does, and random 2D confidences, so the projection weights
    differ from frame to frame."""
    seq, truth = walk
    rng = np.random.default_rng(seed)
    keep = rng.random(seq.mask_2d.shape) >= rate
    conf = rng.uniform(0.2, 1.0, seq.mask_2d.shape)
    return replace(seq, confidence_2d=conf, mask_2d=seq.mask_2d & keep), truth


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
    """gradient() reaches the chunked assembly through axes=, in the
    exponential-map layout."""
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
    assert len(seq) >= 148
    item = np.dtype(np.float64).itemsize
    # The assembly below builds the band of increments, the solver its own
    # in the swing layout.
    P = CANONICAL_TREE.params_per_frame
    Q = CANONICAL_TREE.step_layouts[True].params_per_frame
    bands, assembly, solve = [], [], []
    for n_frames in (64, 148):
        part = _head(seq, n_frames)
        prob = _problem_for(part, truth.anatomy, CAMERA, EnergyConfig())
        init = initial_params(part, truth.anatomy)
        X, G = forward_kinematics(
            CANONICAL_TREE, lengths_vector(truth.anatomy), init, with_globals=True
        )
        band = 3 * P * n_frames * P * item
        peak, _ = _traced_peak(lambda: prob._normal_blocks(X, G))
        assembly.append(peak - band)
        # Two iterations: the second assembles into the band the first
        # factored.
        band = 3 * Q * n_frames * Q * item
        peak, (_, info) = _traced_peak(
            lambda: prob.solve(init, EnergyConfig(max_iterations=2))
        )
        assert info["iterations"] == 2
        bands.append(band)
        solve.append(peak - band)
    assert abs(assembly[1] - assembly[0]) < 1e6
    # The solve also keeps a few per-frame pose arrays (X, G, rotations, step
    # axes and their trial copies), well under half a band per frame.
    assert solve[1] - solve[0] < 0.5 * (bands[1] - bands[0])


def test_cholesky_failure_raises_damping(noisy_walk, monkeypatch):
    seq, truth = noisy_walk
    seq = _head(seq, 12)
    real = scipy.linalg.cholesky_banded
    diagonals = []

    def fail_once(ab, **kwargs):
        diagonals.append(ab[0].copy())
        if len(diagonals) == 1:
            raise np.linalg.LinAlgError("not positive definite")
        return real(ab, **kwargs)

    monkeypatch.setattr(scipy.linalg, "cholesky_banded", fail_once)
    fit = optimize(seq, truth.anatomy, CAMERA)
    assert len(diagonals) >= 2
    # The retry solves the same matrix with a larger damping.
    assert np.all(diagonals[1] >= diagonals[0])
    assert np.any(diagonals[1] > diagonals[0])
    # Both attempts damp the band assembled at the initial pose in the
    # solver's swing layout, the retry with the larger damping alone: it is
    # assembled again, not the failed attempt's matrix damped once more.
    prob = _problem_for(seq, truth.anatomy, CAMERA, EnergyConfig())
    init = initial_params(seq, truth.anatomy)
    X, G = forward_kinematics(
        CANONICAL_TREE, lengths_vector(truth.anatomy), init, with_globals=True
    )
    axes = swing_axes(CANONICAL_TREE, so3_exp(init.rotations))
    d0 = prob._normal_blocks(X, G, axes, swing=True)[0][0]
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


@pytest.mark.parametrize("kwargs, field", [
    ({"tolerance": 1e-12}, "tolerance"),
    ({"tolerance": 1.0}, "tolerance"),
    ({"tolerance": math.nan}, "tolerance"),
    ({"max_iterations": 0}, "max_iterations"),
    ({"w_ik": -1.0}, "w_ik"),
    ({"w_proj": -1e-6}, "w_proj"),
    ({"w_smooth": math.nan}, "w_smooth"),
    ({"w_depth": -0.1}, "w_depth"),
])
def test_energy_config_checks_its_fields(kwargs, field):
    """EnergyConfig built directly, as a script would, holds the same ranges
    as the [energy] section: a tolerance below 1e-10 would run every fit to
    the iteration cap."""
    with pytest.raises(ValueError, match=rf"^{field}: "):
        EnergyConfig(**kwargs)


def test_energy_config_accepts_its_range():
    cfg = EnergyConfig(w_ik=0.0, w_proj=None, w_smooth=0.0, w_depth=0.0,
                       max_iterations=1, tolerance=1e-10)
    assert cfg.w_proj is None
    assert EnergyConfig(w_proj=0.0, tolerance=0.999).tolerance == 0.999
