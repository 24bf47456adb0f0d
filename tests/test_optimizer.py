"""Energy model and solver.

Two oracles anchor this file: a direct summation of the two residual terms
(independent of the vectorized implementation) and central finite
differences for the gradient.
"""

import gc
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from stridelab import optimizer as optimizer_module
from stridelab import (
    CameraModel,
    DegenerateInput,
    StrideLabError,
    EnergyConfig,
    JointId,
    MissingModality,
    NonPositiveDepth,
    SkeletonSequence,
    WalkerSpec,
    analyze_sequence,
    derive_anatomy,
    detect_steps,
    energy,
    energy_breakdown,
    energy_gradient,
    generate,
    initial_params,
    load_config,
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
from stridelab.report import PARAMETERS, truth_values

ANATOMY = derive_anatomy(1.72)
LENGTHS = lengths_vector(ANATOMY)
CAMERA = CameraModel.default()
CONFIG = load_config()


def _params(rng, n_frames, spread=0.3):
    nr = CANONICAL_TREE.n_rotations
    return PoseParams(
        translations=rng.normal(0.0, 0.2, (n_frames, 3)) + [0, 0, 4.0],
        rotations=so3_exp(rng.normal(0.0, spread, (n_frames, nr, 3))),
    )


def _sequence_from_params(params, fps=30.0, jitter3d=0.0, rng=None):
    """Build a two-stream sequence whose 3D/2D observations come from FK;
    the fit reads the 3D stream alone."""
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
    total = 0.0
    for f, fr in enumerate(seq.frames_3d):
        for j, p in fr.joints.items():
            d = X[f, j.value] - np.array(p)
            total += float(d @ d)
    if X.shape[0] >= 3:
        dd = X[2:] - 2.0 * X[1:-1] + X[:-2]
        total += cfg.w_smooth * float(np.sum(dd * dd))
    return total


def test_energy_matches_direct_summation():
    rng = np.random.default_rng(5)
    params = _params(rng, 3)
    seq = _sequence_from_params(params)
    probe = _params(rng, 3)
    cfg = EnergyConfig(w_smooth=0.3)
    got = energy(probe, seq, ANATOMY, cfg=cfg)
    want = _energy_oracle(probe, seq, cfg)
    assert got == pytest.approx(want, rel=1e-9)


def test_energy_zero_at_exact_data():
    rng = np.random.default_rng(1)
    params = _params(rng, 1)
    seq = _sequence_from_params(params)
    cfg = EnergyConfig(w_smooth=0.0)
    assert energy(params, seq, ANATOMY, cfg=cfg) < 1e-16


def test_breakdown_sums_to_energy():
    rng = np.random.default_rng(9)
    params = _params(rng, 4)
    seq = _sequence_from_params(params)
    probe = _params(rng, 4)
    terms = energy_breakdown(probe, seq, ANATOMY)
    assert set(terms) == {"ik", "smooth"}
    total = energy(probe, seq, ANATOMY)
    assert sum(terms.values()) == pytest.approx(total, rel=1e-12)
    assert all(v >= 0 for v in terms.values())


def test_energy_linear_in_weights():
    """E = E_ik + w_smooth E_smooth: the energy is linear in its one
    weight, and its ik term does not depend on it."""
    rng = np.random.default_rng(2)
    params = _params(rng, 3)
    seq = _sequence_from_params(params)
    probe = _params(rng, 3)
    e = {w: energy(probe, seq, ANATOMY, cfg=EnergyConfig(w_smooth=w))
         for w in (0.0, 0.1, 0.2)}
    assert e[0.2] - e[0.1] == pytest.approx(e[0.1] - e[0.0], rel=1e-9)
    assert e[0.1] > e[0.0] > 0.0
    terms = energy_breakdown(probe, seq, ANATOMY, cfg=EnergyConfig(w_smooth=0.2))
    assert terms["ik"] == e[0.0]


def _fd_gradient(params, seq, cfg, h=1e-6):
    """Central finite differences in energy_gradient's layout: per frame the
    root translation, then per rotation R the increment d of the turn
    R -> exp(hat(d)) R."""
    F, P = params.n_frames, CANONICAL_TREE.params_per_frame
    g = np.empty(F * P)
    for k in range(g.size):
        f, i = divmod(k, P)
        moved = []
        for sign in (1.0, -1.0):
            t, rot = params.translations.copy(), params.rotations.copy()
            if i < 3:
                t[f, i] += sign * h
            else:
                s, a = divmod(i - 3, 3)
                rot[f, s] = so3_exp(sign * h * np.eye(3)[a]) @ rot[f, s]
            moved.append(energy(PoseParams(t, rot), seq, ANATOMY, cfg=cfg))
        g[k] = (moved[0] - moved[1]) / (2 * h)
    return g


@pytest.mark.parametrize("n_frames", [2, 5])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_gradient_matches_finite_differences(seed, n_frames):
    """Two frames have no smoothness term; five exercise it."""
    rng = np.random.default_rng(seed)
    params = _params(rng, n_frames)
    seq = _sequence_from_params(params)
    probe = _params(rng, n_frames)
    cfg = EnergyConfig()
    got = energy_gradient(probe, seq, ANATOMY, cfg=cfg)
    want = _fd_gradient(probe, seq, cfg)
    assert np.linalg.norm(got - want) / np.linalg.norm(want) < 1e-4


def test_optimize_monotone_and_converged(fitted_clean):
    hist = fitted_clean.energy_history
    assert len(hist) >= 2
    assert all(b <= a + 1e-12 for a, b in zip(hist, hist[1:]))
    assert fitted_clean.converged


def test_stopping_rule_is_scale_free(noisy_walk):
    """Measuring the walk in other units (the 3D joints, the bones and the
    start's root translations scaled by s) scales the energy by s^2 and
    leaves its minimizer, the Marquardt steps and the relative stopping
    tests alone, so the fit takes the same iterations and stops for the
    same reason.  A data weight next to w_smooth would only have rescaled
    the energy in the same way."""
    seq, truth = noisy_walk
    cfg = EnergyConfig()
    prob = _problem_for(seq, truth.anatomy, cfg)
    init = initial_params(seq, truth.anatomy)
    infos = []
    for s in (1e-3, 1.0, 1e3):
        scaled = optimizer_module.EnergyProblem(
            prob.tree, s * prob.lengths, s * prob.y3, prob.m3, w_smooth=cfg.w_smooth)
        _, info = scaled.solve(PoseParams(s * init.translations, init.rotations), cfg)
        infos.append(info)
    assert len({info["iterations"] for info in infos}) == 1
    assert len({info["stop_reason"] for info in infos}) == 1
    assert infos[0]["stop_reason"] in optimizer_module.CONVERGED_REASONS


def test_iteration_cap_is_not_converged(noisy_walk):
    seq, truth = noisy_walk
    fit = optimize(seq, truth.anatomy, cfg=EnergyConfig(max_iterations=1))
    assert fit.stop_reason == "iteration_cap"
    assert fit.converged is False
    assert fit.iterations == 1
    assert len(fit.energy_history) == 2


def test_refit_from_a_converged_fit_stops_at_once(noisy_walk, fitted_noisy):
    """A converged fit's own parameters are a minimum to within the
    tolerance: a refit from them stops within one iteration."""
    seq, truth = noisy_walk
    assert fitted_noisy.converged
    refit = optimize(seq, truth.anatomy, init=fitted_noisy.params)
    assert refit.stop_reason in ("decrease", "flat")
    assert refit.converged is True
    assert refit.iterations <= 1
    assert refit.energy_history[-1] <= fitted_noisy.energy_history[-1] * (1 + 1e-12)


def test_failed_factorizations_exhaust_the_damping(noisy_walk, monkeypatch):
    """When no damping gives a positive definite matrix, the fit stops with
    the damping exhausted and returns its initialization unchanged."""
    seq, truth = noisy_walk
    seq = _head(seq, 12)

    def never_positive_definite(ab, **kwargs):
        return ab, 1  # LAPACK's info: the first leading minor is not positive definite

    monkeypatch.setattr(optimizer_module._lapack(), "dpbtrf", never_positive_definite)
    init = initial_params(seq, truth.anatomy)
    fit = optimize(seq, truth.anatomy, init=init)
    assert fit.stop_reason == "damping_exhausted"
    assert fit.converged is False
    assert fit.iterations == 0
    assert fit.energy_history == (energy(init, seq, truth.anatomy),)


def _exact_3d_only(n_frames, seed):
    """A 3D-only sequence observed exactly from FK, with its parameters."""
    params = _params(np.random.default_rng(seed), n_frames, spread=0.15)
    seq = _sequence_from_params(params)
    return replace(seq, pixels_2d=None, confidence_2d=None, mask_2d=None), params


def test_zero_energy_stops_as_flat():
    """At an energy of exactly 0 the relative tests have no room: the zero
    step changes nothing and stops as flat, not as damping exhausted."""
    seq, params = _exact_3d_only(1, seed=23)
    fit = optimize(seq, ANATOMY, init=params)
    assert fit.energy_history[-1] == 0.0
    assert fit.stop_reason == "flat"
    assert fit.converged is True
    assert fit.iterations == 1


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
    """The fitted walk is a SkeletonSequence with the input's header and
    frames, every joint present and no 2D block; OptimizedSequence.frames
    is its frames_3d view, one record per fitted frame with every joint;
    and step detection reads it as it reads a plain sequence of its
    arrays."""
    seq, _ = clean_walk
    fitted = fitted_clean
    assert isinstance(fitted, SkeletonSequence)
    assert (fitted.fps, fitted.subject_height_m, fitted.source) == (
        seq.fps, seq.subject_height_m, seq.source)
    assert np.array_equal(fitted.times, seq.times)
    assert np.array_equal(fitted.indices, seq.indices)
    assert fitted.mask_3d.all() and fitted.pixels_2d is None
    frames = fitted.frames
    assert frames == fitted.frames_3d
    assert [fr.index for fr in frames] == seq.indices.tolist()
    assert [fr.time_s for fr in frames] == seq.times.tolist()
    X = np.array([[fr.joints[j] for j in JointId] for fr in frames])
    assert np.array_equal(X, fitted.points_3d)
    plain = SkeletonSequence(fps=fitted.fps, times=fitted.times, indices=fitted.indices,
                             points_3d=fitted.points_3d, mask_3d=fitted.mask_3d)
    got, want = detect_steps(fitted), detect_steps(plain)
    assert (got.events, got.walking_direction, got.travel_m, got.clusters) == (
        want.events, want.walking_direction, want.travel_m, want.clusters)
    assert np.array_equal(got.signal.values, want.signal.values)
    assert np.array_equal(got.root_along, want.root_along)


def test_optimize_is_deterministic():
    rng = np.random.default_rng(17)
    params = _params(rng, 3, spread=0.15)
    seq = _sequence_from_params(params, jitter3d=0.01, rng=rng)
    first = optimize(seq, ANATOMY)
    second = optimize(seq, ANATOMY)
    assert first.energy_history == second.energy_history
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


def _worst_rel_error(rep, truth):
    return max(abs(getattr(rep, name) / value - 1)
               for name, value in truth_values(vars(truth)).items())


def test_three_d_only_stream_fits(noisy_walk):
    """The fit reads no 2D joint: without the 2D block it gives bit for bit
    the fit and the report it gives with it."""
    seq, truth = noisy_walk
    only_3d = replace(seq, pixels_2d=None, confidence_2d=None, mask_2d=None)
    fit, rep = analyze_sequence(only_3d, CONFIG)
    both, rep_both = analyze_sequence(seq, CONFIG)
    assert fit.converged
    assert np.array_equal(fit.points_3d, both.points_3d)
    assert fit.energy_history == both.energy_history
    assert (fit.iterations, fit.stop_reason) == (both.iterations, both.stop_reason)
    assert rep == rep_both
    assert _worst_rel_error(rep, truth) < 0.05


def test_frame_without_3d_joints_is_degenerate(noisy_walk):
    """A frame whose 3D joint map is empty is refused, naming the frame,
    whatever its 2D joints: the fit reads nothing else in it."""
    seq, truth = noisy_walk
    mask_3d = seq.mask_3d.copy()
    mask_3d[[3, 5]] = False
    holed = replace(seq, mask_3d=mask_3d)
    for fit in (optimize, initial_params):
        with pytest.raises(DegenerateInput, match=r"^frame\(s\) \[3, 5\] carry no 3D joint$"):
            fit(holed, truth.anatomy)


def test_initial_root_without_a_pelvis_is_the_joint_centroid(clean_walk):
    """With no pelvis in any frame, the initial root of each frame is the
    centroid of its 3D joints."""
    seq, truth = clean_walk
    mask_3d = seq.mask_3d.copy()
    mask_3d[:, JointId.PELVIS.value] = False
    init = initial_params(replace(seq, mask_3d=mask_3d), truth.anatomy)
    want = seq.points_3d[:, 1:].mean(axis=1)
    assert np.abs(init.translations - want).max() < 1e-12


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


def test_a_fit_behind_the_image_plane_is_refused(clean_walk):
    """The fitted walk is validated like a parsed one.  The clean walk moved
    along z until its nearest joint is 0.1 mm in front of the image plane
    is a valid sequence, but its fit places the right wrist of frame 0 at
    z = -0.26 mm, so optimize raises NonPositiveDepth naming that joint."""
    seq, truth = clean_walk
    points = seq.points_3d.copy()
    points[..., 2] += 1e-4 - points[..., 2].min()
    near = replace(seq, points_3d=points)
    with pytest.raises(NonPositiveDepth,
                       match=r"^3D joint Right Wrist in frame 0: depth -0\.00026"):
        optimize(near, truth.anatomy)


def test_wrong_param_shape_rejected(clean_walk):
    seq, truth = clean_walk
    bad = PoseParams(
        translations=np.zeros((3, 3)) + [0, 0, 4],
        rotations=np.broadcast_to(np.eye(3), (3, CANONICAL_TREE.n_rotations, 3, 3)),
    )
    with pytest.raises(StrideLabError):
        energy(bad, seq, truth.anatomy)


_FRAME_ARRAYS = ("times", "indices", "points_3d", "mask_3d",
                 "pixels_2d", "confidence_2d", "mask_2d")


def _head(seq, n_frames):
    """The first n_frames frames of a sequence."""
    return replace(seq, **{name: getattr(seq, name)[:n_frames]
                           for name in _FRAME_ARRAYS if getattr(seq, name) is not None})


def _dense_normal_equations(prob, X, G, axes):
    """J^T W J and J^T W r of the whole sequence in the step layout about
    axes, built row by row from the residual Jacobians of the two energy
    terms: an oracle written independently of the band builder."""
    F, P = prob.F, prob.tree.step_layout.params_per_frame
    jpos = position_jacobian(prob.tree, X, G, axes)  # (F, J, 3, P)
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
                    add(1.0, X[f, j, c] - prob.y3[f, j, c], (f, 1.0, jpos[f, j, c]))
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
    """The solver's band, at the swing axes of the walk's initial pose.
    F = 1 and 2 have no smoothness term and F = 3 a single second
    difference; the band storage must still hold the lower triangle of the
    dense matrix (to round-off) and exact zeros everywhere else."""
    seq, truth = noisy_walk
    seq = _head(seq, n_frames)
    cfg = EnergyConfig()
    prob = _problem_for(seq, truth.anatomy, cfg)
    init = initial_params(seq, truth.anatomy)
    X, G = forward_kinematics(
        CANONICAL_TREE, lengths_vector(truth.anatomy), init, with_globals=True
    )
    axes = swing_axes(CANONICAL_TREE, init.rotations)
    H, g = _dense_normal_equations(prob, X, G, axes)
    ab = prob._normal_blocks(X, G, axes)
    jtr = prob._jtr(X, G, prob._weighted_residuals(X), axes)

    layout = CANONICAL_TREE.step_layout
    P, kd = layout.params_per_frame, layout.bandwidth
    n = H.shape[0]
    assert ab.shape == (kd + 1, n)
    from_band = _band_to_lower(ab, n)
    assert np.abs(from_band - np.tril(H)).max() <= 1e-12 * np.abs(H).max()
    # Blocks three or more frames apart are structurally zero.
    frame = np.arange(n) // P
    assert not from_band[frame[:, None] - frame[None, :] >= 3].any()
    # Storage cells past the matrix end (bottom-right corner) stay zero.
    for k in range(1, kd + 1):
        assert not ab[k, max(n - k, 0):].any()
    assert np.abs(jtr.reshape(-1) - g).max() <= 1e-12 * np.abs(g).max()

    d0 = ab[0].copy()
    damp_base = np.maximum(d0, 1e-12 * d0.max())
    for lam in (1e-3, 1.0):
        got = prob._damped_solve(ab.copy(order="F"), lam * damp_base, -g)
        want = np.linalg.solve(H + np.diag(lam * damp_base), -g)
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)


def _random_problem(tree, lengths, rng, F):
    """A random problem of F frames on tree, with 3D masks that vary, and a
    random pose (X, G) with its swing axes."""

    def pose():
        return PoseParams(
            translations=rng.normal(0.0, 0.2, (F, 3)) + [0.0, 0.0, 4.0],
            rotations=so3_exp(rng.normal(0.0, 0.5, (F, tree.n_rotations, 3))),
        )

    truth = forward_kinematics(tree, lengths, pose())
    prob = optimizer_module.EnergyProblem(
        tree, lengths, truth + rng.normal(0.0, 0.02, truth.shape),
        rng.random((F, tree.n_joints)) < 0.8, w_smooth=0.1,
    )
    params = pose()
    X, G = forward_kinematics(tree, lengths, params, with_globals=True)
    return prob, X, G, swing_axes(tree, params.rotations)


def test_swing_band_is_the_projected_dense_normal_matrix(step_tree):
    """On every step tree, the solver's band at a random problem and pose
    is the dense reference of _dense_normal_equations at the swing axes,
    and its right-hand side that reference's."""
    tree, lengths = step_tree
    F = 5
    prob, X, G, axes = _random_problem(tree, lengths, np.random.default_rng(31), F)
    want_H, want_g = _dense_normal_equations(prob, X, G, axes)
    layout = tree.step_layout
    Q = layout.params_per_frame

    ab = prob._normal_blocks(X, G, axes)
    jtr = prob._jtr(X, G, prob._weighted_residuals(X), axes)
    assert ab.shape == (layout.bandwidth + 1, F * Q)
    got = _band_to_lower(ab, F * Q)
    assert np.abs(got - np.tril(want_H)).max() <= 1e-12 * np.abs(want_H).max()
    assert np.abs(jtr.reshape(-1) - want_g).max() <= 1e-12 * np.abs(want_g).max()


@pytest.mark.parametrize("n_frames", [3, 4, 6])
def test_swing_bandwidth_matches_the_dense_normal_matrix(step_tree, n_frames):
    """The layout's bandwidth, derived from the tree alone, is the largest
    distance of a nonzero from the diagonal of the dense swing normal
    matrix at a random pose, once two frames apart couple (F >= 3): no
    smaller band holds the matrix, and no nonzero lies outside it."""
    tree, lengths = step_tree
    rng = np.random.default_rng(41 + n_frames)
    H, _ = _dense_normal_equations(*_random_problem(tree, lengths, rng, n_frames))
    rows, cols = np.nonzero(H)
    assert np.abs(rows - cols).max() == tree.step_layout.bandwidth


def _thinned(walk, rate=0.2, seed=4):
    """The walk with a fraction of its 3D joints removed, so the ik weights
    differ from frame to frame."""
    seq, truth = walk
    keep = np.random.default_rng(seed).random(seq.mask_3d.shape) >= rate
    return replace(seq, mask_3d=seq.mask_3d & keep), truth


@pytest.mark.parametrize("n_frames", [5, 7])
@pytest.mark.parametrize("chunk", [1, 2, 3])
def test_band_across_chunk_boundaries(noisy_walk, monkeypatch, chunk, n_frames):
    """Chunks of one to three frames split F = 5 and 7 so that blocks (f + k, f)
    cross chunk edges and the last chunk is partial (5 = 2 + 2 + 1, 7 = 3 + 3
    + 1); the band, J^T r and the solve still match the dense reference, on
    a walk whose 3D masks vary between frames.  Chunks are
    the assembly's alone: J^T r is formed over the whole walk at once."""
    monkeypatch.setattr(optimizer_module, "_CHUNK_FRAMES", chunk)
    real = optimizer_module.kin.position_jacobian
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1].shape[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(optimizer_module.kin, "position_jacobian", counted)
    real_vjp = optimizer_module.kin.position_jacobian_vjp
    vjp_calls = []

    def counted_vjp(*args, **kwargs):
        vjp_calls.append(args[1].shape[0])
        return real_vjp(*args, **kwargs)

    monkeypatch.setattr(optimizer_module.kin, "position_jacobian_vjp", counted_vjp)
    test_banded_normal_matrix_and_solve_match_dense(_thinned(noisy_walk), n_frames)
    assert len(calls) == math.ceil(n_frames / chunk)
    assert max(calls) <= chunk + 2
    # J^T r~ takes one whole-walk call, whatever the chunk size.
    assert vjp_calls == [n_frames]


@pytest.mark.parametrize("chunk", [1, 2, 3])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_gradient_across_chunk_boundaries(monkeypatch, seed, chunk):
    """The solver's right-hand side J^T r~ is half the gradient (formed in
    increments) projected onto the swing axes, whatever the assembly's chunk
    size, one to three frames here."""
    monkeypatch.setattr(optimizer_module, "_CHUNK_FRAMES", chunk)
    rng = np.random.default_rng(seed)
    seq = _sequence_from_params(_params(rng, 5))
    probe = _params(rng, 5)
    prob = _problem_for(seq, ANATOMY, EnergyConfig())
    X, G = forward_kinematics(CANONICAL_TREE, LENGTHS, probe, with_globals=True)
    axes = swing_axes(CANONICAL_TREE, probe.rotations)
    got = prob._jtr(X, G, prob._weighted_residuals(X), axes)
    gradient = prob.gradient(probe).reshape(5, -1)
    want = CANONICAL_TREE.step_layout.project(gradient / 2, axes)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("n_frames", [2, 3, 7])
def test_band_rewritten_in_place_matches_a_fresh_one(noisy_walk, n_frames):
    """solve() reuses one band: writing a pose's band over another pose's,
    or over the Cholesky factor a damped solve leaves in it, must leave
    exactly what a freshly zeroed band holds, also with F = 2, where no
    smoothness block rewrites the factor's off-diagonal cells, and with F = 7, where
    the blocks two frames apart are written only inside the band."""
    seq, truth = noisy_walk
    seq = _head(seq, n_frames)
    prob = _problem_for(seq, truth.anatomy, EnergyConfig())
    lengths = lengths_vector(truth.anatomy)
    init = initial_params(seq, truth.anatomy)
    other = PoseParams(init.translations + 0.05, init.rotations.swapaxes(-1, -2))
    X, G = forward_kinematics(CANONICAL_TREE, lengths, init, with_globals=True)
    X2, G2 = forward_kinematics(CANONICAL_TREE, lengths, other, with_globals=True)
    axes = swing_axes(CANONICAL_TREE, init.rotations)
    stale = prob._normal_blocks(X2, G2, swing_axes(CANONICAL_TREE, other.rotations))
    reused = prob._normal_blocks(X, G, axes, out=stale)
    fresh = prob._normal_blocks(X, G, axes)
    assert reused is stale
    assert np.array_equal(reused, fresh)

    d0 = fresh[0].copy()
    prob._damped_solve(reused, 1e-3 * d0, np.ones(d0.size))
    assert not np.array_equal(reused, fresh)
    over_factor = prob._normal_blocks(X, G, axes, out=reused)
    assert over_factor is reused
    assert np.array_equal(over_factor, fresh)


def _traced_peak(fn):
    """Peak bytes traced while fn runs, above what was traced before it, and
    fn's result.  fn runs once untraced first, and a full collection then
    resets the collector's counts, so the window traces the same work
    whatever ran before: no first-call work (a lazy import or cache, such
    as the LAPACK extension's load, 0.7 MB at the first solve of a
    process), and any collection inside it falls at the same point."""
    fn()
    gc.collect()
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
    layout = CANONICAL_TREE.step_layout
    bands, assembly, solve = [], [], []
    for n_frames in (64, 148):
        part = _head(seq, n_frames)
        prob = _problem_for(part, truth.anatomy, EnergyConfig())
        init = initial_params(part, truth.anatomy)
        X, G = forward_kinematics(
            CANONICAL_TREE, lengths_vector(truth.anatomy), init, with_globals=True
        )
        axes = swing_axes(CANONICAL_TREE, init.rotations)
        band = (layout.bandwidth + 1) * n_frames * layout.params_per_frame * item
        peak, _ = _traced_peak(lambda: prob._normal_blocks(X, G, axes))
        assembly.append(peak - band)
        # Two iterations: the second assembles into the band the first
        # factored.
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
    lapack = optimizer_module._lapack()
    real = lapack.dpbtrf
    diagonals = []

    def fail_once(ab, **kwargs):
        diagonals.append(ab[0].copy())
        if len(diagonals) == 1:
            return ab, 1  # LAPACK's info: not positive definite
        return real(ab, **kwargs)

    monkeypatch.setattr(lapack, "dpbtrf", fail_once)
    fit = optimize(seq, truth.anatomy)
    assert len(diagonals) >= 2
    # The retry solves the same matrix with a larger damping.
    assert np.all(diagonals[1] >= diagonals[0])
    assert np.any(diagonals[1] > diagonals[0])
    # Both attempts damp the band assembled at the initial pose in the
    # solver's swing layout, the retry with the larger damping alone: it is
    # assembled again, not the failed attempt's matrix damped once more.
    prob = _problem_for(seq, truth.anatomy, EnergyConfig())
    init = initial_params(seq, truth.anatomy)
    X, G = forward_kinematics(
        CANONICAL_TREE, lengths_vector(truth.anatomy), init, with_globals=True
    )
    axes = swing_axes(CANONICAL_TREE, init.rotations)
    d0 = prob._normal_blocks(X, G, axes)[0]
    damp_base = np.maximum(d0, 1e-12 * d0.max())
    lam = optimizer_module._INIT_DAMPING
    assert np.array_equal(diagonals[0], d0 + lam * damp_base)
    lam *= optimizer_module._DAMPING_INCREASE
    assert np.array_equal(diagonals[1], d0 + lam * damp_base)
    hist = fit.energy_history
    assert len(hist) >= 2
    assert all(b < a for a, b in zip(hist, hist[1:]))


def test_banded_factor_and_solve_are_scipys(noisy_walk):
    """The solver calls LAPACK's dpbtrf and dpbtrs on scipy's extension
    directly, as scipy.linalg.cholesky_banded and cho_solve_banded do: on
    the damped band of NOISY_SPEC's initial pose, factor and solution are
    bit-equal to scipy's."""
    import scipy.linalg

    seq, truth = noisy_walk
    prob = _problem_for(seq, truth.anatomy, EnergyConfig())
    init = initial_params(seq, truth.anatomy)
    X, G = forward_kinematics(
        CANONICAL_TREE, lengths_vector(truth.anatomy), init, with_globals=True
    )
    axes = swing_axes(CANONICAL_TREE, init.rotations)
    ab = prob._normal_blocks(X, G, axes)
    damping = optimizer_module._INIT_DAMPING * np.maximum(ab[0], 1e-12 * ab[0].max())
    rhs = -prob._jtr(X, G, prob._weighted_residuals(X), axes).reshape(-1)

    damped = ab.copy(order="F")
    damped[0] += damping
    factor = scipy.linalg.cholesky_banded(damped, lower=True, check_finite=False)
    expected = scipy.linalg.cho_solve_banded((factor, True), rhs, check_finite=False)
    x = prob._damped_solve(ab, damping, rhs)
    assert ab.tobytes() == factor.tobytes()
    assert x.tobytes() == expected.tobytes()
    assert prob._factor_solve(ab, rhs).tobytes() == expected.tobytes()


def test_band_that_is_not_positive_definite_raises():
    """A band whose leading minor is not positive raises LinAlgError, as
    scipy.linalg.cholesky_banded does, and an illegal-argument info code
    raises ValueError."""
    ab = np.zeros((2, 4), order="F")
    ab[0] = (1.0, 1.0, -1.0, 1.0)
    ab[1, :3] = 0.5
    with pytest.raises(np.linalg.LinAlgError, match="leading minor"):
        optimizer_module.EnergyProblem._damped_solve(ab, 0.0, np.ones(4))
    with pytest.raises(ValueError, match="2-th argument of internal pbtrs"):
        optimizer_module._check_info("pbtrs", -2)


def test_missing_lapack_extension_names_the_path_searched(monkeypatch, tmp_path):
    """Without scipy's _flapack extension the solver raises ImportError
    naming where it looked; it falls back on nothing."""
    import scipy

    monkeypatch.setattr(scipy, "__path__", [str(tmp_path)])
    monkeypatch.delitem(sys.modules, "scipy.linalg._flapack", raising=False)
    optimizer_module._lapack.cache_clear()
    try:
        with pytest.raises(ImportError, match=str(tmp_path / "linalg")):
            optimizer_module._lapack()
    finally:
        optimizer_module._lapack.cache_clear()


# Fits a short walk in a fresh interpreter, importing scipy.linalg before or
# after the fit as argv[1] says, and prints whether scipy.linalg was loaded
# during the fit, whether scipy.linalg's LAPACK wrapper is the solver's, and
# the fit's energy history in hex.
_LAPACK_ORDER_PROBE = """
import sys
import numpy as np
from stridelab import WalkerSpec, generate, optimize
from stridelab import optimizer

if sys.argv[1] == "before":
    import scipy.linalg
seq, truth = generate(WalkerSpec(speed_m_s=1.2, cadence_steps_min=110.0,
                                 distance_m=1.5, sigma3d_m=0.01, seed=5))
fit = optimize(seq, truth.anatomy)
during = "scipy.linalg" in sys.modules
import scipy.linalg
from scipy.linalg import lapack
factor = scipy.linalg.cholesky_banded(np.array([[4.0, 9.0], [2.0, 0.0]]), lower=True)
assert np.array_equal(factor, [[2.0, np.sqrt(8.0)], [1.0, 0.0]])
print(during, lapack._flapack is optimizer._lapack(), fit.converged,
      [e.hex() for e in fit.energy_history])
"""


def test_fit_runs_whether_scipy_linalg_is_imported_before_or_after():
    """The solver loads scipy's LAPACK extension alone and registers it
    under its name, so scipy.linalg imported before the first fit lends
    it the same module, and imported after reuses the solver's; the fit is
    bit-identical either way."""
    src = os.path.dirname(os.path.dirname(optimizer_module.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = {}
    for order in ("before", "after"):
        proc = subprocess.run(
            [sys.executable, "-c", _LAPACK_ORDER_PROBE, order],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        out[order] = proc.stdout.splitlines()[-1].split(" ", 3)
    assert out["before"][:3] == ["True", "True", "True"]
    assert out["after"][:3] == ["False", "True", "True"]
    assert out["before"][3] == out["after"][3]


def _logged_steps(monkeypatch, negate_reuse=False):
    """Patch the banded factorization (dpbtrf), the banded solve (dpbtrs) and the energy to log
    each call in order.  Returns the log, whose entries are "factor",
    "solve" and ("energy", value), and a function that reads it
    into one (fresh, energy) pair per step attempt: fresh when the solve
    followed a factorization directly, energy that of the trial pose.
    With negate_reuse, a solve that reuses an earlier factor returns the
    negated step, which points uphill."""
    log = []
    lapack = optimizer_module._lapack()
    real_factor = lapack.dpbtrf
    real_solve = lapack.dpbtrs
    real_energy = optimizer_module.EnergyProblem.energy_terms

    def factor(ab, **kwargs):
        log.append("factor")
        return real_factor(ab, **kwargs)

    def solve(cb, b, **kwargs):
        reuse = log[-1] != "factor"
        log.append("solve")
        x, info = real_solve(cb, b, **kwargs)
        return (-x if negate_reuse and reuse else x), info

    def energy_terms(self, X):
        terms = real_energy(self, X)
        log.append(("energy", sum(terms.values())))
        return terms

    monkeypatch.setattr(lapack, "dpbtrf", factor)
    monkeypatch.setattr(lapack, "dpbtrs", solve)
    monkeypatch.setattr(optimizer_module.EnergyProblem, "energy_terms", energy_terms)

    def attempts():
        out = []
        for i, entry in enumerate(log):
            if entry == "solve":
                assert log[i + 1][0] == "energy"
                out.append((log[i - 1] == "factor", log[i + 1][1]))
        return out

    return log, attempts


def _accepted(attempts, start):
    """The attempts that strictly lowered the energy from start, the
    solver's acceptance rule, as (index, fresh, energy)."""
    kept, energy = [], start
    for i, (fresh, value) in enumerate(attempts):
        if value < energy:
            kept.append((i, fresh, value))
            energy = value
    return kept


def _drops(history, tolerance=EnergyConfig().tolerance):
    """Per accepted step of an energy history: (drop, floor, the previous
    accepted drop, 0 before the first step), floor = tolerance * E before
    the step."""
    out, last = [], 0.0
    for before, after in zip(history, history[1:]):
        out.append((before - after, tolerance * before, last))
        last = before - after
    return out


def test_settled_steps_reuse_the_factor(noisy_walk, monkeypatch):
    """Once the energy drops settle, steps reuse the last factor: the fit
    factors fewer times than it iterates, every accepted step lowers the
    energy, the second accepted step follows a fresh factorization, and the
    fit converges.  The stopping step drops the energy by at most the
    floor, and is fresh or contracts: its drop is at most half the one
    before."""
    seq, truth = noisy_walk
    log, attempts = _logged_steps(monkeypatch)
    fit = optimize(seq, truth.anatomy)
    steps = attempts()
    accepted = _accepted(steps, fit.energy_history[0])
    assert [energy for _, _, energy in accepted] == list(fit.energy_history[1:])
    assert len(accepted) == fit.iterations
    assert log.count("factor") < fit.iterations
    assert any(not fresh for _, fresh, _ in accepted)
    assert accepted[0][1] and accepted[1][1]
    assert fit.stop_reason == "decrease" and fit.converged
    drop, floor, last = _drops(fit.energy_history)[-1]
    assert drop <= floor
    assert steps[-1][0] or drop <= optimizer_module._CONTRACTION * last
    assert all(b < a for a, b in zip(fit.energy_history, fit.energy_history[1:]))


def test_contracting_reuse_step_stops_the_fit(noisy_walk, monkeypatch):
    """NOISY_SPEC's fit ends on a reuse step whose drop is at most the floor
    and at most half the drop before it: it stops as "decrease" there, with
    no factorization after the one that step reused."""
    seq, truth = noisy_walk
    log, attempts = _logged_steps(monkeypatch)
    fit = optimize(seq, truth.anatomy)
    fresh, energy = attempts()[-1]
    assert not fresh and energy == fit.energy_history[-1]
    drop, floor, last = _drops(fit.energy_history)[-1]
    assert drop <= floor and drop <= optimizer_module._CONTRACTION * last
    assert fit.stop_reason == "decrease"
    # The log ends on that step's reuse solve and its energy.
    assert log[-2] == "solve" and log.count("factor") == 2


def test_small_reuse_drop_that_does_not_contract_is_confirmed_fresh(monkeypatch):
    """A reuse step whose drop is at most the floor but more than half the
    drop before it does not stop the fit: the next step is fresh, and it
    decides.  This walk (the 0.8 m/s grid walk of the benchmark's fit_batch
    at seed 20) takes one such step, with a drop 0.54 of the one before."""
    spec = WalkerSpec(speed_m_s=0.8, cadence_steps_min=90.0, distance_m=6.0,
                      sigma3d_m=0.01, sigma2d_px=2.0, seed=649421745)
    seq, truth = generate(spec)
    _, attempts = _logged_steps(monkeypatch)
    fit = optimize(seq, truth.anatomy)
    steps = attempts()
    accepted = _accepted(steps, fit.energy_history[0])
    assert len(accepted) == fit.iterations
    drops = _drops(fit.energy_history)
    small = [k for k, (drop, floor, last) in enumerate(drops)
             if not accepted[k][1] and optimizer_module._CONTRACTION * last < drop <= floor]
    assert small
    for k in small:
        assert steps[accepted[k][0] + 1][0]
        assert k + 1 < len(accepted)
    assert steps[-1][0] and drops[-1][0] <= drops[-1][1]
    assert fit.stop_reason == "decrease"


def test_reuse_step_that_raises_the_energy_is_retaken_fresh(noisy_walk, monkeypatch):
    """A reuse step forced uphill (its solve negated) is discarded: the next
    attempt factors afresh at the same pose, and the fit still lowers the
    energy at every accepted step and converges, on fresh steps alone."""
    seq, truth = noisy_walk
    log, attempts = _logged_steps(monkeypatch, negate_reuse=True)
    fit = optimize(seq, truth.anatomy)
    steps = attempts()
    reuses = [i for i, (fresh, _) in enumerate(steps) if not fresh]
    assert reuses
    accepted = _accepted(steps, fit.energy_history[0])
    assert [energy for _, _, energy in accepted] == list(fit.energy_history[1:])
    for i in reuses:
        assert i not in {j for j, _, _ in accepted}
        assert steps[i + 1][0]
    assert all(fresh for _, fresh, _ in accepted)
    assert fit.iterations == len(accepted)
    assert all(b < a for a, b in zip(fit.energy_history, fit.energy_history[1:]))
    assert fit.converged


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
    ({"tolerance": 0.0}, "tolerance"),
    ({"w_smooth": -math.inf}, "w_smooth"),
    ({"w_smooth": math.nan}, "w_smooth"),
    ({"w_smooth": -0.1}, "w_smooth"),
])
def test_energy_config_checks_its_fields(kwargs, field):
    """EnergyConfig built directly, as a script would, holds the same ranges
    as the [energy] section: a tolerance below 1e-10 would run every fit to
    the iteration cap."""
    with pytest.raises(ValueError, match=rf"^{field}: "):
        EnergyConfig(**kwargs)


@pytest.mark.parametrize("field", ["w_smooth"])
def test_energy_config_rejects_infinite_weights(field):
    """An infinite weight would make every trial energy inf or nan, and the
    fit would stop at once as damping_exhausted under a burst of
    RuntimeWarnings; it is refused where the config is built."""
    with pytest.raises(ValueError, match=rf"^{field}: must be finite"):
        EnergyConfig(**{field: math.inf})


def test_energy_config_accepts_its_range():
    cfg = EnergyConfig(w_smooth=0.0, max_iterations=1, tolerance=1e-10)
    assert cfg.w_smooth == 0.0
    assert EnergyConfig(tolerance=0.999).tolerance == 0.999


# Three short fits pinned end to end: (walk, strip the 2D block, iterations,
# stop reason, the four report values in PARAMETERS order at 10 significant
# digits).  A change to the solver that is meant to leave its output alone
# must leave these as they are.
GOLDEN_FITS = {
    "clean": (
        WalkerSpec(speed_m_s=1.2, cadence_steps_min=110.0, distance_m=3.0, seed=3),
        False, 3, "decrease",
        ("1.200000691", "109.9236641", "65.56232665", "0.5458333333"),
    ),
    "noisy": (
        WalkerSpec(speed_m_s=1.1, cadence_steps_min=104.0, distance_m=3.0,
                   sigma3d_m=0.015, sigma2d_px=3.0, dropout=0.2, seed=12),
        False, 8, "decrease",
        ("1.105224082", "104.3478261", "64.40722599", "0.575"),
    ),
    "3d-only": (
        WalkerSpec(speed_m_s=1.3, cadence_steps_min=116.0, distance_m=3.0,
                   sigma3d_m=0.01, sigma2d_px=2.0, dropout=0.2, seed=13),
        True, 7, "decrease",
        ("1.299483524", "114.893617", "68.38861938", "0.5222222222"),
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_FITS))
def test_fitted_walks_are_pinned(name):
    spec, only_3d, iterations, stop_reason, values = GOLDEN_FITS[name]
    seq, truth = generate(spec)
    if only_3d:
        seq = replace(seq, pixels_2d=None, confidence_2d=None, mask_2d=None)
    fit, rep = analyze_sequence(seq, CONFIG)
    assert (fit.iterations, fit.stop_reason) == (iterations, stop_reason)
    assert tuple(f"{getattr(rep, p.name):.10g}" for p in PARAMETERS) == values
