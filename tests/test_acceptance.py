"""Toolkit-level acceptance audit.

Every test here prints exactly one PASS/FAIL line (run with `-s` to see the
checklist) and then asserts it, so a red run names the broken guarantee
without digging through tracebacks.  The heavy shared work, a 60-walk
accuracy sweep, runs once per module.
"""

import json
import math
import time
from dataclasses import dataclass

import numpy as np
import pytest

from stridelab import (
    EnergyConfig,
    JointId,
    SkeletonSequence,
    WalkerSpec,
    analyze_sequence,
    bland_altman,
    bootstrap_mean_diff_ci,
    generate,
    icc,
    load_config,
    percentage_error,
    pose_io,
)
from stridelab.cli import main as cli_main
from stridelab.events import detect_steps
from stridelab.kinematics import (
    CANONICAL_TREE,
    PoseParams,
    forward_kinematics,
    lengths_vector,
    so3_exp,
)
from stridelab.optimizer import energy, energy_gradient
from stridelab.report import PARAMETERS, truth_values
from stridelab.skeleton import default_ratio_table, derive_anatomy
from stridelab.stats import MeasurementTable

CONFIG = load_config()
PARAMS = tuple(p.name for p in PARAMETERS)

N_SWEEP = 30
SWEEP_DISTANCE_M = 6.0
SWEEP_FPS = 30.0


def _verdict(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}", flush=True)
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------------------
# shared sweep


@dataclass(frozen=True)
class WalkOutcome:
    truth: dict
    video: dict
    energy_history: tuple
    max_bone_err_m: float
    seconds: float
    converged: bool


def _sweep_specs(noisy: bool) -> list[WalkerSpec]:
    specs = []
    for i in range(N_SWEEP):
        f = i / (N_SWEEP - 1)
        specs.append(
            WalkerSpec(
                speed_m_s=0.8 + 1.2 * f,
                cadence_steps_min=90.0 + 60.0 * f,
                distance_m=SWEEP_DISTANCE_M,
                fps=SWEEP_FPS,
                sigma3d_m=0.01 if noisy else 0.0,
                sigma2d_px=2.0 if noisy else 0.0,
                seed=100 + i,
            )
        )
    return specs


_EDGE_CHILD = np.array(
    [c for c, p in enumerate(CANONICAL_TREE.parents) if p >= 0]
)
_EDGE_PARENT = np.array([p for p in CANONICAL_TREE.parents if p >= 0])


def _run_pipeline(spec: WalkerSpec) -> WalkOutcome:
    seq, truth = generate(spec)
    t0 = time.perf_counter()
    fitted, rep = analyze_sequence(seq, CONFIG)
    seconds = time.perf_counter() - t0

    X = fitted.points_3d
    want = np.array([truth.anatomy.length(JointId(c)) for c in _EDGE_CHILD])
    got = np.linalg.norm(X[:, _EDGE_CHILD] - X[:, _EDGE_PARENT], axis=2)
    return WalkOutcome(
        truth=truth_values(vars(truth)),
        video={p: getattr(rep, p) for p in PARAMS},
        energy_history=fitted.energy_history,
        max_bone_err_m=float(np.abs(got - want).max()),
        seconds=seconds,
        converged=fitted.converged,
    )


@pytest.fixture(scope="module")
def clean_sweep():
    return [_run_pipeline(s) for s in _sweep_specs(noisy=False)]


@pytest.fixture(scope="module")
def noisy_sweep():
    return [_run_pipeline(s) for s in _sweep_specs(noisy=True)]


def _worst_rel_err(walks) -> float:
    worst = 0.0
    for w in walks:
        for p in PARAMS:
            worst = max(worst, abs(w.video[p] - w.truth[p]) / w.truth[p])
    return worst


def test_01_end_to_end_recovery(clean_sweep, noisy_sweep):
    clean_err = _worst_rel_err(clean_sweep)
    noisy_err = _worst_rel_err(noisy_sweep)
    slowest = max(w.seconds for w in clean_sweep + noisy_sweep)
    ok = clean_err <= 0.02 and noisy_err <= 0.05 and slowest < 10.0
    _verdict(
        "end-to-end recovery",
        ok,
        f"worst rel err {clean_err:.3%} clean (<=2%), {noisy_err:.3%} noisy"
        f" (<=5%), slowest walk {slowest:.1f}s (<10s)",
    )


def test_02_agreement_replay(clean_sweep, noisy_sweep, tmp_path):
    worst = 1.0
    for tag, walks in (("clean", clean_sweep), ("noisy", noisy_sweep)):
        records = []
        for i, w in enumerate(walks):
            wid = f"sweep-{i:02d}"
            for p in PARAMS:
                records.append((wid, wid, "truth", p, w.truth[p]))
                records.append((wid, wid, "video", p, w.video[p]))
        matched = tmp_path / f"{tag}.matched.csv"
        with open(matched, "w", encoding="utf-8", newline="") as fh:
            pose_io.write_matched_csv(fh, records)
        code = cli_main([
            "agree", str(matched), "--reference", "truth",
            "--out-dir", str(tmp_path), "--name", tag,
        ])
        assert code == 0
        doc = json.loads((tmp_path / f"{tag}.agreement.json").read_text())
        (video,) = doc["reports"]
        assert {e["parameter"] for e in video["parameters"]} == set(PARAMS)
        worst = min(worst, min(e["icc_2k"] for e in video["parameters"]))
    _verdict(
        "agreement replay",
        worst >= 0.95,
        f"lowest ICC(2,k) across suites and parameters {worst:.4f} (>=0.95)",
    )


def test_03_report_self_consistency(clean_sweep, noisy_sweep):
    worst_cad = 0.0
    worst_speed = 0.0
    for w in clean_sweep + noisy_sweep:
        v = w.video
        worst_cad = max(
            worst_cad,
            abs(v["cadence_steps_min"] * v["step_time_s"] - 60.0),
        )
        implied = v["step_length_cm"] / 100.0 * v["cadence_steps_min"] / 60.0
        worst_speed = max(
            worst_speed,
            abs(v["gait_speed_m_s"] - implied) / v["gait_speed_m_s"],
        )
    ok = worst_cad <= 1e-9 and worst_speed <= 0.02
    _verdict(
        "report self-consistency",
        ok,
        f"max |cadence*step_time - 60| {worst_cad:.2e} (<=1e-9), "
        f"max speed identity error {worst_speed:.3%} (<=2%)",
    )


# ---------------------------------------------------------------------------
# optimizer numerics


def _random_problem(rng):
    n_frames = int(rng.integers(2, 4))
    n_rot = len(CANONICAL_TREE.rotated_joints)
    anatomy = derive_anatomy(float(rng.uniform(1.5, 1.95)), default_ratio_table())
    params = PoseParams(
        translations=rng.normal(0.0, 0.4, (n_frames, 3)) + [0.0, 0.0, 6.0],
        rotations=so3_exp(rng.normal(0.0, 0.25, (n_frames, n_rot, 3))),
    )
    X = forward_kinematics(CANONICAL_TREE, lengths_vector(anatomy), params)
    obs = X + rng.normal(0.0, 0.05, X.shape)
    seq = SkeletonSequence(
        fps=30.0, times=np.arange(n_frames) / 30.0, indices=np.arange(n_frames),
        points_3d=obs, mask_3d=rng.random((n_frames, len(JointId))) < 0.9,
        source="synthetic",
    )
    cfg = EnergyConfig(w_smooth=float(rng.uniform(0.0, 0.5)))
    return params, seq, anatomy, cfg


def _fd_gradient(params, seq, anatomy, cfg, h=1e-6):
    """Central differences along energy_gradient's steps: the root
    translation, then per rotation the turn R -> exp(h hat(e_i)) R."""
    F, P = params.n_frames, CANONICAL_TREE.params_per_frame
    g = np.zeros(F * P)
    for k in range(g.size):
        f, i = divmod(k, P)
        e = []
        for sign in (1.0, -1.0):
            t, rot = params.translations.copy(), params.rotations.copy()
            if i < 3:
                t[f, i] += sign * h
            else:
                s, a = divmod(i - 3, 3)
                rot[f, s] = so3_exp(sign * h * np.eye(3)[a]) @ rot[f, s]
            e.append(energy(PoseParams(t, rot), seq, anatomy, cfg=cfg))
        g[k] = (e[0] - e[1]) / (2.0 * h)
    return g


def test_04_optimizer_numerics(clean_sweep, noisy_sweep):
    rng = np.random.default_rng(2024)
    worst_grad = 0.0
    for _ in range(100):
        params, seq, anatomy, cfg = _random_problem(rng)
        ga = energy_gradient(params, seq, anatomy, cfg=cfg)
        gf = _fd_gradient(params, seq, anatomy, cfg)
        rel = np.linalg.norm(ga - gf) / max(np.linalg.norm(gf), 1e-12)
        worst_grad = max(worst_grad, rel)

    max_rise = -math.inf
    for w in clean_sweep + noisy_sweep:
        h = np.asarray(w.energy_history)
        max_rise = max(max_rise, float(np.diff(h).max()))
    bone = max(w.max_bone_err_m for w in clean_sweep + noisy_sweep)

    ok = worst_grad < 1e-4 and max_rise <= 0.0 and bone < 1e-6
    _verdict(
        "optimizer numerics",
        ok,
        f"worst gradient rel err {worst_grad:.2e} over 100 configs (<1e-4), "
        f"max energy rise {max_rise:.2e} over {2 * N_SWEEP} runs (<=0), "
        f"max bone length error {bone:.2e} m (<1e-6)",
    )


# ---------------------------------------------------------------------------
# statistics


def _icc_oracle(values, form):
    n = len(values)
    k = len(values[0])
    grand = sum(values[i][j] for i in range(n) for j in range(k)) / (n * k)
    row = [sum(values[i][j] for j in range(k)) / k for i in range(n)]
    col = [sum(values[i][j] for i in range(n)) / n for j in range(k)]
    bms = k * sum((r - grand) ** 2 for r in row) / (n - 1)
    jms = n * sum((c - grand) ** 2 for c in col) / (k - 1)
    ems = sum(
        (values[i][j] - row[i] - col[j] + grand) ** 2
        for i in range(n)
        for j in range(k)
    ) / ((n - 1) * (k - 1))
    if form == (2, 1):
        return (bms - ems) / (bms + (k - 1) * ems + k * (jms - ems) / n)
    if form == (2, "k"):
        return (bms - ems) / (bms + (jms - ems) / n)
    return (bms - ems) / (bms + (k - 1) * ems)


def _table(values):
    v = np.asarray(values, dtype=float)
    rows = tuple(f"w{i}" for i in range(v.shape[0]))
    return MeasurementTable(
        values=v, parameter="p", unit="", rows=rows, subjects=rows,
        columns=tuple(f"m{j}" for j in range(v.shape[1])),
    )


def test_05_icc_correctness():
    rng = np.random.default_rng(505)
    forms = [(2, 1), (2, "k"), (3, 1)]
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(3, 25))
        k = int(rng.integers(2, 6))
        v = (
            10.0
            + rng.normal(0.0, 2.0, (n, 1))
            + rng.normal(0.0, 0.5, (1, k))
            + rng.normal(0.0, 0.3, (n, k))
        )
        for form in forms:
            worst = max(worst, abs(icc(_table(v), form) - _icc_oracle(v.tolist(), form)))

    perfect = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
    perfect_err = max(abs(icc(_table(perfect), f) - 1.0) for f in forms)

    indep = np.random.default_rng(77).normal(0.0, 1.0, (1000, 2))
    indep_max = max(abs(icc(_table(indep), f)) for f in forms)

    ok = worst <= 1e-9 and perfect_err <= 1e-12 and indep_max < 0.1
    _verdict(
        "ICC correctness",
        ok,
        f"max |ICC - oracle| {worst:.1e} over 20 tables (<=1e-9), perfect-table "
        f"error {perfect_err:.1e}, independent-column max |ICC| {indep_max:.3f} (<0.1)",
    )


def test_06_bland_altman_exactness():
    b = np.array([10.0, 10.2, 10.4, 10.6])
    a = b + np.array([0.1, -0.1, 0.3, -0.3])
    ba = bland_altman(a, b)
    loa_want = 1.96 * math.sqrt(0.2 / 3.0)  # 0.5060698...
    fixture_err = max(
        abs(ba.bias), abs(ba.loa_lower + loa_want), abs(ba.loa_upper - loa_want)
    )

    rng = np.random.default_rng(606)
    anti_err = 0.0
    for _ in range(25):
        x = rng.normal(1.3, 0.2, 30)
        y = x + rng.normal(0.05, 0.04, 30)
        f, r = bland_altman(x, y), bland_altman(y, x)
        anti_err = max(
            anti_err,
            abs(f.bias + r.bias),
            abs(f.loa_lower + r.loa_upper),
            abs(f.loa_upper + r.loa_lower),
        )

    ok = fixture_err <= 1e-9 and anti_err <= 1e-12
    _verdict(
        "Bland-Altman exactness",
        ok,
        f"fixture error {fixture_err:.1e} vs LoA +/-{loa_want:.5f} (<=1e-9), "
        f"antisymmetry error {anti_err:.1e}",
    )


def test_07_bootstrap_coverage():
    mu = 0.1
    hits = 0
    for seed in range(500):
        rng = np.random.default_rng(1_000_000 + seed)
        d = mu + 0.5 * rng.standard_normal(100)
        ci = bootstrap_mean_diff_ci(d, resamples=2000, seed=77_000 + seed)
        hits += ci.ci_lower <= mu <= ci.ci_upper
    rate = hits / 500.0

    const = bootstrap_mean_diff_ci([0.25] * 12, resamples=1000)
    degenerate = const.ci_lower == const.ci_upper == 0.25

    ok = 0.93 <= rate <= 0.97 and degenerate
    _verdict(
        "bootstrap coverage",
        ok,
        f"true mean covered in {rate:.1%} of 500 datasets (93-97%), "
        f"constant data CI degenerate: {degenerate}",
    )


# ---------------------------------------------------------------------------
# detector robustness


def _reversed_sequence(seq):
    n = len(seq)
    return SkeletonSequence(fps=seq.fps, times=np.arange(n) / seq.fps,
                            indices=np.arange(n), points_3d=seq.points_3d[::-1],
                            mask_3d=seq.mask_3d[::-1], source=seq.source)


def _moved_sequence(seq, rotation, shift):
    return SkeletonSequence(fps=seq.fps, times=seq.times, indices=seq.indices,
                            points_3d=seq.points_3d @ rotation.T + shift,
                            mask_3d=seq.mask_3d, source=seq.source)


def test_08_step_detector_robustness():
    good = 0
    for seed in range(200):
        spec = WalkerSpec(
            speed_m_s=1.4, cadence_steps_min=120.0, distance_m=6.0,
            fps=30.0, double_support=0.2, sigma3d_m=0.01, seed=seed,
        )
        seq, truth = generate(spec)
        try:
            det = detect_steps(seq)
        except Exception:
            continue
        good += len(det.events) == truth.n_steps
    rate = good / 200.0

    seq, _ = generate(
        WalkerSpec(speed_m_s=1.3, cadence_steps_min=115.0, distance_m=6.0,
                   fps=30.0, seed=0)
    )
    fwd = detect_steps(seq)
    rev = detect_steps(_reversed_sequence(seq))
    fl = np.sort([e.step_length_m for e in fwd.events])
    rl = np.sort([e.step_length_m for e in rev.events])
    t_end = seq.times[-1]
    mirror = t_end - np.array([e.time_s for e in fwd.events])[::-1]
    rev_times = np.array([e.time_s for e in rev.events])
    reversal_err = max(
        float(np.abs(fl - rl).max()), float(np.abs(mirror - rev_times).max())
    )

    mov = detect_steps(
        _moved_sequence(seq, so3_exp(np.array([0.3, 1.1, -0.4])),
                        np.array([2.0, -0.5, 6.0]))
    )
    rigid_err = max(
        float(np.abs(np.array([e.time_s for e in fwd.events])
                     - np.array([e.time_s for e in mov.events])).max()),
        float(np.abs(np.array([e.step_length_m for e in fwd.events])
                     - np.array([e.step_length_m for e in mov.events])).max()),
    )

    ok = rate >= 0.95 and reversal_err <= 1e-6 and rigid_err <= 1e-9
    _verdict(
        "step-detector robustness",
        ok,
        f"step count exact in {rate:.1%} of 200 noisy trials (>=95%), "
        f"time-reversal error {reversal_err:.1e} (<=1e-6), "
        f"rigid-motion error {rigid_err:.1e} (<=1e-9)",
    )


def test_09_orientation_indifference():
    worst = 0.0
    for speed, cadence in ((0.9, 96.0), (1.35, 116.0), (1.8, 140.0)):
        vals = {}
        for heading, start_z in ((0.0, 2.5), (180.0, 8.5)):
            spec = WalkerSpec(
                speed_m_s=speed, cadence_steps_min=cadence,
                distance_m=6.0, fps=30.0, heading_deg=heading,
                start_z_m=start_z, seed=0,
            )
            out = _run_pipeline(spec)
            vals[heading] = np.array([out.video[p] for p in PARAMS])
        away, toward = vals[0.0], vals[180.0]
        rel = np.abs(away - toward) / ((away + toward) / 2.0)
        worst = max(worst, float(rel.max()))
    _verdict(
        "orientation indifference",
        worst < 0.01,
        f"max toward-vs-away parameter difference {worst:.3%} over 3 speeds (<1%)",
    )


def test_10_percentage_error_context(clean_sweep, noisy_sweep):
    def worst_pe(walks):
        return max(
            percentage_error(
                [w.truth[p] for w in walks], [w.video[p] for w in walks]
            )
            for p in PARAMS
        )

    clean_pe = worst_pe(clean_sweep)
    noisy_pe = worst_pe(noisy_sweep)
    ok = clean_pe < 30.0 and noisy_pe < 15.0
    _verdict(
        "percentage-error context",
        ok,
        f"worst parameter percentage error {clean_pe:.2f}% clean (<30%), "
        f"{noisy_pe:.2f}% noisy (<15%)",
    )
