"""Step detection: candidate scan, prominence, clusters, and the full
detector.

The candidate scan and prominence are checked against deliberately dumb
brute-force implementations; the detector itself is checked against the
synthetic walker's ground truth and against its two invariances
(time reversal, rigid motion).
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stridelab import (
    DetectorConfig,
    JointId,
    NoStepsDetected,
    SkeletonSequence,
    WalkerSpec,
    cluster_honest_extrema,
    detect_steps,
    find_extrema_candidates,
    generate,
)
from stridelab.errors import (
    AmbiguousWalkingDirection,
    MissingJoint,
    MissingModality,
    SignalTooShort,
)
from stridelab.events import (
    ExtremumCandidate,
    StepSignal,
    _thin,
    build_signal,
    topographic_prominences,
)
from stridelab.kinematics import so3_exp


def _sequence_3d(points, times=None, mask=None, fps=30.0):
    """A 3D-only sequence of (F, J, 3) points, every joint present unless a
    mask says otherwise."""
    F = len(points)
    return SkeletonSequence(
        fps=fps,
        times=np.arange(F) / fps if times is None else times,
        indices=np.arange(F),
        points_3d=points,
        mask_3d=np.ones((F, 21), dtype=bool) if mask is None else mask,
    )


def _signal(values, fps=30.0):
    v = np.asarray(values, dtype=float)
    return StepSignal(times=np.arange(len(v)) / fps, values=v)


def _brute_force_extrema(v):
    """Every strictly-above/below-neighbours run, reported at its middle."""
    out = []
    n = len(v)
    i = 0
    while i < n:
        j = i
        while j + 1 < n and v[j + 1] == v[i]:
            j += 1
        if i > 0 and j < n - 1:
            left, right = v[i - 1], v[j + 1]
            if v[i] > left and v[i] > right:
                out.append(((i + j) // 2, "max"))
            elif v[i] < left and v[i] < right:
                out.append(((i + j) // 2, "min"))
        i = j + 1
    return out


def _brute_force_prominence(v, idx, kind):
    """Walk out from idx on each side, tracking the running minimum, until a
    strictly higher sample or the boundary."""
    s = v if kind == "max" else -v
    peak = s[idx]
    lows = []
    for step in (-1, 1):
        low = peak
        i = idx + step
        while 0 <= i < len(s) and s[i] <= peak:
            low = min(low, s[i])
            i += step
        lows.append(low)
    return peak - max(lows)


def test_maxima_on_rectified_sine():
    t = np.arange(0, 3.0, 1 / 30)
    v = np.abs(np.sin(2 * np.pi * t))  # period 0.5 s once rectified
    sig = StepSignal(times=t, values=v)
    cands = find_extrema_candidates(sig)
    got = [(c.index, c.kind) for c in cands]
    assert got == _brute_force_extrema(v)
    maxima = [c for c in cands if c.kind == "max"]
    assert len(maxima) == 6
    for c in maxima:
        assert c.value == pytest.approx(1.0, abs=0.01)


def test_plateau_reported_once_at_middle():
    v = np.array([0.0, 1.0, 3.0, 3.0, 3.0, 1.0, 0.5, 2.0, 0.0])
    cands = find_extrema_candidates(_signal(v))
    maxima = [(c.index, c.value) for c in cands if c.kind == "max"]
    assert maxima == [(3, 3.0), (7, 2.0)]
    minima = [(c.index, c.value) for c in cands if c.kind == "min"]
    assert minima == [(6, 0.5)]


def test_boundary_plateaus_excluded():
    v = np.array([5.0, 5.0, 1.0, 2.0, 2.0])
    cands = find_extrema_candidates(_signal(v))
    assert [(c.index, c.kind) for c in cands] == [(2, "min")]


def test_monotone_and_constant_yield_nothing():
    assert list(find_extrema_candidates(_signal(np.arange(10.0)))) == []
    assert list(find_extrema_candidates(_signal(np.ones(10)))) == []


def test_prominence_matches_brute_force():
    rng = np.random.default_rng(12)
    v = np.cumsum(rng.normal(0, 1, 300))
    v = v - v.min()  # distances are non-negative
    sig = _signal(v)
    cands = find_extrema_candidates(sig)
    assert cands, "random walk should have interior extrema"
    for c in cands:
        want = _brute_force_prominence(v, c.index, c.kind)
        assert c.prominence == pytest.approx(want, abs=1e-12)
        assert topographic_prominences(v, c.kind)[c.index] == pytest.approx(want)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-4, 4), min_size=1, max_size=60),
       st.sampled_from([0.0, 0.02]), st.sampled_from(["max", "min"]))
def test_prominences_equal_the_walk_out(levels, drift, kind):
    """Every sample's prominence equals the walk-out's exactly, on signals
    with plateaus and ties (few distinct levels, long runs and repeated
    heights on both sides of a peak) and on drifting ones, whose walks
    outward run to the end of the signal."""
    v = np.repeat(np.array(levels, dtype=float) * 0.1, 1 + np.arange(len(levels)) % 3)
    v += drift * np.arange(v.size)
    got = topographic_prominences(v, kind)
    want = [_brute_force_prominence(v, i, kind) for i in range(v.size)]
    assert got.tolist() == want


def test_min_prominence_filters():
    v = np.array([0.0, 1.0, 0.9, 1.02, 0.0, 2.0, 0.0])
    sig = _signal(v)
    all_max = [c for c in find_extrema_candidates(sig) if c.kind == "max"]
    assert len(all_max) == 3
    # the 1.0 peak at index 1 only rises 0.1 above the saddle before the
    # taller 1.02 bar, so a 0.5 prominence floor removes it
    big = [c for c in find_extrema_candidates(sig, min_prominence=0.5)
           if c.kind == "max"]
    assert [c.index for c in big] == [3, 5]


def test_min_separation_keeps_more_prominent():
    # two maxima 2 frames apart at 30 fps = 0.066 s; suppression at 0.2 s
    v = np.array([0.0, 1.0, 0.8, 0.95, 0.0, 0.0, 0.0, 1.2, 0.0])
    sig = _signal(v)
    kept = [c for c in find_extrema_candidates(sig, min_separation=0.2)
            if c.kind == "max"]
    assert [c.index for c in kept] == [1, 7]


random_signals = st.lists(
    st.floats(0, 5, allow_nan=False, allow_infinity=False), min_size=3, max_size=60
)


@given(random_signals)
@settings(max_examples=150)
def test_candidates_match_oracle_on_arbitrary_signals(values):
    v = np.asarray(values)
    cands = find_extrema_candidates(_signal(v))
    assert [(c.index, c.kind) for c in cands] == _brute_force_extrema(v)
    for c in cands:
        assert c.value == v[c.index]
        assert c.prominence == pytest.approx(
            _brute_force_prominence(v, c.index, c.kind), abs=1e-9
        )


@given(random_signals, st.integers(1, 20))
@settings(max_examples=150)
def test_min_separation_leaves_same_kind_candidates_that_far_apart(values, frames):
    """Candidates of one kind come back at least min_separation apart, so
    no two of them could share a window shorter than that."""
    sig = _signal(values)
    s = frames / 30.0
    cands = find_extrema_candidates(sig, min_separation=s)
    for kind in ("max", "min"):
        times = [sig.times[c.index] for c in cands if c.kind == kind]
        for a, b in zip(times, times[1:]):
            assert b - a >= s


def _pairwise_thin(cands, times, min_separation):
    """The minimum-separation rule written out: most prominent first, the
    earlier of equals, each kept only if it is at least min_separation from
    every kept candidate of its kind."""
    kept = []
    for c in sorted(cands, key=lambda c: (-c.prominence, c.index)):
        if all(c.kind != k.kind or abs(times[c.index] - times[k.index]) >= min_separation
               for k in kept):
            kept.append(c)
    return kept


class _CountedSeparation(float):
    """A min_separation that counts the comparisons made against it:
    `x >= sep` reaches its reflected __le__ first, sep being a float
    subclass."""

    def __new__(cls, value):
        obj = super().__new__(cls, value)
        obj.comparisons = 0
        return obj

    def __le__(self, other):
        self.comparisons += 1
        return super().__le__(other)


@given(
    st.lists(
        st.tuples(st.sampled_from(["max", "min"]), st.integers(0, 39), st.integers(0, 4)),
        max_size=40,
    ),
    st.lists(st.integers(0, 24), min_size=40, max_size=40),
    st.integers(1, 6),
)
@settings(max_examples=300)
def test_thinning_matches_the_pairwise_rule(drawn, grid, separation):
    """On random candidate sets with tied prominences, shared indices and
    times, and times exactly min_separation apart (all times and the
    separation are multiples of a quarter), thinning keeps the same
    candidates in the same order as the pairwise rule."""
    times = np.array(grid) * 0.25
    cands = [ExtremumCandidate(index=i, kind=kind, value=0.0, prominence=p)
             for kind, i, p in drawn]
    sep = 0.25 * separation
    assert _thin(cands, times, sep) == _pairwise_thin(cands, times, sep)


def test_thinning_a_long_signal_compares_with_two_neighbours():
    """A noisy 20 000-frame (11 minute) 30 fps signal with the shipped
    floors: thinning keeps what the pairwise rule keeps, and compares each
    candidate with at most the two kept ones either side of it in time,
    where the pairwise rule compares it with every kept one."""
    rng = np.random.default_rng(3)
    cfg = DetectorConfig()
    t = np.arange(20_000) / 30.0
    v = np.abs(0.3 + 0.25 * np.sin(2 * np.pi * 0.9 * t) + rng.normal(0.0, 0.04, t.size))
    cands = find_extrema_candidates(StepSignal(times=t, values=v), cfg.min_prominence_m)
    assert len(cands) > 2000
    sep = _CountedSeparation(cfg.min_separation_s)
    kept = _thin(cands, t, sep)
    assert sep.comparisons <= 2 * len(cands)
    assert kept == _pairwise_thin(cands, t, cfg.min_separation_s)


def test_signal_times_must_not_be_nan():
    with pytest.raises(ValueError, match="NaN"):
        StepSignal(times=np.array([0.0, np.nan, 1.0]), values=np.ones(3))


def test_near_equal_maxima_merge_to_single_cluster():
    """At the shipped detector thresholds, two maxima of nearly the same
    height two frames apart, each prominent enough on its own, are one
    honest extremum represented by the better one: the minimum separation
    keeps only the more prominent candidate."""
    cfg = DetectorConfig()
    v = np.array([0.0, 0.700, 0.6, 0.698, 0.0, 0.1, 0.0, 0.9, 0.0])
    sig = _signal(v)
    assert {c.index for c in find_extrema_candidates(sig, cfg.min_prominence_m)
            if c.kind == "max"} >= {1, 3}
    cands = find_extrema_candidates(sig, cfg.min_prominence_m, cfg.min_separation_s)
    clusters = cluster_honest_extrema(cands, sig, cfg.value_tolerance_m)
    maxima = [c for c in clusters if c.kind == "max"]
    assert [c.index for c in maxima] == [1, 7]
    assert maxima[0].value == pytest.approx(0.700)


def test_distinct_heights_within_window_stay_separate():
    v = np.array([0.0, 0.7, 0.5, 0.3, 0.2, 0.0, 0.9, 0.0])
    sig = _signal(v)
    clusters = cluster_honest_extrema(
        find_extrema_candidates(sig), sig, value_tolerance=0.02
    )
    maxima = [c for c in clusters if c.kind == "max"]
    assert [c.index for c in maxima] == [1, 6]


def test_alternation_drops_weaker_same_kind():
    # max at 1, shallow min at 3 killed by value splitting? no: craft
    # max(1.0), min(0.5), max(0.6 weak), min(0.0), max(1.0)
    v = np.array([0.0, 1.0, 0.5, 0.6, 0.55, 0.58, 0.0, 1.0, 0.2])
    sig = _signal(v)
    clusters = cluster_honest_extrema(
        find_extrema_candidates(sig), sig, value_tolerance=0.0
    )
    kinds = [c.kind for c in clusters]
    for a, b in zip(kinds, kinds[1:]):
        assert a != b


def test_cluster_members_are_contiguous_and_contain_rep():
    rng = np.random.default_rng(3)
    v = np.abs(np.sin(np.linspace(0, 20, 400))) + 0.06 + rng.normal(0, 0.01, 400)
    assert v.min() > 0
    sig = _signal(v)
    clusters = cluster_honest_extrema(find_extrema_candidates(sig), sig)
    assert clusters
    for c in clusters:
        assert list(c.members) == list(range(c.members[0], c.members[-1] + 1))
        assert c.members[0] <= c.index <= c.members[-1]
        assert c.value == v[c.index]


# ---------------------------------------------------------------------------
# full detector on synthetic walks

WALK = WalkerSpec(
    speed_m_s=1.3, cadence_steps_min=115.0, distance_m=6.0, fps=30.0, seed=2
)


@pytest.fixture(scope="module")
def walk():
    return generate(WALK)


def test_detects_all_steps(walk):
    seq, truth = walk
    det = detect_steps(seq)
    assert len(det.events) == truth.n_steps
    feet = [e.foot for e in det.events]
    assert all(a != b for a, b in zip(feet, feet[1:]))
    for e in det.events:
        assert e.step_length_m == pytest.approx(truth.step_length_m, abs=5e-3)


def test_step_times_match_schedule(walk):
    seq, truth = walk
    det = detect_steps(seq)
    got = np.array([e.time_s for e in det.events])
    want = np.array([s.time_s for s in truth.schedule])
    # a common offset is fine; differences must match the step period
    assert np.ptp((got - want)) < 0.04
    assert np.allclose(np.diff(got), truth.step_time_s, atol=0.04)


def test_noisy_walk_keeps_step_count(walk):
    spec = WalkerSpec(
        speed_m_s=1.3,
        cadence_steps_min=115.0,
        distance_m=6.0,
        fps=30.0,
        sigma3d_m=0.01,
        seed=21,
    )
    seq, truth = generate(spec)
    det = detect_steps(seq)
    assert len(det.events) == truth.n_steps


def test_time_reversal_keeps_step_lengths(walk):
    seq, _ = walk
    fwd = detect_steps(seq)
    t_end = seq.times[-1]
    rev = detect_steps(_sequence_3d(seq.points_3d[::-1], times=t_end - seq.times[::-1]))
    a = sorted(e.step_length_m for e in fwd.events)
    b = sorted(e.step_length_m for e in rev.events)
    assert len(a) == len(b)
    assert np.allclose(a, b, atol=1e-6)
    # and the reversed event times mirror the forward ones
    fa = [e.time_s for e in fwd.events]
    fb = sorted(t_end - e.time_s for e in rev.events)
    assert np.allclose(sorted(fa), fb, atol=1e-6)


def test_rigid_motion_invariance(walk):
    seq, _ = walk
    base = detect_steps(seq)
    R = so3_exp(np.array([0.3, 1.1, -0.4]))
    shift = np.array([2.0, -0.5, 6.0])
    mov = detect_steps(_sequence_3d(seq.points_3d @ R.T + shift, times=seq.times))
    assert len(mov.events) == len(base.events)
    for a, b in zip(base.events, mov.events):
        assert abs(a.time_s - b.time_s) < 1e-9
        assert abs(a.step_length_m - b.step_length_m) < 1e-9
        assert a.foot == b.foot


# One rigid pose: joint j at (0.01 j, 0.02 j, 3 + 0.01 j).
_POSE = np.array([(0.01 * j, 0.02 * j, 3.0 + 0.01 * j) for j in range(21)])


def test_standing_still_is_ambiguous():
    with pytest.raises(AmbiguousWalkingDirection):
        detect_steps(_sequence_3d(np.repeat(_POSE[None], 30, axis=0)))


def test_too_short_signal():
    with pytest.raises(SignalTooShort):
        detect_steps(_sequence_3d(np.repeat(_POSE[None], 2, axis=0)))


def test_missing_ankle_is_reported():
    mask = np.ones((10, 21), dtype=bool)
    mask[:, JointId.LEFT_ANKLE.value] = False
    with pytest.raises(MissingJoint):
        detect_steps(_sequence_3d(np.repeat(_POSE[None], 10, axis=0), mask=mask))


def test_two_d_only_is_missing_modality():
    mask = np.zeros((10, 21), dtype=bool)
    mask[:, JointId.PELVIS.value] = True
    seq = SkeletonSequence(fps=30.0, times=np.arange(10) / 30, indices=np.arange(10),
                           pixels_2d=np.ones((10, 21, 2)), confidence_2d=mask * 1.0,
                           mask_2d=mask)
    with pytest.raises(MissingModality):
        detect_steps(seq)


def test_no_steps_in_flat_but_moving_scene():
    points = np.repeat(_POSE[None], 60, axis=0)
    points[..., 2] = 3.0 + 0.05 * np.arange(60)[:, None]
    with pytest.raises(NoStepsDetected):
        detect_steps(_sequence_3d(points))


def test_detector_config_validation():
    with pytest.raises(ValueError):
        DetectorConfig(min_prominence_m=-0.1)


@pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(DetectorConfig)])
@pytest.mark.parametrize("value", [-0.1, float("nan")], ids=["negative", "nan"])
def test_detector_config_rejects_negative_and_nan(name, value):
    """NaN compares false with everything, so a bare `value < 0` would let
    it through; every field rejects it."""
    with pytest.raises(ValueError, match=f"^{name}: must be non-negative"):
        DetectorConfig(**{name: value})


def test_signal_requires_matching_shapes():
    with pytest.raises(ValueError):
        StepSignal(times=np.arange(4.0), values=np.arange(5.0))


def test_build_signal_is_ankle_distance(walk):
    seq, _ = walk
    sig = build_signal(seq)
    frames = seq.frames_3d
    la = np.array([fr.joints[JointId.LEFT_ANKLE] for fr in frames])
    ra = np.array([fr.joints[JointId.RIGHT_ANKLE] for fr in frames])
    want = np.linalg.norm(la - ra, axis=1)
    assert np.allclose(sig.values, want, atol=1e-12)
