"""Step detection on the inter-ankle distance signal.

During double support the ankles are maximally separated, so foot contacts
show up as local maxima of the 3D distance between the two ankles.  Raw
per-sample extrema are unreliable: noiseless double support produces runs of
equal samples, and noise splits one contact into several micro-peaks.  The
detector therefore works in two stages:

1. candidate extrema of both kinds, where a maximal run of equal values
   strictly above (below) both neighbours counts once, represented by its
   middle sample; a topographic prominence floor drops shallow wiggles, and
   an optional same-kind minimum separation keeps only the most prominent
   of near-coincident candidates;
2. clusters: each candidate widens to the contiguous span of samples within
   a value tolerance of it, represented by the best sample of the span; a
   valid gait signal alternates maxima and minima, so where two same-kind
   clusters end up adjacent the less prominent one is dropped (prefer
   missing a step over inventing one).

Each surviving maximum cluster becomes one StepEvent; the landing foot is
the ankle further along the walking direction, and the step length is the
inter-ankle separation projected onto that direction.  The walking direction
is the principal axis of the pelvis trajectory in 3D, signed by net
displacement, which keeps every output invariant under rigid motions of the
scene and under time reversal.

The detector reads one input type, the 3D block of a SkeletonSequence:
the fitted walk (an OptimizedSequence, a subclass) in the pipeline, or a
parsed or synthesized one.
"""

import bisect
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import (
    AmbiguousWalkingDirection,
    MissingJoint,
    MissingModality,
    NoStepsDetected,
    SignalTooShort,
)
from .skeleton import JointId, SkeletonSequence


@dataclass(frozen=True)
class DetectorConfig:
    min_prominence_m: float = 0.05
    min_separation_s: float = 0.2
    value_tolerance_m: float = 0.02
    min_travel_m: float = 0.5

    def __post_init__(self) -> None:
        for name in ("min_prominence_m", "min_separation_s",
                     "value_tolerance_m", "min_travel_m"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be non-negative")


@dataclass(frozen=True, eq=False)
class StepSignal:
    """The distance between the two ankles sampled at the sequence frames."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        if self.times.shape != self.values.shape or self.times.ndim != 1:
            raise ValueError("times and values must be equal-length 1D arrays")
        if np.any(np.isnan(self.times)):
            raise ValueError("signal times must not be NaN")
        if not np.all(np.isfinite(self.values)) or np.any(self.values < 0):
            raise ValueError("signal values must be finite and non-negative")

    def __len__(self) -> int:
        return self.times.size


@dataclass(frozen=True)
class ExtremumCandidate:
    index: int
    kind: str          # "max" or "min"
    value: float
    prominence: float


@dataclass(frozen=True)
class ExtremaCluster:
    kind: str                    # "max" or "min"
    members: tuple[int, ...]     # contiguous frame span covering the cluster
    index: int                   # representative: best-valued member
    value: float                 # signal value at the representative
    time_s: float
    prominence: float

    def __post_init__(self) -> None:
        if self.members != tuple(range(self.members[0], self.members[-1] + 1)):
            raise ValueError("cluster members must be contiguous")
        if self.index not in self.members:
            raise ValueError("representative must be a member")


@dataclass(frozen=True)
class StepEvent:
    foot: str             # "left" or "right": the foot that just landed
    time_s: float
    index: int            # event frame
    step_length_m: float  # ankle separation along the walking direction
    cluster: ExtremaCluster


@dataclass(frozen=True)
class StepDetection:
    events: tuple[StepEvent, ...]
    walking_direction: tuple[float, float, float]
    travel_m: float
    clusters: tuple[ExtremaCluster, ...] = field(repr=False)
    signal: StepSignal = field(repr=False)
    root_along: np.ndarray = field(repr=False)  # pelvis projected onto direction


def _joint_track(source: SkeletonSequence, joint: JointId) -> np.ndarray:
    """One joint's (F, 3) positions; MissingJoint if a frame lacks it."""
    seen = source.mask_3d[:, joint.value]
    if not seen.all():
        f = int(np.argmin(seen))
        raise MissingJoint(f"{joint.label} absent in frame {source.indices[f]}")
    return np.ascontiguousarray(source.points_3d[:, joint.value])


def build_signal(source: SkeletonSequence) -> StepSignal:
    """Distance between the two ankles over time in a sequence's 3D joints,
    a parsed walk's or a fitted one's (an OptimizedSequence)."""
    if source.points_3d is None:
        raise MissingModality("step detection needs the 3D stream")
    if len(source) < 3:
        raise SignalTooShort(f"need at least 3 frames, got {len(source)}")
    a = _joint_track(source, JointId.LEFT_ANKLE)
    b = _joint_track(source, JointId.RIGHT_ANKLE)
    values = np.linalg.norm(a - b, axis=1)
    return StepSignal(times=np.array(source.times), values=values)


def topographic_prominences(values: np.ndarray, kind: str = "max") -> np.ndarray:
    """Each sample's height over its key saddle, as a maximum (minimum).

    For a maximum at i: on each side, the lowest sample from i up to the
    nearest strictly higher one (or the boundary); the prominence is the
    peak value minus the higher of the two, 0 where a neighbour is higher.
    Minima mirror this.  One pass per side keeps a stack of the samples no
    later one has topped, each with the lowest sample since the one below
    it: O(n), where walking out from each extremum of a drifting signal is
    O(n^2)."""
    s = (1.0 if kind == "max" else -1.0) * np.asarray(values, dtype=float)

    def side_lows(samples: list[float]) -> list[float]:
        stack: list[tuple[float, float]] = []  # (sample, lowest since the one below)
        lows = []
        for x in samples:
            low = x
            while stack and stack[-1][0] <= x:
                low = min(low, stack.pop()[1])
            stack.append((x, low))
            lows.append(low)
        return lows

    left = np.array(side_lows(s.tolist()))
    right = np.array(side_lows(s[::-1].tolist())[::-1])
    return s - np.maximum(left, right)


def _scan_one_kind(v: np.ndarray, kind: str) -> list[int]:
    """Interior extrema, plateau-aware: a maximal run of equal values strictly
    above (below) both neighbours yields one index at the middle of the run.
    On tie-free data this is the classic three-point scan."""
    sign = 1.0 if kind == "max" else -1.0
    out: list[int] = []
    n = v.size
    i = 1
    while i < n - 1:
        j = i
        while j + 1 < n and v[j + 1] == v[i]:
            j += 1
        if j + 1 < n and sign * v[i] > sign * v[i - 1] and sign * v[i] > sign * v[j + 1]:
            out.append((i + j) // 2)
        i = j + 1
    return out


def find_extrema_candidates(
    signal: StepSignal,
    min_prominence: float = 0.0,
    min_separation: float = 0.0,
) -> list[ExtremumCandidate]:
    """Candidate maxima and minima with at least the requested prominence.

    With min_separation > 0, same-kind candidates closer than that in time
    are thinned to the most prominent one.  Alternation between kinds is not
    enforced here.
    """
    if len(signal) < 3:
        raise SignalTooShort(f"need at least 3 samples, got {len(signal)}")
    v = np.asarray(signal.values, dtype=float)
    t = signal.times

    cands: list[ExtremumCandidate] = []
    for kind in ("max", "min"):
        prominences = topographic_prominences(v, kind)
        for i in _scan_one_kind(v, kind):
            p = float(prominences[i])
            if p >= min_prominence:
                cands.append(ExtremumCandidate(index=i, kind=kind,
                                               value=float(v[i]), prominence=p))

    if min_separation > 0:
        cands = _thin(cands, t, min_separation)
    cands.sort(key=lambda c: c.index)
    return cands


def _thin(
    cands: list[ExtremumCandidate], times: np.ndarray, min_separation: float
) -> list[ExtremumCandidate]:
    """The candidates kept, most prominent first (the earlier of equals),
    when each is kept only if it lies at least min_separation in time from
    every kept candidate of its kind.  Each kind's kept times stay sorted,
    so only the two that bisect finds either side of a candidate's time can
    be the nearest: checking them is the same as checking every kept
    candidate of the kind, without the scan over all of them."""
    kept: list[ExtremumCandidate] = []
    kept_times: dict[str, list[float]] = {"max": [], "min": []}
    for c in sorted(cands, key=lambda c: (-c.prominence, c.index)):
        same = kept_times[c.kind]
        tc = float(times[c.index])
        i = bisect.bisect_left(same, tc)
        if all(abs(tc - tk) >= min_separation for tk in same[max(i - 1, 0):i + 1]):
            same.insert(i, tc)
            kept.append(c)
    return kept


def _alternate(items: list, label, prominence) -> list:
    """Where two adjacent items share a label, keep the more prominent, the
    first of equals, until the labels alternate."""
    out: list = []
    for item in items:
        if out and label(out[-1]) == label(item):
            if prominence(item) > prominence(out[-1]):
                out[-1] = item
            continue
        out.append(item)
    return out


def cluster_honest_extrema(
    candidates: Sequence[ExtremumCandidate],
    signal: StepSignal,
    value_tolerance: float = 0.02,
) -> list[ExtremaCluster]:
    """Widen each candidate to its near-extremal span and enforce alternation.

    Each candidate becomes one cluster whose members span every contiguous
    sample within value_tolerance of the candidate's value and whose
    representative is the best sample of that span.  Where the resulting
    list has two same-kind clusters in a row, the one with smaller
    prominence is discarded until maxima and minima alternate.
    """
    v = np.asarray(signal.values, dtype=float)
    t = signal.times

    clusters: list[ExtremaCluster] = []
    for c in sorted(candidates, key=lambda c: (c.kind != "max", c.index)):
        sign = 1.0 if c.kind == "max" else -1.0
        lo = hi = c.index
        best = sign * v[c.index]
        # The span covers the whole near-extremal region, not just the
        # candidate: expanding over every contiguous sample within tolerance
        # makes it track the full double-support interval even when
        # smoothing has tilted its flat top into a dome with one skewed peak.
        while lo > 0 and best - sign * v[lo - 1] <= value_tolerance:
            lo -= 1
        while hi + 1 < len(v) and best - sign * v[hi + 1] <= value_tolerance:
            hi += 1
        rep = lo + int(np.argmax(sign * v[lo:hi + 1]))
        clusters.append(
            ExtremaCluster(
                kind=c.kind,
                members=tuple(range(lo, hi + 1)),
                index=rep,
                value=float(v[rep]),
                time_s=float(t[rep]),
                prominence=c.prominence,
            )
        )
    # A span may reach past a better sample, so order by representative;
    # maxima stay first where a maximum and a minimum share one.
    clusters.sort(key=lambda c: c.index)
    return _alternate(clusters, lambda c: c.kind, lambda c: c.prominence)


def _walking_direction(root: np.ndarray, min_travel: float) -> np.ndarray:
    disp = root[-1] - root[0]
    travel = float(np.linalg.norm(disp))
    if travel < min_travel:
        raise AmbiguousWalkingDirection(
            f"net root travel {travel:.3f} m is below {min_travel} m"
        )
    centered = root - root.mean(axis=0)
    cov = centered.T @ centered
    _, vecs = np.linalg.eigh(cov)
    direction = vecs[:, -1]
    if float(direction @ disp) < 0:
        direction = -direction
    return direction


def detect_steps(
    source: SkeletonSequence,
    config: DetectorConfig = DetectorConfig(),
) -> StepDetection:
    """Find foot contacts in a sequence's 3D joints, a parsed walk's or a
    fitted one's (an OptimizedSequence).

    Raises NoStepsDetected when fewer than two honest maxima survive, and
    AmbiguousWalkingDirection when the pelvis does not travel far enough to
    orient the walk.
    """
    signal = build_signal(source)
    root = _joint_track(source, JointId.PELVIS)
    direction = _walking_direction(root, config.min_travel_m)
    travel = float(np.linalg.norm(root[-1] - root[0]))

    candidates = find_extrema_candidates(
        signal, config.min_prominence_m, config.min_separation_s
    )
    clusters = cluster_honest_extrema(candidates, signal, config.value_tolerance_m)
    maxima = [c for c in clusters if c.kind == "max"]
    if len(maxima) < 2:
        raise NoStepsDetected(
            f"found {len(maxima)} foot contacts, need at least 2"
        )

    left = _joint_track(source, JointId.LEFT_ANKLE)
    right = _joint_track(source, JointId.RIGHT_ANKLE)
    along_gap = (left - right) @ direction

    times = signal.times
    events: list[StepEvent] = []
    for c in maxima:
        gap = float(along_gap[c.index])
        # Time the event at the centre of the near-maximal span: for a
        # double-support plateau that is the middle of the contact interval,
        # a consistent offset that cancels out of every step-time difference,
        # where the raw argmax wanders across the plateau.
        mid = 0.5 * (float(times[c.members[0]]) + float(times[c.members[-1]]))
        events.append(StepEvent(
            foot="left" if gap > 0 else "right",
            time_s=mid,
            index=c.index,
            step_length_m=abs(gap),
            cluster=c,
        ))
    # Feet must alternate; keep the more prominent of a clash.
    events = _alternate(events, lambda e: e.foot, lambda e: e.cluster.prominence)
    if len(events) < 2:
        raise NoStepsDetected(
            f"only {len(events)} events left after alternation check"
        )

    return StepDetection(
        events=tuple(events),
        walking_direction=tuple(float(x) for x in direction),  # type: ignore[arg-type]
        travel_m=travel,
        clusters=tuple(clusters),
        signal=signal,
        root_along=root @ direction,
    )
