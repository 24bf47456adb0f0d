"""Spatiotemporal gait parameters from detected step events.

Counting convention: n detected foot contacts delimit n - 1 steps.  The
first contact only anchors the measurement window, so averaged quantities
run over the gaps between consecutive contacts.  This makes the identities
exact by construction:

    cadence [steps/min] * mean step time [s] = 60
    mean step time = duration / steps
"""

from dataclasses import dataclass
from typing import Mapping, NamedTuple

import numpy as np

from .errors import TooFewSteps
from .events import StepDetection


class GaitParameter(NamedTuple):
    name: str           # GaitReport field, CSV column, matched-CSV parameter
    unit: str
    label: str          # table-1 row and Bland-Altman plot title
    truth_key: str      # GroundTruth field and truth sidecar key
    truth_scale: float  # truth_key * truth_scale is in `unit`


# The four reported parameters, in the column order of every result file.
PARAMETERS = (
    GaitParameter("gait_speed_m_s", "m/s", "gait speed", "speed_m_s", 1.0),
    GaitParameter("cadence_steps_min", "steps/min", "cadence", "cadence_steps_min", 1.0),
    GaitParameter("step_length_cm", "cm", "step length", "step_length_m", 100.0),
    GaitParameter("step_time_s", "s", "step time", "step_time_s", 1.0),
)


def truth_values(mapping: Mapping[str, float]) -> dict[str, float]:
    """Each parameter's true value in its unit, by name, from a mapping keyed
    by truth_key: a truth sidecar, or vars() of a GroundTruth."""
    return {p.name: p.truth_scale * mapping[p.truth_key] for p in PARAMETERS}


@dataclass(frozen=True)
class GaitReport:
    n_events: int
    steps_used: int
    duration_used_s: float
    gait_speed_m_s: float
    cadence_steps_min: float
    step_length_cm: float                 # mean over counted steps
    step_time_s: float                    # mean over counted steps
    step_lengths_cm: tuple[float, ...]    # one per counted step
    step_times_s: tuple[float, ...]
    travel_m: float                       # root travel between first/last event


def compute_report(detection: StepDetection) -> GaitReport:
    """Aggregate a StepDetection into gait parameters.

    Raises TooFewSteps when fewer than two events are available, since no
    step interval exists to measure.
    """
    events = detection.events
    if len(events) < 2:
        raise TooFewSteps(f"need at least 2 step events, got {len(events)}")

    steps = len(events) - 1
    duration = events[-1].time_s - events[0].time_s
    if duration <= 0:
        raise TooFewSteps("step events span zero time")

    step_times = tuple(
        b.time_s - a.time_s for a, b in zip(events[:-1], events[1:])
    )
    step_lengths_cm = tuple(100.0 * ev.step_length_m for ev in events[1:])

    # Root progress is interpolated at the event times (which sit at cluster
    # centres, generally between frames) so distance and duration describe
    # the same window.
    along = np.interp(
        [events[0].time_s, events[-1].time_s],
        detection.signal.times,
        detection.root_along,
    )
    travel = abs(float(along[1] - along[0]))

    return GaitReport(
        n_events=len(events),
        steps_used=steps,
        duration_used_s=duration,
        gait_speed_m_s=travel / duration,
        cadence_steps_min=60.0 * steps / duration,
        step_length_cm=sum(step_lengths_cm) / steps,
        step_time_s=duration / steps,
        step_lengths_cm=step_lengths_cm,
        step_times_s=step_times,
        travel_m=travel,
    )
