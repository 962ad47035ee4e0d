"""Job arrival processes — putting wall-clock time under the stream.

The trace-driven simulations treat requests as an ordered sequence; for
throughput questions (an open-loop load generator, for one) jobs need
*submit times*.  HTC arrival patterns are bursty: users submit
campaigns of many jobs at once, on top of a diurnal baseline.  Three
processes:

- :func:`poisson_arrivals` — memoryless baseline at a constant rate;
- :func:`diurnal_arrivals` — a sinusoidal day/night rate modulation
  (thinning of a Poisson process);
- :func:`campaign_arrivals` — bursts: campaign start times are Poisson,
  each campaign releases a batch of jobs in quick succession (the
  "submission systems generate jobs on behalf of users" pattern of §I).

All return sorted NumPy arrays of submit times in seconds.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.htc.job import Job

__all__ = [
    "poisson_arrivals",
    "diurnal_arrivals",
    "campaign_arrivals",
    "assign_arrival_times",
]

_DAY = 86_400.0


def poisson_arrivals(
    rng: np.random.Generator, n: int, rate_per_hour: float
) -> np.ndarray:
    """``n`` arrival times with exponential inter-arrival gaps."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if rate_per_hour <= 0:
        raise ValueError("rate_per_hour must be positive")
    gaps = rng.exponential(3600.0 / rate_per_hour, size=n)
    return np.cumsum(gaps)


def diurnal_arrivals(
    rng: np.random.Generator,
    n: int,
    mean_rate_per_hour: float,
    peak_to_trough: float = 4.0,
    peak_hour: float = 15.0,
) -> np.ndarray:
    """Arrivals whose rate follows a 24 h sinusoid.

    Implemented by thinning a Poisson process at the peak rate: candidate
    arrivals are kept with probability rate(t)/peak_rate.  ``peak_to_trough``
    is the ratio between the busiest and quietest hour.
    """
    if peak_to_trough < 1.0:
        raise ValueError("peak_to_trough must be >= 1")
    amplitude = (peak_to_trough - 1.0) / (peak_to_trough + 1.0)
    peak_rate = mean_rate_per_hour * (1.0 + amplitude)

    def relative_rate(t: np.ndarray) -> np.ndarray:
        phase = 2.0 * np.pi * (t / _DAY - peak_hour / 24.0)
        return (1.0 + amplitude * np.cos(phase)) / (1.0 + amplitude)

    times: List[float] = []
    t = 0.0
    while len(times) < n:
        draw = max(n * 2, 64)
        gaps = rng.exponential(3600.0 / peak_rate, size=draw)
        candidates = t + np.cumsum(gaps)
        keep = rng.random(draw) < relative_rate(candidates)
        times.extend(candidates[keep].tolist())
        t = float(candidates[-1])
    return np.asarray(times[:n])


def campaign_arrivals(
    rng: np.random.Generator,
    n: int,
    campaigns_per_day: float = 6.0,
    jobs_per_campaign: float = 40.0,
    intra_campaign_gap: float = 5.0,
) -> np.ndarray:
    """Bursty arrivals: Poisson campaign starts, geometric batch sizes,
    short fixed-ish gaps (exponential around ``intra_campaign_gap``
    seconds) within a campaign."""
    if n < 0:
        raise ValueError("n must be non-negative")
    times: List[float] = []
    t = 0.0
    p = 1.0 / max(jobs_per_campaign, 1.0)
    while len(times) < n:
        t += float(rng.exponential(_DAY / campaigns_per_day))
        batch = int(rng.geometric(p))
        offsets = np.cumsum(rng.exponential(intra_campaign_gap, size=batch))
        times.extend((t + offsets).tolist())
    return np.sort(np.asarray(times[:n]))


def assign_arrival_times(
    jobs: Sequence[Job], times: Sequence[float]
) -> List["tuple[float, Job]"]:
    """Pair jobs with sorted arrival times -> [(submit_time, job), ...]."""
    if len(jobs) != len(times):
        raise ValueError("need exactly one arrival time per job")
    ordered = np.argsort(np.asarray(times, dtype=float))
    return [(float(times[int(i)]), jobs[int(i)]) for i in ordered]
