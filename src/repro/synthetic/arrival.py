"""Node arrival functions with the three-phase Google+ timeline.

Phase I (launch, days 1-20): explosive invitation-driven growth.
Phase II (days 21-75): stabilised invitation-only growth.
Phase III (days 76-98): public release, another surge.

The arrival function returns the number of new users per day, scaled so that
the total over the whole timeline equals ``total_users``.  The per-phase
*shape* (relative daily rates) is what produces the three-phase patterns in
the growth, density and diameter figures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List

from ..metrics.evolution import PhaseBoundaries


@dataclass(frozen=True)
class ArrivalSchedule:
    """Per-day new-user counts over the simulated timeline."""

    daily_arrivals: List[int]

    @property
    def num_days(self) -> int:
        return len(self.daily_arrivals)

    @property
    def total_users(self) -> int:
        return sum(self.daily_arrivals)

    def arrivals_on(self, day: int) -> int:
        """New users on ``day`` (1-indexed)."""
        if not 1 <= day <= self.num_days:
            return 0
        return self.daily_arrivals[day - 1]


def three_phase_schedule(
    total_users: int = 6000,
    num_days: int = 98,
    phases: PhaseBoundaries = PhaseBoundaries(),
    phase_one_share: float = 0.35,
    phase_two_share: float = 0.35,
    phase_three_share: float = 0.30,
) -> ArrivalSchedule:
    """Arrival schedule mimicking the Google+ launch / invite-only / public phases.

    Within Phase I daily arrivals ramp up steeply (early viral growth), within
    Phase II they are flat and lower, and Phase III starts with a large jump
    that decays slowly — the same qualitative shapes as Figure 2a.
    """
    if total_users < num_days:
        raise ValueError("total_users must be at least one per day")
    shares = phase_one_share + phase_two_share + phase_three_share
    if not math.isclose(shares, 1.0, rel_tol=1e-6):
        raise ValueError("phase shares must sum to 1")

    weights: List[float] = []
    for day in range(1, num_days + 1):
        phase = phases.phase_of(day)
        if phase == 1:
            # Steep ramp: early days small, end of phase large.
            position = day / max(phases.phase_one_end, 1)
            weights.append(0.2 + 1.8 * position ** 2)
        elif phase == 2:
            weights.append(1.0)
        else:
            # Jump at public release then slow decay.
            offset = day - phases.phase_two_end
            weights.append(3.0 * math.exp(-offset / 20.0) + 1.5)

    phase_shares = {1: phase_one_share, 2: phase_two_share, 3: phase_three_share}
    phase_weight_totals = {1: 0.0, 2: 0.0, 3: 0.0}
    for day, weight in enumerate(weights, start=1):
        phase_weight_totals[phases.phase_of(day)] += weight

    daily: List[int] = []
    for day, weight in enumerate(weights, start=1):
        phase = phases.phase_of(day)
        share = phase_shares[phase] * weight / phase_weight_totals[phase]
        daily.append(max(1, int(round(share * total_users))))
    return ArrivalSchedule(daily_arrivals=daily)
