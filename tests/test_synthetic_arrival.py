"""Tests for the three-phase arrival schedule."""

import pytest

from repro.metrics import PhaseBoundaries
from repro.synthetic import three_phase_schedule


def test_three_phase_schedule_total_and_length():
    schedule = three_phase_schedule(total_users=5000, num_days=98)
    assert schedule.num_days == 98
    # Rounding keeps the total close to the request.
    assert schedule.total_users == pytest.approx(5000, rel=0.05)
    assert all(arrivals >= 1 for arrivals in schedule.daily_arrivals)


def test_three_phase_shape():
    phases = PhaseBoundaries(phase_one_end=20, phase_two_end=75)
    schedule = three_phase_schedule(total_users=10000, num_days=98, phases=phases)
    daily = schedule.daily_arrivals
    # Phase I ramps up: the end of phase I beats its start.
    assert daily[19] > daily[0]
    # Public release: day 76 jumps well above the phase II level.
    assert daily[75] > daily[74] * 1.5
    # Phase II is roughly flat.
    phase2 = daily[20:75]
    assert max(phase2) <= min(phase2) * 1.5 + 1


def test_arrivals_on_out_of_range():
    schedule = three_phase_schedule(total_users=500, num_days=40,
                                    phases=PhaseBoundaries(10, 30))
    assert schedule.arrivals_on(0) == 0
    assert schedule.arrivals_on(41) == 0
    assert schedule.arrivals_on(1) >= 1


def test_three_phase_validation():
    with pytest.raises(ValueError):
        three_phase_schedule(total_users=10, num_days=98)
    with pytest.raises(ValueError):
        three_phase_schedule(
            total_users=1000, num_days=98, phase_one_share=0.5, phase_two_share=0.5, phase_three_share=0.5
        )
