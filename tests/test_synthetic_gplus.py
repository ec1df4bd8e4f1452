"""Tests for the synthetic Google+ ground-truth simulator."""

import numpy as np
import pytest
from evolution_reference import san_at, snapshots

from repro.metrics import (
    PhaseBoundaries,
    attribute_declaration_fraction,
    global_reciprocity,
)
from repro.models.history import KIND_ATTRIBUTE_REMOVE
from repro.synthetic import FlashCrowdDay, GooglePlusConfig, SybilWaveDay, simulate_google_plus


def test_evolution_basic_counts(tiny_evolution):
    final = tiny_evolution.final_san()
    assert final.number_of_social_nodes() == pytest.approx(400, rel=0.1)
    assert final.number_of_social_edges() > final.number_of_social_nodes()
    assert final.number_of_attribute_edges() > 0
    assert tiny_evolution.num_days == 40
    assert len(tiny_evolution.join_day) == final.number_of_social_nodes()


def test_events_are_day_ordered(tiny_evolution):
    days = tiny_evolution.day.tolist()
    assert days == sorted(days)
    assert days[0] >= 1 and days[-1] <= tiny_evolution.num_days


def test_san_at_is_monotone(tiny_evolution):
    early = san_at(tiny_evolution, 10)
    late = san_at(tiny_evolution, 30)
    assert early.number_of_social_nodes() < late.number_of_social_nodes()
    assert early.number_of_social_edges() < late.number_of_social_edges()
    # Every early edge persists.
    for source, target in early.social_edges():
        assert late.has_social_edge(source, target)


def test_snapshots_match_san_at(tiny_evolution):
    copies = snapshots(tiny_evolution, [10, 30])
    assert [day for day, _ in copies] == [10, 30]
    for day, san in copies:
        direct = san_at(tiny_evolution, day)
        assert san.number_of_social_edges() == direct.number_of_social_edges()
        assert san.number_of_attribute_edges() == direct.number_of_attribute_edges()


def test_join_days_respect_arrival_schedule(tiny_evolution):
    for user, day in tiny_evolution.join_day.items():
        assert 1 <= day <= tiny_evolution.num_days
    final = tiny_evolution.final_san()
    users_by_day20 = [user for user, day in tiny_evolution.join_day.items() if day <= 20]
    assert 0 < len(users_by_day20) < final.number_of_social_nodes()


def test_declaration_fraction_matches_config(tiny_evolution):
    final = tiny_evolution.final_san()
    fraction = attribute_declaration_fraction(final)
    assert fraction == pytest.approx(0.22, abs=0.08)


def test_profiles_only_for_declaring_users(tiny_evolution):
    """A user declares at most one value per attribute type."""
    indptr, indices = tiny_evolution.final_san().attributes.social_to_attr_csr()
    info = tiny_evolution.attribute_info
    for start, stop in zip(indptr[:-1].tolist(), indptr[1:].tolist()):
        types = [info[attribute].attr_type for attribute in indices[start:stop].tolist()]
        assert len(set(types)) == len(types)


def test_reciprocity_in_plausible_range(tiny_evolution):
    reciprocity = global_reciprocity(tiny_evolution.final_san())
    assert 0.3 < reciprocity < 0.85


def test_arrival_history_between_days(tiny_evolution):
    history = tiny_evolution.arrival_history(start_day=21, end_day=40)
    initial = san_at(tiny_evolution, 20)
    assert history.num_initial_nodes == initial.number_of_social_nodes()
    assert history.initial_src.size == initial.number_of_social_edges()
    assert history.initial_member.size == initial.number_of_attribute_edges()
    expected = san_at(tiny_evolution, 40)
    assert history.initial_src.size + history.num_social_links() == (
        expected.number_of_social_edges()
    )


def test_new_social_links_between(tiny_evolution):
    sources, targets = tiny_evolution.new_social_links_between(20, 40)
    links = list(zip(sources.tolist(), targets.tolist()))
    early = san_at(tiny_evolution, 20)
    late = san_at(tiny_evolution, 40)
    assert len(links) == late.number_of_social_edges() - early.number_of_social_edges()
    for source, target in links[:50]:
        assert not early.has_social_edge(source, target)
        assert late.has_social_edge(source, target)


def test_config_validation():
    with pytest.raises(ValueError):
        GooglePlusConfig(triadic_probability=0.9, focal_probability=0.3)
    with pytest.raises(ValueError):
        GooglePlusConfig(declare_probability=1.5)


def test_simulation_deterministic_given_seed():
    config = GooglePlusConfig(
        total_users=120, num_days=20, phases=PhaseBoundaries(5, 15)
    )
    first = simulate_google_plus(config, rng=42)
    second = simulate_google_plus(config, rng=42)
    for column in ("day", "kind", "first", "second"):
        assert np.array_equal(getattr(first, column), getattr(second, column))
    assert first.final_san().number_of_social_edges() == second.final_san().number_of_social_edges()


def test_simulation_serialized_determinism(tmp_path):
    """Same seed + config produce byte-identical serialized final SANs."""
    from repro.graph import save_san_tsv

    config = GooglePlusConfig(
        total_users=120, num_days=20, phases=PhaseBoundaries(5, 15)
    )
    for index in (1, 2):
        evolution = simulate_google_plus(config, rng=42)
        save_san_tsv(
            evolution.final_san(),
            tmp_path / f"run{index}.social.tsv",
            tmp_path / f"run{index}.attrs.tsv",
        )
    for suffix in ("social.tsv", "attrs.tsv"):
        assert (tmp_path / f"run1.{suffix}").read_bytes() == (
            tmp_path / f"run2.{suffix}"
        ).read_bytes()


def test_frozen_snapshots_match_copied_snapshots(tiny_evolution):
    """Delta-materialized frozen snapshots equal the replay-copy snapshots."""
    days = [10, 25, 40]
    copied = snapshots(tiny_evolution, days)
    frozen = tiny_evolution.frozen_snapshots(days)
    assert [day for day, _ in frozen] == [day for day, _ in copied]
    for (day, san), (_, view) in zip(copied, frozen):
        assert view.summary() == san.summary()
        for source, target in list(san.social_edges())[:100]:
            assert view.has_social_edge(source, target)
        for social, attribute in list(san.attribute_edges())[:100]:
            assert view.has_attribute_edge(social, attribute)
            assert view.attribute_info(attribute) == san.attribute_info(attribute)


def _frozen_arrays(san):
    """Every array and label table of a frozen SAN, for exact comparison."""
    return [
        list(san.social.labels()),
        *san.social.out_csr(),
        *san.social.in_csr(),
        list(san.attributes.attribute_labels()),
        [san.attribute_info(label) for label in san.attributes.attribute_labels()],
        *san.attributes.social_to_attr_csr(),
        *san.attributes.attr_to_social_csr(),
    ]


def _assert_single_day_replays_match(evolution):
    days = list(range(1, evolution.num_days + 1))
    every_day = evolution.frozen_snapshots(days)
    assert [day for day, _ in every_day] == days
    for day, san in every_day:
        (only_day, single), = evolution.frozen_snapshots([day])
        assert only_day == day
        for expected, actual in zip(_frozen_arrays(san), _frozen_arrays(single)):
            if isinstance(expected, np.ndarray):
                assert np.array_equal(actual, expected), day
            else:
                assert actual == expected, day


def test_single_day_frozen_snapshot_equals_that_day_of_a_full_call(tiny_evolution):
    """The replay that stops at the requested day builds the same arrays."""
    _assert_single_day_replays_match(tiny_evolution)


def test_single_day_frozen_snapshot_under_churn_sybils_and_flash_crowds():
    config = GooglePlusConfig(
        total_users=200,
        num_days=24,
        phases=PhaseBoundaries(phase_one_end=6, phase_two_end=18),
        attribute_churn_rate=3.0,
        flash_crowds=(FlashCrowdDay(day=12, arrivals=40),),
        sybil_waves=(SybilWaveDay(day=15, num_sybils=12, intra_links=10),),
    )
    evolution = simulate_google_plus(config, rng=7)
    assert np.any(evolution.kind == KIND_ATTRIBUTE_REMOVE)
    _assert_single_day_replays_match(evolution)


def test_frozen_snapshots_ignore_days_outside_the_log(tiny_evolution):
    assert tiny_evolution.frozen_snapshots([0, tiny_evolution.num_days + 1]) == []
    assert tiny_evolution.frozen_snapshots([]) == []


def test_three_phase_growth_visible(tiny_evolution):
    """Node growth accelerates again in phase III (public release)."""
    phases = tiny_evolution.phases
    nodes_phase2_end = san_at(tiny_evolution, phases.phase_two_end).number_of_social_nodes()
    nodes_mid_phase2 = san_at(
        tiny_evolution, (phases.phase_one_end + phases.phase_two_end) // 2
    ).number_of_social_nodes()
    nodes_final = tiny_evolution.final_san().number_of_social_nodes()
    phase2_rate = (nodes_phase2_end - nodes_mid_phase2) / max(
        phases.phase_two_end - (phases.phase_one_end + phases.phase_two_end) // 2, 1
    )
    phase3_rate = (nodes_final - nodes_phase2_end) / max(
        tiny_evolution.num_days - phases.phase_two_end, 1
    )
    assert phase3_rate > phase2_rate
