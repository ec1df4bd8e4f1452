"""Tests for the privacy model, BFS crawler, and daily snapshot series."""

import pytest

from repro.crawler import FULLY_PUBLIC, PrivacyModel, crawl_evolution
from repro.crawler.crawler import crawl_frozen, default_seed, member_ids
from repro.graph import SAN, san_from_edge_lists


def test_privacy_model_is_deterministic_per_user():
    privacy = PrivacyModel(hide_links_probability=0.5, seed=3)
    decisions = [privacy.hides_links(user) for user in range(50)]
    assert decisions == [privacy.hides_links(user) for user in range(50)]
    assert any(decisions) and not all(decisions)


def test_privacy_model_extremes():
    assert not FULLY_PUBLIC.hides_links(1)
    assert not FULLY_PUBLIC.hides_attributes(1)
    always = PrivacyModel(hide_links_probability=1.0, hide_attributes_probability=1.0)
    assert always.hides_links("anyone") and always.hides_attributes("anyone")
    with pytest.raises(ValueError):
        PrivacyModel(hide_links_probability=2.0)


def test_full_crawl_recovers_connected_ground_truth(figure1_san):
    truth = figure1_san.freeze()
    crawled, visited = crawl_frozen(
        truth, member_ids(truth, [1]), *FULLY_PUBLIC.masks(truth.social.labels())
    )
    assert visited.size == truth.number_of_social_nodes()
    assert crawled.number_of_social_edges() == figure1_san.number_of_social_edges()
    assert crawled.number_of_attribute_edges() == figure1_san.number_of_attribute_edges()


def test_crawl_only_reaches_weakly_connected_component():
    truth = san_from_edge_lists([(1, 2), (2, 3), (10, 11)]).freeze()
    crawled, visited = crawl_frozen(
        truth, member_ids(truth, [1]), *FULLY_PUBLIC.masks(truth.social.labels())
    )
    assert crawled.number_of_social_nodes() == 3
    assert visited.size / truth.number_of_social_nodes() == pytest.approx(3 / 5)
    assert not crawled.is_social_node(10)


def test_crawl_uses_incoming_lists_too():
    # Seed 3 has no outgoing links; it is discoverable only via incoming lists.
    truth = san_from_edge_lists([(1, 3), (2, 3), (1, 2)]).freeze()
    crawled, _ = crawl_frozen(
        truth, member_ids(truth, [3]), *FULLY_PUBLIC.masks(truth.social.labels())
    )
    assert crawled.number_of_social_nodes() == 3


def test_crawl_empty_ground_truth():
    for ground_truth in (SAN(), SAN().freeze()):
        truth = ground_truth.freeze()
        assert default_seed(truth).size == 0
        crawled, visited = crawl_frozen(
            truth, default_seed(truth), *FULLY_PUBLIC.masks(truth.social.labels())
        )
        assert visited.size == 0
        assert crawled.number_of_social_nodes() == 0


def test_private_links_reduce_edge_coverage(tiny_evolution):
    truth = tiny_evolution.final_san()
    labels = truth.social.labels()
    public, _ = crawl_frozen(truth, default_seed(truth), *FULLY_PUBLIC.masks(labels))
    privacy = PrivacyModel(hide_links_probability=0.5, seed=1)
    private, _ = crawl_frozen(truth, default_seed(truth), *privacy.masks(labels))
    assert private.number_of_social_edges() <= public.number_of_social_edges()


def test_hidden_attributes_are_not_collected(figure1_san):
    truth = figure1_san.freeze()
    privacy = PrivacyModel(hide_attributes_probability=1.0)
    crawled, _ = crawl_frozen(
        truth, member_ids(truth, [1]), *privacy.masks(truth.social.labels())
    )
    assert crawled.number_of_attribute_edges() == 0


def test_crawl_series_expands_and_covers(tiny_evolution, tiny_snapshot_days, tiny_snapshots):
    series = tiny_snapshots
    assert len(series) == len(tiny_snapshot_days)
    sizes = [san.number_of_social_nodes() for _, san in series]
    assert sizes == sorted(sizes)
    # Coverage stays high (paper: >= 70%).
    assert all(coverage >= 0.7 for coverage in series.coverage.values())
    assert series.days() == tiny_snapshot_days


def test_snapshot_series_accessors(tiny_snapshots, tiny_snapshot_days):
    assert tiny_snapshots.at(tiny_snapshot_days[0]).number_of_social_nodes() > 0
    with pytest.raises(KeyError):
        tiny_snapshots.at(9999)
    assert tiny_snapshots.last().number_of_social_nodes() >= tiny_snapshots.halfway().number_of_social_nodes()


def test_snapshot_series_empty_errors():
    from repro.crawler import SnapshotSeries

    empty = SnapshotSeries()
    with pytest.raises(ValueError):
        empty.last()
    with pytest.raises(ValueError):
        empty.halfway()


def test_crawl_evolution_with_privacy(tiny_evolution, tiny_snapshot_days):
    series = crawl_evolution(
        tiny_evolution,
        tiny_snapshot_days[-2:],
        privacy=PrivacyModel(hide_links_probability=0.05, seed=2),
    )
    assert len(series) == 2
    assert all(coverage > 0.5 for coverage in series.coverage.values())


# ----------------------------------------------------------------------
# Privacy-model edge cases and the visibility sweep
# ----------------------------------------------------------------------
def test_privacy_salts_keep_link_and_attribute_decisions_independent():
    privacy = PrivacyModel(
        hide_links_probability=0.5, hide_attributes_probability=0.5, seed=11
    )
    users = range(200)
    link_decisions = [privacy.hides_links(user) for user in users]
    attribute_decisions = [privacy.hides_attributes(user) for user in users]
    # Same seed, different salt: the two decision streams must not collapse
    # onto each other (a shared stream would correlate the two hiding rates).
    assert link_decisions != attribute_decisions
    same_seed = PrivacyModel(
        hide_links_probability=0.5, hide_attributes_probability=0.5, seed=11
    )
    assert link_decisions == [same_seed.hides_links(user) for user in users]
    other_seed = PrivacyModel(hide_links_probability=0.5, seed=12)
    assert link_decisions != [other_seed.hides_links(user) for user in users]


def test_hiding_decisions_are_monotone_in_the_rate():
    """With one seed, raising the hide rate only ever hides *more* users."""
    users = range(200)
    hidden_sets = []
    for rate in (0.0, 0.2, 0.5, 0.8, 1.0):
        privacy = PrivacyModel(hide_links_probability=rate, seed=5)
        hidden_sets.append({user for user in users if privacy.hides_links(user)})
    assert hidden_sets[0] == set()
    assert len(hidden_sets[-1]) == 200
    for smaller, larger in zip(hidden_sets, hidden_sets[1:]):
        assert smaller <= larger


def test_visibility_sweep_monotonically_shrinks_the_crawl(tiny_evolution):
    """More hiding can only cost the crawler edges, never gain them."""
    truth = tiny_evolution.final_san()
    seeds = member_ids(truth, sorted(truth.social_nodes(), key=str)[:10])
    edge_counts = []
    for rate in (0.0, 0.2, 0.5, 0.8, 1.0):
        privacy = PrivacyModel(hide_links_probability=rate, seed=7)
        crawled, _ = crawl_frozen(truth, seeds, *privacy.masks(truth.social.labels()))
        edge_counts.append(crawled.number_of_social_edges())
    assert edge_counts == sorted(edge_counts, reverse=True)
    assert edge_counts[0] > edge_counts[-1]


def test_everyone_hiding_links_strands_the_crawl_at_its_seeds(figure1_san):
    truth = figure1_san.freeze()
    privacy = PrivacyModel(hide_links_probability=1.0)
    seeds = sorted(truth.social_nodes(), key=str)[:2]
    crawled, _ = crawl_frozen(
        truth, member_ids(truth, seeds), *privacy.masks(truth.social.labels())
    )
    # No user exposes a circle list, so BFS can never leave the seed set.
    assert set(crawled.social_nodes()) == set(seeds)
    assert crawled.number_of_social_edges() == 0
