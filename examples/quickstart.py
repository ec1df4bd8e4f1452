"""Quickstart: build a SAN, measure it, and fit degree distributions.

Run with::

    python examples/quickstart.py

The script builds a small Social-Attribute Network by hand, prints the
headline metrics the paper studies (reciprocity, density, clustering,
diameter, assortativity), then simulates a small Google+-like evolution,
crawls it, and reports which distribution family best fits its degrees.
"""

from __future__ import annotations

from repro.crawler import crawl_evolution
from repro.fitting import best_fit_name, fit_lognormal
from repro.graph import SAN
from repro.metrics import (
    format_report,
    positive_degrees,
    san_metric_report,
    social_out_degrees,
)
from repro.synthetic import GooglePlusConfig, build_workload
from repro.metrics.evolution import PhaseBoundaries


def hand_built_san() -> SAN:
    """The running example of the paper's Figure 1, built edge by edge."""
    san = SAN()
    # Directed social links ("in your circles").
    for source, target in [(1, 2), (2, 1), (2, 3), (3, 2), (1, 3), (4, 2), (5, 6), (6, 5)]:
        san.add_social_edge(source, target)
    # Undirected attribute links from user profiles.
    san.add_attribute_edge(1, "employer:Google", attr_type="employer", value="Google")
    san.add_attribute_edge(2, "employer:Google", attr_type="employer", value="Google")
    san.add_attribute_edge(2, "school:UC Berkeley", attr_type="school", value="UC Berkeley")
    san.add_attribute_edge(4, "major:Computer Science", attr_type="major", value="Computer Science")
    san.add_attribute_edge(5, "major:Computer Science", attr_type="major", value="Computer Science")
    san.add_attribute_edge(6, "city:San Francisco", attr_type="city", value="San Francisco")
    return san


def main() -> None:
    print("=" * 70)
    print("1. A hand-built SAN (Figure 1 of the paper)")
    print("=" * 70)
    san = hand_built_san()
    print(format_report(san_metric_report(san, rng=1), title="Hand-built SAN metrics"))
    print()
    print("Common attributes of users 1 and 2:", sorted(san.common_attributes(1, 2)))
    print()

    print("=" * 70)
    print("2. A simulated Google+-like evolution, crawled daily")
    print("=" * 70)
    config = GooglePlusConfig(
        total_users=800, num_days=60, phases=PhaseBoundaries(phase_one_end=15, phase_two_end=45)
    )
    workload = build_workload(config, rng=42, snapshot_count=8)
    series = crawl_evolution(workload.evolution, workload.snapshot_days)
    # Crawled snapshots are frozen SANs: the read API of the mutable SAN, but
    # metrics run on CSR numpy arrays instead of per-node dict walks (see
    # docs/architecture.md).
    final = series.last()
    print(format_report(san_metric_report(final, rng=2), title="Final crawled snapshot (frozen backend)"))
    print()

    degrees = positive_degrees(social_out_degrees(final))
    fit = fit_lognormal(degrees)
    print(
        "Out-degree best-fit family:",
        best_fit_name(degrees),
        f"(lognormal mu={fit.distribution.mu:.2f}, sigma={fit.distribution.sigma:.2f})",
    )
    print("Crawl coverage per day:", {day: round(value, 3) for day, value in series.coverage.items()})


if __name__ == "__main__":
    main()
