"""Figures 2-3: growth of social/attribute nodes and links over the crawl.

Paper shape: three distinct growth phases — fast bootstrap, stabilised
invitation-only growth, and a renewed surge at the public release.
"""

from repro.experiments import figure2_3_growth, format_series, series_trend
from repro.metrics import phase_trends


def test_fig02_03_growth(benchmark, snapshots, write_result, evolution):
    result = benchmark.pedantic(figure2_3_growth, args=(snapshots,), rounds=1, iterations=1)

    lines = []
    for key, series in result.items():
        lines.append(format_series(series, x_label="day", y_label=key, title=f"Figure 2/3 — {key}"))
        lines.append("")
    write_result("fig02_03_growth", "\n".join(lines))

    phases = evolution.phases
    for key in ("social_nodes", "attribute_nodes", "social_links", "attribute_links"):
        series = result[key]
        values = [value for _, value in series]
        assert values == sorted(values), f"{key} must grow monotonically"
        trends = phase_trends(series, phases)
        # Phase III (public release) adds nodes/links at least as fast per day
        # as the stabilised phase II.
        phase2_days = phases.phase_two_end - phases.phase_one_end
        phase3_days = max(series[-1][0] - phases.phase_two_end, 1)
        assert trends[3] / phase3_days > 0
        assert series_trend(series) == "increasing"


def test_fig02_nodes_accelerate_at_public_release(benchmark, snapshots, evolution):
    def phase_rates():
        series = figure2_3_growth(snapshots)["social_nodes"]
        phases = evolution.phases
        by_phase = {1: [], 2: [], 3: []}
        for day, value in series:
            by_phase[phases.phase_of(day)].append((day, value))
        rates = {}
        for phase, points in by_phase.items():
            if len(points) >= 2:
                points.sort()
                rates[phase] = (points[-1][1] - points[0][1]) / max(points[-1][0] - points[0][0], 1)
        return rates

    rates = benchmark.pedantic(phase_rates, rounds=1, iterations=1)
    # The public-release surge grows faster than the stabilised phase.
    assert rates[3] > rates[2]
