"""Tests for the plain-text experiment reporting helpers."""

from repro.experiments import format_series, format_table, series_trend


def test_format_series_contains_rows_and_labels():
    text = format_series([(1, 0.5), (2, 0.25)], x_label="day", y_label="value", title="demo")
    assert "demo" in text
    assert "day" in text and "value" in text
    assert "0.5" in text and "0.25" in text


def test_format_table_alignment_and_missing_cells():
    rows = [{"name": "a", "value": 1.23456}, {"name": "bb"}]
    text = format_table(rows, columns=["name", "value"], title="tbl")
    assert "tbl" in text
    assert "1.235" in text
    lines = text.splitlines()
    assert len(lines) == 5  # title, header, rule, two rows


def test_format_table_empty():
    assert format_table([], title="nothing") == "nothing"
    assert format_table([]) == "(empty table)"


def test_series_trend():
    assert series_trend([(1, 1.0), (2, 2.0)]) == "increasing"
    assert series_trend([(1, 2.0), (2, 1.0)]) == "decreasing"
    assert series_trend([(1, 1.0), (2, 1.01)]) == "flat"
    assert series_trend([(1, 1.0)]) == "flat"
