"""Plain-text rendering of experiment results (series and tables).

The benchmark harness prints the same rows/series the paper's figures show;
these helpers keep that formatting consistent and dependency-free.
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Sequence, Tuple


def format_series(
    series: Sequence[Tuple[float, float]],
    x_label: str = "x",
    y_label: str = "y",
    title: Optional[str] = None,
    precision: int = 4,
) -> str:
    """Render an ``(x, y)`` series as an aligned two-column table."""
    lines: List[str] = []
    if title:
        lines.append(title)
    header = f"{x_label:>12}  {y_label:>14}"
    lines.append(header)
    lines.append("-" * len(header))
    for x, y in series:
        lines.append(f"{x:>12g}  {y:>14.{precision}g}")
    return "\n".join(lines)


def format_table(
    rows: Sequence[Mapping[str, object]],
    columns: Optional[Sequence[str]] = None,
    title: Optional[str] = None,
    precision: int = 4,
) -> str:
    """Render a list of row dictionaries as an aligned text table."""
    if not rows:
        return title or "(empty table)"
    if columns is None:
        columns = list(rows[0].keys())

    def cell(value: object) -> str:
        if isinstance(value, float):
            return f"{value:.{precision}g}"
        return str(value)

    rendered = [[cell(row.get(column, "")) for column in columns] for row in rows]
    widths = [
        max(len(str(column)), max(len(row[index]) for row in rendered))
        for index, column in enumerate(columns)
    ]
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append("  ".join(str(column).ljust(widths[index]) for index, column in enumerate(columns)))
    lines.append("  ".join("-" * widths[index] for index in range(len(columns))))
    for row in rendered:
        lines.append("  ".join(row[index].ljust(widths[index]) for index in range(len(columns))))
    return "\n".join(lines)


def _is_numeric_pair_series(value: object) -> bool:
    return (
        isinstance(value, (list, tuple))
        and len(value) > 0
        and all(
            isinstance(point, (list, tuple))
            and len(point) == 2
            and all(isinstance(part, (int, float)) for part in point)
            for point in value
        )
    )


def render_payload(payload: object, title: Optional[str] = None, indent: int = 0) -> str:
    """Render an arbitrary experiment payload as plain text.

    The pipeline runner uses this to turn every stage's returned data (nested
    dicts of series, tables, and scalars) into the same aligned-text tables
    the figure benches write, without each stage declaring its own renderer:

    * a sequence of numeric ``(x, y)`` pairs becomes :func:`format_series`;
    * a mapping recurses with ``title — key`` section headers;
    * scalars and everything else render as ``key: value`` lines.
    """
    prefix = "  " * indent
    if _is_numeric_pair_series(payload):
        series = [(float(x), float(y)) for x, y in payload]  # type: ignore[union-attr]
        rendered = format_series(series, title=title)
        return "\n".join(prefix + line for line in rendered.splitlines())
    if isinstance(payload, Mapping):
        lines: List[str] = []
        if title:
            lines.append(prefix + title)
        for key, value in payload.items():
            label = str(key)
            inner = render_payload(value, title=label, indent=indent + 1)
            if isinstance(value, Mapping) or _is_numeric_pair_series(value):
                lines.append(inner)
                lines.append("")
            else:
                lines.append(inner)
        while lines and not lines[-1]:
            lines.pop()
        return "\n".join(lines)
    if title is None:
        return prefix + repr(payload)
    if isinstance(payload, float):
        return f"{prefix}{title}: {payload:.6g}"
    return f"{prefix}{title}: {payload!r}"


def series_trend(series: Sequence[Tuple[float, float]]) -> str:
    """A one-word trend summary ('increasing', 'decreasing', 'flat') of a series."""
    if len(series) < 2:
        return "flat"
    first = series[0][1]
    last = series[-1][1]
    scale = max(abs(first), abs(last), 1e-12)
    change = (last - first) / scale
    if change > 0.05:
        return "increasing"
    if change < -0.05:
        return "decreasing"
    return "flat"
