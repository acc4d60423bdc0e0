"""ASCII rendering for experiment results.

The paper's figures are bar charts; the harness renders the same series
as aligned tables (one row per benchmark/config, one column per scheme)
plus the arithmetic/geometric means the paper annotates.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]],
                 title: Optional[str] = None, precision: int = 2) -> str:
    """Render rows as a fixed-width ASCII table."""
    rendered_rows: List[List[str]] = []
    for row in rows:
        rendered: List[str] = []
        for cell in row:
            if isinstance(cell, float):
                rendered.append(f"{cell:.{precision}f}")
            else:
                rendered.append(str(cell))
        rendered_rows.append(rendered)
    widths = [len(str(header)) for header in headers]
    for row in rendered_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines: List[str] = []
    if title:
        lines.append(title)
    header_line = "  ".join(str(h).ljust(widths[i])
                            for i, h in enumerate(headers))
    lines.append(header_line)
    lines.append("-" * len(header_line))
    for row in rendered_rows:
        lines.append("  ".join(cell.rjust(widths[i]) if i else
                               cell.ljust(widths[i])
                               for i, cell in enumerate(row)))
    return "\n".join(lines)


def series_table(title: str, row_names: Sequence[str],
                 series: Dict[str, Sequence[float]],
                 means: bool = True, precision: int = 2) -> str:
    """Render named series (scheme -> values per row) with mean rows."""
    headers = ["workload"] + list(series)
    rows: List[List[object]] = []
    for index, name in enumerate(row_names):
        rows.append([name] + [series[s][index] for s in series])
    if means and row_names:
        rows.append(["AMean"] + [_amean(series[s]) for s in series])
        rows.append(["GMean"] + [_gmean(series[s]) for s in series])
    return format_table(headers, rows, title=title, precision=precision)


def bar_chart(title: str, labels: Sequence[str],
              values: Sequence[float], width: int = 48,
              unit: str = "") -> str:
    """Render a horizontal ASCII bar chart (terminal stand-in for the
    paper's bar figures)."""
    values = [float(v) for v in values]
    if len(labels) != len(values):
        raise ValueError("labels and values must align")
    peak = max((abs(v) for v in values), default=0.0)
    label_width = max((len(label) for label in labels), default=0)
    lines: List[str] = [title]
    for label, value in zip(labels, values):
        length = 0 if peak == 0 else round(abs(value) / peak * width)
        bar = "#" * length
        lines.append(f"  {label.ljust(label_width)} |{bar.ljust(width)}| "
                     f"{value:.2f}{unit}")
    return "\n".join(lines)


def _amean(values: Sequence[float]) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _gmean(values: Sequence[float]) -> float:
    values = [max(v, 1e-12) for v in values]
    if not values:
        return 0.0
    product = 1.0
    for value in values:
        product *= value
    return product ** (1.0 / len(values))
