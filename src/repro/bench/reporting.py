"""Benchmark result tables and formatting helpers."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable


def format_seconds(seconds: float) -> str:
    """Format a duration with the unit the paper's tables use."""
    if seconds < 1e-3:
        return f"{seconds * 1e6:.2f} µs"
    if seconds < 1.0:
        return f"{seconds * 1e3:.2f} ms"
    return f"{seconds:.2f} s"


def speedup(baseline_seconds: float, candidate_seconds: float) -> float:
    """Return how many times faster ``candidate`` is than ``baseline``."""
    if candidate_seconds <= 0:
        raise ValueError("candidate time must be positive")
    return baseline_seconds / candidate_seconds


@dataclass
class BenchmarkTable:
    """A named table of benchmark results.

    Rows are added with :meth:`add_row` as dictionaries; columns are
    discovered from the union of row keys, preserving insertion order.
    """

    title: str
    note: str = ""
    rows: list[dict] = field(default_factory=list)

    def add_row(self, **values) -> None:
        """Append one result row."""
        self.rows.append(values)

    @property
    def columns(self) -> list[str]:
        """Column names in first-appearance order."""
        names: list[str] = []
        for row in self.rows:
            for key in row:
                if key not in names:
                    names.append(key)
        return names

    def _formatted(self) -> list[list[str]]:
        columns = self.columns
        table = [columns]
        for row in self.rows:
            rendered = []
            for column in columns:
                value = row.get(column, "")
                if isinstance(value, float):
                    rendered.append(f"{value:.4g}")
                else:
                    rendered.append(str(value))
            table.append(rendered)
        return table

    def to_text(self) -> str:
        """Render as an aligned plain-text table."""
        cells = self._formatted()
        widths = [max(len(row[i]) for row in cells) for i in range(len(cells[0]))]
        lines = [f"== {self.title} =="]
        if self.note:
            lines.append(self.note)
        for index, row in enumerate(cells):
            lines.append("  ".join(cell.ljust(width) for cell, width in zip(row, widths)))
            if index == 0:
                lines.append("  ".join("-" * width for width in widths))
        return "\n".join(lines)

    def to_json(self, **metadata) -> str:
        """Render as a JSON document (machine-readable BENCH artifact).

        Row values are emitted as-is (numbers stay numbers); ``metadata``
        keyword arguments are merged into the top-level object, which is
        how runners attach environment information to a committed BENCH
        file.
        """
        payload = {
            "title": self.title,
            "note": self.note,
            "columns": self.columns,
            "rows": self.rows,
        }
        payload.update(metadata)
        return json.dumps(payload, indent=2, default=str)

    def column_values(self, column: str) -> list:
        """Return the raw values of one column (missing entries skipped)."""
        return [row[column] for row in self.rows if column in row]


__all__ = ["BenchmarkTable", "format_seconds", "speedup"]
