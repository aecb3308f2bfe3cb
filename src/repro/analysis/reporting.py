"""Plain-text table rendering for the experiment harness.

The paper contains no tables or figures (it is a theory paper), so each
experiment of this reproduction produces its own validation table.  Tables
are rendered as fixed-width text so they can be pasted into documents and
printed from the CLI and the benchmark harness without any plotting
dependency.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Sequence, Union

__all__ = ["ExperimentTable", "format_table", "render_tables"]

Cell = Union[str, int, float, None]


@dataclass
class ExperimentTable:
    """A titled table of experiment results."""

    experiment_id: str
    title: str
    columns: List[str]
    rows: List[List[Cell]] = field(default_factory=list)
    notes: str = ""

    def add_row(self, *cells: Cell) -> None:
        """Append a row; the number of cells must match the column count."""
        if len(cells) != len(self.columns):
            raise ValueError(
                f"expected {len(self.columns)} cells, got {len(cells)}"
            )
        self.rows.append(list(cells))

    def column(self, name: str) -> List[Cell]:
        """All values of one column, by column name."""
        idx = self.columns.index(name)
        return [row[idx] for row in self.rows]


def _format_cell(cell: Cell) -> str:
    if cell is None:
        return "-"
    if isinstance(cell, float):
        if cell == float("inf"):
            return "inf"
        return f"{cell:.3f}".rstrip("0").rstrip(".") if abs(cell) < 1e6 else f"{cell:.3g}"
    return str(cell)


def format_table(table: ExperimentTable) -> str:
    """Render one table as fixed-width text."""
    header = [str(c) for c in table.columns]
    body = [[_format_cell(cell) for cell in row] for row in table.rows]
    widths = [len(h) for h in header]
    for row in body:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def fmt_row(cells: Sequence[str]) -> str:
        return " | ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells))

    lines = [f"[{table.experiment_id}] {table.title}"]
    lines.append(fmt_row(header))
    lines.append("-+-".join("-" * w for w in widths))
    for row in body:
        lines.append(fmt_row(row))
    if table.notes:
        lines.append(f"  note: {table.notes}")
    return "\n".join(lines)


def render_tables(tables: Iterable[ExperimentTable]) -> str:
    """Render a sequence of tables separated by blank lines."""
    return "\n\n".join(format_table(table) for table in tables)
