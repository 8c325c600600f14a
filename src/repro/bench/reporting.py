"""Cell formatters and the fixed-width table every bench table renders through."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence


def format_seconds(value: float) -> str:
    """Format a duration with an appropriate unit."""
    if value != value:  # NaN
        return "n/a"
    if value >= 1.0:
        return f"{value:.2f} s"
    if value >= 1e-3:
        return f"{value * 1e3:.1f} ms"
    return f"{value * 1e6:.0f} µs"


def format_bytes(value: float) -> str:
    """Format a byte count (1048576 → ``1.0 MiB``)."""
    magnitude = abs(value)
    for threshold, suffix in ((1024 ** 3, "GiB"), (1024 ** 2, "MiB"), (1024, "KiB")):
        if magnitude >= threshold:
            return f"{value / threshold:.1f} {suffix}"
    return f"{value:.0f} B"


@dataclass
class ResultTable:
    """A titled table of benchmark results with a fixed-width text rendering."""

    title: str
    columns: Sequence[str]
    rows: List[Sequence[object]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def add_row(self, *values: object) -> None:
        if len(values) != len(self.columns):
            raise ValueError(
                f"row has {len(values)} values but the table has {len(self.columns)} columns"
            )
        self.rows.append(list(values))

    def add_note(self, note: str) -> None:
        self.notes.append(note)

    def render(self) -> str:
        """Fixed-width text rendering suitable for the console and EXPERIMENTS.md."""
        header = [str(column) for column in self.columns]
        body = [[self._cell(value) for value in row] for row in self.rows]
        widths = [len(column) for column in header]
        for row in body:
            for index, cell in enumerate(row):
                widths[index] = max(widths[index], len(cell))

        def render_row(cells: Sequence[str]) -> str:
            return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells)).rstrip()

        lines = [self.title, "=" * len(self.title), render_row(header),
                 render_row(["-" * w for w in widths])]
        lines.extend(render_row(row) for row in body)
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)

    @staticmethod
    def _cell(value: object) -> str:
        if isinstance(value, float):
            return f"{value:.4g}"
        return str(value)
