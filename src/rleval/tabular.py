"""Minimal aligned-text / CSV table container used by the report surfaces."""

import io
from dataclasses import dataclass


@dataclass
class Table:
    columns: list
    rows: list
    footer: str = None

    def render(self) -> str:
        widths = [len(str(c)) for c in self.columns]
        for row in self.rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(str(cell)))
        lines = ["  ".join(str(c).ljust(w) for c, w in zip(self.columns, widths))]
        lines.append("  ".join("-" * w for w in widths))
        for row in self.rows:
            lines.append("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))
        if self.footer:
            lines.append(self.footer)
        return "\n".join(lines) + "\n"

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write(",".join(self._csv_escape(c) for c in self.columns) + "\n")
        for row in self.rows:
            buf.write(",".join(self._csv_escape(c) for c in row) + "\n")
        return buf.getvalue()

    @staticmethod
    def _csv_escape(cell) -> str:
        text = str(cell)
        if any(ch in text for ch in ',"\n'):
            text = '"' + text.replace('"', '""') + '"'
        return text
