"""Small table container + markdown rendering for experiment outputs."""
from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class Table:
    """An ordered table of result rows (all values already stringified
    or plain scalars) with a title and optional notes."""

    title: str
    columns: list[str]
    rows: list[dict] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add(self, **row) -> None:
        missing = [c for c in self.columns if c not in row]
        if missing:
            raise ValueError(f"row missing columns {missing}")
        self.rows.append(row)

    def to_markdown(self) -> str:
        out = [f"### {self.title}", ""]
        out.append("| " + " | ".join(self.columns) + " |")
        out.append("|" + "---|" * len(self.columns))
        for r in self.rows:
            out.append("| " + " | ".join(_fmt(r[c]) for c in self.columns) + " |")
        for n in self.notes:
            out.append("")
            out.append(f"*{n}*")
        return "\n".join(out)

    def print(self) -> None:  # pragma: no cover - console convenience
        print(self.to_markdown())


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.2f}"
    return str(v)


def config_str(cfg) -> str:
    """Compact (n, p, cache, shuffle, NR) rendering used across tables."""
    r = cfg.as_row()
    return (
        f"({r['containers_per_node']}, {r['task_concurrency']}, "
        f"{r['cache_capacity']:g}, {r['shuffle_capacity']:g}, {r['new_ratio']})"
    )


def knobs_str(n: int, p: int, frac: float, nr: int) -> str:
    """(n, p, dominant pool fraction, NR) rendering of Tables 7 and 9."""
    return f"({n}, {p}, {frac:g}, {nr})"
