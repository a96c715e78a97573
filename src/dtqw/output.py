"""Deterministic CSV/JSON emission for scenario results.

CSV files use a header row, comma separators, LF line endings and floats
formatted with 17 significant digits, so identical data always produces
byte-identical files.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np


@dataclass
class Table:
    """A named rectangular result with a fixed column order."""

    name: str
    columns: tuple[str, ...]
    rows: list[tuple] = field(default_factory=list)


def format_value(value) -> str:
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def _json_value(value):
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    return value


def write_table_csv(table: Table, path: Path) -> None:
    lines = [",".join(table.columns)]
    lines.extend(",".join(format_value(v) for v in row) for row in table.rows)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def write_table_json(table: Table, path: Path) -> None:
    doc = {
        "columns": list(table.columns),
        "rows": [[_json_value(v) for v in row] for row in table.rows],
    }
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8", newline="\n")


def emit_results(tables: Iterable[Table], fmt: str, out_dir: str | Path) -> list[Path]:
    """Write every table as ``<name>.<fmt>`` under ``out_dir``; returns paths."""
    if fmt not in ("csv", "json"):
        raise ValueError(f"format must be 'csv' or 'json', got {fmt!r}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    for table in tables:
        path = out / f"{table.name}.{fmt}"
        if fmt == "csv":
            write_table_csv(table, path)
        else:
            write_table_json(table, path)
        paths.append(path)
    return paths


def write_json(doc: dict, path: Path) -> None:
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8", newline="\n")


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def joint_table(name: str, matrix: np.ndarray, positions: Sequence[int]) -> Table:
    """Joint matrix as (x, y, p) rows in row-major order."""
    rows = []
    for i, x in enumerate(positions):
        for j, y in enumerate(positions):
            rows.append((int(x), int(y), float(matrix[i, j])))
    return Table(name=name, columns=("x", "y", "p"), rows=rows)


def marginal_table(name: str, marginal: np.ndarray, positions: Sequence[int]) -> Table:
    rows = [(int(x), float(p)) for x, p in zip(positions, marginal)]
    return Table(name=name, columns=("x", "p"), rows=rows)
