"""Deterministic CSV/JSON emission for scenario results.

A ``Table`` is stored by column, and one rule renders every cell: floats
with 17 significant digits (``.17g``), integers and text by ``str``.  CSV
files use a header row, comma separators and LF line endings; JSON files
list the column names and rows of Python ints, floats and strings.
Identical data always produces byte-identical files.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np


@dataclass
class Table:
    """A named result stored by column: ``columns`` maps each name, in
    order, to a 1-D sequence of one type (float, int or text); every
    column has the same length."""

    name: str
    columns: dict[str, Sequence]


def _cell_texts(values: np.ndarray) -> list[str]:
    """Each cell's text, each distinct value formatted once; floats are told
    apart by their bits, so -0.0, nan and inf keep their own text."""
    floats = values.dtype.kind == "f"
    distinct, index = np.unique(values.view(np.int64) if floats else values, return_inverse=True)
    texts = [format(v, ".17g") for v in distinct.view(np.float64).tolist()] if floats else \
        list(map(str, distinct.tolist()))
    return np.array(texts, dtype=object)[index].tolist()


def write_table_csv(table: Table, path: Path) -> None:
    cells = [_cell_texts(np.asarray(values)) for values in table.columns.values()]
    lines = [",".join(table.columns), *map(",".join, zip(*cells, strict=True))]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def write_table_json(table: Table, path: Path) -> None:
    rows = zip(*(np.asarray(values).tolist() for values in table.columns.values()), strict=True)
    doc = {"columns": list(table.columns), "rows": [list(row) for row in rows]}
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
    """Joint matrix as (x, y, p) rows in row-major order, whatever its memory layout."""
    positions = np.asarray(positions)
    n = len(positions)
    return Table(name, {"x": np.repeat(positions, n), "y": np.tile(positions, n), "p": np.ravel(matrix)})


def marginal_table(name: str, marginal: np.ndarray, positions: Sequence[int]) -> Table:
    return Table(name, {"x": positions, "p": marginal})
