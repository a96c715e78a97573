"""Deterministic emission of scenario results: tables as CSV, documents as JSON.

A ``Table`` is stored by column, and one rule renders every cell: floats
with 17 significant digits (``.17g``), integers and text by ``str``.  CSV
files use a header row, comma separators and LF line endings; JSON documents
are indented by two spaces.  Identical data always produces byte-identical
files, whose SHA-256 each writer returns.
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


def _write(path: Path, text: str) -> str:
    """Write ``text`` as UTF-8, its LF line endings as given; returns the SHA-256 of the bytes written."""
    data = text.encode("utf-8")
    path.write_bytes(data)
    return hashlib.sha256(data).hexdigest()


def write_json(doc: dict, path: Path) -> str:
    return _write(path, json.dumps(doc, indent=2) + "\n")


def emit_results(tables: Iterable[Table], out_dir: str | Path) -> dict[Path, str]:
    """Write every table as ``<name>.csv`` under ``out_dir``; returns {path: sha256 of its bytes}."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    digests = {}
    for table in tables:
        cells = [_cell_texts(np.asarray(values)) for values in table.columns.values()]
        lines = [",".join(table.columns), *map(",".join, zip(*cells, strict=True))]
        path = out / f"{table.name}.csv"
        digests[path] = _write(path, "\n".join(lines) + "\n")
    return digests


def joint_table(name: str, matrix: np.ndarray, positions: Sequence[int]) -> Table:
    """Joint matrix as (x, y, p) rows in row-major order, whatever its memory layout."""
    positions = np.asarray(positions)
    n = len(positions)
    return Table(name, {"x": np.repeat(positions, n), "y": np.tile(positions, n), "p": np.ravel(matrix)})


def marginal_table(name: str, marginal: np.ndarray, positions: Sequence[int]) -> Table:
    return Table(name, {"x": positions, "p": marginal})
