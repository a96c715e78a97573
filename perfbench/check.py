"""Correctness gate of the dtqw benchmark.

The data files a workload run emits are compared with reference outputs
recorded for the same workload and seed (``reference/<workload>/seed-<n>.npz``)
at rtol 1e-12 with an absolute floor for near-zero probabilities.  For a seed
without a recorded reference the check falls back to invariants: the same
files, columns and row counts, finite values, joint and marginal tables that
sum to 1, non-negative spreads, and the seed-independent rows (ordered walks
and zero strength) equal to ``reference/<workload>/ordered.npz``.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from workloads import Workload

RTOL = 1e-12
ATOL = 1e-15  # floor for probabilities that are zero up to rounding
SUM_TOL = 1e-12
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# A table: column name -> list of the raw CSV strings.  A document: parsed JSON.
Outputs = dict[str, object]


def _manifest(out_root: Path, preset: str) -> dict:
    return json.loads((out_root / preset / "manifest.json").read_text(encoding="utf-8"))


def digests(out_root: Path, workload: Workload) -> dict[str, str]:
    """SHA-256 of every data file, keyed ``<preset>/<file>``, from the manifests."""
    out = {}
    for run in workload.runs:
        for name, digest in _manifest(out_root, run.preset)["files"].items():
            out[f"{run.preset}/{name}"] = digest
    return out


def _read_csv(path: Path) -> dict[str, list[str]]:
    header, *lines = path.read_text(encoding="utf-8").splitlines()
    columns = header.split(",")
    rows = [line.split(",") for line in lines]
    return {col: [row[i] for row in rows] for i, col in enumerate(columns)}


def read_outputs(out_root: Path, workload: Workload) -> Outputs:
    """Parse every data file listed in the manifests of one workload run."""
    outputs: Outputs = {}
    for key in digests(out_root, workload):
        path = out_root / key
        outputs[key] = _read_csv(path) if path.suffix == ".csv" else json.loads(path.read_text(encoding="utf-8"))
    return outputs


def _column(values: list[str]) -> np.ndarray:
    try:
        return np.array([float(v) for v in values], dtype=np.float64)
    except ValueError:
        return np.array(values, dtype=str)


def flatten(outputs: Outputs) -> dict[str, np.ndarray]:
    """Arrays keyed ``<file>|<column>`` for tables and ``<file>`` (JSON text) for documents."""
    flat = {}
    for key, value in outputs.items():
        if isinstance(value, dict) and key.endswith(".csv"):
            for col, values in value.items():
                flat[f"{key}|{col}"] = _column(values)
        else:
            flat[key] = np.array(json.dumps(value, sort_keys=True))
    return flat


def save(path: Path, outputs: Outputs) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez_compressed(path, **flatten(outputs))


def load(path: Path) -> dict[str, np.ndarray]:
    with np.load(path, allow_pickle=False) as data:
        return {key: data[key] for key in data.files}


def _close(got: float, want: float) -> bool:
    if got == want or (math.isnan(got) and math.isnan(want)):
        return True
    return abs(got - want) <= ATOL + RTOL * abs(want)


def _compare_doc(got, want, where: str, errors: list[str]) -> None:
    if isinstance(want, dict) and isinstance(got, dict):
        if set(got) != set(want):
            errors.append(f"{where}: keys {sorted(got)} != {sorted(want)}")
            return
        for k in want:
            _compare_doc(got[k], want[k], f"{where}.{k}", errors)
    elif isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            errors.append(f"{where}: length {len(got)} != {len(want)}")
            return
        for i, (g, w) in enumerate(zip(got, want)):
            _compare_doc(g, w, f"{where}[{i}]", errors)
    elif isinstance(want, (int, float)) and not isinstance(want, bool) and isinstance(got, (int, float)):
        if not _close(float(got), float(want)):
            errors.append(f"{where}: {got!r} != {want!r}")
    elif got != want:
        errors.append(f"{where}: {got!r} != {want!r}")


def compare(got: dict[str, np.ndarray], want: dict[str, np.ndarray]) -> list[str]:
    """Differences between two flattened outputs, empty when they agree."""
    errors = []
    if set(got) != set(want):
        errors.append(f"files/columns differ: extra {sorted(set(got) - set(want))}, "
                      f"missing {sorted(set(want) - set(got))}")
    for key in sorted(set(got) & set(want)):
        g, w = got[key], want[key]
        if w.ndim == 0:
            _compare_doc(json.loads(str(g)), json.loads(str(w)), key, errors)
        elif g.shape != w.shape or g.dtype.kind != w.dtype.kind:
            errors.append(f"{key}: shape/type {g.shape} {g.dtype} != {w.shape} {w.dtype}")
        elif w.dtype.kind == "f":
            with np.errstate(invalid="ignore"):
                ok = (g == w) | (np.abs(g - w) <= ATOL + RTOL * np.abs(w)) | (np.isnan(g) & np.isnan(w))
            bad = ~ok
            if bad.any():
                i = int(np.argmax(bad))
                errors.append(f"{key}: {int(bad.sum())} value(s) off, first row {i}: {g[i]!r} != {w[i]!r}")
        elif not np.array_equal(g, w):
            errors.append(f"{key}: values differ")
    return errors


def _seed_independent_rows(key: str, table: dict[str, list[str]]) -> list[int]:
    preset, name = key.split("/")
    n = len(next(iter(table.values())))
    if preset == "fig2" or name.startswith("classical_baseline"):
        return list(range(n))
    kinds, phis = table.get("kind"), table.get("phi")
    # an ordered walk, or zero strength, which draws all-zero phases for every seed
    return [i for i in range(n) if (kinds and kinds[i] == "ordered") or (phis and float(phis[i]) == 0.0)]


def seed_independent(outputs: Outputs) -> Outputs:
    """The rows and fit entries that no disorder seed can change."""
    out: Outputs = {}
    for key, value in outputs.items():
        if key.endswith(".csv"):
            rows = _seed_independent_rows(key, value)
            if rows:
                out[key] = {col: [values[i] for i in rows] for col, values in value.items()}
        elif isinstance(value, dict) and isinstance(value.get("fits"), dict):
            ordered = {k: v for k, v in value["fits"].items() if k.startswith("ordered")}
            if ordered:
                out[key] = {"fits": ordered}
    return out


def layout(outputs: Outputs) -> dict[str, object]:
    """File names, table columns and row counts of one run."""
    return {
        key: ({col: len(values) for col, values in value.items()} if key.endswith(".csv") else "json")
        for key, value in outputs.items()
    }


def save_ordered(path: Path, outputs: Outputs) -> None:
    flat = flatten(seed_independent(outputs))
    flat["__layout__"] = np.array(json.dumps(layout(outputs), sort_keys=True))
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez_compressed(path, **flat)


def invariants(outputs: Outputs, ordered_ref: dict[str, np.ndarray]) -> list[str]:
    """Checks that hold for every seed."""
    errors = []
    ref = dict(ordered_ref)
    want_layout = json.loads(str(ref.pop("__layout__")))
    if layout(outputs) != want_layout:
        errors.append("file names, columns or row counts differ from the reference layout")
    errors += compare(flatten(seed_independent(outputs)), ref)
    for key, value in outputs.items():
        if not key.endswith(".csv"):
            continue
        cols = {col: _column(values) for col, values in value.items()}
        for col, arr in cols.items():
            if arr.dtype.kind == "f" and not np.isfinite(arr).all():
                errors.append(f"{key}|{col}: non-finite values")
            if col.endswith("std") or col == "std_dev":
                if (arr < 0).any():
                    errors.append(f"{key}|{col}: negative spread")
        if set(cols) in ({"x", "y", "p"}, {"x", "p"}):
            total = float(cols["p"].sum())
            if abs(total - 1.0) > SUM_TOL:
                errors.append(f"{key}: probabilities sum to {total!r}")
    return errors


def check(out_root: Path, workload: Workload, seed: int) -> list[str]:
    """All correctness errors of the run whose files are under ``out_root``."""
    outputs = read_outputs(out_root, workload)
    ref_dir = REFERENCE_DIR / workload.name
    errors = invariants(outputs, load(ref_dir / "ordered.npz"))
    seed_ref = ref_dir / f"seed-{seed}.npz"
    if seed_ref.exists():
        errors += compare(flatten(outputs), load(seed_ref))
    return errors
