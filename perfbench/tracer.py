"""Outside-in layer tracing for the dtqw benchmark.

Each probe wraps one public function of a layer at the module attribute
through which the scenario pipeline calls it, so no program code changes.
A wrapped call records a span (probe, parent span, start, end) in memory and
adds exact work counts computed from its arguments and return value.  A
layer's self time is the duration of its spans minus the part covered by
child spans.  ``Tracer`` restores every original attribute on exit.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

LAYERS = ("scenarios", "observables", "two_particle", "core", "disorder", "fitting", "output")

# Counters a probe derives from the call's bound arguments (by parameter
# name, defaults applied) and its return value; they must be exact.
Counter = Callable[[dict, Any], dict[str, int]]


def _evolve_counts(a: dict, result) -> dict[str, int]:
    snapshots = len(result) if isinstance(result, list) else 0
    return {"site_steps": a["initial"].n_sites * a["steps"], "snapshots": snapshots}


_FIELD_TABLES = ("site_l", "site_r", "step_l", "step_r", "fluct_l", "fluct_r")


def _phase_counts(a: dict, result) -> dict[str, int]:
    drawn = sum(getattr(result, name).size for name in _FIELD_TABLES if getattr(result, name) is not None)
    return {"phases_drawn": drawn}


def _joint_counts(a: dict, result) -> dict[str, int]:
    return {"mode_cells": int(result.matrix.size)}


def _emit_counts(a: dict, result) -> dict[str, int]:
    return {"bytes_written": sum(Path(p).stat().st_size for p in result)}


def _write_json_counts(a: dict, result) -> dict[str, int]:
    # The manifest carries the run's duration, so its size is not exact.
    path = Path(a["path"])
    return {} if path.name == "manifest.json" else {"bytes_written": path.stat().st_size}


@dataclass(frozen=True)
class Probe:
    """One wrapped call site: ``module.attr`` or ``module.attr[key]``.

    ``attr`` may be dotted (``Class.method``); ``key`` selects an entry of a
    dict attribute that the pipeline indexes at call time.
    """

    layer: str
    group: str  # time metric <layer>.<group>_s sums this group's spans
    module: str
    attr: str
    key: str | None = None
    count: Counter | None = None

    @property
    def label(self) -> str:
        return f"{self.module}.{self.attr}" + (f"[{self.key!r}]" if self.key else "")


PROBES = (
    Probe("scenarios", "main", "dtqw.cli", "main"),
    Probe("scenarios", "run", "dtqw.cli", "run_scenario"),
    Probe("observables", "ensemble", "dtqw.scenarios", "ensemble_run"),
    Probe("observables", "ensemble", "dtqw.scenarios", "ensemble_average_joints"),
    *(
        Probe("observables", "measure", "dtqw.observables", "_OBSERVABLES", key)
        for key in ("variance", "entropy", "mutual_information")
    ),
    # Each crop hands one recorded snapshot to a measurement.
    Probe("observables", "snapshot", "dtqw.observables", "_crop"),
    Probe("two_particle", "joint", "dtqw.observables", "joint_mode_distribution", None, _joint_counts),
    Probe("two_particle", "aggregate", "dtqw.observables", "aggregate_to_positions"),
    Probe("two_particle", "aggregate", "dtqw.observables", "marginal_positions"),
    Probe("core", "evolve", "dtqw.observables", "evolve", None, _evolve_counts),
    Probe("disorder", "sample", "dtqw.observables", "sample_phase_field", None, _phase_counts),
    Probe("disorder", "lookup", "dtqw.disorder", "PhaseField.step_phases"),
    *(
        Probe("fitting", "fit", "dtqw.scenarios", name)
        for name in ("fit_power_law", "fit_exponential_decay", "fit_gaussian_semilog")
    ),
    *(
        Probe("output", "emit", "dtqw.scenarios", name)
        for name in ("joint_table", "marginal_table", "sha256_file")
    ),
    Probe("output", "emit", "dtqw.scenarios", "emit_results", None, _emit_counts),
    Probe("output", "emit", "dtqw.scenarios", "write_json", None, _write_json_counts),
)


def _resolve(probe: Probe) -> tuple[Any, str, Any]:
    """Return (owner, name, original) where ``owner.name`` (or item) holds the target."""
    owner: Any = importlib.import_module(probe.module)
    *path, name = probe.attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    if probe.key is None:
        return owner, name, getattr(owner, name)
    table = getattr(owner, name)
    return table, probe.key, table[probe.key]


class Tracer:
    """Context manager that installs the probes and records spans and counts."""

    def __init__(self, probes=PROBES):
        self.probes = tuple(probes)
        self.missing: list[str] = []
        self.spans: list[list] = []  # [probe index, parent span, start, end]
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._restore: list[Callable[[], None]] = []

    def __enter__(self) -> "Tracer":
        try:
            for index, probe in enumerate(self.probes):
                try:
                    owner, name, original = _resolve(probe)
                except (ImportError, AttributeError, KeyError) as exc:
                    self.missing.append(probe.label)
                    print(f"perfbench: warning: {probe.label} not found ({exc!r}); "
                          f"layer {probe.layer} reports zero calls for it", file=sys.stderr)
                    continue
                self._install(owner, name, original, self._wrap(index, original), probe.key is not None)
        except BaseException:
            self._uninstall()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._uninstall()

    def _install(self, owner, name, original, wrapper, is_item: bool) -> None:
        if is_item:
            owner[name] = wrapper
            self._restore.append(lambda: owner.__setitem__(name, original))
        else:
            setattr(owner, name, wrapper)
            self._restore.append(lambda: setattr(owner, name, original))

    def _uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()

    def _wrap(self, index: int, fn: Callable) -> Callable:
        probe = self.probes[index]
        spans, stack, counts = self.spans, self._stack, self.counts
        calls = f"{probe.layer}.{probe.group}_calls"
        errors = f"{probe.layer}.{probe.group}_errors"
        signature = inspect.signature(fn) if probe.count is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [index, stack[-1] if stack else -1, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(span)
            counts[calls] = counts.get(calls, 0) + 1
            span[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                counts[errors] = counts.get(errors, 0) + 1
                raise
            finally:
                span[3] = perf_counter()
                stack.pop()
            if signature is not None:
                self._count(probe, signature, args, kwargs, result)
            return result

        return traced

    def _count(self, probe: Probe, signature, args, kwargs, result) -> None:
        try:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            values = probe.count(bound.arguments, result)
        except (AttributeError, KeyError, TypeError) as exc:
            if probe.label not in self.missing:
                self.missing.append(probe.label)
                print(f"perfbench: warning: cannot count {probe.label} ({exc!r})", file=sys.stderr)
            return
        for name, value in values.items():
            key = f"{probe.layer}.{name}"
            self.counts[key] = self.counts.get(key, 0) + value

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    def summary(self) -> dict[str, float]:
        """Per-layer self times, per-group inclusive times, calls, errors and counters.

        Keys are ``<layer>.self_s``, ``<layer>.<group>_s``,
        ``<layer>.<group>_calls``, ``<layer>.<group>_errors`` and
        ``<layer>.<counter>``.
        """
        child = [0.0] * len(self.spans)
        for probe_index, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = {f"{layer}.self_s": 0.0 for layer in LAYERS}
        for probe in self.probes:
            out.setdefault(f"{probe.layer}.{probe.group}_s", 0.0)
        for i, (probe_index, parent, start, end) in enumerate(self.spans):
            probe = self.probes[probe_index]
            out[f"{probe.layer}.self_s"] += (end - start) - child[i]
            out[f"{probe.layer}.{probe.group}_s"] += end - start
        out.update(self.counts)
        return out


def layer_metrics(s: dict[str, float]) -> dict[str, float]:
    """The per-layer metrics of one traced workload run, from ``Tracer.summary``."""
    g = s.get
    recorded = g("core.snapshots", 0)
    fits = g("fitting.fit_calls", 0)
    out = {f"{layer}.self_s": s[f"{layer}.self_s"] for layer in LAYERS}
    out.update({
        "observables.measure_s": g("observables.measure_s", 0.0),
        "observables.measure_calls": g("observables.measure_calls", 0),
        # snapshots handed to a measurement per snapshot recorded (1.0 if none)
        "observables.snapshot_use": g("observables.snapshot_calls", 0) / recorded if recorded else 1.0,
        "two_particle.joint_s": g("two_particle.joint_s", 0.0) + g("two_particle.aggregate_s", 0.0),
        "two_particle.joint_calls": g("two_particle.joint_calls", 0),
        "two_particle.mode_cells": g("two_particle.mode_cells", 0),
        "core.evolve_s": g("core.evolve_s", 0.0),
        "core.evolve_calls": g("core.evolve_calls", 0),
        "core.site_steps": g("core.site_steps", 0),
        "core.snapshots": recorded,
        "disorder.sample_s": g("disorder.sample_s", 0.0),
        "disorder.lookup_s": g("disorder.lookup_s", 0.0),
        "disorder.phases_drawn": g("disorder.phases_drawn", 0),
        "output.emit_s": g("output.emit_s", 0.0),
        "output.bytes_written": g("output.bytes_written", 0),
        "fitting.fit_s": g("fitting.fit_s", 0.0),
        "fitting.fit_calls": fits,
        "fitting.fit_errors": g("fitting.fit_errors", 0) / fits if fits else 0.0,
    })
    return out


# Metrics that count work; they repeat exactly from run to run.
COUNTERS = (
    "observables.measure_calls", "observables.snapshot_use", "two_particle.joint_calls",
    "two_particle.mode_cells", "core.evolve_calls", "core.site_steps", "core.snapshots",
    "disorder.phases_drawn", "output.bytes_written", "fitting.fit_calls", "fitting.fit_errors",
)
