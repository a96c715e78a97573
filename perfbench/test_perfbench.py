"""Tests of the benchmark itself: exact counters, tracer hygiene, the gate.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import ROOT, SRC, WORKLOADS  # noqa: E402

sys.path.insert(0, str(SRC))

import check  # noqa: E402
import run  # noqa: E402
from tracer import COUNTERS, LAYERS, PROBES, Probe, Tracer, _resolve, layer_metrics  # noqa: E402

import dtqw.cli  # noqa: E402


def traced_counts(tmp_path: Path, *argv: str) -> dict[str, float]:
    with Tracer() as tracer:
        assert dtqw.cli.main([*argv, "--jobs", "1", "--out", str(tmp_path)]) == 0
        metrics = layer_metrics(tracer.summary())
    return {name: metrics[name] for name in COUNTERS}


def data_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.iterdir() if p.name != "manifest.json")


def test_counters_match_hand_counts_for_a_step_series(tmp_path):
    # fig9 at 4 steps: 3 kinds x 1 field, lattice 2*4+3 = 11 sites, every step
    # 0..4 measured for both symmetries on the light cone of 2t+1 sites.
    got = traced_counts(tmp_path, "--scenario", "fig9", "--steps", "4", "--configs", "1", "--seed", "5")
    cells = 4 * sum((2 * t + 1) ** 2 for t in range(5))  # (2(2t+1))^2 per joint
    assert got == {
        "observables.measure_calls": 3 * 5 * 2,
        "observables.snapshot_use": 1.0,
        "two_particle.joint_calls": 3 * 5 * 2,
        "two_particle.mode_cells": 3 * 2 * cells,
        "core.evolve_calls": 3 * 2,
        "core.site_steps": 3 * 2 * 11 * 4,
        "core.snapshots": 3 * 2 * 5,
        "disorder.phases_drawn": 0 + 2 * 4 + 2 * 11,  # ordered, dynamic, static
        "output.bytes_written": data_bytes(tmp_path),
        "fitting.fit_calls": 0,
        "fitting.fit_errors": 0.0,
    }


def test_counters_match_hand_counts_for_a_final_step_sweep(tmp_path):
    # fig6 at 4 steps: 2 kinds x 11 strengths x 1 field; only t=4 is measured
    # while 5 snapshots are recorded per walker.
    got = traced_counts(tmp_path, "--scenario", "fig6", "--steps", "4", "--configs", "1", "--seed", "5")
    members = 2 * 11
    assert got["core.evolve_calls"] == 2 * members
    assert got["core.snapshots"] == 2 * members * 5
    assert got["observables.snapshot_use"] == pytest.approx(2 * members / (2 * members * 5))
    assert got["two_particle.mode_cells"] == members * 2 * (2 * 9) ** 2
    # static draws 2 x 11 site phases, dynamic 2 x 4 step phases, per strength
    assert got["disorder.phases_drawn"] == 11 * (2 * 11 + 2 * 4)


def test_counters_match_hand_counts_for_averaged_joints(tmp_path):
    # fig3 at 4 steps: 2 static fields, final-step joints over all 22 modes.
    got = traced_counts(tmp_path, "--scenario", "fig3", "--steps", "4", "--configs", "2", "--seed", "5")
    assert got["core.evolve_calls"] == 4
    assert got["core.snapshots"] == 0
    assert got["observables.snapshot_use"] == 1.0
    assert got["two_particle.joint_calls"] == 2 * 2
    assert got["two_particle.mode_cells"] == 2 * 2 * 22**2
    assert got["disorder.phases_drawn"] == 2 * 2 * 11
    assert got["fitting.fit_calls"] == 1
    assert got["output.bytes_written"] == data_bytes(tmp_path)


@pytest.mark.parametrize("preset", ["fig5", "fig7", "fluct"])
def test_counters_repeat_exactly(tmp_path, preset):
    argv = ("--scenario", preset, "--steps", "6", "--configs", "2", "--seed", "3")
    assert traced_counts(tmp_path / "a", *argv) == traced_counts(tmp_path / "b", *argv)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_member_counts(tmp_path, name):
    # Two walkers are evolved per member; 2 steps keep the runs short.
    workload = WORKLOADS[name]
    with Tracer() as tracer:
        for preset_run in workload.runs:
            assert dtqw.cli.main(preset_run.argv(0, tmp_path) + ["--steps", "2"]) == 0
        evolved = tracer.summary()["core.evolve_calls"]
    assert evolved == 2 * workload.members


def test_tracer_restores_every_attribute():
    originals = [_resolve(probe)[2] for probe in PROBES]
    with pytest.raises(RuntimeError):
        with Tracer():
            assert _resolve(PROBES[0])[2] is not originals[0]
            raise RuntimeError("boom")
    assert [_resolve(probe)[2] for probe in PROBES] == originals


def test_missing_probe_is_a_warning_with_zero_calls(tmp_path, capsys):
    gone = Probe("core", "evolve", "dtqw.observables", "evolve_removed_by_refactor")
    with Tracer(PROBES + (gone,)) as tracer:
        assert dtqw.cli.main(["--scenario", "fig2", "--steps", "3", "--out", str(tmp_path)]) == 0
    assert tracer.missing == [gone.label]
    assert "evolve_removed_by_refactor not found" in capsys.readouterr().err
    assert tracer.summary()["core.evolve_calls"] == 2


def _table(p: list[float]) -> dict:
    return {"fig2/marginal.csv": {"x": ["-1", "0", "1"], "p": [repr(v) for v in p]}}


def test_gate_tolerance():
    want = check.flatten(_table([0.25, 0.5, 0.25]))
    assert check.compare(check.flatten(_table([0.25 * (1 + 5e-13), 0.5, 0.25])), want) == []
    assert check.compare(check.flatten(_table([0.25, 0.5 + 1e-16, 0.25])), want) == []
    assert check.compare(check.flatten(_table([0.25 * (1 + 1e-11), 0.5, 0.25])), want)
    assert check.compare(check.flatten(_table([0.25, 0.5, 0.25, 0.0])), want)


def test_benchmark_json_matches_the_metrics_emitted():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    per_layer = list(layer_metrics({f"{layer}.self_s": 0.0 for layer in LAYERS})) + list(run.TRACE_METRICS)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [(n, run.unit_of(n)) for n in per_layer]


def test_wall_statistic_is_the_upper_quartile():
    assert run.upper_quartile([2.0]) == 2.0
    assert run.upper_quartile([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx(4.5)
    # a fast excursion in one run leaves the upper quartile where it was
    assert run.upper_quartile([2.4, 2.5, 2.45, 1.7, 1.8, 2.5, 2.4]) == pytest.approx(2.5)
