import dataclasses
import hashlib
import importlib.util
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

from dtqw import observables, scenarios
from dtqw.cli import build_parser, main
from dtqw.config import MAX_CONFIGS, MAX_STEPS, ScenarioConfig, scenario_from_dict
from dtqw.core import lattice_for
from dtqw.disorder import DisorderKind, strength_fields
from dtqw.output import Table, emit_results, joint_table
from dtqw.scenarios import STRENGTH_GRID, preset, preset_names, run_scenario


SRC = Path(__file__).resolve().parent.parent / "src"


def child_env(**extra):
    """This process's environment for a child Python, with the repository's ``src`` first on its PYTHONPATH:
    pytest's ``pythonpath`` setting reaches this process only."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path, **extra}


def small(name, tmp_path, **overrides):
    cfg = preset(name)
    defaults = dict(out_dir=str(tmp_path / name))
    defaults.update(overrides)
    return dataclasses.replace(cfg, **defaults)


def read_csv(path):
    lines = path.read_text().splitlines()
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def test_preset_names_cover_the_figures():
    names = preset_names()
    for expected in ("fig2", "fig3", "fig4", "fluct", "fig5", "fig6", "fig7", "fig8", "fig9"):
        assert expected in names


def test_unknown_preset_rejected():
    with pytest.raises(ValueError):
        preset("fig1")


def test_fig2_emits_expected_files(tmp_path):
    cfg = small("fig2", tmp_path, steps=8)
    manifest = run_scenario(cfg)
    out = tmp_path / "fig2"
    for name in ("joint_bose.csv", "joint_fermi.csv", "marginal.csv", "manifest.json"):
        assert (out / name).exists()
    assert set(manifest.files) == {"joint_bose.csv", "joint_fermi.csv", "marginal.csv"}


def test_fig2_joint_csv_shape(tmp_path):
    cfg = small("fig2", tmp_path, steps=4)
    run_scenario(cfg)
    header, rows = read_csv(tmp_path / "fig2" / "joint_bose.csv")
    assert header == ["x", "y", "p"]
    n_sites = 2 * 4 + 3
    assert len(rows) == n_sites * n_sites
    total = sum(float(r[2]) for r in rows)
    assert total == pytest.approx(1.0, abs=1e-12)


def test_fig6_columns_and_grid(tmp_path):
    cfg = small("fig6", tmp_path, steps=6, configs=2)
    run_scenario(cfg)
    header, rows = read_csv(tmp_path / "fig6" / "variance_vs_phi.csv")
    assert header == ["phi", "kind", "symmetry", "var_mean", "var_std"]
    # 11 grid points x 2 kinds x 2 symmetries
    assert len(rows) == 44
    kinds = {r[1] for r in rows}
    assert kinds == {"static", "dynamic"}
    assert sorted({float(r[0]) for r in rows}) == list(STRENGTH_GRID)


def test_fig7_emits_mobility_edge(tmp_path):
    cfg = small("fig7", tmp_path, steps=6, configs=2)
    run_scenario(cfg)
    doc = json.loads((tmp_path / "fig7" / "mobility_edge.json").read_text())
    assert "first_crossing" in doc and "classical_baseline" in doc
    assert doc["grid"] == list(STRENGTH_GRID)


def test_fig5_emits_series_and_fits(tmp_path):
    cfg = small("fig5", tmp_path, steps=25, configs=2)
    run_scenario(cfg)
    out = tmp_path / "fig5"
    header, rows = read_csv(out / "variance_vs_t.csv")
    assert header == ["step", "kind", "symmetry", "var_mean", "var_std"]
    kinds = {r[1] for r in rows}
    assert kinds == {"ordered", "dynamic", "fluctuating", "combined", "static"}
    fits = json.loads((out / "fits.json").read_text())
    assert "ordered_bosonic" in fits


def test_fig3_fit_document(tmp_path):
    cfg = small("fig3", tmp_path, steps=30, configs=5)
    run_scenario(cfg)
    fits = json.loads((tmp_path / "fig3" / "fits.json").read_text())
    assert "exponential_wing" in fits
    fit = fits["exponential_wing"]
    assert ("localization_length" in fit.get("params", {})) or ("error" in fit)


def test_fig8_entropy_table(tmp_path):
    run_scenario(small("fig8", tmp_path, steps=10, configs=2))
    header, rows = read_csv(tmp_path / "fig8" / "entropy_vs_t.csv")
    assert header == ["step", "kind", "symmetry", "mean", "std_dev"]
    assert {r[1] for r in rows} == {"ordered", "dynamic", "static"}
    # at t = 0 every joint has one certain cell: its entropy is +0.0, written "0", never "-0"
    assert [r[3] for r in rows if r[0] == "0"] == ["0"] * 6


def test_rerun_is_byte_identical(tmp_path):
    cfg_a = small("fig6", tmp_path, steps=8, configs=2, out_dir=str(tmp_path / "a"))
    cfg_b = dataclasses.replace(cfg_a, out_dir=str(tmp_path / "b"))
    run_scenario(cfg_a)
    run_scenario(cfg_b)
    for name in ("variance_vs_phi.csv", "classical_baseline.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def sha256_on_disk(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


JOINT_MAPS = ("joint_bose", "joint_fermi", "marginal")

# (overrides, tables, documents) of every preset: fig2 writes joint maps only, fig3, fig4 and fluct
# their fits too; fig5 (from 20 steps) and fig7 write a document next to their tables, fig6, fig8 and fig9 none
MANIFEST_RUNS = {
    "fig2": (dict(steps=5), JOINT_MAPS, ()),
    "fig3": (dict(steps=6, configs=2), JOINT_MAPS, ("fits.json",)),
    "fig4": (dict(steps=6, configs=2), JOINT_MAPS, ("fits.json",)),
    "fluct": (dict(steps=6, configs=2), JOINT_MAPS, ("fits.json",)),
    "fig5": (dict(steps=20, configs=2), ("variance_vs_t", "classical_baseline"), ("fits.json",)),
    "fig6": (dict(steps=6, configs=2), ("variance_vs_phi", "classical_baseline"), ()),
    "fig7": (dict(steps=8, configs=2), ("variance_vs_phi_dynamic", "classical_baseline"), ("mobility_edge.json",)),
    "fig8": (dict(steps=6, configs=2), ("entropy_vs_t",), ()),
    "fig9": (dict(steps=6, configs=2), ("mutual_information_vs_t",), ()),
}


@pytest.mark.parametrize("name", list(MANIFEST_RUNS))
def test_manifest_digests_round_trip(tmp_path, name):
    overrides, tables, docs = MANIFEST_RUNS[name]
    manifest = run_scenario(small(name, tmp_path, **overrides))
    out = tmp_path / name
    assert set(manifest.files) == {f"{table}.csv" for table in tables} | set(docs)
    assert {p.name for p in out.iterdir()} == {*manifest.files, "manifest.json"}
    for file_name, digest in manifest.files.items():
        assert sha256_on_disk(out / file_name) == digest
    echoed = json.loads((out / "manifest.json").read_text())
    assert echoed["files"] == manifest.files
    assert echoed["scenario"]["steps"] == overrides["steps"]
    assert echoed["generator"] == "numpy-pcg64"


def test_emit_results_returns_the_digest_of_each_file(tmp_path):
    tables = [Table("a", {"x": [1, 2], "p": [0.5, -0.0]}), Table("b", {"s": ["static"]}), Table("c", {"z": []})]
    digests = emit_results(tables, tmp_path)
    assert list(digests) == [tmp_path / f"{t.name}.csv" for t in tables]
    for path, digest in digests.items():
        assert sha256_on_disk(path) == digest


def test_symmetry_selection_limits_outputs(tmp_path):
    cfg = small("fig2", tmp_path, steps=5, symmetry="bosonic")
    run_scenario(cfg)
    out = tmp_path / "fig2"
    assert (out / "joint_bose.csv").exists()
    assert not (out / "joint_fermi.csv").exists()


def test_emit_results_joint_rows(tmp_path):
    table = joint_table("j", np.arange(9, dtype=float).reshape(3, 3) / 36.0, [-1, 0, 1])
    (path,) = emit_results([table], tmp_path)
    header, rows = read_csv(path)
    assert header == ["x", "y", "p"]
    assert len(rows) == 9


def test_emit_results_series_rows(tmp_path):
    steps = list(range(100))
    table = Table("v", {"step": steps, "mean": [float(t) for t in steps], "std_dev": [0.0] * 100})
    (path,) = emit_results([table], tmp_path)
    _, rows = read_csv(path)
    assert len(rows) == 100


def test_emit_results_empty_table(tmp_path):
    table = Table("empty", {"a": [], "b": []})
    (path,) = emit_results([table], tmp_path)
    assert path.read_text() == "a,b\n"


def reference_cell(value) -> str:
    """The cell rule the writer must keep: floats .17g, integers str(int), text as is."""
    if isinstance(value, float):
        return format(value, ".17g")
    if isinstance(value, int):
        return str(int(value))
    return value


def reference_csv(columns, rows) -> str:
    return "\n".join([",".join(columns)] + [",".join(map(reference_cell, row)) for row in rows]) + "\n"


@pytest.mark.parametrize("container", [list, np.asarray], ids=["lists", "arrays"])
def test_writer_follows_the_cell_rule(tmp_path, container):
    rows = [(2**53 + 1, -0.0, "static"), (-7, 5e-324, "bosonic"), (0, 1e-300, ""), (12, 0.1, "x y")]
    columns = ("n", "v", "s")
    table = Table("t", {name: container(list(values)) for name, values in zip(columns, zip(*rows))})
    (path,) = emit_results([table], tmp_path)
    assert path.read_text() == reference_csv(columns, rows)


def test_repeated_and_special_floats_keep_their_own_text(tmp_path):
    # each distinct value is formatted once: -0.0 and 0.0, nan and inf must still come out as themselves
    floats = [0.0, -0.0, np.nan, np.inf, -np.inf, 0.1, 0.0, -0.0, np.nan, 0.1, 5e-324, -np.inf, 0.0]
    ints = [3, -1, 3, 3, 0, -1, 7, 3, 0, 0, 2**53 + 1, -1, 3]
    text = ["a", "b", "a", "", "a", "b", "b", "a", "", "c", "a", "a", "b"]
    table = Table("t", {"p": np.array(floats), "x": ints, "s": text})
    (path,) = emit_results([table], tmp_path)
    rows = [f"{format(p, '.17g')},{x},{s}" for p, x, s in zip(floats, ints, text)]
    assert path.read_bytes() == ("\n".join(["p,x,s", *rows]) + "\n").encode()


def test_fortran_ordered_joint_rows_come_out_row_major(tmp_path):
    matrix = np.asfortranarray(np.random.default_rng(3).random((65, 65)))
    assert matrix.flags.f_contiguous and not matrix.flags.c_contiguous
    positions = list(range(-32, 33))
    (path,) = emit_results([joint_table("j", matrix, positions)], tmp_path)
    rows = [(x, y, float(matrix[i, j])) for i, x in enumerate(positions) for j, y in enumerate(positions)]
    assert path.read_text() == reference_csv(("x", "y", "p"), rows)


@pytest.mark.parametrize("name", preset_names())
def test_csv_tables_hold_the_numbers_of_their_run(tmp_path, monkeypatch, name):
    emitted = []

    def record(tables, out_dir):
        emitted.extend(tables)
        return emit_results(tables, out_dir)

    monkeypatch.setattr(scenarios, "emit_results", record)
    run_scenario(small(name, tmp_path, steps=4, configs=2))
    assert emitted
    for table in emitted:
        header, rows = read_csv(tmp_path / name / f"{table.name}.csv")
        assert header == list(table.columns)
        for i, column in enumerate(table.columns.values()):
            values = np.asarray(column)
            parse = {"f": float, "i": int}.get(values.dtype.kind, str)
            parsed = np.array([parse(row[i]) for row in rows], dtype=values.dtype)
            # the same bits, so -0.0 and the last digit of every float come back from the text
            assert parsed.tobytes() == values.tobytes(), (table.name, header[i])


def test_scenario_config_round_trip():
    cfg = preset("fig7")
    doc = json.loads(json.dumps(dataclasses.asdict(cfg)))
    assert (doc["disorder"], doc["phi_dynamic"], doc["symmetry"]) == ("combined", None, "both")
    assert scenario_from_dict(doc) == cfg


def test_scenario_config_validation_errors():
    with pytest.raises(ValueError):
        ScenarioConfig("x", steps=0)
    with pytest.raises(ValueError):
        ScenarioConfig("x", steps=5, configs=0)
    with pytest.raises(ValueError):
        ScenarioConfig("x", steps=5, phi_max=7.0)
    with pytest.raises(ValueError):
        ScenarioConfig("x", steps=5, symmetry="anyonic")
    for bad in ({"steps": True}, {"steps": 10.5}, {"configs": True}, {"seed": -1}, {"seed": 1.0},
                {"steps": MAX_STEPS + 1}, {"configs": MAX_CONFIGS + 1}, {"steps": 10**20}, {"configs": 10**20}):
        with pytest.raises(ValueError):
            ScenarioConfig(**{"name": "x", "steps": 5, **bad})
    # the caps themselves; made, never run
    ScenarioConfig("x", steps=MAX_STEPS, configs=MAX_CONFIGS)
    # both walkers start in the central site's two coin modes; the start is no field
    with pytest.raises(TypeError):
        ScenarioConfig("x", steps=5, start_a=(0, "L"))
    with pytest.raises(ValueError, match="unknown config keys"):
        scenario_from_dict({"name": "x", "steps": 5, "start_b": [0, "R"]})
    with pytest.raises(ValueError):
        scenario_from_dict({"name": "x", "steps": 5, "bogus": 1})
    # the presets sweep scenarios.STRENGTH_GRID; there are no sweep values to set
    with pytest.raises(ValueError, match="unknown config keys"):
        scenario_from_dict({"name": "fig6", "steps": 5, "sweep_values": [0.0, 1.0]})
    with pytest.raises(TypeError, match="sweep_values"):
        ScenarioConfig("fig6", steps=5, sweep_values=(0.0, 1.0))


def test_a_scenario_config_is_frozen_and_checked_also_when_replaced():
    cfg = preset("fig3")
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.steps = 0
    with pytest.raises(ValueError, match="steps must be >= 1"):  # replace once returned an unchecked config
        dataclasses.replace(cfg, steps=0)


# --- CLI behaviour -----------------------------------------------------------


def test_cli_list_exits_zero(capsys):
    assert main(["--list"]) == 0
    out = capsys.readouterr().out
    assert "fig5" in out


def test_cli_runs_preset_with_overrides(tmp_path, capsys):
    code = main(["--scenario", "fig2", "--steps", "6", "--out", str(tmp_path / "o")])
    assert code == 0
    assert (tmp_path / "o" / "marginal.csv").exists()


def test_cli_unknown_scenario_is_usage_error(tmp_path):
    assert main(["--scenario", "nope", "--out", str(tmp_path)]) == 1


def test_cli_missing_scenario_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 1


def test_cli_invalid_value_is_usage_error(tmp_path):
    assert main(["--scenario", "fig2", "--phi-max", "9.0", "--out", str(tmp_path)]) == 1


def test_cli_config_file_with_flag_override(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"name": "fig2", "steps": 12, "out_dir": str(tmp_path / "file_dir")}))
    code = main(["--config", str(cfg_path), "--steps", "5", "--out", str(tmp_path / "flag_dir")])
    assert code == 0
    assert (tmp_path / "flag_dir" / "marginal.csv").exists()
    header, rows = read_csv(tmp_path / "flag_dir" / "marginal.csv")
    assert len(rows) == 2 * 5 + 3  # flags override the file's steps


def test_cli_unreadable_config_is_usage_error(tmp_path):
    assert main(["--config", str(tmp_path / "missing.json")]) == 1


def test_cli_reports_a_config_that_is_not_utf8(tmp_path, capsys, monkeypatch):
    # a UTF-16 byte-order mark once escaped main as a UnicodeDecodeError traceback
    cfg_path, out = tmp_path / "bad.json", tmp_path / "out"
    cfg_path.write_bytes(b'\xff\xfe{"name": "fig2"}')
    result = subprocess.run([sys.executable, "-m", "dtqw", "--config", str(cfg_path), "--out", str(out)],
                            capture_output=True, text=True, env=child_env())
    assert result.returncode == 1
    assert f"dtqw: cannot read config {cfg_path}" in result.stderr and "Traceback" not in result.stderr
    monkeypatch.setattr("dtqw.cli.run_scenario", lambda *a, **k: pytest.fail("ran an unreadable config"))
    assert main(["--config", str(cfg_path), "--out", str(out)]) == 1
    assert f"dtqw: cannot read config {cfg_path}" in capsys.readouterr().err
    assert not out.exists()


def test_cli_runtime_failure_exits_two(tmp_path):
    (tmp_path / "marginal.csv").mkdir()  # the run cannot write this table
    code = main(["--scenario", "fig2", "--steps", "4", "--out", str(tmp_path)])
    assert code == 2


@pytest.mark.parametrize("below", [False, True], ids=["file", "below-a-file"])
def test_cli_rejects_an_unusable_out_before_any_work(tmp_path, capsys, monkeypatch, below):
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory")
    monkeypatch.setattr("dtqw.cli.run_scenario", lambda *a, **k: pytest.fail("ran before rejecting --out"))
    code = main(["--scenario", "fig2", "--steps", "3", "--out", str(blocker / "x" if below else blocker)])
    assert code == 1
    assert "invalid configuration" in capsys.readouterr().err
    assert blocker.read_text() == "not a directory"


@pytest.mark.parametrize("argv", [["--list", "--steps", "5", "--scenario", "fig3"], ["--scenario", "fig2", "--list"],
                                  ["--list", "--jobs", "1"]], ids=["list-first", "list-last", "default-value"])
def test_cli_list_with_any_other_argument_is_usage_error(capsys, monkeypatch, argv):
    # --list once listed the presets and dropped the other flags without a word
    monkeypatch.setattr("dtqw.cli.run_scenario", lambda *a, **k: pytest.fail("ran a scenario"))
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    out, err = capsys.readouterr()
    assert "--list takes no other argument" in err and out == ""


def test_cli_rejects_a_config_name_that_disagrees_with_the_scenario_before_any_work(tmp_path, capsys, monkeypatch):
    # the file's name was once silently dropped for --scenario's
    monkeypatch.setattr("dtqw.cli.run_scenario", lambda *a, **k: pytest.fail("ran a scenario"))
    cfg_path, out = tmp_path / "cfg.json", tmp_path / "out"
    cfg_path.write_text(json.dumps({"name": "fig3", "steps": 4}))
    with pytest.raises(SystemExit) as exc:
        main(["--scenario", "fig2", "--config", str(cfg_path), "--out", str(out)])
    assert exc.value.code == 1
    assert "disagrees with the config file's name 'fig3'" in capsys.readouterr().err
    assert not out.exists()


def test_cli_rejects_a_config_name_that_is_not_a_string(tmp_path, capsys):
    cfg_path, out = tmp_path / "cfg.json", tmp_path / "out"
    cfg_path.write_text(json.dumps({"name": ["fig2"], "steps": 4}))
    assert main(["--config", str(cfg_path), "--out", str(out)]) == 1
    assert "unknown scenario ['fig2']; available: fig2" in capsys.readouterr().err  # once "unhashable type: 'list'"
    assert not out.exists()


@pytest.mark.parametrize("name", preset_names())
def test_cli_validates_every_preset_with_the_run_scenario_stub_of_the_setup_probe(tmp_path, monkeypatch, name):
    # perfbench/setup_probe.py times set-up by running main with this stub in place of run_scenario, so main may read
    # no more of the returned manifest than the stub holds
    ran = []

    def stub(cfg, n_jobs=1):
        ran.append(cfg.name)
        return types.SimpleNamespace(files={}, duration_seconds=0.0)

    monkeypatch.setattr("dtqw.cli.run_scenario", stub)
    assert main(["--scenario", name, "--seed", "1", "--jobs", "1", "--out", str(tmp_path / name), "--configs", "2"]) == 0
    assert ran == [name]


def test_cli_rerun_byte_identical(tmp_path):
    args = ["--scenario", "fig6", "--steps", "6", "--configs", "2"]
    assert main(args + ["--out", str(tmp_path / "r1")]) == 0
    assert main(args + ["--out", str(tmp_path / "r2")]) == 0
    a = (tmp_path / "r1" / "variance_vs_phi.csv").read_bytes()
    b = (tmp_path / "r2" / "variance_vs_phi.csv").read_bytes()
    assert a == b


def test_cli_parallel_matches_serial(tmp_path):
    args = ["--scenario", "fig8", "--steps", "8", "--configs", "3"]
    assert main(args + ["--out", str(tmp_path / "serial")]) == 0
    assert main(args + ["--out", str(tmp_path / "par"), "--jobs", "2"]) == 0
    a = (tmp_path / "serial" / "entropy_vs_t.csv").read_bytes()
    b = (tmp_path / "par" / "entropy_vs_t.csv").read_bytes()
    assert a == b


def test_joint_maps_do_not_depend_on_the_blas_thread_count(tmp_path):
    # The averaged joints are two BLAS products over every configuration's factors.  At the golden cases' scale
    # OpenBLAS keeps them on one thread; with 400 fig3 configurations (51 parity cells) it was seen to split both
    # products over two threads, which must not move a bit.
    out = {}
    for threads in ("1", "2"):
        out[threads] = tmp_path / threads
        result = subprocess.run(
            [sys.executable, "-m", "dtqw", "--scenario", "fig3", "--configs", "400", "--out", str(out[threads])],
            capture_output=True, text=True, env=child_env(OPENBLAS_NUM_THREADS=threads),
        )
        assert result.returncode == 0, result.stderr
    for name in ("joint_bose.csv", "joint_fermi.csv", "marginal.csv"):
        assert (out["1"] / name).read_bytes() == (out["2"] / name).read_bytes(), name


def test_module_entry_point(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "dtqw", "--scenario", "fig2", "--steps", "4", "--out", str(tmp_path / "m")],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "m" / "manifest.json").exists()


def test_a_serial_run_never_imports_the_process_pool(tmp_path):
    # importing concurrent.futures and its process pool takes about 20 ms, which a --jobs 1 run need not pay
    code = ("import sys; from dtqw.cli import main; "
            f"assert main(['--scenario', 'fig8', '--steps', '4', '--configs', '3', '--out', {str(tmp_path)!r}]) == 0; "
            "print(sorted(name for name in sys.modules if name.startswith('concurrent')))")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=child_env())
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "[]"


@pytest.mark.parametrize("name", ["fig5", "fig6", "fig7", "fig8", "fig9"])
@pytest.mark.parametrize("source", ["flag", "file"])
def test_cli_rejects_disorder_on_fixed_kind_presets(tmp_path, capsys, name, source):
    out = tmp_path / "out"
    argv = ["--scenario", name, "--steps", "4", "--configs", "1", "--out", str(out)]
    if source == "flag":
        argv += ["--disorder", "static"]
    else:
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"disorder": "combined"}))
        argv += ["--config", str(cfg_path)]
    assert main(argv) == 1
    assert name in capsys.readouterr().err
    assert not out.exists()


# The plan fixes the observable and the swept strength, so neither is a config key.
UNKNOWN_KEY = "unknown config keys"


@pytest.mark.parametrize(
    "name, file_doc, message",
    [
        ("fig5", {"sweep_parameter": "phi_max", "sweep_values": [0.0, 1.0]}, UNKNOWN_KEY),
        ("fig6", {"sweep_parameter": "phi_dynamic"}, UNKNOWN_KEY),
        ("fig6", {"sweep_parameter": None}, UNKNOWN_KEY),
        ("fig2", {"sweep_values": [0.0, 1.0]}, UNKNOWN_KEY),
        ("fig5", {"observables": ["entropy"]}, UNKNOWN_KEY),
        ("fig2", {"observables": ["variance", "entropy"]}, UNKNOWN_KEY),
        ("fig5", {"sweep_values": [0.0, 1.0]}, UNKNOWN_KEY),
        ("fig6", {"sweep_values": []}, UNKNOWN_KEY),
        # fig6 and fig7 sweep scenarios.STRENGTH_GRID, which no config sets
        ("fig6", {"sweep_values": [0.0, 1.0]}, UNKNOWN_KEY),
        # a strength the run never reads
        ("fig6", {"phi_max": 1.0}, "fig6 ignores phi_max"),
        ("fig7", {"phi_dynamic": 0.3}, "fig7 ignores phi_dynamic"),
        ("fig2", {"phi_max": 1.0}, "fig2 ignores phi_max"),
        ("fig8", {"phi_dynamic": 1.0}, "fig8 ignores phi_dynamic"),
        ("fig3", {"disorder": "ordered", "phi_max": 1.0}, "fig3 ignores phi_max"),
        # combined disorder's static phases read phi_max; there is no strength of their own
        ("fig3", {"phi_static": 1.0}, UNKNOWN_KEY),
        ("fig7", {"phi_static": 1.0}, UNKNOWN_KEY),
        # every table is written as CSV; there is no format to choose
        ("fig2", {"name": "fig2", "format": "csv"}, UNKNOWN_KEY),
    ],
    ids=["fig5-sweep", "fig6-other-parameter", "fig6-no-sweep", "fig2-values", "fig5-entropy", "fig2-observables",
         "fig5-values", "fig6-no-values", "fig6-values", "fig6-swept-max", "fig7-swept-dynamic", "fig2-ordered-max",
         "fig8-dynamic", "fig3-ordered-max", "fig3-phi-static-key", "fig7-phi-static-key", "fig2-format-key"],
)
def test_cli_rejects_fields_the_plan_fixes(tmp_path, capsys, monkeypatch, name, file_doc, message):
    monkeypatch.setattr("dtqw.cli.run_scenario", lambda *a, **k: pytest.fail("ran before rejecting"))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(file_doc))
    out = tmp_path / "out"
    assert main(["--scenario", name, "--config", str(cfg_path), "--steps", "4", "--out", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_run_scenario_rejects_fields_the_plan_fixes(tmp_path):
    for name, fields in (("fig5", {"disorder": DisorderKind.STATIC}), ("fig6", {"phi_max": 1.0}),
                         ("fig3", {"phi_dynamic": 1.0})):
        with pytest.raises(ValueError, match=name):
            run_scenario(small(name, tmp_path, steps=4, configs=1, **fields))
    assert not any(tmp_path.iterdir())


def test_manifest_reports_the_kinds_it_ran(tmp_path):
    args = ["--steps", "4", "--configs", "1"]
    assert main(["--scenario", "fig6", "--out", str(tmp_path / "fig6")] + args) == 0
    assert main(["--scenario", "fig3", "--out", str(tmp_path / "fig3")] + args) == 0
    assert json.loads((tmp_path / "fig6" / "manifest.json").read_text())["kinds"] == ["static", "dynamic"]
    assert json.loads((tmp_path / "fig3" / "manifest.json").read_text())["kinds"] == ["static"]


@pytest.mark.parametrize(
    "file_doc, flags",
    [
        ({"steps": True}, []),
        ({"configs": True}, []),
        ({"steps": 10.5}, []),
        ({}, ["--seed", "-1"]),
        ({}, ["--seed", "-1", "--disorder", "static"]),
        ({}, ["--jobs", "0"]),
        ({}, ["--jobs", "-3"]),
        # start_a, start_b and sweep_values are no config keys: both walkers start in the central site's two coin
        # modes, and fig6 and fig7 sweep scenarios.STRENGTH_GRID
        ({"start_a": [1.7, "L"]}, []),
        ({"start_b": [True, "R"]}, []),
        ({"name": "fig6", "sweep_values": [True, 2]}, []),
        ({"name": "fig3", "phi_max": True}, []),
        ({"name": "fig3", "phi_max": "3"}, []),
        ({"name": "fig3", "phi_max": None}, []),
        ({"name": "fluct", "phi_dynamic": "1.0"}, []),
        ({"name": "fig5", "phi_dynamic": False}, []),
        # sizes past the fixed caps of steps and configs
        ({}, ["--steps", str(10**20)]),
        ({}, ["--configs", str(10**20)]),
        ({}, ["--steps", str(MAX_STEPS + 1)]),
        ({}, ["--configs", str(MAX_CONFIGS + 1)]),
    ],
    ids=["steps-true", "configs-true", "steps-float", "seed-negative", "seed-negative-static",
         "jobs-zero", "jobs-negative", "start-site-float", "start-site-true", "sweep-bool", "phi-max-true",
         "phi-max-string", "phi-max-null", "phi-dynamic-string", "phi-dynamic-false", "steps-1e20", "configs-1e20",
         "steps-past-cap", "configs-past-cap"],
)
def test_cli_rejects_mistyped_and_out_of_range_values(tmp_path, capsys, monkeypatch, file_doc, flags):
    monkeypatch.setattr("dtqw.cli.run_scenario", lambda *a, **k: pytest.fail("ran before rejecting"))
    monkeypatch.setattr(observables, "sample_phase_field", lambda *a, **k: pytest.fail("drew a field"))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"name": "fig2", "steps": 3, **file_doc}))
    out = tmp_path / "out"
    assert main(["--config", str(cfg_path), "--out", str(out)] + flags) == 1
    assert "invalid configuration" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("doc", [[1, 2], 3, "fig2"], ids=["list", "number", "string"])
def test_cli_rejects_a_config_that_is_not_an_object(tmp_path, capsys, doc):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["--scenario", "fig2", "--config", str(cfg_path), "--out", str(out)]) == 1
    assert "must hold a JSON object" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("out_dir", [5, None, ["runs"]], ids=["number", "null", "list"])
def test_cli_rejects_an_out_dir_that_is_not_a_string(tmp_path, capsys, monkeypatch, out_dir):
    monkeypatch.chdir(tmp_path)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"name": "fig2", "steps": 3, "out_dir": out_dir}))
    assert main(["--config", str(cfg_path)]) == 1
    assert "out_dir must be a string" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


@pytest.mark.parametrize(
    "argv",
    [
        ["--scenario", "fig5", "--phi-dynamic", "1.0"],  # its combined kind reads phi_dynamic once set
        ["--scenario", "fig7", "--phi-max", "1.0"],  # the static phases under the phi_dynamic sweep
        ["--scenario", "fluct", "--phi-max", "1.0"],  # both components, phi_dynamic being unset
        ["--scenario", "fig2", "--disorder", "static", "--phi-max", "1.0"],
        ["--scenario", "fig2", "--disorder", "combined", "--phi-dynamic", "1.0"],
        ["--scenario", "fig2", "--disorder", "combined", "--phi-max", "1.0"],
    ],
    ids=["fig5-dynamic", "fig7-max", "fluct-max", "fig2-static", "fig2-combined-dynamic", "fig2-combined-max"],
)
def test_cli_accepts_the_strengths_a_run_reads(tmp_path, argv):
    assert main(argv + ["--steps", "3", "--configs", "1", "--out", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize("flags", [["--phi-static", "1.0"], ["--sweep-parameter", "phi_max"],
                                   ["--observables", "entropy"], ["--format", "json"]],
                         ids=["phi-static", "sweep-parameter", "observables", "format"])
def test_cli_rejects_a_removed_flag_before_any_work(tmp_path, capsys, monkeypatch, flags):
    monkeypatch.setattr("dtqw.cli.run_scenario", lambda *a, **k: pytest.fail("ran before rejecting"))
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["--scenario", "fig7", "--out", str(out)] + flags)
    assert exc.value.code == 1
    assert f"unrecognized arguments: {' '.join(flags)}" in capsys.readouterr().err
    assert not out.exists()


def test_every_cli_flag_sets_one_config_field():
    # main keeps the parsed values whose names are fields, so a flag without a field would be dropped unread
    flags = {action.dest for action in build_parser()._actions} - {"help", "scenario", "config", "list", "jobs"}
    fields = {field.name for field in dataclasses.fields(ScenarioConfig)}
    assert flags <= fields
    assert fields - flags == {"name"}  # the scenario, which --scenario or the file's "name" gives


# every preset; those whose plan evolves the config's own disorder once with each kind, which the config sets
STRENGTH_CASES = [(name, kind) for name in preset_names()
                  for kind in ([None] if scenarios._lookup(name)[1].kinds else DisorderKind)]


@pytest.mark.parametrize("key", ["phi_max", "phi_static", "phi_dynamic"])
@pytest.mark.parametrize("name, kind", STRENGTH_CASES, ids=[name + (f"-{kind.value}" if kind else "")
                                                            for name, kind in STRENGTH_CASES])
def test_a_strength_is_accepted_exactly_when_it_changes_the_drawn_phases(name, kind, key):
    # check_config and the fields the run draws follow one rule, whatever the kind and the sweep;
    # phi_static is no field, since combined's static phases read phi_max, so it is refused everywhere
    plan = scenarios._lookup(name)[1]
    given = {key: 1.0, **({"disorder": kind} if kind else {})}
    cfg = dataclasses.replace(preset(name), steps=3, disorder=kind or preset(name).disorder)
    if key == "phi_static":
        with pytest.raises(ValueError, match="unknown config keys"):
            scenario_from_dict({**dataclasses.asdict(cfg), **given})  # the merge main makes
        return
    changed = dataclasses.replace(cfg, **given)
    n_sites, _ = lattice_for(cfg.steps)
    swept = {plan.sweep: STRENGTH_GRID[-1]} if plan.sweep else {}
    kinds = plan.kinds or (cfg.disorder,)

    def phases(c):
        return [observables._field_for(dataclasses.replace(c, disorder=k, **swept), c.seed, n_sites).phases
                for k in kinds]

    moved = any(not np.array_equal(a, b) for a, b in zip(phases(cfg), phases(changed)))
    evolved = "/".join(k.value for k in kinds)
    try:
        scenarios.check_config(changed, given)
    except ValueError as exc:
        assert not moved, f"{name} rejected a {key} that moves its {evolved} phases: {exc}"
    else:
        assert moved, f"{name} accepted a {key} that none of its {evolved} phases read"


def test_every_kind_a_preset_sweeps_reads_the_swept_strength():
    # a sweep of a strength that a kind does not read would emit one identical series per value
    swept = [(name, plan) for name in preset_names() for plan in [scenarios._lookup(name)[1]] if plan.sweep]
    assert [name for name, _ in swept] == ["fig6", "fig7"]
    for name, plan in swept:
        cfg = dataclasses.replace(preset(name), **{plan.sweep: 0.0})  # as the sweep sets it
        for kind in plan.kinds:
            assert plan.sweep in strength_fields(kind, cfg.phi_dynamic).values(), (name, kind)


def reproduce_all():
    script = Path(__file__).resolve().parent.parent / "scripts" / "reproduce_all.py"
    spec = importlib.util.spec_from_file_location("reproduce_all", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_reproduce_all_rejects_fewer_than_one_job(tmp_path, capsys, jobs):
    with pytest.raises(SystemExit) as exc:
        reproduce_all().main(["--jobs", jobs, "--only", "fig2", "--out", str(tmp_path / "out")])
    assert exc.value.code == 2  # argparse's usage-error exit
    assert "--jobs must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("only", [[], ["fig2", "fig2"]], ids=["empty", "repeated"])
def test_reproduce_all_rejects_an_empty_or_repeated_only(tmp_path, capsys, only):
    # an empty --only once parsed to [] and ran all nine presets
    with pytest.raises(SystemExit) as exc:
        reproduce_all().main(["--only", *only, "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert "--only needs one or more distinct scenario names" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
