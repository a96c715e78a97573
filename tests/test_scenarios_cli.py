import dataclasses
import json
import subprocess
import sys

import numpy as np
import pytest

from dtqw.cli import main
from dtqw.config import ScenarioConfig, load_scenario_json, scenario_from_dict
from dtqw.disorder import DisorderKind
from dtqw.output import Table, emit_results, joint_table, sha256_file
from dtqw.scenarios import preset, preset_names, run_scenario


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
    cfg = small("fig6", tmp_path, steps=6, configs=2, sweep_values=(0.0, 0.5, 1.0))
    run_scenario(cfg)
    header, rows = read_csv(tmp_path / "fig6" / "variance_vs_phi.csv")
    assert header == ["phi", "kind", "symmetry", "var_mean", "var_std"]
    # 3 grid points x 2 kinds x 2 symmetries
    assert len(rows) == 12
    kinds = {r[1] for r in rows}
    assert kinds == {"static", "dynamic"}


def test_fig7_emits_mobility_edge(tmp_path):
    cfg = small("fig7", tmp_path, steps=6, configs=2, sweep_values=(0.0, 1.0))
    run_scenario(cfg)
    doc = json.loads((tmp_path / "fig7" / "mobility_edge.json").read_text())
    assert "first_crossing" in doc and "classical_baseline" in doc


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
    cfg = small("fig8", tmp_path, steps=10, configs=2)
    run_scenario(cfg)
    header, rows = read_csv(tmp_path / "fig8" / "entropy_vs_t.csv")
    assert header == ["step", "kind", "symmetry", "mean", "std_dev"]
    assert {r[1] for r in rows} == {"ordered", "dynamic", "static"}


def test_rerun_is_byte_identical(tmp_path):
    cfg_a = small("fig6", tmp_path, steps=8, configs=2, sweep_values=(0.0, 1.5), out_dir=str(tmp_path / "a"))
    cfg_b = dataclasses.replace(cfg_a, out_dir=str(tmp_path / "b"))
    run_scenario(cfg_a)
    run_scenario(cfg_b)
    for name in ("variance_vs_phi.csv", "classical_baseline.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_manifest_digests_round_trip(tmp_path):
    cfg = small("fig2", tmp_path, steps=5)
    manifest = run_scenario(cfg)
    out = tmp_path / "fig2"
    for name, digest in manifest.files.items():
        assert sha256_file(out / name) == digest
    echoed = json.loads((out / "manifest.json").read_text())
    assert echoed["files"] == manifest.files
    assert echoed["scenario"]["steps"] == 5
    assert echoed["generator"] == "numpy-pcg64"


def test_symmetry_selection_limits_outputs(tmp_path):
    cfg = small("fig2", tmp_path, steps=5, symmetry="bosonic")
    run_scenario(cfg)
    out = tmp_path / "fig2"
    assert (out / "joint_bose.csv").exists()
    assert not (out / "joint_fermi.csv").exists()


def test_json_format_emission(tmp_path):
    cfg = small("fig2", tmp_path, steps=4, format="json")
    run_scenario(cfg)
    doc = json.loads((tmp_path / "fig2" / "marginal.json").read_text())
    assert doc["columns"] == ["x", "p"]
    assert sum(row[1] for row in doc["rows"]) == pytest.approx(1.0, abs=1e-12)


def test_emit_results_joint_rows(tmp_path):
    table = joint_table("j", np.arange(9, dtype=float).reshape(3, 3) / 36.0, [-1, 0, 1])
    (path,) = emit_results([table], "csv", tmp_path)
    header, rows = read_csv(path)
    assert header == ["x", "y", "p"]
    assert len(rows) == 9


def test_emit_results_series_rows(tmp_path):
    rows = [(t, float(t), 0.0) for t in range(100)]
    (path,) = emit_results([Table("v", ("step", "mean", "std_dev"), rows)], "csv", tmp_path)
    _, rows = read_csv(path)
    assert len(rows) == 100


def test_emit_results_empty_table(tmp_path):
    (path,) = emit_results([Table("empty", ("a", "b"))], "csv", tmp_path)
    assert path.read_text() == "a,b\n"


def test_emit_results_rejects_bad_format(tmp_path):
    with pytest.raises(ValueError):
        emit_results([Table("t", ("a",))], "xml", tmp_path)


def test_scenario_config_round_trip():
    cfg = preset("fig7")
    back = scenario_from_dict(cfg.to_dict())
    assert back == cfg


def test_scenario_config_validation_errors():
    with pytest.raises(ValueError):
        ScenarioConfig("x", steps=0).validate()
    with pytest.raises(ValueError):
        ScenarioConfig("x", steps=5, configs=0).validate()
    with pytest.raises(ValueError):
        ScenarioConfig("x", steps=5, phi_max=7.0).validate()
    with pytest.raises(ValueError):
        ScenarioConfig("x", steps=5, symmetry="anyonic").validate()
    with pytest.raises(ValueError):
        ScenarioConfig("x", steps=5, start_a=(0, "L"), start_b=(0, "L")).validate()
    with pytest.raises(ValueError):
        ScenarioConfig("x", steps=5, sweep_parameter="phi_max", sweep_values=(1.0, 0.5)).validate()
    for bad in ({"steps": True}, {"steps": 10.5}, {"configs": True}, {"seed": -1}, {"seed": 1.0}):
        with pytest.raises(ValueError):
            ScenarioConfig(**{"name": "x", "steps": 5, **bad}).validate()
    with pytest.raises(ValueError):
        scenario_from_dict({"name": "x", "steps": 5, "bogus": 1})


def test_load_scenario_json(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"name": "fig2", "steps": 6, "configs": 2}))
    cfg = load_scenario_json(path)
    assert cfg.name == "fig2" and cfg.steps == 6


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


def test_cli_runtime_failure_exits_two(tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory")
    code = main(["--scenario", "fig2", "--steps", "4", "--out", str(blocker / "sub")])
    assert code == 2


def test_cli_rerun_byte_identical(tmp_path):
    args = ["--scenario", "fig6", "--steps", "6", "--configs", "2", "--format", "csv"]
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


def test_module_entry_point(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "dtqw", "--scenario", "fig2", "--steps", "4", "--out", str(tmp_path / "m")],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "m" / "manifest.json").exists()


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


@pytest.mark.parametrize(
    "name, file_doc",
    [
        ("fig5", {"sweep_parameter": "phi_max", "sweep_values": [0.0, 1.0]}),
        ("fig6", {"sweep_parameter": "phi_dynamic"}),
        ("fig6", {"sweep_parameter": None}),
        ("fig2", {"sweep_values": [0.0, 1.0]}),
        ("fig5", {"observables": ["entropy"]}),
        ("fig2", {"observables": ["variance", "entropy"]}),
    ],
    ids=["fig5-sweep", "fig6-other-parameter", "fig6-no-sweep", "fig2-values", "fig5-entropy", "fig2-observables"],
)
def test_cli_rejects_fields_the_plan_fixes(tmp_path, capsys, name, file_doc):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(file_doc))
    out = tmp_path / "out"
    assert main(["--scenario", name, "--config", str(cfg_path), "--steps", "4", "--out", str(out)]) == 1
    assert name in capsys.readouterr().err
    assert not out.exists()


def test_run_scenario_rejects_fields_the_plan_fixes(tmp_path):
    for fields in ({"disorder": DisorderKind.STATIC}, {"observables": ("entropy",)}, {"sweep_values": (0.0,)}):
        with pytest.raises(ValueError, match="fig5"):
            run_scenario(small("fig5", tmp_path, steps=4, configs=1, **fields))
    assert not (tmp_path / "fig5").exists()


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
    ],
    ids=["steps-true", "configs-true", "steps-float", "seed-negative", "seed-negative-static",
         "jobs-zero", "jobs-negative"],
)
def test_cli_rejects_mistyped_and_out_of_range_values(tmp_path, capsys, file_doc, flags):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"name": "fig2", "steps": 3, **file_doc}))
    out = tmp_path / "out"
    assert main(["--config", str(cfg_path), "--out", str(out)] + flags) == 1
    assert "invalid configuration" in capsys.readouterr().err
    assert not out.exists()
