"""``scripts/compare_outputs.py`` names every data file whose manifest digest differs between two output trees."""

import importlib.util
import json
from pathlib import Path

import pytest

from dtqw.cli import main

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "compare_outputs.py"


def compare_outputs():
    spec = importlib.util.spec_from_file_location("compare_outputs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.main


def tree(root: Path, seed: int) -> Path:
    """An output tree of two runs: fig2 (seed-independent ordered maps) and fig6, both with ``seed``."""
    for name, extra in (("fig2", []), ("fig6", ["--configs", "2"])):
        assert main(["--scenario", name, "--steps", "4", "--seed", str(seed), *extra,
                     "--out", str(root / name)]) == 0
    return root


def test_matching_trees_exit_0(tmp_path, capsys):
    a, b = tree(tmp_path / "a", 3), tree(tmp_path / "b", 3)
    capsys.readouterr()
    assert compare_outputs()([str(a), str(b)]) == 0
    out, err = capsys.readouterr()
    assert out == "" and "0 of 5 data files differ" in err


def test_differing_trees_exit_1_and_name_every_differing_file(tmp_path, capsys):
    a, b = tree(tmp_path / "a", 3), tree(tmp_path / "b", 4)
    # a file that only one tree lists differs too
    manifest = b / "fig2" / "manifest.json"
    doc = json.loads(manifest.read_text())
    doc["files"]["extra.csv"] = "0" * 64
    manifest.write_text(json.dumps(doc))
    capsys.readouterr()
    assert compare_outputs()([str(a), str(b)]) == 1
    # the ordered fig2 maps and fig6's classical baseline do not depend on the seed; fig6's sweep does
    assert capsys.readouterr().out.splitlines() == ["fig2/extra.csv", "fig6/variance_vs_phi.csv"]


def test_a_tree_without_a_manifest_is_a_usage_error(tmp_path, capsys):
    (tmp_path / "empty").mkdir()
    with pytest.raises(SystemExit) as exc:
        compare_outputs()([str(tree(tmp_path / "a", 3)), str(tmp_path / "empty")])
    assert exc.value.code == 2
    assert "no manifest.json" in capsys.readouterr().err
