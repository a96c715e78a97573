"""The README's Library example runs against the package as it is.

The first ``python`` block under ``## Library`` is extracted and executed,
so an API change that the docs do not follow fails here.
"""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_block() -> str:
    section = README.read_text().split("## Library", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match, "no python block under ## Library"
    return match.group(1)


def test_library_example_runs_and_its_claims_hold():
    namespace: dict = {}
    exec(compile(library_block(), str(README), "exec"), namespace)
    joint_entropy, quarters, bose = namespace["joint_entropy"], namespace["quarters"], namespace["bose"]
    assert joint_entropy(quarters[0]) == joint_entropy(bose)  # the "True, bit for bit" of the example
    series, bosonic = namespace["series"], namespace["ExchangeSymmetry"].BOSONIC
    assert set(series) == set(namespace["ExchangeSymmetry"])  # cfg.symmetry is "both"
    assert len(series[bosonic].mean) == namespace["cfg"].steps + 1
