"""Time dtqw's set-up in this fresh interpreter and print it in seconds.

Set-up is importing ``dtqw``, resolving the presets, and merging and
validating every config of the workload through ``dtqw.cli.main``, up to the
point where the first scenario would run.  ``run_scenario`` is replaced by a
stub in this process only, so no scenario runs and no file is written.
"""

import time

START = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import sys  # noqa: E402
import types  # noqa: E402

from workloads import SRC, WORK_DIR, WORKLOADS  # noqa: E402


def main(name: str, seed: int) -> int:
    sys.path.insert(0, str(SRC))
    import dtqw.cli as cli

    validated = []

    def stub(cfg, n_jobs=1):
        validated.append(cfg.name)
        return types.SimpleNamespace(files={}, duration_seconds=0.0)

    cli.run_scenario = stub
    workload = WORKLOADS[name]
    for run in workload.runs:
        captured = io.StringIO()
        with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
            code = cli.main(run.argv(seed, WORK_DIR / "setup"))
        if code != 0:
            print(f"setup of {run.preset} failed with exit {code}: {captured.getvalue()}", file=sys.stderr)
            return 1
    elapsed = time.perf_counter() - START
    if validated != [run.preset for run in workload.runs]:
        print(f"unexpected scenarios validated: {validated}", file=sys.stderr)
        return 1
    print(repr(elapsed))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], int(sys.argv[2])))
