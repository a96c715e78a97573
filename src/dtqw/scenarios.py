"""Built-in experiment presets and the scenario pipeline.

Each preset pairs the configuration of one standard experiment (steps,
strengths, ensemble size, seed) with a ``Plan`` of what to evolve and emit:

    fig2   ordered two-walker joint distributions, t=50
    fig3   static disorder joints + localization-length fit, t=50, n=100
    fig4   dynamic disorder joints + Gaussian semilog fit, t=50, n=100
    fluct  fluctuating-scenario joints (static + fluctuating phases, both at
           full strength) + Gaussian fit, t=50, n=100
    fig5   variance vs step for all disorder kinds + power-law fits,
           t=100, n=100 (the space-time random kind appears twice: alone as
           "fluctuating" and riding on full static disorder as "combined")
    fig6   final variance vs disorder strength, static and dynamic, t=100, n=100
    fig7   final variance vs fluctuating strength at full static strength
           (mobility edge), t=100, n=100
    fig8   joint entropy vs step, t=100, n=50
    fig9   mutual information vs step, t=100, n=50

Two runners read the plans: one averages joint maps at the final step and
fits their marginal (fig2-fig4, fluct); one loops disorder kind x sweep value
x symmetry x step (fig5-fig9, whose disorder kinds, observable and swept
strength are fixed).  A preset that sweeps a strength (fig6, fig7) takes
it over ``STRENGTH_GRID``, k pi / 10 for k = 0..10, and is measured at its
final step only.

``run_scenario`` executes a preset configuration (possibly with overridden
fields), writes the result tables plus a reproducibility manifest, and is
byte-deterministic in (config, seed) for every data file.
"""

from __future__ import annotations

import dataclasses
import math
import time
from dataclasses import dataclass
from pathlib import Path

from . import __version__
from .config import ScenarioConfig
from .disorder import GENERATOR_ID, DisorderKind, strength_fields
from .fitting import FitError, fit_exponential_decay, fit_gaussian_semilog, fit_power_law
from .observables import classical_baseline, ensemble_average_joints, ensemble_run, resolved_symmetries
from .output import Table, emit_results, joint_table, marginal_table, write_json
from .two_particle import ExchangeSymmetry

STRENGTH_GRID = tuple(k * math.pi / 10 for k in range(11))


@dataclass
class RunManifest:
    scenario: dict
    kinds: list[str]  # disorder kinds evolved, in run order
    artifact_version: str
    generator: str
    base_seed: int
    duration_seconds: float
    files: dict[str, str]  # file name -> sha256 of the bytes written


@dataclass(frozen=True)
class Plan:
    """What a preset evolves and emits; nothing here is user-settable.

    Without a ``table`` the preset writes averaged joint maps.  With one it
    writes a grid table of ``observable`` whose columns are ``keys + stats``;
    the first key holds the step, or the strength named by ``sweep`` (which
    then takes the values of ``STRENGTH_GRID``).  ``kinds`` fixes the disorder
    kinds evolved, in order (empty: the config's own ``disorder``).  ``fits``
    and ``docs`` name the fits and derived documents to emit.
    """

    table: str | None = None
    keys: tuple[str, ...] = ()
    stats: tuple[str, ...] = ()
    kinds: tuple[DisorderKind, ...] = ()
    observable: str | None = None
    sweep: str | None = None  # "phi_max" or "phi_dynamic"
    fits: tuple[str, ...] = ()
    docs: tuple[str, ...] = ()


def _preset_table() -> dict[str, tuple[ScenarioConfig, Plan]]:
    pi, K = math.pi, DisorderKind
    series, var, info = ("step", "kind", "symmetry"), ("var_mean", "var_std"), ("mean", "std_dev")
    info_kinds = (K.ORDERED, K.DYNAMIC, K.STATIC)
    wings = ("semilog_parabola", "exponential_wing")
    return {
        "fig2": (ScenarioConfig("fig2", steps=50, configs=1, seed=200), Plan()),
        "fig3": (ScenarioConfig("fig3", steps=50, disorder=K.STATIC, phi_max=pi, configs=100, seed=300),
                 Plan(fits=("exponential_wing",))),
        "fig4": (ScenarioConfig("fig4", steps=50, disorder=K.DYNAMIC, phi_max=pi, configs=100, seed=400),
                 Plan(fits=wings)),
        "fluct": (ScenarioConfig("fluct", steps=50, disorder=K.COMBINED, phi_max=pi, configs=100, seed=450),
                  Plan(fits=wings)),
        "fig5": (ScenarioConfig("fig5", steps=100, phi_max=pi, configs=100, seed=500),
                 Plan("variance_vs_t", series, var, (K.ORDERED, K.DYNAMIC, K.FLUCTUATING, K.COMBINED, K.STATIC),
                      "variance", fits=("power_law",))),
        "fig6": (ScenarioConfig("fig6", steps=100, configs=100, seed=600),
                 Plan("variance_vs_phi", ("phi", "kind", "symmetry"), var, (K.STATIC, K.DYNAMIC), "variance",
                      sweep="phi_max")),
        "fig7": (ScenarioConfig("fig7", steps=100, disorder=K.COMBINED, phi_max=pi, configs=100, seed=700),
                 Plan("variance_vs_phi_dynamic", ("phi_dynamic", "symmetry"), var, (K.COMBINED,), "variance",
                      sweep="phi_dynamic", docs=("mobility_edge",))),
        "fig8": (ScenarioConfig("fig8", steps=100, phi_max=pi, configs=50, seed=800),
                 Plan("entropy_vs_t", series, info, info_kinds, "entropy")),
        "fig9": (ScenarioConfig("fig9", steps=100, phi_max=pi, configs=50, seed=900),
                 Plan("mutual_information_vs_t", series, info, info_kinds, "mutual_information")),
    }


_PRESETS = _preset_table()


def preset_names() -> tuple[str, ...]:
    return tuple(_PRESETS)


def _lookup(name: str) -> tuple[ScenarioConfig, Plan]:
    if not isinstance(name, str) or name not in _PRESETS:  # a JSON list is unhashable
        raise ValueError(f"unknown scenario {name!r}; available: {', '.join(_PRESETS)}")
    return _PRESETS[name]


def preset(name: str) -> ScenarioConfig:
    cfg, _ = _lookup(name)
    return dataclasses.replace(cfg, out_dir=str(Path("results") / name))


def check_config(cfg: ScenarioConfig, given: dict) -> None:
    """Reject what the plan of preset ``cfg.name`` would ignore or mislabel;
    ``given`` holds the fields that flags or a config file set.  A swept
    strength takes the values of ``STRENGTH_GRID``, so no config sets it."""
    base, plan = _lookup(cfg.name)
    if plan.kinds and ("disorder" in given or cfg.disorder is not base.disorder):
        raise ValueError(f"{cfg.name} always evolves {'/'.join(k.value for k in plan.kinds)} disorder; drop 'disorder'")
    kinds = plan.kinds or (cfg.disorder,)
    # the strength fields the run's fields read, the swept one set by the sweep and so not read from cfg
    phi_dynamic = 0.0 if plan.sweep == "phi_dynamic" else cfg.phi_dynamic
    read = {label for kind in kinds for label in strength_fields(kind, phi_dynamic).values()} - {plan.sweep}
    for key in ("phi_max", "phi_dynamic"):
        if key not in read and (key in given or getattr(cfg, key) != getattr(base, key)):
            evolved = "/".join(k.value for k in kinds)
            why = "its sweep sets it" if key == plan.sweep else f"{evolved} disorder does not read it"
            raise ValueError(f"{cfg.name} ignores {key} ({why}); drop it")


# Joint-map fits take (marginal, positions, center), grid fits one series.
# The lambdas look the fit functions up when called, not at import.
_FITS = {
    "power_law": lambda series: fit_power_law(series),
    "semilog_parabola": lambda marg, positions, center: fit_gaussian_semilog(marg, positions),
    "exponential_wing": lambda marg, positions, center: fit_exponential_decay(marg, positions, center),
}


def _fit(name: str, *data) -> dict:
    try:
        return _FITS[name](*data)
    except FitError as exc:
        return {"error": str(exc)}


def _mobility_edge(cfg: ScenarioConfig, table: Table) -> dict:
    """First swept strength at which each symmetry's variance beats the classical baseline."""
    baseline = classical_baseline(cfg.steps)
    crossings: dict[str, float | None] = {sym.value: None for sym in resolved_symmetries(cfg)}
    swept = next(iter(table.columns.values()))
    for value, sym, var in zip(swept, table.columns["symmetry"], table.columns["var_mean"]):
        if crossings[sym] is None and var > baseline:
            crossings[sym] = value
    return {
        "classical_baseline": baseline,
        "phi_static": float(cfg.phi_max),  # the static strength of the combined kind
        "grid": list(STRENGTH_GRID),
        "first_crossing": crossings,
    }


_DOCS = {"mobility_edge": _mobility_edge}


def _run_joints(cfg: ScenarioConfig, plan: Plan, n_jobs: int) -> tuple[list[Table], dict]:
    """Averaged joint maps and marginal at the final step; returns (tables, fits)."""
    joints, marg, positions = ensemble_average_joints(cfg, n_jobs=n_jobs)
    tables = [
        joint_table("joint_bose" if sym is ExchangeSymmetry.BOSONIC else "joint_fermi", matrix, positions)
        for sym, matrix in joints.items()
    ]
    tables.append(marginal_table("marginal", marg, positions))
    center = 0.5 * sum(cfg.start_sites)
    return tables, {name: _fit(name, marg, positions, center) for name in plan.fits}


def _run_grid(cfg: ScenarioConfig, plan: Plan, kinds: tuple, n_jobs: int) -> tuple[list[Table], dict]:
    """One row per kind x sweep value x symmetry x step; returns (tables, fits)."""
    observable, swept = plan.observable, plan.sweep
    eval_steps = [cfg.steps] if swept else list(range(cfg.steps + 1))
    values = STRENGTH_GRID if swept else (None,)
    columns: dict[str, list] = {key: [] for key in plan.keys + plan.stats}
    fits: dict[str, dict] = {}
    for kind in kinds:
        # one config per sweep value; all of a kind's values run as one ensemble, whose chunks may cut across them
        base = dataclasses.replace(cfg, disorder=kind)
        cfgs = [dataclasses.replace(base, **({swept: value} if swept else {})) for value in values]
        runs = ensemble_run(cfgs, observable, eval_steps, n_jobs)
        for value, series in zip(values, runs):
            for sym, s in series.items():  # in the order of resolved_symmetries(cfg)
                n = len(s.steps)
                point = {plan.keys[0]: s.steps.tolist() if value is None else [float(value)] * n,
                         "kind": [kind.value] * n, "symmetry": [sym.value] * n,
                         plan.stats[0]: s.mean.tolist(), plan.stats[1]: s.std_dev.tolist()}
                for key, column in columns.items():
                    column.extend(point[key])
                for name in plan.fits:  # one fit per series
                    fits[f"{kind.value}_{sym.value}"] = _fit(name, s)
    tables = [Table(plan.table, columns)]
    if observable == "variance":
        tables.append(Table("classical_baseline",
                            {"step": eval_steps, "variance": [classical_baseline(t) for t in eval_steps]}))
    return tables, fits


def run_scenario(cfg: ScenarioConfig, n_jobs: int = 1) -> RunManifest:
    """Execute one scenario: evolve, measure, fit, and write all outputs.

    Emits the plan's tables as CSV, any fit/diagnostic documents as JSON,
    and a ``manifest.json`` with the SHA-256 digest of the bytes each writer
    wrote.  Identical (config, seed) produce byte-identical data files.
    """
    check_config(cfg, given={})
    _, plan = _lookup(cfg.name)
    kinds = plan.kinds or (cfg.disorder,)
    start = time.perf_counter()
    if plan.table:
        tables, fits = _run_grid(cfg, plan, kinds, n_jobs)
    else:
        tables, fits = _run_joints(cfg, plan, n_jobs)
    docs = {"fits": fits} if fits else {}
    docs.update({name: _DOCS[name](cfg, tables[0]) for name in plan.docs})
    out_dir = Path(cfg.out_dir)
    files = {path.name: digest for path, digest in emit_results(tables, out_dir).items()}
    files.update({f"{stem}.json": write_json(doc, out_dir / f"{stem}.json") for stem, doc in docs.items()})
    manifest = RunManifest(
        scenario=dataclasses.asdict(cfg),
        kinds=[k.value for k in kinds],
        artifact_version=__version__,
        generator=GENERATOR_ID,
        base_seed=cfg.seed,
        duration_seconds=time.perf_counter() - start,
        files=files,
    )
    write_json(dataclasses.asdict(manifest), out_dir / "manifest.json")
    return manifest
