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
x symmetry x step (fig5-fig9, whose disorder kinds are fixed).  A config that
sweeps a strength is measured at its final step only.

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
from .disorder import GENERATOR_ID, DisorderKind
from .fitting import FitError, fit_exponential_decay, fit_gaussian_semilog, fit_power_law
from .observables import classical_baseline, ensemble_average_joints, ensemble_run, resolved_symmetries
from .output import Table, emit_results, joint_table, marginal_table, sha256_file, write_json
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
    files: dict[str, str]  # file name -> sha256 of contents

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclass(frozen=True)
class Plan:
    """What a preset evolves and emits; nothing here is user-settable.

    Without a ``table`` the preset writes averaged joint maps.  With one it
    writes a grid table whose columns are ``keys + stats``; the first key
    holds the step, or the swept strength.  ``kinds`` fixes the disorder
    kinds evolved, in order (empty: the config's own ``disorder``).  ``fits``
    and ``docs`` name the fits and derived documents to emit.
    """

    table: str | None = None
    keys: tuple[str, ...] = ()
    stats: tuple[str, ...] = ()
    kinds: tuple[DisorderKind, ...] = ()
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
        "fluct": (ScenarioConfig("fluct", steps=50, disorder=K.COMBINED, phi_static=pi, phi_dynamic=pi,
                                 configs=100, seed=450), Plan(fits=wings)),
        "fig5": (ScenarioConfig("fig5", steps=100, phi_max=pi, configs=100, seed=500),
                 Plan("variance_vs_t", series, var, (K.ORDERED, K.DYNAMIC, K.FLUCTUATING, K.COMBINED, K.STATIC),
                      fits=("power_law",))),
        "fig6": (ScenarioConfig("fig6", steps=100, configs=100, seed=600,
                                sweep_parameter="phi_max", sweep_values=STRENGTH_GRID),
                 Plan("variance_vs_phi", ("phi", "kind", "symmetry"), var, (K.STATIC, K.DYNAMIC))),
        "fig7": (ScenarioConfig("fig7", steps=100, disorder=K.COMBINED, phi_static=pi, configs=100, seed=700,
                                sweep_parameter="phi_dynamic", sweep_values=STRENGTH_GRID),
                 Plan("variance_vs_phi_dynamic", ("phi_dynamic", "symmetry"), var, (K.COMBINED,),
                      docs=("mobility_edge",))),
        "fig8": (ScenarioConfig("fig8", steps=100, phi_max=pi, configs=50, seed=800, observables=("entropy",)),
                 Plan("entropy_vs_t", series, info, info_kinds)),
        "fig9": (ScenarioConfig("fig9", steps=100, phi_max=pi, configs=50, seed=900,
                                observables=("mutual_information",)),
                 Plan("mutual_information_vs_t", series, info, info_kinds)),
    }


_PRESETS = _preset_table()


def preset_names() -> tuple[str, ...]:
    return tuple(_PRESETS)


def _lookup(name: str) -> tuple[ScenarioConfig, Plan]:
    if name not in _PRESETS:
        raise ValueError(f"unknown scenario {name!r}; available: {', '.join(_PRESETS)}")
    return _PRESETS[name]


def preset(name: str) -> ScenarioConfig:
    cfg, _ = _lookup(name)
    return dataclasses.replace(cfg, out_dir=str(Path("results") / name))


def check_config(cfg: ScenarioConfig, given: dict) -> None:
    """Reject what the plan of preset ``cfg.name`` would ignore or mislabel;
    ``given`` holds the fields that flags or a config file set."""
    base, plan = _lookup(cfg.name)
    if plan.kinds and ("disorder" in given or cfg.disorder is not base.disorder):
        raise ValueError(f"{cfg.name} always evolves {'/'.join(k.value for k in plan.kinds)} disorder; drop 'disorder'")
    for key in ("observables", "sweep_parameter") + (() if base.sweep_parameter else ("sweep_values",)):
        if getattr(cfg, key) != getattr(base, key):
            raise ValueError(f"{cfg.name} fixes {key} to {getattr(base, key)!r}")


# Joint-map fits take (marginal, positions, center), grid fits one series.
# The lambdas look the fit functions up when called, not at import.
_FITS = {
    "power_law": lambda series: fit_power_law(series),
    "semilog_parabola": lambda marg, positions, center: fit_gaussian_semilog(marg, positions),
    "exponential_wing": lambda marg, positions, center: fit_exponential_decay(marg, positions, center),
}


def _fit(name: str, *data) -> dict:
    try:
        return _FITS[name](*data).to_dict()
    except FitError as exc:
        return {"error": str(exc)}


def _mobility_edge(cfg: ScenarioConfig, table: Table) -> dict:
    """First swept strength at which each symmetry's variance beats the classical baseline."""
    baseline = classical_baseline(cfg.steps)
    crossings: dict[str, float | None] = {sym.value: None for sym in resolved_symmetries(cfg)}
    for row in table.rows:
        point = dict(zip(table.columns, row))
        if crossings[point["symmetry"]] is None and point["var_mean"] > baseline:
            crossings[point["symmetry"]] = row[0]
    return {
        "classical_baseline": baseline,
        "phi_static": cfg.resolved_phi_static(),
        "grid": list(cfg.sweep_values),
        "first_crossing": crossings,
    }


_DOCS = {"mobility_edge": _mobility_edge}


def _run_joints(cfg: ScenarioConfig, plan: Plan, n_jobs: int) -> tuple[list[Table], dict]:
    """Averaged joint maps and marginal at the final step; returns (tables, fits)."""
    joints, marg, positions = ensemble_average_joints(cfg, n_jobs=n_jobs)
    tables = [
        joint_table("joint_bose" if sym is ExchangeSymmetry.BOSONIC else "joint_fermi", joint.matrix, positions)
        for sym, joint in joints.items()
    ]
    tables.append(marginal_table("marginal", marg, positions))
    center = 0.5 * sum(cfg.start_sites)
    return tables, {name: _fit(name, marg, positions, center) for name in plan.fits}


def _run_grid(cfg: ScenarioConfig, plan: Plan, kinds: tuple, n_jobs: int) -> tuple[list[Table], dict]:
    """One row per kind x sweep value x symmetry x step; returns (tables, fits)."""
    observable = cfg.observables[0]
    swept = cfg.sweep_parameter
    eval_steps = [cfg.steps] if swept else list(range(cfg.steps + 1))
    table = Table(plan.table, plan.keys + plan.stats)
    fits: dict[str, dict] = {}
    for kind in kinds:
        for value in cfg.sweep_values if swept else (None,):
            sub = dataclasses.replace(cfg, disorder=kind, **({swept: value} if swept else {}))
            series = ensemble_run(sub, eval_steps=eval_steps, n_jobs=n_jobs)
            for sym in resolved_symmetries(cfg):
                s = series[(observable, sym.value)]
                for t, m, sd in zip(s.steps, s.mean, s.std_dev):
                    point = {plan.keys[0]: int(t) if value is None else float(value),
                             "kind": kind.value, "symmetry": sym.value}
                    table.rows.append(tuple(point[k] for k in plan.keys) + (float(m), float(sd)))
                for name in plan.fits:  # one fit per series
                    fits[f"{kind.value}_{sym.value}"] = _fit(name, s)
    tables = [table]
    if observable == "variance":
        tables.append(Table("classical_baseline", ("step", "variance"),
                            [(t, classical_baseline(t)) for t in eval_steps]))
    return tables, fits


def run_scenario(cfg: ScenarioConfig, n_jobs: int = 1) -> RunManifest:
    """Execute one scenario: evolve, measure, fit, and write all outputs.

    Emits the plan's tables in ``cfg.format``, any fit/diagnostic documents
    as JSON, and a ``manifest.json`` with SHA-256 digests of every emitted
    file.  Identical (config, seed) produce byte-identical data files.
    """
    cfg.validate()
    check_config(cfg, given={})
    _, plan = _lookup(cfg.name)
    kinds = plan.kinds or (cfg.disorder,)
    start = time.time()
    if plan.table:
        tables, fits = _run_grid(cfg, plan, kinds, n_jobs)
    else:
        tables, fits = _run_joints(cfg, plan, n_jobs)
    docs = {"fits": fits} if fits else {}
    docs.update({name: _DOCS[name](cfg, tables[0]) for name in plan.docs})
    out_dir = Path(cfg.out_dir)
    paths = emit_results(tables, cfg.format, out_dir)
    for stem, doc in docs.items():
        path = out_dir / f"{stem}.json"
        write_json(doc, path)
        paths.append(path)
    manifest = RunManifest(
        scenario=cfg.to_dict(),
        kinds=[k.value for k in kinds],
        artifact_version=__version__,
        generator=GENERATOR_ID,
        base_seed=cfg.seed,
        duration_seconds=time.time() - start,
        files={p.name: sha256_file(p) for p in paths},
    )
    write_json(manifest.to_dict(), out_dir / "manifest.json")
    return manifest
