import dataclasses
import tracemalloc
from functools import partial

import numpy as np
import pytest

from dtqw import observables
from dtqw.cli import main
from dtqw.config import ScenarioConfig
from dtqw.core import COIN_L, COIN_R, delta_state, evolve, lattice_for
from dtqw.disorder import DisorderKind, FieldBatch, sample_phase_field
from dtqw.observables import (
    ObservableSeries,
    classical_baseline,
    ensemble_average_joints,
    ensemble_run,
    joint_entropy,
    mutual_information,
    variance_xm,
)
from dtqw.scenarios import preset
from dtqw.two_particle import ExchangeSymmetry, JointBuilder, marginal_positions
from mode_reference import aggregate_to_positions, joint_mode_distribution

BOS = ExchangeSymmetry.BOSONIC

# Frozen against the path-sum pipeline: 3-step ordered walk from (0,L),(0,R),
# symmetrized joints aggregated to positions (see test_matches_pathsum_pipeline).
ENTROPY_3STEP_BOSONIC = 3.4834585933443485
VARIANCE_3STEP = {"bosonic": 7.5, "fermionic": 3.5}


def three_step_joint(sym):
    """Position-level joint of the 3-step ordered walk and the signed positions of its rows."""
    steps = 3
    n, o = lattice_for(steps, (0, 0))
    fld = FieldBatch([sample_phase_field(DisorderKind.ORDERED, steps=steps, n_sites=n, origin=o)])
    a = evolve(delta_state(n, o, 0, COIN_L), steps, fld)
    b = evolve(delta_state(n, o, 0, COIN_R), steps, fld)
    return aggregate_to_positions(joint_mode_distribution(a, b, sym)), np.arange(n) - o


def test_variance_of_point_mass_is_zero():
    m = np.zeros((5, 5))
    m[1, 3] = 0.5
    m[3, 1] = 0.5
    assert variance_xm(m, np.arange(5)) == pytest.approx(0.0, abs=1e-12)


def test_variance_two_point_hand_value():
    # mass 1/2 on x_M=1 and 1/2 on x_M=5: E=3, E2=13, Var=4
    m = np.zeros((4, 4))
    m[0, 1] = m[1, 0] = 0.25
    m[2, 3] = m[3, 2] = 0.25
    assert variance_xm(m, np.arange(4)) == pytest.approx(4.0)


def test_variance_uses_signed_positions():
    m = np.zeros((3, 3))
    m[0, 0] = 0.5
    m[2, 2] = 0.5
    # positions -1, 0, 1: x_M is -2 or +2 with equal mass
    assert variance_xm(m, np.array([-1, 0, 1])) == pytest.approx(4.0)


def test_three_step_variances_match_pathsum_oracle():
    for sym in ExchangeSymmetry:
        assert variance_xm(*three_step_joint(sym)) == pytest.approx(
            VARIANCE_3STEP[sym.value], abs=1e-12
        )


def test_classical_baseline():
    assert classical_baseline(0) == 0.0
    assert classical_baseline(1) == 2.0
    assert classical_baseline(100) == 200.0
    with pytest.raises(ValueError):
        classical_baseline(-1)


def test_entropy_of_delta_is_zero():
    m = np.zeros((4, 4))
    m[2, 2] = 1.0
    assert joint_entropy(m) == 0.0


def test_entropy_of_uniform_square():
    k = 8
    m = np.full((k, k), 1.0 / k**2)
    assert joint_entropy(m) == pytest.approx(2 * np.log2(k))


def test_three_step_bosonic_entropy_matches_frozen_oracle_value():
    assert joint_entropy(three_step_joint(BOS)[0]) == pytest.approx(
        ENTROPY_3STEP_BOSONIC, abs=1e-12
    )


def test_mutual_information_of_product_joint_is_zero():
    p = np.array([0.1, 0.2, 0.3, 0.4])
    assert mutual_information(np.outer(p, p)) == pytest.approx(0.0, abs=1e-12)


def test_mutual_information_of_uniform_diagonal():
    k = 16
    assert mutual_information(np.eye(k) / k) == pytest.approx(np.log2(k))


def test_mutual_information_bounded_by_marginal_entropy():
    rng = np.random.default_rng(2)
    m = rng.random((9, 9))
    m = 0.5 * (m + m.T)
    m /= m.sum()
    h_x = -np.sum(m.sum(1) * np.log2(m.sum(1)))
    assert -1e-12 <= mutual_information(m) <= h_x + 1e-12


def test_entropy_and_mi_invariant_under_relabeling():
    rng = np.random.default_rng(7)
    m = rng.random((11, 11))
    m = 0.5 * (m + m.T)
    m /= m.sum()
    perm = rng.permutation(11)
    relabeled = m[np.ix_(perm, perm)]
    assert joint_entropy(relabeled) == pytest.approx(joint_entropy(m), abs=1e-12)
    assert mutual_information(relabeled) == pytest.approx(mutual_information(m), abs=1e-12)


def test_product_joint_variance_is_sum_of_single_variances():
    steps = 12
    n, o = lattice_for(steps, (0, 0))
    fld = sample_phase_field(DisorderKind.STATIC, phi_max=np.pi, steps=steps, n_sites=n, origin=o, seed=40)
    psi_a = evolve(delta_state(n, o, 0, COIN_L), steps, FieldBatch([fld]))
    psi_b = evolve(delta_state(n, o, 0, COIN_R), steps, FieldBatch([fld]))
    x = (np.arange(n) - o).astype(float)

    def prob(state):
        return np.abs(state[0]) ** 2 + np.abs(state[1]) ** 2

    def single_var(state):
        p = prob(state)
        return float((x * x) @ p - (x @ p) ** 2)

    # distinguishable particles: the symmetrized product, no interference term
    k = np.outer(prob(psi_a), prob(psi_b))
    joint = 0.5 * (k + k.T)
    assert variance_xm(joint, np.arange(n) - o) == pytest.approx(single_var(psi_a) + single_var(psi_b), abs=1e-10)


OBS = ("variance", "entropy")


def ordered_cfg(**kw):
    base = dict(name="t", steps=8, disorder=DisorderKind.ORDERED, configs=5, seed=0, symmetry="both")
    base.update(kw)
    return ScenarioConfig(**base)


def test_ordered_ensemble_has_zero_spread():
    series = ensemble_run(ordered_cfg(), OBS)
    for s in series.values():
        np.testing.assert_array_equal(s.std_dev, np.zeros_like(s.std_dev))
        assert s.configs == 5


def test_ensemble_run_is_deterministic():
    cfg = ordered_cfg(disorder=DisorderKind.FLUCTUATING, phi_max=np.pi, configs=4, seed=3)
    a = ensemble_run(cfg, OBS)
    b = ensemble_run(cfg, OBS)
    for key in a:
        np.testing.assert_array_equal(a[key].mean, b[key].mean)
        np.testing.assert_array_equal(a[key].std_dev, b[key].std_dev)


def test_parallel_matches_serial_bitwise():
    cfg = ordered_cfg(disorder=DisorderKind.STATIC, phi_max=np.pi, configs=4, seed=8, steps=10)
    serial = ensemble_run(cfg, OBS, n_jobs=1)
    parallel = ensemble_run(cfg, OBS, n_jobs=2)
    for key in serial:
        np.testing.assert_array_equal(serial[key].mean, parallel[key].mean)
        np.testing.assert_array_equal(serial[key].std_dev, parallel[key].std_dev)


def test_eval_steps_subset():
    cfg = ordered_cfg(configs=1, steps=10)
    series = ensemble_run(cfg, ("variance",), eval_steps=[0, 5, 10])
    assert set(series) == {("variance", "bosonic"), ("variance", "fermionic")}
    s = series[("variance", "bosonic")]
    np.testing.assert_array_equal(s.steps, [0, 5, 10])
    assert s.mean[1] > 0


def test_eval_steps_out_of_range_rejected():
    with pytest.raises(ValueError):
        ensemble_run(ordered_cfg(), OBS, eval_steps=[99])


@pytest.mark.parametrize("eval_steps", [[], [2.7], [True]], ids=["empty", "float", "bool"])
def test_malformed_eval_steps_rejected(eval_steps):
    with pytest.raises(ValueError, match="eval_steps"):
        ensemble_run(ordered_cfg(), OBS, eval_steps=eval_steps)


def test_invalid_configs_rejected():
    with pytest.raises(ValueError):
        ensemble_run(ordered_cfg(configs=0), OBS)


@pytest.mark.parametrize("observables", [(), ("variance", "purity"), "variance"], ids=["none", "unknown", "string"])
def test_unknown_observable_rejected(observables):
    with pytest.raises(ValueError, match="observables"):
        ensemble_run(ordered_cfg(), observables)


@pytest.mark.parametrize("runner", [partial(ensemble_run, observables=OBS), ensemble_average_joints],
                         ids=["ensemble_run", "ensemble_average_joints"])
def test_fewer_than_one_job_rejected(runner):
    with pytest.raises(ValueError, match="n_jobs"):
        runner(ordered_cfg(), n_jobs=0)


def test_static_variance_plateaus():
    cfg = ScenarioConfig(
        "plateau", steps=100, disorder=DisorderKind.STATIC, phi_max=np.pi,
        configs=100, seed=1000, symmetry="bosonic",
    )
    series = ensemble_run(cfg, ("variance",), eval_steps=[20, 100])
    s = series[("variance", "bosonic")]
    assert s.mean[1] / s.mean[0] < 3.0


def test_ensemble_average_joints_normalized():
    cfg = ordered_cfg(disorder=DisorderKind.DYNAMIC, phi_max=np.pi, configs=3, seed=5, steps=12)
    joints, marg, positions = ensemble_average_joints(cfg)
    for joint in joints.values():
        assert joint.sum() == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(joint, joint.T, atol=1e-15)
    assert marg.sum() == pytest.approx(1.0, abs=1e-12)
    assert len(positions) == len(marg)
    np.testing.assert_allclose(
        joints[BOS].sum(axis=1), marg, atol=1e-12
    )


def test_observable_series_validates_lengths():
    with pytest.raises(ValueError):
        ObservableSeries("x", np.arange(3), np.zeros(2), np.zeros(3), 1)


def _amplitudes(cfg, amps, t):
    return amps.copy()


@pytest.mark.parametrize("kind", list(DisorderKind), ids=lambda k: k.value)
@pytest.mark.parametrize("budget, n_jobs, chunks", [(None, 1, 1), (None, 2, 2), (1, 1, 7)],
                         ids=["one-chunk", "jobs-share", "tiny-budget"])
def test_chunked_batches_equal_per_walker_evolve_bitwise(monkeypatch, kind, budget, n_jobs, chunks):
    if budget is not None:
        monkeypatch.setattr(observables, "_CHUNK_BYTES", budget)
    cfg = ScenarioConfig("t", steps=9, disorder=kind, phi_max=2.5, phi_static=np.pi, phi_dynamic=1.5,
                         configs=7, seed=4)
    members = [(None, cfg.seed + i) for i in range(cfg.configs)]
    tasks = observables._chunk_tasks(cfg, None, members, [cfg.steps], _amplitudes, 0, n_jobs)
    assert len(tasks) == chunks
    batched = [pair for task in tasks for pair in observables._run_chunk(task)[0]]
    n, o = lattice_for(cfg.steps)
    for i, (amps_a, amps_b) in enumerate(batched):
        fld = observables._field_for(cfg, cfg.seed + i, n, o)
        pair = evolve(delta_state(n, o, 0, COIN_L), cfg.steps, FieldBatch([fld])), \
            evolve(delta_state(n, o, 0, COIN_R), cfg.steps, FieldBatch([fld]))
        assert np.array_equal(amps_a, pair[0]) and np.array_equal(amps_b, pair[1])


def _runs(monkeypatch, fn, cfg):
    """``fn(cfg)`` as one chunk, as one chunk per configuration, and in two worker processes."""
    out = [fn(cfg), fn(cfg, n_jobs=2)]
    with monkeypatch.context() as patch:
        patch.setattr(observables, "_CHUNK_BYTES", 1)
        out.append(fn(cfg))
    return out


@pytest.mark.parametrize("kind", [DisorderKind.STATIC, DisorderKind.DYNAMIC, DisorderKind.COMBINED],
                         ids=lambda k: k.value)
@pytest.mark.parametrize("configs", [3, 12])  # numpy sums more than 8 terms pairwise along contiguous axes
def test_ensemble_run_equals_stacked_single_configuration_runs(monkeypatch, kind, configs):
    # A configuration's numbers do not depend on batch size, chunking or n_jobs.
    seed = 11
    cfg = ordered_cfg(disorder=kind, phi_max=2.0, phi_static=np.pi, configs=configs, seed=seed, steps=9)
    run = partial(ensemble_run, observables=OBS)
    singles = [run(dataclasses.replace(cfg, configs=1, seed=seed + i)) for i in range(configs)]
    for series in _runs(monkeypatch, run, cfg):
        for key, s in series.items():
            values = np.stack([one[key].mean for one in singles])
            mean, std = values.mean(axis=0), values.std(axis=0)
            identical = values.max(axis=0) == values.min(axis=0)
            mean[identical] = values[0, identical]
            std[identical] = 0.0
            assert np.array_equal(s.mean, mean)
            assert np.array_equal(s.std_dev, std)


@pytest.mark.parametrize("kind, sweep", [(DisorderKind.STATIC, "phi_max"), (DisorderKind.COMBINED, "phi_dynamic")],
                         ids=["static", "combined"])
def test_each_sweep_value_equals_its_run_alone(monkeypatch, kind, sweep):
    # 3 values x 3 configurations share chunks: one chunk, 5 + 4 members for two jobs (cut inside the second
    # value), and one member per chunk
    cfg = ordered_cfg(disorder=kind, phi_static=np.pi, configs=3, seed=6, steps=9, sweep_values=(0.0, 1.0, 2.5))
    alone = [ensemble_run(dataclasses.replace(cfg, **{sweep: value}), OBS, eval_steps=[9, 4])
             for value in cfg.sweep_values]
    for runs in _runs(monkeypatch, partial(ensemble_run, observables=OBS, eval_steps=[9, 4], sweep=sweep), cfg):
        assert len(runs) == len(alone)
        for run, one in zip(runs, alone):
            assert run.keys() == one.keys()
            for key, s in run.items():
                assert np.array_equal(s.steps, one[key].steps) and s.configs == one[key].configs == 3
                assert np.array_equal(s.mean, one[key].mean)
                assert np.array_equal(s.std_dev, one[key].std_dev)


@pytest.mark.parametrize("sweep, values", [("phi_mux", (1.0,)), ("seed", (1.0,)), ("phi_max", ())],
                         ids=["unknown", "not-a-strength", "no-values"])
def test_bad_sweep_rejected(sweep, values):
    with pytest.raises(ValueError, match="sweep"):
        ensemble_run(ordered_cfg(sweep_values=values), OBS, sweep=sweep)


def test_a_preset_scale_chunk_stays_within_its_memory_budget():
    # One fig7 chunk at t = 100 (36 combined configurations), traced on its second run, when the joint
    # builder's scratch (about 1 MiB, kept for every later chunk) exists.  The packed light-cone phases and
    # the walker states fill the budget next to the one field being packed; the rest is step and
    # measurement temporaries.  A stacked second copy of whole tables peaked at 1.72 budgets.
    cfg = dataclasses.replace(preset("fig7"), phi_dynamic=np.pi)
    measure = partial(observables._measure_series, ("variance",), JointBuilder())
    members = [(None, cfg.seed + i) for i in range(cfg.configs)]
    task = observables._chunk_tasks(cfg, None, members, [cfg.steps], measure, 2, 1)[0]
    assert len(task[2]) == 36
    observables._run_chunk(task)
    tracemalloc.start()
    try:
        observables._run_chunk(task)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * observables._CHUNK_BYTES


def test_a_preset_scale_chunk_measured_at_several_steps_stays_within_its_memory_budget():
    # One fig5 combined chunk at t = 100 measured at 11 steps (36 configurations): the walk steps in one buffer
    # pair from stop to stop.  When evolve copied the state it was handed at every stop, three state buffers
    # coexisted, and 36 configurations with two counted peaked at 1.16 budgets.
    cfg = dataclasses.replace(preset("fig5"), disorder=DisorderKind.COMBINED, phi_static=np.pi, phi_dynamic=np.pi)
    measure = partial(observables._measure_series, ("variance",), JointBuilder())
    members = [(None, cfg.seed + i) for i in range(cfg.configs)]
    stops = list(range(0, cfg.steps + 1, 10))
    task = observables._chunk_tasks(cfg, None, members, stops, measure, 2 * len(stops), 1)[0]
    assert len(task[2]) == 36
    observables._run_chunk(task)
    tracemalloc.start()
    try:
        observables._run_chunk(task)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * observables._CHUNK_BYTES


def test_a_preset_scale_joint_map_chunk_stays_within_its_memory_budget():
    # One fig3 chunk at t = 50 (71 static configurations), traced on its second run: each configuration keeps
    # its two joints on the 51 x 51 parity quarter, where whole 103 x 103 matrices fit 22 configurations.
    cfg = preset("fig3")
    n, _ = lattice_for(cfg.steps)
    lo, _, stride = observables._reach(cfg, cfg.steps)
    cells = slice(lo % stride, None, stride)
    s = len(range(n)[cells])
    measure = partial(observables._measure_joints, JointBuilder(), cells)
    members = [(None, cfg.seed + i) for i in range(cfg.configs)]
    tasks = observables._chunk_tasks(cfg, None, members, [cfg.steps], measure, 2 * s * s + n, 1)
    assert (s, len(tasks), len(tasks[0][2])) == (51, 2, 71)
    observables._run_chunk(tasks[0])
    tracemalloc.start()
    try:
        observables._run_chunk(tasks[0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * observables._CHUNK_BYTES


def layout(matrix):
    return matrix.flags.c_contiguous, matrix.flags.f_contiguous


@pytest.mark.parametrize("steps", [12, 33], ids=["C-order", "F-order"])  # lattices of 27/28 and 69/70 sites
@pytest.mark.parametrize("start_b", [(0, "R"), (1, "R")], ids=["one-parity", "two-parities"])
def test_average_joints_equal_ordered_sums_of_mode_reference_matrices(monkeypatch, steps, start_b):
    cfg = ordered_cfg(disorder=DisorderKind.COMBINED, phi_static=np.pi, phi_dynamic=1.0, configs=4, seed=9,
                      steps=steps, start_b=start_b)
    n, o = lattice_for(cfg.steps, cfg.start_sites)
    sums, marg = {sym: np.zeros((n, n)) for sym in ExchangeSymmetry}, np.zeros(n)
    for i in range(cfg.configs):
        fld = FieldBatch([observables._field_for(cfg, cfg.seed + i, n, o)])
        a = evolve(delta_state(n, o, 0, COIN_L), cfg.steps, fld)
        b = evolve(delta_state(n, o, start_b[0], COIN_R), cfg.steps, fld)
        for sym, acc in sums.items():
            acc += aggregate_to_positions(joint_mode_distribution(a, b, sym))
        marg += marginal_positions(a, b)
    for joints, margin, positions in _runs(monkeypatch, ensemble_average_joints, cfg):
        assert joints.keys() == sums.keys()
        for sym, joint in joints.items():
            want = sums[sym] / cfg.configs
            assert np.array_equal(joint, want) and layout(joint) == layout(want)
        assert np.array_equal(margin, marg / cfg.configs)
        assert np.array_equal(positions, np.arange(n) - o)


@pytest.mark.parametrize("start_b", [(0, "R"), (1, "R")], ids=["one-parity", "two-parities"])
def test_series_values_equal_the_observables_of_mode_reference_joints(start_b):
    # light cones of 21 to 81 sites, on both sides of F_ORDER_SITES; one configuration, so each mean is its value
    cfg = ordered_cfg(disorder=DisorderKind.COMBINED, phi_static=np.pi, phi_dynamic=1.0, configs=1, seed=4,
                      steps=40, start_b=start_b)
    stops = [10, 30, 31, 32, 40]
    series = ensemble_run(cfg, ("variance", "entropy", "mutual_information"), eval_steps=stops)
    n, o = lattice_for(cfg.steps, cfg.start_sites)
    fld = FieldBatch([observables._field_for(cfg, cfg.seed, n, o)])
    for i, t in enumerate(stops):
        a = evolve(delta_state(n, o, 0, COIN_L), t, fld)
        b = evolve(delta_state(n, o, start_b[0], COIN_R), t, fld)
        cone = slice(o - t, o + start_b[0] + t + 1)
        for sym in ExchangeSymmetry:
            ref = aggregate_to_positions(joint_mode_distribution(a[:, cone], b[:, cone], sym))
            assert series[("variance", sym.value)].mean[i] == variance_xm(ref, np.arange(n)[cone] - o)
            assert series[("entropy", sym.value)].mean[i] == joint_entropy(ref)
            assert series[("mutual_information", sym.value)].mean[i] == mutual_information(ref)


def test_average_joints_equal_ordered_sums_of_single_configuration_runs(monkeypatch):
    seed = 5
    cfg = ordered_cfg(disorder=DisorderKind.COMBINED, phi_static=np.pi, phi_dynamic=1.0, configs=3, seed=seed,
                      steps=8)
    singles = [ensemble_average_joints(dataclasses.replace(cfg, configs=1, seed=seed + i)) for i in range(3)]
    for joints, marg, positions in _runs(monkeypatch, ensemble_average_joints, cfg):
        for sym, joint in joints.items():
            acc = np.zeros_like(joint)
            for one in singles:
                acc += one[0][sym]
            assert np.array_equal(joint, acc / 3)
        acc = np.zeros_like(marg)
        for one in singles:
            acc += one[1]
        assert np.array_equal(marg, acc / 3)
        assert np.array_equal(positions, singles[0][2])


def test_eval_steps_in_any_order_with_repeats():
    cfg = ordered_cfg(disorder=DisorderKind.STATIC, phi_max=np.pi, configs=2, steps=6, seed=2)
    full = ensemble_run(cfg, OBS)
    picked = ensemble_run(cfg, OBS, eval_steps=[6, 2, 2, 0])
    for key, s in picked.items():
        np.testing.assert_array_equal(s.steps, [6, 2, 2, 0])
        assert np.array_equal(s.mean, full[key].mean[[6, 2, 2, 0]])
        assert np.array_equal(s.std_dev, full[key].std_dev[[6, 2, 2, 0]])


@pytest.mark.parametrize("runner", [partial(ensemble_run, observables=OBS), ensemble_average_joints],
                         ids=["ensemble_run", "ensemble_average_joints"])
def test_nonorthogonal_walkers_rejected(monkeypatch, runner):
    # both walkers start on coin L, past the config check that their starts differ
    monkeypatch.setattr(observables, "COIN_NAMES", {"L": COIN_L, "R": COIN_L})
    with pytest.raises(ValueError, match="orthogonal"):
        runner(ordered_cfg())


def test_nonorthogonal_walkers_fail_the_cli_run(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(observables, "COIN_NAMES", {"L": COIN_L, "R": COIN_L})
    assert main(["--scenario", "fig2", "--steps", "3", "--out", str(tmp_path)]) == 2
    assert "orthogonal" in capsys.readouterr().err


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records each pool's size and chunk count, and maps in this process."""

    def __init__(self, made, max_workers):
        self.made, self.max_workers = made, max_workers

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        tasks = list(tasks)
        self.made.append((self.max_workers, len(tasks)))
        return map(fn, tasks)


# pool = (max_workers, chunks) for 7 configurations: chunks are sized for the capped worker count, and a budget
# of one byte forces one configuration per chunk
@pytest.mark.parametrize("n_jobs, cpus, budget, pool", [(64, 2, None, (2, 2)), (64, 64, None, (7, 7)),
                                                        (4, 64, None, (4, 4)), (3, 64, 1, (3, 7))],
                         ids=["cpus", "chunks", "n_jobs", "tiny-budget"])
def test_pool_is_capped_at_jobs_chunks_and_cpus(monkeypatch, n_jobs, cpus, budget, pool):
    cfg = ordered_cfg(disorder=DisorderKind.STATIC, phi_max=np.pi, configs=7, seed=8)
    serial = ensemble_run(cfg, OBS)
    made = []
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", partial(RecordingPool, made))
    monkeypatch.setattr(observables, "_usable_cpus", lambda: cpus)
    if budget is not None:
        monkeypatch.setattr(observables, "_CHUNK_BYTES", budget)
    pooled = ensemble_run(cfg, OBS, n_jobs=n_jobs)
    assert made == [pool]
    for key in serial:
        assert np.array_equal(serial[key].mean, pooled[key].mean)
        assert np.array_equal(serial[key].std_dev, pooled[key].std_dev)


def test_one_configuration_opens_no_pool(monkeypatch, tmp_path):
    made = []
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", partial(RecordingPool, made))
    assert main(["--scenario", "fig2", "--steps", "3", "--jobs", "64", "--out", str(tmp_path)]) == 0
    assert made == []
