import dataclasses
import tracemalloc
from functools import partial

import numpy as np
import pytest

from dtqw import observables
from dtqw.cli import main
from dtqw.config import ScenarioConfig
from dtqw.core import COIN_L, COIN_R, delta_state, evolve, lattice_for, light_cone
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
from dtqw.two_particle import ExchangeSymmetry, JointBuilder
from fourier_reference import fourier_walk, fourier_walk_steps
from mode_reference import aggregate_to_positions, joint_mode_distribution, marginal
from velocity_reference import variance_limits

BOS = ExchangeSymmetry.BOSONIC

# Frozen against the path-sum pipeline: 3-step ordered walk from (0,L),(0,R),
# symmetrized joints aggregated to positions (see test_matches_pathsum_pipeline).
ENTROPY_3STEP_BOSONIC = 3.4834585933443485
VARIANCE_3STEP = {"bosonic": 7.5, "fermionic": 3.5}


def three_step_joint(sym):
    """Position-level joint of the 3-step ordered walk and the signed positions of its rows."""
    steps = 3
    n, o = lattice_for(steps, (0, 0))
    fld = FieldBatch([sample_phase_field(DisorderKind.ORDERED, steps=steps, n_sites=n)], (o, o))
    [a] = evolve(delta_state(n, o, 0, COIN_L), [steps], fld)
    [b] = evolve(delta_state(n, o, 0, COIN_R), [steps], fld)
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
    for bad in (-1, 2.5, True):  # 2.5 once gave 5.0
        with pytest.raises(ValueError, match="steps"):
            classical_baseline(bad)


def test_entropy_of_delta_is_zero():
    m = np.zeros((4, 4))
    m[2, 2] = 1.0
    for certain in (m, np.ones((1, 1))):  # +0.0: a -0.0 would be written as "-0"
        assert joint_entropy(certain) == 0.0 and np.copysign(1.0, joint_entropy(certain)) == 1.0


def test_nonzero_entropy_is_the_negated_sum_bit_for_bit():
    p = np.random.default_rng(5).random((7, 7))
    p /= p.sum()
    assert joint_entropy(p) == -float((p * np.log2(p)).sum())


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
    fld = sample_phase_field(DisorderKind.STATIC, phi_max=np.pi, steps=steps, n_sites=n, seed=40)
    [psi_a] = evolve(delta_state(n, o, 0, COIN_L), [steps], FieldBatch([fld], (o,)))
    [psi_b] = evolve(delta_state(n, o, 0, COIN_R), [steps], FieldBatch([fld], (o,)))
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


OBS = "mutual_information"  # reads the builder's quarter and the light cone's joint it is written into
ALL_OBS = ("variance", "entropy", "mutual_information")


def ordered_cfg(**kw):
    base = dict(name="t", steps=8, disorder=DisorderKind.ORDERED, configs=5, seed=0, symmetry="both")
    base.update(kw)
    return ScenarioConfig(**base)


def run_one(cfg, observable=OBS, **kwargs):
    """The series of ``ensemble_run`` on the one config ``cfg``."""
    [series] = ensemble_run([cfg], observable, **kwargs)
    return series


def test_ordered_ensemble_has_zero_spread():
    [series] = ensemble_run([ordered_cfg()], OBS)
    for s in series.values():
        np.testing.assert_array_equal(s.std_dev, np.zeros_like(s.std_dev))


def test_ensemble_run_is_deterministic():
    cfg = ordered_cfg(disorder=DisorderKind.FLUCTUATING, phi_max=np.pi, configs=4, seed=3)
    [a] = ensemble_run([cfg], OBS)
    [b] = ensemble_run([cfg], OBS)
    for key in a:
        np.testing.assert_array_equal(a[key].mean, b[key].mean)
        np.testing.assert_array_equal(a[key].std_dev, b[key].std_dev)


def test_parallel_matches_serial_bitwise():
    cfg = ordered_cfg(disorder=DisorderKind.STATIC, phi_max=np.pi, configs=4, seed=8, steps=10)
    [serial] = ensemble_run([cfg], OBS, n_jobs=1)
    [parallel] = ensemble_run([cfg], OBS, n_jobs=2)
    for key in serial:
        np.testing.assert_array_equal(serial[key].mean, parallel[key].mean)
        np.testing.assert_array_equal(serial[key].std_dev, parallel[key].std_dev)


def test_eval_steps_subset():
    cfg = ordered_cfg(configs=1, steps=10)
    [series] = ensemble_run([cfg], "variance", eval_steps=[0, 5, 10])
    assert list(series) == list(ExchangeSymmetry)  # keyed by symmetry, in the order of ensemble_average_joints
    s = series[BOS]
    np.testing.assert_array_equal(s.steps, [0, 5, 10])
    assert s.mean[1] > 0


def _never_draw(*args, **kwargs):
    pytest.fail("drew a field before the arguments were checked")


def test_eval_steps_out_of_range_rejected(monkeypatch):
    monkeypatch.setattr(observables, "sample_phase_field", _never_draw)
    with pytest.raises(ValueError):
        ensemble_run([ordered_cfg()], OBS, eval_steps=[99])


@pytest.mark.parametrize("eval_steps", [[], [2.7], [True], 4, np.int64(4), np.array(4), [6, 2], [2, 1, 3]],
                         ids=["empty", "float", "bool", "bare-int", "bare-numpy-int", "0-d-array", "descending",
                              "unordered"])  # a bare integer once raised TypeError; unordered steps were sorted
def test_malformed_eval_steps_rejected(monkeypatch, eval_steps):
    monkeypatch.setattr(observables, "sample_phase_field", _never_draw)
    with pytest.raises(ValueError, match="eval_steps"):
        ensemble_run([ordered_cfg()], OBS, eval_steps=eval_steps)


def test_invalid_configs_rejected():
    with pytest.raises(ValueError):
        ensemble_run([ordered_cfg(configs=0)], OBS)


# one name per run: a selection is refused, even of one name
@pytest.mark.parametrize("observable", [("variance",), ["variance"], "", "purity", None],
                         ids=["tuple", "list", "empty", "unknown", "none"])
def test_unknown_observable_rejected(monkeypatch, observable):
    monkeypatch.setattr(observables, "sample_phase_field", _never_draw)
    with pytest.raises(ValueError, match="observable"):
        ensemble_run([ordered_cfg(disorder=DisorderKind.STATIC, phi_max=1.0)], observable)


@pytest.mark.parametrize("n_jobs", [0, 1.5, True, "2"])  # 1.5 and "2" once raised TypeError, True ran one job
@pytest.mark.parametrize("runner", [run_one, ensemble_average_joints], ids=["ensemble_run", "ensemble_average_joints"])
def test_fewer_than_one_job_rejected(runner, n_jobs):
    with pytest.raises(ValueError, match="n_jobs"):
        runner(ordered_cfg(), n_jobs=n_jobs)


def test_static_variance_plateaus():
    cfg = ScenarioConfig(
        "plateau", steps=100, disorder=DisorderKind.STATIC, phi_max=np.pi,
        configs=100, seed=1000, symmetry="bosonic",
    )
    [series] = ensemble_run([cfg], "variance", eval_steps=[20, 100])
    s = series[BOS]
    assert s.mean[1] / s.mean[0] < 3.0


def test_ensemble_average_joints_normalized():
    cfg = ordered_cfg(disorder=DisorderKind.DYNAMIC, phi_max=np.pi, configs=3, seed=5, steps=12)
    joints, marg, positions = ensemble_average_joints(cfg)
    assert len(joints) == 2
    for joint in joints.values():
        assert joint.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.array_equal(joint, joint.T)
        np.testing.assert_allclose(joint.sum(axis=1), marg, atol=1e-12)
    assert marg.sum() == pytest.approx(1.0, abs=1e-12)
    assert len(positions) == len(marg)


def test_observable_series_validates_lengths():
    with pytest.raises(ValueError):
        ObservableSeries(np.arange(3), np.zeros(2), np.zeros(3))


def _amplitudes(cfg, amps, t):
    return amps.copy()


@pytest.mark.parametrize("kind", list(DisorderKind), ids=lambda k: k.value)
@pytest.mark.parametrize("budget, n_jobs, chunks", [(None, 1, 1), (None, 2, 2), (1, 1, 7)],
                         ids=["one-chunk", "jobs-share", "tiny-budget"])
def test_chunked_batches_equal_per_walker_evolve_bitwise(monkeypatch, kind, budget, n_jobs, chunks):
    if budget is not None:
        monkeypatch.setattr(observables, "_CHUNK_BYTES", budget)
    cfg = ScenarioConfig("t", steps=9, disorder=kind, phi_max=2.5, phi_dynamic=1.5, configs=7, seed=4)
    members = [(cfg, cfg.seed + i) for i in range(cfg.configs)]
    tasks = observables._chunk_tasks(members, [cfg.steps], _amplitudes, 0, n_jobs)
    assert len(tasks) == chunks
    batched = [pair for task in tasks for pair in observables._run_chunk(task)[0]]
    n, o = lattice_for(cfg.steps)
    for i, (amps_a, amps_b) in enumerate(batched):
        fld = observables._field_for(cfg, cfg.seed + i, n)
        [alone_a], [alone_b] = (evolve(delta_state(n, o, 0, coin), [cfg.steps], FieldBatch([fld], (o,)))
                                for coin in (COIN_L, COIN_R))
        assert np.array_equal(amps_a, alone_a) and np.array_equal(amps_b, alone_b)


@pytest.mark.parametrize("runner, stops", [(partial(run_one, eval_steps=[2, 2, 4, 6]), [2, 2, 4, 6]),
                                           (ensemble_average_joints, [6])], ids=["series", "joints"])
def test_each_chunk_walks_once_through_its_stops(monkeypatch, runner, stops):
    walks = []

    def counted(initial, stops, field):
        walks.append(list(stops))
        return evolve(initial, stops, field)

    monkeypatch.setattr(observables, "evolve", counted)
    monkeypatch.setattr(observables, "_CHUNK_BYTES", 1)  # one configuration per chunk
    cfg = ordered_cfg(disorder=DisorderKind.STATIC, phi_max=2.0, configs=3, seed=5, steps=6)
    runner(cfg)
    assert walks == [stops] * cfg.configs


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
    cfg = ordered_cfg(disorder=kind, phi_max=2.0, phi_dynamic=np.pi, configs=configs, seed=seed, steps=9)
    singles = [run_one(dataclasses.replace(cfg, configs=1, seed=seed + i)) for i in range(configs)]
    for series in _runs(monkeypatch, run_one, cfg):
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
    # One config per value of a sweep through 0, 3 configurations each, and all share chunks: one chunk, two jobs
    # (4 + 3 static members, the seed-independent value evolving one; 5 + 4 combined, cut inside the second
    # value), and one member per chunk
    cfg = ordered_cfg(disorder=kind, configs=3, seed=6, steps=9)
    cfgs = [dataclasses.replace(cfg, **{sweep: value}) for value in (0.0, 1.0, 2.5)]
    alone = [run_one(one, eval_steps=[4, 9]) for one in cfgs]
    for runs in _runs(monkeypatch, partial(ensemble_run, observable=OBS, eval_steps=[4, 9]), cfgs):
        assert len(runs) == len(alone)
        for run, one in zip(runs, alone):
            assert run.keys() == one.keys()
            for key, s in run.items():
                assert np.array_equal(s.steps, one[key].steps)
                assert np.array_equal(s.mean, one[key].mean)
                assert np.array_equal(s.std_dev, one[key].std_dev)


def _never_evolve(*args):
    pytest.fail("evolved before the configs were checked")


@pytest.mark.parametrize("change", [{"seed": 7}, {"steps": 8}, {"disorder": DisorderKind.DYNAMIC},
                                    {"symmetry": "bosonic"}, {"configs": 3}],
                         ids=["seed", "steps", "disorder", "symmetry", "configs"])
def test_configs_that_differ_beyond_their_strengths_are_rejected_before_any_step(monkeypatch, change):
    monkeypatch.setattr(observables, "evolve", _never_evolve)
    cfg = ordered_cfg(disorder=DisorderKind.STATIC, phi_max=1.0, configs=2, steps=9)
    with pytest.raises(ValueError, match="differ only in phi_max and phi_dynamic"):
        ensemble_run([cfg, dataclasses.replace(cfg, phi_max=2.0, **change)], OBS)


@pytest.mark.parametrize("cfgs", [[], ordered_cfg()], ids=["empty", "bare-config"])
def test_no_list_of_configs_is_rejected_before_any_step(monkeypatch, cfgs):
    monkeypatch.setattr(observables, "evolve", _never_evolve)
    with pytest.raises(ValueError, match="nonempty list of configs"):
        ensemble_run(cfgs, OBS)


# the budget counts no observable's temporaries: each observable is traced
@pytest.mark.parametrize("observable", ALL_OBS)
def test_a_preset_scale_chunk_stays_within_its_memory_budget(observable):
    # One fig7 chunk at t = 100 (36 combined configurations), traced on its second run, when the joint
    # builder's scratch (about 1 MiB, kept for every later chunk) exists.  The packed light-cone phases and
    # the two state buffers of the walk fill the budget next to the one field being packed; the rest is step
    # and measurement temporaries, which the budget does not count.  A stacked second copy of whole tables
    # peaked at 1.72 budgets.
    cfg = dataclasses.replace(preset("fig7"), phi_dynamic=np.pi)
    measure = partial(observables._measure_series, observable, JointBuilder())
    members = [(cfg, cfg.seed + i) for i in range(cfg.configs)]
    task = observables._chunk_tasks(members, [cfg.steps], measure, 2, 1)[0]
    assert len(task[0]) == 36
    observables._run_chunk(task)
    tracemalloc.start()
    try:
        observables._run_chunk(task)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * observables._CHUNK_BYTES


@pytest.mark.parametrize("observable", ALL_OBS)
def test_a_preset_scale_chunk_measured_at_several_steps_stays_within_its_memory_budget(observable):
    # One fig5 combined chunk at t = 100 measured at 11 steps (36 configurations): one evolve walk runs through
    # all 11 stops in the two state buffers it owns.  A third state buffer, a copy per stop, would not fit:
    # 36 configurations with two buffers counted peaked at 1.16 budgets when three coexisted.
    cfg = dataclasses.replace(preset("fig5"), disorder=DisorderKind.COMBINED)
    measure = partial(observables._measure_series, observable, JointBuilder())
    members = [(cfg, cfg.seed + i) for i in range(cfg.configs)]
    stops = list(range(0, cfg.steps + 1, 10))
    task = observables._chunk_tasks(members, stops, measure, 2 * len(stops), 1)[0]
    assert len(task[0]) == 36
    observables._run_chunk(task)
    tracemalloc.start()
    try:
        observables._run_chunk(task)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * observables._CHUNK_BYTES


def test_a_preset_scale_joint_map_chunk_stays_within_its_memory_budget():
    # fig3 at t = 50: each configuration keeps its four joint factors on the 51 parity cells, and measuring them
    # holds its coin products (8 x 51 floats), so the preset's 100 static configurations run as one chunk, where
    # two 51 x 51 quarters each fit 71 and whole 103 x 103 matrices 22.  A chunk that fills the budget (196 of
    # 300 configurations) is traced on its second run and peaked at 0.946 budgets on a 2-core Xeon with numpy
    # 2.4; counting only the 5 x 51 floats of factors and a marginal kept, 221 configurations fit and peaked at
    # 1.13 budgets.
    cfg = dataclasses.replace(preset("fig3"), configs=300)
    n, o = lattice_for(cfg.steps)
    lo, _, stride = light_cone(cfg.steps, [o])
    cells = slice(lo % stride, None, stride)
    s = len(range(n)[cells])
    measure = partial(observables._measure_joints, cells)
    members = [(cfg, cfg.seed + i) for i in range(cfg.configs)]
    tasks = observables._chunk_tasks(members, [cfg.steps], measure, 12 * s, 1)
    assert (s, [len(task[0]) for task in tasks]) == (51, [196, 104])
    assert len(observables._chunk_tasks(members[:100], [cfg.steps], measure, 12 * s, 1)) == 1
    observables._run_chunk(tasks[0])
    tracemalloc.start()
    try:
        observables._run_chunk(tasks[0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * observables._CHUNK_BYTES


def mode_reference_average(cfg):
    """Configuration-averaged position joints by symmetry and marginals, summed in configuration order.

    Returns (joints from the mode-level reference, the plain-numpy marginal
    (p_a + p_b) / 2 with p_w = sum_c (re^2 + im^2), the mode-level reference
    marginal summed over the coin); each is summed over the configurations in
    order and divided once.
    """
    n, o = lattice_for(cfg.steps)
    sums, marg, mode_marg = {sym: np.zeros((n, n)) for sym in ExchangeSymmetry}, np.zeros(n), np.zeros(n)
    for i in range(cfg.configs):
        fld = FieldBatch([observables._field_for(cfg, cfg.seed + i, n)], [o])
        [a] = evolve(delta_state(n, o, 0, COIN_L), [cfg.steps], fld)
        [b] = evolve(delta_state(n, o, 0, COIN_R), [cfg.steps], fld)
        for sym, acc in sums.items():
            acc += aggregate_to_positions(joint_mode_distribution(a, b, sym))
        p_a, p_b = ((w.real**2 + w.imag**2).sum(axis=0) for w in (a, b))
        marg += 0.5 * (p_a + p_b)
        mode_marg += marginal(a, b).reshape(n, 2).sum(axis=1)
    return {sym: acc / cfg.configs for sym, acc in sums.items()}, marg / cfg.configs, mode_marg / cfg.configs


def assert_identical_runs(runs):
    """The runs of ``_runs`` give the same bits: chunking and worker processes do not move a cell."""
    (joints, marg, positions), *others = runs
    for other in others:
        assert other[0].keys() == joints.keys()
        assert all(np.array_equal(other[0][sym], joint) for sym, joint in joints.items())
        assert np.array_equal(other[1], marg) and np.array_equal(other[2], positions)


@pytest.mark.parametrize("steps", [12, 33], ids=["27-sites", "69-sites"])
def test_average_joints_equal_ordered_sums_of_mode_reference_matrices(monkeypatch, steps):
    # The closed form sums other products than the mode-level joints, so its cells agree with their ordered sums
    # within 1e-15.  The marginal is (p_a + p_b) / 2 of the joint factors summed in member order: bit for bit the
    # plain-numpy sum, and within 1e-15 of the mode-level marginal, which squares |a| rather than re and im.
    # 12 configurations, because numpy sums more than 8 terms pairwise along contiguous axes, as it did when
    # chunks were summed in the configuration-innermost layout they come out in.
    cfg = ordered_cfg(disorder=DisorderKind.COMBINED, phi_dynamic=1.0, configs=12, seed=9, steps=steps)
    n, o = lattice_for(cfg.steps)
    want, want_marg, mode_marg = mode_reference_average(cfg)
    runs = _runs(monkeypatch, ensemble_average_joints, cfg)
    assert_identical_runs(runs)
    joints, marg, positions = runs[0]
    assert joints.keys() == want.keys()
    for sym, joint in joints.items():
        np.testing.assert_allclose(joint, want[sym], rtol=0, atol=1e-15)
        assert np.array_equal(joint, joint.T) and joint.min() >= 0.0
    assert np.array_equal(marg, want_marg)
    np.testing.assert_allclose(marg, mode_marg, rtol=0, atol=1e-15)
    assert np.array_equal(positions, np.arange(n) - o)


@pytest.mark.parametrize("observable", ALL_OBS)
def test_series_values_equal_the_observables_of_mode_reference_joints(observable):
    # light cones of 21 to 81 sites, on both sides of 64 sites; one configuration, so each mean is its value.
    cfg = ordered_cfg(disorder=DisorderKind.COMBINED, phi_dynamic=1.0, configs=1, seed=4, steps=40)
    stops = [10, 30, 31, 32, 40]
    [series] = ensemble_run([cfg], observable, eval_steps=stops)
    assert list(series) == list(ExchangeSymmetry)
    n, o = lattice_for(cfg.steps)
    fld = FieldBatch([observables._field_for(cfg, cfg.seed, n)], [o])
    for i, t in enumerate(stops):
        [a] = evolve(delta_state(n, o, 0, COIN_L), [t], fld)
        [b] = evolve(delta_state(n, o, 0, COIN_R), [t], fld)
        cone = slice(o - t, o + t + 1)
        for sym in ExchangeSymmetry:
            ref = aggregate_to_positions(joint_mode_distribution(a[:, cone], b[:, cone], sym))
            want = {"variance": variance_xm(ref, np.arange(n)[cone] - o), "entropy": joint_entropy(ref),
                    "mutual_information": mutual_information(ref)}
            assert series[sym].mean[i] == want[observable]


def start_pair(cfg: ScenarioConfig) -> tuple[np.ndarray, int, int]:
    """(the (2 walkers, 2, n_sites) start of ``cfg``'s walkers, n_sites, origin), in plain numpy.

    Walker A holds coin L and walker B coin R of the central site.
    """
    n_sites, origin = lattice_for(cfg.steps)
    pair = np.zeros((2, 2, n_sites), dtype=np.complex128)
    pair[0, 0, origin] = pair[1, 1, origin] = 1.0
    return pair, n_sites, origin


def momentum_space_means(cfg: ScenarioConfig) -> np.ndarray:
    """(observable, symmetry, step) means of ``ALL_OBS`` over ``cfg``'s configurations at every step, in plain numpy.

    Each configuration's walkers come from the momentum-space walk, and its
    joint from the rank-4 form P = (p_a p_b^T + p_b p_a^T) / 2 +/- (g_r g_r^T +
    g_i g_i^T), with p_w = sum_c |w_c|^2 and g = sum_c a_c conj(b_c), on the
    whole lattice; H(X) reads P's row sums.
    """
    pair, n_sites, origin = start_pair(cfg)
    total = np.add.outer(np.arange(n_sites) - origin, np.arange(n_sites) - origin).astype(np.float64)

    def entropy(p):
        p = p[p > 0.0]
        return -(p * np.log2(p)).sum()

    sums = np.zeros((len(ALL_OBS), 2, cfg.steps + 1))
    for seed in range(cfg.seed, cfg.seed + cfg.configs):
        phases = sample_phase_field(cfg.disorder, phi_max=cfg.phi_max, steps=cfg.steps, n_sites=n_sites,
                                    seed=seed).phases
        for t, (a, b) in enumerate(fourier_walk_steps(pair, phases, cfg.steps)):
            p_a, p_b, g = (abs(a) ** 2).sum(axis=0), (abs(b) ** 2).sum(axis=0), (a * b.conj()).sum(axis=0)
            pairs = (np.outer(p_a, p_b) + np.outer(p_b, p_a)) / 2
            exchange = np.outer(g.real, g.real) + np.outer(g.imag, g.imag)
            for j, joint in enumerate((pairs + exchange, pairs - exchange)):  # bosonic, fermionic
                e1, h = (joint * total).sum(), entropy(joint)
                sums[:, j, t] += ((joint * total**2).sum() - e1**2, h, 2 * entropy(joint.sum(axis=1)) - h)
    return sums / cfg.configs


@pytest.mark.parametrize("kind", [DisorderKind.ORDERED, DisorderKind.DYNAMIC], ids=lambda k: k.value)
def test_series_equal_those_of_the_momentum_space_walk_at_every_step_to_100(kind):
    """Past the path sum's 16 steps: fig5's ensemble means at every step 0..100 against an independent oracle.

    The oracle (``momentum_space_means``) uses no ``observables`` or
    ``two_particle`` code.  rtol 1e-12 of the oracle, and 1e-13 absolute
    where ``ensemble_run`` gives exactly 0 (t = 0, and the fermionic variance
    at t = 1).  The largest relative differences were 1.2e-13 (ordered, at
    the bosonic I(X:Y) of t = 70) and 5.8e-14 (dynamic, seed 5), and the
    oracle's zero cells at most 1.3e-15, on a 2-core Xeon with numpy 2.4.
    """
    cfg = dataclasses.replace(preset("fig5"), disorder=kind, phi_max=PI, configs=3, seed=5)
    runs = {obs: ensemble_run([cfg], obs)[0] for obs in ALL_OBS}
    got = np.array([[runs[obs][sym].mean for sym in ExchangeSymmetry] for obs in ALL_OBS])
    want = momentum_space_means(cfg)
    zero = got == 0.0
    assert not zero[..., 2:].any()
    np.testing.assert_allclose(got[~zero], want[~zero], rtol=1e-12, atol=0)
    np.testing.assert_allclose(want[zero], 0.0, rtol=0, atol=1e-13)


@pytest.mark.parametrize("kind", [DisorderKind.ORDERED, DisorderKind.DYNAMIC], ids=lambda k: k.value)
def test_average_joints_equal_those_of_the_momentum_space_walk(kind):
    """fig4's averaged t = 50 joints and marginal (3 configurations, seed 5) against an independent oracle.

    Each configuration's walkers come from the momentum-space walk and its
    joint from |K +/- K^T|^2 / 2 over the (coin, site) modes, K = outer(a, b),
    summed over the coins, in plain numpy.  atol 1e-15 + rtol 1e-12, fixed
    before the first comparison.  The largest differences were 2.0e-16
    (ordered) and 6.2e-17 (dynamic) on the joints and 6.9e-16 on the
    marginal, on a 2-core Xeon with numpy 2.4.  Swapping phi_L and phi_R
    conjugates every amplitude up to a global phase (coin, shift and starts
    are real, and only phi_R - phi_L matters), which no position-level
    number sees; the amplitude test at step 100 in ``test_core`` does.
    """
    cfg = dataclasses.replace(preset("fig4"), disorder=kind, configs=3, seed=5)
    pair, n, o = start_pair(cfg)
    want = {sym: np.zeros((n, n)) for sym in ExchangeSymmetry}
    want_marg = np.zeros(n)
    for seed in range(cfg.seed, cfg.seed + cfg.configs):
        phases = sample_phase_field(cfg.disorder, phi_max=cfg.phi_max, steps=cfg.steps, n_sites=n, seed=seed).phases
        a, b = fourier_walk(pair, phases, cfg.steps)
        k = np.outer(a, b)  # modes coin-major, (coin, site)
        for sign, sym in ((1, BOS), (-1, ExchangeSymmetry.FERMIONIC)):
            want[sym] += (abs(k + sign * k.T) ** 2 / 2).reshape(2, n, 2, n).sum(axis=(0, 2)) / cfg.configs
        want_marg += ((abs(a) ** 2 + abs(b) ** 2) / 2).sum(axis=0) / cfg.configs
    joints, marg, positions = ensemble_average_joints(cfg)
    assert joints.keys() == want.keys() and np.array_equal(positions, np.arange(n) - o)
    for sym, joint in joints.items():
        np.testing.assert_allclose(joint, want[sym], rtol=1e-12, atol=1e-15)
    np.testing.assert_allclose(marg, want_marg, rtol=1e-12, atol=1e-15)


def test_velocity_quadrature_gives_the_closed_form_variance_limits():
    # lim Var(x + y) / t^2 of fig5's ordered pair: 2 - sqrt(2) for bosons, 3 sqrt(2) - 4 for fermions
    bosonic, fermionic = variance_limits()
    assert bosonic == pytest.approx(2 - np.sqrt(2), rel=0, abs=1e-12)
    assert fermionic == pytest.approx(3 * np.sqrt(2) - 4, rel=0, abs=1e-12)


def test_ordered_variance_tends_to_its_group_velocity_limit():
    """Var(x + y) / t^2 of fig5's ordered pair at t = 400 and 800 against ``velocity_reference``.

    r(t) = Var / t^2 approaches its limit as 1 / t, so the Richardson value
    2 r(800) - r(400) cancels that term.  The bound, 5e-5, was fixed before
    the first comparison, against 1.4e-5 (bosonic) and 1.5e-5 (fermionic)
    measured in a prototype; a lost exchange sign or a halved cross term in
    the variance moves a limit by more than 0.1.
    """
    cfg = ScenarioConfig("limit", steps=800, disorder=DisorderKind.ORDERED, configs=1, symmetry="both")
    [series] = ensemble_run([cfg], "variance", eval_steps=[400, 800])
    for sym, limit in zip(ExchangeSymmetry, variance_limits()):
        r = series[sym].mean / np.array([400.0, 800.0]) ** 2
        assert abs(2 * r[1] - r[0] - limit) <= 5e-5


def test_average_joints_equal_ordered_sums_of_single_configuration_runs(monkeypatch):
    # Within 1e-15 of the ordered sums of single runs and of the mode-level reference; marginals bit for bit.
    seed = 5
    cfg = ordered_cfg(disorder=DisorderKind.COMBINED, phi_dynamic=1.0, configs=3, seed=seed, steps=8)
    singles = [ensemble_average_joints(dataclasses.replace(cfg, configs=1, seed=seed + i)) for i in range(3)]
    want, _, _ = mode_reference_average(cfg)
    runs = _runs(monkeypatch, ensemble_average_joints, cfg)
    assert_identical_runs(runs)
    joints, marg, positions = runs[0]
    for sym, joint in joints.items():
        acc = np.zeros_like(joint)
        for one in singles:
            acc += one[0][sym]
        np.testing.assert_allclose(joint, acc / 3, rtol=0, atol=1e-15)
        np.testing.assert_allclose(joint, want[sym], rtol=0, atol=1e-15)
    acc = np.zeros_like(marg)
    for one in singles:
        acc += one[1]
    assert np.array_equal(marg, acc / 3)
    assert np.array_equal(positions, singles[0][2])


@pytest.mark.parametrize("kind", [DisorderKind.ORDERED, DisorderKind.STATIC, DisorderKind.DYNAMIC],
                         ids=lambda k: k.value)
def test_average_joints_bunch_bosons_and_antibunch_fermions(kind):
    # The exchange term is the only difference between the symmetries: their mean is the map of distinguishable
    # walkers, (p_a(x) p_b(y) + p_b(x) p_a(y)) / 2, here from the mode-level product of the two marginals, and
    # on the diagonal it adds to bosons what it takes from fermions (bunching).
    cfg = ordered_cfg(disorder=kind, phi_max=np.pi, configs=5, seed=21, steps=14)
    n, o = lattice_for(cfg.steps)
    distinguishable = np.zeros((n, n))
    for i in range(cfg.configs):
        fld = FieldBatch([observables._field_for(cfg, cfg.seed + i, n)], (o,))
        [a], [b] = (evolve(delta_state(n, o, 0, coin), [cfg.steps], fld) for coin in (COIN_L, COIN_R))
        a, b = a.T.reshape(-1), b.T.reshape(-1)
        product = np.outer(np.abs(a) ** 2, np.abs(b) ** 2)
        distinguishable += aggregate_to_positions(0.5 * (product + product.T))
    joints, _, _ = ensemble_average_joints(cfg)
    bose, fermi = joints[BOS], joints[ExchangeSymmetry.FERMIONIC]
    np.testing.assert_allclose(0.5 * (bose + fermi), distinguishable / cfg.configs, rtol=0, atol=1e-15)
    assert np.all(np.diag(bose) >= np.diag(fermi)) and np.diag(bose).sum() > np.diag(fermi).sum()


# The walkers start in the two coin modes of the central site, the two input ports of one beam splitter.  The
# first coin toss mixes them 50:50 and each output mode moves one site, so the bosonic pair leaves together
# (Hong-Ou-Mandel bunching) and the fermionic pair leaves by both ports.  A disorder phase multiplies one mode
# of one walker, so no field moves a probability.
FIRST_STEP = {BOS: {(-1, -1): 0.5, (1, 1): 0.5}, ExchangeSymmetry.FERMIONIC: {(-1, 1): 0.5, (1, -1): 0.5}}


@pytest.mark.parametrize("kind", list(DisorderKind), ids=lambda k: k.value)
def test_the_first_step_splits_the_central_pair_like_a_beam_splitter(kind):
    joints, marg, positions = ensemble_average_joints(ordered_cfg(disorder=kind, configs=3, seed=2, steps=1))
    row = {x: i for i, x in enumerate(positions)}
    for sym, cells in FIRST_STEP.items():
        want = np.zeros_like(joints[sym])
        for (x, y), p in cells.items():
            want[row[x], row[y]] = p
        np.testing.assert_allclose(joints[sym], want, rtol=0, atol=1e-15)
    want = np.zeros_like(marg)
    want[[row[-1], row[1]]] = 0.5
    np.testing.assert_allclose(marg, want, rtol=0, atol=1e-15)


@pytest.mark.parametrize("observable, bosonic, fermionic", [("variance", 4.0, 0.0), ("entropy", 1.0, 1.0),
                                                            ("mutual_information", 1.0, 1.0)], ids=ALL_OBS)
def test_the_first_step_series_read_the_beam_splitter_output(observable, bosonic, fermionic):
    # x + y is -2 or 2 for the bunched bosons and 0 for the split fermions; each joint has two cells of 1/2 (one
    # bit), and each position fixes the other's, so the mutual information is that bit.  Every configuration
    # gives these values, so their spread is 0.
    cfg = ordered_cfg(disorder=DisorderKind.COMBINED, phi_dynamic=1.0, configs=3, seed=2, steps=4)
    series = run_one(cfg, observable, eval_steps=[1])
    for sym, value in ((BOS, bosonic), (ExchangeSymmetry.FERMIONIC, fermionic)):
        np.testing.assert_allclose(series[sym].mean, [value], rtol=1e-15, atol=1e-15)  # a few ulps of 4
        np.testing.assert_allclose(series[sym].std_dev, [0.0], rtol=0, atol=1e-15)


def test_ordered_light_cone_tips_are_emitted_as_non_negative_fermionic_zeros(tmp_path):
    # At x = y = -t only coin L is reached and at x = y = t only coin R, so there P_F = 0 exactly in the
    # mode-level reference; the closed form rounds about zero and must write a non-negative cell within the
    # golden gate's 1e-15, never "-".
    assert main(["--scenario", "fig2", "--steps", "10", "--out", str(tmp_path)]) == 0
    rows = {(x, y): p for x, y, p in (line.split(",") for line in (tmp_path / "joint_fermi.csv").read_text()
                                       .splitlines()[1:])}
    for tip in ("-10", "10"):
        assert not rows[(tip, tip)].startswith("-") and 0.0 <= float(rows[(tip, tip)]) <= 1e-15
    assert all(not p.startswith("-") for p in rows.values())


def test_eval_steps_with_a_repeat_equal_those_rows_of_the_full_series():
    # the eval steps are the walk's stops as given: a repeated step is measured again
    cfg = ordered_cfg(disorder=DisorderKind.STATIC, phi_max=np.pi, configs=2, steps=6, seed=2)
    [full] = ensemble_run([cfg], OBS)
    [picked] = ensemble_run([cfg], OBS, eval_steps=[0, 2, 2, 6])
    for key, s in picked.items():
        np.testing.assert_array_equal(s.steps, [0, 2, 2, 6])
        assert np.array_equal(s.mean, full[key].mean[[0, 2, 2, 6]])
        assert np.array_equal(s.std_dev, full[key].std_dev[[0, 2, 2, 6]])


@pytest.mark.parametrize("runner", [run_one, ensemble_average_joints], ids=["ensemble_run", "ensemble_average_joints"])
def test_nonorthogonal_walkers_rejected(monkeypatch, runner):
    # walker B enters coin L too, so both walkers start in one mode
    monkeypatch.setattr(observables, "COIN_R", COIN_L)
    with pytest.raises(ValueError, match="orthogonal"):
        runner(ordered_cfg())


def test_nonorthogonal_walkers_fail_the_cli_run(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(observables, "COIN_R", COIN_L)
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
    [serial] = ensemble_run([cfg], OBS)
    made = []
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", partial(RecordingPool, made))
    monkeypatch.setattr(observables, "_usable_cpus", lambda: cpus)
    if budget is not None:
        monkeypatch.setattr(observables, "_CHUNK_BYTES", budget)
    [pooled] = ensemble_run([cfg], OBS, n_jobs=n_jobs)
    assert made == [pool]
    for key in serial:
        assert np.array_equal(serial[key].mean, pooled[key].mean)
        assert np.array_equal(serial[key].std_dev, pooled[key].std_dev)


def test_one_configuration_opens_no_pool(monkeypatch, tmp_path):
    made = []
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", partial(RecordingPool, made))
    assert main(["--scenario", "fig2", "--steps", "3", "--jobs", "64", "--out", str(tmp_path)]) == 0
    assert made == []


PI = np.pi


# (kind, strengths, sweep, sweep values, members evolved of 4 configurations per value): every kind with each strength
# it reads at 0 and at a nonzero value, fig6-style sweeps through phi = 0, and combined disorder with one zero
# component, which draws from its seed and must not count as seed-independent
@pytest.mark.parametrize("kind, strengths, sweep, values, members", [
    (DisorderKind.ORDERED, {}, None, (), 1),
    (DisorderKind.STATIC, {"phi_max": 0.0}, None, (), 1),
    (DisorderKind.STATIC, {"phi_max": 1.0}, None, (), 4),
    (DisorderKind.DYNAMIC, {"phi_max": 0.0}, None, (), 1),
    (DisorderKind.DYNAMIC, {"phi_max": 1.0}, None, (), 4),
    (DisorderKind.FLUCTUATING, {"phi_max": 0.0}, None, (), 1),
    (DisorderKind.FLUCTUATING, {"phi_max": 1.0}, None, (), 4),
    (DisorderKind.COMBINED, {"phi_max": 0.0, "phi_dynamic": 0.0}, None, (), 1),
    (DisorderKind.COMBINED, {"phi_max": 0.0, "phi_dynamic": 1.0}, None, (), 4),
    (DisorderKind.COMBINED, {"phi_max": 1.0, "phi_dynamic": 0.0}, None, (), 4),
    (DisorderKind.COMBINED, {"phi_max": PI, "phi_dynamic": 1.0}, None, (), 4),
    (DisorderKind.COMBINED, {"phi_max": 0.0}, None, (), 1),
    (DisorderKind.COMBINED, {"phi_max": 1.0}, None, (), 4),
    (DisorderKind.STATIC, {}, "phi_max", (0.0, 0.5, PI), 1 + 4 + 4),
    (DisorderKind.DYNAMIC, {}, "phi_max", (0.0, 0.5, PI), 1 + 4 + 4),
    (DisorderKind.FLUCTUATING, {}, "phi_max", (0.0, 0.5), 1 + 4),
    (DisorderKind.COMBINED, {"phi_max": 0.0}, "phi_dynamic", (0.0, 1.0), 1 + 4),
    (DisorderKind.COMBINED, {"phi_max": PI}, "phi_dynamic", (0.0, 1.0), 4 + 4),
    (DisorderKind.COMBINED, {"phi_dynamic": 0.0}, "phi_max", (0.0, 1.0), 1 + 4),
    (DisorderKind.COMBINED, {}, "phi_max", (0.0, 1.0), 1 + 4),
])
def test_a_seed_independent_ensemble_runs_once_and_equals_the_full_ensemble(monkeypatch, kind, strengths, sweep,
                                                                            values, members):
    cfg = ordered_cfg(disorder=kind, **strengths, configs=4, seed=3, steps=8)
    cfgs = [dataclasses.replace(cfg, **{sweep: value}) for value in values] if sweep else [cfg]
    evolved = []
    map_chunks = observables._map_chunks

    def recording(members, *rest):
        evolved.append(len(members))
        return map_chunks(members, *rest)

    for observable in ALL_OBS:
        run = partial(ensemble_run, cfgs, observable)
        with monkeypatch.context() as patch:
            patch.setattr(observables, "seed_independent", lambda *args, **kwargs: False)
            full = run()
        evolved.clear()
        with monkeypatch.context() as patch:
            patch.setattr(observables, "_map_chunks", recording)
            got = run()
        for once, every in zip(got, full, strict=True):
            assert once.keys() == every.keys()
            for key, s in once.items():
                assert np.array_equal(s.steps, every[key].steps)
                assert np.array_equal(s.mean, every[key].mean) and np.array_equal(s.std_dev, every[key].std_dev)
        assert evolved == [members], observable
