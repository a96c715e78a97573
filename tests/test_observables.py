import numpy as np
import pytest

from dtqw.config import ScenarioConfig
from dtqw.core import COIN_L, COIN_R, delta_state, evolve, lattice_for
from dtqw.disorder import DisorderKind, ordered_field, sample_phase_field
from dtqw.observables import (
    ObservableSeries,
    classical_baseline,
    ensemble_average_joints,
    ensemble_run,
    joint_entropy,
    mutual_information,
    variance_xm,
)
from dtqw.two_particle import (
    ExchangeSymmetry,
    JointDistribution,
    TwoParticleInput,
    distinguishable_joint,
    joint_position_distribution,
)

BOS = ExchangeSymmetry.BOSONIC

# Frozen against the path-sum pipeline: 3-step ordered walk from (0,L),(0,R),
# symmetrized joints aggregated to positions (see test_matches_pathsum_pipeline).
ENTROPY_3STEP_BOSONIC = 3.4834585933443485
VARIANCE_3STEP = {"bosonic": 7.5, "fermionic": 3.5}


def make_joint(matrix, positions=None, sym=BOS):
    matrix = np.asarray(matrix, dtype=float)
    if positions is None:
        positions = np.arange(matrix.shape[0])
    return JointDistribution(matrix, sym, "position", np.asarray(positions))


def three_step_joint(sym):
    steps = 3
    n, o = lattice_for(steps, (0, 0))
    fld = ordered_field(steps, n, o)
    inp = TwoParticleInput(
        evolve(delta_state(n, o, 0, COIN_L), steps, fld),
        evolve(delta_state(n, o, 0, COIN_R), steps, fld),
    )
    return joint_position_distribution(inp, sym)


def test_variance_of_point_mass_is_zero():
    m = np.zeros((5, 5))
    m[1, 3] = 0.5
    m[3, 1] = 0.5
    assert variance_xm(make_joint(m)) == pytest.approx(0.0, abs=1e-12)


def test_variance_two_point_hand_value():
    # mass 1/2 on x_M=1 and 1/2 on x_M=5: E=3, E2=13, Var=4
    m = np.zeros((4, 4))
    m[0, 1] = m[1, 0] = 0.25
    m[2, 3] = m[3, 2] = 0.25
    assert variance_xm(make_joint(m)) == pytest.approx(4.0)


def test_variance_uses_signed_positions():
    m = np.zeros((3, 3))
    m[0, 0] = 0.5
    m[2, 2] = 0.5
    # positions -1, 0, 1: x_M is -2 or +2 with equal mass
    assert variance_xm(make_joint(m, positions=[-1, 0, 1])) == pytest.approx(4.0)


def test_three_step_variances_match_pathsum_oracle():
    for sym in ExchangeSymmetry:
        assert variance_xm(three_step_joint(sym)) == pytest.approx(
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
    assert joint_entropy(make_joint(m)) == 0.0


def test_entropy_of_uniform_square():
    k = 8
    m = np.full((k, k), 1.0 / k**2)
    assert joint_entropy(make_joint(m)) == pytest.approx(2 * np.log2(k))


def test_three_step_bosonic_entropy_matches_frozen_oracle_value():
    assert joint_entropy(three_step_joint(BOS)) == pytest.approx(
        ENTROPY_3STEP_BOSONIC, abs=1e-12
    )


def test_mutual_information_of_product_joint_is_zero():
    p = np.array([0.1, 0.2, 0.3, 0.4])
    assert mutual_information(make_joint(np.outer(p, p))) == pytest.approx(0.0, abs=1e-12)


def test_mutual_information_of_uniform_diagonal():
    k = 16
    assert mutual_information(make_joint(np.eye(k) / k)) == pytest.approx(np.log2(k))


def test_mutual_information_bounded_by_marginal_entropy():
    rng = np.random.default_rng(2)
    m = rng.random((9, 9))
    m = 0.5 * (m + m.T)
    m /= m.sum()
    joint = make_joint(m)
    h_x = -np.sum(m.sum(1) * np.log2(m.sum(1)))
    assert -1e-12 <= mutual_information(joint) <= h_x + 1e-12


def test_entropy_and_mi_invariant_under_relabeling():
    rng = np.random.default_rng(7)
    m = rng.random((11, 11))
    m = 0.5 * (m + m.T)
    m /= m.sum()
    perm = rng.permutation(11)
    a = make_joint(m)
    b = make_joint(m[np.ix_(perm, perm)])
    assert joint_entropy(b) == pytest.approx(joint_entropy(a), abs=1e-12)
    assert mutual_information(b) == pytest.approx(mutual_information(a), abs=1e-12)


def test_product_joint_variance_is_sum_of_single_variances():
    steps = 12
    n, o = lattice_for(steps, (0, 0))
    fld = sample_phase_field(DisorderKind.STATIC, phi_max=np.pi, steps=steps, n_sites=n, origin=o, seed=40)
    psi_a = evolve(delta_state(n, o, 0, COIN_L), steps, fld)
    psi_b = evolve(delta_state(n, o, 0, COIN_R), steps, fld)
    inp = TwoParticleInput(psi_a, psi_b)
    product = distinguishable_joint(inp).reshape(n, 2, n, 2).sum(axis=(1, 3))
    x = (np.arange(n) - o).astype(float)

    def single_var(state):
        p = np.abs(state.amplitudes[:, 0]) ** 2 + np.abs(state.amplitudes[:, 1]) ** 2
        return float((x * x) @ p - (x @ p) ** 2)

    joint = JointDistribution(product, BOS, "position", np.arange(n) - o)
    assert variance_xm(joint) == pytest.approx(single_var(psi_a) + single_var(psi_b), abs=1e-10)


def ordered_cfg(**kw):
    base = dict(
        name="t", steps=8, disorder=DisorderKind.ORDERED, configs=5, seed=0,
        symmetry="both", observables=("variance", "entropy"),
    )
    base.update(kw)
    return ScenarioConfig(**base)


def test_ordered_ensemble_has_zero_spread():
    series = ensemble_run(ordered_cfg())
    for s in series.values():
        np.testing.assert_array_equal(s.std_dev, np.zeros_like(s.std_dev))
        assert s.configs == 5


def test_ensemble_run_is_deterministic():
    cfg = ordered_cfg(disorder=DisorderKind.FLUCTUATING, phi_max=np.pi, configs=4, seed=3)
    a = ensemble_run(cfg)
    b = ensemble_run(cfg)
    for key in a:
        np.testing.assert_array_equal(a[key].mean, b[key].mean)
        np.testing.assert_array_equal(a[key].std_dev, b[key].std_dev)


def test_parallel_matches_serial_bitwise():
    cfg = ordered_cfg(disorder=DisorderKind.STATIC, phi_max=np.pi, configs=4, seed=8, steps=10)
    serial = ensemble_run(cfg, n_jobs=1)
    parallel = ensemble_run(cfg, n_jobs=2)
    for key in serial:
        np.testing.assert_array_equal(serial[key].mean, parallel[key].mean)
        np.testing.assert_array_equal(serial[key].std_dev, parallel[key].std_dev)


def test_eval_steps_subset():
    cfg = ordered_cfg(configs=1, steps=10, observables=("variance",))
    series = ensemble_run(cfg, eval_steps=[0, 5, 10])
    s = series[("variance", "bosonic")]
    np.testing.assert_array_equal(s.steps, [0, 5, 10])
    assert s.at_step(5) > 0
    with pytest.raises(KeyError):
        s.at_step(3)


def test_eval_steps_out_of_range_rejected():
    with pytest.raises(ValueError):
        ensemble_run(ordered_cfg(), eval_steps=[99])


def test_invalid_configs_rejected():
    with pytest.raises(ValueError):
        ensemble_run(ordered_cfg(configs=0))


def test_static_variance_plateaus():
    cfg = ScenarioConfig(
        "plateau", steps=100, disorder=DisorderKind.STATIC, phi_max=np.pi,
        configs=100, seed=1000, symmetry="bosonic", observables=("variance",),
    )
    series = ensemble_run(cfg, eval_steps=[20, 100])
    s = series[("variance", "bosonic")]
    assert s.at_step(100) / s.at_step(20) < 3.0


def test_ensemble_average_joints_normalized():
    cfg = ordered_cfg(disorder=DisorderKind.DYNAMIC, phi_max=np.pi, configs=3, seed=5, steps=12)
    joints, marg, positions = ensemble_average_joints(cfg)
    for joint in joints.values():
        assert joint.total() == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(joint.matrix, joint.matrix.T, atol=1e-15)
    assert marg.sum() == pytest.approx(1.0, abs=1e-12)
    assert len(positions) == len(marg)
    np.testing.assert_allclose(
        joints[BOS].matrix.sum(axis=1), marg, atol=1e-12
    )


def test_observable_series_validates_lengths():
    with pytest.raises(ValueError):
        ObservableSeries("x", np.arange(3), np.zeros(2), np.zeros(3), 1)
