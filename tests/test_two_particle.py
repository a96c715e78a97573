import numpy as np
import pytest

from dtqw.core import COIN_L, COIN_R, delta_state, evolve, lattice_for
from dtqw.disorder import DisorderKind, FieldBatch, sample_phase_field
from dtqw.two_particle import (
    ExchangeSymmetry,
    TwoParticleInput,
    aggregate_to_positions,
    joint_mode_distribution,
    marginal,
    marginal_positions,
)

BOS = ExchangeSymmetry.BOSONIC
FER = ExchangeSymmetry.FERMIONIC


def delta_pair(n_sites=6, origin=2, a=(0, COIN_L), b=(1, COIN_R)):
    return TwoParticleInput(
        delta_state(n_sites, origin, *a),
        delta_state(n_sites, origin, *b),
    )


def evolved_pair(kind=DisorderKind.FLUCTUATING, steps=10, seed=5, a=(0, COIN_L), b=(0, COIN_R)):
    n, o = lattice_for(steps, (a[0], b[0]))
    fld = FieldBatch([sample_phase_field(
        kind, phi_max=np.pi, phi_static=np.pi, phi_dynamic=np.pi,
        steps=steps, n_sites=n, origin=o, seed=seed,
    )])
    return TwoParticleInput(
        evolve(delta_state(n, o, *a), steps, fld),
        evolve(delta_state(n, o, *b), steps, fld),
    )


def mode_index(inp, x, coin):
    return 2 * inp.psi_a.index_of(x) + coin


def position_joint(inp, sym):
    return aggregate_to_positions(joint_mode_distribution(inp, sym))


def test_delta_pair_joint_is_half_on_each_ordering():
    inp = delta_pair()
    ma = mode_index(inp, 0, COIN_L)
    mb = mode_index(inp, 1, COIN_R)
    for sym in (BOS, FER):
        joint = joint_mode_distribution(inp, sym)
        assert joint.matrix[ma, mb] == pytest.approx(0.5)
        assert joint.matrix[mb, ma] == pytest.approx(0.5)
        assert joint.matrix.sum() == pytest.approx(1.0)
        assert np.count_nonzero(joint.matrix) == 2


def test_fermionic_mode_diagonal_is_exactly_zero():
    inp = evolved_pair(steps=12)
    joint = joint_mode_distribution(inp, FER)
    assert np.all(np.diag(joint.matrix) == 0.0)


def test_joint_normalization_and_symmetry():
    for kind in DisorderKind:
        inp = evolved_pair(kind=kind, steps=9, seed=3)
        for sym in (BOS, FER):
            joint = joint_mode_distribution(inp, sym)
            assert joint.matrix.sum() == pytest.approx(1.0, abs=1e-12)
            np.testing.assert_allclose(joint.matrix, joint.matrix.T, atol=1e-15)
            assert joint.matrix.min() >= 0.0


def test_aggregation_rebins_mode_deltas():
    inp = delta_pair()
    pos = aggregate_to_positions(joint_mode_distribution(inp, BOS))
    ia = inp.psi_a.index_of(0)
    ib = inp.psi_a.index_of(1)
    assert pos.matrix[ia, ib] == pytest.approx(0.5)
    assert pos.matrix[ib, ia] == pytest.approx(0.5)
    assert pos.matrix.sum() == pytest.approx(1.0)


def test_aggregation_preserves_total_and_symmetry():
    inp = evolved_pair(steps=11, seed=9)
    for sym in (BOS, FER):
        mode = joint_mode_distribution(inp, sym)
        pos = aggregate_to_positions(mode)
        assert pos.matrix.sum() == pytest.approx(mode.matrix.sum(), abs=1e-12)
        np.testing.assert_allclose(pos.matrix, pos.matrix.T, atol=1e-15)


def test_aggregation_requires_mode_level():
    inp = delta_pair()
    pos = position_joint(inp, BOS)
    with pytest.raises(ValueError):
        aggregate_to_positions(pos)


def test_fermions_may_share_a_site_in_opposite_coin_modes():
    # same-site start, orthogonal coins: the position diagonal is populated
    inp = delta_pair(a=(0, COIN_L), b=(0, COIN_R))
    pos = position_joint(inp, FER)
    i0 = inp.psi_a.index_of(0)
    assert pos.matrix[i0, i0] == pytest.approx(1.0)
    mode = joint_mode_distribution(inp, FER)
    assert np.all(np.diag(mode.matrix) == 0.0)


def test_marginal_of_delta_pair():
    inp = delta_pair()
    m = marginal(inp)
    assert m[mode_index(inp, 0, COIN_L)] == pytest.approx(0.5)
    assert m[mode_index(inp, 1, COIN_R)] == pytest.approx(0.5)
    assert m.sum() == pytest.approx(1.0)


def test_marginal_equals_row_sums_for_both_symmetries():
    inp = evolved_pair(steps=13, seed=1)
    m = marginal(inp)
    for sym in (BOS, FER):
        rows = joint_mode_distribution(inp, sym).matrix.sum(axis=1)
        np.testing.assert_allclose(rows, m, atol=1e-12)
    np.testing.assert_allclose(
        marginal_positions(inp),
        position_joint(inp, BOS).matrix.sum(axis=1),
        atol=1e-12,
    )


def test_ordered_walk_marginal_spreads_ballistically():
    # twin-peak shape: variance far above the classical 2-walker baseline
    inp = evolved_pair(kind=DisorderKind.ORDERED, steps=50)
    m = marginal_positions(inp)
    x = inp.site_positions.astype(float)
    var = float((x * x) @ m - ((x @ m) ** 2))
    assert var > 2 * 50  # single-particle classical variance is t


def test_nonorthogonal_inputs_rejected():
    a = delta_state(6, 2, 0, COIN_L)
    with pytest.raises(ValueError):
        TwoParticleInput(a, delta_state(6, 2, 0, COIN_L))


def test_mismatched_lattices_rejected():
    with pytest.raises(ValueError):
        TwoParticleInput(delta_state(6, 2, 0, COIN_L), delta_state(8, 2, 1, COIN_R))
