import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dtqw.core import (
    COIN_L,
    COIN_R,
    LatticeOverflowError,
    WalkerState,
    delta_state,
    evolve,
    lattice_for,
    modes_to_state,
    position_distribution,
    state_to_modes,
)
from dtqw.disorder import DisorderKind, PhaseField, ordered_field, sample_phase_field
from dtqw.pathsum import path_sum_amplitudes

INV_SQRT2 = 1.0 / np.sqrt(2.0)


def dist_by_position(state):
    p = position_distribution(state)
    return {int(x): float(v) for x, v in zip(state.positions, p) if v > 1e-15}


def phase_table_field(phi_l, phi_r):
    """A field that gives coin phases phi_l[t-1, i], phi_r[t-1, i] at step t, site i."""
    steps, n_sites = np.shape(phi_l)
    return PhaseField(DisorderKind.FLUCTUATING, 0.0, 0.0, 0, steps, n_sites, (n_sites - 1) // 2,
                      fluct_l=phi_l, fluct_r=phi_r)


def one_step(coin, phi_l=0.0, phi_r=0.0):
    """One step from x=0 in the given coin state under uniform phases."""
    n, o = lattice_for(1)
    fld = phase_table_field(np.full((1, n), phi_l), np.full((1, n), phi_r))
    return evolve(delta_state(n, o, 0, coin), 1, fld)


def test_phased_coin_pi_flips_second_row():
    out = one_step(COIN_L, 0.0, np.pi)
    assert out.amplitudes[out.index_of(-1), COIN_L] == pytest.approx(INV_SQRT2)
    assert out.amplitudes[out.index_of(1), COIN_R] == pytest.approx(-INV_SQRT2)


@given(st.floats(-10, 10), st.floats(-10, 10))
def test_phased_coin_unitary(phi_l, phi_r):
    # the two coin states of one site stay orthonormal through a phased step
    a, b = one_step(COIN_L, phi_l, phi_r), one_step(COIN_R, phi_l, phi_r)
    assert a.norm() == pytest.approx(1.0, abs=1e-12) and b.norm() == pytest.approx(1.0, abs=1e-12)
    assert abs(np.vdot(a.amplitudes, b.amplitudes)) < 1e-12


def test_common_phase_is_global():
    # a phase added to both coin rows never changes output probabilities
    t = 12
    n, o = lattice_for(t)
    start = delta_state(n, o, 0, COIN_L)
    plain = evolve(start, t, ordered_field(t, n, o))
    third = np.full((t, n), np.pi / 3)
    tilted = evolve(start, t, phase_table_field(third, third))
    np.testing.assert_allclose(
        position_distribution(tilted), position_distribution(plain), atol=1e-12
    )


def test_step_from_L():
    out = one_step(COIN_L)
    amps = {(int(x), c): out.amplitudes[i, c] for i, x in enumerate(out.positions) for c in (0, 1)}
    assert amps[(-1, COIN_L)] == pytest.approx(INV_SQRT2)
    assert amps[(1, COIN_R)] == pytest.approx(INV_SQRT2)


def test_step_from_R():
    out = one_step(COIN_R)
    assert out.amplitudes[out.index_of(-1), COIN_L] == pytest.approx(INV_SQRT2)
    assert out.amplitudes[out.index_of(1), COIN_R] == pytest.approx(-INV_SQRT2)


def test_step_preserves_norm_with_random_phased_coins():
    rng = np.random.default_rng(3)
    n, o = lattice_for(6)
    fld = phase_table_field(rng.uniform(0, 2 * np.pi, (6, n)), rng.uniform(0, 2 * np.pi, (6, n)))
    state = evolve(delta_state(n, o, 0, COIN_L), 6, fld)
    assert state.norm() == pytest.approx(1.0, abs=1e-12)


def test_step_overflow_is_an_error():
    # on 3 sites the first step reaches both edge sites, so the second overflows
    with pytest.raises(LatticeOverflowError):
        evolve(delta_state(3, 1, 0, COIN_L), 2, ordered_field(2, 3, 1))


def test_evolve_zero_steps_returns_initial():
    n, o = lattice_for(4)
    start = delta_state(n, o, 0, COIN_L)
    out = evolve(start, 0, ordered_field(4, n, o))
    np.testing.assert_array_equal(out.amplitudes, start.amplitudes)


def test_evolve_two_steps_ordered():
    n, o = lattice_for(2)
    out = evolve(delta_state(n, o, 0, COIN_L), 2, ordered_field(2, n, o))
    assert dist_by_position(out) == pytest.approx({-2: 0.25, 0: 0.5, 2: 0.25})


def test_evolve_three_steps_ordered():
    n, o = lattice_for(3)
    out = evolve(delta_state(n, o, 0, COIN_L), 3, ordered_field(3, n, o))
    assert dist_by_position(out) == pytest.approx({-3: 1 / 8, -1: 5 / 8, 1: 1 / 8, 3: 1 / 8})


def test_evolve_records_snapshots():
    t = 5
    n, o = lattice_for(t)
    fld = ordered_field(t, n, o)
    snaps = evolve(delta_state(n, o, 0, COIN_L), t, fld, record=True)
    assert len(snaps) == t + 1
    np.testing.assert_array_equal(
        snaps[-1].amplitudes, evolve(delta_state(n, o, 0, COIN_L), t, fld).amplitudes
    )


def test_position_distribution_delta():
    state = delta_state(9, 4, 0, COIN_L)
    p = position_distribution(state)
    assert p[state.index_of(0)] == 1.0
    assert p.sum() == pytest.approx(1.0)


def test_one_step_distribution_is_half_half():
    n, o = lattice_for(1)
    out = evolve(delta_state(n, o, 0, COIN_L), 1, ordered_field(1, n, o))
    assert dist_by_position(out) == pytest.approx({-1: 0.5, 1: 0.5})


@settings(deadline=None, max_examples=25)
@given(
    kind=st.sampled_from(list(DisorderKind)),
    steps=st.integers(1, 12),
    seed=st.integers(0, 2**32 - 1),
)
def test_evolution_invariants_under_any_disorder(kind, steps, seed):
    """Norm, light cone and parity hold for every kind, strength pi."""
    n, o = lattice_for(steps)
    fld = sample_phase_field(
        kind, phi_max=np.pi, phi_static=np.pi, phi_dynamic=np.pi,
        steps=steps, n_sites=n, origin=o, seed=seed,
    )
    out = evolve(delta_state(n, o, 0, COIN_L), steps, fld)
    assert out.norm() == pytest.approx(1.0, abs=1e-12)
    p = position_distribution(out)
    x = out.positions
    assert np.all(p[np.abs(x) > steps] == 0.0)
    assert np.all(p[(x + steps) % 2 == 1] == 0.0)


def test_norm_drift_over_100_steps():
    t = 100
    n, o = lattice_for(t)
    fld = sample_phase_field(DisorderKind.FLUCTUATING, phi_max=np.pi, steps=t, n_sites=n, origin=o, seed=9)
    snaps = evolve(delta_state(n, o, 0, COIN_L), t, fld, record=True)
    worst = max(abs(s.norm() - 1.0) for s in snaps)
    assert worst <= 1e-12


def test_global_phase_shift_of_field_is_invisible():
    import dataclasses

    t = 20
    n, o = lattice_for(t)
    fld = sample_phase_field(DisorderKind.STATIC, phi_max=np.pi, steps=t, n_sites=n, origin=o, seed=4)
    shifted = dataclasses.replace(fld, site_l=fld.site_l + 1.234, site_r=fld.site_r + 1.234)
    a = evolve(delta_state(n, o, 0, COIN_L), t, fld)
    b = evolve(delta_state(n, o, 0, COIN_L), t, shifted)
    np.testing.assert_allclose(position_distribution(a), position_distribution(b), atol=1e-12)


def test_zero_strength_field_equals_ordered_bit_for_bit():
    t = 30
    n, o = lattice_for(t)
    zero = sample_phase_field(DisorderKind.STATIC, phi_max=0.0, steps=t, n_sites=n, origin=o, seed=5)
    a = evolve(delta_state(n, o, 0, COIN_L), t, zero)
    b = evolve(delta_state(n, o, 0, COIN_L), t, ordered_field(t, n, o))
    np.testing.assert_array_equal(a.amplitudes, b.amplitudes)


def test_evolve_matches_explicit_step_loop():
    t = 8
    n, o = lattice_for(t)
    fld = sample_phase_field(DisorderKind.FLUCTUATING, phi_max=2.5, steps=t, n_sites=n, origin=o, seed=6)
    fast = evolve(delta_state(n, o, 0, COIN_R), t, fld)
    slow = path_sum_amplitudes(0, COIN_R, t, fld)  # explicit sum over all 2^t coin histories
    np.testing.assert_allclose(slow.modes, state_to_modes(fast), atol=1e-13)


def test_mode_round_trip():
    rng = np.random.default_rng(0)
    amps = rng.normal(size=(7, 2)) + 1j * rng.normal(size=(7, 2))
    amps /= np.sqrt(np.sum(np.abs(amps) ** 2))
    state = WalkerState(amps, 3)
    back = modes_to_state(state_to_modes(state), state.origin)
    np.testing.assert_array_equal(back.amplitudes, state.amplitudes)
    assert back.origin == state.origin


def test_modes_to_state_rejects_odd_length():
    with pytest.raises(ValueError):
        modes_to_state(np.zeros(5, dtype=complex), 0)


def test_lattice_for_sizes_the_light_cone():
    n, o = lattice_for(10, (0, 0))
    assert n == 2 * 10 + 3
    out = evolve(delta_state(n, o, 0, COIN_L), 10, ordered_field(10, n, o))
    assert out.norm() == pytest.approx(1.0)


def test_delta_state_rejects_bad_coin():
    with pytest.raises(ValueError):
        delta_state(5, 2, 0, coin=7)
