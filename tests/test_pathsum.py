import dataclasses

import numpy as np
import pytest

from dtqw.core import COIN_L, COIN_R, delta_state, evolve, lattice_for
from dtqw.disorder import DisorderKind, FieldBatch, sample_phase_field
from dtqw.pathsum import STEP_CAP, path_sum_amplitudes

INV_SQRT2 = 1.0 / np.sqrt(2.0)


def zero_field(steps, n_sites):
    return sample_phase_field(DisorderKind.ORDERED, steps=steps, n_sites=n_sites)


def test_one_step_amplitudes():
    n, o = lattice_for(1)
    amps = path_sum_amplitudes(o, COIN_L, 1, zero_field(1, n))
    assert amps.shape == (2, n)
    assert amps[COIN_L, o - 1] == pytest.approx(INV_SQRT2)
    assert amps[COIN_R, o + 1] == pytest.approx(INV_SQRT2)


def test_three_step_position_probabilities():
    n, o = lattice_for(3)
    amps = path_sum_amplitudes(o, COIN_L, 3, zero_field(3, n))
    p = np.abs(amps[0]) ** 2 + np.abs(amps[1]) ** 2
    expected = {-3: 1 / 8, -1: 5 / 8, 1: 1 / 8, 3: 1 / 8}
    for x, want in expected.items():
        assert p[o + x] == pytest.approx(want)
    assert p.sum() == pytest.approx(1.0, abs=1e-10)


def test_two_steps_with_uniform_static_phases_match_engine():
    steps = 2
    n, o = lattice_for(steps)
    fld = sample_phase_field(DisorderKind.STATIC, phi_max=0.0, steps=steps, n_sites=n, seed=0)
    fld = dataclasses.replace(fld, phases=np.stack([np.full((1, n), np.pi), np.zeros((1, n))]))
    slow = path_sum_amplitudes(o, COIN_L, steps, fld)
    [state] = evolve(delta_state(n, COIN_L), [steps], FieldBatch([fld]))
    assert slow.shape == state.shape == (2, n)
    assert np.abs(state - slow).max() <= 1e-12


def test_step_cap_enforced():
    t = STEP_CAP + 1
    n, o = lattice_for(t)
    with pytest.raises(ValueError):
        path_sum_amplitudes(o, COIN_L, t, zero_field(t, n))


@pytest.mark.parametrize("edge", ["left", "right"])
def test_a_light_cone_leaving_the_lattice_is_refused(edge):
    # two steps from site 1 (or n - 2) reach index -1 (or n): a walker must not wrap to the far edge
    n, _ = lattice_for(2)
    inside, outside = (2, 1) if edge == "left" else (n - 3, n - 2)
    amps = path_sum_amplitudes(inside, COIN_L, 2, zero_field(2, n))
    assert abs(amps[COIN_L, inside - 2]) == pytest.approx(0.5) and np.sum(np.abs(amps) ** 2) == pytest.approx(1.0)
    with pytest.raises(ValueError, match="leave the lattice"):
        path_sum_amplitudes(outside, COIN_L, 2, zero_field(2, n))


def test_norm_is_one_for_any_unitary_field():
    rng = np.random.default_rng(17)
    kinds = list(DisorderKind)
    for _ in range(10):
        kind = kinds[int(rng.integers(len(kinds)))]
        t = int(rng.integers(1, 8))
        n, o = lattice_for(t)
        fld = sample_phase_field(
            kind, phi_max=np.pi, phi_dynamic=np.pi,
            steps=t, n_sites=n, seed=int(rng.integers(2**32)),
        )
        amps = path_sum_amplitudes(o, COIN_R, t, fld)
        assert np.sum(np.abs(amps) ** 2) == pytest.approx(1.0, abs=1e-10)


def test_engine_matches_path_sum_across_kinds():
    rng = np.random.default_rng(99)
    kinds = list(DisorderKind)
    for case in range(15):
        kind = kinds[case % len(kinds)]
        t = int(rng.integers(1, 9))
        coin = COIN_L if case % 2 else COIN_R
        n, o = lattice_for(t)
        fld = sample_phase_field(
            kind, phi_max=np.pi, phi_dynamic=np.pi,
            steps=t, n_sites=n, seed=int(rng.integers(2**32)),
        )
        [state] = evolve(delta_state(n, coin), [t], FieldBatch([fld]))
        slow = path_sum_amplitudes(o, coin, t, fld)
        assert slow.shape == state.shape == (2, n)
        assert np.abs(state - slow).max() <= 1e-10


@pytest.mark.parametrize("coin", [COIN_L, COIN_R], ids=["L", "R"])
@pytest.mark.parametrize("kind", [k for k in DisorderKind if k is not DisorderKind.ORDERED], ids=lambda k: k.value)
def test_path_sum_with_swapped_coin_rows_disagrees_with_the_engine(kind, coin):
    # the oracle reads phases[0] as the L and phases[1] as the R phases, as FieldBatch does
    t = 6
    n, o = lattice_for(t)
    fld = sample_phase_field(kind, phi_max=np.pi, phi_dynamic=np.pi, steps=t, n_sites=n, seed=5)
    swapped = dataclasses.replace(fld, phases=fld.phases[::-1])
    [state] = evolve(delta_state(n, coin), [t], FieldBatch([fld]))
    assert np.abs(state - path_sum_amplitudes(o, coin, t, fld)).max() <= 1e-10
    assert np.abs(state - path_sum_amplitudes(o, coin, t, swapped)).max() > 1e-2
