import dataclasses

import numpy as np
import pytest

from dtqw.core import COIN_L, COIN_R, delta_state, evolve, lattice_for
from dtqw.disorder import DisorderKind, FieldBatch, sample_phase_field
from dtqw.pathsum import STEP_CAP, compare, path_sum_amplitudes, position_probabilities

INV_SQRT2 = 1.0 / np.sqrt(2.0)


def zero_field(steps, n_sites, origin):
    return sample_phase_field(DisorderKind.ORDERED, steps=steps, n_sites=n_sites, origin=origin)


def test_one_step_amplitudes():
    n, o = lattice_for(1)
    res = path_sum_amplitudes(0, COIN_L, 1, zero_field(1, n, o))
    amps = res.amplitudes
    assert amps.shape == (2, n)
    assert amps[COIN_L, o - 1] == pytest.approx(INV_SQRT2)
    assert amps[COIN_R, o + 1] == pytest.approx(INV_SQRT2)
    assert res.path_count == 2


def test_three_step_position_probabilities():
    n, o = lattice_for(3)
    res = path_sum_amplitudes(0, COIN_L, 3, zero_field(3, n, o))
    p = position_probabilities(res)
    expected = {-3: 1 / 8, -1: 5 / 8, 1: 1 / 8, 3: 1 / 8}
    for x, want in expected.items():
        assert p[o + x] == pytest.approx(want)
    assert p.sum() == pytest.approx(1.0, abs=1e-10)


def test_two_steps_with_uniform_static_phases_match_engine():
    steps = 2
    n, o = lattice_for(steps)
    fld = sample_phase_field(DisorderKind.STATIC, phi_max=0.0, steps=steps, n_sites=n, origin=o, seed=0)
    fld = dataclasses.replace(fld, phases=np.stack([np.full((1, n), np.pi), np.zeros((1, n))]))
    res = path_sum_amplitudes(0, COIN_L, steps, fld)
    [state] = evolve(delta_state(n, o, 0, COIN_L), [steps], FieldBatch([fld]))
    assert compare(state, res) <= 1e-12


def test_compare_identical_tables_is_zero():
    n, o = lattice_for(2)
    res = path_sum_amplitudes(0, COIN_L, 2, zero_field(2, n, o))
    assert compare(res.amplitudes.copy(), res) == 0.0


def test_compare_reports_max_deviation():
    n, o = lattice_for(2)
    res = path_sum_amplitudes(0, COIN_L, 2, zero_field(2, n, o))
    perturbed = res.amplitudes.copy()
    perturbed[COIN_R, o] += 1e-3
    assert compare(perturbed, res) == pytest.approx(1e-3)


def test_compare_rejects_dimension_mismatch():
    n, o = lattice_for(2)
    res = path_sum_amplitudes(0, COIN_L, 2, zero_field(2, n, o))
    with pytest.raises(ValueError):
        compare(np.zeros(4, dtype=complex), res)
    with pytest.raises(ValueError):
        compare(res.amplitudes.T, res)  # the site-major layout


def test_step_cap_enforced():
    t = STEP_CAP + 1
    n, o = lattice_for(t)
    with pytest.raises(ValueError):
        path_sum_amplitudes(0, COIN_L, t, zero_field(t, n, o))


def test_norm_is_one_for_any_unitary_field():
    rng = np.random.default_rng(17)
    kinds = list(DisorderKind)
    for _ in range(10):
        kind = kinds[int(rng.integers(len(kinds)))]
        t = int(rng.integers(1, 8))
        n, o = lattice_for(t)
        fld = sample_phase_field(
            kind, phi_max=np.pi, phi_static=np.pi, phi_dynamic=np.pi,
            steps=t, n_sites=n, origin=o, seed=int(rng.integers(2**32)),
        )
        res = path_sum_amplitudes(0, COIN_R, t, fld)
        assert np.sum(np.abs(res.amplitudes) ** 2) == pytest.approx(1.0, abs=1e-10)


def test_engine_matches_path_sum_across_kinds():
    rng = np.random.default_rng(99)
    kinds = list(DisorderKind)
    for case in range(15):
        kind = kinds[case % len(kinds)]
        t = int(rng.integers(1, 9))
        coin = COIN_L if case % 2 else COIN_R
        n, o = lattice_for(t)
        fld = sample_phase_field(
            kind, phi_max=np.pi, phi_static=np.pi, phi_dynamic=np.pi,
            steps=t, n_sites=n, origin=o, seed=int(rng.integers(2**32)),
        )
        [state] = evolve(delta_state(n, o, 0, coin), [t], FieldBatch([fld]))
        assert compare(state, path_sum_amplitudes(0, coin, t, fld)) <= 1e-10
