import dataclasses

import numpy as np
import pytest
from scipy import stats

from dtqw.core import COIN_L, delta_state, evolve, lattice_for
from dtqw.disorder import (
    DisorderKind,
    ordered_field,
    sample_phase_field,
)

PI = np.pi


def make(kind, steps=10, seed=0, **strengths):
    n, o = lattice_for(steps)
    if not strengths:
        strengths = {"phi_max": PI, "phi_static": PI, "phi_dynamic": PI}
    return sample_phase_field(kind, steps=steps, n_sites=n, origin=o, seed=seed, **strengths)


def test_ordered_field_is_all_zero():
    fld = make(DisorderKind.ORDERED)
    for t in (1, 5, 10):
        phi_l, phi_r = fld.step_phases(t)
        assert not phi_l.any() and not phi_r.any()


def test_static_is_time_constant():
    fld = make(DisorderKind.STATIC, steps=80)
    for x in (-5, 0, 11):
        assert fld.phases_at(x, 3) == fld.phases_at(x, 77)


def test_dynamic_is_space_constant():
    fld = make(DisorderKind.DYNAMIC)
    for t in (1, 4, 10):
        assert fld.phases_at(-5, t) == fld.phases_at(9, t)


def test_fluctuating_varies_in_space_and_time():
    fld = make(DisorderKind.FLUCTUATING, steps=12)
    assert fld.phases_at(0, 1) != fld.phases_at(0, 2)
    assert fld.phases_at(0, 1) != fld.phases_at(1, 1)


def test_combined_is_componentwise_sum():
    fld = make(DisorderKind.COMBINED, steps=6, phi_static=PI, phi_dynamic=PI / 2)
    i = fld.origin + 2
    for t in (1, 3, 6):
        phi_l, phi_r = fld.phases_at(2, t)
        assert phi_l == pytest.approx(fld.site_l[i] + fld.fluct_l[t - 1][i])
        assert phi_r == pytest.approx(fld.site_r[i] + fld.fluct_r[t - 1][i])


def test_zero_strength_matches_ordered_evolution():
    steps = 15
    n, o = lattice_for(steps)
    zero = sample_phase_field(DisorderKind.STATIC, phi_max=0.0, steps=steps, n_sites=n, origin=o, seed=3)
    a = evolve(delta_state(n, o, 0, COIN_L), steps, zero)
    b = evolve(delta_state(n, o, 0, COIN_L), steps, ordered_field(steps, n, o))
    np.testing.assert_array_equal(a.amplitudes, b.amplitudes)


def test_sampling_is_deterministic():
    for kind in DisorderKind:
        f1 = make(kind, seed=123)
        f2 = make(kind, seed=123)
        for name in ("site_l", "site_r", "step_l", "step_r", "fluct_l", "fluct_r"):
            t1, t2 = getattr(f1, name), getattr(f2, name)
            assert (t1 is None) == (t2 is None)
            if t1 is not None:
                np.testing.assert_array_equal(t1, t2)


def test_different_seeds_differ():
    f1 = make(DisorderKind.STATIC, seed=1)
    f2 = make(DisorderKind.STATIC, seed=2)
    assert not np.array_equal(f1.site_l, f2.site_l)


@pytest.mark.parametrize("bad", [-0.1, 2 * PI + 1e-6])
def test_strength_out_of_range_rejected(bad):
    with pytest.raises(ValueError):
        make(DisorderKind.STATIC, phi_max=bad)
    with pytest.raises(ValueError):
        make(DisorderKind.COMBINED, phi_static=bad, phi_dynamic=PI)


def test_missing_strength_rejected():
    n, o = lattice_for(5)
    with pytest.raises(ValueError):
        sample_phase_field(DisorderKind.DYNAMIC, steps=5, n_sites=n, origin=o, seed=0)
    with pytest.raises(ValueError):
        sample_phase_field(DisorderKind.COMBINED, phi_static=PI, steps=5, n_sites=n, origin=o, seed=0)


def test_all_stored_phases_within_strength():
    for kind in (DisorderKind.STATIC, DisorderKind.DYNAMIC, DisorderKind.FLUCTUATING):
        fld = make(kind, phi_max=1.3)
        for name in ("site_l", "site_r", "step_l", "step_r", "fluct_l", "fluct_r"):
            table = getattr(fld, name)
            if table is not None:
                assert table.min() >= 0.0 and table.max() <= 1.3
    fld = make(DisorderKind.COMBINED, phi_static=0.4, phi_dynamic=1.1)
    assert fld.site_l.max() <= 0.4 and fld.fluct_l.max() <= 1.1


def test_out_of_range_lookup_rejected():
    fld = make(DisorderKind.STATIC, steps=5)
    with pytest.raises(IndexError):
        fld.phases_at(0, 0)
    with pytest.raises(IndexError):
        fld.phases_at(0, 6)
    with pytest.raises(IndexError):
        fld.phases_at(10**6, 1)


def test_fluctuating_forced_constant_reproduces_static():
    steps = 12
    n, o = lattice_for(steps)
    fluct = sample_phase_field(DisorderKind.FLUCTUATING, phi_max=PI, steps=steps, n_sites=n, origin=o, seed=8)
    frozen = dataclasses.replace(
        fluct,
        fluct_l=np.tile(fluct.fluct_l[0], (steps, 1)),
        fluct_r=np.tile(fluct.fluct_r[0], (steps, 1)),
    )
    static = sample_phase_field(DisorderKind.STATIC, phi_max=PI, steps=steps, n_sites=n, origin=o, seed=8)
    static = dataclasses.replace(static, site_l=fluct.fluct_l[0], site_r=fluct.fluct_r[0])
    a = evolve(delta_state(n, o, 0, COIN_L), steps, frozen)
    b = evolve(delta_state(n, o, 0, COIN_L), steps, static)
    np.testing.assert_array_equal(a.amplitudes, b.amplitudes)


def test_combined_with_zero_dynamic_reproduces_static():
    steps = 10
    n, o = lattice_for(steps)
    combined = sample_phase_field(
        DisorderKind.COMBINED, phi_static=PI, phi_dynamic=0.0, steps=steps, n_sites=n, origin=o, seed=21
    )
    static = sample_phase_field(DisorderKind.STATIC, phi_max=PI, steps=steps, n_sites=n, origin=o, seed=21)
    np.testing.assert_array_equal(combined.site_l, static.site_l)
    np.testing.assert_array_equal(combined.site_r, static.site_r)
    a = evolve(delta_state(n, o, 0, COIN_L), steps, combined)
    b = evolve(delta_state(n, o, 0, COIN_L), steps, static)
    np.testing.assert_array_equal(a.amplitudes, b.amplitudes)


def test_combined_with_zero_static_reproduces_fluctuating():
    steps = 10
    n, o = lattice_for(steps)
    combined = sample_phase_field(
        DisorderKind.COMBINED, phi_static=0.0, phi_dynamic=PI, steps=steps, n_sites=n, origin=o, seed=22
    )
    fluct = sample_phase_field(DisorderKind.FLUCTUATING, phi_max=PI, steps=steps, n_sites=n, origin=o, seed=22)
    np.testing.assert_array_equal(combined.fluct_l, fluct.fluct_l)
    a = evolve(delta_state(n, o, 0, COIN_L), steps, combined)
    b = evolve(delta_state(n, o, 0, COIN_L), steps, fluct)
    np.testing.assert_array_equal(a.amplitudes, b.amplitudes)


def test_uniform_moment_of_drawn_phases():
    fld = make(DisorderKind.FLUCTUATING, steps=100, seed=77, phi_max=PI)
    draws = fld.fluct_l.ravel()[:10_000]
    assert draws.mean() == pytest.approx(PI / 2, abs=0.05)


def test_drawn_phases_pass_ks_uniformity():
    fld = make(DisorderKind.FLUCTUATING, steps=100, seed=13, phi_max=PI)
    draws = fld.fluct_r.ravel()[:10_000]
    result = stats.kstest(draws, stats.uniform(loc=0.0, scale=PI).cdf)
    assert result.pvalue > 0.01


def test_tables_are_read_only():
    fld = make(DisorderKind.STATIC)
    with pytest.raises(ValueError):
        fld.site_l[0] = 1.0
