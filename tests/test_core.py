import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dtqw.core import (
    COIN_L,
    COIN_R,
    LatticeOverflowError,
    delta_state,
    evolve,
    lattice_for,
)
from dtqw.disorder import DisorderKind, FieldBatch, PhaseField, sample_phase_field
from dtqw.pathsum import path_sum_amplitudes
from step_reference import evolve_site_major

INV_SQRT2 = 1.0 / np.sqrt(2.0)


def zero_field(steps, n_sites, origin):
    return sample_phase_field(DisorderKind.ORDERED, steps=steps, n_sites=n_sites, origin=origin)


def probabilities(amps):
    """P(x) of every walker, indexed like its amplitudes' sites."""
    return np.abs(amps[..., 0, :]) ** 2 + np.abs(amps[..., 1, :]) ** 2


def norm(amps):
    return float(np.sum(np.abs(amps) ** 2))


def dist_by_position(amps, origin):
    p = probabilities(amps)
    return {int(x): float(v) for x, v in zip(np.arange(len(p)) - origin, p) if v > 1e-15}


def phase_table_field(phi_l, phi_r):
    """A field that gives coin phases phi_l[t-1, i], phi_r[t-1, i] at step t, site i."""
    steps, n_sites = np.shape(phi_l)
    return PhaseField(DisorderKind.FLUCTUATING, steps, n_sites, (n_sites - 1) // 2, fluct_l=phi_l, fluct_r=phi_r)


ONE_STEP_ORIGIN = lattice_for(1)[1]


def one_step(coin, phi_l=0.0, phi_r=0.0):
    """One step from x=0 in the given coin state under uniform phases, on a lattice with ``ONE_STEP_ORIGIN``."""
    n, o = lattice_for(1)
    fld = phase_table_field(np.full((1, n), phi_l), np.full((1, n), phi_r))
    return evolve(delta_state(n, o, 0, coin), 1, FieldBatch([fld]))


def test_phased_coin_pi_flips_second_row():
    out = one_step(COIN_L, 0.0, np.pi)
    assert out[COIN_L, ONE_STEP_ORIGIN - 1] == pytest.approx(INV_SQRT2)
    assert out[COIN_R, ONE_STEP_ORIGIN + 1] == pytest.approx(-INV_SQRT2)


@given(st.floats(-10, 10), st.floats(-10, 10))
def test_phased_coin_unitary(phi_l, phi_r):
    # the two coin states of one site stay orthonormal through a phased step
    a, b = one_step(COIN_L, phi_l, phi_r), one_step(COIN_R, phi_l, phi_r)
    assert norm(a) == pytest.approx(1.0, abs=1e-12) and norm(b) == pytest.approx(1.0, abs=1e-12)
    assert abs(np.vdot(a, b)) < 1e-12


def test_common_phase_is_global():
    # a phase added to both coin rows never changes output probabilities
    t = 12
    n, o = lattice_for(t)
    start = delta_state(n, o, 0, COIN_L)
    plain = evolve(start, t, FieldBatch([zero_field(t, n, o)]))
    third = np.full((t, n), np.pi / 3)
    tilted = evolve(start, t, FieldBatch([phase_table_field(third, third)]))
    np.testing.assert_allclose(probabilities(tilted), probabilities(plain), atol=1e-12)


def test_step_from_L():
    out = one_step(COIN_L)
    amps = {(i - ONE_STEP_ORIGIN, c): out[c, i] for i in range(out.shape[1]) for c in (0, 1)}
    assert amps[(-1, COIN_L)] == pytest.approx(INV_SQRT2)
    assert amps[(1, COIN_R)] == pytest.approx(INV_SQRT2)


def test_step_from_R():
    out = one_step(COIN_R)
    assert out[COIN_L, ONE_STEP_ORIGIN - 1] == pytest.approx(INV_SQRT2)
    assert out[COIN_R, ONE_STEP_ORIGIN + 1] == pytest.approx(-INV_SQRT2)


def test_step_preserves_norm_with_random_phased_coins():
    rng = np.random.default_rng(3)
    n, o = lattice_for(6)
    fld = phase_table_field(rng.uniform(0, 2 * np.pi, (6, n)), rng.uniform(0, 2 * np.pi, (6, n)))
    state = evolve(delta_state(n, o, 0, COIN_L), 6, FieldBatch([fld]))
    assert norm(state) == pytest.approx(1.0, abs=1e-12)


def test_step_overflow_is_an_error():
    # on 3 sites the first step reaches both edge sites, so the second overflows
    with pytest.raises(LatticeOverflowError):
        evolve(delta_state(3, 1, 0, COIN_L), 2, FieldBatch([zero_field(2, 3, 1)]))


def test_evolve_zero_steps_returns_initial():
    n, o = lattice_for(4)
    start = delta_state(n, o, 0, COIN_L)
    out = evolve(start, 0, FieldBatch([zero_field(4, n, o)]))
    np.testing.assert_array_equal(out, start)


def test_evolve_two_steps_ordered():
    n, o = lattice_for(2)
    out = evolve(delta_state(n, o, 0, COIN_L), 2, FieldBatch([zero_field(2, n, o)]))
    assert dist_by_position(out, o) == pytest.approx({-2: 0.25, 0: 0.5, 2: 0.25})


def test_evolve_three_steps_ordered():
    n, o = lattice_for(3)
    out = evolve(delta_state(n, o, 0, COIN_L), 3, FieldBatch([zero_field(3, n, o)]))
    assert dist_by_position(out, o) == pytest.approx({-3: 1 / 8, -1: 5 / 8, 1: 1 / 8, 3: 1 / 8})


def test_position_distribution_delta():
    p = probabilities(delta_state(9, 4, 0, COIN_L))
    assert p[4] == 1.0
    assert p.sum() == pytest.approx(1.0)


def test_one_step_distribution_is_half_half():
    n, o = lattice_for(1)
    out = evolve(delta_state(n, o, 0, COIN_L), 1, FieldBatch([zero_field(1, n, o)]))
    assert dist_by_position(out, o) == pytest.approx({-1: 0.5, 1: 0.5})


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
    out = evolve(delta_state(n, o, 0, COIN_L), steps, FieldBatch([fld]))
    assert norm(out) == pytest.approx(1.0, abs=1e-12)
    p = probabilities(out)
    x = np.arange(n) - o
    assert np.all(p[np.abs(x) > steps] == 0.0)
    assert np.all(p[(x + steps) % 2 == 1] == 0.0)


def test_norm_drift_over_100_steps():
    t = 100
    n, o = lattice_for(t)
    fld = FieldBatch([sample_phase_field(DisorderKind.FLUCTUATING, phi_max=np.pi, steps=t, n_sites=n, origin=o,
                                         seed=9)])
    state, worst = delta_state(n, o, 0, COIN_L), 0.0
    for step in range(t):  # one step at a time, checking the norm after each
        state = evolve(state, 1, fld, start=step)
        worst = max(worst, abs(norm(state) - 1.0))
    assert worst <= 1e-12


@pytest.mark.parametrize("t", [100, 200])
def test_ordered_hadamard_variance_tends_to_nayak_vishwanath_limit(t):
    """Var(x)/t^2 -> 1 - 1/sqrt(2) for the ordered Hadamard walk (Nayak & Vishwanath, quant-ph/0010117).

    The symmetric start (|L> + i|R>)/sqrt(2) keeps <x> = 0.  The finite-t
    correction to Var(x)/t^2 is at most O(1/t), so the tolerance is 1/t
    (1e-2 at t = 100, 5e-3 at t = 200); the measured deviation is about
    0.5/t^2, well inside it.
    """
    n, o = lattice_for(t)
    amps = np.zeros((2, n), dtype=np.complex128)
    amps[:, o] = [INV_SQRT2, 1j * INV_SQRT2]
    state = evolve(amps, t, FieldBatch([zero_field(t, n, o)]))
    p, x = probabilities(state), np.arange(n) - o
    mean = x @ p
    assert abs(mean) <= 1e-12
    assert abs(((x * x) @ p - mean**2) / t**2 - (1.0 - INV_SQRT2)) <= 1.0 / t


def test_dynamic_disorder_at_full_strength_averages_to_the_classical_walk():
    """At phi_max = 2 pi the ensemble-averaged walk under dynamic disorder is the classical binomial walk.

    The step phases phi_L, phi_R are independent and uniform on [0, 2 pi), so
    E[exp(i (phi_L - phi_R))] = 0 removes the L-R coherence after every step;
    the averaged P(x) then obeys p(x, t+1) = [p(x-1, t) + p(x+1, t)] / 2 and
    <x^2> = t (Brun, Carteret & Ambainis, PRA 67, 032304, 2003).  Every site's
    mean over the configurations must lie within 5 standard errors of the
    binomial value, each error taken from that site's sample spread, plus a
    rounding-level floor for the light-cone edges, whose only spread is
    rounding (about 1e-21).
    """
    t, configs = 20, 5000
    n, o = lattice_for(t)
    fields = FieldBatch([sample_phase_field(DisorderKind.DYNAMIC, phi_max=2 * np.pi, steps=t, n_sites=n, origin=o,
                                            seed=2003 + i) for i in range(configs)])
    start = np.broadcast_to(delta_state(n, o, 0, COIN_L), (configs, 1, 2, n))
    state = evolve(start, t, fields)
    p, x = probabilities(state)[:, 0], np.arange(n) - o
    binomial = np.array([math.comb(t, (t + xi) // 2) / 2**t if (t + xi) % 2 == 0 and abs(xi) <= t else 0.0
                         for xi in x])
    spread = p.std(axis=0, ddof=1) / math.sqrt(configs)
    assert np.all(np.abs(p.mean(axis=0) - binomial) <= 5 * spread + 1e-15)
    second = p @ (x * x)  # <x^2> of each configuration
    assert abs(second.mean() - t) <= 5 * second.std(ddof=1) / math.sqrt(configs)


def test_global_phase_shift_of_field_is_invisible():
    import dataclasses

    t = 20
    n, o = lattice_for(t)
    fld = sample_phase_field(DisorderKind.STATIC, phi_max=np.pi, steps=t, n_sites=n, origin=o, seed=4)
    shifted = dataclasses.replace(fld, site_l=fld.site_l + 1.234, site_r=fld.site_r + 1.234)
    a = evolve(delta_state(n, o, 0, COIN_L), t, FieldBatch([fld]))
    b = evolve(delta_state(n, o, 0, COIN_L), t, FieldBatch([shifted]))
    np.testing.assert_allclose(probabilities(a), probabilities(b), atol=1e-12)


def test_zero_strength_field_equals_ordered_bit_for_bit():
    t = 30
    n, o = lattice_for(t)
    zero = sample_phase_field(DisorderKind.STATIC, phi_max=0.0, steps=t, n_sites=n, origin=o, seed=5)
    a = evolve(delta_state(n, o, 0, COIN_L), t, FieldBatch([zero]))
    b = evolve(delta_state(n, o, 0, COIN_L), t, FieldBatch([zero_field(t, n, o)]))
    np.testing.assert_array_equal(a, b)


def test_evolve_matches_explicit_step_loop():
    t = 8
    n, o = lattice_for(t)
    fld = sample_phase_field(DisorderKind.FLUCTUATING, phi_max=2.5, steps=t, n_sites=n, origin=o, seed=6)
    fast = evolve(delta_state(n, o, 0, COIN_R), t, FieldBatch([fld]))
    slow = path_sum_amplitudes(0, COIN_R, t, fld)  # explicit sum over all 2^t coin histories
    np.testing.assert_allclose(slow.amplitudes, fast, atol=1e-13)


def test_lattice_for_sizes_the_light_cone():
    n, o = lattice_for(10, (0, 0))
    assert n == 2 * 10 + 3
    out = evolve(delta_state(n, o, 0, COIN_L), 10, FieldBatch([zero_field(10, n, o)]))
    assert norm(out) == pytest.approx(1.0)


def test_delta_state_rejects_bad_coin():
    with pytest.raises(ValueError):
        delta_state(5, 2, 0, coin=7)


def test_delta_state_rejects_a_position_one_past_either_edge():
    # the lattice of 5 sites with origin 2 holds x = -2 .. 2; a negative index must not wrap to the far edge
    assert delta_state(5, 2, -2)[COIN_L, 0] == 1.0 and delta_state(5, 2, 2)[COIN_L, 4] == 1.0
    for x in (3, -3):
        with pytest.raises(IndexError):
            delta_state(5, 2, x)


def test_evolve_takes_plain_arrays_and_rejects_other_shapes():
    fld = FieldBatch([zero_field(1, 5, 2)])
    real = np.zeros((2, 5))
    real[COIN_L, 2] = 1.0  # a real start evolves as complex128, like its complex twin
    out = evolve(real, 1, fld)
    assert out.dtype == np.complex128 and np.array_equal(out, evolve(delta_state(5, 2, 0), 1, fld))
    for shape in ((5,), (3, 5)):
        with pytest.raises(ValueError, match="shape"):
            evolve(np.zeros(shape, dtype=np.complex128), 1, fld)


def sampled_fields(kind, steps, seeds, start_sites=(0,)):
    n, o = lattice_for(steps, start_sites)
    return [
        sample_phase_field(kind, phi_max=2.5, phi_static=np.pi, phi_dynamic=1.5, steps=steps,
                           n_sites=n, origin=o, seed=seed)
        for seed in seeds
    ]


def walker_pairs(n, o, count):
    """(count, 2, 2, n) batch: walker A in coin L, walker B in coin R, both at x=0."""
    pair = np.stack([delta_state(n, o, 0, COIN_L), delta_state(n, o, 0, COIN_R)])
    return np.repeat(pair[None], count, axis=0)


@pytest.mark.parametrize("kind", list(DisorderKind), ids=lambda k: k.value)
def test_batched_evolve_equals_each_walker_bit_for_bit(kind):
    # the determinism contract: a batch of C equals C batches of one, and one walker alone
    t = 12
    fields = sampled_fields(kind, t, range(5))
    n, o = fields[0].n_sites, fields[0].origin
    out = evolve(walker_pairs(n, o, 5), t, FieldBatch(fields))
    for c, fld in enumerate(fields):
        single = evolve(walker_pairs(n, o, 1), t, FieldBatch([fld]))
        assert np.array_equal(out[c], single[0])
        for w, coin in enumerate((COIN_L, COIN_R)):
            alone = evolve(delta_state(n, o, 0, coin), t, FieldBatch([fld]))
            assert alone.shape == (2, n)
            assert np.array_equal(out[c, w], alone)


@pytest.mark.parametrize("kind", [DisorderKind.STATIC, DisorderKind.COMBINED], ids=lambda k: k.value)
def test_batched_evolve_matches_path_sum(kind):
    t = 8
    fields = sampled_fields(kind, t, (3, 4, 5))
    n, o = fields[0].n_sites, fields[0].origin
    out = evolve(walker_pairs(n, o, 3), t, FieldBatch(fields))
    for c, fld in enumerate(fields):
        for w, coin in enumerate((COIN_L, COIN_R)):
            slow = path_sum_amplitudes(0, coin, t, fld)  # explicit sum over all 2^t coin histories
            np.testing.assert_allclose(slow.amplitudes, out[c, w], atol=1e-13)


def test_evolve_in_segments_equals_one_run():
    t = 10
    fields = sampled_fields(DisorderKind.FLUCTUATING, t, (1, 2))
    batch = FieldBatch(fields)
    start = walker_pairs(fields[0].n_sites, fields[0].origin, 2)
    mid = evolve(start, 4, batch)
    split = evolve(mid, t - 4, batch, start=4)
    assert np.array_equal(split, evolve(start, t, batch))


def test_batched_overflow_is_an_error():
    batch = FieldBatch([zero_field(2, 3, 1), zero_field(2, 3, 1)])
    with pytest.raises(LatticeOverflowError):
        evolve(walker_pairs(3, 1, 2), 2, batch)


def test_field_batch_rejects_mixed_fields():
    static = sampled_fields(DisorderKind.STATIC, 4, (0,))
    with pytest.raises(ValueError):
        FieldBatch(static + sampled_fields(DisorderKind.DYNAMIC, 4, (0,)))
    with pytest.raises(ValueError):
        FieldBatch(static + sampled_fields(DisorderKind.STATIC, 5, (0,)))
    with pytest.raises(IndexError):
        FieldBatch(static).coin_factors(5, slice(None))


def site_major(amplitudes):
    return np.swapaxes(amplitudes, -1, -2)


def dense_pairs(n, o, count, width, stride, seed):
    """(count, 2, 2, n) batch of random amplitudes on every ``stride``-th site of x in [-width, width]."""
    rng = np.random.default_rng(seed)
    amps = np.zeros((count, 2, 2, n), dtype=np.complex128)
    sites = slice(o - width, o + width + 1, stride)
    cells = amps[..., sites].shape
    amps[..., sites] = rng.normal(size=cells) + 1j * rng.normal(size=cells)
    return amps


def other_parity_pairs(n, o, count):
    """(count, 2, 2, n) batch: walker A in coin L at x=0, walker B in coin R at x=1."""
    pair = np.stack([delta_state(n, o, 0, COIN_L), delta_state(n, o, 1, COIN_R)])
    return np.repeat(pair[None], count, axis=0)


@pytest.mark.parametrize("kind", list(DisorderKind), ids=lambda k: k.value)
def test_evolve_equals_the_site_major_step_bit_for_bit(kind):
    # the coin-major step of the reachable span against the site-major step of every site
    t_max, width = 50, 4
    fields = sampled_fields(kind, t_max, range(5), (-width, width))
    n, o = fields[0].n_sites, fields[0].origin
    batch = FieldBatch(fields)
    starts = {
        "one site, one walker": (delta_state(n, o, 0, COIN_R), FieldBatch(fields[:1])),
        "one site": (walker_pairs(n, o, 5), batch),
        "two parities": (other_parity_pairs(n, o, 5), batch),
        "dense": (dense_pairs(n, o, 5, width, 1, seed=1), batch),
        "dense, one parity": (dense_pairs(n, o, 5, width, 2, seed=2), batch),
        "all zero": (np.zeros((5, 2, 2, n), dtype=np.complex128), batch),
    }
    for label, (start, fld) in starts.items():
        reference = site_major(start)
        for t in (0, 1, 2, 3, t_max):
            out = evolve(start, t, fld)
            assert out.shape == start.shape
            assert np.array_equal(site_major(out), evolve_site_major(reference, t, fld)), (label, t)
        mid = evolve(start, 3, fld)
        split = evolve(evolve(mid, 20, fld, start=3), t_max - 23, fld, start=23)
        assert np.array_equal(site_major(split), evolve_site_major(reference, t_max, fld)), label


def step_in_one_buffer_pair(start, fld, stops):
    """The state at each of ``stops``, stepped as a chunk runner does: in one state buffer and one spare.

    The spare starts out holding NaN, so a cell that evolve reads before writing shows.
    """
    state, spare, t = start.copy(), np.full_like(start, np.nan), 0
    for stop in stops:
        held = state
        state = evolve(state, stop - t, fld, start=t, spare=spare)
        assert state is (spare if held.any() and (stop - t) % 2 else held)
        if state is spare:
            spare = held
        t = stop
        yield state.copy()


@pytest.mark.parametrize("kind", [DisorderKind.STATIC, DisorderKind.COMBINED], ids=lambda k: k.value)
def test_evolve_in_one_buffer_pair_equals_the_site_major_step_at_every_stop(kind):
    t_max, width = 30, 4
    fields = sampled_fields(kind, t_max, range(5), (-width, width))
    n, o = fields[0].n_sites, fields[0].origin
    batch, stops = FieldBatch(fields), (0, 1, 2, 5, 6, 17, t_max)
    starts = {
        "one site": walker_pairs(n, o, 5),
        "two parities": other_parity_pairs(n, o, 5),
        "dense, one parity": dense_pairs(n, o, 5, width, 2, seed=3),
        "all zero": np.zeros((5, 2, 2, n), dtype=np.complex128),
    }
    for label, start in starts.items():
        reference = site_major(start)
        for t, amps in zip(stops, step_in_one_buffer_pair(start, batch, stops)):
            assert np.array_equal(site_major(amps), evolve_site_major(reference, t, batch)), (label, t)


def test_a_span_shrunk_by_cancellation_leaves_nothing_stale_in_the_spare():
    # (1, -1)/sqrt(2) at site 1 sends nothing to site 0, so the next call steps only site 2, and the spare still
    # holds the start's R amplitude at site 1, where that step writes no R amplitude
    n, steps = 12, 4
    amps = np.zeros((1, 1, 2, n), dtype=np.complex128)
    amps[..., 1] = [INV_SQRT2, -INV_SQRT2]
    fld = FieldBatch([zero_field(steps, n, 1)])
    stops = (1, 2, 3)
    for t, got in zip(stops, step_in_one_buffer_pair(amps, fld, stops)):
        assert np.array_equal(site_major(got), evolve_site_major(site_major(amps), t, fld))


def test_a_spare_of_another_shape_is_rejected():
    fld = FieldBatch([zero_field(2, 7, 3)])
    with pytest.raises(ValueError, match="spare"):
        evolve(walker_pairs(7, 3, 1), 2, fld, spare=np.zeros((2, 2, 2, 7), dtype=np.complex128))
    with pytest.raises(ValueError, match="spare"):
        evolve(delta_state(7, 3, 0, COIN_L), 2, fld, spare=np.zeros((2, 7), dtype=np.complex128))
    with pytest.raises(ValueError, match="spare"):  # the batch itself is a buffer, so it must be complex128 too
        evolve(walker_pairs(7, 3, 1).real, 2, fld, spare=np.zeros((1, 2, 2, 7), dtype=np.complex128))


@pytest.mark.parametrize("parities", [1, 2])
def test_an_edge_cell_zero_by_cancellation_is_no_overflow(parities):
    # (1, -1)/sqrt(2) at site 1 sends nothing to site 0: the first step reaches the edge, the second must not raise
    # or wrap; the third step fills site 0, so the fourth overflows, as in the reference
    n, steps = 12, 4
    amps = np.zeros((2, n), dtype=np.complex128)
    amps[:, 1] = [INV_SQRT2, -INV_SQRT2]
    if parities == 2:
        amps[COIN_L, 4] = 0.5  # span two parities: every site of the span steps
    fld = FieldBatch([zero_field(steps, n, 1)])
    for t in (1, 2, 3):
        out = evolve(amps, t, fld)
        assert np.array_equal(site_major(out), evolve_site_major(site_major(amps), t, fld))
        assert not out[:, -1].any()
    with pytest.raises(LatticeOverflowError):
        evolve_site_major(site_major(amps), steps, fld)
    with pytest.raises(LatticeOverflowError):
        evolve(amps, steps, fld)


def check_overflow_in_either_buffer(edge, swaps, batch, parities):
    """The light cone reaches the edge site after ``swaps`` steps; the next step must raise.

    With ``parities=2`` a second start one site further in, on the other parity, widens the stepped span.
    """
    n, o, steps = 2 * swaps + 6, swaps + 3, swaps + 1
    x = (swaps if edge == "first" else n - 1 - swaps) - o
    inner = x + 1 if edge == "first" else x - 1
    fields = [sample_phase_field(DisorderKind.STATIC, phi_max=2.5, steps=steps, n_sites=n, origin=o, seed=seed)
              for seed in range(5)]
    if batch:
        pair = np.stack([delta_state(n, o, x, COIN_L), delta_state(n, o, x if parities == 1 else inner, COIN_R)])
        start, fld = np.repeat(pair[None], 5, axis=0), FieldBatch(fields)
    else:
        start, fld = delta_state(n, o, x, COIN_L), FieldBatch(fields[:1])
        if parities == 2:
            start[COIN_R, inner + o] = 1.0
    reached = evolve(start, swaps, fld)
    edge_site = reached[..., 0 if edge == "first" else -1]
    reached_by = np.abs(edge_site).sum(axis=-1)  # per walker; only walker A reaches it from two parities
    assert np.all(reached_by[..., 0] > 0 if batch and parities == 2 else reached_by > 0)
    with pytest.raises(LatticeOverflowError):
        evolve(start, swaps + 1, fld)
    with pytest.raises(LatticeOverflowError):
        evolve(reached, 1, fld, start=swaps)


@pytest.mark.parametrize("batch", [False, True], ids=["single", "batch"])
@pytest.mark.parametrize("swaps", [3, 4], ids=["odd", "even"])
@pytest.mark.parametrize("edge", ["first", "last"])
def test_overflow_is_caught_in_either_buffer(edge, swaps, batch):
    check_overflow_in_either_buffer(edge, swaps, batch, parities=1)


@pytest.mark.parametrize("batch", [False, True], ids=["single", "batch"])
@pytest.mark.parametrize("swaps", [3, 4], ids=["odd", "even"])
@pytest.mark.parametrize("edge", ["first", "last"])
def test_overflow_from_two_parities_is_caught_in_either_buffer(edge, swaps, batch):
    check_overflow_in_either_buffer(edge, swaps, batch, parities=2)
