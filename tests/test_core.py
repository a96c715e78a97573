import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dtqw.core import (
    COIN_L,
    COIN_R,
    delta_state,
    evolve,
    lattice_for,
    light_cone,
)
from dtqw.disorder import DisorderKind, FieldBatch, PhaseField, sample_phase_field
from dtqw.pathsum import path_sum_amplitudes
from dtqw.scenarios import preset
from channel_reference import channel_positions
from fourier_reference import fourier_walk
from step_reference import evolve_site_major

INV_SQRT2 = 1.0 / np.sqrt(2.0)


def zero_field(steps, n_sites):
    return sample_phase_field(DisorderKind.ORDERED, steps=steps, n_sites=n_sites)


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
    return PhaseField(DisorderKind.FLUCTUATING, steps, n_sites, np.stack([phi_l, phi_r]))


ONE_STEP_ORIGIN = lattice_for(1)[1]


def one_step(coin, phi_l=0.0, phi_r=0.0):
    """One step from x=0 in the given coin state under uniform phases, on a lattice with ``ONE_STEP_ORIGIN``."""
    n, o = lattice_for(1)
    fld = phase_table_field(np.full((1, n), phi_l), np.full((1, n), phi_r))
    [out] = evolve(delta_state(n, o, 0, coin), [1], FieldBatch([fld], (o,)))
    return out


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
    [plain] = evolve(start, [t], FieldBatch([zero_field(t, n)], (o,)))
    third = np.full((t, n), np.pi / 3)
    [tilted] = evolve(start, [t], FieldBatch([phase_table_field(third, third)], (o,)))
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
    [state] = evolve(delta_state(n, o, 0, COIN_L), [6], FieldBatch([fld], (o,)))
    assert norm(state) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("configs, starts", [(1, (1,)), (2, (1, 1))], ids=["single", "batch"])
def test_a_batch_refuses_a_walk_that_overflows_its_lattice(configs, starts):
    # on 3 sites the first step from the middle reaches both edge sites, so the second overflows
    with pytest.raises(ValueError, match="leaves the lattice"):
        FieldBatch([zero_field(2, 3)] * configs, starts)
    assert FieldBatch([zero_field(1, 3)] * configs, starts).starts == starts


def test_stop_zero_yields_the_start():
    n, o = lattice_for(4)
    for start, fld in ((delta_state(n, o, 0, COIN_L), FieldBatch([zero_field(4, n)], (o,))),
                       (walker_pairs(n, o, 3), FieldBatch([zero_field(4, n)] * 3, (o, o)))):
        walk = evolve(start, (0, 0, 4), fld)
        assert np.array_equal(next(walk), start) and np.array_equal(next(walk), start)
        assert not np.array_equal(next(walk), start)


def test_evolve_two_steps_ordered():
    n, o = lattice_for(2)
    [out] = evolve(delta_state(n, o, 0, COIN_L), [2], FieldBatch([zero_field(2, n)], (o,)))
    assert dist_by_position(out, o) == pytest.approx({-2: 0.25, 0: 0.5, 2: 0.25})


def test_evolve_three_steps_ordered():
    n, o = lattice_for(3)
    [out] = evolve(delta_state(n, o, 0, COIN_L), [3], FieldBatch([zero_field(3, n)], (o,)))
    assert dist_by_position(out, o) == pytest.approx({-3: 1 / 8, -1: 5 / 8, 1: 1 / 8, 3: 1 / 8})


def test_position_distribution_delta():
    p = probabilities(delta_state(9, 4, 0, COIN_L))
    assert p[4] == 1.0
    assert p.sum() == pytest.approx(1.0)


def test_one_step_distribution_is_half_half():
    n, o = lattice_for(1)
    [out] = evolve(delta_state(n, o, 0, COIN_L), [1], FieldBatch([zero_field(1, n)], (o,)))
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
        kind, phi_max=np.pi, phi_dynamic=np.pi,
        steps=steps, n_sites=n, seed=seed,
    )
    [out] = evolve(delta_state(n, o, 0, COIN_L), [steps], FieldBatch([fld], (o,)))
    assert norm(out) == pytest.approx(1.0, abs=1e-12)
    p = probabilities(out)
    x = np.arange(n) - o
    assert np.all(p[np.abs(x) > steps] == 0.0)
    assert np.all(p[(x + steps) % 2 == 1] == 0.0)


def test_norm_drift_over_100_steps():
    t = 100
    n, o = lattice_for(t)
    fld = FieldBatch([sample_phase_field(DisorderKind.FLUCTUATING, phi_max=np.pi, steps=t, n_sites=n, seed=9)], (o,))
    worst = 0.0
    for state in evolve(delta_state(n, o, 0, COIN_L), range(1, t + 1), fld):  # checking the norm after each step
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
    [state] = evolve(amps, [t], FieldBatch([zero_field(t, n)], (o,)))
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
    fields = FieldBatch([sample_phase_field(DisorderKind.DYNAMIC, phi_max=2 * np.pi, steps=t, n_sites=n, seed=2003 + i)
                         for i in range(configs)], (o,))
    start = np.broadcast_to(delta_state(n, o, 0, COIN_L), (configs, 1, 2, n))
    [state] = evolve(start, [t], fields)
    p, x = probabilities(state)[:, 0], np.arange(n) - o
    binomial = np.array([math.comb(t, (t + xi) // 2) / 2**t if (t + xi) % 2 == 0 and abs(xi) <= t else 0.0
                         for xi in x])
    spread = p.std(axis=0, ddof=1) / math.sqrt(configs)
    assert np.all(np.abs(p.mean(axis=0) - binomial) <= 5 * spread + 1e-15)
    second = p @ (x * x)  # <x^2> of each configuration
    assert abs(second.mean() - t) <= 5 * second.std(ddof=1) / math.sqrt(configs)


@pytest.mark.parametrize("phi_max", [np.pi / 2, np.pi], ids=["half-pi", "pi"])
@pytest.mark.parametrize("kind", [DisorderKind.DYNAMIC, DisorderKind.FLUCTUATING], ids=lambda k: k.value)
def test_ensemble_mean_walk_follows_the_markov_channel(kind, phi_max):
    """fig4's single walker from (0, L): the mean P(x) of 400 configurations against the averaged channel.

    ``channel_reference`` evolves the configuration-averaged density matrix
    (Brun, Carteret & Ambainis, PRA 67, 032304, 2003), which the fresh
    phases of every step make exact.  Seeds 7000 + i, i < 400.  Each site
    whose standard error, from its sample spread, is above 1e-12 must lie
    within 5 errors of the channel; the other cells (the cone edges and the
    wrong parity, whose spread is rounding) within 1e-12; <x^2> within 4
    errors.  All three bounds were fixed before the first comparison.  The
    largest per-site deviation was 1.9 to 2.8 errors, that of the rounding
    cells 1.4e-13 and that of <x^2> 2.3 errors, on a 2-core Xeon with numpy
    2.4.
    """
    t, configs = preset("fig4").steps, 400
    n, o = lattice_for(t)
    fields = FieldBatch([sample_phase_field(kind, phi_max=phi_max, steps=t, n_sites=n, seed=7000 + i)
                         for i in range(configs)], (o,))
    start = delta_state(n, o, 0, COIN_L)
    [state] = evolve(np.broadcast_to(start, (configs, 1, 2, n)), [t], fields)
    p, x = probabilities(state)[:, 0], np.arange(n) - o
    want = channel_positions(start, kind.value, phi_max, t)
    error = p.std(axis=0, ddof=1) / math.sqrt(configs)
    spread = error > 1e-12
    assert np.all(np.abs(p.mean(axis=0) - want)[spread] <= 5 * error[spread])
    assert np.all(np.abs(p.mean(axis=0) - want)[~spread] <= 1e-12)
    second = p @ (x * x)  # <x^2> of each configuration
    assert abs(second.mean() - want @ (x * x)) <= 4 * second.std(ddof=1) / math.sqrt(configs)


def test_global_phase_shift_of_field_is_invisible():
    import dataclasses

    t = 20
    n, o = lattice_for(t)
    fld = sample_phase_field(DisorderKind.STATIC, phi_max=np.pi, steps=t, n_sites=n, seed=4)
    shifted = dataclasses.replace(fld, phases=fld.phases + 1.234)
    [a] = evolve(delta_state(n, o, 0, COIN_L), [t], FieldBatch([fld], (o,)))
    [b] = evolve(delta_state(n, o, 0, COIN_L), [t], FieldBatch([shifted], (o,)))
    np.testing.assert_allclose(probabilities(a), probabilities(b), atol=1e-12)


def test_zero_strength_field_equals_ordered_bit_for_bit():
    t = 30
    n, o = lattice_for(t)
    zero = sample_phase_field(DisorderKind.STATIC, phi_max=0.0, steps=t, n_sites=n, seed=5)
    [a] = evolve(delta_state(n, o, 0, COIN_L), [t], FieldBatch([zero], (o,)))
    [b] = evolve(delta_state(n, o, 0, COIN_L), [t], FieldBatch([zero_field(t, n)], (o,)))
    np.testing.assert_array_equal(a, b)


def test_evolve_matches_explicit_step_loop():
    t = 8
    n, o = lattice_for(t)
    fld = sample_phase_field(DisorderKind.FLUCTUATING, phi_max=2.5, steps=t, n_sites=n, seed=6)
    [fast] = evolve(delta_state(n, o, 0, COIN_R), [t], FieldBatch([fld], (o,)))
    slow = path_sum_amplitudes(o, COIN_R, t, fld)  # explicit sum over all 2^t coin histories
    np.testing.assert_allclose(slow, fast, atol=1e-13)


def test_lattice_for_sizes_the_light_cone():
    n, o = lattice_for(10, (0, 0))
    assert n == 2 * 10 + 3
    [out] = evolve(delta_state(n, o, 0, COIN_L), [10], FieldBatch([zero_field(10, n)], (o,)))
    assert norm(out) == pytest.approx(1.0)
    for bad in (-1, 2.5, True):  # 2.5 once gave a lattice of 8.0 sites, True that of one step
        with pytest.raises(ValueError, match="steps"):
            lattice_for(bad)
    # (0.5,) once gave (9.0, 3.5), (True, 0) counted True as site 1, () raised from min() and ("3",) TypeError
    for bad in ((0.5,), (True, 0), (2, 2.5), (), ("3",)):
        with pytest.raises(ValueError, match="start site"):
            lattice_for(3, bad)


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
    fld = FieldBatch([zero_field(1, 5)], (2,))
    real = np.zeros((2, 5))
    real[COIN_L, 2] = 1.0  # a real start evolves as complex128, like its complex twin
    [out] = evolve(real, [1], fld)
    [twin] = evolve(delta_state(5, 2, 0), [1], fld)
    assert out.dtype == np.complex128 and np.array_equal(out, twin)
    for shape in ((5,), (3, 5)):
        with pytest.raises(ValueError, match="shape"):
            list(evolve(np.zeros(shape, dtype=np.complex128), [1], fld))


def sampled_fields(kind, steps, seeds, start_sites=(0,)):
    n, _ = lattice_for(steps, start_sites)
    return [
        sample_phase_field(kind, phi_max=2.5, phi_dynamic=1.5, steps=steps,
                           n_sites=n, seed=seed)
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
    n, o = lattice_for(t)
    [out] = evolve(walker_pairs(n, o, 5), [t], FieldBatch(fields, (o, o)))
    for c, fld in enumerate(fields):
        [single] = evolve(walker_pairs(n, o, 1), [t], FieldBatch([fld], (o, o)))
        assert np.array_equal(out[c], single[0])
        for w, coin in enumerate((COIN_L, COIN_R)):
            [alone] = evolve(delta_state(n, o, 0, coin), [t], FieldBatch([fld], (o,)))
            assert alone.shape == (2, n)
            assert np.array_equal(out[c, w], alone)


@pytest.mark.parametrize("kind", [DisorderKind.STATIC, DisorderKind.COMBINED], ids=lambda k: k.value)
def test_batched_evolve_matches_path_sum(kind):
    t = 8
    fields = sampled_fields(kind, t, (3, 4, 5))
    n, o = lattice_for(t)
    [out] = evolve(walker_pairs(n, o, 3), [t], FieldBatch(fields, (o, o)))
    for c, fld in enumerate(fields):
        for w, coin in enumerate((COIN_L, COIN_R)):
            slow = path_sum_amplitudes(o, coin, t, fld)  # explicit sum over all 2^t coin histories
            np.testing.assert_allclose(slow, out[c, w], atol=1e-13)


@pytest.mark.parametrize("kind", list(DisorderKind), ids=lambda k: k.value)
def test_a_walk_through_stops_equals_a_run_to_each_stop_bit_for_bit(kind):
    t = 10
    fields = sampled_fields(kind, t, (1, 2))
    n, o = lattice_for(t)
    batch = FieldBatch(fields, (o, o))
    start = walker_pairs(n, o, 2)
    stops = (0, 1, 4, 4, np.int64(7), t)
    for stop, amps in zip(stops, evolve(start, stops, batch)):
        [alone] = evolve(start, [stop], batch)
        assert np.array_equal(amps, alone), stop


class NoSteps:
    """A field that fails the test if any step reads it."""

    steps = 100  # more than any walk given it reaches

    def coin_factors(self, t):
        pytest.fail(f"stepped to t={t}")


class CountingBatch(FieldBatch):
    """A field batch that records the step of every coin_factors call."""

    def __init__(self, fields, starts):
        super().__init__(fields, starts)
        self.calls = []

    def coin_factors(self, t):
        self.calls.append(t)
        return super().coin_factors(t)


@pytest.mark.parametrize("stops", [[5], [1, 2, 4], [0, 3, 3, 4]])
def test_a_stop_beyond_the_field_steps_is_rejected_before_any_step(stops):
    # a walk to stop 5 on 3-step fields once stepped 3 times and then raised IndexError
    n, o = lattice_for(5)
    batch = CountingBatch([zero_field(3, n)], (o,))
    with pytest.raises(ValueError, match=f"stop {stops[-1]} lies beyond the 3 steps"):
        next(evolve(delta_state(n, o), stops, batch))
    assert batch.calls == []
    [_] = evolve(delta_state(n, o), [3], batch)
    assert batch.calls == [1, 2, 3]


@pytest.mark.parametrize("stops", [[-1], [0, -1], [3, 2], [2, 5, 4], [1.0], [2, 2.5], [True], [0, False], ["1"],
                                   pytest.param(3, id="bare-int"), pytest.param(np.int64(3), id="bare-numpy-int"),
                                   pytest.param(np.array(3), id="0-d-array")])
def test_bad_stops_are_rejected_before_any_step(stops):
    # a bare integer once raised TypeError
    with pytest.raises(ValueError, match="stops"):
        list(evolve(walker_pairs(7, 3, 1), stops, NoSteps()))


@pytest.mark.parametrize("kind", [DisorderKind.STATIC, DisorderKind.DYNAMIC, DisorderKind.FLUCTUATING],
                         ids=lambda k: k.value)
@pytest.mark.parametrize("n_sites", [25, 40, 19])
def test_a_start_on_another_lattice_is_rejected_before_any_step(kind, n_sites):
    # a 25-site walk once read a static 21-site table by its own array indices, and a 40-site walk under a dynamic
    # one died inside step 1 on a non-broadcastable output operand
    batch = CountingBatch([sample_phase_field(kind, phi_max=1.0, steps=3, n_sites=21, seed=0)], (10,))
    with pytest.raises(ValueError, match=f"a start on {n_sites} sites cannot walk on the field's 21 sites"):
        next(evolve(delta_state(n_sites, n_sites // 2), [3], batch))
    assert batch.calls == []


# start sites, and the sites of a start's amplitude, on a 21-site lattice
OFF_CELLS = {"left of one site": ((10,), (10, 9)), "right of one site": ((10,), (10, 11)),
             "between one parity": ((8, 12), (8, 12, 11)), "left of one parity": ((8, 12), (8, 6)),
             "right of two parities": ((8, 11), (11, 12))}


@pytest.mark.parametrize("starts, sites", OFF_CELLS.values(), ids=OFF_CELLS.keys())
@pytest.mark.parametrize("kind", [DisorderKind.STATIC, DisorderKind.COMBINED], ids=lambda k: k.value)
def test_a_start_with_amplitude_off_its_start_cells_is_rejected_before_any_step(kind, starts, sites):
    fields = [sample_phase_field(kind, phi_max=1.0, steps=3, n_sites=21, seed=seed) for seed in range(2)]
    batch = CountingBatch(fields, starts)
    pair = np.zeros((2, 2, 21), dtype=np.complex128)
    pair[0, COIN_L, list(sites[:-1])] = 1.0
    pair[1, COIN_R, sites[-1]] = 1e-300  # however small
    tracemalloc.start()
    with pytest.raises(ValueError, match="amplitude off the cells of its start sites"):
        next(evolve(np.broadcast_to(pair, (10_000, *pair.shape)), [3], batch))
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert batch.calls == [] and peak < 1_000_000  # the check reads views: a copy of the start is 13 MB
    pair[1, COIN_R, sites[-1]] = 0.0
    pair[1, COIN_R, starts[-1]] = 1.0
    # between two starts of one parity lie cells of their light cone: a start may fill them
    pair[1, COIN_L, (starts[0] + starts[-1]) // 2] = 1.0
    [_] = evolve(np.broadcast_to(pair, (2, *pair.shape)), [3], batch)
    assert batch.calls == [1, 2, 3]


def test_an_all_zero_start_yields_zeros_at_every_stop():
    n, o = lattice_for(3)
    start, stops = np.zeros((3, 2, 2, n), dtype=np.complex128), (0, 2, 2, 3)
    outs = [amps.copy() for amps in evolve(start, stops, FieldBatch([zero_field(3, n)] * 3, (o, o)))]
    assert len(outs) == len(stops) and all(np.array_equal(amps, start) for amps in outs)


@pytest.mark.parametrize("batch", [False, True], ids=["single", "batch"])
def test_each_stop_yields_a_read_only_view_shaped_like_the_start(batch):
    n, o = lattice_for(3)
    start = walker_pairs(n, o, 2) if batch else delta_state(n, o, 0, COIN_L)
    for amps in evolve(start, (0, 1, 3), FieldBatch([zero_field(3, n)] * (2 if batch else 1), (o,))):
        assert amps.shape == start.shape and not amps.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            amps[..., o] = 1.0


def test_field_batch_rejects_mixed_fields():
    static, o = sampled_fields(DisorderKind.STATIC, 4, (0,)), lattice_for(4)[1]
    with pytest.raises(ValueError):
        FieldBatch(static + sampled_fields(DisorderKind.DYNAMIC, 4, (0,)), (o,))
    with pytest.raises(ValueError):
        FieldBatch(static + sampled_fields(DisorderKind.STATIC, 5, (0,)), (o,))
    with pytest.raises(IndexError):
        FieldBatch(static, (o,)).coin_factors(5)


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


def site_major_starts(n, o, width):
    """label: (start, its start sites) of the starts the engine is checked on against the site-major step."""
    span = range(o - width, o + width + 1)
    return {
        "one site": (walker_pairs(n, o, 5), (o, o)),
        "two parities": (other_parity_pairs(n, o, 5), (o, o + 1)),
        "dense": (dense_pairs(n, o, 5, width, 1, seed=1), span),
        "dense, one parity": (dense_pairs(n, o, 5, width, 2, seed=2), span[::2]),
        "all zero": (np.zeros((5, 2, 2, n), dtype=np.complex128), (o,)),
    }


@pytest.mark.parametrize("kind", list(DisorderKind), ids=lambda k: k.value)
def test_evolve_equals_the_site_major_step_bit_for_bit(kind):
    # the coin-major step of the light cone against the site-major step of every site
    t_max, width = 50, 4
    fields = sampled_fields(kind, t_max, range(5), (-width, width))
    n, o = lattice_for(t_max, (-width, width))
    starts = {"one site, one walker": (delta_state(n, o, 0, COIN_R), (o,)), **site_major_starts(n, o, width)}
    for label, (start, sites) in starts.items():
        configs = fields[:len(start) if start.ndim == 4 else 1]
        batch, reference = FieldBatch(configs, sites), site_major(start)
        for t in (0, 1, 2, 3, t_max):
            [out] = evolve(start, [t], batch)
            assert out.shape == start.shape
            assert np.array_equal(site_major(out), evolve_site_major(reference, t, configs)), (label, t)


@pytest.mark.parametrize("kind", [DisorderKind.STATIC, DisorderKind.COMBINED], ids=lambda k: k.value)
def test_a_walk_through_stops_equals_the_site_major_step_at_every_stop(kind):
    t_max, width = 30, 4
    fields = sampled_fields(kind, t_max, range(5), (-width, width))
    n, o = lattice_for(t_max, (-width, width))
    stops = (0, 1, 2, 5, 6, 17, t_max)
    for label, (start, sites) in site_major_starts(n, o, width).items():
        reference = site_major(start)
        for t, amps in zip(stops, evolve(start, stops, FieldBatch(fields, sites))):
            assert np.array_equal(site_major(amps), evolve_site_major(reference, t, fields)), (label, t)


def test_light_cone_stride_is_one_when_any_start_differs_in_parity_from_the_lowest():
    # the span's ends 0 and 2 share a parity, but site 1 does not
    assert light_cone(0, [0, 1, 2]) == (0, 2, 1)
    assert light_cone(3, [4, 8, 6]) == (1, 11, 2)
    assert light_cone(2, [5]) == (3, 7, 2)
    assert light_cone(1, (3, 6)) == (2, 7, 1)


@pytest.mark.parametrize("kind", list(DisorderKind), ids=lambda k: k.value)
@pytest.mark.parametrize("layout", ["one site", "one parity", "two parities"])
def test_evolve_accepts_the_tightest_lattice_and_a_batch_refuses_one_site_less(layout, kind):
    # random amplitudes on two starts ``gap`` sites apart, walked ``steps`` steps on hi - lo + 2 steps + 1 sites
    rng = np.random.default_rng([len(layout), list(DisorderKind).index(kind)])
    steps = int(rng.integers(1, 13))
    gap = {"one site": 0, "one parity": 2 * int(rng.integers(1, 4)), "two parities": 2 * int(rng.integers(0, 3)) + 1}
    n, starts = gap[layout] + 2 * steps + 1, [steps, steps + gap[layout]]
    start = np.zeros((3, 2, 2, n), dtype=np.complex128)
    cells = start[..., starts].shape
    start[..., starts] = rng.normal(size=cells) + 1j * rng.normal(size=cells)

    def fields(n_sites):
        return [sample_phase_field(kind, phi_max=2.5, phi_dynamic=1.5, steps=steps,
                                   n_sites=n_sites, seed=seed) for seed in range(3)]

    stops = sorted(rng.integers(0, steps, 2).tolist()) + [steps]
    for t, amps in zip(stops, evolve(start, stops, FieldBatch(fields(n), starts))):
        assert np.array_equal(site_major(amps), evolve_site_major(site_major(start), t, fields(n))), t
    assert amps[..., 0].any() and amps[..., -1].any()  # the last state fills both edge sites
    for fewer in ([site - 1 for site in starts], starts):  # one site less on the left, on the right
        with pytest.raises(ValueError, match=re.escape(f"{steps} steps from sites {fewer} leaves the lattice")):
            FieldBatch(fields(n - 1), fewer)


@pytest.mark.parametrize("kind, seed", [(DisorderKind.ORDERED, 0), (DisorderKind.DYNAMIC, 5)],
                         ids=["ordered", "dynamic"])
def test_evolve_equals_the_momentum_space_walk_at_step_100(kind, seed):
    """Past the path sum's 16 steps: fig5's two walkers at t = 100 against the Fourier reference.

    A field constant in space makes each walk diagonal in momentum; the
    reference reads the phase table as data and shares no code with
    ``core`` or ``disorder``.  The two differed by 1.7e-15 (ordered) and
    5.0e-16 (dynamic, seed 5) on a 2-core Xeon with numpy 2.4.
    """
    cfg = dataclasses.replace(preset("fig5"), disorder=kind, seed=seed)
    n_sites, origin = lattice_for(cfg.steps)
    fld = sample_phase_field(kind, phi_max=cfg.phi_max, steps=cfg.steps, n_sites=n_sites, seed=seed)
    pair = np.stack([delta_state(n_sites, origin, 0, coin) for coin in (COIN_L, COIN_R)])
    [amps] = evolve(pair[None], [cfg.steps], FieldBatch([fld], [origin]))
    np.testing.assert_allclose(amps[0], fourier_walk(pair, fld.phases, cfg.steps), rtol=0, atol=1e-13)
