import dataclasses
import weakref

import numpy as np
import pytest
from scipy import stats

from dtqw.core import COIN_L, delta_state, evolve, lattice_for
from dtqw import disorder
from dtqw.disorder import (DisorderKind, FieldBatch, PhaseField, _substream, batch_floats, draw_shapes,
                           light_cone_rows, sample_phase_field, seed_independent, strength_fields)

PI = np.pi


def make(kind, steps=10, seed=0, **strengths):
    n, _ = lattice_for(steps)
    if not strengths:
        strengths = {"phi_max": PI, "phi_dynamic": PI}
    return sample_phase_field(kind, steps=steps, n_sites=n, seed=seed, **strengths)


def table(fld):
    """The (2, steps, n_sites) phases of every coin, step and site, as the walk reads them."""
    return np.broadcast_to(fld.phases, (2, fld.steps, fld.n_sites))


def test_ordered_field_is_all_zero():
    fld = make(DisorderKind.ORDERED)
    assert table(fld).shape == (2, 10, fld.n_sites) and not table(fld).any()


def test_static_is_time_constant():
    fld = make(DisorderKind.STATIC, steps=80)
    o = lattice_for(80)[1]
    for i in (o - 5, o, o + 11):
        assert np.array_equal(table(fld)[:, 2, i], table(fld)[:, 76, i])


def test_dynamic_is_space_constant():
    fld = make(DisorderKind.DYNAMIC)
    o = lattice_for(10)[1]
    for t in (1, 4, 10):
        assert np.array_equal(table(fld)[:, t - 1, o - 5], table(fld)[:, t - 1, o + 9])


def test_fluctuating_varies_in_space_and_time():
    fld = make(DisorderKind.FLUCTUATING, steps=12)
    o = lattice_for(12)[1]
    assert (table(fld)[:, 0, o] != table(fld)[:, 1, o]).all()
    assert (table(fld)[:, 0, o] != table(fld)[:, 0, o + 1]).all()


def test_combined_is_componentwise_sum():
    fld = make(DisorderKind.COMBINED, steps=6, phi_max=PI, phi_dynamic=PI / 2)
    site = make(DisorderKind.STATIC, steps=6, phi_max=PI).phases  # the same seed's static draw
    fluct = make(DisorderKind.FLUCTUATING, steps=6, phi_max=PI / 2).phases
    i = lattice_for(6)[1] + 2
    for t in (1, 3, 6):
        phi_l, phi_r = table(fld)[:, t - 1, i]
        assert phi_l == pytest.approx(site[0, 0, i] + fluct[0, t - 1, i])
        assert phi_r == pytest.approx(site[1, 0, i] + fluct[1, t - 1, i])


def test_zero_strength_matches_ordered_evolution():
    steps = 15
    n, o = lattice_for(steps)
    zero = sample_phase_field(DisorderKind.STATIC, phi_max=0.0, steps=steps, n_sites=n, seed=3)
    [a] = evolve(delta_state(n, o, 0, COIN_L), [steps], FieldBatch([zero], (o,)))
    ordered = sample_phase_field(DisorderKind.ORDERED, steps=steps, n_sites=n)
    [b] = evolve(delta_state(n, o, 0, COIN_L), [steps], FieldBatch([ordered], (o,)))
    np.testing.assert_array_equal(a, b)


def test_sampling_is_deterministic():
    for kind in DisorderKind:
        f1 = make(kind, seed=123)
        f2 = make(kind, seed=123)
        assert f1.phases.shape == f2.phases.shape
        np.testing.assert_array_equal(f1.phases, f2.phases)


def test_different_seeds_differ():
    f1 = make(DisorderKind.STATIC, seed=1)
    f2 = make(DisorderKind.STATIC, seed=2)
    assert not np.array_equal(f1.phases[0], f2.phases[0])


@pytest.mark.parametrize("bad", [-0.1, 2 * PI + 1e-6])
def test_strength_out_of_range_rejected(bad):
    with pytest.raises(ValueError):
        make(DisorderKind.STATIC, phi_max=bad)
    with pytest.raises(ValueError):
        make(DisorderKind.COMBINED, phi_max=PI, phi_dynamic=bad)


@pytest.mark.parametrize(
    "kind, strengths",
    [
        (DisorderKind.STATIC, {"phi_max": "3.0"}),
        (DisorderKind.DYNAMIC, {"phi_max": True}),
        (DisorderKind.FLUCTUATING, {"phi_max": 1 + 0j}),
        (DisorderKind.STATIC, {"phi_max": np.bool_(True)}),
        (DisorderKind.COMBINED, {"phi_max": True, "phi_dynamic": "1"}),
        (DisorderKind.COMBINED, {"phi_max": PI, "phi_dynamic": [1.0]}),
        (DisorderKind.COMBINED, {"phi_max": float("nan")}),
    ],
    ids=["str", "bool", "complex", "numpy-bool", "combined-bool-str", "combined-list", "nan"],
)
def test_mistyped_strength_rejected(kind, strengths):
    # float() once let "3.0" run as 3.0 and True as 1.0
    with pytest.raises(ValueError, match="must be a real number"):
        make(kind, **strengths)


@pytest.mark.parametrize(
    "geometry",
    [
        {"steps": 2.5},
        {"steps": True},
        {"steps": "3"},
        {"steps": -1},
        {"n_sites": 9.0},
        {"n_sites": 0},
        {"seed": True},
        {"seed": 1.0},
        {"seed": None},
        {"seed": -1},
    ],
    ids=lambda g: "-".join(f"{k}={v!r}" for k, v in g.items()),
)
@pytest.mark.parametrize("kind", [DisorderKind.ORDERED, DisorderKind.STATIC], ids=lambda k: k.value)
def test_bad_geometry_or_seed_rejected_before_any_draw(kind, geometry, monkeypatch):
    # int() once ran steps=2.5 as 2 steps and seed=True as seed 1
    monkeypatch.setattr("dtqw.disorder._substream", lambda *_: pytest.fail("drew before rejecting"))
    args = {"steps": 4, "n_sites": 9, "seed": 0, **geometry}
    with pytest.raises(ValueError):
        sample_phase_field(kind, phi_max=PI, **args)


@pytest.mark.parametrize(
    "kind, strengths",
    [
        (DisorderKind.ORDERED, {"phi_max": "garbage"}),
        (DisorderKind.ORDERED, {"phi_dynamic": 7.0}),
        (DisorderKind.STATIC, {"phi_max": PI, "phi_dynamic": "x"}),
        (DisorderKind.STATIC, {"phi_max": PI, "phi_dynamic": -0.5}),
        (DisorderKind.DYNAMIC, {"phi_max": PI, "phi_dynamic": True}),
        (DisorderKind.DYNAMIC, {"phi_max": PI, "phi_dynamic": 2 * PI + 1e-6}),
    ],
    ids=["ordered-max-text", "ordered-dynamic-above", "static-dynamic-text", "static-dynamic-negative",
         "dynamic-dynamic-bool", "dynamic-dynamic-above"],
)
def test_unread_strength_is_still_checked_before_any_draw(kind, strengths, monkeypatch):
    # strengths a kind did not read once passed unchecked
    monkeypatch.setattr("dtqw.disorder._substream", lambda *_: pytest.fail("drew before rejecting"))
    with pytest.raises(ValueError, match="must be a real number"):
        make(kind, **strengths)


def test_numpy_integer_geometry_draws_as_python_int():
    plain = sample_phase_field(DisorderKind.STATIC, phi_max=PI, steps=4, n_sites=9, seed=7)
    numpy = sample_phase_field(DisorderKind.STATIC, phi_max=PI, steps=np.int64(4), n_sites=np.int32(9),
                               seed=np.uint32(7))
    np.testing.assert_array_equal(plain.phases, numpy.phases)
    assert (numpy.steps, numpy.n_sites) == (4, 9) and type(numpy.steps) is type(numpy.n_sites) is int


def test_missing_strength_rejected():
    n, _ = lattice_for(5)
    with pytest.raises(ValueError):
        sample_phase_field(DisorderKind.DYNAMIC, steps=5, n_sites=n, seed=0)
    # every disordered kind reads phi_max (combined for its static phases), whatever phi_dynamic holds
    for kind in (DisorderKind.STATIC, DisorderKind.DYNAMIC, DisorderKind.FLUCTUATING, DisorderKind.COMBINED):
        with pytest.raises(ValueError, match=f"{kind.value} disorder needs phi_max"):
            sample_phase_field(kind, phi_dynamic=PI, steps=5, n_sites=n, seed=0)


def test_strength_fields_name_the_field_each_component_reads():
    K = DisorderKind
    for phi_dynamic in (None, 0.0):
        assert strength_fields(K.ORDERED, phi_dynamic) == {}
        for kind in (K.STATIC, K.DYNAMIC, K.FLUCTUATING):
            assert strength_fields(kind.value, phi_dynamic) == {kind: "phi_max"}
    # combined: the static phases read phi_max, the fluctuating ones phi_dynamic when it is set; only None is unset
    assert list(strength_fields(K.COMBINED).items()) == [(K.FLUCTUATING, "phi_max"), (K.STATIC, "phi_max")]
    for phi_dynamic in (0.0, 2.0):
        assert strength_fields(K.COMBINED, phi_dynamic) == {K.FLUCTUATING: "phi_dynamic", K.STATIC: "phi_max"}


def test_all_stored_phases_within_strength():
    for kind in (DisorderKind.STATIC, DisorderKind.DYNAMIC, DisorderKind.FLUCTUATING):
        fld = make(kind, phi_max=1.3)
        assert fld.phases.min() >= 0.0 and fld.phases.max() <= 1.3
    fld = make(DisorderKind.COMBINED, phi_max=0.4, phi_dynamic=1.1)
    site, fluct = make(DisorderKind.STATIC, phi_max=0.4).phases, make(DisorderKind.FLUCTUATING, phi_max=1.1).phases
    assert np.array_equal(fld.phases, site + fluct)  # the same seed's two draws
    assert site.max() <= 0.4 and fluct.max() <= 1.1


def test_out_of_range_lookup_rejected():
    batch = FieldBatch([make(DisorderKind.STATIC, steps=5)], (lattice_for(5)[1],))
    for t in (0, 6):
        with pytest.raises(IndexError, match="outside 1..5"):
            batch.coin_factors(t)


def test_fluctuating_forced_constant_reproduces_static():
    steps = 12
    n, o = lattice_for(steps)
    fluct = sample_phase_field(DisorderKind.FLUCTUATING, phi_max=PI, steps=steps, n_sites=n, seed=8)
    frozen = dataclasses.replace(fluct, phases=np.tile(fluct.phases[:, :1], (1, steps, 1)))
    static = sample_phase_field(DisorderKind.STATIC, phi_max=PI, steps=steps, n_sites=n, seed=8)
    static = dataclasses.replace(static, phases=fluct.phases[:, :1])
    [a] = evolve(delta_state(n, o, 0, COIN_L), [steps], FieldBatch([frozen], (o,)))
    [b] = evolve(delta_state(n, o, 0, COIN_L), [steps], FieldBatch([static], (o,)))
    np.testing.assert_array_equal(a, b)


def test_combined_with_zero_dynamic_reproduces_static():
    steps = 10
    n, o = lattice_for(steps)
    combined = sample_phase_field(
        DisorderKind.COMBINED, phi_max=PI, phi_dynamic=0.0, steps=steps, n_sites=n, seed=21
    )
    static = sample_phase_field(DisorderKind.STATIC, phi_max=PI, steps=steps, n_sites=n, seed=21)
    np.testing.assert_array_equal(combined.phases[0], np.broadcast_to(static.phases[0], (steps, n)))
    np.testing.assert_array_equal(combined.phases[1], np.broadcast_to(static.phases[1], (steps, n)))
    [a] = evolve(delta_state(n, o, 0, COIN_L), [steps], FieldBatch([combined], (o,)))
    [b] = evolve(delta_state(n, o, 0, COIN_L), [steps], FieldBatch([static], (o,)))
    np.testing.assert_array_equal(a, b)


def test_combined_with_zero_static_reproduces_fluctuating():
    steps = 10
    n, o = lattice_for(steps)
    combined = sample_phase_field(
        DisorderKind.COMBINED, phi_max=0.0, phi_dynamic=PI, steps=steps, n_sites=n, seed=22
    )
    fluct = sample_phase_field(DisorderKind.FLUCTUATING, phi_max=PI, steps=steps, n_sites=n, seed=22)
    np.testing.assert_array_equal(combined.phases[0], fluct.phases[0])
    [a] = evolve(delta_state(n, o, 0, COIN_L), [steps], FieldBatch([combined], (o,)))
    [b] = evolve(delta_state(n, o, 0, COIN_L), [steps], FieldBatch([fluct], (o,)))
    np.testing.assert_array_equal(a, b)


def test_uniform_moment_of_drawn_phases():
    fld = make(DisorderKind.FLUCTUATING, steps=100, seed=77, phi_max=PI)
    draws = fld.phases[0].ravel()[:10_000]
    assert draws.mean() == pytest.approx(PI / 2, abs=0.05)


def test_drawn_phases_pass_ks_uniformity():
    fld = make(DisorderKind.FLUCTUATING, steps=100, seed=13, phi_max=PI)
    draws = fld.phases[1].ravel()[:10_000]
    result = stats.kstest(draws, stats.uniform(loc=0.0, scale=PI).cdf)
    assert result.pvalue > 0.01


def test_tables_are_read_only():
    fld = make(DisorderKind.STATIC)
    with pytest.raises(ValueError):
        fld.phases[0, 0, 0] = 1.0


@pytest.mark.parametrize("seed", [0, 41])
@pytest.mark.parametrize("kind", list(DisorderKind), ids=lambda k: k.value)
def test_phases_are_the_l_then_r_draws_of_each_component_substream(kind, seed):
    # substream 0 draws static phases per site, 1 dynamic phases per step, 2 fluctuating phases per (step, site)
    steps, n = 5, 13
    fld = sample_phase_field(kind, phi_max=1.0, phi_dynamic=1.5, steps=steps, n_sites=n, seed=seed)

    def draws(index, strength, size):
        rng = _substream(seed, index)
        first = rng.uniform(0.0, strength, size)
        return np.stack([first, rng.uniform(0.0, strength, size)])

    want = {
        DisorderKind.ORDERED: lambda: np.zeros((2, 1, 1)),
        DisorderKind.STATIC: lambda: draws(0, 1.0, n)[:, None, :],
        DisorderKind.DYNAMIC: lambda: draws(1, 1.0, steps)[:, :, None],
        DisorderKind.FLUCTUATING: lambda: draws(2, 1.0, (steps, n)),
        DisorderKind.COMBINED: lambda: draws(0, 1.0, n)[:, None, :] + draws(2, 1.5, (steps, n)),
    }[kind]()
    assert fld.phases.shape == want.shape and fld.phases.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "kind, steps, n_sites, shape",
    [
        (DisorderKind.STATIC, 3, 9, None),
        (DisorderKind.FLUCTUATING, 3, 9, (2, 2, 9)),
        (DisorderKind.ORDERED, 3, 9, (2, 3, 9)),
        (DisorderKind.STATIC, 3, 9, (2, 3, 9)),
        (DisorderKind.STATIC, 3, 9, (1, 1, 9)),
        (DisorderKind.DYNAMIC, 3, 9, (2, 3)),
        (DisorderKind.COMBINED, 3, 9, (2, 1, 9)),
    ],
    ids=["static-no-table", "fluctuating-short", "ordered-whole", "static-per-step", "static-one-coin",
         "dynamic-2d", "combined-static-only"],
)
def test_a_field_rejects_a_table_whose_shape_does_not_fit_its_kind(kind, steps, n_sites, shape):
    # both first two once constructed and failed only inside FieldBatch (TypeError, IndexError)
    with pytest.raises(ValueError, match="needs phases of shape"):
        PhaseField(kind, steps, n_sites, None if shape is None else np.zeros(shape))


def test_a_field_takes_the_table_shape_its_kind_draws():
    for kind, shape in [(DisorderKind.ORDERED, (2, 1, 1)), (DisorderKind.STATIC, (2, 1, 9)),
                        (DisorderKind.DYNAMIC, (2, 3, 1)), (DisorderKind.FLUCTUATING, (2, 3, 9)),
                        (DisorderKind.COMBINED, (2, 3, 9))]:
        assert PhaseField(kind, 3, 9, np.zeros(shape)).phases.shape == shape


@pytest.mark.parametrize("seed", [0, 1, 7, 450, 2**40 + 3])
def test_a_substream_draws_what_the_spawned_child_draws(seed):
    for index in range(3):
        spawned = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed).spawn(3)[index]))
        assert np.array_equal(_substream(seed, index).uniform(size=64), spawned.uniform(size=64))


# array indices of the two starts on a lattice of n_sites: one site, one parity, two parities
@pytest.mark.parametrize("starts, n_sites", [((11, 11), 23), ((9, 13), 23), ((10, 13), 23)],
                         ids=["one-site", "one-parity", "two-parities"])
@pytest.mark.parametrize("kind", list(DisorderKind), ids=lambda k: k.value)
def test_coin_factors_are_those_of_the_whole_tables_on_each_row(kind, starts, n_sites):
    # bit for bit against exp(i phi) of each field's own whole table, on the cells of row t - 1
    steps = 8
    fields = [sample_phase_field(kind, phi_dynamic=1.5, phi_max=2.0, steps=steps, n_sites=n_sites,
                                 seed=seed) for seed in range(3)]
    batch = FieldBatch(iter(fields), starts, len(fields))
    firsts, counts, stride = light_cone_rows(steps, n_sites, starts)
    assert batch.starts == starts and stride == (2 if (starts[1] - starts[0]) % 2 == 0 else 1)
    for t in range(1, steps + 1):
        cells = slice(firsts[t - 1], firsts[t - 1] + (counts[t - 1] - 1) * stride + 1, stride)
        whole = np.stack([np.exp(1j * table(f)[:, t - 1]) for f in fields])  # (configs, L/R, n_sites)
        for coin, factor in enumerate(batch.coin_factors(t)):
            assert factor.shape == (3, 1, counts[t - 1])
            assert np.array_equal(factor[:, 0], whole[:, coin, cells])


@pytest.mark.parametrize("starts", [(9, 13), (10, 13)], ids=["one-parity", "two-parities"])
@pytest.mark.parametrize("kind", list(DisorderKind), ids=lambda k: k.value)
def test_batch_floats_counts_what_a_batch_keeps_and_a_field_draws(kind, starts, monkeypatch):
    # the chunk budget is sized from these counts: kept floats per configuration, drawn floats per field
    steps, n_sites = 8, 23
    drawn = []

    class Counting:
        def __init__(self, generator):
            self.generator = generator

        def uniform(self, low, high, size):
            drawn.append(int(np.prod(size)))
            return self.generator.uniform(low, high, size)

    monkeypatch.setattr(disorder, "_substream", lambda seed, index: Counting(_substream(seed, index)))
    fields = [sample_phase_field(kind, phi_dynamic=1.5, phi_max=2.0, steps=steps, n_sites=n_sites,
                                 seed=seed) for seed in range(3)]
    kept, per_field = batch_floats(kind, steps, n_sites, starts)
    store = FieldBatch(fields, starts)._store
    assert len(store) == 3 and kept == store[0].nbytes // 8
    assert per_field == sum(drawn) // 3 == sum(int(np.prod(shape)) for shape in draw_shapes(kind, steps, n_sites))


def test_light_cone_rows_follow_the_walk():
    # starts 6 and 8 on 15 sites: rows widen by one site a side per step, on one parity; the light cone after the
    # sixth step fills sites 0 .. 14
    firsts, counts, stride = light_cone_rows(6, 15, (6, 8))
    assert stride == 2
    assert firsts.tolist() == [6, 5, 4, 3, 2, 1] and counts.tolist() == [2, 3, 4, 5, 6, 7]
    firsts, counts, stride = light_cone_rows(3, 11, (4, 5))
    assert (firsts.tolist(), counts.tolist(), stride) == ([4, 3, 2], [2, 4, 6], 1)


@pytest.mark.parametrize("kind", list(DisorderKind), ids=lambda k: k.value)
def test_a_batch_refuses_starts_whose_light_cone_leaves_the_lattice(kind):
    def batch(n_sites, starts, steps=8):
        fields = [sample_phase_field(kind, phi_dynamic=1.5, phi_max=2.0, steps=steps, n_sites=n_sites,
                                     seed=seed) for seed in range(3)]
        return FieldBatch(iter(fields), starts, len(fields))

    # 8 steps from sites 8 and 10 fill sites 0 .. 18: the tightest lattice holds them, one site less on either side
    # does not, nor does the lattice of 9 sites on which starts 2 and 4 once packed rows cut to the lattice
    assert batch(19, (8, 10)).steps == 8
    for n_sites, starts in ((18, (7, 9)), (18, (8, 10)), (9, (2, 4))):
        with pytest.raises(ValueError, match="leaves the lattice"):
            batch(n_sites, starts)
        with pytest.raises(ValueError, match="leaves the lattice"):
            light_cone_rows(8, n_sites, starts)

    def no_draws():
        pytest.fail("drew a field")
        yield

    # no start once raised from min(), a fractional or string start TypeError, and True walked from site 1
    n, o = lattice_for(8)
    for starts in ((), (o + 0.5,), (True,), ("3",), (o, o + 0.5)):
        with pytest.raises(ValueError, match="start site|entry of starts"):
            FieldBatch(no_draws(), starts, 3)


def test_a_batch_drops_each_drawn_field_before_drawing_the_next():
    n, o = lattice_for(6)
    alive = []

    def draws():
        for seed in range(4):
            assert all(ref() is None for ref in alive)
            fld = sample_phase_field(DisorderKind.COMBINED, phi_max=PI, steps=6, n_sites=n, seed=seed)
            alive.append(weakref.ref(fld))
            yield fld
            del fld

    batch = FieldBatch(draws(), (o, o), 4)
    assert len(alive) == 4
    assert batch.coin_factors(6)[0].shape == (4, 1, 6)
    with pytest.raises(ValueError, match="got 4 fields"):
        FieldBatch(draws(), (o, o), 5)
    with pytest.raises(ValueError, match="got more fields"):  # the fourth field was once dropped without a word
        FieldBatch(draws(), (o, o), 3)
    static = [sample_phase_field(DisorderKind.STATIC, phi_max=PI, steps=6, n_sites=n, seed=seed)
              for seed in range(5)]
    with pytest.raises(ValueError, match="got more fields"):
        FieldBatch(static, (o, o), 3)
    advanced = []

    def recorded():
        advanced.append(True)
        yield from draws()

    # True and 1.0 once raised TypeError from inside numpy and range
    for configs in (True, 1.0, 0):
        with pytest.raises(ValueError, match="configs"):
            FieldBatch(recorded(), (o, o), configs)
    assert not advanced


@pytest.mark.parametrize("kind, strengths, independent", [
    (DisorderKind.ORDERED, {"phi_max": 1.0}, True),
    (DisorderKind.STATIC, {"phi_max": 0.0}, True),
    (DisorderKind.STATIC, {"phi_max": 1.0, "phi_dynamic": 0.0}, False),
    (DisorderKind.DYNAMIC, {"phi_max": 0.0, "phi_dynamic": 1.0}, True),
    (DisorderKind.FLUCTUATING, {"phi_max": 1e-300}, False),
    (DisorderKind.COMBINED, {"phi_max": 0.0}, True),
    (DisorderKind.COMBINED, {"phi_max": 0.0, "phi_dynamic": 0.0}, True),
    (DisorderKind.COMBINED, {"phi_max": 0.0, "phi_dynamic": 1.0}, False),
    (DisorderKind.COMBINED, {"phi_max": 1.0, "phi_dynamic": 0.0}, False),
])
def test_seed_independent_fields_draw_the_same_phases_from_every_seed(kind, strengths, independent):
    assert seed_independent(kind, **strengths) is independent
    n, _ = lattice_for(6)
    tables = [sample_phase_field(kind, **strengths, steps=6, n_sites=n, seed=seed).phases
              for seed in (0, 1)]
    assert np.array_equal(*tables) is independent
