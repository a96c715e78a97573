import dataclasses
import weakref

import numpy as np
import pytest
from scipy import stats

from dtqw.core import COIN_L, delta_state, evolve, lattice_for
from dtqw.disorder import DisorderKind, FieldBatch, _substream, light_cone_rows, sample_phase_field

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
    a = evolve(delta_state(n, o, 0, COIN_L), steps, FieldBatch([zero]))
    ordered = sample_phase_field(DisorderKind.ORDERED, steps=steps, n_sites=n, origin=o)
    b = evolve(delta_state(n, o, 0, COIN_L), steps, FieldBatch([ordered]))
    np.testing.assert_array_equal(a, b)


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


@pytest.mark.parametrize(
    "kind, strengths",
    [
        (DisorderKind.STATIC, {"phi_max": "3.0"}),
        (DisorderKind.DYNAMIC, {"phi_max": True}),
        (DisorderKind.FLUCTUATING, {"phi_max": 1 + 0j}),
        (DisorderKind.STATIC, {"phi_static": np.bool_(True)}),
        (DisorderKind.COMBINED, {"phi_static": True, "phi_dynamic": "1"}),
        (DisorderKind.COMBINED, {"phi_static": PI, "phi_dynamic": [1.0]}),
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
        {"origin": 4.0},
        {"origin": np.bool_(True)},
        {"origin": 99},
        {"origin": -1},
        {"origin": 9},
        {"seed": True},
        {"seed": 1.0},
        {"seed": None},
        {"seed": -1},
    ],
    ids=lambda g: "-".join(f"{k}={v!r}" for k, v in g.items()),
)
@pytest.mark.parametrize("kind", [DisorderKind.ORDERED, DisorderKind.STATIC], ids=lambda k: k.value)
def test_bad_geometry_or_seed_rejected_before_any_draw(kind, geometry, monkeypatch):
    # int() once ran steps=2.5 as 2 steps and seed=True as seed 1, and accepted origin=99 on 9 sites
    monkeypatch.setattr("dtqw.disorder._substream", lambda *_: pytest.fail("drew before rejecting"))
    args = {"steps": 4, "n_sites": 9, "origin": 4, "seed": 0, **geometry}
    with pytest.raises(ValueError):
        sample_phase_field(kind, phi_max=PI, **args)


@pytest.mark.parametrize(
    "kind, strengths",
    [
        (DisorderKind.ORDERED, {"phi_max": "garbage"}),
        (DisorderKind.ORDERED, {"phi_static": 7.0}),
        (DisorderKind.STATIC, {"phi_max": PI, "phi_dynamic": "x"}),
        (DisorderKind.STATIC, {"phi_max": PI, "phi_dynamic": -0.5}),
        (DisorderKind.DYNAMIC, {"phi_max": PI, "phi_static": True}),
        (DisorderKind.DYNAMIC, {"phi_max": PI, "phi_static": 2 * PI + 1e-6}),
    ],
    ids=["ordered-max-text", "ordered-static-above", "static-dynamic-text", "static-dynamic-negative",
         "dynamic-static-bool", "dynamic-static-above"],
)
def test_unread_strength_is_still_checked_before_any_draw(kind, strengths, monkeypatch):
    # strengths a kind did not read once passed unchecked
    monkeypatch.setattr("dtqw.disorder._substream", lambda *_: pytest.fail("drew before rejecting"))
    with pytest.raises(ValueError, match="must be a real number"):
        make(kind, **strengths)


def test_numpy_integer_geometry_draws_as_python_int():
    plain = sample_phase_field(DisorderKind.STATIC, phi_max=PI, steps=4, n_sites=9, origin=4, seed=7)
    numpy = sample_phase_field(DisorderKind.STATIC, phi_max=PI, steps=np.int64(4), n_sites=np.int32(9),
                               origin=np.int64(4), seed=np.uint32(7))
    np.testing.assert_array_equal(plain.site_l, numpy.site_l)
    assert (numpy.steps, numpy.n_sites, numpy.origin) == (4, 9, 4)


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
    a = evolve(delta_state(n, o, 0, COIN_L), steps, FieldBatch([frozen]))
    b = evolve(delta_state(n, o, 0, COIN_L), steps, FieldBatch([static]))
    np.testing.assert_array_equal(a, b)


def test_combined_with_zero_dynamic_reproduces_static():
    steps = 10
    n, o = lattice_for(steps)
    combined = sample_phase_field(
        DisorderKind.COMBINED, phi_static=PI, phi_dynamic=0.0, steps=steps, n_sites=n, origin=o, seed=21
    )
    static = sample_phase_field(DisorderKind.STATIC, phi_max=PI, steps=steps, n_sites=n, origin=o, seed=21)
    np.testing.assert_array_equal(combined.site_l, static.site_l)
    np.testing.assert_array_equal(combined.site_r, static.site_r)
    a = evolve(delta_state(n, o, 0, COIN_L), steps, FieldBatch([combined]))
    b = evolve(delta_state(n, o, 0, COIN_L), steps, FieldBatch([static]))
    np.testing.assert_array_equal(a, b)


def test_combined_with_zero_static_reproduces_fluctuating():
    steps = 10
    n, o = lattice_for(steps)
    combined = sample_phase_field(
        DisorderKind.COMBINED, phi_static=0.0, phi_dynamic=PI, steps=steps, n_sites=n, origin=o, seed=22
    )
    fluct = sample_phase_field(DisorderKind.FLUCTUATING, phi_max=PI, steps=steps, n_sites=n, origin=o, seed=22)
    np.testing.assert_array_equal(combined.fluct_l, fluct.fluct_l)
    a = evolve(delta_state(n, o, 0, COIN_L), steps, FieldBatch([combined]))
    b = evolve(delta_state(n, o, 0, COIN_L), steps, FieldBatch([fluct]))
    np.testing.assert_array_equal(a, b)


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


@pytest.mark.parametrize("kind", list(DisorderKind), ids=lambda k: k.value)
def test_coin_factors_of_selected_sites_equal_those_cells_of_the_whole_lattice(kind):
    # bit for bit against exp(i phi) of each field's own whole-lattice phases
    fields = [make(kind, steps=6, seed=seed, phi_static=PI, phi_dynamic=1.5) for seed in range(3)]
    batch = FieldBatch(fields)
    n = fields[0].n_sites
    for t in (1, 4, 6):
        whole = np.stack([np.exp(1j * np.asarray(f.step_phases(t))) for f in fields])  # (configs, L/R, n_sites)
        for sites in (slice(None), slice(2, n - 3), slice(3, 4), slice(1, n - 1, 2), slice(2, n - 2, 2)):
            for coin, factor in enumerate(batch.coin_factors(t, sites)):
                want = whole[:, coin, sites]
                assert factor.shape in ((3, 1, want.shape[-1]), (3, 1, 1))  # per site, or one factor for every site
                assert np.array_equal(np.broadcast_to(factor[:, 0], want.shape), want)


@pytest.mark.parametrize("seed", [0, 1, 7, 450, 2**40 + 3])
def test_a_substream_draws_what_the_spawned_child_draws(seed):
    for index in range(3):
        spawned = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed).spawn(3)[index]))
        assert np.array_equal(_substream(seed, index).uniform(size=64), spawned.uniform(size=64))


def packed_selections(first, count, stride, n_sites):
    """Slices of a packed row (first site, count, stride): inside it, then outside it on the lattice."""
    last = first + (count - 1) * stride
    inside = [slice(first, last + 1, stride), slice(first + stride, last + 1 - stride, stride),  # edge-shrunk
              slice(last, last + 1), slice(first, last + 1, 2 * stride), slice(first + stride, last + 1, 2 * stride)]
    if stride == 1:
        inside.append(slice(first + 1, last + 1, 2))
    outside = [slice(first - stride, last + 1, stride), slice(first, last + 1 + stride, stride)]
    if stride == 2:
        outside += [slice(first, last + 2), slice(first + 1, last + 2, 2)]  # both parities, the other parity
    return inside, [sites for sites in outside if 0 <= sites.start and sites.stop <= n_sites]


# array indices of the two starts on a lattice of n_sites: one site, one parity, two parities, and a lattice
# that cuts the rows (fewer sites than the light cone)
@pytest.mark.parametrize("starts, n_sites", [((11, 11), 23), ((9, 13), 23), ((10, 13), 23), ((2, 4), 9)],
                         ids=["one-site", "one-parity", "two-parities", "cut-rows"])
@pytest.mark.parametrize("kind", list(DisorderKind), ids=lambda k: k.value)
def test_packed_coin_factors_equal_those_of_the_whole_tables(kind, starts, n_sites):
    steps = 8
    fields = [sample_phase_field(kind, phi_static=PI, phi_dynamic=1.5, phi_max=2.0, steps=steps, n_sites=n_sites,
                                 origin=starts[0], seed=seed) for seed in range(3)]
    batch = FieldBatch(iter(fields), starts, len(fields))
    firsts, counts, stride = light_cone_rows(steps, n_sites, starts)
    assert stride == (2 if (starts[1] - starts[0]) % 2 == 0 else 1)
    for t in range(1, steps + 1):
        whole = np.stack([np.exp(1j * np.asarray(f.step_phases(t))) for f in fields])  # (configs, L/R, n_sites)
        inside, outside = packed_selections(firsts[t - 1], counts[t - 1], stride, n_sites)
        for sites in inside:
            for coin, factor in enumerate(batch.coin_factors(t, sites)):
                want = whole[:, coin, sites]
                assert factor.shape in ((3, 1, want.shape[-1]), (3, 1, 1))
                assert np.array_equal(np.broadcast_to(factor[:, 0], want.shape), want)
        for sites in outside:
            if kind in (DisorderKind.FLUCTUATING, DisorderKind.COMBINED):
                with pytest.raises(ValueError, match="outside"):
                    batch.coin_factors(t, sites)


def test_light_cone_rows_follow_the_walk():
    # starts 4 and 6 on 11 sites: rows widen by one site a side per step, on one parity, cut at the edges
    firsts, counts, stride = light_cone_rows(6, 11, (4, 6))
    assert stride == 2
    assert firsts.tolist() == [4, 3, 2, 1, 0, 1] and counts.tolist() == [2, 3, 4, 5, 6, 5]
    firsts, counts, stride = light_cone_rows(3, 11, (4, 5))
    assert (firsts.tolist(), counts.tolist(), stride) == ([4, 3, 2], [2, 4, 6], 1)
    firsts, counts, stride = light_cone_rows(3, 11)
    assert (firsts.tolist(), counts.tolist(), stride) == ([0, 0, 0], [11, 11, 11], 1)


def test_a_batch_drops_each_drawn_field_before_drawing_the_next():
    n, o = lattice_for(6)
    alive = []

    def draws():
        for seed in range(4):
            assert all(ref() is None for ref in alive)
            fld = sample_phase_field(DisorderKind.COMBINED, phi_max=PI, steps=6, n_sites=n, origin=o, seed=seed)
            alive.append(weakref.ref(fld))
            yield fld
            del fld

    batch = FieldBatch(draws(), (o, o), 4)
    assert len(alive) == 4
    assert batch.coin_factors(6, slice(o - 5, o + 6, 2))[0].shape == (4, 1, 6)
    with pytest.raises(ValueError, match="got 4 fields"):
        FieldBatch(draws(), (o, o), 5)
