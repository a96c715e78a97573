import numpy as np
import pytest

from dtqw.core import COIN_L, COIN_R, delta_state, evolve, lattice_for
from dtqw.disorder import DisorderKind, FieldBatch, sample_phase_field
from dtqw.observables import joint_entropy, mutual_information, variance_xm
from dtqw.two_particle import ExchangeSymmetry, JointBuilder, joint_factors
from mode_reference import aggregate_to_positions, joint_mode_distribution, marginal, on_lattice

BOS = ExchangeSymmetry.BOSONIC
FER = ExchangeSymmetry.FERMIONIC
SYMS = (BOS, FER)
ORIGIN = 2  # array index of x = 0 in ``delta_pair``


def delta(x, coin):
    """The (2, 6) amplitudes of a walker at position ``x`` with a definite coin state."""
    amps = np.zeros((2, 6), dtype=np.complex128)
    amps[coin, x + ORIGIN] = 1.0
    return amps


def delta_pair(a=(0, COIN_L), b=(1, COIN_R)):
    return delta(*a), delta(*b)


def evolved_pair(kind=DisorderKind.FLUCTUATING, steps=10, seed=5):
    """(a, b, signed positions) of two walkers from the central site's coins L and R, evolved under one field."""
    n, o = lattice_for(steps)
    fld = FieldBatch([sample_phase_field(
        kind, phi_max=np.pi, phi_dynamic=np.pi,
        steps=steps, n_sites=n, seed=seed,
    )])
    [amps_a], [amps_b] = (evolve(delta_state(n, coin), [steps], fld) for coin in (COIN_L, COIN_R))
    return amps_a, amps_b, np.arange(n) - o


def walk_cells(positions, t):
    """The sites x = t (mod 2) of ``positions``, where walkers from one site live at step ``t``."""
    return slice(int(positions[0] + t) % 2, None, 2)


def mode_index(x, coin):
    return 2 * (x + ORIGIN) + coin


def position_joint(a, b, sym):
    return aggregate_to_positions(joint_mode_distribution(a, b, sym))


def position_marginal(a, b):
    """(p_a + p_b) / 2 of the two walkers' ``joint_factors``, the marginal the averaged maps report."""
    p_a, p_b, _, _ = joint_factors(a, b)
    return 0.5 * (p_a + p_b)


def test_delta_pair_joint_is_half_on_each_ordering():
    a, b = delta_pair()
    ma = mode_index(0, COIN_L)
    mb = mode_index(1, COIN_R)
    for sym in (BOS, FER):
        joint = joint_mode_distribution(a, b, sym)
        assert joint[ma, mb] == pytest.approx(0.5)
        assert joint[mb, ma] == pytest.approx(0.5)
        assert joint.sum() == pytest.approx(1.0)
        assert np.count_nonzero(joint) == 2


def test_fermionic_mode_diagonal_is_exactly_zero():
    a, b, _ = evolved_pair(steps=12)
    joint = joint_mode_distribution(a, b, FER)
    assert np.all(np.diag(joint) == 0.0)


def test_joint_normalization_and_symmetry():
    for kind in DisorderKind:
        a, b, _ = evolved_pair(kind=kind, steps=9, seed=3)
        for sym in (BOS, FER):
            joint = joint_mode_distribution(a, b, sym)
            assert joint.sum() == pytest.approx(1.0, abs=1e-12)
            np.testing.assert_allclose(joint, joint.T, atol=1e-15)
            assert joint.min() >= 0.0


def test_aggregation_rebins_mode_deltas():
    pos = position_joint(*delta_pair(), BOS)
    ia, ib = ORIGIN, ORIGIN + 1  # x = 0 and x = 1
    assert pos[ia, ib] == pytest.approx(0.5)
    assert pos[ib, ia] == pytest.approx(0.5)
    assert pos.sum() == pytest.approx(1.0)


def test_aggregation_preserves_total_and_symmetry():
    a, b, _ = evolved_pair(steps=11, seed=9)
    for sym in (BOS, FER):
        mode = joint_mode_distribution(a, b, sym)
        pos = aggregate_to_positions(mode)
        assert pos.sum() == pytest.approx(mode.sum(), abs=1e-12)
        np.testing.assert_allclose(pos, pos.T, atol=1e-15)


def test_fermions_may_share_a_site_in_opposite_coin_modes():
    # same-site start, orthogonal coins: the position diagonal is populated
    a, b = delta_pair(a=(0, COIN_L), b=(0, COIN_R))
    pos = position_joint(a, b, FER)
    assert pos[ORIGIN, ORIGIN] == pytest.approx(1.0)
    assert np.all(np.diag(joint_mode_distribution(a, b, FER)) == 0.0)


def test_marginal_of_delta_pair():
    m = marginal(*delta_pair())
    assert m[mode_index(0, COIN_L)] == pytest.approx(0.5)
    assert m[mode_index(1, COIN_R)] == pytest.approx(0.5)
    assert m.sum() == pytest.approx(1.0)


def test_marginal_equals_row_sums_for_both_symmetries():
    a, b, _ = evolved_pair(steps=13, seed=1)
    m = marginal(a, b)
    for sym in (BOS, FER):
        rows = joint_mode_distribution(a, b, sym).sum(axis=1)
        np.testing.assert_allclose(rows, m, atol=1e-12)
    np.testing.assert_allclose(
        position_marginal(a, b),
        position_joint(a, b, BOS).sum(axis=1),
        atol=1e-12,
    )


def test_ordered_walk_marginal_spreads_ballistically():
    # twin-peak shape: variance far above the classical 2-walker baseline
    a, b, x = evolved_pair(kind=DisorderKind.ORDERED, steps=50)
    m = position_marginal(a, b)
    x = x.astype(float)
    var = float((x * x) @ m - ((x @ m) ** 2))
    assert var > 2 * 50  # single-particle classical variance is t


def orthogonal_pair(rng, n_sites):
    """(a, b, signed positions) of a random orthonormal pair, coin-major like the step engine's."""
    q, _ = np.linalg.qr(rng.normal(size=(2 * n_sites, 2)) + 1j * rng.normal(size=(2 * n_sites, 2)))
    a, b = (np.ascontiguousarray(q[:, w].reshape(n_sites, 2).T) for w in (0, 1))
    return a, b, np.arange(n_sites) - n_sites // 2


def layout(matrix):
    return matrix.flags.c_contiguous, matrix.flags.f_contiguous


def assert_blocks_equal_mode_reference(builder, a, b, positions, cells=slice(None)):
    """Quarters on ``cells``, on the lattice: the same bits, memory layout and observables as the mode-level route."""
    quarters = builder.quarters(a, b, SYMS, cells)
    assert len(quarters) == len(SYMS)
    for sym, quarter in zip(SYMS, quarters):
        joint = on_lattice(quarter, cells, a.shape[1])
        ref = aggregate_to_positions(joint_mode_distribution(a, b, sym))
        assert np.array_equal(joint, ref)
        assert layout(joint) == layout(ref)
        assert variance_xm(joint, positions) == variance_xm(ref, positions)
        for observable in (joint_entropy, mutual_information):
            assert observable(joint) == observable(ref)


def test_joint_builder_equals_mode_reference_on_random_pairs():
    # one builder for every size: its scratch arrays grow and are reused
    rng, builder = np.random.default_rng(2024), JointBuilder()
    for n_sites in [*range(2, 141), 205, 37]:
        assert_blocks_equal_mode_reference(builder, *orthogonal_pair(rng, n_sites))


@pytest.mark.parametrize("kind", list(DisorderKind), ids=lambda k: k.value)
def test_joint_builder_equals_mode_reference_on_evolved_walkers(kind):
    # whole lattice (203 sites) and the light cone (2t + 1 sites, from 1 to 201, across 64), on the walk's parity
    t_max = 100
    n, o = lattice_for(t_max)
    fld = FieldBatch([sample_phase_field(kind, phi_max=np.pi, phi_dynamic=np.pi,
                                         steps=t_max, n_sites=n, seed=17)])
    stops, builder = (0, 1, 10, 31, 32, 33, 60, 100), JointBuilder()
    x = np.arange(n) - o
    walks = (evolve(delta_state(n, coin), stops, fld) for coin in (COIN_L, COIN_R))
    for t, a, b in zip(stops, *walks):
        assert_blocks_equal_mode_reference(builder, a, b, x, walk_cells(x, t))
        cone = slice(o - t, o + t + 1)
        assert_blocks_equal_mode_reference(builder, a[:, cone], b[:, cone], x[cone], walk_cells(x[cone], t))


@pytest.mark.parametrize("kind", list(DisorderKind), ids=lambda k: k.value)
def test_joint_builder_matches_closed_forms(kind):
    """Rank-4 joint and Var(x + y) from single-walker quantities, which share no arithmetic with the blocks.

    For orthogonal walkers a, b with p_a, p_b their position distributions
    and g(x) = sum_c a(x, c) b*(x, c):
    P(x, y) = [p_a(x) p_b(y) + p_b(x) p_a(y) +/- 2 Re g(x) g*(y)] / 2 and
    Var(x + y) = Var_a + Var_b +/- 2 |<a|x|b>|^2.
    """
    for t in (10, 40, 100):
        a, b, x = evolved_pair(kind=kind, steps=t, seed=23)
        x = x.astype(float)
        p_a, p_b = (np.abs(a) ** 2).sum(axis=0), (np.abs(b) ** 2).sum(axis=0)
        g = (a * b.conj()).sum(axis=0)
        x_ab = np.vdot(a, x * b)

        def var(p):
            return (x * x) @ p - (x @ p) ** 2

        cells = walk_cells(x, t)
        for sym, quarter in zip(SYMS, JointBuilder().quarters(a, b, SYMS, cells)):
            joint, sign = on_lattice(quarter, cells, len(x)), 1 if sym is BOS else -1
            rank4 = 0.5 * (np.outer(p_a, p_b) + np.outer(p_b, p_a) + 2 * sign * np.outer(g, g.conj()).real)
            np.testing.assert_allclose(joint, rank4, rtol=1e-12, atol=1e-15)
            closed = var(p_a) + var(p_b) + 2 * sign * abs(x_ab) ** 2
            assert variance_xm(joint, x) == pytest.approx(closed, rel=1e-12)


def assert_built_on(a, b, positions, cells):
    """The builder matches the mode reference on ``cells`` and ran its blocks there alone."""
    builder = JointBuilder()  # fresh: its "k" scratch then holds exactly this build's blocks
    assert_blocks_equal_mode_reference(builder, a, b, positions, cells)
    assert builder._scratch["k"].size == 4 * len(range(a.shape[1])[cells]) ** 2


def light_cone(a, b, positions, lo, hi):
    return a[:, lo:hi], b[:, lo:hi], positions[lo:hi]


@pytest.mark.parametrize("t", [10, 40, 100])
def test_walkers_on_different_parities_take_the_dense_path(t):
    # the partner shifted one site right, built without evolve: at every step one walker sits on each parity
    a, b, x = evolved_pair(steps=t)
    b = np.roll(b, 1, axis=1)  # the last site, beyond the light cone, holds no amplitude to wrap
    assert all(a[:, p::2].any() or b[:, p::2].any() for p in (0, 1))
    assert_built_on(a, b, x, slice(None))
    o = int(np.flatnonzero(x == 0)[0])
    cone = light_cone(a, b, x, o - t, o + t + 2)  # sites -t .. t + 1
    assert_built_on(*cone, slice(None))


def test_whole_lattice_build_at_step_100_holds_a_quarter_of_the_cells():
    a, b, x = evolved_pair(steps=100)
    assert a.shape[1] == 203
    cells = walk_cells(x, 100)
    assert not (a[:, 0::2].any() or b[:, 0::2].any()) and cells == slice(1, None, 2)
    assert_built_on(a, b, x, cells)  # 102 of the 203 sites


@pytest.mark.parametrize("t", [10, 31, 32, 40])
@pytest.mark.parametrize("region", ["lattice", "cone"])
def test_entropy_of_the_quarter_equals_that_of_the_placed_joint(t, region):
    # lattices of 23, 65, 67 and 83 sites and cones of 21, 63, 65 and 81: on both sides of 64 sites
    a, b, x = evolved_pair(steps=t)
    offset = 1
    if region == "cone":
        o = int(np.flatnonzero(x == 0)[0])
        a, b, x = light_cone(a, b, x, o - t, o + t + 1)
        offset = 0
    n, cells = a.shape[1], slice(offset, None, 2)
    quarters = JointBuilder().quarters(a, b, SYMS, cells)
    assert quarters.shape == (len(SYMS), len(range(offset, n, 2)), len(range(offset, n, 2)))
    for sym, quarter in zip(SYMS, quarters):
        ref = aggregate_to_positions(joint_mode_distribution(a, b, sym))
        joint = on_lattice(quarter, cells, n)
        assert np.array_equal(joint, ref) and layout(joint) == layout(ref)
        # the positive cells in the same order, so the entropy sums the same array
        assert np.array_equal(quarter[quarter > 0], ref[ref > 0])
        assert joint_entropy(quarter) == joint_entropy(ref)


@pytest.mark.parametrize("t", [10, 40])  # light cones of 21/22 and 81/82 sites: both sides of 64 sites
@pytest.mark.parametrize("shift", [0, 1], ids=["one-parity", "two-parities"])
def test_grouped_quarters_equal_per_configuration_calls(t, shift):
    # a batch of five configurations' light cones, built in groups of one, two, two cut by a partial third, three
    # and two, and all five, each group's blocks read before the builder's next call overwrites them; walker B is
    # shifted ``shift`` sites right, without evolve, so that by one site it sits on the other parity
    pairs = [evolved_pair(steps=t, seed=seed) for seed in range(5)]
    o = int(np.flatnonzero(pairs[0][2] == 0)[0])
    cone = slice(o - t, o + shift + t + 1)
    a = np.stack([pair[0][:, cone] for pair in pairs])
    b = np.stack([np.roll(pair[1], shift, axis=1)[:, cone] for pair in pairs])
    cells = slice(None, None, 2 - shift)
    want = [JointBuilder().quarters(a[i], b[i], SYMS, cells) for i in range(len(pairs))]
    for groups in ([1] * 5, [2, 2, 1], [3, 2], [5]):
        builder, first = JointBuilder(), 0
        for size in groups:
            out = builder.quarters(a[first:first + size], b[first:first + size], SYMS, cells)
            assert out.shape == (size, *want[0].shape)
            for i, blocks in enumerate(out, first):
                assert np.array_equal(blocks, want[i])
                assert all(layout(block) == layout(one) == (True, False) for block, one in zip(blocks, want[i]))
            first += size
    # after a call on all five, a call on the last two overwrites every cell that the first two's blocks left
    builder = JointBuilder()
    builder.quarters(a, b, SYMS, cells)
    fresh = JointBuilder().quarters(a[3:], b[3:], SYMS, cells)
    assert np.array_equal(builder.quarters(a[3:], b[3:], SYMS, cells), fresh)


@pytest.mark.parametrize("t", [10, 40])
def test_mutual_information_from_the_quarter_equals_that_of_the_placed_joint(t):
    a, b, x = evolved_pair(steps=t)
    cells = walk_cells(x, t)
    for sym, quarter in zip(SYMS, JointBuilder().quarters(a, b, SYMS, cells)):
        joint = on_lattice(quarter, cells, len(x))
        assert mutual_information(joint, quarter) == mutual_information(joint)
