"""Exchange-symmetrized two-particle distributions.

Two walkers evolve independently under the same phase field; their
single-particle mode amplitudes a(m), b(m) combine into the symmetrized
joint probability

    P(m, m') = |a(m) b(m') +/- a(m') b(m)|^2 / 2

with + for bosonic and - for fermionic exchange symmetry.  The inputs must
be orthogonal (guaranteed when the initial sites differ and both evolve
under one unitary); normalization of P then follows.  Symmetrization is done
at mode level (site, coin); position-level matrices are aggregated from it,
so the fermionic zero diagonal is exact at mode level while two fermions may
still share a site in opposite coin modes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .core import WalkerState, state_to_modes

ORTHOGONALITY_TOL = 1e-10


class ExchangeSymmetry(enum.Enum):
    BOSONIC = "bosonic"
    FERMIONIC = "fermionic"

    @property
    def sign(self) -> int:
        return 1 if self is ExchangeSymmetry.BOSONIC else -1


@dataclass
class TwoParticleInput:
    """Post-evolution amplitudes of the two walkers on a shared lattice."""

    psi_a: WalkerState
    psi_b: WalkerState

    def __post_init__(self) -> None:
        if self.psi_a.n_sites != self.psi_b.n_sites or self.psi_a.origin != self.psi_b.origin:
            raise ValueError("both walkers must live on the same lattice")
        overlap = abs(np.vdot(self.psi_a.amplitudes, self.psi_b.amplitudes))
        if overlap > ORTHOGONALITY_TOL:
            raise ValueError(f"walker amplitudes must be orthogonal, |<a|b>| = {overlap:.3e}")

    def modes(self) -> tuple[np.ndarray, np.ndarray]:
        return state_to_modes(self.psi_a), state_to_modes(self.psi_b)

    @property
    def site_positions(self) -> np.ndarray:
        return self.psi_a.positions


@dataclass
class JointDistribution:
    """Symmetric probability matrix over modes or positions.

    ``positions[k]`` is the signed lattice position labelling row/column k
    (each position appears twice at mode level, once per coin state).
    """

    matrix: np.ndarray
    symmetry: ExchangeSymmetry
    level: str  # "mode" or "position"
    positions: np.ndarray = field(repr=False)

    @property
    def size(self) -> int:
        return self.matrix.shape[0]

    def total(self) -> float:
        return float(self.matrix.sum())


def joint_mode_distribution(inp: TwoParticleInput, sym: ExchangeSymmetry) -> JointDistribution:
    """Mode-level symmetrized joint distribution of the two walkers."""
    a, b = inp.modes()
    k = np.outer(a, b)
    j = k + sym.sign * k.T
    matrix = (j.real**2 + j.imag**2) * 0.5
    return JointDistribution(
        matrix=matrix,
        symmetry=sym,
        level="mode",
        positions=np.repeat(inp.site_positions, 2),
    )


def _aggregate_matrix(matrix: np.ndarray) -> np.ndarray:
    n = matrix.shape[0] // 2
    return matrix.reshape(n, 2, n, 2).sum(axis=(1, 3))


def aggregate_to_positions(joint: JointDistribution) -> JointDistribution:
    """Sum the two coin modes of each site: P(x, y) = sum_{c,c'} P((x,c),(y,c'))."""
    if joint.level != "mode":
        raise ValueError("aggregation expects a mode-level joint")
    return JointDistribution(
        matrix=_aggregate_matrix(joint.matrix),
        symmetry=joint.symmetry,
        level="position",
        positions=joint.positions[::2].copy(),
    )


def joint_position_distribution(inp: TwoParticleInput, sym: ExchangeSymmetry) -> JointDistribution:
    """Shorthand for aggregate_to_positions(joint_mode_distribution(...))."""
    return aggregate_to_positions(joint_mode_distribution(inp, sym))


def marginal(inp: TwoParticleInput) -> np.ndarray:
    """Single-particle marginal over modes, (|a|^2 + |b|^2) / 2.

    Identical for both exchange symmetries and equal to any row sum of the
    mode-level joint.
    """
    a, b = inp.modes()
    return 0.5 * (np.abs(a) ** 2 + np.abs(b) ** 2)


def marginal_positions(inp: TwoParticleInput) -> np.ndarray:
    """Position-level marginal, indexed like ``inp.site_positions``."""
    return marginal(inp).reshape(-1, 2).sum(axis=1)


def ordered_pair_distribution(joint: JointDistribution) -> np.ndarray:
    """Unordered-pair form: doubled below the diagonal, zero above.

    Entry (x, y) with x > y holds 2 P(x, y), the probability of finding the
    pair at {x, y}; the diagonal is kept as is.  Expectations of any
    exchange-symmetric observable agree between this form (summed over
    x >= y) and the full symmetrized matrix.
    """
    m = joint.matrix
    return np.tril(2.0 * m, -1) + np.diag(np.diag(m))


def distinguishable_joint(inp: TwoParticleInput) -> np.ndarray:
    """Mode-level joint for distinguishable particles (no interference term).

    Equals the elementwise average of the bosonic and fermionic joints.
    """
    a, b = inp.modes()
    k2 = np.abs(np.outer(a, b)) ** 2
    return 0.5 * (k2 + k2.T)
