"""Mode-level two-particle joint: the reference the position builder is checked against.

The package builds position-level joints from coin blocks
(``dtqw.two_particle.JointBuilder``).  This module keeps the direct
construction over (site, coin) modes,

    P(m, m') = |a(m) b(m') +/- a(m') b(m)|^2 / 2,

whose fermionic diagonal is exactly zero, and the coin sum down to
positions.  Tests use it to pin the mode-level invariants and to check the
position builder bit for bit, layout included.
"""

import numpy as np

from dtqw.two_particle import ExchangeSymmetry, JointDistribution, TwoParticleInput


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


def aggregate_to_positions(joint: JointDistribution) -> JointDistribution:
    """Sum the two coin modes of each site: P(x, y) = sum_{c,c'} P((x,c),(y,c'))."""
    if joint.level != "mode":
        raise ValueError("aggregation expects a mode-level joint")
    n = joint.matrix.shape[0] // 2
    return JointDistribution(
        matrix=joint.matrix.reshape(n, 2, n, 2).sum(axis=(1, 3)),
        symmetry=joint.symmetry,
        level="position",
        positions=joint.positions[::2].copy(),
    )
