"""Mode-level two-particle joint: the reference the position builder is checked against.

The package builds position-level joints from coin blocks
(``dtqw.two_particle.JointBuilder``).  This module keeps the direct
construction over (site, coin) modes m = 2*site_index + coin of two
coin-major (2, n_sites) amplitude arrays, flattened site by site with
``a.T.reshape(-1)``,

    P(m, m') = |a(m) b(m') +/- a(m') b(m)|^2 / 2,

whose fermionic diagonal is exactly zero, the coin sum down to positions and
the mode-level marginal.  Tests use it to pin the mode-level invariants and
to check the position builder bit for bit, layout included: the reference's
matrices are C-ordered at every size, like the whole-lattice matrix
``on_lattice`` makes of a block the builder returns.
"""

import numpy as np

from dtqw.two_particle import ExchangeSymmetry


def joint_mode_distribution(a: np.ndarray, b: np.ndarray, sym: ExchangeSymmetry) -> np.ndarray:
    """(2N) x (2N) mode-level symmetrized joint of the two walkers."""
    k = np.outer(a.T.reshape(-1), b.T.reshape(-1))
    # C order at every size: numpy 2.4 itself lays this sum out in Fortran order from 64 sites up
    j = np.ascontiguousarray(k + (1 if sym is ExchangeSymmetry.BOSONIC else -1) * k.T)
    return (j.real**2 + j.imag**2) * 0.5


def aggregate_to_positions(mode_joint: np.ndarray) -> np.ndarray:
    """Sum the two coin modes of each site: P(x, y) = sum_{c,c'} P((x,c),(y,c'))."""
    n = mode_joint.shape[0] // 2
    return mode_joint.reshape(n, 2, n, 2).sum(axis=(1, 3))


def on_lattice(quarter: np.ndarray, cells: slice, n_sites: int) -> np.ndarray:
    """The C-ordered n_sites x n_sites joint holding ``quarter`` on ``cells`` x ``cells`` and +0.0 elsewhere."""
    matrix = np.zeros((n_sites, n_sites))
    matrix[cells, cells] = quarter
    return matrix


def marginal(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Single-particle marginal over modes, (|a|^2 + |b|^2) / 2.

    Identical for both exchange symmetries and equal to any row sum of the
    mode-level joint.
    """
    return 0.5 * (np.abs(a.T.reshape(-1)) ** 2 + np.abs(b.T.reshape(-1)) ** 2)
