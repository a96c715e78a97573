"""Exchange-symmetrized two-particle distributions.

Two walkers evolve independently under the same phase field; their
single-particle mode amplitudes a(m), b(m) combine into the symmetrized
joint probability

    P(m, m') = |a(m) b(m') +/- a(m') b(m)|^2 / 2

with + for bosonic and - for fermionic exchange symmetry.  The inputs must
be orthogonal (guaranteed when the initial sites differ and both evolve
under one unitary); normalization of P then follows.  Symmetrization is done
per pair of coin modes (site, coin), so the fermionic zero on the mode-level
diagonal is exact while two fermions may still share a site in opposite coin
modes.  ``JointBuilder`` builds the position-level matrices directly from
N x N coin blocks and never forms the (2N) x (2N) mode-level matrix; that
matrix is kept only as a test reference (``tests/mode_reference.py``), which
the blocks reproduce bit for bit.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Sequence

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


#: Site count from which the mode-level reference comes out Fortran-ordered:
#: numpy (2.4) lays out ``k + sign * k.T`` on the (2N) x (2N) outer product in
#: Fortran order from 64 sites up, so the reference sums the coins in the
#: transposed order and returns a Fortran-ordered matrix.  ``JointBuilder``
#: copies both, because the row sums in ``variance_xm`` and
#: ``mutual_information`` add in layout order, and the emitted numbers must
#: not move by a bit.
F_ORDER_SITES = 64


class JointBuilder:
    """Builds position-level joints from coin blocks, reusing its scratch arrays.

    The scratch arrays grow to the largest lattice built (4.4 MB at 205 sites)
    and every call overwrites them.  Fresh temporaries of this size went back
    to the operating system after each call and were page-faulted in again,
    which cost about a third of the build.  One builder serves one thread.
    """

    def __init__(self) -> None:
        self._scratch: dict[str, np.ndarray] = {}

    def _buffer(self, name: str, shape: tuple[int, ...], dtype: type) -> np.ndarray:
        size = math.prod(shape)
        buf = self._scratch.get(name)
        if buf is None or buf.size < size:
            buf = self._scratch[name] = np.empty(size, dtype)
        return buf[:size].reshape(shape)

    def build(self, inp: TwoParticleInput, syms: Sequence[ExchangeSymmetry]) -> list[JointDistribution]:
        """Position-level symmetrized joint of each symmetry in ``syms``.

        P(x, y) = sum_{c,d} M_cd(x, y) with coin blocks
        M_cd = |K_cd +/- K_dc^T|^2 / 2 and K_cd = outer(a[:, c], b[:, d]).  The
        four K blocks are shared by all symmetries, and M_10 = M_01^T exactly.
        From two sites up the matrices equal the mode-level reference bit for
        bit, layout included; a one-site lattice (t = 0 of a same-site start)
        holds exact delta amplitudes, where every summation order agrees.
        """
        n = inp.psi_a.n_sites
        a = np.ascontiguousarray(inp.psi_a.amplitudes.T)
        b = np.ascontiguousarray(inp.psi_b.amplitudes.T)
        k = self._buffer("k", (2, 2, n, n), np.complex128)
        for c in (0, 1):
            for d in (0, 1):
                np.multiply(a[c, :, None], b[d], out=k[c, d])
        j = self._buffer("j", (n, n), np.complex128)
        parts = j.view(np.float64)  # real and imaginary parts, interleaved
        m = self._buffer("m", (3, n, n), np.float64)
        joints = []
        for sym in syms:
            combine = np.add if sym is ExchangeSymmetry.BOSONIC else np.subtract
            for block, (c, d) in zip(m, ((0, 0), (0, 1), (1, 1))):
                combine(k[c, d], k[d, c].T, out=j)
                np.square(parts, out=parts)
                np.add(parts[:, 0::2], parts[:, 1::2], out=block)
                block *= 0.5
            m00, m01, m11 = m
            # (M00 + M01) + (M10 + M11)
            m00 += m01
            m11 += m01.T
            matrix = m00 + m11
            if n >= F_ORDER_SITES:
                matrix = matrix.T  # M00 and M11 are exactly symmetric: this is the F-order sum
            joints.append(JointDistribution(matrix, sym, "position", inp.site_positions))
        return joints


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
