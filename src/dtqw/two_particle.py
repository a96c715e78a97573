"""Exchange-symmetrized two-particle distributions.

Two walkers evolve independently under the same phase field.  Each is a
coin-major amplitude array of shape (2, n_sites), rows (L, R), on one
lattice; over the (site, coin) modes m their amplitudes a(m), b(m) combine
into the symmetrized joint probability

    P(m, m') = |a(m) b(m') +/- a(m') b(m)|^2 / 2

with + for bosonic and - for fermionic exchange symmetry.  The inputs must
be orthogonal (guaranteed when the starts differ in site or coin and both
evolve under one unitary); normalization of P then follows.  The ensemble
runners check this once per chunk and evaluated step.  Symmetrization is
done per pair of coin modes, so the fermionic zero on the mode-level
diagonal is exact while two fermions may still share a site in opposite
coin modes.  ``JointBuilder`` builds the position-level matrices directly
from N x N coin blocks and never forms the (2N) x (2N) mode-level matrix;
that matrix is kept only as a test reference (``tests/mode_reference.py``),
which the blocks reproduce bit for bit.  Walkers from one site live on the
sites x = t (mod 2) at step t; their blocks cover that quarter of the cells.
"""

from __future__ import annotations

import enum
import math
from typing import Sequence

import numpy as np

ORTHOGONALITY_TOL = 1e-10


class ExchangeSymmetry(enum.Enum):
    BOSONIC = "bosonic"
    FERMIONIC = "fermionic"

    @property
    def sign(self) -> int:
        return 1 if self is ExchangeSymmetry.BOSONIC else -1


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

    The scratch arrays grow to the largest (sub)lattice built (1.1 MB for the
    103-site sublattice of 205 sites, 4.4 MB for 205 sites of both parities)
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

    def build(self, a: np.ndarray, b: np.ndarray, syms: Sequence[ExchangeSymmetry]) -> list[np.ndarray]:
        """Position-level symmetrized joint (n_sites x n_sites) of each symmetry in ``syms``.

        ``a`` and ``b`` are the (2, n_sites) amplitude arrays of the two
        walkers.  P(x, y) = sum_{c,d} M_cd(x, y) with coin blocks
        M_cd = |K_cd +/- K_dc^T|^2 / 2 and K_cd = outer(a[c], b[d]).  The
        four K blocks are shared by all symmetries, and M_10 = M_01^T
        exactly.  If both walkers are exactly zero on one parity of site
        index, the blocks cover only the other (each cell is elementwise,
        so the same numbers) and every other cell is +0.0, as squared zeros
        give; the layout still follows the full ``n_sites``.  From two sites
        up the matrices equal the mode-level reference bit for bit, layout
        included; a one-site lattice (t = 0 of a same-site start) holds
        exact delta amplitudes, where every summation order agrees.
        """
        n = a.shape[1]
        cells = _sublattice(a, b)
        # unit-stride rows, so every ufunc runs the loop of a whole-lattice build
        a, b = np.ascontiguousarray(a[:, cells]), np.ascontiguousarray(b[:, cells])
        s = a.shape[1]
        k = self._buffer("k", (2, 2, s, s), np.complex128)
        for c in (0, 1):
            for d in (0, 1):
                np.multiply(a[c, :, None], b[d], out=k[c, d])
        j = self._buffer("j", (s, s), np.complex128)
        parts = j.view(np.float64)  # real and imaginary parts, interleaved
        m = self._buffer("m", (3, s, s), np.float64)
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
            matrix = np.zeros((n, n))
            np.add(m00, m11, out=matrix[cells, cells])
            if n >= F_ORDER_SITES:
                matrix = matrix.T  # M00 and M11 are exactly symmetric: this is the F-order sum
            joints.append(matrix)
        return joints


def _sublattice(a: np.ndarray, b: np.ndarray) -> slice:
    """The sites of the one index parity holding every nonzero amplitude of both walkers, else all sites."""
    for offset in (0, 1):
        if not (a[:, 1 - offset :: 2].any() or b[:, 1 - offset :: 2].any()):
            return slice(offset, None, 2)
    return slice(None)


def marginal_positions(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Single-particle marginal over sites, (|a|^2 + |b|^2) / 2 summed over the coin.

    Identical for both exchange symmetries and equal to any row sum of the
    position-level joint.
    """
    return (0.5 * (np.abs(a) ** 2 + np.abs(b) ** 2)).sum(axis=0)

