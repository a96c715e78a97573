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
coin modes.  ``JointBuilder.quarters`` builds the position-level joints
directly from N x N coin blocks and never forms the (2N) x (2N) mode-level
matrix; that matrix is kept only as a test reference
(``tests/mode_reference.py``), which the blocks reproduce bit for bit.  The
caller names the cells to build: walkers from one site live on the sites
x = t (mod 2) at step t, a quarter of the cells, and the ensemble runners
take that parity from the light cone, never from the amplitudes.
``placed`` puts a quarter into the whole lattice, the layout that row sums
read; the runners keep quarters until a consumer needs the whole lattice.
"""

from __future__ import annotations

import enum
import math
from typing import Optional, Sequence

import numpy as np

ORTHOGONALITY_TOL = 1e-10


class ExchangeSymmetry(enum.Enum):
    BOSONIC = "bosonic"
    FERMIONIC = "fermionic"


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

    ``quarters`` computes each symmetry's joint on the cells that can be
    nonzero, and ``placed`` puts them into the whole lattice.  The scratch
    arrays grow to the largest set of cells built (1.1 MB for the
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

    def quarters(self, a: np.ndarray, b: np.ndarray, syms: Sequence[ExchangeSymmetry], cells: slice,
                 out: Optional[np.ndarray] = None) -> np.ndarray:
        """Each symmetry's joint on the sites ``cells`` x ``cells``, shape (symmetries, s, s).

        ``a`` and ``b`` are the (2, n_sites) amplitude arrays of the two
        walkers, and ``cells`` selects s of their sites that hold every
        nonzero amplitude of both (for walkers from one site, the sites of
        one parity: a quarter of the cells).  Row i, column j of a block is
        P(cells[i], cells[j]) of the whole-lattice joint, every cell by the
        same arithmetic as ``cells = slice(None)``: P(x, y) =
        sum_{c,d} M_cd(x, y) with coin blocks M_cd = |K_cd +/- K_dc^T|^2 / 2
        and K_cd = outer(a[c], b[d]).  The four K blocks are shared by all
        symmetries, and M_10 = M_01^T exactly.  The blocks are written into
        ``out`` when it is given.
        """
        n = a.shape[1]
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
        if out is None:
            out = np.empty((len(syms), s, s))
        for quarter, sym in zip(out, syms):
            combine = np.add if sym is ExchangeSymmetry.BOSONIC else np.subtract
            for block, (c, d) in zip(m, ((0, 0), (0, 1), (1, 1))):
                combine(k[c, d], k[d, c].T, out=j)
                np.square(parts, out=parts)
                np.add(parts[:, 0::2], parts[:, 1::2], out=block)
                block *= 0.5
            m00, m01, m11 = m
            # (M00 + M01) + (M10 + M11); M00 and M11 are exactly symmetric, so from
            # F_ORDER_SITES the transposed sum is the reference's F-order sum
            m00 += m01
            m11 += m01.T
            np.add(m00, m11, out=quarter.T if n >= F_ORDER_SITES else quarter)
        return out

def placed(quarter: np.ndarray, cells: slice, n_sites: int) -> np.ndarray:
    """The n_sites x n_sites joint holding ``quarter`` on ``cells`` x ``cells`` and +0.0 elsewhere.

    Fortran-ordered from ``F_ORDER_SITES`` up, like the mode-level reference.
    """
    matrix = np.zeros((n_sites, n_sites), order="F" if n_sites >= F_ORDER_SITES else "C")
    matrix[cells, cells] = quarter
    return matrix


def marginal_positions(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Single-particle marginal over sites, (|a|^2 + |b|^2) / 2 summed over the coin.

    Identical for both exchange symmetries and equal to any row sum of the
    position-level joint.
    """
    return (0.5 * (np.abs(a) ** 2 + np.abs(b) ** 2)).sum(axis=0)

