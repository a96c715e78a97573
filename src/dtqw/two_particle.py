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
directly from N x N coin blocks, into scratch valid until its next call,
and never forms the (2N) x (2N) mode-level matrix, a test reference
(``tests/mode_reference.py``) that the blocks reproduce bit for bit: at
every lattice size the coins are summed in one order and every matrix is
C-ordered.  The caller names the cells to build: walkers from one site
live on the sites x = t (mod 2) at step t, a quarter of the cells, and the
ensemble runners take that parity from the light cone, never from the
amplitudes.  Summed over the coins, P is rank 4 in the real ``joint_factors``:
    P(x, y) = (p_a(x) p_b(y) + p_b(x) p_a(y)) / 2 +/- (g_r(x) g_r(y) + g_i(x) g_i(y)),
with p_w = sum_c |w_c|^2 and g_r + i g_i = sum_c a_c conj(b_c), the exchange
term that bunches bosons and antibunches fermions.  The averaged maps and
their marginal, (p_a + p_b) / 2 and any row sum of P, are read from these alone.
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


class JointBuilder:
    """Builds position-level joints from coin blocks, reusing its scratch arrays.

    ``quarters`` computes each symmetry's joint on the cells that can be
    nonzero.  The scratch arrays, the returned blocks too, grow to the
    largest set of cells built (1.3 MB for the 103-site sublattice of 205
    sites, 5.0 MB for 205 sites of both parities) and every call overwrites
    them.  Fresh temporaries per call ran within noise of the scratch; the
    scratch stays for memory: made by a process's first chunk and reused by
    every later one, it lies outside the chunk budget of
    ``observables._chunk_tasks``, while fresh arrays at each call took a
    preset-scale chunk to 1.32 budgets.  One builder serves one thread.
    """

    def __init__(self) -> None:
        self._scratch: dict[str, np.ndarray] = {}

    def _buffer(self, name: str, shape: tuple[int, ...], dtype: type) -> np.ndarray:
        size = math.prod(shape)
        buf = self._scratch.get(name)
        if buf is None or buf.size < size:
            buf = self._scratch[name] = np.empty(size, dtype)
        return buf[:size].reshape(shape)

    def quarters(self, a: np.ndarray, b: np.ndarray, syms: Sequence[ExchangeSymmetry], cells: slice) -> np.ndarray:
        """Each symmetry's joint on the sites ``cells`` x ``cells``, shape (..., symmetries, s, s).

        ``a`` and ``b`` are the (..., 2, n_sites) amplitude arrays of the two
        walkers, any leading axes a batch of pairs, and ``cells`` selects s of
        their sites that hold every nonzero amplitude of both (for walkers
        from one site, the sites of one parity: a quarter of the cells).  Row
        i, column j of a block is P(cells[i], cells[j]) of the whole-lattice
        joint, every cell by the same arithmetic as ``cells = slice(None)``:
        P(x, y) = sum_{c,d} M_cd(x, y) with coin blocks M_cd = |K_cd +/-
        K_dc^T|^2 / 2 and K_cd = outer(a[c], b[d]).  The four K blocks are
        shared by all symmetries, and M_10 = M_01^T exactly.  Every operation
        is elementwise, so a pair's blocks are bit-identical in any batch.
        Like ``evolve``'s views, the blocks are scratch, valid until the next call.
        """
        # unit-stride rows, so every ufunc runs the loop of a whole-lattice build
        a, b = np.ascontiguousarray(a[..., cells]), np.ascontiguousarray(b[..., cells])
        batch, s = a.shape[:-2], a.shape[-1]
        k = self._buffer("k", (*batch, 2, 2, s, s), np.complex128)  # K_cd in k[..., c, d, :, :]
        np.multiply(a[..., :, None, :, None], b[..., None, :, None, :], out=k)
        j = self._buffer("j", (*batch, s, s), np.complex128)
        parts = j.view(np.float64)  # real and imaginary parts, interleaved
        m = self._buffer("m", (3, *batch, s, s), np.float64)
        out = self._buffer("out", (*batch, len(syms), s, s), np.float64)
        for i, sym in enumerate(syms):
            combine = np.add if sym is ExchangeSymmetry.BOSONIC else np.subtract
            for block, (c, d) in zip(m, ((0, 0), (0, 1), (1, 1))):
                combine(k[..., c, d, :, :], k[..., d, c, :, :].swapaxes(-1, -2), out=j)
                np.square(parts, out=parts)
                np.add(parts[..., 0::2], parts[..., 1::2], out=block)
            m *= 0.5
            m00, m01, m11 = m
            m00 += m01
            m11 += m01.swapaxes(-1, -2)  # M10
            np.add(m00, m11, out=out[..., i, :, :])  # (M00 + M01) + (M11 + M10), the reference's C-order sum
        return out


def joint_factors(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(p_a, p_b, g_r, g_i) of (..., 2, n_sites) amplitudes, summed over the coin: shape (..., 4, n_sites)."""
    g = (a * b.conj()).sum(axis=-2)
    return np.stack([(w.real**2 + w.imag**2).sum(axis=-2) for w in (a, b)] + [g.real, g.imag], axis=-2)
