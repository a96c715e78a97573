"""Single-walker states and the coined step unitary on a finite 1-D lattice.

A walker carries a two-level coin; one step applies a (possibly site- and
step-dependent) phased Hadamard coin to the internal state and then shifts
the L component one site left and the R component one site right.  The
lattice is a plain segment: amplitude reaching an edge is an error, never a
wrap or a reflection, so callers must allocate enough sites up front (see
``lattice_for``).  Leading axes of the amplitude array batch independent
walkers (for example configurations x walkers), which all step at once.

Conventions: amplitudes are stored coin-major, ``amplitudes[0, i]`` the L
amplitude at array index ``i`` and ``amplitudes[1, i]`` the R amplitude, so
each coin row is contiguous over sites; signed position ``x = i - origin``.
Every layer (step, joint builder, oracle) reads this one layout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

INV_SQRT2 = 1.0 / math.sqrt(2.0)

#: Coin basis indices (L shifts to x-1, R shifts to x+1).
COIN_L = 0
COIN_R = 1


class LatticeOverflowError(RuntimeError):
    """A step would push amplitude past the edge of the allocated lattice."""


@dataclass
class WalkerState:
    """Complex coin-pair amplitudes over the lattice.

    amplitudes: shape (..., 2, n_sites) complex array, rows (L, R); any
        leading axes index independent walkers on the same lattice.
    origin: array index of signed position x = 0.
    """

    amplitudes: np.ndarray
    origin: int

    def __post_init__(self) -> None:
        self.amplitudes = np.asarray(self.amplitudes, dtype=np.complex128)
        if self.amplitudes.ndim < 2 or self.amplitudes.shape[-2] != 2:
            raise ValueError(f"amplitudes must have shape (..., 2, n_sites), got {self.amplitudes.shape}")

    @property
    def n_sites(self) -> int:
        return self.amplitudes.shape[-1]

    @property
    def positions(self) -> np.ndarray:
        """Signed position of every array index."""
        return np.arange(self.n_sites) - self.origin

    def index_of(self, x: int) -> int:
        i = x + self.origin
        if not 0 <= i < self.n_sites:
            raise IndexError(f"position {x} outside lattice [{-self.origin}, {self.n_sites - 1 - self.origin}]")
        return i


def lattice_for(steps: int, start_sites: Sequence[int] = (0,)) -> tuple[int, int]:
    """Size a lattice so a ``steps``-step light cone from ``start_sites`` never
    touches an edge (one spare site each side).

    Returns (n_sites, origin).
    """
    if steps < 0:
        raise ValueError("steps must be >= 0")
    lo, hi = min(start_sites), max(start_sites)
    n_sites = (hi - lo) + 2 * steps + 3
    origin = steps + 1 - lo
    return n_sites, origin


def delta_state(n_sites: int, origin: int, x: int = 0, coin: int = COIN_L) -> WalkerState:
    """A walker localized at position ``x`` with a definite coin state."""
    if coin not in (COIN_L, COIN_R):
        raise ValueError(f"coin must be {COIN_L} (L) or {COIN_R} (R), got {coin}")
    amps = np.zeros((2, n_sites), dtype=np.complex128)
    state = WalkerState(amps, origin)
    amps[coin, state.index_of(x)] = 1.0
    return state


def _check_edges(amplitudes: np.ndarray) -> None:
    if amplitudes[..., 0].any() or amplitudes[..., -1].any():
        raise LatticeOverflowError("light cone reached the lattice edge; allocate a larger lattice")


def _at(factor: np.ndarray, sites: slice) -> np.ndarray:
    """Coin factors of the source ``sites``; a site-independent factor serves every site."""
    return factor if factor.shape[-1] == 1 else factor[..., sites]


def evolve(initial: WalkerState, steps: int, field, start: int = 0) -> WalkerState:
    """Evolve steps t = start+1 .. start+steps of the coined step; returns the final state.

    ``field`` is a :class:`dtqw.disorder.FieldBatch` of C configurations:
    its coin factors broadcast against a (C, walkers, 2, n_sites) batch,
    and, for ``FieldBatch([field])``, against one walker of shape
    (2, n_sites).  Each step writes e_L (a + b) / sqrt(2) one site left and
    e_R (a - b) / sqrt(2) one site right into the spare of two buffers and
    swaps them; the L cell of the last site and the R cell of the first site
    are never written, and the edge check keeps them zero.  Deterministic
    for a fixed field, and every amplitude is bit-identical whatever the
    size of the batch it evolves in.
    """
    if steps < 0:
        raise ValueError("steps must be >= 0")
    shape = initial.amplitudes.shape
    amps = np.array(initial.amplitudes, ndmin=4)  # one walker steps as a batch of one
    spare = np.zeros_like(amps)
    head, tail = slice(None, -1), slice(1, None)
    for t in range(start + 1, start + steps + 1):
        _check_edges(amps)
        e_l, e_r = field.coin_factors(t)
        left, right = spare[..., 0, head], spare[..., 1, tail]
        np.add(amps[..., 0, tail], amps[..., 1, tail], out=left)
        np.multiply(_at(e_l, tail), left, out=left)
        np.multiply(left, INV_SQRT2, out=left)
        np.subtract(amps[..., 0, head], amps[..., 1, head], out=right)
        np.multiply(_at(e_r, head), right, out=right)
        np.multiply(right, INV_SQRT2, out=right)
        amps, spare = spare, amps
    return WalkerState(amps.reshape(shape), initial.origin)
