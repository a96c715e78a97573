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
from typing import Optional, Sequence

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


def evolve(initial: WalkerState, steps: int, field, start: int = 0,
           spare: Optional[np.ndarray] = None) -> WalkerState:
    """Evolve steps t = start+1 .. start+steps of the coined step; returns the final state.

    ``field`` is a :class:`dtqw.disorder.FieldBatch` of C configurations:
    its coin factors broadcast against a (C, walkers, 2, n_sites) batch,
    and, for ``FieldBatch([field])``, against one walker of shape
    (2, n_sites).  Each step writes e_L (a + b) / sqrt(2) one site left and
    e_R (a - b) / sqrt(2) one site right into the spare of two buffers and
    swaps them.  The two buffers are a copy of the state and a fresh one;
    with ``spare``, an array of a 4-D batch's shape, they are that batch's
    own amplitudes and ``spare``, whatever it holds, so a caller that stops
    often keeps one buffer pair: the returned amplitudes are then one of
    the two, and the other is free for the next call.  Only reachable sites
    are stepped: the span of the sites occupied at the start (by any walker
    or coin), widened by one site per step, and only every second site of
    it when those share one parity.  When the span touches an edge site,
    the edge check runs: amplitude there is an overflow, and a zero edge
    (also by cancellation) leaves the span.  An all-zero state is returned
    as it is.  Every amplitude equals that of stepping every site bit for
    bit (up to the sign of a zero), whatever the size of the batch it
    evolves in.
    """
    if steps < 0:
        raise ValueError("steps must be >= 0")
    shape = initial.amplitudes.shape
    if spare is None:
        # one walker steps as a batch of one; C order also for a broadcast (stride-0) start
        amps = np.array(initial.amplitudes, order="C", ndmin=4)
        spare = np.zeros_like(amps)
    elif spare.shape != shape or len(shape) != 4:
        raise ValueError(f"spare must have the 4-D shape of the batch, got {spare.shape} for {shape}")
    else:
        amps = initial.amplitudes
        spare.fill(0.0)  # what it holds may lie outside the cells the first step writes
    last = amps.shape[-1] - 1
    occupied = np.flatnonzero(amps.any(axis=(0, 1, 2)))
    if not occupied.size:  # an all-zero state stays zero
        return WalkerState(amps if amps.shape == shape else amps.reshape(shape), initial.origin)
    lo, hi = int(occupied[0]), int(occupied[-1])
    stride = 1 if ((occupied - lo) % 2).any() else 2
    for t in range(start + 1, start + steps + 1):
        if lo <= 0 or hi >= last:
            # zero edges leave the span; the cells they would write may still hold the start: zero those
            _check_edges(amps)
            if lo <= 0:
                lo += stride
                spare[..., 1, 1] = 0.0
            if hi >= last:
                hi -= stride
                spare[..., 0, last - 1] = 0.0
        sites = slice(lo, hi + 1, stride)
        e_l, e_r = field.coin_factors(t, sites)
        left, right = spare[..., 0, lo - 1 : hi : stride], spare[..., 1, lo + 1 : hi + 2 : stride]
        np.add(amps[..., 0, sites], amps[..., 1, sites], out=left)
        np.multiply(e_l, left, out=left)
        np.multiply(left, INV_SQRT2, out=left)
        np.subtract(amps[..., 0, sites], amps[..., 1, sites], out=right)
        np.multiply(e_r, right, out=right)
        np.multiply(right, INV_SQRT2, out=right)
        amps, spare = spare, amps
        lo, hi = lo - 1, hi + 1
    return WalkerState(amps if amps.shape == shape else amps.reshape(shape), initial.origin)
