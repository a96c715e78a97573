"""Single-walker states and the coined step unitary on a finite 1-D lattice.

A walker carries a two-level coin; one step applies a (possibly site- and
step-dependent) phased Hadamard coin to the internal state and then shifts
the L component one site left and the R component one site right.  The
lattice is a plain segment: amplitude reaching an edge is an error, never a
wrap or a reflection, so callers must allocate enough sites up front (see
``lattice_for``).

Conventions: ``amplitudes[i, 0]`` is the L amplitude at array index ``i``,
``amplitudes[i, 1]`` the R amplitude, and signed position ``x = i - origin``.
Mode ``m = 2*i + coin`` flattens (site, coin) pairs for the two-particle
layer.
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

    amplitudes: shape (n_sites, 2) complex array, columns (L, R).
    origin: array index of signed position x = 0.
    """

    amplitudes: np.ndarray
    origin: int

    def __post_init__(self) -> None:
        self.amplitudes = np.asarray(self.amplitudes, dtype=np.complex128)
        if self.amplitudes.ndim != 2 or self.amplitudes.shape[1] != 2:
            raise ValueError(f"amplitudes must have shape (n_sites, 2), got {self.amplitudes.shape}")

    @property
    def n_sites(self) -> int:
        return self.amplitudes.shape[0]

    @property
    def positions(self) -> np.ndarray:
        """Signed position of every array index."""
        return np.arange(self.n_sites) - self.origin

    def index_of(self, x: int) -> int:
        i = x + self.origin
        if not 0 <= i < self.n_sites:
            raise IndexError(f"position {x} outside lattice [{-self.origin}, {self.n_sites - 1 - self.origin}]")
        return i

    def norm(self) -> float:
        return float(np.sum(np.abs(self.amplitudes) ** 2))

    def copy(self) -> "WalkerState":
        return WalkerState(self.amplitudes.copy(), self.origin)


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
    amps = np.zeros((n_sites, 2), dtype=np.complex128)
    state = WalkerState(amps, origin)
    amps[state.index_of(x), coin] = 1.0
    return state


def _check_edges(amplitudes: np.ndarray) -> None:
    if amplitudes[0].any() or amplitudes[-1].any():
        raise LatticeOverflowError("light cone reached the lattice edge; allocate a larger lattice")


def _shift(coined: np.ndarray) -> np.ndarray:
    out = np.zeros_like(coined)
    out[:-1, 0] = coined[1:, 0]
    out[1:, 1] = coined[:-1, 1]
    return out


def _phased_step(amplitudes: np.ndarray, phi_l: np.ndarray, phi_r: np.ndarray) -> np.ndarray:
    """One step with per-site phased Hadamard coins, vectorized over sites."""
    _check_edges(amplitudes)
    a = amplitudes[:, 0]
    b = amplitudes[:, 1]
    coined = np.empty_like(amplitudes)
    coined[:, 0] = np.exp(1j * phi_l) * (a + b) * INV_SQRT2
    coined[:, 1] = np.exp(1j * phi_r) * (a - b) * INV_SQRT2
    return _shift(coined)


def evolve(initial: WalkerState, steps: int, field, record: bool = False):
    """Evolve ``steps`` applications of the coined step under a phase field.

    ``field`` supplies the coin phases: ``field.step_phases(t)`` must return
    the per-site (phi_L, phi_R) arrays for steps t = 1..steps (see
    :mod:`dtqw.disorder`).  Deterministic for a fixed field.

    With ``record=True`` returns the list of states after 0..steps steps;
    otherwise returns the final state.
    """
    if steps < 0:
        raise ValueError("steps must be >= 0")
    amps = initial.amplitudes.copy()
    snapshots = [WalkerState(amps.copy(), initial.origin)] if record else None
    for t in range(1, steps + 1):
        phi_l, phi_r = field.step_phases(t)
        amps = _phased_step(amps, phi_l, phi_r)
        if record:
            snapshots.append(WalkerState(amps.copy(), initial.origin))
    if record:
        return snapshots
    return WalkerState(amps, initial.origin)


def position_distribution(state: WalkerState) -> np.ndarray:
    """P(x) = |alpha(x)|^2 + |beta(x)|^2, indexed like ``state.positions``."""
    return np.abs(state.amplitudes[:, 0]) ** 2 + np.abs(state.amplitudes[:, 1]) ** 2


def state_to_modes(state: WalkerState) -> np.ndarray:
    """Flatten to 2N mode amplitudes, mode m = 2*site_index + coin."""
    return state.amplitudes.reshape(-1).copy()


def modes_to_state(modes: np.ndarray, origin: int) -> WalkerState:
    """Inverse of :func:`state_to_modes`."""
    modes = np.asarray(modes, dtype=np.complex128)
    if modes.ndim != 1 or modes.size % 2:
        raise ValueError(f"mode vector must be flat with even length, got shape {modes.shape}")
    return WalkerState(modes.reshape(-1, 2).copy(), origin)
