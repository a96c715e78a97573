"""Walker amplitudes and the coined step unitary on a finite 1-D lattice.

A walker carries a two-level coin; one step applies a (possibly site- and
step-dependent) phased Hadamard coin to the internal state and then shifts
the L component one site left and the R component one site right.  Every
walk starts on the central site ``n_sites // 2`` of its lattice, the
``origin`` of ``lattice_for``, in either coin mode or both; this module
holds that rule (``light_cone``).  The lattice is a plain segment: a walk's
``FieldBatch`` refuses a light cone that leaves it, so callers allocate
enough sites up front (see ``lattice_for``).  Leading axes of the amplitude
array batch independent walkers (for example configurations x walkers),
which all step at once.

Conventions: a walker's state is a plain complex array, stored coin-major,
``amplitudes[0, i]`` the L amplitude at array index ``i`` and
``amplitudes[1, i]`` the R amplitude, so each coin row is contiguous over
sites; signed position ``x = i - origin``.  Every layer (step, joint
builder, oracle) reads this one layout, and ``light_cone`` is the one rule
for the sites a walk can reach.
"""

from __future__ import annotations

import math
import numbers
from typing import Iterator, Optional, Sequence

import numpy as np

INV_SQRT2 = 1.0 / math.sqrt(2.0)

#: Coin basis indices (L shifts to x-1, R shifts to x+1).
COIN_L = 0
COIN_R = 1


def check_integer(label: str, value, low: Optional[int] = None):
    """``value`` if it is an integer (not a bool) and at least ``low``, if given; ValueError otherwise."""
    # bool is an Integral; JSON true must not pass for 1
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{label} must be an integer, got {value!r}")
    if low is not None and value < low:
        raise ValueError(f"{label} must be >= {low}")
    return value


def check_stops(label: str, stops, last: int) -> list:
    """``stops`` as a list if it is a nonempty sequence of non-decreasing integers in 0..``last``; ValueError otherwise."""
    listed = list(stops) if np.iterable(stops) else []  # a bare integer, also a 0-d array, lists no stop
    if not listed:
        raise ValueError(f"{label} must be a nonempty sequence of integers, got {stops!r}")
    for t in listed:
        check_integer(f"every entry of {label}", t, 0)
    if any(b < a for a, b in zip(listed, listed[1:])):
        raise ValueError(f"{label} must be non-decreasing, got {listed!r}")
    if listed[-1] > last:
        raise ValueError(f"{label}: stop {listed[-1]} lies beyond the {last} steps")
    return listed


def light_cone(t, n_sites: int) -> tuple:
    """(lo, hi), the first and last array index a walk on ``n_sites`` sites reaches in ``t`` steps (int or array).

    Every walk starts on the central site ``n_sites // 2`` and widens by one
    site each side per step; it sits on one parity, so only every second
    site of [lo, hi], from lo, can hold amplitude.
    """
    origin = n_sites // 2
    return origin - t, origin + t


def lattice_for(steps: int) -> tuple[int, int]:
    """(n_sites, origin) = (2 steps + 3, steps + 1), a lattice on which a ``steps``-step walk never touches an edge.

    ``evolve`` needs no spare site, but one stays on each side: every
    emitted joint and marginal table lists every lattice site, so a tighter
    lattice would change the files.
    """
    n_sites = 2 * check_integer("steps", steps, 0) + 3
    return n_sites, light_cone(0, n_sites)[0]


def delta_state(n_sites: int, coin: int = COIN_L) -> np.ndarray:
    """The (2, n_sites) amplitudes of a walker on the central site with a definite coin state."""
    if coin not in (COIN_L, COIN_R):
        raise ValueError(f"coin must be {COIN_L} (L) or {COIN_R} (R), got {coin}")
    amps = np.zeros((2, n_sites), dtype=np.complex128)
    amps[coin, light_cone(0, n_sites)[0]] = 1.0
    return amps


def evolve(initial: np.ndarray, stops: Sequence[int], field) -> Iterator[np.ndarray]:
    """Walk the coined step from ``initial`` through ``stops``, yielding the amplitudes at each.

    ``stops`` is a nonempty sequence of non-decreasing step counts, the last
    one at most ``field.steps``: the rule of ``check_stops``.  ``field`` is a
    :class:`dtqw.disorder.FieldBatch` of C configurations: its coin factors
    broadcast against a (C, walkers, 2, n_sites) batch, and, for one field,
    against one walker of shape (2, n_sites).  Step t steps every second
    site of ``light_cone(t - 1, field.n_sites)``, which the batch has checked
    against the lattice.  Bad stops, a start on another lattice than
    ``field.n_sites`` sites and a start with amplitude off the central site
    raise ValueError before any step, without a coin factor.  Step t writes
    e_L (a + b) / sqrt(2) one site left and e_R (a - b) / sqrt(2) one site
    right into the spare of two complex128 buffers, allocated in the memory
    layout of ``initial``, and swaps them.  Each stop yields a read-only
    view of the current buffer, shaped like ``initial`` and valid until the
    walk resumes; a one-shot caller writes ``[amps] = evolve(initial,
    [steps], field)``.  Every amplitude equals that of stepping every site
    bit for bit (up to the sign of a zero), whatever the batch it evolves in
    and the other stops.
    """
    shape = np.shape(initial)
    if len(shape) < 2 or shape[-2] != 2:
        raise ValueError(f"amplitudes must have shape (..., 2, n_sites), got {shape}")
    stops = check_stops("stops", stops, field.steps)
    if shape[-1] != field.n_sites:
        raise ValueError(f"a start on {shape[-1]} sites cannot walk on the field's {field.n_sites} sites")
    lo, hi = light_cone(0, field.n_sites)
    start = np.asarray(initial)  # the checks below read views of it
    if start[..., :lo].any() or start[..., hi + 1 :].any():
        raise ValueError(f"the start has amplitude off the central site {lo} of {field.n_sites} sites")
    # one walker steps as a batch of one; order "K" keeps the layout of a batch, also of a broadcast (stride-0) one
    amps = np.array(start, dtype=np.complex128, order="K", ndmin=4)
    spare = np.zeros_like(amps)
    done = 0
    for stop in stops:
        for t in range(done + 1, stop + 1):
            sites = slice(lo, hi + 1, 2)
            e_l, e_r = field.coin_factors(t)
            left, right = spare[..., 0, lo - 1 : hi : 2], spare[..., 1, lo + 1 : hi + 2 : 2]
            np.add(amps[..., 0, sites], amps[..., 1, sites], out=left)
            np.multiply(e_l, left, out=left)
            np.multiply(left, INV_SQRT2, out=left)
            np.subtract(amps[..., 0, sites], amps[..., 1, sites], out=right)
            np.multiply(e_r, right, out=right)
            np.multiply(right, INV_SQRT2, out=right)
            amps, spare = spare, amps
            lo, hi = lo - 1, hi + 1
        done = stop
        view = amps.reshape(shape)
        view.flags.writeable = False
        yield view
