"""Configuration-averaged walk under Markovian coin-phase disorder: an oracle for ensemble means.

Dynamic and fluctuating disorder draw fresh phases phi_L, phi_R, uniform on
[0, phi_max], at every step, so the average over configurations of a
walker's density matrix rho follows a Markov channel (Brun, Carteret &
Ambainis, PRA 67, 032304, 2003).  Over the 2N (coin, site) modes, stored
coin-major like the amplitudes, each step applies the Hadamard coin, then
multiplies each coherence between two modes whose phases are independent by

    |chi(1)|^2,  chi(1) = E[exp(i phi)] = (exp(i phi_max) - 1) / (i phi_max),

and shifts the L modes one site left and the R modes one site right.  Under
dynamic disorder the phases change only with the coin, so the coherences
between coin modes c != c' are damped; under fluctuating disorder every
(site, coin) mode has its own phase, so every coherence between distinct
modes is.  The shift rolls round the lattice, which a walk whose light cone
stays on it never notices.  The module shares no code with ``dtqw``.
"""

import numpy as np


def damping(phi_max: float) -> float:
    """|chi(1)|^2 of phases uniform on [0, phi_max] > 0: the factor each step puts on a damped coherence."""
    return abs((np.exp(1j * phi_max) - 1) / (1j * phi_max)) ** 2


def _coin(m: np.ndarray) -> np.ndarray:
    """The Hadamard coin on the row modes of ``m``, (2N, M)."""
    l, r = m.reshape(2, -1, m.shape[-1])
    return np.concatenate([l + r, l - r]) / np.sqrt(2)


def _shift(m: np.ndarray) -> np.ndarray:
    """The row modes of ``m``, (2N, M), moved: L one site left, R one site right."""
    l, r = m.reshape(2, -1, m.shape[-1])
    return np.concatenate([np.roll(l, -1, axis=0), np.roll(r, 1, axis=0)])


def channel_positions(amplitudes: np.ndarray, kind: str, phi_max: float, steps: int) -> np.ndarray:
    """The averaged P(x) over the N sites after ``steps`` steps from the (2, N) ``amplitudes``.

    ``kind`` is "dynamic" or "fluctuating".  Each real operator O (coin,
    shift) maps the 2N x 2N density matrix rho to O rho O^T, applied to the
    rows and then to the columns; P(x) is rho's diagonal summed over the coin.
    """
    psi = np.asarray(amplitudes, dtype=np.complex128).reshape(-1)
    coin = np.repeat([0, 1], len(psi) // 2)
    if kind == "dynamic":
        kept = coin[:, None] == coin[None, :]
    elif kind == "fluctuating":
        kept = np.eye(len(psi), dtype=bool)
    else:
        raise ValueError(f"the channel needs dynamic or fluctuating disorder, got {kind!r}")
    factor = np.where(kept, 1.0, damping(phi_max))
    rho = np.outer(psi, psi.conj())
    for _ in range(steps):
        rho = _coin(_coin(rho).T).T * factor
        rho = _shift(_shift(rho).T).T
    return rho.diagonal().real.reshape(2, -1).sum(axis=0)
