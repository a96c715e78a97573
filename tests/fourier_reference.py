"""Momentum-space walk: an oracle, to any step count, for fields constant in space.

Under phases that change only from step to step (ordered and dynamic
disorder) the phased Hadamard walk is diagonal in momentum.  With
psi_hat(k) = sum_x psi(x) exp(-i k x), step t maps

    psi_hat_L(k) <- exp(i (phi_L(t) + k)) (psi_hat_L(k) + psi_hat_R(k)) / sqrt(2)
    psi_hat_R(k) <- exp(i (phi_R(t) - k)) (psi_hat_L(k) - psi_hat_R(k)) / sqrt(2)

as the L component moves one site left and the R component one site right.
The discrete transform makes the N-site lattice a ring, but a walk whose
light cone stays on the lattice never wraps round, so the ring walk is the
segment walk up to roundoff.  The phase table is read as data, and the
module shares no code with ``dtqw.core`` or ``dtqw.disorder``.
"""

import numpy as np


def fourier_walk(amplitudes: np.ndarray, phases: np.ndarray, steps: int) -> np.ndarray:
    """The (..., 2, n_sites) amplitudes after ``steps`` steps from ``amplitudes`` (rows L, R).

    ``phases`` is a (2, rows, 1) table of L and R phases, row t - 1 read at
    step t, or one row read at every step.
    """
    *_, last = fourier_walk_steps(amplitudes, phases, steps)
    return last


def fourier_walk_steps(amplitudes: np.ndarray, phases: np.ndarray, steps: int):
    """Yield the amplitudes of ``fourier_walk`` after 0, 1, ..., ``steps`` steps, from one walk."""
    phases = np.asarray(phases)
    if phases.ndim != 3 or phases.shape[-1] != 1:
        raise ValueError(f"the momentum-space walk needs phases constant in space, got shape {phases.shape}")
    table = np.broadcast_to(phases[:, :, 0], (2, steps))
    k = 2 * np.pi * np.fft.fftfreq(np.shape(amplitudes)[-1])
    psi = np.fft.fft(amplitudes, axis=-1)
    yield np.fft.ifft(psi, axis=-1)
    for t in range(steps):
        a, b = psi[..., 0, :], psi[..., 1, :]
        psi = np.stack([np.exp(1j * (table[0, t] + k)) * (a + b), np.exp(1j * (table[1, t] - k)) * (a - b)],
                       axis=-2) / np.sqrt(2)
        yield np.fft.ifft(psi, axis=-1)
