"""Group-velocity limits of the ordered walk: the t -> infinity moments of x / t, by quadrature.

The ordered walk is diagonal in momentum.  With psi_hat(k) = sum_x psi(x)
exp(-i k x), one step multiplies psi_hat(k) by

    U(k) = diag(exp(i k), exp(-i k)) H,   H = [[1, 1], [1, -1]] / sqrt(2),

as the L component moves one site left and the R component one site right,
and the position operator acts as i d/dk.  Write U(k) = sum_j exp(i theta_j)
|u_j><u_j|.  The two eigenphases never meet: they sum to pi mod 2 pi and
both have the sine sin(k) / sqrt(2), so they would meet only where
sin(k) = sqrt(2).  Then

    x psi(t) = i d/dk U^t psi_0 = t sum_j v_j(k) exp(i t theta_j) |u_j><u_j|psi_0> + O(1),
    v_j(k) = -d theta_j / dk = |u_j,R|^2 - |u_j,L|^2,

the last by Hellmann-Feynman, as dU/dk = i Z U with Z = diag(1, -1).  The
terms between different eigenphases oscillate as exp(i t (theta_j -
theta_j')), and by stationary phase they vanish as t grows (Ambainis, Bach,
Nayak, Vishwanath & Watrous, STOC 2001).  So x / t tends weakly to the
group-velocity operator (Konno, Quantum Inf. Process. 1, 345, 2002;
Grimmett, Janson & Scudo, PRE 69, 026119, 2004), and for walkers a, b
starting on site 0

    <a| x^n |b> / t^n -> int dk / (2 pi) sum_j v_j^n <a_0|u_j><u_j|b_0>.

The variance of x + y for the exchange-symmetrized pair of orthogonal
walkers is Var_a + Var_b +/- 2 |<a|x|b>|^2, so Var / t^2 tends to the
same combination of these velocity moments.  The integrands are smooth and
periodic, so the midpoint rule converges faster than any power of the
point count.  The module shares no code with ``dtqw`` or the other references.
"""

import numpy as np


def variance_limits(points: int = 4096) -> tuple[float, float]:
    """lim Var(x + y) / t^2 of the (bosonic, fermionic) ordered pair from site 0, coins L and R.

    ``points`` midpoints cover k in [-pi, pi).
    """
    k = -np.pi + (np.arange(points) + 0.5) * (2 * np.pi / points)
    shift = np.zeros((points, 2, 2), dtype=complex)
    shift[:, 0, 0], shift[:, 1, 1] = np.exp(1j * k), np.exp(-1j * k)
    _, u = np.linalg.eig(shift @ (np.array([[1, 1], [1, -1]]) / np.sqrt(2)))  # columns u_j, unit norm
    v = np.abs(u[:, 1, :]) ** 2 - np.abs(u[:, 0, :]) ** 2  # (points, j)

    def moment(power: int, c: int, d: int) -> complex:
        """int dk / (2 pi) sum_j v_j^power <c|u_j><u_j|d> for the coin states c, d (0 is L, 1 is R)."""
        return (v**power * u[:, c, :] * u[:, d, :].conj()).sum() / points

    single = sum((moment(2, c, c) - moment(1, c, c) ** 2).real for c in (0, 1))  # Var_a + Var_b
    exchange = 2 * abs(moment(1, 0, 1)) ** 2
    return single + exchange, single - exchange
