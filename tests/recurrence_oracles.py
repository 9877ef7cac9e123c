"""Test-side oracles for the magnitude chains.

The library solves both chains in closed form; these propagate them the
plain way, one increment at a time, as independent references.
"""

import numpy as np

from hallrep.algebra import q_number


def cumulative_chain(increments) -> tuple[np.ndarray, float]:
    """Running sums from point 0 of a closed chain, and the smallest base keeping it positive.

    increments[t] is the rise from point t-1 to point t, so point t holds
    base + sums[t] with sums[0] = 0; increments[0] closes the cycle.
    """
    increments = np.asarray(increments, dtype=float)
    sums = np.concatenate(([0.0], np.cumsum(increments[1:])))
    return sums, max(0.0, -float(sums.min()))


def ladder_chain_oracle(root) -> tuple[np.ndarray, float]:
    """|a_i|^2 - |a_{i-2}|^2 = [i] summed from the base point: point t is label 2t (mod 2p+1)."""
    n = root.order
    return cumulative_chain([q_number((2 * t - 1) % n + 1, root) for t in range(n)])


def weight_chain_oracle(root, lam) -> tuple[np.ndarray, float]:
    """|g_m|^2 - |g_{m-1}|^2 = -Im(lam q^(-2m))/sin(theta) summed from m = 0."""
    sin_theta = root.sin_multiple(1)
    return cumulative_chain([-(lam * root.power(-2 * m)).imag / sin_theta for m in range(root.order)])


def consolidated_residual(solution) -> float:
    """Max deviation from |a_i|^2 - |a_{i-2}|^2 = [i] over all labels."""
    root = solution.root
    mag = solution.magnitude
    return max(
        abs(mag(i) - mag(i - 2) - q_number(i, root)) for i in range(1, root.order + 1)
    )
