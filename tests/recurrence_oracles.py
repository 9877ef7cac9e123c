"""Test-side oracles for the q-integers and the magnitude chains.

The library takes [n] from exactly reduced sines and solves both chains in
closed form; these evaluate [n] as the literal complex quotient and
propagate the chains the plain way, one increment at a time, as
independent references.
"""

import numpy as np

from hallrep.algebra import q_number


def q_number_by_division(n: int, root) -> float:
    """[n] evaluated literally as (q^n - q^-n)/(q - q^-1).

    The quotient must come out real; an imaginary part beyond rounding noise
    raises, otherwise it is discarded.
    """
    q = root.value
    val = (q**n - q**-n) / (q - 1.0 / q)
    # complex pow noise grows with |n| through the polar route
    scale = max(1.0, abs(val)) * max(root.order, abs(n), 1)
    if abs(val.imag) > 1e-14 * scale:
        raise ArithmeticError(f"[{n}] evaluated to the non-real value {val!r}")
    return val.real


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

    def mag(i):
        return solution.magnitudes[(i - 1) % root.order]  # label i at slot i-1, cyclically

    return max(
        abs(mag(i) - mag(i - 2) - q_number(i, root)) for i in range(1, root.order + 1)
    )
