"""Independent oracles for the benchmark's output checks.

None of these share code with the timed path in hallrep: the Laughlin norms
come from multiplying out one linear factor at a time (hallrep convolves one
binomial per pair), continued fractions are evaluated and expanded with this
file's own Fraction and Euclid loops, the hierarchy auxiliary integral uses
its closed form instead of quadrature, and root-of-unity quantities are
recomputed from the angle.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import lru_cache

import numpy as np


@lru_cache(maxsize=None)
def laughlin_norm_coefficient(m: int, n: int) -> int:
    """Integer c with <psi_m|psi_m> = c * pi^n for prod_{i<j} (z_i - z_j)^m.

    Brute force: multiply the m*n*(n-1)/2 linear factors into a monomial
    table one at a time, then pair each monomial with itself through the
    planar moment int |z^a|^2 e^{-|z|^2} d2z = pi a!.
    """
    poly = {(0,) * n: 1}
    for i in range(n):
        for j in range(i + 1, n):
            for _ in range(m):
                grown: dict[tuple[int, ...], int] = {}
                for expo, coeff in poly.items():
                    up_i = expo[:i] + (expo[i] + 1,) + expo[i + 1 :]
                    up_j = expo[:j] + (expo[j] + 1,) + expo[j + 1 :]
                    grown[up_i] = grown.get(up_i, 0) + coeff
                    grown[up_j] = grown.get(up_j, 0) - coeff
                poly = {k: v for k, v in grown.items() if v}
    return sum(
        coeff * coeff * math.prod(math.factorial(e) for e in expo)
        for expo, coeff in poly.items()
    )


def eval_standard(coefficients) -> Fraction:
    """nu = 1/(a0 - 1/(a1 - ... - 1/ar))."""
    x = Fraction(coefficients[-1])
    for a in reversed(coefficients[:-1]):
        x = a - 1 / x
    return 1 / x


def eval_positive(coefficients) -> Fraction:
    """nu = 1/(p0 + 1/(p1 + ... + 1/pr))."""
    x = Fraction(coefficients[-1])
    for a in reversed(coefficients[:-1]):
        x = a + 1 / x
    return 1 / x


def standard_parity_ok(coefficients) -> bool:
    head, tail = coefficients[0], coefficients[1:]
    return head >= 1 and head % 2 == 1 and all(c != 0 and c % 2 == 0 for c in tail)


def positive_parity_ok(coefficients) -> bool:
    head, tail = coefficients[0], coefficients[1:]
    return head >= 1 and head % 2 == 1 and all(c >= 2 and c % 2 == 0 for c in tail)


def positive_form_exists(num: int, den: int) -> bool:
    """Whether num/den has a positive-form expansion.

    A positive-form tail is at least 2, so every step takes the floor: the
    expansion can only be the regular continued fraction of den/num (with a
    last quotient >= 2), and it exists exactly when that one has an odd
    leading quotient and even later ones.
    """
    quotients = []
    a, b = den, num
    while b:
        quotients.append(a // b)
        a, b = b, a % b
    return quotients[0] % 2 == 1 and all(q % 2 == 0 for q in quotients[1:])


def hierarchy_r1_closed_form(a0: int, b: int, z: np.ndarray) -> complex:
    """Hierarchy wavefunction value with the auxiliary integral in closed form.

    int d2w e^{-|w|^2/a0} prod_j (w - z_j) = pi*a0 * prod_j (-z_j): only the
    constant term of the polynomial survives the rotationally symmetric
    weight.  b = -1 conjugates the auxiliary factor.
    """
    aux = math.pi * a0 * complex(np.prod(-z))
    if b == -1:
        aux = aux.conjugate()
    jastrow = 1 + 0j
    for i in range(z.size):
        for j in range(i + 1, z.size):
            jastrow *= (z[i] - z[j]) ** a0
    return jastrow * aux * math.exp(-0.5 * float(np.sum(np.abs(z) ** 2)))


def root_power(p: int, k: int, i: int) -> complex:
    """q^i for q = exp(2 pi i k/(2p+1))."""
    order = 2 * p + 1
    return cmath.exp(2j * math.pi * ((i * k) % order) / order)


def q_integer(p: int, k: int, i: int) -> float:
    """[i] = sin(i theta)/sin(theta) at theta = 2 pi k/(2p+1)."""
    theta = 2 * math.pi * k / (2 * p + 1)
    return math.sin(i * theta) / math.sin(theta)
