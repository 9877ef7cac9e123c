"""Root-of-unity arithmetic, q-integers, and the defining-relation verifier.

Everything downstream runs at a primitive (2p+1)-th root of unity
q = exp(2*pi*i*k/(2p+1)).  Exponents and sine arguments are reduced modulo
the order in exact integer arithmetic before any trigonometry, so the cyclic
identities [n + 2p+1] = [n], [-n] = -[n] and [2p+1-n] = -[n] hold to the
last bit rather than to rounding.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from math import gcd

import numpy as np

__all__ = [
    "PrimitiveRoot",
    "RelationReport",
    "complex_from_pairs",
    "complex_to_pairs",
    "default_tolerance",
    "frobenius",
    "matrix_from_json",
    "matrix_to_json",
    "primitive_root",
    "q_number",
    "q_number_by_division",
    "verify_relations",
]


@dataclass(frozen=True)
class PrimitiveRoot:
    """A primitive (2p+1)-th root of unity exp(2*pi*i*k/(2p+1)).

    k is stored as its canonical representative in 1..2p; any integer value
    coprime to the order is accepted.
    """

    p: int
    k: int = 1

    def __post_init__(self):
        if not isinstance(self.p, int) or self.p < 1:
            raise ValueError(f"p must be a positive integer, got {self.p!r}")
        n = self.order
        k = self.k % n
        if gcd(k, n) != 1:
            raise ValueError(
                f"k = {self.k} shares a factor with 2p+1 = {n}, so "
                "exp(2*pi*i*k/(2p+1)) is not a primitive root"
            )
        object.__setattr__(self, "k", k)

    @property
    def order(self) -> int:
        return 2 * self.p + 1

    @property
    def angle(self) -> float:
        """The argument theta = 2*pi*k/(2p+1)."""
        return 2.0 * math.pi * self.k / self.order

    @property
    def value(self) -> complex:
        return self.power(1)

    def power(self, n: int) -> complex:
        """q**n with the exponent reduced mod 2p+1 first."""
        r = (n * self.k) % self.order
        return cmath.exp(2j * math.pi * r / self.order)

    def sin_multiple(self, n: int) -> float:
        """sin(n * theta), reduced so that arguments n and order-n negate exactly."""
        r = (n * self.k) % self.order
        if 2 * r > self.order:
            return -math.sin(2.0 * math.pi * (self.order - r) / self.order)
        return math.sin(2.0 * math.pi * r / self.order)


def primitive_root(p: int, k: int = 1) -> PrimitiveRoot:
    """Construct exp(2*pi*i*k/(2p+1)), rejecting non-coprime k and p < 1."""
    return PrimitiveRoot(p, k)


def q_number(n: int, root: PrimitiveRoot) -> float:
    """The q-integer [n] = (q^n - q^-n)/(q - q^-1) = sin(n theta)/sin(theta).

    Evaluated through exactly reduced sines; the literal complex quotient is
    kept as an independent cross-check in :func:`q_number_by_division`.
    """
    return root.sin_multiple(n) / root.sin_multiple(1)


def q_number_by_division(n: int, root: PrimitiveRoot) -> float:
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


def frobenius(mat) -> float:
    """Frobenius norm of a dense matrix."""
    return float(np.linalg.norm(np.asarray(mat)))


def default_tolerance(dim: int) -> float:
    """Default Frobenius verification tolerance, 1e-10 scaled by dimension."""
    return 1e-10 * dim


@dataclass(frozen=True)
class RelationReport:
    """Residuals of the deformed-algebra relations for a (K, E+, E-) triple.

    detected_conjugation_sign is +2 when K E+ K^-1 = q^(+2) E+ holds within
    tolerance, -2 when the q^(-2) convention holds, and None (indeterminate)
    when neither or both do, e.g. for vanishing ladder operators.
    """

    commutator_residual: float
    conjugation_residual_plus: float
    conjugation_residual_minus: float
    detected_conjugation_sign: int | None
    unitarity_residuals: tuple[float, float]
    tolerance: float
    passed: bool

    def to_json(self) -> dict:
        """Serialize with residuals as decimal strings at 17 significant digits."""

        def dec(x: float) -> str:
            return format(x, ".17g")

        return {
            "commutator_residual": dec(self.commutator_residual),
            "conjugation_residual_plus": dec(self.conjugation_residual_plus),
            "conjugation_residual_minus": dec(self.conjugation_residual_minus),
            "detected_conjugation_sign": (
                "indeterminate"
                if self.detected_conjugation_sign is None
                else self.detected_conjugation_sign
            ),
            "unitarity_residuals": [dec(r) for r in self.unitarity_residuals],
            "tolerance": dec(self.tolerance),
            "pass": self.passed,
        }

    def failing(self) -> list[str]:
        """Names of the residuals exceeding the tolerance."""
        out = []
        if self.commutator_residual > self.tolerance:
            out.append(f"commutator_residual={self.commutator_residual:.3e}")
        if min(self.conjugation_residual_plus, self.conjugation_residual_minus) > self.tolerance:
            out.append(
                f"conjugation_residual_minus={self.conjugation_residual_minus:.3e}"
            )
        if self.unitarity_residuals[0] > self.tolerance:
            out.append(f"k_unitarity_residual={self.unitarity_residuals[0]:.3e}")
        if self.unitarity_residuals[1] > self.tolerance:
            out.append(f"adjoint_residual={self.unitarity_residuals[1]:.3e}")
        return out


def verify_relations(
    k_mat, e_plus, e_minus, root: PrimitiveRoot, tol: float | None = None
) -> RelationReport:
    """Measure how well (K, E+, E-) realize the deformed-algebra relations.

    Checks the commutator relation [E+, E-] = (K - K^-1)/(q - q^-1), the
    diagonal conjugation K E(+-) K^-1 = q^(+-2) E(+-) under both sign
    conventions, and the unitarity pair (K^dagger K = 1, E-^dagger = E+).
    The report records which conjugation convention actually holds instead
    of asserting one.
    """
    k_mat = np.asarray(k_mat, dtype=complex)
    e_plus = np.asarray(e_plus, dtype=complex)
    e_minus = np.asarray(e_minus, dtype=complex)
    if k_mat.ndim != 2 or k_mat.shape[0] != k_mat.shape[1]:
        raise ValueError(f"K must be square, got shape {k_mat.shape}")
    dim = k_mat.shape[0]
    for name, mat in (("E+", e_plus), ("E-", e_minus)):
        if mat.shape != (dim, dim):
            raise ValueError(f"{name} has shape {mat.shape}, expected {(dim, dim)}")
    if tol is None:
        tol = default_tolerance(dim)

    q = root.value
    k_inv = np.linalg.inv(k_mat)
    commutator = e_plus @ e_minus - e_minus @ e_plus
    commutator_residual = frobenius(commutator - (k_mat - k_inv) / (q - 1.0 / q))

    conj_plus = k_mat @ e_plus @ k_inv
    conj_minus = k_mat @ e_minus @ k_inv
    q2 = root.power(2)
    qm2 = root.power(-2)
    res_plus = max(
        frobenius(conj_plus - q2 * e_plus), frobenius(conj_minus - qm2 * e_minus)
    )
    res_minus = max(
        frobenius(conj_plus - qm2 * e_plus), frobenius(conj_minus - q2 * e_minus)
    )
    plus_ok = res_plus <= tol
    minus_ok = res_minus <= tol
    if plus_ok and not minus_ok:
        sign = 2
    elif minus_ok and not plus_ok:
        sign = -2
    else:
        sign = None

    unitarity = (
        frobenius(k_mat.conj().T @ k_mat - np.eye(dim)),
        frobenius(e_minus.conj().T - e_plus),
    )
    passed = (
        commutator_residual <= tol
        and (plus_ok or minus_ok)
        and unitarity[0] <= tol
        and unitarity[1] <= tol
    )
    return RelationReport(
        commutator_residual=commutator_residual,
        conjugation_residual_plus=res_plus,
        conjugation_residual_minus=res_minus,
        detected_conjugation_sign=sign,
        unitarity_residuals=unitarity,
        tolerance=tol,
        passed=passed,
    )


def complex_to_pairs(values) -> list:
    """[[re, im], ...] of complex values, flattened row-major, signed zeros kept."""
    return np.ascontiguousarray(values, dtype=complex).reshape(-1).view(float).reshape(-1, 2).tolist()


def complex_from_pairs(pairs) -> np.ndarray:
    """The 1-d complex array of a [[re, im], ...] list; anything else raises ValueError."""
    arr = np.array(pairs)  # ragged nesting raises ValueError here
    if arr.dtype.kind not in "iuf" or arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("expected a list of [re, im] pairs of numbers")
    return np.ascontiguousarray(arr, dtype=float).view(complex)[:, 0]


def matrix_to_json(mat) -> dict:
    """Dense complex matrix as {dim, entries: [[re, im], ...]} in row-major order."""
    mat = np.asarray(mat, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    return {"dim": int(mat.shape[0]), "entries": complex_to_pairs(mat)}


def matrix_from_json(obj) -> np.ndarray:
    dim = int(obj["dim"])
    out = complex_from_pairs(obj["entries"])
    if out.size != dim * dim:
        raise ValueError(f"matrix payload has {out.size} entries, expected {dim * dim}")
    out = out.reshape(dim, dim)
    out.setflags(write=False)
    return out
