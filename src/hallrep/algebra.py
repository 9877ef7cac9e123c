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


class _Monomial:
    """A square matrix with at most one nonzero in each row and each column.

    Row i holds val[i] at column perm[i]; perm is a permutation, and a row
    with no nonzero gets a free column and the value 0.  Products, adjoints
    and inverses cost O(n) and stay monomial, so the residuals of the cyclic
    representations (diagonal K, weighted cyclic shifts E+-) never need a
    dense n x n product.
    """

    __slots__ = ("perm", "val")

    def __init__(self, perm: np.ndarray, val: np.ndarray):
        self.perm = perm
        self.val = val

    @classmethod
    def identity(cls, n: int) -> _Monomial:
        return cls(np.arange(n), np.ones(n, dtype=complex))

    @classmethod
    def from_dense(cls, mat: np.ndarray) -> _Monomial | None:
        """The monomial form of a square matrix, or None when it is not monomial."""
        n = mat.shape[0]
        rows, cols = np.nonzero(mat)  # row-major, so a repeated row is adjacent
        if np.any(rows[1:] == rows[:-1]) or np.any(np.bincount(cols, minlength=n) > 1):
            return None
        perm = np.empty(n, dtype=np.intp)
        val = np.zeros(n, dtype=complex)
        perm[rows] = cols
        val[rows] = mat[rows, cols]
        empty_rows = np.ones(n, dtype=bool)
        empty_rows[rows] = False
        free_cols = np.ones(n, dtype=bool)
        free_cols[cols] = False
        perm[empty_rows] = np.flatnonzero(free_cols)
        return cls(perm, val)

    def __matmul__(self, other: _Monomial) -> _Monomial:
        # (A B)[i, perm_B[perm_A[i]]] = A[i, perm_A[i]] * B[perm_A[i], perm_B[perm_A[i]]]
        return _Monomial(other.perm[self.perm], self.val * other.val[self.perm])

    def adjoint(self) -> _Monomial:
        perm = np.empty_like(self.perm)
        val = np.empty_like(self.val)
        perm[self.perm] = np.arange(len(self.perm))
        val[self.perm] = np.conj(self.val)
        return _Monomial(perm, val)

    def inv(self) -> _Monomial:
        if not np.all(self.val != 0):
            raise np.linalg.LinAlgError("Singular matrix")
        inverse = self.adjoint()
        inverse.val = 1.0 / self.val[inverse.perm]
        return inverse

    def power(self, n: int) -> _Monomial:
        """self**n for n >= 1, by binary powering."""
        z = result = None
        while n > 0:
            z = self if z is None else z @ z
            n, bit = divmod(n, 2)
            if bit:
                result = z if result is None else result @ z
        return result


def _frobenius_sum(terms, scale: float = 1.0) -> float:
    """Frobenius norm of (sum of c * M over (c, M) in terms) / scale, M monomial.

    Entries that land on the same position are added, in term order, after
    one sort of the positions.  A coefficient of exactly 1 is not multiplied
    in, and the division by the real scale runs on the real and imaginary
    parts: complex arithmetic with 1+0j would turn an overflowed inf entry
    into nan and raise numpy's invalid-value warning.
    """
    n = len(terms[0][1].perm)
    keys = np.concatenate([np.arange(n) * n + mat.perm for _, mat in terms])
    vals = np.concatenate([mat.val if c == 1 else c * mat.val for c, mat in terms])
    _, slot = np.unique(keys, return_inverse=True)
    summed = np.stack([np.bincount(slot, weights=part) for part in (vals.real, vals.imag)], axis=-1)
    return frobenius(np.ascontiguousarray(summed / scale).view(complex))


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

    When K, E+ and E- are all monomial (at most one nonzero in each row and
    each column, as every representation built by hallrep.cyclic is), the
    residuals are formed from O(n) products in O(n log n) time; any other
    input takes dense O(n^3) products.  Both give the same residuals up to
    rounding.
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

    monomials = [_Monomial.from_dense(mat) for mat in (k_mat, e_plus, e_minus)]
    if any(mat is None for mat in monomials):
        residuals = _dense_residuals(k_mat, e_plus, e_minus, root)
    else:
        residuals = _monomial_residuals(*monomials, root)
    commutator_residual, res_plus, res_minus, unitarity = residuals

    plus_ok = res_plus <= tol
    minus_ok = res_minus <= tol
    if plus_ok and not minus_ok:
        sign = 2
    elif minus_ok and not plus_ok:
        sign = -2
    else:
        sign = None
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


def _dense_residuals(k_mat, e_plus, e_minus, root: PrimitiveRoot):
    """(commutator, conjugation +2, conjugation -2, unitarity pair) by dense products."""
    dim = k_mat.shape[0]
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
    unitarity = (
        frobenius(k_mat.conj().T @ k_mat - np.eye(dim)),
        frobenius(e_minus.conj().T - e_plus),
    )
    return commutator_residual, res_plus, res_minus, unitarity


def _monomial_residuals(k_mat: _Monomial, e_plus: _Monomial, e_minus: _Monomial, root: PrimitiveRoot):
    """The residuals of _dense_residuals from monomial factors, in O(n log n)."""
    q = root.value
    k_inv = k_mat.inv()
    step = q - 1.0 / q
    commutator_residual = _frobenius_sum(
        [(1, e_plus @ e_minus), (-1, e_minus @ e_plus), (-1 / step, k_mat), (1 / step, k_inv)]
    )

    conj_plus = k_mat @ e_plus @ k_inv
    conj_minus = k_mat @ e_minus @ k_inv
    q2 = root.power(2)
    qm2 = root.power(-2)
    res_plus = max(
        _frobenius_sum([(1, conj_plus), (-q2, e_plus)]),
        _frobenius_sum([(1, conj_minus), (-qm2, e_minus)]),
    )
    res_minus = max(
        _frobenius_sum([(1, conj_plus), (-qm2, e_plus)]),
        _frobenius_sum([(1, conj_minus), (-q2, e_minus)]),
    )
    unitarity = (
        _frobenius_sum([(1, k_mat.adjoint() @ k_mat), (-1, _Monomial.identity(len(k_mat.perm)))]),
        _frobenius_sum([(1, e_minus.adjoint()), (-1, e_plus)]),
    )
    return commutator_residual, res_plus, res_minus, unitarity


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


def _json_int(obj, key: str) -> int:
    """The integer obj[key] of a decoded JSON object; anything else raises ValueError."""
    if not isinstance(obj, dict):
        raise ValueError(f"expected a JSON object holding {key!r}, got {type(obj).__name__}")
    value = obj.get(key)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{key!r} must be an integer, got {value!r}")
    return value


def matrix_from_json(obj) -> np.ndarray:
    dim = _json_int(obj, "dim")
    out = complex_from_pairs(obj["entries"])
    if out.size != dim * dim:
        raise ValueError(f"matrix payload has {out.size} entries, expected {dim * dim}")
    out = out.reshape(dim, dim)
    out.setflags(write=False)
    return out
