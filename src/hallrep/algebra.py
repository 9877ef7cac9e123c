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
    "q_number",
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
    def value(self) -> complex:
        return self.power(1)

    def power(self, n: int) -> complex:
        """q**n with the exponent reduced mod 2p+1 first."""
        r = (n * self.k) % self.order
        return cmath.exp(2j * math.pi * r / self.order)

    def sin_multiple(self, n):
        """sin(n * theta) on an exactly reduced argument, so n and order-n negate exactly.

        An int n gives a float, an integer array an array.
        """
        out = _sin_pi(2 * self.k * n, self.order)
        return out if isinstance(out, np.ndarray) else float(out)


def _sin_pi(j, d: int):
    """sin(pi * j / d) for an int or an integer array j, the one reduction of sine arguments.

    j is reduced mod 2d in integer arithmetic and folded by sin(x + pi) =
    -sin(x) and sin(pi - x) = sin(x), so sin only ever sees an argument in
    [0, pi/2] and stays accurate relative to its value, however small.
    sin(n theta) is j = 2nk over d = 2p+1; cos(n theta) = sin(pi/2 - n theta)
    is j = 2p+1 - 4nk over d = 2(2p+1).
    """
    j = j % (2 * d)
    sign = 1 - 2 * (j >= d)
    j = j % d
    return sign * np.sin(np.pi * np.minimum(j, d - j) / d)


def q_number(n, root: PrimitiveRoot):
    """The q-integer [n] = (q^n - q^-n)/(q - q^-1) = sin(n theta)/sin(theta).

    Evaluated through exactly reduced sines, elementwise for an integer
    array n; the tests keep the literal complex quotient as an independent
    cross-check.
    """
    return root.sin_multiple(n) / root.sin_multiple(1)


def frobenius(mat) -> float:
    """Frobenius norm of a dense matrix."""
    return float(np.linalg.norm(np.asarray(mat)))


class _WrappedDiagonal:
    """A square matrix whose nonzeros lie on one wrapped diagonal.

    Row i holds diag[i] at column (i + shift) mod n.  K is one (shift 0), and
    so is each weighted cyclic shift E+- of the cyclic representations.
    Products, adjoints and inverses stay on one wrapped diagonal and cost a
    roll and a multiply, so their residuals never need a dense n x n product.
    """

    __slots__ = ("diag", "shift")

    def __init__(self, diag: np.ndarray, shift: int):
        self.diag = diag
        self.shift = shift % len(diag)

    @classmethod
    def identity(cls, n: int) -> _WrappedDiagonal:
        return cls(np.ones(n, dtype=complex), 0)

    @classmethod
    def from_dense(cls, mat: np.ndarray) -> _WrappedDiagonal | None:
        """The wrapped-diagonal form of a square matrix, or None when it has none."""
        nonzero = mat != 0
        if not nonzero.size:
            return None
        n = mat.shape[0]
        row, col = divmod(int(np.argmax(nonzero)), n)  # the first nonzero, or (0, 0)
        i = np.arange(n)
        j = (i + col - row) % n
        if np.count_nonzero(nonzero[i, j]) != np.count_nonzero(nonzero):
            return None
        return cls(mat[i, j], col - row)

    def __matmul__(self, other: _WrappedDiagonal) -> _WrappedDiagonal:
        # (A B)[i, i + a + b] = A[i, i + a] * B[i + a, i + a + b]
        return _WrappedDiagonal(self.diag * np.roll(other.diag, -self.shift), self.shift + other.shift)

    def adjoint(self) -> _WrappedDiagonal:
        # A^H[j, j - s] = conj(A[j - s, j])
        return _WrappedDiagonal(np.conj(np.roll(self.diag, self.shift)), -self.shift)

    def inv(self) -> _WrappedDiagonal:
        if not np.all(self.diag != 0):
            raise np.linalg.LinAlgError("Singular matrix")
        return _WrappedDiagonal(1.0 / np.roll(self.diag, self.shift), -self.shift)

    def power(self, n: int) -> _WrappedDiagonal:
        """self**n for n >= 1, by binary powering."""
        z = result = None
        while n > 0:
            z = self if z is None else z @ z
            n, bit = divmod(n, 2)
            if bit:
                result = z if result is None else result @ z
        return result


def _frobenius_sum(terms, scale: float = 1.0) -> float:
    """Frobenius norm of (sum of c * M over (c, M) in terms) / scale, M wrapped-diagonal.

    Two shifts never share a position, so terms on the same shift are added
    entrywise, in term order.  A coefficient of exactly 1 is not multiplied
    in, and the division by the real scale runs on the real and imaginary
    parts: complex arithmetic with 1+0j would turn an overflowed inf entry
    into nan and raise numpy's invalid-value warning.
    """
    by_shift = {}
    for c, mat in terms:
        part = mat.diag if c == 1 else c * mat.diag
        by_shift[mat.shift] = by_shift.get(mat.shift, 0) + part
    summed = np.concatenate(list(by_shift.values()))
    return frobenius(summed.view(float) / scale)


def default_tolerance(dim: int) -> float:
    """Default Frobenius verification tolerance, 1e-10 scaled by dimension."""
    return 1e-10 * dim


@dataclass(frozen=True)
class RelationReport:
    """Residuals of the deformed-algebra relations for a (K, E+, E-) triple.

    detected_conjugation_sign is +2 when K E+ K^-1 = q^(+2) E+ holds within
    tolerance, -2 when the q^(-2) convention holds, and None (indeterminate)
    when neither or both do, e.g. for vanishing ladder operators.  passed
    holds when failing() names no residual; a nan residual fails.
    """

    commutator_residual: float
    conjugation_residual_plus: float
    conjugation_residual_minus: float
    unitarity_residuals: tuple[float, float]
    tolerance: float

    def _conjugation_holds(self) -> tuple[bool, bool]:
        """Whether the q^(+2) and the q^(-2) conjugation conventions hold within the tolerance."""
        return self.conjugation_residual_plus <= self.tolerance, self.conjugation_residual_minus <= self.tolerance

    @property
    def detected_conjugation_sign(self) -> int | None:
        plus_ok, minus_ok = self._conjugation_holds()
        if plus_ok == minus_ok:
            return None
        return 2 if plus_ok else -2

    @property
    def passed(self) -> bool:
        return not self.failing()

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
        """Names of the residuals not within the tolerance, nan ones included."""
        tol = self.tolerance
        out = []
        if not self.commutator_residual <= tol:
            out.append(f"commutator_residual={self.commutator_residual:.3e}")
        if not any(self._conjugation_holds()):
            out.append(
                f"conjugation_residual_minus={self.conjugation_residual_minus:.3e}"
            )
        if not self.unitarity_residuals[0] <= tol:
            out.append(f"k_unitarity_residual={self.unitarity_residuals[0]:.3e}")
        if not self.unitarity_residuals[1] <= tol:
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

    When the nonzeros of each of K, E+ and E- lie on one wrapped diagonal
    (row i at column (i + s) mod n for one offset s per matrix, as in every
    representation hallrep.cyclic builds), the residuals are formed from
    rolled vectors in O(n); any other input takes dense O(n^3) products.
    Both give the same residuals up to rounding.
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

    wrapped = [_WrappedDiagonal.from_dense(mat) for mat in (k_mat, e_plus, e_minus)]
    if any(mat is None for mat in wrapped):
        # stored inf entries give inf or nan residuals, which the report names; numpy need not warn
        with np.errstate(invalid="ignore", over="ignore"):
            residuals = _dense_residuals(k_mat, e_plus, e_minus, root)
    else:
        residuals = _wrapped_residuals(*wrapped, root)
    commutator_residual, res_plus, res_minus, unitarity = residuals
    return RelationReport(
        commutator_residual=commutator_residual,
        conjugation_residual_plus=res_plus,
        conjugation_residual_minus=res_minus,
        unitarity_residuals=unitarity,
        tolerance=tol,
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


def _wrapped_residuals(k_mat: _WrappedDiagonal, e_plus: _WrappedDiagonal, e_minus: _WrappedDiagonal, root: PrimitiveRoot):
    """The residuals of _dense_residuals from wrapped-diagonal factors, in O(n)."""
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
        _frobenius_sum([(1, k_mat.adjoint() @ k_mat), (-1, _WrappedDiagonal.identity(len(k_mat.diag)))]),
        _frobenius_sum([(1, e_minus.adjoint()), (-1, e_plus)]),
    )
    return commutator_residual, res_plus, res_minus, unitarity


def complex_to_pairs(values) -> list:
    """[[re, im], ...] of complex values, flattened row-major, signed zeros kept."""
    return np.ascontiguousarray(values, dtype=complex).reshape(-1).view(float).reshape(-1, 2).tolist()


# json's text of a zero entry's [re, im] and the separator after it, indexed by
# 2 * signbit(re) + signbit(im); index 4 holds the place of a nonzero entry
_ZERO_PAIR_TEXT = np.array(["[0.0, 0.0], ", "[0.0, -0.0], ", "[-0.0, 0.0], ", "[-0.0, -0.0], ", ""], dtype=object)


def _pairs_text(values) -> str:
    """The text of json.dumps(complex_to_pairs(values)), written without the pair lists.

    Zero entries, all but O(n) of a cyclic representation's n^2, come in runs
    of one text (its signs); every file the CLI writes gives each matrix's
    zeros one sign pattern.  A run is one piece of the join, one string
    multiplication, so it costs the copy of its bytes.  Only nonzero entries
    go through float repr.  A non-finite entry raises ValueError, as
    json.dumps(..., allow_nan=False) does.
    """
    flat = np.ascontiguousarray(values, dtype=complex).reshape(-1)
    if not np.all(np.isfinite(flat)):
        raise ValueError("Out of range float values are not JSON compliant")
    if not flat.size:
        return "[]"
    pairs = flat.view(float).reshape(-1, 2)
    nonzero = flat != 0
    signs = np.signbit(pairs)
    codes = np.where(nonzero, 4, 2 * signs[:, 0] + signs[:, 1])
    starts = np.flatnonzero(np.concatenate(([True], (codes[1:] != codes[:-1]) | nonzero[1:])))
    codes, lengths = codes[starts], np.diff(starts, append=flat.size)
    parts = _ZERO_PAIR_TEXT[codes] * lengths
    parts[nonzero[starts]] = [f"[{re!r}, {im!r}], " for re, im in pairs[nonzero].tolist()]
    parts = parts.tolist()
    parts[-1] = parts[-1][:-2] + "]"  # the last entry's separator closes the list
    return "[" + "".join(parts)


class _PairText:
    """The [[re, im], ...] lists of one text, each read as an (m, 2) float array.

    The text's bytes are scanned once, for every list in it: its "]" bytes
    cut the pairs, and its digits 1-9 (every nonzero repr has one, no zero
    text does) mark the nonzero pairs.  A list is the pairs up to the first
    "]" that follows a "]" or its own "[".  Zero pairs take their signs from
    their '-' bytes; only nonzero pairs go through float.  That parse may be
    lenient because a list is returned only when _pairs_text of it is the
    text at its start byte for byte; json.dumps writes that text, and float
    repr round-trips finite floats with their signed zeros, so the values
    are the bits json.loads would give.
    """

    def __init__(self, text: str):
        self.text = text
        found = []
        # 256 KiB at a time: temporaries the size of a whole file grow a
        # long-running caller's heap; an empty text is one empty block
        block = 1 << 18
        for lo in range(0, max(len(text), 1), block):
            back = min(lo, 10)  # a "]" is judged by the 10 bytes before it
            # a non-ASCII character becomes one "?" byte, so byte offsets stay character offsets
            raw = np.frombuffer(text[lo - back : lo + block].encode("ascii", "replace"), dtype=np.uint8)
            closes = np.flatnonzero(raw[back:] == ord("]")) + back
            before = raw.take(closes - 1, mode="clip")
            # the signs of the zero pair each "]" would close, read back from it:
            # "-0.0]" ends a negative im, and the re sign then sits 9 or 10 bytes back
            im_negative = raw.take(closes - 4, mode="clip") == ord("-")
            re_negative = raw.take(closes - 9 - im_negative, mode="clip") == ord("-")
            digits = np.flatnonzero(raw[back:] - np.uint8(ord("1")) < 9)  # uint8 wraps the bytes below "1"
            list_end = (before == ord("]")) | (before == ord("["))
            found.append((closes + (lo - back), list_end, im_negative, re_negative, digits + lo))
        self.closes, list_end, self.im_negative, self.re_negative, self.digits = map(np.concatenate, zip(*found))
        self.list_ends = self.closes[list_end]

    def read(self, start: int) -> tuple[np.ndarray, int]:
        """The certified array of the list whose "[" is at start, and the offset just past it.

        Any other text there raises ValueError.
        """
        at = np.searchsorted(self.list_ends, start, side="right")
        if at == len(self.list_ends):
            raise ValueError("no end of a pair list")
        end = self.list_ends[at]
        lo, hi = np.searchsorted(self.closes, [start, end])
        pair_ends = self.closes[lo:hi]
        out = np.empty((hi - lo, 2))
        out[:, 0] = np.where(self.re_negative[lo:hi], -0.0, 0.0)
        out[:, 1] = np.where(self.im_negative[lo:hi], -0.0, 0.0)
        lo, hi = np.searchsorted(self.digits, [start, end])
        nonzero = np.unique(np.searchsorted(pair_ends, self.digits[lo:hi]))
        nonzero = nonzero[nonzero < len(pair_ends)]
        # a pair's numbers start after the "[[" opening the list or the "], [" before them
        firsts = np.where(nonzero > 0, pair_ends[nonzero - 1] + 4, start + 2)
        parsed = []
        for first, stop in zip(firsts.tolist(), pair_ends[nonzero].tolist()):
            re, im = self.text[first:stop].split(",")
            parsed.append((float(re), float(im)))
        out[nonzero] = np.array(parsed).reshape(-1, 2)
        certificate = _pairs_text(out.view(complex))
        if not self.text.startswith(certificate, start):
            raise ValueError("not the canonical text of a list of [re, im] pairs")
        return out, start + len(certificate)


def complex_from_pairs(pairs) -> np.ndarray:
    """The 1-d complex array of a [[re, im], ...] list; anything else raises ValueError."""
    arr = np.array(pairs)  # ragged nesting raises ValueError here
    if arr.dtype.kind not in "iuf" or arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("expected a list of [re, im] pairs of numbers")
    return np.ascontiguousarray(arr, dtype=float).view(complex)[:, 0]


def _json_int(obj, key: str) -> int:
    """The integer obj[key] of a decoded JSON object; anything else raises ValueError."""
    if not isinstance(obj, dict):
        raise ValueError(f"expected a JSON object holding {key!r}, got {type(obj).__name__}")
    value = obj.get(key)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{key!r} must be an integer, got {value!r}")
    return value


def _matrix_from_json(obj) -> np.ndarray:
    """The read-only dim x dim complex matrix of a decoded {"dim", "entries"} object."""
    dim = _json_int(obj, "dim")
    out = complex_from_pairs(obj["entries"])
    if out.size != dim * dim:
        raise ValueError(f"matrix payload has {out.size} entries, expected {dim * dim}")
    out = out.reshape(dim, dim)
    out.setflags(write=False)
    return out
