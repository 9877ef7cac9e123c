"""Cyclic representation builders for the deformed sl(2) algebra.

One type, CyclicRep, holds both realizations of the (2p+1)-dimensional
unitary cyclic representation, a diagonal K plus one weighted cyclic shift,
each on one wrapped diagonal:

* ladder form: K diagonal with entries q^i over basis labels i = 1..2p+1 and
  a raising operator stepping i down by two, with coefficient magnitudes
  obeying |a_i|^2 - |a_{i-2}|^2 = [i];
* generic weight-basis form: K v_m = lam q^(-2m) v_m over labels m = 0..2p,
  with one-step cyclic shifts E+ v_m = g_m v_{m+1}, E- v_m = f_m v_{m-1}.

Both magnitude chains are solved in closed form by one telescoped sum: with
lam = e^(i phi), point m of the weight chain holds
|g_m|^2 = |g_0|^2 - [m] sin(phi - (m+1) theta) / sin(theta), and the ladder
chain is the case lam = 1, |a_{2t}|^2 = |a_{2p+1}|^2 + [t][t+1].  Every sine
is taken on an exactly reduced multiple of theta, so the chain closes
exactly; the ladder infimum is 1/(4 cos^2(theta/2)), reached at t = p
(generic_infimum_base(root, 1), or solve_ladder_magnitudes' infimum_base).
A permutation relabeling (the intertwiner) carries one form into the other.
Arrays store ladder label i at slot i-1 and weight label m at slot m; all
label arithmetic wraps modulo 2p+1.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .algebra import (
    PrimitiveRoot,
    _frobenius_sum,
    _json_int,
    _matrix_from_json,
    _sin_pi,
    _WrappedDiagonal,
    complex_from_pairs,
    complex_to_pairs,
    frobenius,
    q_number,
)

__all__ = [
    "CyclicRep",
    "CyclicityReport",
    "InfeasibleBaseError",
    "IntertwinerResult",
    "MagnitudeSolution",
    "build_ladder",
    "cyclicity_check",
    "generic_from_coefficients",
    "generic_infimum_base",
    "intertwiner",
    "ladder_from_coefficients",
    "rep_from_json",
    "solve_generic_coefficients",
    "solve_ladder_magnitudes",
    "three_block_residual",
]


class InfeasibleBaseError(ValueError):
    """The free base constant is too small to keep every magnitude positive."""

    def __init__(self, base: float, infimum_base: float):
        self.base = base
        self.infimum_base = infimum_base
        super().__init__(
            f"base {base} does not keep every squared magnitude positive; "
            f"it must exceed the infimum {infimum_base}"
        )


def _chain(root: PrimitiveRoot, lam: complex) -> tuple[np.ndarray, float]:
    """Point m = 0..2p of the chain x_m - x_{m-1} = -Im(lam q^(-2m)) / sin(theta), less x_0.

    For lam = e^(i phi) the sum telescopes to -[m] sin(phi - (m+1) theta) / sin(theta),
    with sin(phi - (m+1) theta) = Im(lam q^-(m+1)); at lam = 1, the ladder
    chain of increments [2m], point m holds [m][m+1] exactly.  Point 0 holds
    zero and the chain closes by integer reduction, with no sum to round.
    Also returns the feasibility infimum, the smallest base keeping every
    point positive.
    """
    lam = complex(lam)
    if not cmath.isfinite(lam) or abs(abs(lam) - 1.0) > 1e-12:
        raise ValueError(f"lambda must be a finite number of unit modulus, got {lam}")
    m = np.arange(root.order)
    cos_next = _sin_pi(root.order - 4 * root.k * (m + 1), 2 * root.order)  # cos((m+1) theta)
    sin_shifted = lam.imag * cos_next - lam.real * root.sin_multiple(m + 1)
    sums = -q_number(m, root) * (sin_shifted / root.sin_multiple(1))
    return sums, max(0.0, -float(sums.min()))


def _checked_base(base: float | None, infimum: float) -> float:
    """The free base value, defaulting to the infimum plus one."""
    if base is None:
        return infimum + 1.0
    if not math.isfinite(base):
        raise ValueError(f"base must be a finite number, got {base}")
    if base <= infimum:
        raise InfeasibleBaseError(base, infimum)
    return base


def _phase_factors(phases, n: int) -> np.ndarray:
    """exp(i * phase) for n finite coefficient phases; None gives all ones."""
    phases = np.zeros(n) if phases is None else np.asarray(phases, dtype=float)
    if phases.shape != (n,):
        raise ValueError(f"expected {n} phases, got shape {phases.shape}")
    if not np.all(np.isfinite(phases)):
        raise ValueError("phases must be finite numbers")
    return np.exp(1j * phases)


# ----------------------------------------------------------------------
# ladder-form magnitudes


@dataclass(frozen=True)
class MagnitudeSolution:
    """Squared ladder-coefficient magnitudes |a_i|^2 for i = 1..2p+1.

    base is the free value, |a_{2p+1}|^2 exactly; infimum_base is the
    smallest base that keeps the whole chain strictly positive.
    """

    root: PrimitiveRoot
    base: float
    magnitudes: tuple[float, ...]
    infimum_base: float


def solve_ladder_magnitudes(
    root: PrimitiveRoot, base: float | None = None
) -> MagnitudeSolution:
    """Solve |a_i|^2 - |a_{i-2}|^2 = [i] around the step-2 cycle in closed form.

    Point t of the cycle is label 2t (mod 2p+1; gcd(2, 2p+1) = 1, so it
    visits every label once) and holds base + [t][t+1].  base defaults to
    the feasibility infimum plus one.  The solution is re-checked against
    the equivalent three-block form of the recurrences so a transcription
    slip in either form trips the other; the check's bound scales with
    max(1, max |a_i|^2), since each difference of two squared magnitudes
    carries their rounding.
    """
    sums, infimum = _chain(root, 1.0)
    base = _checked_base(base, infimum)
    mags = np.empty(root.order)
    mags[(2 * np.arange(root.order) - 1) % root.order] = base + sums  # point t is label 2t, slot 2t-1
    solution = MagnitudeSolution(
        root=root, base=float(base), magnitudes=tuple(mags.tolist()), infimum_base=infimum
    )
    cross_check = three_block_residual(solution)
    if cross_check > 1e-10 * max(1.0, float(mags.max())):
        raise ArithmeticError(
            f"three-block recurrence residual {cross_check} after solving"
        )
    return solution


def three_block_residual(solution: MagnitudeSolution) -> float:
    """Max deviation from the three-block form of the magnitude recurrences.

    Blocks: |a_{2p+1}|^2 - |a_{2p-1}|^2 = 0, |a_{2p}|^2 - |a_{2p-2}|^2 = -1,
    and |a_{l+2}|^2 - |a_l|^2 = [l+2] for l = -1..2p-3 with the wraparound
    identifications a_{-1} = a_{2p}, a_0 = a_{2p+1}.
    """
    root = solution.root
    p = root.p
    mags = np.asarray(solution.magnitudes)  # label i at slot i-1; slots -1, -2 wrap to labels 2p+1, 2p
    i = np.arange(1, 2 * p)  # l + 2
    residuals = np.concatenate((
        [mags[2 * p] - mags[2 * p - 2], mags[2 * p - 1] - mags[2 * p - 3] + 1.0],
        mags[i - 1] - mags[i - 3] - q_number(i, root),
    ))
    return float(np.max(np.abs(residuals)))


# ----------------------------------------------------------------------
# realized representations


@dataclass(frozen=True, eq=False)
class CyclicRep:
    """A realized cyclic representation: diagonal K plus one weighted cyclic shift.

    kind "ladder": K = diag(q^i), E+ = sum_i a_i |i><i+2|, E- stored as the
    exact adjoint of E+, entry for entry; raising holds a_i by row label i
    and lowering holds conj(a_i).
    kind "generic": K v_m = lam q^(-2m) v_m, E+ v_m = g_m v_{m+1},
    E- v_m = f_m v_{m-1}; raising holds g and lowering f, by weight m.
    lam is K's eigenvalue on the first basis vector (q in the ladder form).
    Whether the matrices pair as a unitary representation's do (E-^dagger =
    E+) is measured by verify_relations' adjoint residual.
    """

    root: PrimitiveRoot
    kind: str
    lam: complex
    raising: np.ndarray
    lowering: np.ndarray
    k_mat: np.ndarray
    e_plus: np.ndarray
    e_minus: np.ndarray

    @property
    def p(self) -> int:
        return self.root.p

    @property
    def dim(self) -> int:
        return self.root.order

    def rebuild(self) -> CyclicRep:
        """The same coefficients with the matrices realized afresh."""
        return _assemble(self.root, self.kind, self.raising, self.lowering, self.lam)

    def to_json(self) -> dict:
        return self._json_tree(complex_to_pairs)

    def _json_tree(self, encode=np.asarray) -> dict:
        """The JSON object of to_json, each coefficient vector and matrix passed through encode.

        The default leaves them as arrays, which the CLI writes as [re, im]
        pair text without building the pair lists.
        """
        obj = {"kind": self.kind, "p": self.root.p, "k": self.root.k}
        if self.kind == "ladder":
            obj["coefficients"] = encode(self.raising)
        else:
            obj["lambda"] = complex_to_pairs(self.lam)[0]
            obj["coefficients"] = {"g": encode(self.raising), "f": encode(self.lowering)}
        obj["matrices"] = {
            name: {"dim": len(mat), "entries": encode(mat)}
            for name, mat in (("K", self.k_mat), ("Ep", self.e_plus), ("Em", self.e_minus))
        }
        return obj


# not exported: the benchmark's tracer wraps to_json through this name
LadderRep = CyclicRep


def _assemble(root: PrimitiveRoot, kind: str, raising, lowering=None, lam=None, mats=None) -> CyclicRep:
    """The one path from coefficients to a CyclicRep.

    The ladder form ignores lowering and lam and takes conj(raising) and q.
    mats, a JSON {"K", "Ep", "Em"} object, is stored verbatim instead of
    realizing the matrices, so a corrupted file loads and then fails
    verification.
    """
    n = root.order
    lam = root.power(1) if kind == "ladder" else complex(lam)
    raising = np.array(raising, dtype=complex)
    lowering = np.conj(raising) if kind == "ladder" else np.array(lowering, dtype=complex)
    labels = ("coefficients",) if kind == "ladder" else ("g coefficients", "f coefficients")
    for label, vec in zip(labels, (raising, lowering)):
        if vec.shape != (n,):
            raise ValueError(f"expected {n} {label}, got shape {vec.shape}")
    if mats is not None:
        k_mat, e_plus, e_minus = (_matrix_from_json(mats[key]) for key in ("K", "Ep", "Em"))
    else:
        j = np.arange(n)
        e_plus = np.zeros((n, n), dtype=complex)
        if kind == "ladder":
            k_mat = np.diag([root.power(i) for i in range(1, n + 1)])
            e_plus[j, (j + 2) % n] = raising
            e_minus = e_plus.conj().T.copy()
        else:
            k_mat = np.diag([lam * root.power(-2 * m) for m in range(n)])
            e_plus[(j + 1) % n, j] = raising
            e_minus = np.zeros((n, n), dtype=complex)
            e_minus[(j - 1) % n, j] = lowering
    for arr in (raising, lowering, k_mat, e_plus, e_minus):
        arr.setflags(write=False)
    return CyclicRep(
        root=root, kind=kind, lam=lam, raising=raising, lowering=lowering,
        k_mat=k_mat, e_plus=e_plus, e_minus=e_minus,
    )


def ladder_from_coefficients(root: PrimitiveRoot, a) -> CyclicRep:
    """Assemble the ladder matrices from an explicit coefficient vector."""
    return _assemble(root, "ladder", a)


def build_ladder(
    root: PrimitiveRoot, *, base: float | None = None, phases=None
) -> CyclicRep:
    """Realize the ladder representation K = diag(q^i), E+ = sum a_i |i><i+2|.

    phases supplies arg(a_i); the default leaves every coefficient real and
    positive.  Two phase vectors give unitarily equivalent representations
    exactly when their sums agree mod 2 pi: E+^(2p+1) = (prod a_i) 1 is
    central, so arg prod a_i = sum of the phases is an invariant, while the
    diagonal gauge diag(exp(i t_i)) (the only intertwiners, K having
    distinct eigenvalues) shifts phase i by t_i - t_(i+2) and so reaches
    every phase vector with the same sum.
    """
    a = np.sqrt(np.asarray(solve_ladder_magnitudes(root, base).magnitudes)) * _phase_factors(phases, root.order)
    return ladder_from_coefficients(root, a)


def generic_infimum_base(root: PrimitiveRoot, lam: complex) -> float:
    """Smallest |g_0|^2 keeping the whole unitary chain positive; lam must be finite of unit modulus."""
    return _chain(root, lam)[1]


def solve_generic_coefficients(
    root: PrimitiveRoot,
    lam: complex,
    base: float | None = None,
    phases=None,
) -> CyclicRep:
    """Solve the unitary closure chain for |g_m| and realize the matrices.

    Unitarity pins f_{m+1} = conj(g_m) and turns the commutator relation into
    the real telescoping chain |g_{m-1}|^2 - |g_m|^2 = Im(lam q^(-2m)) /
    sin(theta), solved in closed form by its telescoped sum.  One base value
    |g_0|^2 stays free and defaults to the feasibility infimum plus one.
    """
    sums, infimum = _chain(root, lam)
    base = _checked_base(base, infimum)
    g = np.sqrt(base + sums) * _phase_factors(phases, root.order)
    f = np.conj(np.roll(g, 1))  # f_{m+1} = conj(g_m)
    return generic_from_coefficients(root, lam, g, f)


def generic_from_coefficients(root: PrimitiveRoot, lam: complex, g, f) -> CyclicRep:
    """Assemble weight-basis matrices from explicit coefficient vectors."""
    return _assemble(root, "generic", g, f, lam)


# ----------------------------------------------------------------------
# cyclicity and intertwining


@dataclass(frozen=True)
class CyclicityReport:
    """Outcome of the no-annihilated-state check.

    epow_scalar is the product of the raising coefficients, the scalar c with
    E+^(2p+1) = c * 1.  The scalar grows exponentially with p, so the power
    residuals are reported relative to its Frobenius norm (floored at one),
    dividing before the norm is taken so the norm itself cannot overflow.
    is_cyclic is false whenever the scalar or a residual is not finite.
    """

    is_cyclic: bool
    epow_scalar: complex
    raising_residual: float
    lowering_residual: float


def cyclicity_check(rep: CyclicRep) -> CyclicityReport:
    """Check that no state is annihilated and that E+-^(2p+1) are scalars.

    An E+- on one wrapped diagonal, as in every built representation, has no
    zero column exactly when every weight is nonzero, and is raised to the
    power 2p+1 in O(n log n) by binary powering; any other matrix is scanned
    column by column and takes the dense matrix_power.
    """
    n = rep.root.order
    scalar_plus = complex(np.prod(rep.raising))
    scalar_minus = complex(np.prod(rep.lowering))

    def columns_and_residual(mat: np.ndarray, scalar: complex) -> tuple[bool, float]:
        """(no column of mat is zero, scaled residual of mat^n - scalar)."""
        denom = max(1.0, abs(scalar) * math.sqrt(n))
        wrapped = _WrappedDiagonal.from_dense(mat)
        if wrapped is not None:
            residual = _frobenius_sum([(1, wrapped.power(n)), (-scalar, _WrappedDiagonal.identity(n))], denom)
            return bool(np.all(wrapped.diag != 0)), residual
        with np.errstate(invalid="ignore", over="ignore"):  # a stored inf gives a nan residual, no warning
            power = np.linalg.matrix_power(mat, n)
        return bool(np.all(np.any(mat != 0, axis=0))), frobenius((power - scalar * np.eye(n)) / denom)

    plus_columns, raising_residual = columns_and_residual(rep.e_plus, scalar_plus)
    minus_columns, lowering_residual = columns_and_residual(rep.e_minus, scalar_minus)
    # an overflowed product is nan, and nan != 0: no verdict without finite numbers
    finite = cmath.isfinite(scalar_plus) and math.isfinite(raising_residual) and math.isfinite(lowering_residual)
    return CyclicityReport(
        is_cyclic=finite and plus_columns and minus_columns and scalar_plus != 0 and scalar_minus != 0,
        epow_scalar=scalar_plus,
        raising_residual=raising_residual,
        lowering_residual=lowering_residual,
    )


@dataclass(frozen=True, eq=False)
class IntertwinerResult:
    """Permutation relabeling of a ladder rep into weight-basis form.

    sigma[m] is the 1-based ladder label playing v_m; lam = q^s; residual is
    the max Frobenius gap between the permutation-conjugated ladder matrices
    and the rebuilt weight-basis matrices.
    """

    sigma: tuple[int, ...]
    lam: complex
    residual: float
    generic: CyclicRep


def intertwiner(rep: CyclicRep, s: int) -> IntertwinerResult:
    """Exhibit the ladder rep in weight-basis form via sigma(m) = (s - 2m) mod 2p+1.

    Relabeling v_m = |sigma(m)> diagonalizes K as q^s q^(-2m) and turns the
    step-down-by-two ladder shifts into the one-step cyclic shifts, with
    g_m = a_{sigma(m+1)} and f_m = conj(a_{sigma(m)}).
    """
    if rep.kind != "ladder":
        raise ValueError("intertwiner expects a ladder-form representation")
    n = rep.root.order
    m = np.arange(n)
    slot = (s - 2 * m - 1) % n  # sigma(m) - 1
    sigma = tuple((slot + 1).tolist())
    lam = rep.root.power(s)
    generic = generic_from_coefficients(rep.root, lam, rep.raising[np.roll(slot, -1)], np.conj(rep.raising[slot]))

    # conjugating by the relabeling matrix (its one 1 of row slot[m] in column m)
    # reorders rows and columns alike: (P^T M P)[a, b] = M[slot[a], slot[b]]
    relabel = np.ix_(slot, slot)
    residual = max(
        frobenius(getattr(rep, name)[relabel] - getattr(generic, name))
        for name in ("k_mat", "e_plus", "e_minus")
    )
    return IntertwinerResult(sigma=sigma, lam=lam, residual=residual, generic=generic)


# ----------------------------------------------------------------------
# serialization


def rep_from_json(obj: dict) -> CyclicRep:
    """Rebuild a representation from its JSON form.

    Stored matrices are taken verbatim when present (so a corrupted file can
    be loaded and then fail verification); otherwise the matrices are
    realized from the coefficients.  A non-finite coefficient or lambda
    raises ValueError: nothing downstream reads the coefficients as a check.
    """
    root = PrimitiveRoot(_json_int(obj, "p"), _json_int(obj, "k"))
    kind = obj.get("kind", "ladder")
    if kind == "ladder":
        lam, raising, lowering = None, complex_from_pairs(obj["coefficients"]), None
    elif kind == "generic":
        (lam,) = complex_from_pairs([obj["lambda"]])
        coefficients = obj["coefficients"]
        if not isinstance(coefficients, dict):
            raise ValueError('generic coefficients must be an object {"g": [...], "f": [...]}')
        raising, lowering = (complex_from_pairs(coefficients[key]) for key in ("g", "f"))
    else:
        raise ValueError(f"unknown representation kind {kind!r}")
    for values in (raising, lowering, lam):
        if values is not None and not np.all(np.isfinite(values)):
            raise ValueError("coefficients and lambda must be finite")
    mats = obj.get("matrices")
    if mats is not None and not (isinstance(mats, dict) and all(key in mats for key in ("K", "Ep", "Em"))):
        raise ValueError("matrices must be an object holding K, Ep and Em")
    return _assemble(root, kind, raising, lowering, lam, mats)
