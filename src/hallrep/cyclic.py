"""Cyclic representation builders for the deformed sl(2) algebra.

Two realizations of the (2p+1)-dimensional unitary cyclic representation:

* ladder form: K diagonal with entries q^i over basis labels i = 1..2p+1 and
  a raising operator stepping i down by two, with coefficient magnitudes
  obeying |a_i|^2 - |a_{i-2}|^2 = [i];
* generic weight-basis form: K v_m = lam q^(-2m) v_m over labels m = 0..2p,
  with one-step cyclic shifts E+ v_m = g_m v_{m+1}, E- v_m = f_m v_{m-1}.

A permutation relabeling (the intertwiner) carries one into the other.
Arrays store ladder label i at slot i-1 and weight label m at slot m; all
label arithmetic wraps modulo 2p+1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import (
    PrimitiveRoot,
    frobenius,
    matrix_from_json,
    matrix_to_json,
    q_number,
)

__all__ = [
    "CyclicityReport",
    "GenericCyclicRep",
    "InfeasibleBaseError",
    "IntertwinerResult",
    "LadderRep",
    "MagnitudeSolution",
    "build_ladder",
    "consolidated_residual",
    "cyclicity_check",
    "generic_from_coefficients",
    "generic_infimum_base",
    "intertwiner",
    "ladder_from_coefficients",
    "ladder_infimum_base",
    "rep_from_json",
    "solve_generic_coefficients",
    "solve_ladder_magnitudes",
    "three_block_residual",
]

_CLOSURE_TOL = 1e-12
_BUILD_TOL = 1e-12


class InfeasibleBaseError(ValueError):
    """The free base constant is too small to keep every magnitude positive."""

    def __init__(self, base: float, infimum_base: float):
        self.base = base
        self.infimum_base = infimum_base
        super().__init__(
            f"base {base} does not keep every squared magnitude positive; "
            f"it must exceed the infimum {infimum_base}"
        )


def _label(i: int, order: int) -> int:
    """Reduce a 1-based ladder label to its representative in 1..order."""
    return (i - 1) % order + 1


# ----------------------------------------------------------------------
# ladder-form magnitudes


@dataclass(frozen=True)
class MagnitudeSolution:
    """Squared ladder-coefficient magnitudes |a_i|^2 for i = 1..2p+1.

    base is the free value |a_{2p+1}|^2; infimum_base is the smallest base
    that keeps the whole chain strictly positive.
    """

    root: PrimitiveRoot
    base: float
    magnitudes: tuple[float, ...]
    infimum_base: float

    @property
    def p(self) -> int:
        return self.root.p

    def magnitude(self, i: int) -> float:
        """|a_i|^2 for a 1-based label, reduced cyclically."""
        return self.magnitudes[_label(i, self.root.order) - 1]


def _step2_prefix_sums(root: PrimitiveRoot) -> tuple[dict, float]:
    """Prefix sums of [i] along the step-2 visiting order 2, 4, ..., 2p+1.

    gcd(2, 2p+1) = 1, so the chain hits every label exactly once, and the
    full-cycle sum of q-integers vanishes identically.
    """
    n = root.order
    prefix: dict[int, float] = {}
    running = 0.0
    for t in range(1, n + 1):
        label = _label(2 * t, n)
        running += q_number(label, root)
        prefix[label] = running
    if abs(running) > _CLOSURE_TOL * n:
        raise ArithmeticError(
            f"cyclic closure sum {running} did not vanish for p={root.p}, k={root.k}"
        )
    infimum = max(0.0, max(-s for s in prefix.values()))
    return prefix, infimum


def ladder_infimum_base(root: PrimitiveRoot) -> float:
    """Smallest |a_{2p+1}|^2 keeping all squared magnitudes positive."""
    return _step2_prefix_sums(root)[1]


def solve_ladder_magnitudes(
    root: PrimitiveRoot, base: float | None = None
) -> MagnitudeSolution:
    """Propagate |a_i|^2 - |a_{i-2}|^2 = [i] around the step-2 cycle.

    base defaults to the feasibility infimum plus one.  The solution is
    re-checked against the equivalent three-block form of the recurrences so
    a transcription slip in either form trips the other.
    """
    prefix, infimum = _step2_prefix_sums(root)
    if base is None:
        base = infimum + 1.0
    if base <= infimum:
        raise InfeasibleBaseError(base, infimum)
    mags = tuple(base + prefix[i] for i in range(1, root.order + 1))
    solution = MagnitudeSolution(
        root=root, base=float(base), magnitudes=mags, infimum_base=infimum
    )
    cross_check = three_block_residual(solution)
    if cross_check > 1e-10:
        raise ArithmeticError(
            f"three-block recurrence residual {cross_check} after solving"
        )
    return solution


def consolidated_residual(solution: MagnitudeSolution) -> float:
    """Max deviation from |a_i|^2 - |a_{i-2}|^2 = [i] over all labels."""
    root = solution.root
    mag = solution.magnitude
    return max(
        abs(mag(i) - mag(i - 2) - q_number(i, root)) for i in range(1, root.order + 1)
    )


def three_block_residual(solution: MagnitudeSolution) -> float:
    """Max deviation from the three-block form of the magnitude recurrences.

    Blocks: |a_{2p+1}|^2 - |a_{2p-1}|^2 = 0, |a_{2p}|^2 - |a_{2p-2}|^2 = -1,
    and |a_{l+2}|^2 - |a_l|^2 = [l+2] for l = -1..2p-3 with the wraparound
    identifications a_{-1} = a_{2p}, a_0 = a_{2p+1}.
    """
    root = solution.root
    p = root.p
    mag = solution.magnitude
    residuals = [
        abs(mag(2 * p + 1) - mag(2 * p - 1)),
        abs(mag(2 * p) - mag(2 * p - 2) + 1.0),
    ]
    for l in range(-1, 2 * p - 2):
        residuals.append(abs(mag(l + 2) - mag(l) - q_number(l + 2, root)))
    return max(residuals)


# ----------------------------------------------------------------------
# realized representations


@dataclass(frozen=True, eq=False)
class LadderRep:
    """Realized ladder-form matrices with coefficients a_1..a_{2p+1}.

    K = diag(q^i); E+ = sum_i a_i |i><i+2|; E- is stored as the exact
    adjoint of E+, entry for entry.
    """

    root: PrimitiveRoot
    a: np.ndarray
    k_mat: np.ndarray
    e_plus: np.ndarray
    e_minus: np.ndarray

    @property
    def p(self) -> int:
        return self.root.p

    @property
    def dim(self) -> int:
        return self.root.order

    def to_json(self) -> dict:
        return {
            "kind": "ladder",
            "p": self.root.p,
            "k": self.root.k,
            "coefficients": [[float(z.real), float(z.imag)] for z in self.a],
            "matrices": {
                "K": matrix_to_json(self.k_mat),
                "Ep": matrix_to_json(self.e_plus),
                "Em": matrix_to_json(self.e_minus),
            },
        }


@dataclass(frozen=True, eq=False)
class GenericCyclicRep:
    """Weight-basis cyclic representation K v_m = lam q^(-2m) v_m."""

    root: PrimitiveRoot
    lam: complex
    g: np.ndarray
    f: np.ndarray
    k_mat: np.ndarray
    e_plus: np.ndarray
    e_minus: np.ndarray
    unitary: bool

    @property
    def p(self) -> int:
        return self.root.p

    @property
    def dim(self) -> int:
        return self.root.order

    def to_json(self) -> dict:
        pair = lambda z: [float(z.real), float(z.imag)]
        return {
            "kind": "generic",
            "p": self.root.p,
            "k": self.root.k,
            "lambda": pair(self.lam),
            "coefficients": {"g": [pair(z) for z in self.g], "f": [pair(z) for z in self.f]},
            "matrices": {
                "K": matrix_to_json(self.k_mat),
                "Ep": matrix_to_json(self.e_plus),
                "Em": matrix_to_json(self.e_minus),
            },
        }


def _freeze(*mats: np.ndarray) -> None:
    for mat in mats:
        mat.setflags(write=False)


def ladder_from_coefficients(root: PrimitiveRoot, a) -> LadderRep:
    """Assemble the ladder matrices from an explicit coefficient vector."""
    n = root.order
    a = np.asarray(a, dtype=complex).copy()
    if a.shape != (n,):
        raise ValueError(f"expected {n} coefficients, got shape {a.shape}")
    k_mat = np.diag([root.power(i) for i in range(1, n + 1)])
    e_plus = np.zeros((n, n), dtype=complex)
    for i in range(1, n + 1):
        e_plus[i - 1, _label(i + 2, n) - 1] = a[i - 1]
    e_minus = e_plus.conj().T.copy()
    # diagonal unit-modulus K: adjoint and inverse must agree
    adjoint_residual = frobenius(k_mat.conj().T - np.linalg.inv(k_mat))
    if adjoint_residual > _BUILD_TOL:
        raise ArithmeticError(f"K adjoint-inverse residual {adjoint_residual}")
    _freeze(a, k_mat, e_plus, e_minus)
    return LadderRep(root=root, a=a, k_mat=k_mat, e_plus=e_plus, e_minus=e_minus)


def build_ladder(
    root: PrimitiveRoot,
    magnitudes: MagnitudeSolution | None = None,
    *,
    base: float | None = None,
    phases=None,
) -> LadderRep:
    """Realize the ladder representation K = diag(q^i), E+ = sum a_i |i><i+2|.

    phases supplies arg(a_i); the default leaves every coefficient real and
    positive.  Any phase choice yields a unitarily equivalent representation.
    """
    if magnitudes is None:
        magnitudes = solve_ladder_magnitudes(root, base)
    elif magnitudes.root != root:
        raise ValueError("magnitude solution was computed for a different root")
    n = root.order
    if phases is None:
        phases = np.zeros(n)
    phases = np.asarray(phases, dtype=float)
    if phases.shape != (n,):
        raise ValueError(f"expected {n} phases, got shape {phases.shape}")
    a = np.sqrt(np.asarray(magnitudes.magnitudes)) * np.exp(1j * phases)
    return ladder_from_coefficients(root, a)


def _weight_prefix_sums(root: PrimitiveRoot, lam: complex) -> tuple[list, float]:
    """Prefix sums of the closure increments Im(lam q^(-2m))/sin(theta)."""
    n = root.order
    sin_theta = root.sin_multiple(1)
    increments = [(lam * root.power(-2 * m)).imag / sin_theta for m in range(n)]
    prefix = [0.0]
    for m in range(1, n):
        prefix.append(prefix[-1] + increments[m])
    total = prefix[-1] + increments[0]
    if abs(total) > _CLOSURE_TOL * n:
        raise ArithmeticError(f"weight-cycle closure sum {total} did not vanish")
    infimum = max(prefix)
    return prefix, infimum


def generic_infimum_base(root: PrimitiveRoot, lam: complex) -> float:
    """Smallest |g_0|^2 keeping the whole unitary chain positive."""
    return _weight_prefix_sums(root, lam)[1]


def solve_generic_coefficients(
    root: PrimitiveRoot,
    lam: complex,
    base: float | None = None,
    phases=None,
) -> GenericCyclicRep:
    """Solve the unitary closure chain for |g_m| and realize the matrices.

    Unitarity pins f_{m+1} = conj(g_m) and turns the commutator relation into
    the real telescoping chain |g_{m-1}|^2 - |g_m|^2 = Im(lam q^(-2m)) /
    sin(theta), whose full-cycle sum vanishes identically.  One base value
    |g_0|^2 stays free and defaults to the feasibility infimum plus one.
    """
    lam = complex(lam)
    if abs(abs(lam) - 1.0) > 1e-12:
        raise ValueError(f"lambda must be unit modulus, got |lambda| = {abs(lam)}")
    prefix, infimum = _weight_prefix_sums(root, lam)
    if base is None:
        base = infimum + 1.0
    if base <= infimum:
        raise InfeasibleBaseError(base, infimum)
    n = root.order
    if phases is None:
        phases = np.zeros(n)
    phases = np.asarray(phases, dtype=float)
    if phases.shape != (n,):
        raise ValueError(f"expected {n} phases, got shape {phases.shape}")
    g = np.sqrt(base - np.asarray(prefix)) * np.exp(1j * phases)
    f = np.conj(np.roll(g, 1))  # f_{m+1} = conj(g_m)
    return generic_from_coefficients(root, lam, g, f)


def generic_from_coefficients(
    root: PrimitiveRoot, lam: complex, g, f
) -> GenericCyclicRep:
    """Assemble weight-basis matrices from explicit coefficient vectors."""
    n = root.order
    lam = complex(lam)
    g = np.asarray(g, dtype=complex).copy()
    f = np.asarray(f, dtype=complex).copy()
    for name, vec in (("g", g), ("f", f)):
        if vec.shape != (n,):
            raise ValueError(f"expected {n} {name} coefficients, got shape {vec.shape}")
    k_mat = np.diag([lam * root.power(-2 * m) for m in range(n)])
    e_plus = np.zeros((n, n), dtype=complex)
    e_minus = np.zeros((n, n), dtype=complex)
    for m in range(n):
        e_plus[(m + 1) % n, m] = g[m]
        e_minus[(m - 1) % n, m] = f[m]
    unitary = abs(abs(lam) - 1.0) <= 1e-12 and bool(
        np.allclose(f, np.conj(np.roll(g, 1)), rtol=0.0, atol=_BUILD_TOL)
    )
    _freeze(g, f, k_mat, e_plus, e_minus)
    return GenericCyclicRep(
        root=root, lam=lam, g=g, f=f, k_mat=k_mat, e_plus=e_plus, e_minus=e_minus,
        unitary=unitary,
    )


# ----------------------------------------------------------------------
# cyclicity and intertwining


@dataclass(frozen=True)
class CyclicityReport:
    """Outcome of the no-annihilated-state check.

    epow_scalar is the product of the raising coefficients, the scalar c with
    E+^(2p+1) = c * 1.  The scalar grows exponentially with p, so the power
    residuals are reported relative to its Frobenius norm (floored at one).
    """

    is_cyclic: bool
    epow_scalar: complex
    raising_residual: float
    lowering_residual: float


def cyclicity_check(rep: LadderRep | GenericCyclicRep) -> CyclicityReport:
    """Check that no state is annihilated and that E+-^(2p+1) are scalars."""
    n = rep.root.order
    if isinstance(rep, LadderRep):
        raising_coeffs, lowering_coeffs = rep.a, np.conj(rep.a)
    else:
        raising_coeffs, lowering_coeffs = rep.g, rep.f
    scalar_plus = complex(np.prod(raising_coeffs))
    scalar_minus = complex(np.prod(lowering_coeffs))

    def power_residual(mat: np.ndarray, scalar: complex) -> float:
        power = np.linalg.matrix_power(mat, n)
        denom = max(1.0, abs(scalar) * math.sqrt(n))
        return frobenius(power - scalar * np.eye(n)) / denom

    no_zero_column = all(bool(np.all(np.any(mat != 0, axis=0))) for mat in (rep.e_plus, rep.e_minus))
    return CyclicityReport(
        is_cyclic=no_zero_column and scalar_plus != 0 and scalar_minus != 0,
        epow_scalar=scalar_plus,
        raising_residual=power_residual(rep.e_plus, scalar_plus),
        lowering_residual=power_residual(rep.e_minus, scalar_minus),
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
    generic: GenericCyclicRep


def intertwiner(rep: LadderRep, s: int) -> IntertwinerResult:
    """Exhibit the ladder rep in weight-basis form via sigma(m) = (s - 2m) mod 2p+1.

    Relabeling v_m = |sigma(m)> diagonalizes K as q^s q^(-2m) and turns the
    step-down-by-two ladder shifts into the one-step cyclic shifts, with
    g_m = a_{sigma(m+1)} and f_m = conj(a_{sigma(m)}).
    """
    n = rep.root.order
    sigma = tuple(_label(s - 2 * m, n) for m in range(n))
    lam = rep.root.power(s)
    g = np.array([rep.a[sigma[(m + 1) % n] - 1] for m in range(n)])
    f = np.conj(np.array([rep.a[sigma[m] - 1] for m in range(n)]))
    generic = generic_from_coefficients(rep.root, lam, g, f)

    perm = np.zeros((n, n))
    for m in range(n):
        perm[sigma[m] - 1, m] = 1.0
    residual = max(
        frobenius(perm.T @ rep.k_mat @ perm - generic.k_mat),
        frobenius(perm.T @ rep.e_plus @ perm - generic.e_plus),
        frobenius(perm.T @ rep.e_minus @ perm - generic.e_minus),
    )
    return IntertwinerResult(sigma=sigma, lam=lam, residual=residual, generic=generic)


# ----------------------------------------------------------------------
# serialization


def rep_from_json(obj: dict) -> LadderRep | GenericCyclicRep:
    """Rebuild a representation from its JSON form.

    Stored matrices are taken verbatim when present (so a corrupted file can
    be loaded and then fail verification); otherwise the matrices are
    realized from the coefficients.
    """
    root = PrimitiveRoot(int(obj["p"]), int(obj["k"]))
    kind = obj.get("kind", "ladder")
    mats = obj.get("matrices")
    if kind == "ladder":
        a = np.array([complex(re, im) for re, im in obj["coefficients"]])
        if mats is None:
            return ladder_from_coefficients(root, a)
        a.setflags(write=False)
        return LadderRep(
            root=root,
            a=a,
            k_mat=matrix_from_json(mats["K"]),
            e_plus=matrix_from_json(mats["Ep"]),
            e_minus=matrix_from_json(mats["Em"]),
        )
    if kind == "generic":
        lam = complex(obj["lambda"][0], obj["lambda"][1])
        g = np.array([complex(re, im) for re, im in obj["coefficients"]["g"]])
        f = np.array([complex(re, im) for re, im in obj["coefficients"]["f"]])
        if mats is None:
            return generic_from_coefficients(root, lam, g, f)
        g.setflags(write=False)
        f.setflags(write=False)
        unitary = abs(abs(lam) - 1.0) <= 1e-12 and bool(
            np.allclose(f, np.conj(np.roll(g, 1)), rtol=0.0, atol=_BUILD_TOL)
        )
        return GenericCyclicRep(
            root=root,
            lam=lam,
            g=g,
            f=f,
            k_mat=matrix_from_json(mats["K"]),
            e_plus=matrix_from_json(mats["Ep"]),
            e_minus=matrix_from_json(mats["Em"]),
            unitary=unitary,
        )
    raise ValueError(f"unknown representation kind {kind!r}")
