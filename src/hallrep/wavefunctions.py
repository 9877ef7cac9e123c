"""Trial-wavefunction evaluation and inner products.

The basic object is the product-of-differences wavefunction
psi_m(z) = prod_{i<j} (z_i - z_j)^m * exp(-1/2 sum|z_k|^2) for odd m, plus a
one-quasiparticle generalization where one auxiliary coordinate is
integrated against a Gaussian weight.  Scalar products integrate
conj(psi_a) * psi_b over the plane per coordinate and come in two
independent flavors:

* exact: expand both difference products into monomials and pair them with
  the planar Gaussian moments int z^a conj(z)^b e^{-|z|^2} d2z = pi a!
  delta_{ab}, all in integer arithmetic;
* Monte Carlo: importance-sample every coordinate from exp(-|z|^2)/pi using
  the counter-based stream in :mod:`hallrep.sampling`, so results are
  reproducible and independent of the worker count.

The auxiliary integral is taken in closed form, and a pointwise value is the
Monte Carlo block evaluator applied to one configuration.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .algebra import _json_int
from .hierarchy import FillingFactor, StandardCF, eval_standard_cf

__all__ = [
    "MAX_EXPANSION_DEGREE",
    "GramMatrix",
    "HierarchyR1Spec",
    "InnerProductResult",
    "LaughlinSpec",
    "as_config",
    "gram_matrix",
    "hierarchy_r1_eval",
    "inner_product_exact",
    "inner_product_mc",
    "jastrow_monomials",
    "laughlin_eval",
    "spec_from_json",
    "spec_to_json",
]

MAX_EXPANSION_DEGREE = 60
# the largest monomial table jastrow_monomials holds: m = 3 at n = 6 peaks at 279,312 entries
# (2.5 s), while m = 1 has n! terms and peaks at 1,112,400 at n = 9 (20 s, 370 MB)
_MAX_EXPANSION_TERMS = 300_000

MIN_MC_SAMPLES = 1000


# ----------------------------------------------------------------------
# wavefunction specs


@dataclass(frozen=True)
class LaughlinSpec:
    """prod_{i<j} (z_i - z_j)^m with the Gaussian factor; m odd positive."""

    m: int
    n_electrons: int

    def __post_init__(self):
        if self.m < 1 or self.m % 2 == 0:
            raise ValueError(f"exponent m must be odd positive, got {self.m}")
        if self.n_electrons < 2:
            raise ValueError(f"need at least 2 electrons, got {self.n_electrons}")

    @property
    def degree(self) -> int:
        """Total polynomial degree of the difference product."""
        return self.m * self.n_electrons * (self.n_electrons - 1) // 2

    def filling_factor(self) -> FillingFactor:
        return FillingFactor(1, self.m)


@dataclass(frozen=True)
class HierarchyR1Spec:
    """One-level hierarchy data: electron exponent a0, level exponent a1,
    coupling sign b, and the auxiliary-coordinate count, which must be 1."""

    a0: int
    a1: int
    b: int
    n_electrons: int
    n_quasi: int = 1

    def __post_init__(self):
        if self.a0 < 1 or self.a0 % 2 == 0:
            raise ValueError(f"a0 must be odd positive, got {self.a0}")
        if self.a1 == 0 or self.a1 % 2:
            raise ValueError(f"a1 must be even and nonzero, got {self.a1}")
        if self.b not in (1, -1):
            raise ValueError(f"b must be +1 or -1, got {self.b}")
        if self.n_electrons < 2:
            raise ValueError(f"need at least 2 electrons, got {self.n_electrons}")
        if self.n_quasi != 1:
            raise ValueError(f"only a single auxiliary coordinate is supported, got {self.n_quasi}")
        self.filling_factor()  # reject labels outside (0, 1] up front

    def filling_factor(self) -> FillingFactor:
        return eval_standard_cf(StandardCF((self.a0, self.a1)))


WavefunctionSpec = LaughlinSpec | HierarchyR1Spec


def spec_to_json(spec: WavefunctionSpec) -> dict:
    if isinstance(spec, LaughlinSpec):
        return {"variant": "laughlin", "m": spec.m, "n_electrons": spec.n_electrons}
    return {
        "variant": "hierarchy_r1",
        "a0": spec.a0,
        "a1": spec.a1,
        "b": spec.b,
        "n_quasi": spec.n_quasi,
        "n_electrons": spec.n_electrons,
    }


def spec_from_json(obj: dict) -> WavefunctionSpec:
    """The spec of a decoded JSON object; anything but an object or integer fields raises ValueError."""
    if not isinstance(obj, dict):
        raise ValueError(f"a wavefunction spec must be a JSON object, got {type(obj).__name__}")
    variant = obj.get("variant")
    if variant == "laughlin":
        return LaughlinSpec(m=_json_int(obj, "m"), n_electrons=_json_int(obj, "n_electrons"))
    if variant == "hierarchy_r1":
        return HierarchyR1Spec(
            a0=_json_int(obj, "a0"),
            a1=_json_int(obj, "a1"),
            b=_json_int(obj, "b"),
            n_quasi=_json_int(obj, "n_quasi") if "n_quasi" in obj else 1,
            n_electrons=_json_int(obj, "n_electrons"),
        )
    raise ValueError(f"unknown wavefunction variant {variant!r}")


def as_config(coords, n_expected: int | None = None) -> np.ndarray:
    """Coerce a coordinate sequence to a 1-d complex array of finite numbers."""
    z = np.asarray(coords, dtype=complex).reshape(-1)
    if n_expected is not None and z.size != n_expected:
        raise ValueError(f"expected {n_expected} coordinates, got {z.size}")
    if not np.all(np.isfinite(z)):
        raise ValueError(f"coordinates must be finite, got {z[~np.isfinite(z)][0]}")
    return z


# ----------------------------------------------------------------------
# pointwise evaluation


def _jastrow_batch(coords: np.ndarray, m: int) -> np.ndarray:
    """prod_{i<j} (z_i - z_j)^m over a (samples, n) coordinate batch.

    At n = 2 a row's bits do not depend on the batch length.  At n >= 3 its
    last bits do, within 1e-15 relative (numpy's complex products round
    differently by where a row falls in its loop), so Monte Carlo results
    are reproducible for the fixed sampling.BLOCK only.
    """
    n = coords.shape[1]
    out = np.ones(coords.shape[0], dtype=complex)
    for i in range(n):
        for j in range(i + 1, n):
            out = out * (coords[:, i] - coords[:, j]) ** m
    return out


def _auxiliary_decay_rate(a0: int) -> float:
    """Gaussian decay rate |q_1| = 1/a0 of the auxiliary coordinate.

    First step of the auxiliary recursion with the electron exponent as
    leading positive-form coefficient: theta_1 = -1/a0, q_1 = 1/a0.  The
    level-2 coefficient never enters at one level; blok_wen_sequence stays
    the oracle in the tests.
    """
    return 1 / a0


# log(2^-1075), half the smallest subnormal: a magnitude below its exp rounds to 0.0
_LOG_ROUNDS_TO_ZERO = -1075 * math.log(2)


def _value_at(spec: WavefunctionSpec, config) -> complex:
    """The wavefunction at one configuration, Gaussian factor included.

    The Monte Carlo block evaluator on a one-row batch, times the Gaussian
    factor.  Where that product is not finite (a factor overflowed, or an
    overflowed factor met an underflowed one), log|psi| is summed from the
    logs of the same factors, and a value that rounds to zero is 0j.  Any
    other non-finite product raises ArithmeticError: a value too large for a
    float, and also a representable one whose factors overflow on the way
    (m = 1001 at |z| near 65, say).
    """
    z = as_config(config, spec.n_electrons)
    with np.errstate(all="ignore"):
        half_norm = 0.5 * float(np.sum(np.abs(z) ** 2))
        value = complex(_gaussian_stripped_values(spec, z[None, :])[0] * math.exp(-half_norm))
        if cmath.isfinite(value):
            return value
        # an overflowed |z|^2 sum leaves exp(-half_norm) below any product of the factors
        if math.isinf(half_norm) or _log_abs_stripped(spec, z) - half_norm < _LOG_ROUNDS_TO_ZERO:
            return 0j
    raise ArithmeticError(f"the wavefunction value at these coordinates is not finite in floating point, got {value}")


def _log_abs_stripped(spec: WavefunctionSpec, z: np.ndarray) -> float:
    """log|psi| at one configuration without the Gaussian factor, -inf where psi is 0.

    exponent * sum_{i<j} log|z_i - z_j|, plus log(pi a0) + sum_j log|z_j| for
    the auxiliary integral; finite |z|^2 keeps every term from overflowing.
    """
    i, j = np.triu_indices(z.size, 1)
    laughlin = isinstance(spec, LaughlinSpec)
    out = (spec.m if laughlin else spec.a0) * float(np.sum(_log_modulus(z[i] - z[j])))
    if not laughlin:
        out += math.log(math.pi / _auxiliary_decay_rate(spec.a0)) + float(np.sum(_log_modulus(z)))
    return out


def _log_modulus(w: np.ndarray) -> np.ndarray:
    """log|w|, full precision also where |w| is subnormal (np.abs rounds it to a multiple of 2^-1074)."""
    modulus = np.abs(w)
    out = np.log(modulus)
    below = modulus < np.finfo(float).tiny
    # times 2^1000, exactly, a modulus below 2^-1022 is a normal float
    out[below] = np.log(np.abs(w[below] * 2.0**1000)) - 1000 * math.log(2)
    return out


def laughlin_eval(m: int, config) -> complex:
    """psi_m at one configuration, Gaussian factor included."""
    z = as_config(config)
    return _value_at(LaughlinSpec(m, z.size), z)


def hierarchy_r1_eval(spec: HierarchyR1Spec, config) -> complex:
    """Wavefunction value with the single auxiliary coordinate integrated out."""
    if not isinstance(spec, HierarchyR1Spec):
        raise ValueError(f"expected a HierarchyR1Spec, got {type(spec).__name__}")
    return _value_at(spec, config)


def _gaussian_stripped_values(spec: WavefunctionSpec, coords: np.ndarray, shared: dict | None = None) -> np.ndarray:
    """Wavefunction values with the exp(-1/2 sum|z|^2) factor removed.

    The rotationally symmetric weight keeps only the constant term of
    prod_j (w - z_j), so the auxiliary integral is (pi/rate) prod_j (-z_j),
    conjugated when b = -1; the tests keep Gauss-Hermite quadrature as the
    oracle.

    shared memoizes what depends on coords alone, the difference product per
    exponent and prod_j (-z_j), so specs evaluated on one batch with one dict
    compute each once, with the bits a fresh dict gives.  Cached arrays are
    returned as is and must not be written to.
    """
    if shared is None:
        shared = {}
    laughlin = isinstance(spec, LaughlinSpec)
    exponent = spec.m if laughlin else spec.a0
    if exponent not in shared:
        shared[exponent] = _jastrow_batch(coords, exponent)
    jastrow = shared[exponent]
    if laughlin:
        return jastrow
    if "prod" not in shared:
        shared["prod"] = np.prod(-coords, axis=1)
    auxiliary = (math.pi / _auxiliary_decay_rate(spec.a0)) * shared["prod"]
    if spec.b == -1:
        auxiliary = np.conj(auxiliary)
    return jastrow * auxiliary


# ----------------------------------------------------------------------
# inner products


@dataclass(frozen=True)
class InnerProductResult:
    """One scalar product with its provenance.

    Exact results carry stderr 0 plus the integer coefficient of pi^n; Monte
    Carlo results carry the sample count, the seed, and the standard error
    of the mean combined over real and imaginary parts.
    """

    value: complex
    method: str
    stderr: float = 0.0
    samples: int = 0
    seed: int | None = None
    exact_coefficient: int | None = None
    pi_power: int | None = None

    def to_json(self) -> dict:
        out = {
            "re": float(self.value.real),
            "im": float(self.value.imag),
            "stderr": float(self.stderr),
            "method": self.method,
            "samples": self.samples,
            "seed": self.seed,
        }
        if self.exact_coefficient is not None:
            out["exact_coefficient"] = self.exact_coefficient
            out["pi_power"] = self.pi_power
        return out


def jastrow_monomials(m: int, n: int) -> dict[tuple[int, ...], int]:
    """Integer monomial expansion of prod_{i<j} (z_i - z_j)^m.

    Keys are exponent tuples over the n coordinates, values exact integers,
    built by convolving one binomial expansion per pair into the running
    table.  A table that passes 300,000 entries raises ValueError, checked
    after each source term, so at most two tables of about that size are
    ever held.
    """
    terms: dict[tuple[int, ...], int] = {(0,) * n: 1}
    for i in range(n):
        for j in range(i + 1, n):
            expanded: dict[tuple[int, ...], int] = {}
            for expo, coeff in terms.items():
                for t in range(m + 1):
                    c = coeff * math.comb(m, t) * (-1) ** (m - t)
                    key = list(expo)
                    key[i] += t
                    key[j] += m - t
                    key = tuple(key)
                    expanded[key] = expanded.get(key, 0) + c
                if len(expanded) > _MAX_EXPANSION_TERMS:
                    raise ValueError(
                        f"the expansion of prod (z_i - z_j)^{m} over {n} coordinates passes "
                        f"the bound of {_MAX_EXPANSION_TERMS} terms"
                    )
            terms = {k: v for k, v in expanded.items() if v}
    return terms


def _exact_terms(spec: WavefunctionSpec) -> dict[tuple[int, ...], int]:
    """Monomial expansion of one spec, checked against the exact path's limits."""
    if not isinstance(spec, LaughlinSpec):
        raise ValueError("the exact path handles Laughlin-type specs only")
    if spec.degree > MAX_EXPANSION_DEGREE:
        raise ValueError(
            f"total degree {spec.degree} exceeds the expansion bound {MAX_EXPANSION_DEGREE}"
        )
    return jastrow_monomials(spec.m, spec.n_electrons)


def _pair_terms(terms_a, terms_b) -> int:
    """Integer coefficient of pi^n: sum over shared monomials of c_a c_b prod(e!)."""
    coefficient = 0
    for expo, ca in terms_a.items():
        cb = terms_b.get(expo)
        if cb is None:
            continue
        weight = 1
        for e in expo:
            weight *= math.factorial(e)
        coefficient += ca * cb * weight
    return coefficient


def inner_product_exact(spec_a: WavefunctionSpec, spec_b: WavefunctionSpec) -> InnerProductResult:
    """Pair the monomial expansions through the planar Gaussian moments.

    Exact integer arithmetic times pi^n.  Only Laughlin-type specs of equal
    electron count within the expansion degree bound are accepted.
    """
    if spec_a.n_electrons != spec_b.n_electrons:
        raise ValueError(
            f"specs must share the electron count, got {spec_a.n_electrons} and {spec_b.n_electrons}"
        )
    n = spec_a.n_electrons
    coefficient = _pair_terms(_exact_terms(spec_a), _exact_terms(spec_b))
    return InnerProductResult(
        value=complex(coefficient * math.pi**n),
        method="exact",
        stderr=0.0,
        exact_coefficient=coefficient,
        pi_power=n,
    )


def _mc_estimates(specs, pairs, samples, seed, workers):
    """Per-pair (value, stderr): the mean of f = conj(v_a) v_b times pi^n.

    One shared coordinate stream feeds every pair; block partials are folded
    in block index order, so the totals are bit-identical for any worker
    count.  A diagonal pair sums |v|^2 = Re(v)^2 + Im(v)^2, so its total is
    exactly real.
    """
    # imported here: the exact and pointwise paths never load numpy.random or a thread pool
    from concurrent.futures import ThreadPoolExecutor

    from . import sampling

    if samples < MIN_MC_SAMPLES:
        raise ValueError(f"need at least {MIN_MC_SAMPLES} samples, got {samples}")
    if workers < 1:
        raise ValueError(f"workers must be positive, got {workers}")
    n = specs[0].n_electrons
    block_list = list(sampling.blocks(samples))

    def block_stats(block):
        start, count = block
        coords = sampling.gaussian_block(seed, n, start, count)
        shared = {}
        values = [_gaussian_stripped_values(spec, coords, shared) for spec in specs]
        out = []
        for ia, ib in pairs:
            if ia == ib:
                v = values[ia]
                f = v.real**2 + v.imag**2
                out.append((complex(np.sum(f)), float(np.sum(f * f)), 0.0))
            else:
                f = np.conj(values[ia]) * values[ib]
                out.append((complex(np.sum(f)), float(np.sum(f.real**2)), float(np.sum(f.imag**2))))
        return out

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            partials = list(pool.map(block_stats, block_list))
    else:
        partials = [block_stats(block) for block in block_list]

    totals = [(0j, 0.0, 0.0)] * len(pairs)
    for part in partials:
        totals = [
            (t0 + p0, t1 + p1, t2 + p2)
            for (t0, t1, t2), (p0, p1, p2) in zip(totals, part)
        ]
    scale = math.pi**n
    estimates = []
    for total, sq_re, sq_im in totals:
        var_re = max(0.0, (sq_re - total.real**2 / samples) / (samples - 1))
        var_im = max(0.0, (sq_im - total.imag**2 / samples) / (samples - 1))
        estimates.append((complex(total / samples * scale), scale * math.sqrt((var_re + var_im) / samples)))
    return estimates


def inner_product_mc(
    spec_a: WavefunctionSpec,
    spec_b: WavefunctionSpec,
    samples: int,
    seed: int,
    workers: int = 1,
) -> InnerProductResult:
    """Importance-sampled scalar product on the deterministic stream.

    Each coordinate is drawn from exp(-|z|^2)/pi, the Gaussian-stripped
    integrand is averaged, and the result is scaled by pi^n.  Fixed
    (seed, samples) gives bit-identical output for any worker count.
    """
    if spec_a.n_electrons != spec_b.n_electrons:
        raise ValueError(
            f"specs must share the electron count, got {spec_a.n_electrons} and {spec_b.n_electrons}"
        )
    if spec_a == spec_b:
        specs, pairs = [spec_a], [(0, 0)]
    else:
        specs, pairs = [spec_a, spec_b], [(0, 1)]
    ((value, stderr),) = _mc_estimates(specs, pairs, samples, seed, workers)
    return InnerProductResult(value=value, method="mc", stderr=stderr, samples=samples, seed=seed)


# ----------------------------------------------------------------------
# Gram matrices


@dataclass(frozen=True, eq=False)
class GramMatrix:
    """Hermitian matrix of pairwise scalar products of a spec family.

    value and stderr are read-only (dim, dim) arrays; coefficients holds the
    integer pi^n coefficients of an unnormalized exact Gram, else None.
    """

    specs: tuple[WavefunctionSpec, ...]
    method: str
    value: np.ndarray
    stderr: np.ndarray
    coefficients: tuple[tuple[int, ...], ...] | None = None
    samples: int = 0
    seed: int | None = None
    normalized: bool = False

    @property
    def dim(self) -> int:
        return len(self.specs)

    def values(self) -> np.ndarray:
        return self.value

    def stderrs(self) -> np.ndarray:
        return self.stderr

    @property
    def entries(self) -> tuple[tuple[InnerProductResult, ...], ...]:
        """One InnerProductResult per entry, derived from the arrays."""
        pi_power = self.specs[0].n_electrons if self.coefficients else None
        coefficients = self.coefficients or ((None,) * self.dim,) * self.dim
        rows = zip(self.value.tolist(), self.stderr.tolist(), coefficients)
        return tuple(
            tuple(
                InnerProductResult(
                    value=v, method=self.method, stderr=e, samples=self.samples,
                    seed=self.seed, exact_coefficient=c, pi_power=pi_power,
                )
                for v, e, c in zip(*row)
            )
            for row in rows
        )

    def to_json(self) -> dict:
        return {
            "specs": [spec_to_json(s) for s in self.specs],
            "method": self.method,
            "samples": self.samples,
            "seed": self.seed,
            "normalized": self.normalized,
            "entries": [
                [{"re": v.real, "im": v.imag, "stderr": e} for v, e in zip(values, stderrs)]
                for values, stderrs in zip(self.value.tolist(), self.stderr.tolist())
            ],
        }

    def to_csv(self) -> str:
        lines = ["row,col,re,im,stderr"]
        for i, row in enumerate(self.to_json()["entries"]):
            for j, e in enumerate(row):
                lines.append(f"{i},{j},{e['re']!r},{e['im']!r},{e['stderr']!r}")
        return "\n".join(lines) + "\n"


def gram_matrix(
    specs,
    method: str = "exact",
    *,
    samples: int = 100_000,
    seed: int = 0,
    normalize: bool = False,
    workers: int = 1,
) -> GramMatrix:
    """Hermitian matrix of pairwise inner products.

    The exact method expands each spec once and pairs the upper triangle.
    The mc method draws one shared coordinate stream per call, so every
    entry of one Gram matrix is estimated on common samples and conjugate
    symmetry is exact.  normalize rescales rows and columns by the diagonal
    norms, putting exactly 1 on the diagonal.
    """
    specs = tuple(specs)
    if not specs:
        raise ValueError("need at least one spec")
    n = specs[0].n_electrons
    for spec in specs:
        if spec.n_electrons != n:
            raise ValueError("all specs must share the electron count")
    dim = len(specs)
    pairs = [(i, j) for i in range(dim) for j in range(i, dim)]
    coefficients = None
    if method == "exact":
        terms = [_exact_terms(spec) for spec in specs]
        exact = {(i, j): _pair_terms(terms[i], terms[j]) for i, j in pairs}
        coefficients = tuple(tuple(exact[min(i, j), max(i, j)] for j in range(dim)) for i in range(dim))
        estimates = [(exact[pair] * math.pi**n, 0.0) for pair in pairs]
        samples, seed = 0, None
    elif method == "mc":
        estimates = _mc_estimates(list(specs), pairs, samples, seed, workers)
    else:
        raise ValueError(f"unknown method {method!r}, expected 'exact' or 'mc'")

    value = np.zeros((dim, dim), dtype=complex)
    stderr = np.zeros((dim, dim))
    for (i, j), (v, e) in zip(pairs, estimates):
        # conjugate first: on the diagonal the unconjugated value must win,
        # or its +0.0 imaginary part becomes -0.0
        value[j, i] = v.conjugate()
        value[i, j] = v
        stderr[i, j] = stderr[j, i] = e
    if normalize:
        diag = value.diagonal().real
        bad = np.flatnonzero(~(diag > 0))
        if bad.size:
            raise ValueError(f"diagonal entry {bad[0]} is not positive; cannot normalize")
        norms = np.sqrt(diag)
        scale = np.outer(norms, norms)
        # real and imaginary parts apart: complex / float would multiply by a reciprocal
        value.real /= scale
        value.imag /= scale
        np.fill_diagonal(value, 1.0)
        stderr /= scale
        coefficients = None
    for arr in (value, stderr):
        arr.setflags(write=False)
    return GramMatrix(
        specs=specs, method=method, value=value, stderr=stderr, coefficients=coefficients,
        samples=samples, seed=seed, normalized=normalize,
    )
