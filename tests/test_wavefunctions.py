import json
import math
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hallrep import sampling, wavefunctions
from hallrep.wavefunctions import (
    GramMatrix,
    HierarchyR1Spec,
    InnerProductResult,
    LaughlinSpec,
    gram_matrix,
    hierarchy_r1_eval,
    inner_product_exact,
    inner_product_mc,
    jastrow_monomials,
    laughlin_eval,
    spec_from_json,
    spec_to_json,
    _auxiliary_decay_rate,
    _gaussian_stripped_values,
    _jastrow_batch,
)
from hallrep.hierarchy import FillingFactor, PositiveCF, blok_wen_sequence


# ----------------------------------------------------------------------
# independent oracles


def oracle_monomials(m, n):
    """Brute-force expansion of the difference product.

    Enumerates the full cartesian product of per-pair binomial choices, a
    deliberately different algorithm from the library's iterated
    convolution.
    """
    pairs = list(combinations(range(n), 2))
    acc = {}
    for choices in product(range(m + 1), repeat=len(pairs)):
        coeff = 1
        expo = [0] * n
        for (i, j), t in zip(pairs, choices):
            coeff *= math.comb(m, t) * (-1) ** (m - t)
            expo[i] += t
            expo[j] += m - t
        key = tuple(expo)
        acc[key] = acc.get(key, 0) + coeff
    return {k: v for k, v in acc.items() if v}


def oracle_inner_coefficient(ma, mb, n):
    """Gaussian-moment pairing of the brute-force expansions."""
    terms_a = oracle_monomials(ma, n)
    terms_b = oracle_monomials(mb, n)
    total = 0
    for expo, ca in terms_a.items():
        cb = terms_b.get(expo, 0)
        if cb:
            weight = 1
            for e in expo:
                weight *= math.factorial(e)
            total += ca * cb * weight
    return total


complex_coords = st.complex_numbers(
    min_magnitude=0.0, max_magnitude=2.0, allow_nan=False, allow_infinity=False
)


# ----------------------------------------------------------------------
# pointwise evaluation


def test_laughlin_eval_m1_simple_config():
    value = laughlin_eval(1, [1.0, 0.0])
    assert value == pytest.approx(math.exp(-0.5), abs=1e-15)


def test_laughlin_eval_coincident_coordinates_vanish():
    for m in (1, 3, 5):
        assert laughlin_eval(m, [0.7 + 0.2j, 0.7 + 0.2j, -1.0]) == 0


def test_laughlin_eval_rejects_even_exponent():
    with pytest.raises(ValueError, match="odd"):
        laughlin_eval(2, [1.0, 0.0])
    with pytest.raises(ValueError):
        laughlin_eval(3, [1.0])


@settings(max_examples=80, deadline=None)
@given(
    st.lists(complex_coords, min_size=2, max_size=4),
    st.sampled_from([1, 3, 5]),
    st.data(),
)
def test_laughlin_antisymmetry_under_transposition(coords, m, data):
    n = len(coords)
    i = data.draw(st.integers(0, n - 2))
    j = data.draw(st.integers(i + 1, n - 1))
    swapped = list(coords)
    swapped[i], swapped[j] = swapped[j], swapped[i]
    original = laughlin_eval(m, coords)
    assert laughlin_eval(m, swapped) == pytest.approx(-original, abs=1e-12 * max(1.0, abs(original)))


# ----------------------------------------------------------------------
# exact inner products


@pytest.mark.parametrize("m,n", [(1, 2), (3, 2), (5, 2), (1, 3), (3, 3)])
def test_monomial_expansion_matches_bruteforce_oracle(m, n):
    assert jastrow_monomials(m, n) == oracle_monomials(m, n)


def test_exact_inner_products_frozen_values():
    # frozen from the moment oracle: 2, 0, 48 (and the norm scale pi^2)
    pair = lambda ma, mb: inner_product_exact(LaughlinSpec(ma, 2), LaughlinSpec(mb, 2))
    assert oracle_inner_coefficient(1, 1, 2) == 2
    assert oracle_inner_coefficient(3, 1, 2) == 0
    assert oracle_inner_coefficient(3, 3, 2) == 48
    assert pair(1, 1).exact_coefficient == 2
    assert pair(3, 1).exact_coefficient == 0
    assert pair(3, 3).exact_coefficient == 48
    assert pair(1, 1).value == pytest.approx(2 * math.pi**2, rel=1e-15)
    assert pair(1, 1).stderr == 0.0
    assert pair(1, 1).pi_power == 2


def test_exact_inner_product_m5_matches_oracle():
    d5 = oracle_inner_coefficient(5, 5, 2)
    assert d5 == 3840  # 2^5 * 5!
    assert inner_product_exact(LaughlinSpec(5, 2), LaughlinSpec(5, 2)).exact_coefficient == d5


def test_exact_against_numeric_quadrature():
    # independent numeric check: 4-d Gauss-Hermite of |z1 - z2|^2 e^{-|z|^2}
    nodes, weights = np.polynomial.hermite.hermgauss(12)
    total = 0.0
    for (x1, wx1), (y1, wy1), (x2, wx2), (y2, wy2) in product(zip(nodes, weights), repeat=4):
        z1, z2 = complex(x1, y1), complex(x2, y2)
        total += wx1 * wy1 * wx2 * wy2 * abs(z1 - z2) ** 2
    assert total == pytest.approx(2 * math.pi**2, rel=1e-12)


def test_exact_orthogonality_is_termwise():
    for n in (2, 3, 4):
        for ma, mb in ((1, 3), (1, 5), (3, 5)):
            if LaughlinSpec(mb, n).degree > 60:
                continue
            res = inner_product_exact(LaughlinSpec(ma, n), LaughlinSpec(mb, n))
            assert res.exact_coefficient == 0
            assert res.value == 0
            # no shared monomial at all: total degrees differ
            shared = set(jastrow_monomials(ma, n)) & set(jastrow_monomials(mb, n))
            assert shared == set()


def test_exact_norms_positive_integers():
    for m, n in ((1, 2), (3, 2), (5, 2), (3, 3)):
        res = inner_product_exact(LaughlinSpec(m, n), LaughlinSpec(m, n))
        assert isinstance(res.exact_coefficient, int)
        assert res.exact_coefficient > 0


def test_exact_rejects_hierarchy_and_mismatch():
    laughlin = LaughlinSpec(3, 2)
    hierarchy = HierarchyR1Spec(a0=3, a1=2, b=1, n_electrons=2)
    with pytest.raises(ValueError, match="Laughlin"):
        inner_product_exact(laughlin, hierarchy)
    with pytest.raises(ValueError, match="electron count"):
        inner_product_exact(LaughlinSpec(3, 2), LaughlinSpec(3, 3))
    with pytest.raises(ValueError, match="degree"):
        inner_product_exact(LaughlinSpec(5, 6), LaughlinSpec(5, 6))


# ----------------------------------------------------------------------
# Monte Carlo inner products


def test_mc_reproducibility_and_worker_invariance():
    spec = LaughlinSpec(1, 2)
    one = inner_product_mc(spec, spec, 20_000, seed=3)
    two = inner_product_mc(spec, spec, 20_000, seed=3)
    assert one.value == two.value and one.stderr == two.stderr
    threaded = inner_product_mc(spec, spec, 20_000, seed=3, workers=4)
    assert threaded.value == one.value and threaded.stderr == one.stderr
    other_seed = inner_product_mc(spec, spec, 20_000, seed=4)
    assert other_seed.value != one.value


def test_mc_agrees_with_exact_norm():
    spec = LaughlinSpec(1, 2)
    exact = inner_product_exact(spec, spec).value.real
    mc = inner_product_mc(spec, spec, 100_000, seed=7)
    assert abs(mc.value - exact) < 4 * mc.stderr
    assert mc.samples == 100_000 and mc.seed == 7


def test_mc_orthogonal_pair_compatible_with_zero():
    mc = inner_product_mc(LaughlinSpec(3, 2), LaughlinSpec(5, 2), 50_000, seed=11)
    assert abs(mc.value) < 4 * mc.stderr


def test_mc_conjugate_symmetry_on_shared_stream():
    # same stream feeds both orders, so they agree to rounding, far inside
    # the combined-stderr bound the estimator guarantees
    a, b = LaughlinSpec(1, 2), LaughlinSpec(3, 2)
    ab = inner_product_mc(a, b, 10_000, seed=5)
    ba = inner_product_mc(b, a, 10_000, seed=5)
    assert ab.value == pytest.approx(ba.value.conjugate(), rel=1e-12, abs=1e-12)
    assert abs(ab.value - ba.value.conjugate()) < 1e-6 * (ab.stderr + ba.stderr)
    assert ab.stderr == ba.stderr


def test_mc_unbiasedness_small_sweep():
    spec = LaughlinSpec(1, 2)
    exact = inner_product_exact(spec, spec).value.real
    inside = 0
    for seed in range(20):
        mc = inner_product_mc(spec, spec, 10_000, seed=seed)
        if abs(mc.value - exact) <= 3 * mc.stderr:
            inside += 1
    assert inside >= 18


def test_mc_preconditions():
    spec = LaughlinSpec(1, 2)
    with pytest.raises(ValueError, match="samples"):
        inner_product_mc(spec, spec, 999, seed=0)
    with pytest.raises(ValueError, match="electron count"):
        inner_product_mc(spec, LaughlinSpec(1, 3), 10_000, seed=0)
    with pytest.raises(ValueError, match="workers"):
        inner_product_mc(spec, spec, 10_000, seed=0, workers=0)


def test_mc_handles_hierarchy_specs():
    spec = HierarchyR1Spec(a0=3, a1=2, b=1, n_electrons=2)
    res = inner_product_mc(spec, spec, 2_000, seed=1)
    assert res.value.real > 0
    again = inner_product_mc(spec, spec, 2_000, seed=1)
    assert res.value == again.value


# ----------------------------------------------------------------------
# one-quasiparticle evaluation


def hierarchy_closed_form(spec, config):
    """Moment oracle for the auxiliary integral.

    Only the constant term of the polynomial in w survives the rotationally
    symmetric Gaussian, so the integral is (pi/rate) * prod_j(-z_j),
    conjugated when b = -1.
    """
    z = np.asarray(config, dtype=complex)
    rate = 1.0 / spec.a0
    integral = math.pi / rate * np.prod(-z)
    if spec.b == -1:
        integral = np.conj(integral)
    jastrow = np.prod([
        (z[i] - z[j]) ** spec.a0 for i in range(len(z)) for j in range(i + 1, len(z))
    ])
    return jastrow * integral * math.exp(-0.5 * float(np.sum(np.abs(z) ** 2)))


@pytest.mark.parametrize("b", [1, -1])
def test_hierarchy_r1_matches_moment_oracle(b):
    spec = HierarchyR1Spec(a0=3, a1=2, b=b, n_electrons=2)
    config = [0.4 + 0.3j, -0.8 - 0.1j]
    value = hierarchy_r1_eval(spec, config, quad_order=24)
    assert value == pytest.approx(hierarchy_closed_form(spec, config), rel=1e-12)


def test_hierarchy_r1_quadrature_convergence():
    spec = HierarchyR1Spec(a0=3, a1=2, b=1, n_electrons=2)
    config = [0.3 + 0.1j, -0.5 + 0.4j]
    v32 = hierarchy_r1_eval(spec, config, quad_order=32)
    v64 = hierarchy_r1_eval(spec, config, quad_order=64)
    assert abs(v64 - v32) / abs(v64) < 1e-8


def test_hierarchy_r1_coincident_and_antisymmetric():
    spec = HierarchyR1Spec(a0=3, a1=-2, b=-1, n_electrons=2)
    assert hierarchy_r1_eval(spec, [0.5, 0.5], 16) == 0
    forward = hierarchy_r1_eval(spec, [0.5 + 0.1j, -0.2j], 16)
    backward = hierarchy_r1_eval(spec, [-0.2j, 0.5 + 0.1j], 16)
    assert backward == pytest.approx(-forward, rel=1e-12)


@pytest.mark.parametrize("a0", [1, 3, 5, 7])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_mc_closed_form_matches_quadrature(a0, n):
    """The Monte Carlo path's closed-form values against the quadrature oracle.

    The error is measured against pi*a0*|J| prod_j (|z_j| + sqrt(a0)), the
    size of the integrand the quadrature sums: where prod_j z_j is small the
    quadrature cancels terms much larger than the value, and its own
    rounding exceeds 1e-12 of the value (up to ~1e-11 at a0 = 7, n = 4).
    """
    coords = sampling.gaussian_block(7, n, 0, 1000)
    gauss = np.exp(-0.5 * np.sum(np.abs(coords) ** 2, axis=1))
    scale = (
        math.pi * a0 * np.abs(_jastrow_batch(coords, a0))
        * np.prod(np.abs(coords) + math.sqrt(a0), axis=1) * gauss
    )
    for b in (1, -1):
        spec = HierarchyR1Spec(a0=a0, a1=-2, b=b, n_electrons=n)
        fast = _gaussian_stripped_values(spec, coords) * gauss
        slow = np.array([hierarchy_r1_eval(spec, z, quad_order=32) for z in coords])
        assert np.all(np.abs(fast - slow) <= 1e-12 * scale)


def test_auxiliary_decay_rate_is_the_first_recursion_step():
    for a0 in range(1, 202, 2):
        oracle = float(abs(blok_wen_sequence(PositiveCF((a0, 2))).qs[1]))
        assert _auxiliary_decay_rate(a0) == oracle


SHARED_FACTOR_FAMILIES = {
    # a0 = 3 with both signs of b, as in the benchmark family
    "hierarchy-n2": [HierarchyR1Spec(a0, a1, b, 2) for a0, a1, b in ((3, 2, 1), (3, -2, -1), (5, 2, 1))],
    "hierarchy-n3": [HierarchyR1Spec(a0, a1, b, 3) for a0, a1, b in ((3, 2, 1), (3, -2, -1), (5, 2, 1))],
    # Laughlin m and hierarchy a0 share an exponent
    "mixed-n2": [LaughlinSpec(3, 2), HierarchyR1Spec(3, 2, 1, 2), HierarchyR1Spec(3, -2, -1, 2), LaughlinSpec(1, 2)],
    "mixed-n3": [LaughlinSpec(3, 3), HierarchyR1Spec(3, -2, -1, 3), LaughlinSpec(5, 3), HierarchyR1Spec(5, 2, 1, 3)],
}


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("samples", [100_000, 200_000])  # 200_000 ends in a 3,392-sample block
@pytest.mark.parametrize("family", list(SHARED_FACTOR_FAMILIES))
def test_gram_mc_shared_factors_bit_identical(monkeypatch, family, samples, workers):
    """One memo per block gives the bits of evaluating every spec on its own."""
    specs = SHARED_FACTOR_FAMILIES[family]
    shared = gram_matrix(specs, "mc", samples=samples, seed=5, workers=workers)
    monkeypatch.setattr(
        wavefunctions, "_gaussian_stripped_values",
        lambda spec, coords, memo: _gaussian_stripped_values(spec, coords, {}),
    )
    alone = gram_matrix(specs, "mc", samples=samples, seed=5, workers=workers)
    assert np.array_equal(shared.value.view(np.uint64), alone.value.view(np.uint64))
    assert np.array_equal(shared.stderr.view(np.uint64), alone.stderr.view(np.uint64))


def test_gram_mc_evaluates_shared_factors_once_per_block(monkeypatch):
    exponents, prods = [], []
    jastrow, prod = wavefunctions._jastrow_batch, np.prod
    monkeypatch.setattr(wavefunctions, "_jastrow_batch", lambda coords, m: exponents.append(m) or jastrow(coords, m))
    monkeypatch.setattr(wavefunctions.np, "prod", lambda *a, **k: prods.append(1) or prod(*a, **k))
    gram_matrix(SHARED_FACTOR_FAMILIES["mixed-n2"], "mc", samples=2 * sampling.BLOCK, seed=1)
    assert sorted(exponents) == [1, 1, 3, 3]
    assert len(prods) == 2


def test_hierarchy_r1_scope_errors():
    spec = HierarchyR1Spec(a0=3, a1=2, b=1, n_electrons=2, n_quasi=2)
    with pytest.raises(ValueError, match="single auxiliary"):
        hierarchy_r1_eval(spec, [0.1, 0.2], 16)
    good = HierarchyR1Spec(a0=3, a1=2, b=1, n_electrons=2)
    with pytest.raises(ValueError, match="quad_order"):
        hierarchy_r1_eval(good, [0.1, 0.2], 4)


def test_spec_validation_and_filling_factors():
    assert LaughlinSpec(3, 2).filling_factor() == FillingFactor(1, 3)
    assert HierarchyR1Spec(a0=3, a1=2, b=1, n_electrons=2).filling_factor() == FillingFactor(2, 5)
    assert HierarchyR1Spec(a0=1, a1=-2, b=-1, n_electrons=2).filling_factor() == FillingFactor(2, 3)
    with pytest.raises(ValueError):
        LaughlinSpec(2, 2)
    with pytest.raises(ValueError):
        HierarchyR1Spec(a0=3, a1=3, b=1, n_electrons=2)
    with pytest.raises(ValueError):
        HierarchyR1Spec(a0=3, a1=2, b=0, n_electrons=2)
    with pytest.raises(ValueError, match="outside"):
        HierarchyR1Spec(a0=1, a1=2, b=1, n_electrons=2)  # nu = 2


def test_spec_json_roundtrip():
    for spec in (LaughlinSpec(5, 3), HierarchyR1Spec(a0=3, a1=-4, b=-1, n_electrons=2)):
        assert spec_from_json(spec_to_json(spec)) == spec
    with pytest.raises(ValueError, match="variant"):
        spec_from_json({"variant": "unknown"})


# ----------------------------------------------------------------------
# Gram matrices


def test_gram_exact_family_is_diagonal():
    specs = [LaughlinSpec(m, 2) for m in (1, 3, 5)]
    gram = gram_matrix(specs, "exact")
    for i, m in enumerate((1, 3, 5)):
        assert gram.entries[i][i].exact_coefficient == oracle_inner_coefficient(m, m, 2)
    for i in range(3):
        for j in range(3):
            if i != j:
                assert gram.entries[i][j].exact_coefficient == 0
    values = gram.values()
    assert np.array_equal(values, values.conj().T)


def test_gram_exact_normalized_is_identity():
    specs = [LaughlinSpec(m, 2) for m in (1, 3, 5)]
    gram = gram_matrix(specs, "exact", normalize=True)
    assert np.array_equal(gram.values(), np.eye(3))
    assert gram.normalized


def test_gram_mc_off_diagonals_near_zero():
    specs = [LaughlinSpec(m, 2) for m in (1, 3)]
    gram = gram_matrix(specs, "mc", samples=50_000, seed=2)
    off = gram.entries[0][1]
    assert abs(off.value) < 4 * off.stderr
    assert gram.entries[1][0].value == off.value.conjugate()
    assert gram.entries[1][0].stderr == off.stderr


def test_gram_mc_worker_invariance():
    specs = [LaughlinSpec(m, 2) for m in (1, 3)]
    one = gram_matrix(specs, "mc", samples=30_000, seed=9, workers=1)
    four = gram_matrix(specs, "mc", samples=30_000, seed=9, workers=4)
    assert np.array_equal(one.values(), four.values())
    assert np.array_equal(one.stderrs(), four.stderrs())


def test_gram_validation():
    with pytest.raises(ValueError, match="at least one"):
        gram_matrix([], "exact")
    with pytest.raises(ValueError, match="share the electron count"):
        gram_matrix([LaughlinSpec(1, 2), LaughlinSpec(1, 3)], "exact")
    with pytest.raises(ValueError, match="unknown method"):
        gram_matrix([LaughlinSpec(1, 2)], "quadrature")


@pytest.mark.parametrize("ms, n", [((1, 3, 5), 3), ((1, 3, 5), 4), ((3, 3, 1), 4)])
def test_gram_exact_matches_pairwise_inner_products(ms, n):
    specs = [LaughlinSpec(m, n) for m in ms]
    gram = gram_matrix(specs, "exact")
    pairwise = [[inner_product_exact(a, b) for b in specs] for a in specs]
    want = [[res.exact_coefficient for res in row] for row in pairwise]
    assert [list(row) for row in gram.coefficients] == want
    assert [[e.exact_coefficient for e in row] for row in gram.entries] == want
    assert all(e.pi_power == n for row in gram.entries for e in row)
    assert np.array_equal(gram.values(), np.array([[res.value for res in row] for row in pairwise]))


def test_gram_exact_expands_each_spec_once(monkeypatch):
    calls = []
    expand = wavefunctions.jastrow_monomials
    monkeypatch.setattr(wavefunctions, "jastrow_monomials", lambda m, n: calls.append((m, n)) or expand(m, n))
    gram_matrix([LaughlinSpec(m, 3) for m in (1, 3, 5)], "exact")
    assert calls == [(1, 3), (3, 3), (5, 3)]


def test_gram_mc_diagonal_imaginary_parts_are_positive_zero():
    specs = [LaughlinSpec(m, 2) for m in (1, 3, 5)]
    for normalize in (False, True):
        gram = gram_matrix(specs, "mc", samples=20_000, seed=4, normalize=normalize)
        assert not np.any(np.signbit(np.diag(gram.values()).imag))
        entries = gram.to_json()["entries"]
        assert all(json.dumps(entries[i][i]["im"]) == "0.0" for i in range(3))


def test_gram_normalize_divides_each_part_by_the_norms():
    specs = [LaughlinSpec(m, 2) for m in (1, 3, 5)]
    raw = gram_matrix(specs, "mc", samples=20_000, seed=4)
    unit = gram_matrix(specs, "mc", samples=20_000, seed=4, normalize=True)
    norms = [math.sqrt(raw.values()[i, i].real) for i in range(3)]
    for i, j in product(range(3), repeat=2):
        scale, v = norms[i] * norms[j], raw.values()[i, j]
        assert unit.values()[i, j] == (1.0 if i == j else complex(v.real / scale, v.imag / scale))
        assert unit.stderrs()[i, j] == raw.stderrs()[i, j] / scale


def test_gram_arrays_are_read_only():
    specs = [LaughlinSpec(m, 2) for m in (1, 3)]
    for method in ("exact", "mc"):
        gram = gram_matrix(specs, method, samples=5_000)
        for arr in (gram.values(), gram.stderrs()):
            with pytest.raises(ValueError, match="read-only"):
                arr[0, 0] = 0


@pytest.mark.parametrize(
    "samples, workers, match",
    [(1, 1, "samples"), (0, 1, "samples"), (-5, 1, "samples"), (10, 1, "samples"), (5_000, 0, "workers")],
)
def test_gram_mc_checks_samples_and_workers(samples, workers, match):
    with pytest.raises(ValueError, match=match):
        gram_matrix([LaughlinSpec(1, 2), LaughlinSpec(3, 2)], "mc", samples=samples, workers=workers)


def test_gram_json_and_csv_export():
    specs = [LaughlinSpec(m, 2) for m in (1, 3)]
    gram = gram_matrix(specs, "mc", samples=10_000, seed=1)
    payload = gram.to_json()
    assert payload["method"] == "mc"
    assert payload["samples"] == 10_000 and payload["seed"] == 1
    assert len(payload["entries"]) == 2 and len(payload["entries"][0]) == 2
    entry = payload["entries"][0][0]
    assert set(entry) == {"re", "im", "stderr"}
    assert [spec_from_json(s) for s in payload["specs"]] == specs

    lines = gram.to_csv().strip().splitlines()
    assert lines[0] == "row,col,re,im,stderr"
    assert len(lines) == 5
    row, col, re, im, stderr = lines[1].split(",")
    assert (int(row), int(col)) == (0, 0)
    assert float(re) == gram.entries[0][0].value.real  # repr round-trips exactly


def exact_hierarchy_norm(a0):
    """<psi, psi> at n = 2 for either sign b, from the moment rule.

    |pi a0 (z1 - z2)^a0 z1 z2|^2 expands into C(a0, t)^2 |z1|^(2(t+1))
    |z2|^(2(a0+1-t)) diagonal terms, each integrating to pi^2 (t+1)! (a0+1-t)!.
    """
    total = sum(
        math.comb(a0, t) ** 2 * math.factorial(t + 1) * math.factorial(a0 + 1 - t)
        for t in range(a0 + 1)
    )
    return (math.pi * a0) ** 2 * math.pi**2 * total


def test_gram_mc_hierarchy_against_exact_gram():
    specs = [HierarchyR1Spec(a0, a1, b, 2) for a0, a1, b in ((3, 2, 1), (3, -2, -1), (5, 2, 1))]
    assert exact_hierarchy_norm(3) == pytest.approx(231_444, rel=1e-5)
    assert exact_hierarchy_norm(5) == pytest.approx(1.02864e8, rel=1e-5)
    exact = np.diag([exact_hierarchy_norm(spec.a0) for spec in specs])
    one = gram_matrix(specs, "mc", samples=1_000_000, seed=11, workers=1)
    four = gram_matrix(specs, "mc", samples=1_000_000, seed=11, workers=4)
    assert np.all(np.abs(one.values() - exact) <= 5 * one.stderrs())
    assert np.array_equal(one.values(), four.values())
    assert np.array_equal(one.stderrs(), four.stderrs())
    assert np.all(np.diag(one.values()).imag == 0.0)


def test_gram_mc_diagonal_exactly_real():
    specs = [LaughlinSpec(m, 2) for m in (1, 3, 5)]
    gram = gram_matrix(specs, "mc", samples=100_000, seed=3)
    assert np.all(np.diag(gram.values()).imag == 0.0)
    res = inner_product_mc(specs[1], specs[1], 10_000, seed=3)
    assert res.value.imag == 0.0
