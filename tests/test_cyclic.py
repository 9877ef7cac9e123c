import json
import math
from fractions import Fraction
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hallrep.algebra import PrimitiveRoot, q_number, verify_relations
from hallrep.cyclic import (
    CyclicRep,
    InfeasibleBaseError,
    build_ladder,
    cyclicity_check,
    generic_infimum_base,
    intertwiner,
    ladder_from_coefficients,
    rep_from_json,
    solve_generic_coefficients,
    solve_ladder_magnitudes,
    three_block_residual,
)
from recurrence_oracles import consolidated_residual, ladder_chain_oracle, weight_chain_oracle


def p1_magnitude_oracle(base: Fraction):
    """Exact propagation of the three p=1 relations.

    At the cube root of unity the q-integers are exact: [1] = 1, [2] = -1,
    [3] = 0, so |a_3|^2 = base, |a_2|^2 - |a_3|^2 = -1, |a_1|^2 - |a_2|^2 = 1
    stays rational all the way.
    """
    a3 = base
    a2 = a3 + Fraction(-1)
    a1 = a2 + Fraction(1)
    return a1, a2, a3


def test_p1_magnitudes_match_rational_oracle():
    oracle = p1_magnitude_oracle(Fraction(2))
    assert oracle == (Fraction(2), Fraction(1), Fraction(2))
    solution = solve_ladder_magnitudes(PrimitiveRoot(1), 2.0)
    for got, want in zip(solution.magnitudes, oracle):
        assert got == pytest.approx(float(want), abs=1e-14)


def test_p1_infimum_base():
    assert generic_infimum_base(PrimitiveRoot(1), 1) == pytest.approx(1.0, abs=1e-14)


def test_base_below_infimum_reports_infimum():
    with pytest.raises(InfeasibleBaseError) as err:
        solve_ladder_magnitudes(PrimitiveRoot(1), 0.5)
    assert err.value.infimum_base == pytest.approx(1.0, abs=1e-14)
    assert "infimum" in str(err.value)


def test_default_base_is_infimum_plus_one():
    root = PrimitiveRoot(4, 5)
    solution = solve_ladder_magnitudes(root)
    assert solution.base == pytest.approx(solution.infimum_base + 1.0)
    assert min(solution.magnitudes) > 0


@pytest.mark.parametrize("p", [1, 2, 3, 5, 12])
def test_cyclic_qnumber_sum_vanishes(p):
    order = 2 * p + 1
    for k in range(1, order):
        if gcd(k, order) != 1:
            continue
        root = PrimitiveRoot(p, k)
        assert abs(sum(q_number(i, root) for i in range(1, order + 1))) < 1e-12


@pytest.mark.parametrize("p,k", [(1, 1), (2, 1), (3, 2), (7, 4), (10, 13)])
def test_both_recurrence_forms_agree(p, k):
    solution = solve_ladder_magnitudes(PrimitiveRoot(p, k))
    assert consolidated_residual(solution) < 1e-12
    assert three_block_residual(solution) < 1e-12


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 12),
    st.floats(0.25, 8.0, allow_nan=False),
    st.floats(0.25, 8.0, allow_nan=False),
)
def test_magnitudes_affine_in_base(p, off1, off2):
    root = PrimitiveRoot(p)
    infimum = generic_infimum_base(root, 1)
    m1 = solve_ladder_magnitudes(root, infimum + off1).magnitudes
    m2 = solve_ladder_magnitudes(root, infimum + off2).magnitudes
    for a, b in zip(m1, m2):
        assert (b - a) == pytest.approx(off2 - off1, abs=1e-12)


def test_build_ladder_k_diagonal_p1():
    root = PrimitiveRoot(1)
    rep = build_ladder(root, base=2.0)
    expected = [root.power(1), root.power(2), root.power(3)]
    assert np.array_equal(np.diag(rep.k_mat), np.array(expected))
    assert root.power(3) == 1 + 0j


def test_build_ladder_raising_action_p1():
    # E+ applied to the third basis state gives a_1 times the first
    rep = build_ladder(PrimitiveRoot(1), base=2.0)
    third = np.zeros(3)
    third[2] = 1.0
    out = rep.e_plus @ third
    assert out[0] == rep.raising[0]
    assert out[1] == 0 and out[2] == 0


def test_lowering_is_exact_adjoint():
    rep = build_ladder(PrimitiveRoot(3, 4))
    assert np.array_equal(rep.e_minus, rep.e_plus.conj().T)


def test_k_adjoint_equals_inverse():
    rep = build_ladder(PrimitiveRoot(5, 2))
    resid = np.linalg.norm(rep.k_mat.conj().T @ rep.k_mat - np.eye(rep.dim))
    assert resid < 1e-12


def test_phases_leave_residuals_unchanged():
    root = PrimitiveRoot(2)
    plain = build_ladder(root)
    rng = np.random.default_rng(5)
    phased = build_ladder(root, phases=rng.uniform(0, 2 * np.pi, root.order))
    r0 = verify_relations(plain.k_mat, plain.e_plus, plain.e_minus, root)
    r1 = verify_relations(phased.k_mat, phased.e_plus, phased.e_minus, root)
    assert abs(r0.commutator_residual - r1.commutator_residual) < 1e-12
    assert abs(r0.conjugation_residual_minus - r1.conjugation_residual_minus) < 1e-12
    assert np.array_equal(phased.e_minus, phased.e_plus.conj().T)


def smallest_intertwining_singular_value(rep_a, rep_b):
    """Smallest singular value of X -> (B X - X A) stacked over K, E+ and E-.

    It vanishes exactly when a nonzero X intertwines the two triples; with
    vec(B X - X A) = (I (x) B - A^T (x) I) vec(X) the map is a 3n^2 x n^2 matrix.
    """
    eye = np.eye(rep_a.dim)
    stacked = np.vstack([
        np.kron(eye, getattr(rep_b, name)) - np.kron(getattr(rep_a, name).T, eye)
        for name in ("k_mat", "e_plus", "e_minus")
    ])
    return np.linalg.svd(stacked, compute_uv=False)[-1]


@pytest.mark.parametrize(
    "phases, equivalent",
    [
        ((0.3, -0.3, 0.0, 0.0, 0.0), True),
        ((0.3, 0.1, 0.2, -0.6, 0.0), True),
        ((2 * np.pi, 0.0, 0.0, 0.0, 0.0), True),
        ((0.3, 0.0, 0.0, 0.0, 0.0), False),
    ],
)
def test_phases_equivalent_exactly_when_sums_agree(phases, equivalent):
    # E+^(2p+1) = (prod a_i) 1 is central, so only sum(phases) mod 2 pi survives
    root = PrimitiveRoot(2)
    gap = smallest_intertwining_singular_value(build_ladder(root), build_ladder(root, phases=phases))
    if equivalent:
        assert gap < 1e-12
    else:
        assert gap > 0.05


def test_wrong_phase_length_rejected():
    with pytest.raises(ValueError, match="phases"):
        build_ladder(PrimitiveRoot(1), phases=[0.0, 0.0])


def test_solve_generic_p1_passes_relations():
    root = PrimitiveRoot(1)
    rep = solve_generic_coefficients(root, 1.0)
    report = verify_relations(rep.k_mat, rep.e_plus, rep.e_minus, root)
    assert report.passed
    assert report.detected_conjugation_sign == -2
    assert np.array_equal(rep.lowering, np.conj(np.roll(rep.raising, 1)))


def test_solve_generic_rejects_nonunit_lambda():
    with pytest.raises(ValueError, match="unit modulus"):
        solve_generic_coefficients(PrimitiveRoot(1), 1.5)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("lam", [float("nan"), float("inf"), 5.0], ids=["nan", "inf", "five"])
def test_generic_infimum_rejects_non_finite_or_non_unit_lambda(lam):
    with pytest.raises(ValueError, match="finite number of unit modulus"):
        generic_infimum_base(PrimitiveRoot(2), lam)


@pytest.mark.parametrize(
    "solve",
    [
        lambda root: solve_ladder_magnitudes(root, float("nan")),
        lambda root: solve_ladder_magnitudes(root, float("inf")),
        lambda root: build_ladder(root, base=float("nan")),
        lambda root: build_ladder(root, phases=[0.0, float("nan"), 0.0, 0.0, 0.0]),
        lambda root: solve_generic_coefficients(root, complex(float("nan"), 0.0)),
        lambda root: solve_generic_coefficients(root, root.power(1), base=float("inf")),
        lambda root: solve_generic_coefficients(root, root.power(1), phases=[float("inf")] + [0.0] * 4),
    ],
    ids=["ladder-base-nan", "ladder-base-inf", "build-base-nan", "build-phase-nan",
         "generic-lambda-nan", "generic-base-inf", "generic-phase-inf"],
)
def test_non_finite_input_raises_value_error(solve):
    # every comparison with nan is false, so only an explicit check refuses it
    with pytest.raises(ValueError, match="finite"):
        solve(PrimitiveRoot(2))


def test_ladder_base_point_holds_base_exactly():
    # the chain runs from |a_{2p+1}|^2, so no closing-sum rounding reaches it
    for p in range(1, 26):
        for k in (k for k in range(1, 2 * p + 1) if gcd(k, 2 * p + 1) == 1):
            root = PrimitiveRoot(p, k)
            default = solve_ladder_magnitudes(root)
            assert default.magnitudes[-1] == default.base
            base = default.infimum_base + 0.37
            assert solve_ladder_magnitudes(root, base).magnitudes[-1] == base


def test_solve_generic_base_below_infimum():
    root = PrimitiveRoot(2)
    lam = root.power(1)
    infimum = generic_infimum_base(root, lam)
    with pytest.raises(InfeasibleBaseError) as err:
        solve_generic_coefficients(root, lam, infimum * 0.5)
    assert err.value.infimum_base == pytest.approx(infimum)


def test_generic_at_root_power_matches_permuted_ladder():
    # lam = q^s makes the generic solution a relabeling of the ladder one
    root = PrimitiveRoot(2)
    rep = build_ladder(root)
    res = intertwiner(rep, 3)
    base = abs(res.generic.raising[0]) ** 2
    solved = solve_generic_coefficients(root, root.power(3), base)
    assert np.allclose(solved.raising, res.generic.raising, rtol=0, atol=1e-12)
    assert np.allclose(solved.lowering, res.generic.lowering, rtol=0, atol=1e-12)
    assert res.residual < 1e-10


def test_cyclicity_p1_scalar():
    rep = build_ladder(PrimitiveRoot(1), base=2.0)
    report = cyclicity_check(rep)
    # oracle: |a| values are (sqrt(2), 1, sqrt(2)), product 2
    assert report.is_cyclic
    assert report.epow_scalar == pytest.approx(2.0, abs=1e-12)
    assert report.raising_residual < 1e-12
    assert report.lowering_residual < 1e-12


def test_cyclicity_detects_zeroed_coefficient():
    root = PrimitiveRoot(1)
    rep = build_ladder(root, base=2.0)
    a = np.array(rep.raising)
    a[1] = 0.0
    broken = ladder_from_coefficients(root, a)
    report = cyclicity_check(broken)
    assert not report.is_cyclic
    assert report.epow_scalar == 0
    # conjugation still holds entrywise, but the commutator relation breaks
    relations = verify_relations(broken.k_mat, broken.e_plus, broken.e_minus, root)
    assert relations.conjugation_residual_minus <= relations.tolerance
    assert relations.commutator_residual > relations.tolerance
    assert not relations.passed


def test_cyclicity_generic_rep():
    root = PrimitiveRoot(2)
    rep = solve_generic_coefficients(root, root.power(1))
    report = cyclicity_check(rep)
    assert report.is_cyclic
    assert report.epow_scalar == pytest.approx(complex(np.prod(rep.raising)), abs=1e-12)
    assert report.raising_residual < 1e-10


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("p", [86, 118])
def test_cyclicity_residual_finite_where_the_scalar_is_huge(p):
    # |prod a| reaches 1e305 at p = 118; the residual is scaled before its norm
    report = cyclicity_check(build_ladder(PrimitiveRoot(p, 1)))
    assert report.is_cyclic
    assert report.raising_residual < 1e-12
    assert report.lowering_residual < 1e-12


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_cyclicity_gives_no_verdict_when_the_scalar_overflows():
    # from p ~ 119 at k = 1 the coefficient product overflows to nan, and nan != 0
    report = cyclicity_check(build_ladder(PrimitiveRoot(150, 1)))
    assert not np.isfinite(report.epow_scalar)
    assert report.is_cyclic is False


@pytest.mark.parametrize("p, k", [(1000, 1000), (1000, 1001), (2700, 1), (10_000, 7)])
def test_magnitude_cross_checks_scale_with_the_largest_magnitude(p, k):
    # |a_i|^2 reaches 4e5 near q = -1 at p = 1000; an absolute 1e-10 bound failed there
    solution = solve_ladder_magnitudes(PrimitiveRoot(p, k))
    largest = max(solution.magnitudes)
    assert largest > 1e5
    assert three_block_residual(solution) <= 1e-14 * largest


def ladder_infimum_formula(root) -> float:
    """1/(4 cos^2(theta/2)): the ladder chain's lowest point, [p][p+1], in closed form.

    cos(theta/2) = sin(pi (2p+1-2k) / (2(2p+1))) keeps its relative accuracy near q = -1.
    """
    return 1.0 / (4.0 * math.sin(math.pi * (root.order - 2 * root.k) / (2 * root.order)) ** 2)


# p up to 10^3 with a random coprime k
large_p_labels = st.integers(1, 1000).flatmap(
    lambda p: st.tuples(
        st.just(p), st.integers(1, 2 * p).filter(lambda k: gcd(k, 2 * p + 1) == 1)
    )
)


@settings(max_examples=25, deadline=None)
@given(large_p_labels)
def test_closed_form_ladder_chain_matches_the_cumulative_sum(p_and_k):
    p, drawn = p_and_k
    for k in (1, p, p + 1, drawn):  # q nearest 1, nearest -1 (twice), then the draw
        root = PrimitiveRoot(p, k)
        solution = solve_ladder_magnitudes(root)
        sums, infimum = ladder_chain_oracle(root)
        mags = np.asarray(solution.magnitudes)
        scale = max(1.0, float(mags.max()))
        slots = (2 * np.arange(root.order) - 1) % root.order  # point t is label 2t
        assert np.max(np.abs(mags[slots] - (solution.base + sums))) <= 1e-12 * scale
        assert solution.infimum_base == pytest.approx(infimum, rel=0, abs=1e-12 * scale)
        assert solution.infimum_base == pytest.approx(ladder_infimum_formula(root), rel=1e-12)


@settings(max_examples=25, deadline=None)
@given(large_p_labels, st.floats(-math.pi, math.pi), st.integers(0, 2000))
def test_closed_form_weight_chain_matches_the_cumulative_sum(p_and_k, phi, s):
    root = PrimitiveRoot(*p_and_k)
    for lam in (complex(math.cos(phi), math.sin(phi)), root.power(s)):  # random phase, then the q^s lattice
        sums, infimum = weight_chain_oracle(root, lam)
        base = infimum + 0.5
        squared = np.abs(solve_generic_coefficients(root, lam, base).raising) ** 2
        scale = max(1.0, float(squared.max()))  # the cumulative sum's own rounding grows with it
        assert np.max(np.abs(squared - (base + sums))) <= 1e-12 * scale
        assert generic_infimum_base(root, lam) == pytest.approx(infimum, rel=0, abs=1e-12 * scale)


def test_ladder_infimum_at_p_ten_thousand():
    root = PrimitiveRoot(10_000, 1)
    assert generic_infimum_base(root, 1) == pytest.approx(ladder_infimum_formula(root), rel=1e-12)


def test_one_type_for_both_forms():
    root = PrimitiveRoot(3, 2)
    ladder = build_ladder(root)
    generic = solve_generic_coefficients(root, root.power(2))
    assert type(ladder) is type(generic) is CyclicRep
    assert (ladder.kind, generic.kind) == ("ladder", "generic")
    assert np.array_equal(ladder.lowering, np.conj(ladder.raising))
    assert not any(hasattr(ladder, name) for name in ("a", "g", "f", "unitary"))  # one name per field
    assert_bitwise_equal(ladder.e_minus, ladder.e_plus.conj().T.copy())  # -0.0 of the conjugated zeros too
    for rep in (ladder, generic):
        again = rep.rebuild()
        for name in ("raising", "lowering", "k_mat", "e_plus", "e_minus"):
            assert_bitwise_equal(getattr(again, name), getattr(rep, name))
    with pytest.raises(ValueError, match="ladder-form"):
        intertwiner(generic, 1)


def test_intertwiner_p1_s3():
    rep = build_ladder(PrimitiveRoot(1), base=2.0)
    res = intertwiner(rep, 3)
    assert res.sigma == (3, 1, 2)
    assert res.lam == rep.root.power(3)
    assert res.residual < 1e-12


def test_intertwiner_shift_structure():
    # conjugated raising operator is one lower cyclic shift with a_{sigma(m)-2}
    rep = build_ladder(PrimitiveRoot(2))
    res = intertwiner(rep, 1)
    n = rep.dim
    for m in range(n):
        expected = rep.raising[(res.sigma[m] - 2 - 1) % n]
        assert res.generic.e_plus[(m + 1) % n, m] == expected
    off_pattern = res.generic.e_plus.copy()
    for m in range(n):
        off_pattern[(m + 1) % n, m] = 0
    assert np.all(off_pattern == 0)


@pytest.mark.parametrize("p", [1, 2, 4, 6])
def test_intertwiner_is_bijection_for_all_s(p):
    root = PrimitiveRoot(p)
    rep = build_ladder(root)
    order = root.order
    for s in range(order):
        res = intertwiner(rep, s)
        assert sorted(res.sigma) == list(range(1, order + 1))
        assert res.residual < 1e-10
        assert res.lam == root.power(s)


def test_rep_json_roundtrip_bit_identical():
    ladder = build_ladder(PrimitiveRoot(2, 3))
    payload = json.loads(json.dumps(ladder.to_json()))
    back = rep_from_json(payload)
    assert np.array_equal(back.raising, ladder.raising)
    for name in ("k_mat", "e_plus", "e_minus"):
        assert np.array_equal(getattr(back, name), getattr(ladder, name))

    generic = solve_generic_coefficients(PrimitiveRoot(2), PrimitiveRoot(2).power(2))
    payload = json.loads(json.dumps(generic.to_json()))
    back = rep_from_json(payload)
    assert back.lam == generic.lam
    assert np.array_equal(back.raising, generic.raising)
    assert np.array_equal(back.lowering, generic.lowering)
    for name in ("k_mat", "e_plus", "e_minus"):
        assert np.array_equal(getattr(back, name), getattr(generic, name))


def assert_bitwise_equal(got, want):
    got, want = np.asarray(got).view(float), np.asarray(want).view(float)
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("p, k", [(1, 1), (30, 7), (198, 120)])
def test_ladder_json_roundtrip_keeps_bits_and_signed_zeros(p, k):
    phases = np.random.default_rng(p).uniform(-np.pi, np.pi, 2 * p + 1)
    ladder = build_ladder(PrimitiveRoot(p, k), phases=phases)
    back = rep_from_json(json.loads(json.dumps(ladder.to_json())))
    assert np.signbit(ladder.e_minus.view(float)).any()  # the adjoint holds -0.0 entries
    assert_bitwise_equal(back.raising, ladder.raising)
    for name in ("k_mat", "e_plus", "e_minus"):
        assert_bitwise_equal(getattr(back, name), getattr(ladder, name))


def test_generic_json_roundtrip_keeps_bits_and_signed_zeros():
    root = PrimitiveRoot(5, 2)
    phases = np.random.default_rng(11).uniform(-np.pi, np.pi, root.order)
    generic = solve_generic_coefficients(root, root.power(3) * 1j, phases=phases)
    back = rep_from_json(json.loads(json.dumps(generic.to_json())))
    assert back.lam == generic.lam
    for name in ("raising", "lowering", "k_mat", "e_plus", "e_minus"):
        assert_bitwise_equal(getattr(back, name), getattr(generic, name))


def test_rep_json_rebuilds_without_matrices():
    ladder = build_ladder(PrimitiveRoot(1))
    payload = ladder.to_json()
    del payload["matrices"]
    back = rep_from_json(payload)
    assert np.array_equal(back.e_plus, ladder.e_plus)
