import cmath
import math
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hallrep.algebra import (
    complex_from_pairs,
    complex_to_pairs,
    default_tolerance,
    frobenius,
    matrix_from_json,
    matrix_to_json,
    primitive_root,
    q_number,
    q_number_by_division,
    verify_relations,
)
from hallrep.cyclic import build_ladder


def coprime_labels(order):
    return [k for k in range(1, order) if gcd(k, order) == 1]


roots = st.integers(1, 30).flatmap(
    lambda p: st.sampled_from(coprime_labels(2 * p + 1)).map(lambda k: primitive_root(p, k))
)


def test_primitive_root_p1_value():
    q = primitive_root(1)
    assert q.value == pytest.approx(complex(-0.5, math.sqrt(3.0) / 2.0), abs=1e-15)


def test_primitive_root_p2_value():
    assert primitive_root(2).value == pytest.approx(cmath.exp(2j * math.pi / 5), abs=1e-15)


def test_primitive_root_rejects_non_coprime():
    with pytest.raises(ValueError, match="not a primitive root"):
        primitive_root(2, 5)


def test_primitive_root_rejects_bad_p():
    with pytest.raises(ValueError):
        primitive_root(0)
    with pytest.raises(ValueError):
        primitive_root(-3)


def test_primitive_root_normalizes_k():
    assert primitive_root(2, 7).k == 2
    assert primitive_root(2, -1).k == 4


@pytest.mark.parametrize("p", [1, 2, 3, 7, 19, 50])
def test_primitivity_invariants(p):
    order = 2 * p + 1
    for k in coprime_labels(order)[:6]:
        q = primitive_root(p, k)
        assert abs(q.value ** order - 1) < 1e-14 * order
        assert abs(abs(q.value) - 1) < 1e-14
        for n in range(1, order):
            assert abs(q.power(n) - 1) > 0.01  # primitive: no earlier return to 1


def test_q_number_unit():
    for p in (1, 2, 5):
        assert q_number(1, primitive_root(p)) == 1.0


def test_q_number_vanishes_at_order():
    for p in (1, 2, 9):
        q = primitive_root(p)
        assert q_number(q.order, q) == 0.0
        assert abs(q_number_by_division(q.order, q)) < 1e-12


def test_q_number_p1_n2():
    # [2] at the cube root of unity equals 2*cos(2*pi/3) = -1
    q = primitive_root(1)
    assert q_number(2, q) == -1.0
    assert q_number_by_division(2, q) == pytest.approx(2 * math.cos(2 * math.pi / 3), abs=1e-14)


@settings(max_examples=200, deadline=None)
@given(roots, st.integers(-250, 250))
def test_q_number_matches_division_oracle(root, n):
    direct = q_number(n, root)
    oracle = q_number_by_division(n, root)
    assert direct == pytest.approx(oracle, abs=1e-9 * max(1.0, abs(oracle)))


@settings(max_examples=200, deadline=None)
@given(roots, st.integers(-250, 250))
def test_q_number_exact_symmetries(root, n):
    order = root.order
    assert q_number(-n, root) == -q_number(n, root)
    assert q_number(n + order, root) == q_number(n, root)
    assert q_number(order - n, root) == -q_number(n, root)


def test_verify_relations_identity_inputs():
    root = primitive_root(2)
    zero = np.zeros((5, 5))
    report = verify_relations(np.eye(5), zero, zero, root)
    assert report.commutator_residual == 0.0
    assert report.detected_conjugation_sign is None
    assert report.passed


def test_verify_relations_solved_ladder():
    root = primitive_root(1)
    rep = build_ladder(root, base=2.0)
    report = verify_relations(rep.k_mat, rep.e_plus, rep.e_minus, root)
    assert report.passed
    assert report.detected_conjugation_sign == -2
    assert report.commutator_residual < 1e-12
    assert report.unitarity_residuals[1] == 0.0


def test_verify_relations_dimension_mismatch():
    root = primitive_root(1)
    with pytest.raises(ValueError, match="shape"):
        verify_relations(np.eye(3), np.zeros((4, 4)), np.zeros((3, 3)), root)


def test_verify_relations_unitary_conjugation_invariance():
    root = primitive_root(3, 2)
    rep = build_ladder(root)
    before = verify_relations(rep.k_mat, rep.e_plus, rep.e_minus, root)
    rng = np.random.default_rng(11)
    raw = rng.normal(size=(7, 7)) + 1j * rng.normal(size=(7, 7))
    u, _ = np.linalg.qr(raw)
    after = verify_relations(
        u.conj().T @ rep.k_mat @ u,
        u.conj().T @ rep.e_plus @ u,
        u.conj().T @ rep.e_minus @ u,
        root,
    )
    assert abs(after.commutator_residual - before.commutator_residual) < 1e-10
    assert abs(after.conjugation_residual_minus - before.conjugation_residual_minus) < 1e-10
    assert after.detected_conjugation_sign == before.detected_conjugation_sign


def test_relation_report_json():
    root = primitive_root(1)
    rep = build_ladder(root)
    payload = verify_relations(rep.k_mat, rep.e_plus, rep.e_minus, root).to_json()
    assert payload["pass"] is True
    assert payload["detected_conjugation_sign"] == -2
    # residuals serialize as decimal strings at 17 significant digits
    assert isinstance(payload["commutator_residual"], str)
    assert float(payload["commutator_residual"]) < 1e-10
    assert format(1.0 / 3.0, ".17g") == "0.33333333333333331"

    zero = np.zeros((3, 3))
    indet = verify_relations(np.eye(3), zero, zero, root).to_json()
    assert indet["detected_conjugation_sign"] == "indeterminate"


def test_matrix_json_roundtrip_bit_identical():
    rng = np.random.default_rng(3)
    mat = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    back = matrix_from_json(matrix_to_json(mat))
    assert np.array_equal(back, mat)


def test_matrix_json_rejects_bad_payload():
    with pytest.raises(ValueError):
        matrix_to_json(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        matrix_from_json({"dim": 2, "entries": [[0.0, 0.0]]})


def per_entry_matrix_json(mat):
    """The per-element encoder that the vectorised matrix_to_json replaced."""
    mat = np.asarray(mat, dtype=complex)
    return {"dim": int(mat.shape[0]), "entries": [[float(z.real), float(z.imag)] for z in mat.reshape(-1)]}


def test_matrix_json_non_contiguous_input_matches_per_entry_encoder():
    rng = np.random.default_rng(5)
    mat = rng.normal(size=(7, 7)) + 1j * rng.normal(size=(7, 7))
    mat[2, 3] = complex(-0.0, -0.0)
    big = rng.normal(size=(9, 12))
    for view in (mat.T, mat[::-1, ::2][:4, :4], mat.conj().T, big[1:8:2, 2:10:2], np.arange(9).reshape(3, 3).T):
        assert not view.flags.c_contiguous
        encoded = matrix_to_json(view)
        want = per_entry_matrix_json(view)
        assert encoded == want
        assert all(type(x) is float for pair in encoded["entries"] for x in pair)
        signs = np.signbit(np.array(encoded["entries"]))
        assert np.array_equal(signs, np.signbit(np.array(want["entries"])))
        assert np.array_equal(matrix_from_json(encoded), view)


def test_matrix_json_rejects_ragged_entry():
    entries = [[0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]
    with pytest.raises(ValueError):
        matrix_from_json({"dim": 2, "entries": entries})


def test_complex_pairs_roundtrip_keeps_signed_zeros():
    values = np.array([complex(-0.0, 0.0), complex(1.5, -0.0), 2 - 3j])
    pairs = complex_to_pairs(values)
    assert pairs == [[0.0, 0.0], [1.5, 0.0], [2.0, -3.0]]
    assert all(type(x) is float for pair in pairs for x in pair)
    assert np.array_equal(np.signbit(np.array(pairs)), np.signbit(values.view(float).reshape(-1, 2)))
    back = complex_from_pairs(pairs)
    assert np.array_equal(back.view(float), values.view(float))
    assert np.array_equal(np.signbit(back.view(float)), np.signbit(values.view(float)))
    assert np.signbit(complex_to_pairs(complex(-0.0, 1.0))[0][0])


@pytest.mark.parametrize(
    "payload",
    [[1, 2, 3], [1, 2], [["a", 0]], [["1.5", 0]], [[True, False]], [[None, 1.0]], [[1.0, 2.0, 3.0]],
     [[1.0], [1.0, 2.0]], [], None, 5, {"re": 1.0, "im": 0.0}],
)
def test_complex_from_pairs_rejects_anything_but_number_pairs(payload):
    with pytest.raises(ValueError):
        complex_from_pairs(payload)


def test_default_tolerance_scales_with_dimension():
    assert default_tolerance(3) == pytest.approx(3e-10)
    assert frobenius(np.eye(4)) == pytest.approx(2.0)
