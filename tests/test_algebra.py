import cmath
import json
import math
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hallrep.algebra import (
    PrimitiveRoot,
    _matrix_from_json,
    _PairText,
    _pairs_text,
    complex_from_pairs,
    complex_to_pairs,
    default_tolerance,
    frobenius,
    q_number,
    verify_relations,
)
from hallrep.cyclic import build_ladder

from recurrence_oracles import q_number_by_division


def coprime_labels(order):
    return [k for k in range(1, order) if gcd(k, order) == 1]


roots = st.integers(1, 30).flatmap(
    lambda p: st.sampled_from(coprime_labels(2 * p + 1)).map(lambda k: PrimitiveRoot(p, k))
)


def test_primitive_root_p1_value():
    q = PrimitiveRoot(1)
    assert q.value == pytest.approx(complex(-0.5, math.sqrt(3.0) / 2.0), abs=1e-15)


def test_primitive_root_p2_value():
    assert PrimitiveRoot(2).value == pytest.approx(cmath.exp(2j * math.pi / 5), abs=1e-15)


def test_primitive_root_rejects_non_coprime():
    with pytest.raises(ValueError, match="not a primitive root"):
        PrimitiveRoot(2, 5)


def test_primitive_root_rejects_bad_p():
    with pytest.raises(ValueError):
        PrimitiveRoot(0)
    with pytest.raises(ValueError):
        PrimitiveRoot(-3)


def test_primitive_root_normalizes_k():
    assert PrimitiveRoot(2, 7).k == 2
    assert PrimitiveRoot(2, -1).k == 4


@pytest.mark.parametrize("p", [1, 2, 3, 7, 19, 50])
def test_primitivity_invariants(p):
    order = 2 * p + 1
    for k in coprime_labels(order)[:6]:
        q = PrimitiveRoot(p, k)
        assert abs(q.value ** order - 1) < 1e-14 * order
        assert abs(abs(q.value) - 1) < 1e-14
        for n in range(1, order):
            assert abs(q.power(n) - 1) > 0.01  # primitive: no earlier return to 1


def test_q_number_unit():
    for p in (1, 2, 5):
        assert q_number(1, PrimitiveRoot(p)) == 1.0


def test_q_number_vanishes_at_order():
    for p in (1, 2, 9):
        q = PrimitiveRoot(p)
        assert q_number(q.order, q) == 0.0
        assert abs(q_number_by_division(q.order, q)) < 1e-12


def test_q_number_p1_n2():
    # [2] at the cube root of unity equals 2*cos(2*pi/3) = -1
    q = PrimitiveRoot(1)
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


@settings(max_examples=100, deadline=None)
@given(roots)
def test_q_number_of_an_array_matches_the_scalar_floats(root):
    n = np.arange(-2 * root.order, 2 * root.order)
    scalars = [q_number(int(i), root) for i in n]
    assert all(type(value) is float for value in scalars)  # the CSV writer formats them with !r
    np.testing.assert_allclose(q_number(n, root), scalars, rtol=1e-15, atol=0)
    assert np.array_equal(q_number(-n, root), -q_number(n, root))
    assert np.array_equal(q_number(root.order - n, root), -q_number(n, root))


def test_verify_relations_identity_inputs():
    root = PrimitiveRoot(2)
    zero = np.zeros((5, 5))
    report = verify_relations(np.eye(5), zero, zero, root)
    assert report.commutator_residual == 0.0
    assert report.detected_conjugation_sign is None
    assert report.passed


def test_verify_relations_solved_ladder():
    root = PrimitiveRoot(1)
    rep = build_ladder(root, base=2.0)
    report = verify_relations(rep.k_mat, rep.e_plus, rep.e_minus, root)
    assert report.passed
    assert report.detected_conjugation_sign == -2
    assert report.commutator_residual < 1e-12
    assert report.unitarity_residuals[1] == 0.0


def test_verify_relations_dimension_mismatch():
    root = PrimitiveRoot(1)
    with pytest.raises(ValueError, match="shape"):
        verify_relations(np.eye(3), np.zeros((4, 4)), np.zeros((3, 3)), root)


def test_verify_relations_rejects_non_square_k():
    with pytest.raises(ValueError, match="K must be square"):
        verify_relations(np.eye(3)[:2], np.zeros((3, 3)), np.zeros((3, 3)), PrimitiveRoot(1))


def test_verify_relations_detects_the_other_conjugation_sign():
    # swapping E+ and E- swaps which of q^(+-2) the conjugation by K gives
    root = PrimitiveRoot(2)
    rep = build_ladder(root)
    report = verify_relations(rep.k_mat, rep.e_minus, rep.e_plus, root)
    assert report.detected_conjugation_sign == 2
    assert report.conjugation_residual_plus < 1e-12 < report.conjugation_residual_minus


def test_verify_relations_unitary_conjugation_invariance():
    root = PrimitiveRoot(3, 2)
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
    root = PrimitiveRoot(1)
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
    back = _matrix_from_json({"dim": 4, "entries": complex_to_pairs(mat)})
    assert np.array_equal(back, mat)
    assert not back.flags.writeable


def test_matrix_json_rejects_bad_payload():
    with pytest.raises(ValueError):
        _matrix_from_json({"dim": 2, "entries": [[0.0, 0.0]]})
    with pytest.raises(ValueError, match="'dim' must be an integer"):
        _matrix_from_json({"dim": 2.0, "entries": [[0.0, 0.0]] * 4})


def per_entry_matrix_json(mat):
    """The {"dim", "entries"} object of a square matrix, one element at a time."""
    mat = np.asarray(mat, dtype=complex)
    return {"dim": int(mat.shape[0]), "entries": [[float(z.real), float(z.imag)] for z in mat.reshape(-1)]}


def test_matrix_json_non_contiguous_input_matches_per_entry_encoder():
    rng = np.random.default_rng(5)
    mat = rng.normal(size=(7, 7)) + 1j * rng.normal(size=(7, 7))
    mat[2, 3] = complex(-0.0, -0.0)
    big = rng.normal(size=(9, 12))
    for view in (mat.T, mat[::-1, ::2][:4, :4], mat.conj().T, big[1:8:2, 2:10:2], np.arange(9).reshape(3, 3).T):
        assert not view.flags.c_contiguous
        encoded = {"dim": len(view), "entries": complex_to_pairs(view)}
        want = per_entry_matrix_json(view)
        assert encoded == want
        assert all(type(x) is float for pair in encoded["entries"] for x in pair)
        signs = np.signbit(np.array(encoded["entries"]))
        assert np.array_equal(signs, np.signbit(np.array(want["entries"])))
        assert np.array_equal(_matrix_from_json(encoded), view)


def test_matrix_json_rejects_ragged_entry():
    entries = [[0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]
    with pytest.raises(ValueError):
        _matrix_from_json({"dim": 2, "entries": entries})


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


def pairs_text_cases():
    rng = np.random.default_rng(17)
    dense = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
    tiny = 5e-324  # the smallest subnormal
    return {
        "signed-zeros": np.array([complex(0.0, 0.0), complex(0.0, -0.0), complex(-0.0, 0.0), complex(-0.0, -0.0)]),
        "one-zero-part": np.array([complex(-0.0, 1.5), complex(2.5, -0.0), complex(0.0, -3.0)]),
        "subnormals": np.array([complex(tiny, -tiny), complex(-2.2250738585072e-310, 0.0), complex(-0.0, 1e-320)]),
        "near-max": np.array([complex(1.7976931348623157e308, -1.7976931348623157e308), complex(-1e308, 9.99e307)]),
        "dense": dense,
        "real": rng.normal(size=(3, 4)),
        "transpose": dense.T,
        "strided": dense[::2, 1::3],
        "adjoint": build_ladder(PrimitiveRoot(4, 2), phases=rng.uniform(-7, 7, 9)).e_minus,
        "scalar": np.complex128(-0.0 + 2j),
        "empty": np.zeros((0, 0), dtype=complex),
        "long-mixed-signs": long_mixed_signs(rng),
    }


def long_mixed_signs(rng):
    """~1 MB of text: zero entries of random signs in runs of 1 to 40, with a nonzero entry in ~1 of 50."""
    runs = rng.integers(1, 41, 3000)
    codes = np.repeat(rng.integers(0, 4, len(runs)), runs)
    pairs = np.stack([np.where(codes >= 2, -0.0, 0.0), np.where(codes % 2, -0.0, 0.0)], axis=1)
    nonzero = rng.random(len(codes)) < 0.02
    pairs[nonzero] = rng.normal(size=(nonzero.sum(), 2))
    return pairs.view(complex)


@pytest.mark.parametrize("name", list(pairs_text_cases()))
def test_pairs_text_is_the_default_encoders_text(name):
    values = pairs_text_cases()[name]
    assert _pairs_text(values) == json.dumps(complex_to_pairs(values))


def pairs_from_text(span):
    """The certified (m, 2) array of span's one pair list; text after the list raises ValueError."""
    out, end = _PairText(span).read(0)
    if end != len(span):
        raise ValueError("text follows the list of [re, im] pairs")
    return out


@pytest.mark.parametrize("name", list(pairs_text_cases()))
def test_pairs_from_text_inverts_pairs_text_bit_for_bit(name):
    text = _pairs_text(pairs_text_cases()[name])
    got = pairs_from_text(text)
    want = np.array(json.loads(text), dtype=float).reshape(-1, 2)
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize(
    "span",
    [
        "[[1.5, -2.0],  [0.0, 0.0]]",
        "[[1.5,  -2.0], [0.0, 0.0]]",
        "[[1.5, -2.0] , [0.0, 0.0]]",
        "[ [1.5, -2.0], [0.0, 0.0]]",
        "[[1.5, -2.0], [0.0, 0.0]] ",
        "[[0.0, 0.0 ]]",
        "[[1, 2]]",
        "[[0, -0]]",
        "[[1.50, 2.0]]",
        "[[1e400, 0.0]]",
        "[[NaN, 0.0]]",
        "[[0.0, -Infinity]]",
        "[[1.0, 2.0, 3.0]]",
        "[[1.0], [2.0, 3.0]]",
        "[[[1.0, 2.0]]]",
        '[["1.0", 2.0]]',
        "[[0.0, 0.0]",
        "[[0.0, 0.0]]]",
        "[[0.0, \u00e9]]",
        "",
    ],
)
def test_pairs_from_text_refuses_any_other_text(span):
    with pytest.raises(ValueError):
        pairs_from_text(span)


_ZERO_PARTS = ((0.0, 0.0), (0.0, -0.0), (-0.0, 0.0), (-0.0, -0.0))
_EDGE_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310, 1.7976931348623157e308, -1e308)


@st.composite
def zero_runs(draw):
    """Zero entries whose signs are uniform, in blocks or alternating."""
    length = draw(st.integers(0, 40))
    block = draw(st.sampled_from([1, 2, 3, 5, length + 1]))  # alternating, blocks, uniform
    first = draw(st.integers(0, 3))
    return [_ZERO_PARTS[(first + i // block) % 4] for i in range(length)]


nonzero_entries = st.lists(
    st.tuples(*[st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(_EDGE_FLOATS))] * 2)
    .filter(lambda pair: pair != (0.0, 0.0)),  # -0.0 == 0.0: both parts zero is a zero run's entry
    max_size=3,
)
pair_arrays = st.lists(st.one_of(zero_runs(), nonzero_entries), max_size=6).map(
    lambda segments: np.array([pair for segment in segments for pair in segment], dtype=float).reshape(-1, 2)
)


def canonical_pairs(text):
    """json's (m, 2) array of text when text is json.dumps's text of a list of finite float pairs, else None."""
    try:
        obj = json.loads(text)
    except ValueError:
        return None
    if not isinstance(obj, list) or json.dumps(obj) != text:
        return None
    if not all(isinstance(pair, list) and len(pair) == 2 for pair in obj):
        return None
    if not all(type(x) is float and math.isfinite(x) for pair in obj for x in pair):
        return None
    return np.array(obj, dtype=float).reshape(-1, 2)


@settings(max_examples=300, deadline=None)
@given(pair_arrays)
def test_pair_codec_matches_json_over_zero_runs_and_edge_values(pairs):
    values = pairs.view(complex)
    text = _pairs_text(values)
    assert text == json.dumps(complex_to_pairs(values))
    got = pairs_from_text(text)
    assert got.shape == pairs.shape
    assert np.array_equal(got.view(np.uint64), canonical_pairs(text).view(np.uint64))


@settings(max_examples=300, deadline=None)
@given(pair_arrays, st.data())
def test_pair_codec_reads_an_edited_text_as_json_does(pairs, data):
    # an edit that leaves canonical text (a dropped "-" of a zero, a dropped
    # pair) must read as json.loads reads it; any other must raise ValueError
    text = _pairs_text(pairs.view(complex))
    at = {  # where each edit applies
        "dropped-minus": [i for i in range(len(text)) if text[i] == "-"],
        "zero-padded": [i for i in range(1, len(text) - 3) if text[i - 1] in "[- " and text[i : i + 4] in ("0.0,", "0.0]")],
        "extra-space": range(len(text) + 1),
        "missing-pair": range(len(pairs)),
        "dropped-byte": range(len(text)),
        "replaced-byte": range(len(text)),
    }
    kind = data.draw(st.sampled_from([kind for kind, places in at.items() if places]))
    i = data.draw(st.sampled_from(at[kind]))
    if kind in ("dropped-minus", "dropped-byte"):
        edited = text[:i] + text[i + 1 :]
    elif kind == "zero-padded":
        edited = text[:i] + "0.00" + text[i + 3 :]
    elif kind == "extra-space":
        edited = text[:i] + " " + text[i:]
    elif kind == "missing-pair":
        edited = json.dumps(json.loads(text)[:i] + json.loads(text)[i + 1 :])
    else:
        edited = text[:i] + data.draw(st.sampled_from("[]-.,0 1e")) + text[i + 1 :]
    want = canonical_pairs(edited)
    if kind in ("zero-padded", "extra-space"):
        assert want is None
    if want is None:
        with pytest.raises(ValueError):
            pairs_from_text(edited)
    else:
        assert np.array_equal(pairs_from_text(edited).view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("bad", [complex(float("nan"), 0.0), complex(0.0, float("inf")), complex(-float("inf"), 1.0)])
def test_pairs_text_refuses_non_finite_entries(bad):
    values = np.zeros((3, 3), dtype=complex)
    values[1, 2] = bad
    with pytest.raises(ValueError):
        json.dumps(complex_to_pairs(values), allow_nan=False)
    with pytest.raises(ValueError):
        _pairs_text(values)


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
