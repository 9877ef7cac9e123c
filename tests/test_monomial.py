"""The wrapped-diagonal residual path against dense formulas written out in this file.

verify_relations and cyclicity_check take O(n) products when the nonzeros
of every input matrix lie on one wrapped diagonal (row i at column
(i + s) mod n); other monomial inputs, such as a representation written in a
permuted basis, take the dense path.  The dense O(n^3) formulas below are
the oracle: every residual agrees to 1e-12 (relative above one) and every
verdict matches.
"""

import dataclasses
import math
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hallrep.algebra import PrimitiveRoot, verify_relations
from hallrep.cyclic import (
    build_ladder,
    cyclicity_check,
    intertwiner,
    ladder_from_coefficients,
    solve_generic_coefficients,
)


def fro(mat) -> float:
    return float(np.linalg.norm(mat))


def dense_relations(k, ep, em, root):
    """commutator, conjugation +2, conjugation -2, K unitarity, adjoint pairing."""
    q = root.value
    k_inv = np.linalg.inv(k)
    conj_p = k @ ep @ k_inv
    conj_m = k @ em @ k_inv
    q2, qm2 = root.power(2), root.power(-2)
    return [
        fro(ep @ em - em @ ep - (k - k_inv) / (q - 1 / q)),
        max(fro(conj_p - q2 * ep), fro(conj_m - qm2 * em)),
        max(fro(conj_p - qm2 * ep), fro(conj_m - q2 * em)),
        fro(k.conj().T @ k - np.eye(k.shape[0])),
        fro(em.conj().T - ep),
    ]


def dense_power_residual(mat, scalar) -> float:
    n = mat.shape[0]
    power = np.linalg.matrix_power(mat, n)
    return fro((power - scalar * np.eye(n)) / max(1.0, abs(scalar) * math.sqrt(n)))


def close(got: float, want: float) -> bool:
    return abs(got - want) <= 1e-12 * max(1.0, abs(want))


def assert_relations_match_dense(k, ep, em, root):
    report = verify_relations(k, ep, em, root)
    want = dense_relations(k, ep, em, root)
    got = [
        report.commutator_residual,
        report.conjugation_residual_plus,
        report.conjugation_residual_minus,
        *report.unitarity_residuals,
    ]
    assert all(close(g, w) for g, w in zip(got, want)), (got, want)
    tol = report.tolerance
    plus_ok, minus_ok = want[1] <= tol, want[2] <= tol
    sign = 2 if plus_ok and not minus_ok else -2 if minus_ok and not plus_ok else None
    assert report.detected_conjugation_sign == sign
    assert report.passed == (want[0] <= tol and (plus_ok or minus_ok) and want[3] <= tol and want[4] <= tol)
    return report


def assert_cyclicity_matches_dense(rep):
    report = cyclicity_check(rep)
    for mat, scalar, got in (
        (rep.e_plus, np.prod(rep.raising), report.raising_residual),
        (rep.e_minus, np.prod(rep.lowering), report.lowering_residual),
    ):
        assert close(got, dense_power_residual(mat, complex(scalar)))
    no_zero_column = all(np.all(np.any(mat != 0, axis=0)) for mat in (rep.e_plus, rep.e_minus))
    finite = bool(np.isfinite([report.epow_scalar, report.raising_residual, report.lowering_residual]).all())
    assert report.is_cyclic == bool(
        finite and no_zero_column and np.prod(rep.raising) != 0 and np.prod(rep.lowering) != 0
    )
    return report


def assert_intertwiner_matches_dense(rep, s):
    res = intertwiner(rep, s)
    n = rep.dim
    perm = np.zeros((n, n))
    perm[np.array(res.sigma) - 1, np.arange(n)] = 1.0
    want = max(
        fro(perm.T @ getattr(rep, name) @ perm - getattr(res.generic, name))
        for name in ("k_mat", "e_plus", "e_minus")
    )
    assert close(res.residual, want)
    return res


def random_monomial(rng, n, zero_rows=0):
    vals = rng.normal(size=n) + 1j * rng.normal(size=n)
    vals[rng.choice(n, zero_rows, replace=False)] = 0
    mat = np.zeros((n, n), dtype=complex)
    mat[np.arange(n), rng.permutation(n)] = vals
    return mat


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 7), st.integers(0, 2**32 - 1), st.integers(0, 2))
def test_random_monomials_match_dense(p, seed, zero_rows):
    rng = np.random.default_rng(seed)
    root = PrimitiveRoot(p)
    n = root.order
    k, ep, em = random_monomial(rng, n), random_monomial(rng, n, zero_rows), random_monomial(rng, n, zero_rows)
    assert_relations_match_dense(k, ep, em, root)
    rep = dataclasses.replace(build_ladder(root), e_plus=ep, e_minus=em)
    assert_cyclicity_matches_dense(rep)
    assert_intertwiner_matches_dense(rep, int(rng.integers(n)))


def test_zeroed_coefficient_matches_dense():
    # the ladder with one coefficient zeroed: E+ and E- each have an empty row
    root = PrimitiveRoot(3, 2)
    a = np.array(build_ladder(root).raising)
    a[4] = 0.0
    broken = ladder_from_coefficients(root, a)
    report = assert_relations_match_dense(broken.k_mat, broken.e_plus, broken.e_minus, root)
    assert not report.passed
    assert not assert_cyclicity_matches_dense(broken).is_cyclic
    assert_intertwiner_matches_dense(broken, 2)


def test_on_structure_corruption_matches_dense():
    # one E+ entry rescaled in place: still monomial, but E- is no longer its adjoint
    root = PrimitiveRoot(4, 2)
    rep = build_ladder(root)
    ep = np.array(rep.e_plus)
    ep[2, 4] *= 1.5
    report = assert_relations_match_dense(rep.k_mat, ep, rep.e_minus, root)
    assert not report.passed and report.unitarity_residuals[1] > report.tolerance
    corrupted = dataclasses.replace(rep, e_plus=ep)
    assert_cyclicity_matches_dense(corrupted)
    assert assert_intertwiner_matches_dense(corrupted, 5).residual > 1e-10


def test_singular_monomial_k_raises_like_dense():
    root = PrimitiveRoot(2)
    rep = build_ladder(root)
    k = np.array(rep.k_mat)
    k[1, 1] = 0.0
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.inv(k)
    with pytest.raises(np.linalg.LinAlgError):
        verify_relations(k, rep.e_plus, rep.e_minus, root)


@pytest.mark.parametrize("zeroed, extra", [(None, (0, 1)), (1, (0, 0))], ids=["column-repeated", "columns-unique"])
def test_two_nonzeros_in_a_row_takes_the_dense_path(zeroed, extra):
    # column-repeated is the payload of test_rep_verify_corrupted_file_exits_one;
    # columns-unique fills row 0's second entry into the column a zeroed row left free
    root = PrimitiveRoot(1)
    a = np.array(build_ladder(root).raising)
    if zeroed is not None:
        a[zeroed] = 0.0
    rep = ladder_from_coefficients(root, a)
    ep = np.array(rep.e_plus)
    ep[extra] = 5.0
    report = verify_relations(rep.k_mat, ep, rep.e_minus, root)
    got = [
        report.commutator_residual,
        report.conjugation_residual_plus,
        report.conjugation_residual_minus,
        *report.unitarity_residuals,
    ]
    assert got == dense_relations(rep.k_mat, ep, rep.e_minus, root)
    assert not report.passed
    corrupted = dataclasses.replace(rep, e_plus=ep)
    assert cyclicity_check(corrupted).raising_residual == dense_power_residual(ep, complex(np.prod(rep.raising)))
    assert_intertwiner_matches_dense(corrupted, 1)


@pytest.mark.parametrize("p", range(1, 8))
def test_built_reps_match_dense_for_every_coprime_k(p):
    n = 2 * p + 1
    for k in (k for k in range(1, n) if gcd(k, n) == 1):
        root = PrimitiveRoot(p, k)
        ladder = build_ladder(root)
        generic = solve_generic_coefficients(root, root.power(1))
        intertwined = [assert_intertwiner_matches_dense(ladder, s).generic for s in range(n)]
        for rep in (ladder, generic, *intertwined):
            assert assert_relations_match_dense(rep.k_mat, rep.e_plus, rep.e_minus, root).passed
            assert assert_cyclicity_matches_dense(rep).is_cyclic


def test_large_p_runs_without_dense_products(monkeypatch):
    # at p = 1000 the dense products take minutes; the monomial path needs neither call
    def refuse(*args, **kwargs):
        raise AssertionError("dense path taken")

    monkeypatch.setattr(np.linalg, "matrix_power", refuse)
    monkeypatch.setattr(np.linalg, "inv", refuse)
    root = PrimitiveRoot(1000, 1301)
    rep = build_ladder(root)
    assert verify_relations(rep.k_mat, rep.e_plus, rep.e_minus, root).passed
    report = cyclicity_check(rep)
    assert report.is_cyclic and max(report.raising_residual, report.lowering_residual) < 1e-9
    assert intertwiner(rep, 17).residual < 1e-10


def random_wrapped_diagonal(rng, n, zeros=0):
    diag = rng.normal(size=n) + 1j * rng.normal(size=n)
    diag[rng.choice(n, zeros, replace=False)] = 0
    i = np.arange(n)
    mat = np.zeros((n, n), dtype=complex)
    mat[i, (i + rng.integers(n)) % n] = diag
    return mat


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 7), st.integers(0, 2**32 - 1), st.integers(0, 2))
def test_random_wrapped_diagonals_match_dense(p, seed, zeros):
    rng = np.random.default_rng(seed)
    root = PrimitiveRoot(p)
    n = root.order
    k = random_wrapped_diagonal(rng, n)
    ep, em = random_wrapped_diagonal(rng, n, zeros), random_wrapped_diagonal(rng, n, zeros)
    assert_relations_match_dense(k, ep, em, root)
    rep = dataclasses.replace(build_ladder(root), e_plus=ep, e_minus=em)
    assert_cyclicity_matches_dense(rep)
    assert_intertwiner_matches_dense(rep, int(rng.integers(n)))


def test_permuted_basis_ladder_gives_the_dense_result_exactly():
    # swapping two basis vectors keeps K diagonal but spreads E+- over two diagonals
    root = PrimitiveRoot(3, 2)
    rep = build_ladder(root)
    perm = np.eye(rep.dim)[[1, 0, *range(2, rep.dim)]]
    k, ep, em = (perm.T @ mat @ perm for mat in (rep.k_mat, rep.e_plus, rep.e_minus))
    report = verify_relations(k, ep, em, root)
    got = [
        report.commutator_residual,
        report.conjugation_residual_plus,
        report.conjugation_residual_minus,
        *report.unitarity_residuals,
    ]
    assert got == dense_relations(k, ep, em, root)
    assert report.passed
    permuted = dataclasses.replace(rep, k_mat=k, e_plus=ep, e_minus=em)
    cyclicity = cyclicity_check(permuted)
    assert cyclicity.raising_residual == dense_power_residual(ep, complex(np.prod(rep.raising)))
    assert cyclicity.lowering_residual == dense_power_residual(em, complex(np.prod(rep.lowering)))
