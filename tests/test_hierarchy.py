import time
from fractions import Fraction
from itertools import product
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hallrep.hierarchy import (
    MAX_DEPTH,
    BlokWenSeq,
    DecompositionError,
    FillingFactor,
    PositiveCF,
    StandardCF,
    basis_index,
    blok_wen_sequence,
    decompose,
    eval_positive_cf,
    eval_standard_cf,
    family,
    family_partition_sum,
)

from cf_oracle import first_difference, reduced_odd_fractions, reference_evaluate

# The round trips below judge the library's coefficients with the Fraction
# reference evaluator, not with eval_*_cf: decompose and eval_*_cf share one
# integer engine, so a fault common to both would cancel out.


odd_q_fractions = st.integers(0, 48).flatmap(
    lambda i: st.integers(1, 2 * i + 1).map(lambda n: (n, 2 * i + 1))
).filter(lambda t: gcd(t[0], t[1]) == 1).map(lambda t: FillingFactor(*t))


# ----------------------------------------------------------------------
# filling factors


def test_filling_factor_str_and_parse():
    assert str(FillingFactor(2, 5)) == "2/5"
    assert str(FillingFactor(1, 1)) == "1"
    assert FillingFactor.parse("2/5") == FillingFactor(2, 5)
    assert FillingFactor.parse("1") == FillingFactor(1, 1)


def test_filling_factor_rejects_bad_values():
    with pytest.raises(ValueError, match="even"):
        FillingFactor(1, 2)
    with pytest.raises(ValueError, match="reduced"):
        FillingFactor(3, 9)
    with pytest.raises(ValueError, match="exceeds"):
        FillingFactor(5, 3)
    with pytest.raises(ValueError, match="positive"):
        FillingFactor(-1, 3)


# ----------------------------------------------------------------------
# evaluation


def test_eval_standard_spot_values():
    assert eval_standard_cf(StandardCF((3,))) == FillingFactor(1, 3)
    assert eval_standard_cf(StandardCF((1,))) == FillingFactor(1, 1)
    # oracle: 1/(3 - 1/2) = 2/5 in exact rationals
    assert Fraction(1) / (3 - Fraction(1, 2)) == Fraction(2, 5)
    assert eval_standard_cf(StandardCF((3, 2))) == FillingFactor(2, 5)


def test_eval_positive_spot_values():
    assert eval_positive_cf(PositiveCF((1, 2))) == FillingFactor(2, 3)
    assert eval_positive_cf(PositiveCF((3,))) == FillingFactor(1, 3)
    # oracle: 1/(1 + 1/(2 + 1/2)) = 5/7
    assert Fraction(1) / (1 + Fraction(1) / (2 + Fraction(1, 2))) == Fraction(5, 7)
    assert eval_positive_cf(PositiveCF((1, 2, 2))) == FillingFactor(5, 7)


def test_parity_constraints_enforced():
    with pytest.raises(ValueError):
        StandardCF((2,))
    with pytest.raises(ValueError):
        StandardCF((3, 3))
    with pytest.raises(ValueError):
        StandardCF((3, 0))
    with pytest.raises(ValueError):
        PositiveCF((3, -2))
    with pytest.raises(ValueError):
        PositiveCF((-1, 2))
    with pytest.raises(ValueError):
        StandardCF(())


def test_eval_matches_reference_on_grids():
    # values and error messages, on grids that include out-of-range sums
    engines = (("standard", StandardCF, eval_standard_cf), ("positive", PositiveCF, eval_positive_cf))
    for form, cls, evaluate in engines:
        tail = [c for c in range(-6, 7) if c and c % 2 == 0 and cls._trailing_ok(c)]
        for r in range(0, 4):
            for head in (1, 3, 5):
                for rest in product(tail, repeat=r):
                    cs = (head, *rest)
                    try:
                        want = reference_evaluate(cs, form)
                    except ValueError as exc:
                        with pytest.raises(ValueError) as info:
                            evaluate(cls(cs))
                        assert str(info.value) == str(exc)
                        continue
                    assert evaluate(cls(cs)).value == want


def test_eval_rejects_out_of_range():
    with pytest.raises(ValueError, match="outside"):
        eval_standard_cf(StandardCF((1, 2)))  # 1/(1 - 1/2) = 2


def test_standard_eval_has_odd_denominator_on_grids():
    # exhaustive over short coefficient grids: parity forces odd Q
    evens = [c for c in range(-8, 9) if c and c % 2 == 0]
    odds = [1, 3, 5, 7]
    checked = 0
    for r in range(0, 4):
        for head in odds:
            for tail in product(evens, repeat=r):
                try:
                    nu = eval_standard_cf(StandardCF((head, *tail)))
                except ValueError:
                    continue
                assert nu.den % 2 == 1
                checked += 1
    assert checked > 1000


# ----------------------------------------------------------------------
# decomposition


def test_decompose_spot_values():
    assert decompose(FillingFactor(2, 5), "standard").coefficients == (3, 2)
    assert decompose(FillingFactor(2, 3), "positive").coefficients == (1, 2)
    assert decompose(FillingFactor(1, 1), "standard").coefficients == (1,)
    assert decompose(FillingFactor(1, 1), "positive").coefficients == (1,)


def test_decompose_positive_fails_honestly():
    with pytest.raises(DecompositionError, match="3/5"):
        decompose(FillingFactor(3, 5), "positive")
    with pytest.raises(DecompositionError):
        decompose(FillingFactor(2, 5), "positive")


def test_decompose_unknown_form():
    with pytest.raises(ValueError, match="unknown form"):
        decompose(FillingFactor(1, 3), "weird")


@settings(max_examples=150, deadline=None)
@given(odd_q_fractions)
def test_standard_roundtrip_random(nu):
    cf = decompose(nu, "standard")
    assert len(cf.coefficients) <= MAX_DEPTH + 1
    assert reference_evaluate(cf.coefficients, "standard") == nu.value


@settings(max_examples=150, deadline=None)
@given(odd_q_fractions)
def test_positive_roundtrip_when_decomposable(nu):
    try:
        cf = decompose(nu, "positive")
    except DecompositionError:
        return
    assert reference_evaluate(cf.coefficients, "positive") == nu.value


def test_standard_decomposes_every_small_fraction():
    for nu in reduced_odd_fractions(35):
        assert eval_standard_cf(decompose(nu, "standard")) == nu


@pytest.mark.parametrize("num, den", [(66, 133), (100, 201), (500, 1001)])
def test_standard_past_depth_bound_raises_fast(num, den):
    nu = FillingFactor(num, den)
    start = time.perf_counter()
    with pytest.raises(DecompositionError, match=f"{nu}.*{MAX_DEPTH + 1}"):
        decompose(nu, "standard")
    assert time.perf_counter() - start < 0.01


def test_standard_at_depth_bound():
    # 65/131 = 1/(3 - 1/(2 - ... - 1/2)) with 64 twos: exactly MAX_DEPTH + 1 terms
    assert decompose(FillingFactor(65, 131), "standard").coefficients == (3,) + (2,) * 64
    # the nearest odd to 129/65 is 1, and every later nearest even is -2
    assert decompose(FillingFactor(65, 129), "standard").coefficients == (1,) + (-2,) * 64


def test_standard_exhaustive_to_q_301():
    raised = 0
    for nu in reduced_odd_fractions(301):
        try:
            cf = decompose(nu, "standard")
        except DecompositionError:
            raised += 1
            continue
        assert len(cf.coefficients) <= MAX_DEPTH + 1
        assert reference_evaluate(cf.coefficients, "standard") == nu.value
    assert raised == 213


def test_positive_exhaustive_to_q_201():
    decomposed = total = 0
    for nu in reduced_odd_fractions(201):
        total += 1
        try:
            cf = decompose(nu, "positive")
        except DecompositionError:
            continue
        assert reference_evaluate(cf.coefficients, "positive") == nu.value
        decomposed += 1
    assert (decomposed, total) == (903, 8283)


def test_decompose_matches_reference_engine_to_q_201():
    # the same coefficients, or the same error type and message, in both forms
    assert first_difference(201) is None


large_odd_q_fractions = st.integers(0, 4999).flatmap(
    lambda i: st.integers(1, 2 * i + 1).map(lambda n: (n, 2 * i + 1))
).filter(lambda t: gcd(t[0], t[1]) == 1).map(lambda t: FillingFactor(*t))


@settings(max_examples=200, deadline=None)
@given(large_odd_q_fractions, st.sampled_from(["standard", "positive"]))
def test_decompose_bounded_for_large_q(nu, form):
    start = time.perf_counter()
    try:
        cf = decompose(nu, form)
    except DecompositionError:
        cf = None
    assert time.perf_counter() - start < 0.05
    if cf is not None:
        assert len(cf.coefficients) <= MAX_DEPTH + 1
        assert reference_evaluate(cf.coefficients, form) == nu.value


# ----------------------------------------------------------------------
# auxiliary sequences


def test_blok_wen_base_case():
    seq = blok_wen_sequence(PositiveCF((3,)))
    assert seq == BlokWenSeq((Fraction(0),), (Fraction(-1),))


def test_blok_wen_one_level():
    seq = blok_wen_sequence(PositiveCF((1, 2)))
    assert seq.thetas == (Fraction(0), Fraction(-1))
    assert seq.qs == (Fraction(-1), Fraction(1))

    seq = blok_wen_sequence(PositiveCF((3, 2)))
    assert seq.thetas == (Fraction(0), Fraction(-1, 3))
    assert seq.qs == (Fraction(-1), Fraction(1, 3))


@settings(max_examples=100, deadline=None)
@given(
    st.tuples(
        st.integers(0, 6).map(lambda n: 2 * n + 1),
        *([st.integers(1, 6).map(lambda n: 2 * n)] * 3),
    )
)
def test_blok_wen_recursion_exact(coeffs):
    cf = PositiveCF(coeffs)
    seq = blok_wen_sequence(cf)
    assert seq.thetas[0] == 0 and seq.qs[0] == -1
    # re-run the recursion from the output: zero error in exact rationals
    for r in range(1, len(coeffs)):
        sign = Fraction(-1) ** r
        assert seq.thetas[r] == sign / (cf.coefficients[r - 1] - sign * seq.thetas[r - 1])
        assert seq.qs[r] == -sign * seq.qs[r - 1] * seq.thetas[r]


# ----------------------------------------------------------------------
# families


def test_family_spot_values():
    assert [str(nu) for nu in family(1)] == ["1/3", "2/3", "1"]
    assert [str(nu) for nu in family(2)] == ["1/5", "2/5", "3/5", "4/5", "1"]


def test_family_is_increasing_and_ends_at_one():
    for p in (1, 2, 3, 8, 15):
        members = family(p)
        values = [nu.value for nu in members]
        assert values == sorted(values)
        assert values[-1] == 1
        assert len(members) == 2 * p + 1


def test_family_partition_sum_exact():
    for p in range(1, 41):
        assert family_partition_sum(p) == Fraction(1)


def test_family_rejects_bad_p():
    with pytest.raises(ValueError):
        family(0)


# ----------------------------------------------------------------------
# basis addresses


def test_basis_index_spot_values():
    assert basis_index(FillingFactor(2, 5)) == (2, 2)
    assert basis_index(FillingFactor(1, 3)) == (1, 1)
    assert basis_index(FillingFactor(1, 1), family_p=3) == (7, 3)


def test_basis_index_requires_family_for_unity():
    with pytest.raises(ValueError, match="family"):
        basis_index(FillingFactor(1, 1))


def test_basis_index_rejects_non_members():
    with pytest.raises(ValueError, match="not a member"):
        basis_index(FillingFactor(1, 3), family_p=2)


def test_basis_index_of_family_members_is_positional():
    for p in range(1, 9):
        for position, nu in enumerate(family(p), start=1):
            assert basis_index(nu, family_p=p) == (position, p)
