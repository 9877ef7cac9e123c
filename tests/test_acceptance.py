"""Acceptance suite: one criterion per test, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines stream.
Every tolerance is pinned here, not computed; Monte Carlo criteria use the
canonical seed range 0..99, which is deterministic by the stream contract.
"""

import math
import time
from fractions import Fraction
from itertools import product
from math import gcd

import numpy as np

from hallrep.algebra import primitive_root, q_number, verify_relations
from hallrep.cyclic import (
    build_ladder,
    cyclicity_check,
    intertwiner,
    solve_ladder_magnitudes,
    three_block_residual,
)
from hallrep.hierarchy import (
    DecompositionError,
    FillingFactor,
    decompose,
    eval_positive_cf,
    eval_standard_cf,
    family,
    family_partition_sum,
)
from hallrep.wavefunctions import (
    LaughlinSpec,
    gram_matrix,
    hierarchy_r1_eval,
    HierarchyR1Spec,
    inner_product_exact,
)
from recurrence_oracles import consolidated_residual


def report(number, description, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {number:02d}: {description}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def coprime_labels(order):
    return [k for k in range(1, order) if gcd(k, order) == 1]


def ladder_sweep(max_p):
    for p in range(1, max_p + 1):
        for k in coprime_labels(2 * p + 1):
            yield primitive_root(p, k)


def test_criterion_01_algebra_closure():
    start = time.monotonic()
    worst_comm = worst_conj = 0.0
    count = 0
    for root in ladder_sweep(25):
        rep = build_ladder(root)  # default base = infimum + 1
        rpt = verify_relations(rep.k_mat, rep.e_plus, rep.e_minus, root)
        worst_comm = max(worst_comm, rpt.commutator_residual)
        worst_conj = max(worst_conj, rpt.conjugation_residual_minus)
        count += 1
    elapsed = time.monotonic() - start
    ok = worst_comm < 1e-10 and worst_conj < 1e-10 and elapsed < 5.0
    report(
        1,
        "algebra closure, p <= 25, all coprime k",
        ok,
        f"{count} reps, commutator <= {worst_comm:.2e}, q^-2 conjugation <= {worst_conj:.2e}, {elapsed:.2f}s",
    )


def test_criterion_02_unitarity():
    worst_k = 0.0
    adjoint_exact = True
    for root in ladder_sweep(25):
        rep = build_ladder(root)
        k_res = np.linalg.norm(rep.k_mat.conj().T @ rep.k_mat - np.eye(rep.dim))
        worst_k = max(worst_k, float(k_res))
        adjoint_exact = adjoint_exact and np.array_equal(
            rep.e_minus, rep.e_plus.conj().T
        )
    ok = worst_k < 1e-12 and adjoint_exact
    report(
        2,
        "unitarity: K adjoint = inverse, lowering = exact adjoint",
        ok,
        f"K residual <= {worst_k:.2e}, adjoint exact on stored entries: {adjoint_exact}",
    )


def test_criterion_03_cyclicity():
    worst = 0.0
    for root in ladder_sweep(25):
        rep = build_ladder(root)
        cyc = cyclicity_check(rep)
        assert cyc.is_cyclic and cyc.epow_scalar != 0
        worst = max(worst, cyc.raising_residual, cyc.lowering_residual)
        # no annihilated state: every column of the shift matrices is populated
        for mat in (rep.e_plus, rep.e_minus):
            assert np.all(np.any(mat != 0, axis=0))
    ok = worst < 1e-9
    report(3, "cyclicity: E^(2p+1) scalar, no zero column, p <= 25", ok, f"residual <= {worst:.2e}")


def test_criterion_04_recurrence_consistency():
    worst_sum = worst_form = 0.0
    for p in range(1, 51):
        order = 2 * p + 1
        for k in coprime_labels(order):
            root = primitive_root(p, k)
            worst_sum = max(
                worst_sum, abs(sum(q_number(i, root) for i in range(1, order + 1)))
            )
            solution = solve_ladder_magnitudes(root)
            worst_form = max(
                worst_form,
                consolidated_residual(solution),
                three_block_residual(solution),
            )
    ok = worst_sum < 1e-12 and worst_form < 1e-12
    report(
        4,
        "recurrence consistency, p <= 50, all coprime k",
        ok,
        f"cyclic sum <= {worst_sum:.2e}, both recurrence forms <= {worst_form:.2e}",
    )


def test_criterion_05_p1_closed_form():
    # rational pre-check: at the cube root of unity [1], [2], [3] = 1, -1, 0
    base = Fraction(2)
    a3 = base
    a2 = a3 + Fraction(-1)
    a1 = a2 + Fraction(1)
    rational_ok = (a1, a2, a3) == (Fraction(2), Fraction(1), Fraction(2))
    rational_infimum = -min(Fraction(-1), Fraction(0), Fraction(0))
    rational_ok = rational_ok and rational_infimum == Fraction(1)

    solution = solve_ladder_magnitudes(primitive_root(1), 2.0)
    float_ok = all(
        abs(got - float(want)) < 1e-14
        for got, want in zip(solution.magnitudes, (a1, a2, a3))
    ) and abs(solution.infimum_base - 1.0) < 1e-14
    report(
        5,
        "p=1 closed form: magnitudes (2, 1, 2) at base 2, infimum 1",
        rational_ok and float_ok,
        f"rational pre-check exact: {rational_ok}, float path: {tuple(solution.magnitudes)}",
    )


def test_criterion_06_continued_fraction_round_trip():
    start = time.monotonic()
    standard_count = positive_count = positive_misses = 0
    for den in range(1, 100, 2):
        for num in range(1, den + 1):
            if gcd(num, den) != 1:
                continue
            nu = FillingFactor(num, den)
            assert eval_standard_cf(decompose(nu, "standard")) == nu
            standard_count += 1
            # the positive form provably misses part of (0, 1]; round-trip
            # must hold exactly whenever a decomposition exists
            try:
                cf = decompose(nu, "positive")
            except DecompositionError:
                positive_misses += 1
            else:
                assert eval_positive_cf(cf) == nu
                positive_count += 1
    elapsed = time.monotonic() - start
    spot = (
        eval_standard_cf(decompose(FillingFactor(1, 3), "standard")).value == Fraction(1, 3)
        and decompose(FillingFactor(2, 5), "standard").coefficients == (3, 2)
        and decompose(FillingFactor(2, 3), "positive").coefficients == (1, 2)
    )
    ok = standard_count == 2007 and positive_count > 0 and spot and elapsed < 10.0
    report(
        6,
        "continued-fraction round trip, odd Q <= 99, both forms",
        ok,
        f"standard {standard_count}/2007, positive {positive_count} (+{positive_misses} honest misses), {elapsed:.2f}s",
    )


def test_criterion_07_family_partition():
    expected = {
        1: ["1/3", "2/3", "1"],
        2: ["1/5", "2/5", "3/5", "4/5", "1"],
        3: ["1/7", "2/7", "3/7", "4/7", "5/7", "6/7", "1"],
    }
    families_ok = all(
        [str(nu) for nu in family(p)] == members for p, members in expected.items()
    )
    partition_ok = all(family_partition_sum(p) == Fraction(1) for p in range(1, 101))
    report(
        7,
        "family lists for p in {1,2,3} and exact partition of unity, p <= 100",
        families_ok and partition_ok,
        f"families: {families_ok}, partition: {partition_ok}",
    )


def oracle_gram_coefficient(ma, mb, n):
    """Independent moment oracle: brute-force expansion, factorial pairing."""
    from itertools import combinations

    pairs = list(combinations(range(n), 2))

    def expand(m):
        acc = {}
        for choices in product(range(m + 1), repeat=len(pairs)):
            coeff = 1
            expo = [0] * n
            for (i, j), t in zip(pairs, choices):
                coeff *= math.comb(m, t) * (-1) ** (m - t)
                expo[i] += t
                expo[j] += m - t
            acc[tuple(expo)] = acc.get(tuple(expo), 0) + coeff
        return acc

    terms_a, terms_b = expand(ma), expand(mb)
    total = 0
    for expo, ca in terms_a.items():
        cb = terms_b.get(expo, 0)
        if cb:
            weight = 1
            for e in expo:
                weight *= math.factorial(e)
            total += ca * cb * weight
    return total


def test_criterion_08_exact_gram_oracle():
    start = time.monotonic()
    ms = (1, 3, 5)
    specs2 = [LaughlinSpec(m, 2) for m in ms]
    gram2 = gram_matrix(specs2, "exact")
    d5 = oracle_gram_coefficient(5, 5, 2)
    diag_ok = [gram2.entries[i][i].exact_coefficient for i in range(3)] == [2, 48, d5]
    off2_ok = all(
        gram2.entries[i][j].exact_coefficient == 0
        for i in range(3)
        for j in range(3)
        if i != j
    )
    oracle_ok = all(
        gram2.entries[i][j].exact_coefficient == oracle_gram_coefficient(ma, mb, 2)
        for i, ma in enumerate(ms)
        for j, mb in enumerate(ms)
    )
    specs3 = [LaughlinSpec(m, 3) for m in ms]
    gram3 = gram_matrix(specs3, "exact")
    off3_ok = all(
        gram3.entries[i][j].exact_coefficient == 0
        for i in range(3)
        for j in range(3)
        if i != j
    )
    elapsed = time.monotonic() - start
    ok = diag_ok and off2_ok and oracle_ok and off3_ok and elapsed < 30.0
    report(
        8,
        "exact Gram oracle: diagonal (2, 48, D5) pi^2, off-diagonals exactly 0",
        ok,
        f"D5 = {d5}, N0=3 off-diagonals zero: {off3_ok}, {elapsed:.2f}s",
    )


def test_criterion_09_mc_oracle_agreement():
    start = time.monotonic()
    specs = [LaughlinSpec(m, 2) for m in (1, 3, 5)]
    exact = np.array(
        [[inner_product_exact(a, b).value for b in specs] for a in specs]
    )
    inside = np.zeros((3, 3), dtype=int)
    for seed in range(100):
        gram = gram_matrix(specs, "mc", samples=1_000_000, seed=seed)
        deviation = np.abs(gram.values() - exact)
        inside += (deviation <= 3 * gram.stderrs()).astype(int)
    coverage_ok = bool(np.all(inside >= 99))

    one = gram_matrix(specs, "mc", samples=1_000_000, seed=0, workers=1)
    four = gram_matrix(specs, "mc", samples=1_000_000, seed=0, workers=4)
    workers_ok = np.array_equal(one.values(), four.values()) and np.array_equal(
        one.stderrs(), four.stderrs()
    )
    elapsed = time.monotonic() - start
    ok = coverage_ok and workers_ok and elapsed < 120.0
    report(
        9,
        "MC-oracle agreement: 10^6 samples, every entry within 3 stderr in >= 99/100 seeds",
        ok,
        f"min coverage {int(inside.min())}/100, worker-invariant: {workers_ok}, {elapsed:.1f}s",
    )


def test_criterion_10_intertwiner():
    worst = 0.0
    count = 0
    for p in range(1, 11):
        order = 2 * p + 1
        for k in coprime_labels(order):
            rep = build_ladder(primitive_root(p, k))
            for s in range(order):
                res = intertwiner(rep, s)
                assert sorted(res.sigma) == list(range(1, order + 1))
                assert res.lam == rep.root.power(s)
                worst = max(worst, res.residual)
                count += 1
    ok = worst < 1e-10
    report(
        10,
        "intertwiner: permuted ladder matches weight-basis form, p <= 10, all s",
        ok,
        f"{count} relabelings, residual <= {worst:.2e}",
    )


def test_criterion_11_quadrature_convergence():
    configs = [
        [0.3 + 0.1j, -0.5 + 0.4j],
        [1.1 - 0.2j, 0.05 + 0.9j],
    ]
    worst = 0.0
    for b in (1, -1):
        spec = HierarchyR1Spec(a0=3, a1=2 * b, b=b, n_electrons=2)
        for config in configs:
            v32 = hierarchy_r1_eval(spec, config, quad_order=32)
            v64 = hierarchy_r1_eval(spec, config, quad_order=64)
            worst = max(worst, abs(v64 - v32) / abs(v64))
    ok = worst < 1e-8
    report(
        11,
        "quadrature convergence: relative change under order doubling 32 -> 64",
        ok,
        f"worst relative change {worst:.2e}",
    )
