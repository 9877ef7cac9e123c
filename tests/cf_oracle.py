"""Test-side reference engine for the parity continued fractions.

The library runs decomposition and evaluation on coprime integer pairs; this
is the plain Fraction engine it replaced, one exact rational operation per
step, kept as an independent reference with the same outcomes: the same
coefficients, or the same error type and message.

Run as a script, it compares the two engines on every reduced P/Q with odd
Q up to a bound, in both forms, and exits 1 on the first outcome that
differs:

    PYTHONPATH=src python tests/cf_oracle.py 1001
"""

import sys
from fractions import Fraction
from math import ceil, gcd

from hallrep.hierarchy import MAX_DEPTH, DecompositionError, FillingFactor, decompose

FORMS = {"standard": -1, "positive": 1}


def reference_evaluate(cs, form: str) -> Fraction:
    """nu = 1/(c0 + s/(c1 + s/(... + s/cr))) in Fractions, innermost level first."""
    sign = FORMS[form]
    nu = Fraction(0)  # reciprocal of the level below the current one
    for c in reversed(cs):
        x = c + sign * nu
        if x == 0:
            raise ValueError(f"zero intermediate denominator while evaluating {list(cs)}")
        nu = 1 / x
    if not 0 < nu <= 1:
        raise ValueError(f"coefficients {list(cs)} evaluate to {nu}, outside (0, 1]")
    return nu


def _lowest_of_parity(bound: Fraction, parity: int) -> int:
    """The least integer >= bound that is congruent to parity mod 2."""
    return 2 * ceil((bound - parity) / 2) + parity


def reference_decompose(nu: FillingFactor, form: str = "standard") -> tuple[int, ...]:
    """The coefficients of the requested form, found by the nearest / largest-below rule in Fractions."""
    if form not in FORMS:
        raise ValueError(f"unknown form {form!r}, expected 'standard' or 'positive'")
    x = 1 / nu.value
    seq: list[int] = []
    while True:
        parity = 0 if seq else 1
        if x.denominator == 1 and x.numerator % 2 == parity:
            seq.append(x.numerator)
            break
        if len(seq) == MAX_DEPTH:
            raise DecompositionError(
                f"the {form} form of {nu} needs more than {MAX_DEPTH + 1} terms "
                f"(MAX_DEPTH = {MAX_DEPTH})"
            )
        if form == "standard":
            a = _lowest_of_parity(x - 1, parity)  # nearest to x, ties to the lower
        else:
            a = _lowest_of_parity(x - 2, parity)  # the largest below x
            if x - a > Fraction(1, 2):
                raise DecompositionError(f"no positive-form decomposition of {nu} exists")
        seq.append(a)
        x = FORMS[form] / (x - a)
    produced = reference_evaluate(seq, form)
    if produced != nu.value:
        raise ArithmeticError(f"decomposition {seq} of {nu} re-evaluated to {produced}")
    return tuple(seq)


def reduced_odd_fractions(max_den):
    for den in range(1, max_den + 1, 2):
        for num in range(1, den + 1):
            if gcd(num, den) == 1:
                yield FillingFactor(num, den)


def outcome(engine, nu, form):
    """The coefficients an engine returns, or the type and message of what it raises."""
    try:
        return tuple(engine(nu, form))
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)


def first_difference(max_den: int):
    """The first (nu, form, library outcome, reference outcome) that differ up to odd max_den, else None."""
    for nu in reduced_odd_fractions(max_den):
        for form in FORMS:
            got = outcome(lambda nu, form: decompose(nu, form).coefficients, nu, form)
            want = outcome(reference_decompose, nu, form)
            if got != want:
                return nu, form, got, want
    return None


if __name__ == "__main__":
    bound = int(sys.argv[1])
    diff = first_difference(bound)
    if diff is not None:
        print("{} {}: library {!r}, reference {!r}".format(*diff), file=sys.stderr)
        sys.exit(1)
    print(f"library and reference agree on every reduced P/Q with odd Q <= {bound}, both forms")
