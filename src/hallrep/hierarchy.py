"""Exact-rational continued fractions for quantum Hall filling factors.

Filling factors are reduced rationals P/Q with odd Q in (0, 1].  Two
coefficient schemes evaluate to a filling factor:

* standard form: nu = 1/(a0 - 1/(a1 - ... - 1/ar)) with a0 odd positive and
  the later coefficients even, nonzero, of either sign;
* positive form: nu = 1/(p0 + 1/(p1 + ... + 1/pr)) with p0 odd positive and
  the later coefficients even positive.

Both forms share one validator, one evaluator and one decomposition loop;
they differ only in the sign between levels and the rule for the trailing
coefficients.  The standard form reaches every odd-denominator rational in
(0, 1], though near-1/2 fractions need long expansions, and decompose
raises for those past MAX_DEPTH + 1 = 65 terms.  The positive form is
unique when it exists and provably does not always exist (3/5 is the
smallest miss), so decompose fails loudly there instead of pretending.
The continued-fraction engine runs on coprime integer pairs, with no
per-step gcd; the Fraction engine it replaced is the tests' reference.
Everything here is exact integer or Fraction arithmetic; floats are
deliberately absent.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, log10

__all__ = [
    "MAX_DEPTH",
    "BlokWenSeq",
    "DecompositionError",
    "FillingFactor",
    "PositiveCF",
    "StandardCF",
    "basis_index",
    "blok_wen_sequence",
    "decompose",
    "eval_positive_cf",
    "eval_standard_cf",
    "family",
    "family_partition_sum",
]

MAX_DEPTH = 64


class DecompositionError(ValueError):
    """No coefficient sequence of the requested form exists, or none within MAX_DEPTH + 1 terms."""


@dataclass(frozen=True)
class FillingFactor:
    """Reduced rational P/Q with odd Q, in (0, 1]."""

    num: int
    den: int

    def __post_init__(self):
        if self.num <= 0 or self.den <= 0:
            raise ValueError(f"filling factor must be positive, got {self.num}/{self.den}")
        if self.num > self.den:
            raise ValueError(f"filling factor {self.num}/{self.den} exceeds 1")
        if gcd(self.num, self.den) != 1:
            raise ValueError(f"{self.num}/{self.den} is not reduced")
        if self.den % 2 == 0:
            raise ValueError(
                f"denominator {self.den} is even; filling factors with even "
                "denominator are outside this scheme"
            )

    @classmethod
    def from_fraction(cls, value) -> "FillingFactor":
        frac = Fraction(value)
        return cls(frac.numerator, frac.denominator)

    @classmethod
    def parse(cls, text: str) -> "FillingFactor":
        try:
            frac = Fraction(text.strip())
        except ZeroDivisionError:
            raise ValueError(f"filling factor {text.strip()} has a zero denominator") from None
        return cls.from_fraction(frac)

    @property
    def value(self) -> Fraction:
        return Fraction(self.num, self.den)

    def __str__(self) -> str:
        return str(self.num) if self.den == 1 else f"{self.num}/{self.den}"


@dataclass(frozen=True)
class _ContinuedFraction:
    """Coefficients c0 odd positive, then trailing ones under the form's rule.

    A form fixes the sign s in nu = 1/(c0 + s/(c1 + s/(... + s/cr))) and
    the rule for the trailing coefficients.
    """

    coefficients: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "coefficients", tuple(int(c) for c in self.coefficients))
        cs = self.coefficients
        if not cs:
            raise ValueError("coefficient list is empty")
        if cs[0] < 1 or cs[0] % 2 == 0:
            raise ValueError(f"leading coefficient must be odd positive, got {cs[0]}")
        for c in cs[1:]:
            if c % 2 or not self._trailing_ok(c):
                raise ValueError(f"trailing coefficients must be {self._trailing_rule}, got {c}")


@dataclass(frozen=True)
class StandardCF(_ContinuedFraction):
    """Standard-form coefficients: a0 odd positive, the rest even nonzero."""

    _sign = -1
    _trailing_rule = "even and nonzero"

    @staticmethod
    def _trailing_ok(c: int) -> bool:
        return c != 0


@dataclass(frozen=True)
class PositiveCF(_ContinuedFraction):
    """Positive-form coefficients: p0 odd positive, the rest even positive."""

    _sign = 1
    _trailing_rule = "even positive"

    @staticmethod
    def _trailing_ok(c: int) -> bool:
        return c >= 2


def _evaluate(cs: tuple[int, ...], sign: int) -> FillingFactor:
    """nu = 1/(c0 + s/(c1 + s/(... + s/cr))) exactly, innermost level first,
    by the continuant step (n, d) <- (c n + s d, n) from (1, 0), which keeps n, d coprime."""
    n, d = 1, 0
    for c in reversed(cs):
        n, d = c * n + sign * d, n
        if n == 0:
            raise ValueError(f"zero intermediate denominator while evaluating {list(cs)}")
    if n < 0:
        n, d = -n, -d
    if not 0 < d <= n:
        try:
            value = str(d) if n == 1 else f"{d}/{n}"
        except ValueError:  # past sys.get_int_max_str_digits()
            value = f"a ratio with a {_decimal_digits(n)}-digit denominator"
        raise ValueError(f"coefficients {list(cs)} evaluate to {value}, outside (0, 1]")
    return FillingFactor(d, n)


def _decimal_digits(n: int) -> int:
    """The number of decimal digits of n > 0, found without writing n as text."""
    digits = max(1, int((n.bit_length() - 1) * log10(2)))  # at most the true count
    while 10**digits <= n:
        digits += 1
    return digits


def eval_standard_cf(cf: StandardCF) -> FillingFactor:
    """Evaluate nu = 1/(a0 - 1/(a1 - ...)) exactly.

    The parity constraints force every intermediate away from zero and the
    final denominator odd; the guards are defensive.
    """
    return _evaluate(cf.coefficients, StandardCF._sign)


def eval_positive_cf(cf: PositiveCF) -> FillingFactor:
    """Evaluate nu = 1/(p0 + 1/(p1 + ...)) exactly."""
    return _evaluate(cf.coefficients, PositiveCF._sign)


def decompose(nu: FillingFactor, form: str = "standard") -> StandardCF | PositiveCF:
    """Find the coefficient sequence of the requested form evaluating to nu.

    One loop serves both forms.  Starting from x = 1/nu, each step picks a
    coefficient a of the required parity (odd first, even after) and sets
    x <- s/(x - a), until x is itself an integer of the required parity:

    * standard form (s = -1): a is the nearest coefficient to x, ties going
      to the lower one.  After the odd a0 every remainder has numerator and
      denominator of opposite parity, where this expansion terminates
      (Kraaikamp & Lopes 1996) and no tie can occur;
    * positive form (s = +1): a tail of even coefficients >= 2 is at least
      2, so a is forced to be the one with 0 < x - a <= 1/2.  The positive
      form is therefore unique when it exists; when no such a exists it
      does not (3/5 is the smallest miss).

    x = n/d is held as coprime integers with d > 0.  a is the least integer
    of parity t at or above x - shift (shift 1 standard, 2 positive), one
    floor division: a = 2 ceil((n - (shift + t) d) / 2d) + t.  The step
    (n, d) <- (s d, n - a d), sign moved onto n, is unimodular: no gcd.

    At most MAX_DEPTH + 1 = 65 terms are produced.  The standard expansion
    of P/Q with P = (Q +- 1)/2 has P terms, so near-1/2 fractions from
    66/131 on (and near-1/4 and near-3/4 ones from Q = 259 on) raise
    DecompositionError at the bound, as does a fraction without a positive
    form.  The returned sequence is re-evaluated exactly before it is
    returned.
    """
    forms = {"standard": (StandardCF, 1), "positive": (PositiveCF, 2)}
    if form not in forms:
        raise ValueError(f"unknown form {form!r}, expected 'standard' or 'positive'")
    cls, shift = forms[form]
    sign = cls._sign
    n, d = nu.den, nu.num  # x = 1/nu
    seq: list[int] = []
    while True:
        parity = 0 if seq else 1
        if d == 1 and n % 2 == parity:
            seq.append(n)
            break
        if len(seq) == MAX_DEPTH:
            raise DecompositionError(
                f"the {form} form of {nu} needs more than {MAX_DEPTH + 1} terms "
                f"(MAX_DEPTH = {MAX_DEPTH})"
            )
        a = parity - 2 * (((shift + parity) * d - n) // (2 * d))
        rest = n - a * d  # x - a = rest/d
        if cls is PositiveCF and 2 * rest > d:
            raise DecompositionError(f"no positive-form decomposition of {nu} exists")
        seq.append(a)
        n, d = (sign * d, rest) if rest > 0 else (-sign * d, -rest)
    result = cls(tuple(seq))
    produced = _evaluate(result.coefficients, sign)
    if produced != nu:
        raise ArithmeticError(f"decomposition {seq} of {nu} re-evaluated to {produced}")
    return result


@dataclass(frozen=True)
class BlokWenSeq:
    """Auxiliary rational sequences for the conjugate-factor rewriting.

    theta_0 = 0, q_0 = -1, then for r >= 1
    theta_r = (-1)^r / (p_{r-1} - (-1)^r theta_{r-1}) and
    q_r = (-1)^(r+1) q_{r-1} theta_r, all exact rationals.  |q_r| is the
    Gaussian decay rate used by the level-r auxiliary integrals.
    """

    thetas: tuple[Fraction, ...]
    qs: tuple[Fraction, ...]


def blok_wen_sequence(cf: PositiveCF) -> BlokWenSeq:
    thetas = [Fraction(0)]
    qs = [Fraction(-1)]
    for r in range(1, len(cf.coefficients)):
        sign = -1 if r % 2 else 1
        denom = cf.coefficients[r - 1] - sign * thetas[r - 1]
        if denom == 0:
            raise ValueError(f"zero denominator in the theta recursion at level {r}")
        thetas.append(Fraction(sign) / denom)
        qs.append(-sign * qs[r - 1] * thetas[r])
    return BlokWenSeq(thetas=tuple(thetas), qs=tuple(qs))


def family(p: int) -> list[FillingFactor]:
    """The 2p+1 filling factors i/(2p+1), i = 1..2p+1, reduced for display.

    The positional index i is the basis address; members of composite-order
    families display reduced (e.g. 3/9 as 1/3) but keep their slot.
    """
    if p < 1:
        raise ValueError(f"p must be a positive integer, got {p}")
    order = 2 * p + 1
    return [FillingFactor.from_fraction(Fraction(i, order)) for i in range(1, order + 1)]


def family_partition_sum(p: int) -> Fraction:
    """sum_i nu_i / (p + 1) over the family, exactly; equals 1 for every p."""
    return sum((nu.value for nu in family(p)), Fraction(0)) / (p + 1)


def basis_index(nu: FillingFactor, family_p: int | None = None) -> tuple[int, int]:
    """Address (i, p) of nu as the i-th state of the (2p+1)-state family.

    Without family_p the reduced denominator fixes p = (Q-1)/2.  nu = 1
    belongs to every family and must be addressed explicitly; the same
    parameter also addresses reduced members of composite-order families.
    """
    if family_p is not None:
        if family_p < 1:
            raise ValueError(f"family_p must be a positive integer, got {family_p}")
        order = 2 * family_p + 1
        i = nu.value * order
        if i.denominator != 1 or not 1 <= i.numerator <= order:
            raise ValueError(f"{nu} is not a member of the {order}-state family")
        return int(i), family_p
    if nu.den == 1:
        raise ValueError("nu = 1 belongs to every family; pass family_p to disambiguate")
    return nu.num, (nu.den - 1) // 2
