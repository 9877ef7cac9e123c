"""The four workloads: seeded inputs, the calls one op makes, and its check.

Each workload yields an endless stream of ops.  An op carries only the
generated inputs, the call into hallrep (through the module attribute its
callers look up, so the traced run can wrap it), a deadline, and the oracle
check that judges the result.  Inputs come in cycles of fixed composition
whose members are drawn from the seed and shuffled; a run ends on a cycle
boundary, so every run sees each stratum in the same proportion.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
from dataclasses import dataclass, field, replace
from fractions import Fraction
from math import gcd
from typing import Any, Callable

import numpy as np

from hallrep import algebra, cli, cyclic, hierarchy, wavefunctions

import oracles

EPS = float(np.finfo(float).eps)


class DeadlineExceeded(BaseException):
    """Raised by the interval timer when an op outlives its deadline.

    A BaseException, so no `except Exception` inside the program swallows it.
    """


@dataclass
class Verdict:
    """Outcome of one op's check.

    silent marks a result the program returned as valid that the oracle
    rejects; a failure the program reports itself (an exception, a nonzero
    exit, a failed verification, a non-finite residual) is not silent.
    """

    ok: bool
    reason: str = ""
    silent: bool = False
    info: dict = field(default_factory=dict)


PASS = Verdict(True)


def loud(reason: str) -> Verdict:
    return Verdict(False, reason)


def silent(reason: str) -> Verdict:
    return Verdict(False, reason, silent=True)


def raised(exc: BaseException) -> Verdict:
    return loud(f"raised {type(exc).__name__}")


@dataclass
class Op:
    kind: str
    sizes: dict
    call: Callable[[], Any]
    check: Callable[[Any], Verdict]
    deadline: float
    judge_error: Callable[[BaseException], Verdict] = raised
    ends_cycle: bool = True


class Workload:
    """An endless stream of ops with untimed work before and after the loop."""

    mc = False

    def ops(self):
        raise NotImplementedError

    def prepare(self) -> None:
        pass

    def finish(self) -> dict:
        return {}

    def known_defects(self) -> list[Op]:
        """Untimed ops, run once after the loop, that reproduce a known defect.

        They stay out of the timed loop, where whether a search misses its
        deadline would make `failed` vary with the machine's speed, and
        count in neither `attempted` nor `failed`.
        """
        return []


def end_cycle(ops: list[Op]) -> list[Op]:
    for op in ops:
        op.ends_cycle = False
    ops[-1].ends_cycle = True
    return ops


# ----------------------------------------------------------------------
# Monte Carlo workloads


def hermitian_verdict(values: np.ndarray) -> Verdict | None:
    """Off-diagonal entries must be exact conjugates; the diagonal real.

    A diagonal entry sums conj(v)*v, whose imaginary part is the rounding of
    re*im - im*re and so at most eps * Re per summand; anything beyond
    eps * Re is a pairing error, not rounding.
    """
    if not np.all(np.isfinite(values)):
        return silent("non-finite entry")
    diag = np.diag(values)
    off = values - np.diag(diag)
    if not np.array_equal(off, off.conj().T):
        return silent("off-diagonal entries are not exact conjugates")
    if np.any(np.abs(diag.imag) > EPS * np.abs(diag.real)):
        return silent("diagonal is not real to rounding")
    return None


def rel_stderr_worst(gram) -> float:
    return float(np.max(np.diag(gram.stderrs()) / np.diag(gram.values()).real))


def stream_digest(gram) -> str:
    return hashlib.sha256(gram.values().tobytes() + gram.stderrs().tobytes()).hexdigest()[:16]


class MonteCarlo(Workload):
    """A Gram matrix by Monte Carlo at workers=1, a fresh stream seed per op."""

    mc = True

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.specs = self.make_specs()
        self.first_seed = self.rng.getrandbits(32)
        self.first_result = None

    def make_specs(self):
        raise NotImplementedError

    def check_gram(self, gram, op_inputs) -> Verdict:
        raise NotImplementedError

    def op_inputs(self) -> dict:
        return {}

    def run_gram(self, seed: int, workers: int = 1):
        return wavefunctions.gram_matrix(
            self.specs, "mc", samples=self.samples, seed=seed, workers=workers
        )

    def ops(self):
        seed = self.first_seed
        while True:
            inputs = self.op_inputs()

            def check(gram, inputs=inputs):
                if self.first_result is None:
                    self.first_result = gram
                return replace(self.check_gram(gram, inputs), info={"rel_stderr_worst": rel_stderr_worst(gram)})

            yield Op(
                "mc_gram",
                {"specs": self.label, "n_electrons": 2, "samples": self.samples, "seed": seed},
                lambda seed=seed: self.run_gram(seed),
                check,
                self.deadline,
            )
            seed = self.rng.getrandbits(32)

    def finish(self) -> dict:
        """Untimed: the first op again at workers=nproc, against its workers=1 result."""
        one = self.first_result
        many = self.run_gram(self.first_seed, workers=max(2, len(os.sched_getaffinity(0))))
        equal = one is not None and (
            np.array_equal(one.values(), many.values())
            and np.array_equal(one.stderrs(), many.stderrs())
        )
        return {
            "stream_check": "workers=1 vs workers=nproc array_equal",
            "stream_equal": bool(equal),
            "stream_digest": stream_digest(many),
            "stream_seed": self.first_seed,
        }


class MCLaughlin(MonteCarlo):
    deadline = 5.0
    samples = 1_000_000
    label = "laughlin m=1,3,5"

    def make_specs(self):
        specs = tuple(wavefunctions.LaughlinSpec(m, 2) for m in (1, 3, 5))
        self.exact = np.diag([oracles.laughlin_norm_coefficient(m, 2) * math.pi**2 for m in (1, 3, 5)])
        return specs

    def check_gram(self, gram, op_inputs) -> Verdict:
        values, stderrs = gram.values(), gram.stderrs()
        bad = hermitian_verdict(values)
        if bad:
            return bad
        if np.any(np.abs(values - self.exact) > 5 * stderrs):
            return silent("entry beyond 5 stderr of the exact Gram")
        return PASS


class MCHierarchy(MonteCarlo):
    deadline = 30.0
    samples = 100_000
    label = "hierarchy_r1 (3,2,+1),(3,-2,-1),(5,2,+1)"

    def make_specs(self):
        return tuple(
            wavefunctions.HierarchyR1Spec(a0, a1, b, 2) for a0, a1, b in ((3, 2, 1), (3, -2, -1), (5, 2, 1))
        )

    def op_inputs(self) -> dict:
        points = [
            np.array([complex(self.rng.gauss(0, 1), self.rng.gauss(0, 1)) for _ in range(2)])
            for _ in self.specs
        ]
        return {"points": points}

    def check_gram(self, gram, op_inputs) -> Verdict:
        values = gram.values()
        bad = hermitian_verdict(values)
        if bad:
            return bad
        if np.any(np.diag(values).real <= 0):
            return silent("diagonal entry not positive")
        for spec, z in zip(self.specs, op_inputs["points"]):
            got = wavefunctions.hierarchy_r1_eval(spec, z)
            want = oracles.hierarchy_r1_closed_form(spec.a0, spec.b, z)
            if abs(got - want) > 1e-8 * abs(want):
                return silent(f"hierarchy_r1_eval off the closed form for {spec}")
        return PASS


# ----------------------------------------------------------------------
# exact arithmetic


EXACT_GRAMS = (((1, 3, 5), 3), ((1, 3, 5), 4), ((1, 3), 5))
DECOMPOSE_DEADLINE = 0.2
EXACT_GRAM_DEADLINE = 2.0
ODD_Q = range(3, 202, 2)


class ExactArith(Workload):
    """Exact Gram matrices and continued-fraction decompositions.

    One cycle holds the three exact Grams and six fractions, each decomposed
    in both forms.  The fractions are stratified by expansion length, the
    property that sets the cost: four generic P/Q and two near-1/2
    P = (Q+-1)/2, one with Q <= 65 and one with 67 <= Q <= 129.  From
    Q = 131 on, the standard form of a near-1/2 fraction needs more than 64
    terms and its search hangs today; that case runs once, untimed, as a
    known defect.
    """

    def __init__(self, seed: int):
        self.rng = random.Random(seed)

    def prepare(self) -> None:
        for ms, n in EXACT_GRAMS:
            for m in ms:
                oracles.laughlin_norm_coefficient(m, n)

    def generic_fraction(self) -> tuple[int, int]:
        while True:
            q = self.rng.choice(ODD_Q)
            p = self.rng.randint(1, q)
            if gcd(p, q) == 1 and 2 * p not in (q - 1, q + 1):
                return p, q

    def near_half(self, qs) -> tuple[int, int]:
        q = self.rng.choice(qs)
        return (q + self.rng.choice((-1, 1))) // 2, q

    def gram_op(self, ms, n) -> Op:
        order = list(ms)
        self.rng.shuffle(order)
        specs = [wavefunctions.LaughlinSpec(m, n) for m in order]

        def check(gram) -> Verdict:
            for i, row in enumerate(gram.entries):
                for j, entry in enumerate(row):
                    if i != j:
                        if entry.value != 0 or entry.exact_coefficient != 0:
                            return silent(f"off-diagonal ({i},{j}) is not exactly 0")
                        continue
                    want = oracles.laughlin_norm_coefficient(order[i], n)
                    if entry.exact_coefficient != want:
                        return silent(f"diagonal {i} coefficient differs from the brute-force oracle")
                    if not math.isclose(entry.value.real, want * math.pi**n, rel_tol=1e-12) or entry.value.imag:
                        return silent(f"diagonal {i} value is not coefficient * pi^{n}")
            return PASS

        return Op(
            "exact_gram",
            {"m": order, "n_electrons": n},
            lambda: wavefunctions.gram_matrix(specs, "exact"),
            check,
            EXACT_GRAM_DEADLINE,
        )

    def decompose_op(self, num: int, den: int, form: str) -> Op:
        nu = hierarchy.FillingFactor(num, den)
        evaluate = oracles.eval_standard if form == "standard" else oracles.eval_positive
        parity = oracles.standard_parity_ok if form == "standard" else oracles.positive_parity_ok

        def check(cf) -> Verdict:
            cs = cf.coefficients
            if not parity(cs):
                return silent(f"{form} coefficients break the parity rules")
            if evaluate(cs) != Fraction(num, den):
                return silent(f"{form} coefficients do not evaluate to {num}/{den}")
            return PASS

        def judge_error(exc: BaseException) -> Verdict:
            if (
                form == "positive"
                and isinstance(exc, hierarchy.DecompositionError)
                and not oracles.positive_form_exists(num, den)
            ):
                return PASS  # an honest miss: no positive form exists
            return raised(exc)

        return Op(
            "decompose",
            {"nu": f"{num}/{den}", "den": den, "form": form},
            lambda: hierarchy.decompose(nu, form),
            check,
            DECOMPOSE_DEADLINE,
            judge_error,
        )

    def ops(self):
        while True:
            cycle = [self.gram_op(ms, n) for ms, n in EXACT_GRAMS]
            fractions = [self.generic_fraction() for _ in range(4)]
            fractions.append(self.near_half(range(3, 66, 2)))
            fractions.append(self.near_half(range(67, 130, 2)))
            for num, den in fractions:
                cycle += [self.decompose_op(num, den, form) for form in ("standard", "positive")]
            self.rng.shuffle(cycle)
            yield from end_cycle(cycle)

    def known_defects(self) -> list[Op]:
        return [self.decompose_op(100, 201, "standard")]


# ----------------------------------------------------------------------
# cyclic representations


CYCLICITY_TOL = 1e-9
INTERTWINER_TOL = 1e-10
LIBRARY_DEADLINE = 10.0
CLI_DEADLINE = 30.0
LARGE_P_BINS = tuple(range(c - 2, c + 3) for c in (30, 86, 142, 198))  # 28..200, 5 wide


def coprime_labels(p: int) -> list[int]:
    order = 2 * p + 1
    return [k for k in range(1, order) if gcd(k, order) == 1]


def far_labels(p: int) -> list[int]:
    """Coprime labels whose root q sits at least 0.3 pi away from +-1."""
    order = 2 * p + 1
    return [k for k in coprime_labels(p) if 0.15 <= (k / order) % 0.5 <= 0.35]


ACCEPTANCE_SWEEP = tuple((p, k) for p in range(1, 26) for k in coprime_labels(p))


def load_strict(path: str):
    """Parse JSON, refusing NaN and Infinity."""

    def refuse(token):
        raise ValueError(f"non-finite JSON token {token}")

    with open(path, encoding="utf-8") as fh:
        return json.load(fh, parse_constant=refuse)


def ladder_verdict(rep, p: int, k: int) -> Verdict:
    """Structure of a built ladder rep against values recomputed from the angle."""
    n = 2 * p + 1
    k_mat, e_plus, e_minus = rep.k_mat, rep.e_plus, rep.e_minus
    if any(mat.shape != (n, n) for mat in (k_mat, e_plus, e_minus)):
        return silent("matrix shape is not (2p+1, 2p+1)")
    if not np.array_equal(e_minus, e_plus.conj().T):
        return silent("E- is not the exact adjoint of E+")
    want_k = np.array([oracles.root_power(p, k, i) for i in range(1, n + 1)])
    if np.any(np.abs(np.diag(k_mat) - want_k) > 1e-12) or np.count_nonzero(k_mat - np.diag(np.diag(k_mat))):
        return silent("K is not diag(q^i)")
    rows = np.arange(n)
    shift = e_plus[rows, (rows + 2) % n]
    if np.count_nonzero(e_plus) != np.count_nonzero(shift):
        return silent("E+ has entries off the step-two shift")
    mags = np.abs(shift) ** 2
    increments = mags - mags[(rows - 2) % n]
    want = np.array([oracles.q_integer(p, k, r + 1) for r in rows])
    if np.max(np.abs(increments - want)) > 1e-9 * max(1.0, float(np.max(mags))):
        return silent("magnitudes break |a_i|^2 - |a_(i-2)|^2 = [i]")
    return PASS


class Reps(Workload):
    """Dense ladder representations through the library and through the CLI.

    One item is one (p, k) with a seeded intertwiner exponent s; it runs
    seven ops: build_ladder, verify_relations, cyclicity_check and
    intertwiner in the library, then `ladder build -o`, `rep verify --in`
    and `ladder cyclicity --in` through cli.main.  A cycle holds four (p, k)
    from the acceptance sweep p <= 25 over coprime k and one p from each of
    four narrow bins spread over 28..200, past p ~ 78.  JSON grows as p^2,
    so narrow bins keep every cycle's cost alike.  From p ~ 64 on,
    cyclicity_check overflows to inf/nan when q is close to +-1 (k near 1,
    p + 1 or 2p); the large-p items draw k from the labels with q far from
    +-1, and the overflow runs once, untimed, as a known defect at k = 1,
    the CLI's default root.
    """

    def __init__(self, seed: int, workdir: str):
        self.rng = random.Random(seed)
        self.workdir = workdir

    def item(self, p: int, k: int) -> list[Op]:
        n = 2 * p + 1
        s = self.rng.randrange(n)
        sizes = {"p": p, "k": k, "dim": n}
        state: dict[str, Any] = {}
        rep_path, verify_path, cyclicity_path = (
            os.path.join(self.workdir, name) for name in ("rep.json", "verify.json", "cyclicity.json")
        )
        root = algebra.PrimitiveRoot(p, k)

        def build():
            state["rep"] = cyclic.build_ladder(root)
            return state["rep"]

        def verify_check(report) -> Verdict:
            return PASS if report.passed else loud("verify_relations did not pass")

        def cyclicity_check(report) -> Verdict:
            residuals = (report.raising_residual, report.lowering_residual)
            if not all(math.isfinite(r) for r in residuals):
                return loud("non-finite cyclicity residual")
            if not report.is_cyclic or max(residuals) > CYCLICITY_TOL:
                return loud("cyclicity not confirmed")
            return PASS

        def intertwiner_check(res) -> Verdict:
            if sorted(res.sigma) != list(range(1, n + 1)):
                return silent("sigma is not a permutation of the labels")
            if not res.residual <= INTERTWINER_TOL:
                return loud(f"intertwiner residual {res.residual:.3e}")
            return PASS

        def run_cli(argv):
            with contextlib.redirect_stderr(io.StringIO()):
                return cli.main(argv)

        def cli_check(path: str, reader: Callable[[dict], Verdict | None]) -> Callable[[int], Verdict]:
            def check(code) -> Verdict:
                try:
                    envelope = load_strict(path)
                except (OSError, ValueError) as exc:
                    return loud(f"exit {code}; {exc}") if code else silent(f"exit 0 but {exc}")
                if code:
                    return loud(f"exit {code}")
                return reader(envelope["result"]) or PASS
            return check

        def build_reader(result) -> Verdict | None:
            if result.get("kind") != "ladder" or result.get("p") != p or result.get("k") != k:
                return silent("written rep has the wrong kind, p or k")
            if any(result["matrices"][name]["dim"] != n for name in ("K", "Ep", "Em")):
                return silent("written matrices have the wrong dimension")
            return None

        def verify_reader(result) -> Verdict | None:
            return None if result.get("pass") is True else silent("exit 0 without pass")

        def cyclicity_reader(result) -> Verdict | None:
            residuals = (result["raising_residual"], result["lowering_residual"])
            if result.get("is_cyclic") is not True or max(residuals) > CYCLICITY_TOL:
                return silent("exit 0 without confirmed cyclicity")
            return None

        return [
            Op("build_ladder", sizes, build, lambda rep: ladder_verdict(rep, p, k), LIBRARY_DEADLINE),
            Op(
                "verify_relations", sizes,
                lambda: algebra.verify_relations(state["rep"].k_mat, state["rep"].e_plus, state["rep"].e_minus, root),
                verify_check, LIBRARY_DEADLINE,
            ),
            Op("cyclicity_check", sizes, lambda: cyclic.cyclicity_check(state["rep"]), cyclicity_check, LIBRARY_DEADLINE),
            Op("intertwiner", {**sizes, "s": s}, lambda: cyclic.intertwiner(state["rep"], s), intertwiner_check, LIBRARY_DEADLINE),
            Op(
                "cli_ladder_build", sizes,
                lambda: run_cli(["ladder", "build", "--p", str(p), "--k", str(k), "-o", rep_path]),
                cli_check(rep_path, build_reader), CLI_DEADLINE,
            ),
            Op(
                "cli_rep_verify", sizes,
                lambda: run_cli(["rep", "verify", "--in", rep_path, "-o", verify_path]),
                cli_check(verify_path, verify_reader), CLI_DEADLINE,
            ),
            Op(
                "cli_ladder_cyclicity", sizes,
                lambda: run_cli(["ladder", "cyclicity", "--in", rep_path, "-o", cyclicity_path]),
                cli_check(cyclicity_path, cyclicity_reader), CLI_DEADLINE,
            ),
        ]

    def ops(self):
        while True:
            items = [self.rng.choice(ACCEPTANCE_SWEEP) for _ in range(4)]
            for bin_ in LARGE_P_BINS:
                p = self.rng.choice(bin_)
                items.append((p, self.rng.choice(far_labels(p))))
            self.rng.shuffle(items)
            per_item = [self.item(p, k) for p, k in items]
            end_cycle([op for ops in per_item for op in ops])
            for ops in per_item:
                self.clear_workdir()
                yield from ops

    def known_defects(self) -> list[Op]:
        self.clear_workdir()
        build, _, cyclicity, _, cli_build, _, cli_cyclicity = self.item(86, 1)
        return [build, cyclicity, cli_build, cli_cyclicity]

    def clear_workdir(self) -> None:
        """Untimed, between items: every CLI op writes a file of its own.

        Truncating a file the filesystem has already written back can cost
        it tens of milliseconds or more (discard), which would land in
        whichever op reused the path.
        """
        for name in os.listdir(self.workdir):
            os.unlink(os.path.join(self.workdir, name))
