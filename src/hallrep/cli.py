"""Batch command-line front end.

Verb-noun subcommands over the library: representation solving and
verification (`rep`, `ladder`), filling-factor arithmetic (`ff`), and
wavefunction inner products (`wf`).  Machine-readable JSON is the default
output, one compact line per report; read it with `--format table` or
`python -m json.tool`.  Exit code 0 means success, 1 a failed verification,
an honest mathematical failure, a failed internal cross-check or a report
that would hold inf/nan (nothing is written then), 2 a usage error.  The
only environment variable consulted is HALLREP_COLOR (1/0), toggling color
in table output.  A command runs with the cyclic garbage collector paused
and restores the caller's setting after; library calls are unaffected.
`--in` reads a representation file the way json.load does: one scan of its
bytes finds the [re, im] pair lists of the text the CLI writes, which are
decoded straight to arrays and certified by re-encoding them to the same
bytes, and any other file is decoded by json.loads, so values, errors and
exit codes are the same.  A verb group imports only the modules its handlers
call: `ff` needs only the integer arithmetic of hallrep.hierarchy and never
imports numpy; `rep` and `ladder` add algebra and cyclic; `wf` adds algebra
and wavefunctions.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import gc
import importlib
import json
import json.scanner
import math
import os
import sys

from . import __version__
from .hierarchy import (
    DecompositionError,
    FillingFactor,
    PositiveCF,
    StandardCF,
    _decimal_digits,
    basis_index,
    blok_wen_sequence,
    decompose,
    eval_positive_cf,
    eval_standard_cf,
    family,
    family_partition_sum,
)

# The library names the handlers call beyond hierarchy's, by module, and the
# modules each verb group's handlers need.  A module is imported by the first
# command of a group that needs it, or by the first lookup of one of its
# names as a `cli` attribute; `ff` imports none, so it never loads numpy.
_NAMES = {
    "algebra": ("PrimitiveRoot", "_PairText", "_pairs_text", "complex_from_pairs", "complex_to_pairs", "verify_relations"),
    "cyclic": (
        "InfeasibleBaseError",
        "build_ladder",
        "cyclicity_check",
        "intertwiner",
        "rep_from_json",
        "solve_generic_coefficients",
        "solve_ladder_magnitudes",
    ),
    "wavefunctions": ("_value_at", "gram_matrix", "inner_product_exact", "inner_product_mc", "spec_from_json"),
}
_OWNER = {name: module for module, names in _NAMES.items() for name in names}
_GROUP_MODULES = {
    "rep": ("algebra", "cyclic"),
    "ladder": ("algebra", "cyclic"),
    "ff": (),
    "wf": ("algebra", "wavefunctions"),
}


def __getattr__(name):
    module = _OWNER.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__package__}.{module}"), name)
    globals()[name] = value
    return value


def _bind(group) -> None:
    """Bind the names the group's handlers call that are not bound yet.

    A name already set stays, so a wrapper or replacement installed before
    the first command is the one the handlers call.
    """
    for module in _GROUP_MODULES[group]:
        for name in _NAMES[module]:
            if name not in globals():
                __getattr__(name)


def _is_array(value) -> bool:
    # no array exists before numpy is imported, so this never imports it
    np = sys.modules.get("numpy")
    return np is not None and isinstance(value, np.ndarray)


CYCLICITY_TOL = 1e-9
INTERTWINER_TOL = 1e-10


# ----------------------------------------------------------------------
# parsing helpers


def _int_list(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part.strip()]


def _float_list(text: str) -> list[float]:
    return [float(part) for part in text.split(",") if part.strip()]


def _finite_float(text: str) -> float:
    value = float(text)  # argparse reports the ValueError of a non-number
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _json_arg(text: str):
    return json.loads(text)


def _pair_slots(obj) -> list:
    """What rep_from_json reads as pair lists in a decoded file: coefficients, g, f, matrix entries."""
    if not isinstance(obj, dict):
        return []
    rep = obj if "kind" in obj else obj.get("result")
    if not isinstance(rep, dict):
        return []
    coefficients = rep.get("coefficients")
    slots = [coefficients]
    if isinstance(coefficients, dict):
        slots += [coefficients.get("g"), coefficients.get("f")]
    matrices = rep.get("matrices")
    if isinstance(matrices, dict):
        slots += [mat.get("entries") for mat in map(matrices.get, ("K", "Ep", "Em")) if isinstance(mat, dict)]
    return slots


def _decode_rep_text(text: str):
    """json.loads(text), with the canonical pair lists of a representation as (m, 2) arrays.

    An array whose first element is an array is read by _PairText, which
    certifies it by re-encoding and says where it ends; every other array is
    json's.  If a list is not canonical (pretty-printed, NaN, integers,
    ragged, ...) or an array lands where rep_from_json does not read pairs,
    the whole document is decoded again by json.loads, so the values and
    errors of every other file are json's own.
    """
    lists = _PairText(text)
    certified = 0

    def parse_array(s_and_end, scan_once):
        nonlocal certified
        s, end = s_and_end
        if not s.startswith("[", json.decoder.WHITESPACE.match(s, end).end()):
            return json.decoder.JSONArray(s_and_end, scan_once)
        certified += 1
        return lists.read(end - 1)

    decoder = json.JSONDecoder()
    decoder.parse_array = parse_array
    decoder.scan_once = json.scanner.py_make_scanner(decoder)
    try:
        obj = decoder.decode(text)
    except (ValueError, RecursionError):
        return json.loads(text)
    finally:
        # the scanner refers to itself, so the text's scan would stay in
        # that reference cycle until a collector pass; release it now
        del lists
    if sum(map(_is_array, _pair_slots(obj))) != certified:
        return json.loads(text)
    return obj


def _load_rep(path: str):
    """The representation in a file holding a bare representation object or a CLI report envelope."""
    with open(path, "r", encoding="utf-8") as fh:
        obj = _decode_rep_text(fh.read())
    if not isinstance(obj, dict):
        raise ValueError(f"file holds a JSON {type(obj).__name__}, not a representation object")
    if "kind" in obj:
        return rep_from_json(obj)
    if "result" in obj and isinstance(obj["result"], dict) and "kind" in obj["result"]:
        return rep_from_json(obj["result"])
    raise ValueError("file does not contain a serialized representation")


def _root_from_args(args) -> PrimitiveRoot:
    return PrimitiveRoot(args.p, args.k)


# ----------------------------------------------------------------------
# output


class _NonFiniteReport(Exception):
    """A JSON report holds inf or nan; it is refused before anything is written."""


def _use_color() -> bool:
    toggle = os.environ.get("HALLREP_COLOR")
    if toggle is not None:
        return toggle not in ("0", "false", "no")
    return sys.stdout.isatty()


def _flatten(value, prefix=""):
    if _is_array(value):
        value = complex_to_pairs(value)
    rows = []
    if isinstance(value, dict):
        for key, sub in value.items():
            rows.extend(_flatten(sub, f"{prefix}{key}." if prefix else f"{key}."))
    elif isinstance(value, (list, tuple)) and len(str(value)) > 60:
        rows.append((prefix.rstrip("."), f"[{len(value)} items]"))
    else:
        rows.append((prefix.rstrip("."), value))
    return rows


def _json_chunks(value):
    """The text of json.dumps(value, allow_nan=False) in pieces; arrays are [re, im] pair lists.

    Objects keep their insertion order and need string keys; an array goes
    to _pairs_text.  Joining the pieces once copies a rep's megabytes of
    pair text once.  A non-finite number raises ValueError.
    """
    if isinstance(value, dict):
        yield "{"
        for i, (key, sub) in enumerate(value.items()):
            if not isinstance(key, str):
                raise TypeError(f"report keys must be strings, got {key!r}")
            yield f"{', ' if i else ''}{json.dumps(key)}: "
            yield from _json_chunks(sub)
        yield "}"
    elif _is_array(value):
        yield _pairs_text(value)
    else:
        # a report is a fresh tree of dicts, lists and scalars: it holds no cycle
        yield json.dumps(value, allow_nan=False, check_circular=False)


def _emit(args, envelope: dict, csv_text: str | None, passed: bool | None) -> None:
    fmt = getattr(args, "format", "json")
    if fmt == "json":
        try:
            text = "".join(_json_chunks(envelope)) + "\n"
        except ValueError as exc:  # inf and nan are refused
            raise _NonFiniteReport from exc
    elif fmt == "csv":
        if csv_text is None:
            lines = ["key,value"]
            lines += [f"{k},{v}" for k, v in _flatten(envelope["result"])]
            csv_text = "\n".join(lines) + "\n"
        text = csv_text
    else:  # table
        lines = [f"hallrep {envelope['command']} (v{__version__})"]
        for key, value in _flatten(envelope["result"]):
            lines.append(f"  {key:<36} {value}")
        if passed is not None:
            verdict = "PASS" if passed else "FAIL"
            if _use_color():
                color = "32" if passed else "31"
                verdict = f"\x1b[{color}m{verdict}\x1b[0m"
            lines.append(f"  {'verdict':<36} {verdict}")
        text = "\n".join(lines) + "\n"
    output = getattr(args, "output", None)
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _envelope(args, result) -> dict:
    config = {
        key: value
        for key, value in sorted(vars(args).items())
        if key not in ("handler", "command_path") and not key.startswith("_")
    }
    return {
        "tool": {"name": "hallrep", "version": __version__},
        "command": args.command_path,
        "config": config,
        "result": result,
    }


# ----------------------------------------------------------------------
# rep / ladder handlers


def _cmd_rep_solve(args):
    root = _root_from_args(args)
    lam = cmath.exp(1j * args.lam_phase)
    rep = solve_generic_coefficients(root, lam, args.base, args.phases)
    return rep._json_tree(), None, None


def _cmd_rep_build(args):
    import numpy as np

    stored = _load_rep(args.infile)
    rebuilt = stored.rebuild()
    # np.max keeps a nan deviation, which Python's max would drop; _emit then refuses the report
    deviation = float(np.max([
        np.linalg.norm(getattr(stored, name) - getattr(rebuilt, name))
        for name in ("k_mat", "e_plus", "e_minus")
    ]))
    result = rebuilt._json_tree()
    result["max_deviation_from_stored"] = deviation
    return result, None, None


def _verify(rep, tol):
    report = verify_relations(rep.k_mat, rep.e_plus, rep.e_minus, rep.root, tol)
    result = report.to_json()
    if not report.passed:
        result["failures"] = report.failing()
    return result, report.passed, None


def _cmd_rep_verify(args):
    return _verify(_load_rep(args.infile), args.tol)


def _cmd_rep_intertwine(args):
    res = intertwiner(_load_rep(args.infile), args.s)
    result = {
        "sigma": list(res.sigma),
        "lambda": complex_to_pairs(res.lam)[0],
        "residual": res.residual,
        "tolerance": args.tol,
    }
    return result, res.residual <= args.tol, None


def _ladder_rep_from_args(args):
    if getattr(args, "infile", None):
        rep = _load_rep(args.infile)
        if rep.kind != "ladder":
            raise ValueError("expected a ladder-form representation file")
        return rep
    return build_ladder(_root_from_args(args), base=args.base, phases=args.phases)


def _cmd_ladder_magnitudes(args):
    solution = solve_ladder_magnitudes(_root_from_args(args), args.base)
    result = {
        "p": solution.root.p,
        "k": solution.root.k,
        "base": solution.base,
        "infimum_base": solution.infimum_base,
        "magnitudes": list(solution.magnitudes),
    }
    csv_text = "i,squared_magnitude\n" + "".join(
        f"{i + 1},{m!r}\n" for i, m in enumerate(solution.magnitudes)
    )
    return result, None, csv_text


def _cmd_ladder_build(args):
    rep = build_ladder(_root_from_args(args), base=args.base, phases=args.phases)
    return rep._json_tree(), None, None


def _cmd_ladder_verify(args):
    return _verify(_ladder_rep_from_args(args), args.tol)


def _cmd_ladder_cyclicity(args):
    rep = _ladder_rep_from_args(args)
    report = cyclicity_check(rep)
    passed = (
        report.is_cyclic
        and report.raising_residual <= args.tol
        and report.lowering_residual <= args.tol
    )
    result = {
        "is_cyclic": report.is_cyclic,
        "epow_scalar": complex_to_pairs(report.epow_scalar)[0],
        "raising_residual": report.raising_residual,
        "lowering_residual": report.lowering_residual,
        "tolerance": args.tol,
    }
    return result, passed, None


# ----------------------------------------------------------------------
# ff handlers


def _rational_text(name: str, num: int, den: int) -> str:
    """num/den as text, or num when den is 1, as str gives it for a Fraction or FillingFactor.

    A part past sys.get_int_max_str_digits(), which guards a quadratic
    conversion, is an OverflowError that gives the longer part's digit count.
    """
    try:
        return str(num) if den == 1 else f"{num}/{den}"
    except ValueError:
        part, size = ("numerator", abs(num)) if abs(num) > den else ("denominator", den)
        digits, limit = _decimal_digits(size), sys.get_int_max_str_digits()
        raise OverflowError(f"{name} has a {digits}-digit {part}, past Python's {limit}-digit integer text limit") from None


def _cmd_ff_eval(args):
    cls, evaluate = (StandardCF, eval_standard_cf) if args.form == "standard" else (PositiveCF, eval_positive_cf)
    nu = evaluate(cls(tuple(args.coeffs)))
    return {"nu": _rational_text("nu", nu.num, nu.den), "num": nu.num, "den": nu.den}, None, None


def _cmd_ff_decompose(args):
    nu = FillingFactor.parse(args.nu)
    cf = decompose(nu, args.form)
    return {"nu": str(nu), "form": args.form, "coefficients": list(cf.coefficients)}, None, None


def _cmd_ff_family(args):
    members = family(args.p)
    result = {
        "p": args.p,
        "family": [str(nu) for nu in members],
        "partition_sum": str(family_partition_sum(args.p)),
    }
    csv_text = "i,nu\n" + "".join(f"{i + 1},{nu}\n" for i, nu in enumerate(members))
    return result, None, csv_text


def _cmd_ff_blokwen(args):
    seq = blok_wen_sequence(PositiveCF(tuple(args.coeffs)))
    return {
        "thetas": [_rational_text(f"theta_{r}", t.numerator, t.denominator) for r, t in enumerate(seq.thetas)],
        "qs": [_rational_text(f"q_{r}", q.numerator, q.denominator) for r, q in enumerate(seq.qs)],
    }, None, None


def _cmd_ff_index(args):
    i, p = basis_index(FillingFactor.parse(args.nu), args.family_p)
    return {"i": i, "p": p}, None, None


# ----------------------------------------------------------------------
# wf handlers


def _cmd_wf_eval(args):
    value = _value_at(spec_from_json(args.spec), complex_from_pairs(args.config))
    return {"value": complex_to_pairs(value)[0]}, None, None


def _cmd_wf_inner(args):
    spec_a = spec_from_json(args.spec_a)
    spec_b = spec_from_json(args.spec_b)
    if args.method == "exact":
        res = inner_product_exact(spec_a, spec_b)
    else:
        res = inner_product_mc(spec_a, spec_b, args.samples, args.seed, workers=args.workers)
    return res.to_json(), None, None


def _cmd_wf_gram(args):
    if not isinstance(args.specs, list):
        raise ValueError(f"--specs must be a JSON array of wavefunction specs, got {type(args.specs).__name__}")
    specs = [spec_from_json(obj) for obj in args.specs]
    gram = gram_matrix(
        specs,
        args.method,
        samples=args.samples,
        seed=args.seed,
        normalize=args.normalize,
        workers=args.workers,
    )
    return gram.to_json(), None, gram.to_csv()


# ----------------------------------------------------------------------
# parser


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format", choices=("json", "csv", "table"), default="json",
        help="output format",
    )
    parser.add_argument("-o", "--output", default=None, help="write the report to a file")


def _add_root_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--p", type=int, required=True, help="representation size parameter; dimension is 2p+1")
    parser.add_argument("--k", type=int, default=1, help="primitive-root label, coprime to 2p+1")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hallrep",
        description=__doc__,
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=f"hallrep {__version__}")
    groups = parser.add_subparsers(dest="group")

    def sub(group_parser, name, handler, help_text):
        cmd = group_parser.add_parser(
            name, help=help_text, formatter_class=argparse.ArgumentDefaultsHelpFormatter
        )
        cmd.set_defaults(handler=handler)
        _add_common(cmd)
        return cmd

    # rep
    rep = groups.add_parser("rep", help="generic weight-basis representations")
    rep_sub = rep.add_subparsers(dest="action")
    cmd = sub(rep_sub, "solve", _cmd_rep_solve, "solve the unitary closure chain for given lambda")
    _add_root_flags(cmd)
    cmd.add_argument("--lam-phase", type=float, default=0.0, help="arg(lambda) in radians; lambda = exp(i*phase)")
    cmd.add_argument("--base", type=float, default=None, help="free base |g_0|^2 (default: infimum + 1)")
    cmd.add_argument("--phases", type=_float_list, default=None, help="comma-separated coefficient phases")
    cmd = sub(rep_sub, "build", _cmd_rep_build, "re-realize matrices from a serialized representation")
    cmd.add_argument("--in", dest="infile", required=True, help="representation JSON file")
    cmd = sub(rep_sub, "verify", _cmd_rep_verify, "verify the defining relations of a stored representation")
    cmd.add_argument("--in", dest="infile", required=True, help="representation JSON file")
    cmd.add_argument("--tol", type=_finite_float, default=None, help="Frobenius tolerance (default: 1e-10 * dim)")
    cmd = sub(rep_sub, "intertwine", _cmd_rep_intertwine, "relabel a ladder rep into weight-basis form")
    cmd.add_argument("--in", dest="infile", required=True, help="ladder representation JSON file")
    cmd.add_argument("--s", type=int, required=True, help="integer exponent; lambda = q^s")
    cmd.add_argument("--tol", type=_finite_float, default=INTERTWINER_TOL, help="residual tolerance")

    # ladder
    ladder = groups.add_parser("ladder", help="ladder-form representations")
    ladder_sub = ladder.add_subparsers(dest="action")
    cmd = sub(ladder_sub, "magnitudes", _cmd_ladder_magnitudes, "solve the squared-magnitude chain")
    _add_root_flags(cmd)
    cmd.add_argument("--base", type=float, default=None, help="free base |a_{2p+1}|^2 (default: infimum + 1)")
    cmd = sub(ladder_sub, "build", _cmd_ladder_build, "realize the ladder matrices")
    _add_root_flags(cmd)
    cmd.add_argument("--base", type=float, default=None, help="free base |a_{2p+1}|^2 (default: infimum + 1)")
    cmd.add_argument("--phases", type=_float_list, default=None, help="comma-separated coefficient phases")
    for name, handler, tol_default, help_text in (
        ("verify", _cmd_ladder_verify, None, "verify the defining relations"),
        ("cyclicity", _cmd_ladder_cyclicity, CYCLICITY_TOL, "check that no state is annihilated"),
    ):
        cmd = sub(ladder_sub, name, handler, help_text)
        cmd.add_argument("--in", dest="infile", default=None, help="representation JSON file (else build from flags)")
        cmd.add_argument("--p", type=int, default=1, help="used when --in is absent")
        cmd.add_argument("--k", type=int, default=1, help="used when --in is absent")
        cmd.add_argument("--base", type=float, default=None, help="used when --in is absent")
        cmd.add_argument("--phases", type=_float_list, default=None, help="used when --in is absent")
        if tol_default is None:
            cmd.add_argument("--tol", type=_finite_float, default=None, help="Frobenius tolerance (default: 1e-10 * dim)")
        else:
            cmd.add_argument("--tol", type=_finite_float, default=tol_default, help="residual tolerance")

    # ff
    ff = groups.add_parser("ff", help="filling-factor continued fractions")
    ff_sub = ff.add_subparsers(dest="action")
    cmd = sub(ff_sub, "eval", _cmd_ff_eval, "evaluate a coefficient list to a filling factor")
    cmd.add_argument("--form", choices=("standard", "positive"), default="standard", help="continued-fraction form")
    cmd.add_argument("--coeffs", type=_int_list, required=True, help="comma-separated coefficients, e.g. 3,2")
    cmd = sub(ff_sub, "decompose", _cmd_ff_decompose, "find coefficients for a filling factor")
    cmd.add_argument("--nu", required=True, help="filling factor as P/Q")
    cmd.add_argument("--form", choices=("standard", "positive"), default="standard", help="continued-fraction form")
    cmd = sub(ff_sub, "family", _cmd_ff_family, "list the 2p+1 family members and the partition sum")
    cmd.add_argument("--p", type=int, required=True, help="family parameter")
    cmd = sub(ff_sub, "blokwen", _cmd_ff_blokwen, "auxiliary theta/q sequences of a positive-form CF")
    cmd.add_argument("--coeffs", type=_int_list, required=True, help="comma-separated positive-form coefficients")
    cmd = sub(ff_sub, "index", _cmd_ff_index, "basis address (i, p) of a filling factor")
    cmd.add_argument("--nu", required=True, help="filling factor as P/Q")
    cmd.add_argument("--family-p", type=int, default=None, help="family parameter (required for nu = 1)")

    # wf
    wf = groups.add_parser("wf", help="trial wavefunctions and inner products")
    wf_sub = wf.add_subparsers(dest="action")
    cmd = sub(wf_sub, "eval", _cmd_wf_eval, "evaluate a wavefunction at one configuration")
    cmd.add_argument("--spec", type=_json_arg, required=True, help='wavefunction spec JSON, e.g. {"variant":"laughlin","m":3,"n_electrons":2}')
    cmd.add_argument("--config", type=_json_arg, required=True, help="coordinates as JSON [[re,im],...]")
    cmd = sub(wf_sub, "inner", _cmd_wf_inner, "scalar product of two wavefunctions")
    cmd.add_argument("--spec-a", type=_json_arg, required=True, help="first spec JSON")
    cmd.add_argument("--spec-b", type=_json_arg, required=True, help="second spec JSON")
    cmd.add_argument("--method", choices=("exact", "mc"), default="exact", help="integration method")
    cmd.add_argument("--samples", type=int, default=100_000, help="Monte Carlo samples")
    cmd.add_argument("--seed", type=int, default=0, help="stream seed")
    cmd.add_argument("--workers", type=int, default=1, help="worker threads; must not affect outputs")
    cmd = sub(wf_sub, "gram", _cmd_wf_gram, "Hermitian matrix of pairwise inner products")
    cmd.add_argument("--specs", type=_json_arg, required=True, help="JSON array of wavefunction specs")
    cmd.add_argument("--method", choices=("exact", "mc"), default="exact", help="integration method")
    cmd.add_argument("--samples", type=int, default=100_000, help="Monte Carlo samples")
    cmd.add_argument("--seed", type=int, default=0, help="stream seed")
    cmd.add_argument("--workers", type=int, default=1, help="worker threads; must not affect outputs")
    cmd.add_argument("--normalize", action="store_true", help="rescale so the diagonal is exactly 1")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of this process, built by the first command; parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    # Reading a rep file that is not in the CLI's own text decodes ~3n^2
    # [re, im] lists, none of them in a cycle; collector passes over them
    # would only cost time, and refcounting frees them all.  Writing one, or
    # reading the CLI's own text, builds no such lists.
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        return _run(argv)
    finally:
        if was_enabled:
            gc.enable()


def _run(argv) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed its message
        return int(exc.code) if exc.code else 0
    if not hasattr(args, "handler"):
        parser.print_usage(sys.stderr)
        return 2
    args.command_path = " ".join(part for part in (args.group, getattr(args, "action", None)) if part)
    _bind(args.group)
    try:
        result, passed, csv_text = args.handler(args)
    except (DecompositionError, ArithmeticError, MemoryError) as exc:  # no expansion, a value too long to write, a refused allocation, or a failed cross-check
        print(f"failure: {exc}", file=sys.stderr)
        return 1
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        if "cyclic" in _GROUP_MODULES[args.group] and isinstance(exc, InfeasibleBaseError):
            print(f"error: --base {exc.base} is infeasible; the infimum is {exc.infimum_base}", file=sys.stderr)
        else:
            print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        _emit(args, _envelope(args, result), csv_text, passed)
    except _NonFiniteReport:
        print("failure: a non-finite number (inf or nan) reached the report; nothing was written", file=sys.stderr)
        return 1
    if passed is False:
        failing = result.get("failures") if isinstance(result, dict) else None
        detail = "; ".join(failing) if failing else "see the residuals in the report"
        print(f"verification failed: {detail}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
