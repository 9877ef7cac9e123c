"""Spans around calls into hallrep's modules, recorded from outside the package.

The tracer replaces public functions at the module attributes their callers
look up (hallrep's own modules and the names cli imports) with wrappers that
record a span: name, start, end, parent span and op id, plus counts taken at
the boundary.  Spans stay in memory until the run ends.  A span's self time
is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import os
from time import perf_counter

from hallrep import algebra, cli, cyclic, hierarchy, sampling, wavefunctions

from workloads import DeadlineExceeded

BYTES_PER_COORD = 32  # two float64 uniforms in, one complex128 point out


def _gaussian_block(args, result, exc):
    coords = args["count"] * args["n_coords"]
    return {"coords": coords, "bytes_computed": coords * BYTES_PER_COORD}


def _gram_matrix(args, result, exc):
    return {"samples": args["samples"] if args["method"] == "mc" else 0}


def _jastrow_monomials(args, result, exc):
    return {"terms": len(result) if result is not None else 0, "key": (args["m"], args["n"])}


def _decompose(args, result, exc):
    return {
        "terms": len(result.coefficients) if result is not None else 0,
        "deadline_miss": int(isinstance(exc, DeadlineExceeded)),
        "positive_miss": int(isinstance(exc, hierarchy.DecompositionError) and args["form"] == "positive"),
    }


def _verify_relations(args, result, exc):
    # 7 dense complex matmuls plus one inverse (~8/3 n^3 multiply-adds), 8 flops each
    dim = len(args["k_mat"])
    return {"flops_computed": int(8 * (7 + 8 / 3) * dim**3)}


def _cyclicity_check(args, result, exc):
    finite = result is not None and math.isfinite(result.raising_residual) and math.isfinite(result.lowering_residual)
    return {"nonfinite": int(result is not None and not finite)}


def _cli_main(args, result, exc):
    argv = list(args["argv"] or [])
    written = 0
    for flag in ("-o", "--output"):
        if flag in argv:
            path = argv[argv.index(flag) + 1]
            written = os.path.getsize(path) if os.path.exists(path) else 0
    return {"bytes_written": written, "exit_nonzero": int(exc is not None or result != 0)}


# (span name, owners whose attribute is replaced, attribute, counts taken at the boundary)
TARGETS = (
    ("sampling.gaussian_block", (sampling,), "gaussian_block", _gaussian_block),
    ("wavefunctions.gram_matrix", (wavefunctions, cli), "gram_matrix", _gram_matrix),
    ("wavefunctions.jastrow_monomials", (wavefunctions,), "jastrow_monomials", _jastrow_monomials),
    ("wavefunctions.inner_product_exact", (wavefunctions, cli), "inner_product_exact", None),
    ("hierarchy.decompose", (hierarchy, cli), "decompose", _decompose),
    ("algebra.verify_relations", (algebra, cli), "verify_relations", _verify_relations),
    ("cyclic.build_ladder", (cyclic, cli), "build_ladder", None),
    ("cyclic.cyclicity_check", (cyclic, cli), "cyclicity_check", _cyclicity_check),
    ("cyclic.intertwiner", (cyclic, cli), "intertwiner", None),
    ("cyclic.to_json", (cyclic.LadderRep,), "to_json", None),
    ("cyclic.rep_from_json", (cyclic, cli), "rep_from_json", None),
    ("cli.main", (cli,), "main", _cli_main),
)


def layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("bytes_computed", "bytes_written")):
        return "B"
    if name.endswith("flops_computed"):
        return "flop"
    if name.endswith("ratio"):
        return "ratio"
    return "count"


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.op_id: int | None = None
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def begin_op(self, op_id: int) -> None:
        self.op_id = op_id
        self._stack.clear()

    def _wrap(self, name, fn, counts):
        signature = inspect.signature(fn)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else None
            span = {"name": name, "start": perf_counter(), "end": None, "parent": parent, "op": tracer.op_id}
            tracer.spans.append(span)
            tracer._stack.append(index)
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as caught:
                exc = caught
                raise
            finally:
                span["end"] = perf_counter()
                if tracer._stack and tracer._stack[-1] == index:
                    tracer._stack.pop()
                if exc is not None:
                    span["error"] = type(exc).__name__
                if counts is not None:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    span.update(counts(bound.arguments, result, exc))

        return traced

    def install(self) -> None:
        for name, owners, attr, counts in TARGETS:
            original = getattr(owners[0], attr)
            wrapper = self._wrap(name, original, counts)
            for owner in owners:
                self._undo.append((owner, attr, getattr(owner, attr)))
                setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def self_times(self) -> list[float]:
        out = [s["end"] - s["start"] for s in self.spans]
        for s in self.spans:
            if s["parent"] is not None:
                out[s["parent"]] -= s["end"] - s["start"]
        return out

    def layer_metrics(self, ops: int) -> dict[str, float]:
        """Per-op self times and counts for every per-layer metric."""
        self_s = self.self_times()
        by_name: dict[str, list[int]] = {name: [] for name, *_ in TARGETS}
        for i, s in enumerate(self.spans):
            by_name[s["name"]].append(i)

        def total(name, key=None):
            idx = by_name[name]
            return sum(self_s[i] for i in idx) if key is None else sum(self.spans[i].get(key, 0) for i in idx)

        def rate(amount, seconds):
            return amount / seconds if seconds > 0 else 0.0

        jastrow_keys: dict[int | None, set] = {}
        for i in by_name["wavefunctions.jastrow_monomials"]:
            jastrow_keys.setdefault(self.spans[i]["op"], set()).add(self.spans[i]["key"])
        jastrow_calls = len(by_name["wavefunctions.jastrow_monomials"])
        distinct = sum(len(keys) for keys in jastrow_keys.values())

        per_op = {
            "sampling.gaussian_block.calls": len(by_name["sampling.gaussian_block"]),
            "sampling.gaussian_block.self_s": total("sampling.gaussian_block"),
            "sampling.gaussian_block.bytes_computed": total("sampling.gaussian_block", "bytes_computed"),
            "wavefunctions.gram_matrix.self_s": total("wavefunctions.gram_matrix"),
            "wavefunctions.jastrow_monomials.calls": jastrow_calls,
            "wavefunctions.jastrow_monomials.self_s": total("wavefunctions.jastrow_monomials"),
            "wavefunctions.jastrow_monomials.terms": total("wavefunctions.jastrow_monomials", "terms"),
            "wavefunctions.inner_product_exact.self_s": total("wavefunctions.inner_product_exact"),
            "hierarchy.decompose.calls": len(by_name["hierarchy.decompose"]),
            "hierarchy.decompose.self_s": total("hierarchy.decompose"),
            "hierarchy.decompose.terms": total("hierarchy.decompose", "terms"),
            "hierarchy.decompose.deadline_misses": total("hierarchy.decompose", "deadline_miss"),
            "hierarchy.decompose.positive_misses": total("hierarchy.decompose", "positive_miss"),
            "algebra.verify_relations.self_s": total("algebra.verify_relations"),
            "algebra.verify_relations.flops_computed": total("algebra.verify_relations", "flops_computed"),
            "cyclic.build_ladder.self_s": total("cyclic.build_ladder"),
            "cyclic.cyclicity_check.self_s": total("cyclic.cyclicity_check"),
            "cyclic.cyclicity_check.nonfinite": total("cyclic.cyclicity_check", "nonfinite"),
            "cyclic.intertwiner.self_s": total("cyclic.intertwiner"),
            "cyclic.to_json.self_s": total("cyclic.to_json"),
            "cyclic.rep_from_json.self_s": total("cyclic.rep_from_json"),
            "cli.main.calls": len(by_name["cli.main"]),
            "cli.main.self_s": total("cli.main"),
            "cli.main.bytes_written": total("cli.main", "bytes_written"),
            "cli.main.exit_nonzero": total("cli.main", "exit_nonzero"),
        }
        out = {name: value / ops for name, value in per_op.items()}
        # throughputs and ratios are not per op
        out["sampling.gaussian_block.coords_per_s"] = rate(
            total("sampling.gaussian_block", "coords"), total("sampling.gaussian_block")
        )
        out["wavefunctions.gram_matrix.samples_per_s"] = rate(
            total("wavefunctions.gram_matrix", "samples"), total("wavefunctions.gram_matrix")
        )
        out["wavefunctions.jastrow_monomials.distinct_ratio"] = distinct / jastrow_calls if jastrow_calls else 0.0
        return out

    def dump(self, path: str) -> None:
        self_s = self.self_times()
        with open(path, "w", encoding="utf-8") as fh:
            for span, own in zip(self.spans, self_s):
                row = {k: v for k, v in span.items() if k != "key"}
                row["self_s"] = own
                fh.write(json.dumps(row) + "\n")
