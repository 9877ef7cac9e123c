import cmath
import gc
import json
import math
import warnings

import numpy as np
import pytest

from hallrep import cli
from hallrep.algebra import PrimitiveRoot
from hallrep.cli import main
from hallrep.cyclic import build_ladder, rep_from_json, solve_generic_coefficients


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def test_ladder_magnitudes_spot_value(capsys):
    report = run_json(capsys, "ladder", "magnitudes", "--p", "1", "--base", "2")
    assert report["result"]["magnitudes"] == [2.0, 1.0, 2.0]
    assert report["result"]["infimum_base"] == pytest.approx(1.0)
    assert report["tool"]["name"] == "hallrep"
    assert report["config"]["p"] == 1 and report["config"]["base"] == 2.0


def test_ff_family(capsys):
    report = run_json(capsys, "ff", "family", "--p", "2")
    assert report["result"]["family"] == ["1/5", "2/5", "3/5", "4/5", "1"]
    assert report["result"]["partition_sum"] == "1"


def test_ff_eval_and_decompose_roundtrip(capsys):
    report = run_json(capsys, "ff", "eval", "--form", "standard", "--coeffs", "3,2")
    assert report["result"]["nu"] == "2/5"
    report = run_json(capsys, "ff", "decompose", "--nu", "2/5", "--form", "standard")
    assert report["result"]["coefficients"] == [3, 2]
    report = run_json(capsys, "ff", "decompose", "--nu", "2/3", "--form", "positive")
    assert report["result"]["coefficients"] == [1, 2]


def test_ff_decompose_failure_exits_one(capsys):
    code, out, err = run(capsys, "ff", "decompose", "--nu", "3/5", "--form", "positive")
    assert code == 1
    assert "3/5" in err


def test_ff_decompose_past_depth_bound_exits_one(capsys):
    code, out, err = run(capsys, "ff", "decompose", "--nu", "66/133")
    assert code == 1
    assert err.startswith("failure:") and "66/133" in err


def test_ff_zero_denominator_is_usage_error(capsys):
    for verb in ("decompose", "index"):
        code, out, err = run(capsys, "ff", verb, "--nu", "1/0")
        assert code == 2
        assert err.startswith("error:") and "zero denominator" in err


def test_ff_blokwen(capsys):
    report = run_json(capsys, "ff", "blokwen", "--coeffs", "1,2")
    assert report["result"]["thetas"] == ["0", "-1"]
    assert report["result"]["qs"] == ["-1", "1"]


def test_ff_index(capsys):
    report = run_json(capsys, "ff", "index", "--nu", "2/5")
    assert report["result"] == {"i": 2, "p": 2}
    report = run_json(capsys, "ff", "index", "--nu", "1", "--family-p", "3")
    assert report["result"] == {"i": 7, "p": 3}
    code, _, err = run(capsys, "ff", "index", "--nu", "1")
    assert code == 2 and "family" in err


def test_ladder_build_verify_roundtrip(tmp_path, capsys):
    rep_file = tmp_path / "rep.json"
    code, out, err = run(
        capsys, "ladder", "build", "--p", "2", "--k", "2", "-o", str(rep_file)
    )
    assert code == 0
    stored = json.loads(rep_file.read_text())
    rep = rep_from_json(stored["result"])  # report envelopes deserialize too
    assert rep.p == 2

    code, out, err = run(capsys, "rep", "verify", "--in", str(rep_file))
    assert code == 0
    report = json.loads(out)
    assert report["result"]["pass"] is True
    assert report["result"]["detected_conjugation_sign"] == -2


def test_rep_verify_corrupted_file_exits_one(tmp_path, capsys):
    rep_file = tmp_path / "rep.json"
    run(capsys, "ladder", "build", "--p", "1", "-o", str(rep_file))
    payload = json.loads(rep_file.read_text())
    payload["result"]["matrices"]["Ep"]["entries"][1] = [5.0, 0.0]
    rep_file.write_text(json.dumps(payload))

    code, out, err = run(capsys, "rep", "verify", "--in", str(rep_file))
    assert code == 1
    report = json.loads(out)
    assert report["result"]["pass"] is False
    assert float(report["result"]["commutator_residual"]) > 1e-10
    assert "residual" in err


def test_rep_solve_and_intertwine(tmp_path, capsys):
    report = run_json(capsys, "rep", "solve", "--p", "1", "--lam-phase", "0.0")
    assert report["result"]["kind"] == "generic"
    assert report["result"]["lambda"] == [1.0, 0.0]

    rep_file = tmp_path / "ladder.json"
    run(capsys, "ladder", "build", "--p", "1", "--base", "2", "-o", str(rep_file))
    code, out, _ = run(capsys, "rep", "intertwine", "--in", str(rep_file), "--s", "3")
    assert code == 0
    assert json.loads(out)["result"]["sigma"] == [3, 1, 2]


def test_rep_build_rebuilds_matrices(tmp_path, capsys):
    rep_file = tmp_path / "rep.json"
    run(capsys, "ladder", "build", "--p", "1", "-o", str(rep_file))
    code, out, _ = run(capsys, "rep", "build", "--in", str(rep_file))
    assert code == 0
    assert json.loads(out)["result"]["max_deviation_from_stored"] == 0.0


def test_ladder_cyclicity(capsys):
    report = run_json(capsys, "ladder", "cyclicity", "--p", "1", "--base", "2")
    assert report["result"]["is_cyclic"] is True
    assert report["result"]["epow_scalar"][0] == pytest.approx(2.0, abs=1e-12)


def test_large_ladder_report_is_one_compact_line(tmp_path, capsys):
    rep_file = tmp_path / "rep.json"
    code, out, err = run(capsys, "ladder", "build", "--p", "198", "--k", "120", "-o", str(rep_file))
    assert code == 0, err
    assert out == ""
    text = rep_file.read_text()
    assert text.count("\n") == 1 and text.endswith("\n")
    assert rep_file.stat().st_size < 7_000_000
    assert json.loads(text)["result"] == build_ladder(PrimitiveRoot(198, 120)).to_json()
    assert run_json(capsys, "rep", "verify", "--in", str(rep_file))["result"]["pass"] is True
    assert run_json(capsys, "ladder", "cyclicity", "--in", str(rep_file))["result"]["is_cyclic"] is True


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_non_finite_report_is_not_written(tmp_path, capsys):
    out_file = tmp_path / "cyclicity.json"
    code, out, err = run(capsys, "ladder", "cyclicity", "--p", "150", "--k", "1", "-o", str(out_file))
    assert code == 1
    assert not out_file.exists()
    assert err.startswith("failure:") and "non-finite" in err
    code, out, err = run(capsys, "ladder", "cyclicity", "--p", "150", "--k", "1")
    assert code == 1 and out == ""


def test_overflowing_cyclicity_warns_from_at_most_four_sites(capsys):
    # the coefficient product and E+^(2p+1) overflow at p = 150, k = 1; numpy
    # prints each warning once per site, four of them on the dense path
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RuntimeWarning)
        code, out, err = run(capsys, "ladder", "cyclicity", "--p", "150", "--k", "1")
    assert code == 1 and out == "" and err.startswith("failure:")
    sites = {(str(w.message), w.filename, w.lineno) for w in caught if issubclass(w.category, RuntimeWarning)}
    assert len(sites) <= 4


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_ladder_cyclicity_p86_k1_passes(capsys):
    report = run_json(capsys, "ladder", "cyclicity", "--p", "86", "--k", "1")
    assert report["result"]["is_cyclic"] is True
    assert report["result"]["raising_residual"] < 1e-12


def test_infeasible_base_is_usage_error(capsys):
    code, _, err = run(capsys, "ladder", "magnitudes", "--p", "1", "--base", "0.5")
    assert code == 2
    assert "--base" in err and "infimum" in err


def test_unknown_flag_exits_two(capsys):
    code, _, _ = run(capsys, "ladder", "magnitudes", "--p", "1", "--bogus", "3")
    assert code == 2
    code, _, _ = run(capsys, "ff", "eval", "--form", "weird", "--coeffs", "3")
    assert code == 2


def test_wf_inner_exact(capsys):
    spec = json.dumps({"variant": "laughlin", "m": 1, "n_electrons": 2})
    report = run_json(capsys, "wf", "inner", "--spec-a", spec, "--spec-b", spec)
    assert report["result"]["re"] == pytest.approx(2 * math.pi**2, rel=1e-12)
    assert report["result"]["exact_coefficient"] == 2


def test_wf_inner_mc_deterministic_and_worker_independent(capsys):
    spec = json.dumps({"variant": "laughlin", "m": 1, "n_electrons": 2})
    args = ["wf", "inner", "--spec-a", spec, "--spec-b", spec,
            "--method", "mc", "--samples", "20000", "--seed", "3"]
    first = run_json(capsys, *args)
    second = run_json(capsys, *args)
    assert first["result"] == second["result"]
    threaded = run_json(capsys, *args, "--workers", "4")
    assert threaded["result"]["re"] == first["result"]["re"]
    assert threaded["result"]["stderr"] == first["result"]["stderr"]


def test_wf_eval_laughlin_and_hierarchy(capsys):
    spec = json.dumps({"variant": "laughlin", "m": 1, "n_electrons": 2})
    config = json.dumps([[1.0, 0.0], [0.0, 0.0]])
    report = run_json(capsys, "wf", "eval", "--spec", spec, "--config", config)
    assert report["result"]["value"][0] == pytest.approx(math.exp(-0.5))

    spec = json.dumps({"variant": "hierarchy_r1", "a0": 3, "a1": 2, "b": 1, "n_electrons": 2})
    report = run_json(capsys, "wf", "eval", "--spec", spec, "--config", config, "--quad-order", "16")
    assert report["result"]["value"] != [0.0, 0.0]


def test_wf_gram_csv_format(capsys):
    specs = json.dumps([
        {"variant": "laughlin", "m": 1, "n_electrons": 2},
        {"variant": "laughlin", "m": 3, "n_electrons": 2},
    ])
    code, out, _ = run(capsys, "wf", "gram", "--specs", specs, "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "row,col,re,im,stderr"
    assert len(lines) == 5


def test_wf_gram_normalized_exact_identity(capsys):
    specs = json.dumps([
        {"variant": "laughlin", "m": 1, "n_electrons": 2},
        {"variant": "laughlin", "m": 3, "n_electrons": 2},
    ])
    report = run_json(capsys, "wf", "gram", "--specs", specs, "--normalize")
    entries = report["result"]["entries"]
    assert entries[0][0]["re"] == 1.0 and entries[1][1]["re"] == 1.0
    assert entries[0][1]["re"] == 0.0 and entries[1][0]["re"] == 0.0


@pytest.mark.parametrize(
    "flags", [("--samples", "1"), ("--samples", "0"), ("--samples", "-5"), ("--samples", "10"), ("--workers", "0")]
)
def test_wf_gram_mc_bad_samples_or_workers_is_usage_error(capsys, flags):
    specs = json.dumps([{"variant": "laughlin", "m": m, "n_electrons": 2} for m in (1, 3)])
    code, out, err = run(capsys, "wf", "gram", "--specs", specs, "--method", "mc", *flags)
    assert code == 2 and out == ""
    assert err.startswith("error:") and flags[0].strip("-") in err


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda rep: rep.update(coefficients=[1, 2, 3]),
        lambda rep: rep.update(coefficients=[["a", 0]] * 3),
        lambda rep: rep["matrices"]["Ep"].update(entries=[0.0] * 9),
    ],
    ids=["bare-coefficients", "string-coefficients", "bare-matrix-entries"],
)
def test_rep_verify_malformed_pairs_is_usage_error(tmp_path, capsys, corrupt):
    rep_file = tmp_path / "rep.json"
    run(capsys, "ladder", "build", "--p", "1", "-o", str(rep_file))
    payload = json.loads(rep_file.read_text())
    corrupt(payload["result"])
    rep_file.write_text(json.dumps(payload))
    code, out, err = run(capsys, "rep", "verify", "--in", str(rep_file))
    assert code == 2 and out == ""
    assert err.startswith("error:") and "[re, im]" in err


@pytest.mark.parametrize(
    "kind, corrupt",
    [
        ("generic", lambda rep: rep.update(coefficients=rep["coefficients"]["g"])),
        ("ladder", lambda rep: rep.update(p=None)),
        ("ladder", lambda rep: rep.update(k=None)),
        ("ladder", lambda rep: rep.update(p=1.5)),
        ("generic", lambda rep: rep.update(k="1")),
        ("ladder", lambda rep: rep.update(matrices=[rep["matrices"]["K"]])),
        ("ladder", lambda rep: rep["matrices"].pop("Em")),
        ("generic", lambda rep: rep["matrices"].update(K=None)),
    ],
    ids=["generic-list-coefficients", "null-p", "null-k", "float-p", "string-k",
         "matrices-list", "matrices-missing-Em", "matrix-null"],
)
def test_rep_verify_malformed_shape_is_usage_error(tmp_path, capsys, kind, corrupt):
    root = PrimitiveRoot(1)
    rep = build_ladder(root) if kind == "ladder" else solve_generic_coefficients(root, root.power(1))
    payload = json.loads(json.dumps(rep.to_json()))
    corrupt(payload)
    rep_file = tmp_path / "rep.json"
    rep_file.write_text(json.dumps(payload))
    code, out, err = run(capsys, "rep", "verify", "--in", str(rep_file))
    assert code == 2 and out == ""
    assert err.startswith("error:") and "Traceback" not in err


def test_wf_eval_malformed_config_is_usage_error(capsys):
    spec = json.dumps({"variant": "laughlin", "m": 1, "n_electrons": 2})
    code, out, err = run(capsys, "wf", "eval", "--spec", spec, "--config", "[1, 2]")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "[re, im]" in err


LAUGHLIN_SPEC = json.dumps({"variant": "laughlin", "m": 1, "n_electrons": 2})


@pytest.mark.parametrize(
    "argv, message",
    [
        (["wf", "gram", "--specs", "[1]"], "must be a JSON object, got int"),
        (["wf", "gram", "--specs", "{}"], "--specs must be a JSON array"),
        (["wf", "gram", "--specs", LAUGHLIN_SPEC], "--specs must be a JSON array"),
        (["wf", "inner", "--spec-a", "[]", "--spec-b", LAUGHLIN_SPEC], "must be a JSON object, got list"),
        (["wf", "eval", "--spec", '"laughlin"', "--config", "[[0, 0], [1, 0]]"], "must be a JSON object, got str"),
        (["wf", "gram", "--specs", '[{"variant": "laughlin", "m": 1.5, "n_electrons": 2}]'], "'m' must be an integer, got 1.5"),
        (["wf", "gram", "--specs", '[{"variant": "laughlin", "m": true, "n_electrons": 2}]'], "'m' must be an integer, got True"),
        (["wf", "inner", "--spec-a", LAUGHLIN_SPEC, "--spec-b", '{"variant": "laughlin", "m": 3}'],
         "'n_electrons' must be an integer, got None"),
        (["wf", "gram", "--specs",
          '[{"variant": "hierarchy_r1", "a0": 3, "a1": 2, "b": 1, "n_quasi": 1.0, "n_electrons": 2}]'],
         "'n_quasi' must be an integer, got 1.0"),
    ],
    ids=["gram-int-spec", "gram-object", "gram-bare-spec", "inner-list-spec", "eval-string-spec",
         "float-m", "bool-m", "missing-n-electrons", "float-n-quasi"],
)
def test_malformed_spec_is_usage_error(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and message in err and "Traceback" not in err


HIERARCHY_SPECS = json.dumps([
    {"variant": "hierarchy_r1", "a0": 3, "a1": 2, "b": 1, "n_electrons": 2},
    {"variant": "hierarchy_r1", "a0": 3, "a1": -2, "b": -1, "n_electrons": 2},
])


def test_wf_gram_mc_hierarchy_is_hermitian(capsys):
    report = run_json(capsys, "wf", "gram", "--specs", HIERARCHY_SPECS,
                      "--method", "mc", "--samples", "20000", "--seed", "5")
    entries = report["result"]["entries"]
    for i in range(2):
        assert entries[i][i]["re"] > 0 and entries[i][i]["im"] == 0.0
    assert entries[0][1]["re"] == entries[1][0]["re"]
    assert entries[0][1]["im"] == -entries[1][0]["im"]
    assert entries[0][1]["stderr"] == entries[1][0]["stderr"]


def test_wf_gram_rejects_quad_order(capsys):
    code, _, _ = run(capsys, "wf", "gram", "--specs", HIERARCHY_SPECS,
                     "--method", "mc", "--quad-order", "16")
    assert code == 2


def test_help_exits_zero_and_lists_defaults(capsys):
    for argv in (["--help"], ["ladder", "--help"], ["ladder", "magnitudes", "--help"],
                 ["ff", "--help"], ["wf", "inner", "--help"], ["rep", "--help"]):
        code, out, _ = run(capsys, *argv)
        assert code == 0
    code, out, _ = run(capsys, "wf", "inner", "--help")
    assert code == 0 and "default" in out


def test_no_subcommand_exits_two(capsys):
    code, _, _ = run(capsys)
    assert code == 2
    code, _, _ = run(capsys, "ladder")
    assert code == 2


def test_table_format(capsys, monkeypatch):
    monkeypatch.setenv("HALLREP_COLOR", "0")
    code, out, _ = run(capsys, "ladder", "verify", "--p", "1", "--format", "table")
    assert code == 0
    assert "verdict" in out and "PASS" in out and "\x1b[" not in out


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "argv",
    [
        ("ladder", "build", "--p", "2", "--base", "nan"),
        ("ladder", "build", "--p", "2", "--base", "inf"),
        ("ladder", "build", "--p", "2", "--phases", "nan,0,0,0,0"),
        ("rep", "solve", "--p", "2", "--lam-phase", "nan"),
        ("ladder", "verify", "--p", "2", "--tol", "nan"),
        ("ladder", "cyclicity", "--p", "2", "--tol", "nan"),
    ],
    ids=["base-nan", "base-inf", "phases-nan", "lam-phase-nan", "verify-tol-nan", "cyclicity-tol-nan"],
)
def test_non_finite_number_is_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert "error:" in err and "finite" in err


def _generic_payload():
    root = PrimitiveRoot(1)
    return solve_generic_coefficients(root, root.power(1)).to_json()


@pytest.mark.parametrize(
    "payload, argv, message",
    [
        (_generic_payload, ("rep", "intertwine", "--s", "1"), "ladder-form"),
        (_generic_payload, ("ladder", "verify"), "ladder-form"),
        (_generic_payload, ("ladder", "cyclicity"), "ladder-form"),
        (lambda: {"result": {"p": 1}}, ("rep", "verify"), "does not contain a serialized representation"),
        (lambda: dict(build_ladder(PrimitiveRoot(1)).to_json(), kind="other"), ("rep", "verify"), "unknown representation kind"),
        (lambda: {"kind": "ladder", "p": 1, "k": 1, "coefficients": [[1.0, 0.0]] * 2}, ("rep", "verify"), "expected 3 coefficients"),
    ],
    ids=["intertwine-generic", "verify-generic", "cyclicity-generic", "no-representation",
         "unknown-kind", "wrong-coefficient-count"],
)
def test_unusable_representation_file_is_usage_error(tmp_path, capsys, payload, argv, message):
    rep_file = tmp_path / "rep.json"
    rep_file.write_text(json.dumps(payload()))
    code, out, err = run(capsys, *argv, "--in", str(rep_file))
    assert code == 2 and out == ""
    assert err.startswith("error:") and message in err


def test_ladder_build_parses_phases(capsys):
    phases = [0.1, 0.2, 0.3, 0.4, 0.5]
    report = run_json(capsys, "ladder", "build", "--p", "2", "--phases", ",".join(map(str, phases)))
    assert report["result"] == build_ladder(PrimitiveRoot(2), phases=phases).to_json()


def test_generic_csv_and_table_list_abbreviation(capsys, monkeypatch):
    code, out, _ = run(capsys, "ladder", "verify", "--p", "1", "--format", "csv")
    assert code == 0 and out.startswith("key,value\n")
    assert "commutator_residual," in out
    monkeypatch.setenv("HALLREP_COLOR", "0")
    code, out, _ = run(capsys, "ladder", "build", "--p", "3", "--format", "table")
    assert code == 0
    assert any(line.split() == ["coefficients", "[7", "items]"] for line in out.splitlines())


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-enabled", "gc-disabled"])
@pytest.mark.parametrize(
    "argv, expected",
    [
        (("ladder", "build", "--p", "2", "-o", "{dir}/rep.json"), 0),
        (("ff", "decompose", "--nu", "100/201"), 1),
        (("rep", "verify", "--in", "{dir}/malformed.json"), 2),
        (("ladder", "build", "--no-such-flag"), 2),
    ],
    ids=["success", "failure", "handler-error", "argparse-error"],
)
def test_main_restores_the_collector_state(tmp_path, capsys, argv, expected, enabled):
    (tmp_path / "malformed.json").write_text('{"kind": "ladder", "p": 1')
    was_enabled = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        code, _, _ = run(capsys, *(arg.format(dir=tmp_path) for arg in argv))
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()
    assert code == expected


def test_command_runs_with_the_collector_paused(capsys, monkeypatch):
    seen = []

    def recording_build_ladder(*args, **kwargs):
        seen.append(gc.isenabled())
        return build_ladder(*args, **kwargs)

    monkeypatch.setattr(cli, "build_ladder", recording_build_ladder)
    assert gc.isenabled()
    run_json(capsys, "ladder", "build", "--p", "2")
    assert seen == [False] and gc.isenabled()


def test_report_files_match_the_default_encoder(tmp_path, capsys):
    # reports are written without the pair lists and with no cycle check; the
    # bytes must equal the default encoder's, signed zeros included
    root = PrimitiveRoot(198, 121)
    phases = np.random.default_rng(198).uniform(-7, 7, root.order).tolist()
    ladder = build_ladder(root, phases=phases).to_json()
    generic = solve_generic_coefficients(PrimitiveRoot(30, 7), cmath.exp(0.4j)).to_json()
    small, verify, big, rebuilt, solved = (tmp_path / f"{name}.json" for name in ("small", "verify", "big", "rebuilt", "solved"))
    commands = [
        (["ladder", "build", "--p", "5", "--k", "2", "-o", small], build_ladder(PrimitiveRoot(5, 2)).to_json()),
        (["rep", "verify", "--in", small, "-o", verify], None),
        (["ladder", "build", "--p", "198", "--k", "121", "--phases=" + ",".join(map(repr, phases)), "-o", big], ladder),
        (["rep", "build", "--in", big, "-o", rebuilt], {**ladder, "max_deviation_from_stored": 0.0}),
        (["rep", "solve", "--p", "30", "--k", "7", "--lam-phase", "0.4", "-o", solved], generic),
    ]
    for argv, want in commands:
        code, out, err = run(capsys, *map(str, argv))
        assert code == 0, err
        text = argv[-1].read_text()
        assert text == json.dumps(json.loads(text), allow_nan=False) + "\n"
        if want is not None:
            assert json.dumps(json.loads(text)["result"]) == json.dumps(want)
    assert "-0.0" in small.read_text()


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_matrix_entry_is_not_written(tmp_path, capsys, bad):
    rep_file, out_file = tmp_path / "rep.json", tmp_path / "rebuilt.json"
    payload = build_ladder(PrimitiveRoot(2)).to_json()
    payload["coefficients"][1] = [bad, 0.0]
    rep_file.write_text(json.dumps(payload))  # NaN and Infinity, which json.load reads back
    code, out, err = run(capsys, "rep", "build", "--in", str(rep_file), "-o", str(out_file))
    # refused as malformed input when read, before anything is rebuilt
    assert code == 2 and not out_file.exists()
    assert err.startswith("error:") and "finite" in err


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_ladder_verify_near_q_minus_one_at_p1000_passes(capsys):
    # |a_i|^2 reaches 4e5 here; the magnitude cross-checks scale with it
    report = run_json(capsys, "ladder", "verify", "--p", "1000", "--k", "1000")
    assert report["result"]["pass"] is True


def test_failed_internal_cross_check_exits_one(capsys, monkeypatch):
    def failing(*args, **kwargs):
        raise ArithmeticError("three-block recurrence residual 1.0 after solving")

    monkeypatch.setattr(cli, "solve_ladder_magnitudes", failing)
    code, out, err = run(capsys, "ladder", "magnitudes", "--p", "3")
    assert code == 1 and out == ""
    assert err.startswith("failure:") and "three-block" in err


def _rep_with_nan_in_stored_ep(tmp_path, entry):
    rep_file = tmp_path / "rep.json"
    payload = build_ladder(PrimitiveRoot(2)).to_json()
    payload["matrices"]["Ep"]["entries"][entry] = [float("nan"), 0.0]
    rep_file.write_text(json.dumps(payload))  # json.load reads the NaN back
    return rep_file


@pytest.mark.parametrize("entry", [2, 0], ids=["nonzero-entry", "zero-entry"])
def test_rep_verify_names_every_nan_residual(tmp_path, capsys, entry):
    rep_file = _rep_with_nan_in_stored_ep(tmp_path, entry)
    code, out, err = run(capsys, "rep", "verify", "--in", str(rep_file))
    assert code == 1
    result = json.loads(out)["result"]
    nan_names = {
        name
        for name, values in (
            ("commutator_residual", [result["commutator_residual"]]),
            ("conjugation_residual_minus", [result["conjugation_residual_plus"], result["conjugation_residual_minus"]]),
            ("k_unitarity_residual", result["unitarity_residuals"][:1]),
            ("adjoint_residual", result["unitarity_residuals"][1:]),
        )
        if all(value == "nan" for value in values)
    }
    assert "commutator_residual" in nan_names and "adjoint_residual" in nan_names
    assert {failure.split("=")[0] for failure in result["failures"]} == nan_names
    assert err.startswith("verification failed: ") and err.count("=nan") == len(nan_names)


@pytest.mark.parametrize("entry", [2, 0], ids=["nonzero-entry", "zero-entry"])
def test_rep_build_nan_deviation_is_not_written(tmp_path, capsys, entry):
    rep_file, out_file = _rep_with_nan_in_stored_ep(tmp_path, entry), tmp_path / "rebuilt.json"
    code, out, err = run(capsys, "rep", "build", "--in", str(rep_file), "-o", str(out_file))
    assert code == 1 and out == "" and not out_file.exists()
    assert err.startswith("failure:") and "non-finite" in err


@pytest.mark.parametrize("text", ["null", "5", "[]", '"x"'])
def test_rep_file_holding_no_object_is_usage_error(tmp_path, capsys, text):
    rep_file = tmp_path / "rep.json"
    rep_file.write_text(text)
    code, out, err = run(capsys, "rep", "verify", "--in", str(rep_file))
    assert code == 2 and out == ""
    assert err.startswith("error:") and "Traceback" not in err


def _nan_coefficient(payload):
    payload["coefficients"][1] = [float("nan"), 0.0]


def _nan_lambda(payload):
    payload["lambda"] = [float("nan"), 0.0]


@pytest.mark.parametrize("command", [["rep", "verify"], ["ladder", "cyclicity"]], ids=" ".join)
@pytest.mark.parametrize(
    "rep, corrupt",
    [(build_ladder(PrimitiveRoot(2)), _nan_coefficient),
     (solve_generic_coefficients(PrimitiveRoot(2), cmath.exp(0.3j)), _nan_lambda)],
    ids=["ladder-coefficient", "generic-lambda"],
)
def test_non_finite_coefficient_is_usage_error(tmp_path, capsys, command, rep, corrupt):
    payload = rep.to_json()
    corrupt(payload)  # the stored matrices stay intact
    rep_file = tmp_path / "rep.json"
    rep_file.write_text(json.dumps(payload))  # json.load reads the NaN back
    code, out, err = run(capsys, *command, "--in", str(rep_file))
    assert code == 2 and out == ""
    assert err.startswith("error:") and "finite" in err


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_stored_entry_warns_nothing(tmp_path, capsys):
    payload = build_ladder(PrimitiveRoot(2)).to_json()
    entries = payload["matrices"]["Ep"]["entries"]
    entries[entries.index([0.0, 0.0])] = "@"
    rep_file = tmp_path / "rep.json"
    rep_file.write_text(json.dumps(payload).replace('"@"', "[1e400, 0.0]"))  # read back as inf
    code, out, err = run(capsys, "rep", "verify", "--in", str(rep_file))
    assert code == 1
    assert "commutator_residual=nan" in json.loads(out)["result"]["failures"]
    assert err.startswith("verification failed: ") and "commutator_residual=nan" in err
    code, out, err = run(capsys, "ladder", "cyclicity", "--in", str(rep_file))
    assert code == 1 and out == ""
    assert err.startswith("failure:") and "non-finite" in err


def _coprime_labels(order):
    return [k for k in range(1, order) if math.gcd(k, order) == 1]


def _assert_reads_like_json_load(path):
    """_load_rep(path) holds the bits of rep_from_json(json.load(...)), read through certified arrays."""
    text = path.read_text()
    matrices = cli._decode_rep_text(text)["result"]["matrices"]
    assert all(isinstance(matrices[name]["entries"], np.ndarray) for name in ("K", "Ep", "Em"))
    got, want = cli._load_rep(str(path)), rep_from_json(json.loads(text)["result"])
    assert (got.root, got.kind, got.unitary) == (want.root, want.kind, want.unitary)
    assert np.array_equal(np.array([got.lam]).view(np.uint64), np.array([want.lam]).view(np.uint64))
    for name in ("raising", "lowering", "k_mat", "e_plus", "e_minus"):
        assert np.array_equal(getattr(got, name).view(np.uint64), getattr(want, name).view(np.uint64)), name


def test_load_rep_matches_json_load_over_the_small_p_sweep(tmp_path, capsys):
    path = tmp_path / "rep.json"
    for p in range(1, 26):
        for k in _coprime_labels(2 * p + 1):
            assert main(["ladder", "build", "--p", str(p), "--k", str(k), "-o", str(path)]) == 0
            _assert_reads_like_json_load(path)


@pytest.mark.parametrize(
    "argv",
    [
        ["ladder", "build", "--p", "30", "--k", "19"],
        ["ladder", "build", "--p", "86", "--k", "40"],
        ["ladder", "build", "--p", "142", "--k", "71"],
        ["ladder", "build", "--p", "198", "--k", "121"],
        ["ladder", "build", "--p", "86", "--k", "1", "--phases=random"],
        ["ladder", "build", "--p", "198", "--k", "1", "--phases=random"],
        ["rep", "solve", "--p", "30", "--k", "7", "--lam-phase", "0.4", "--phases=random"],
    ],
    ids=["p30-k19", "p86-k40", "p142-k71", "p198-k121", "p86-k1-phases", "p198-k1-phases", "generic-p30-k7"],
)
def test_load_rep_matches_json_load_at_large_p(tmp_path, capsys, argv):
    if argv[-1] == "--phases=random":
        n = 2 * int(argv[3]) + 1
        phases = np.random.default_rng(n).uniform(-7, 7, n)
        argv = argv[:-1] + ["--phases=" + ",".join(map(repr, phases.tolist()))]
    path = tmp_path / "rep.json"
    assert main(argv + ["-o", str(path)]) == 0
    if argv[0] == "rep":  # generic: pair lists under g and f
        obj = cli._decode_rep_text(path.read_text())["result"]["coefficients"]
        assert isinstance(obj["g"], np.ndarray) and isinstance(obj["f"], np.ndarray)
    _assert_reads_like_json_load(path)


def _malformed_corpus():
    """Representation files as text, each a way for a file to leave the canonical pair text."""
    phases = np.random.default_rng(5).uniform(-7, 7, 5).tolist()
    canonical = json.dumps({"result": build_ladder(PrimitiveRoot(2, 2), phases=phases).to_json()})
    generic = json.dumps({"result": solve_generic_coefficients(PrimitiveRoot(2, 1), cmath.exp(0.3j)).to_json()})

    def edited(edit):
        obj = json.loads(canonical)
        edit(obj["result"])
        return json.dumps(obj)

    def raw_entry(text):  # the first E+ entry replaced by raw JSON text
        return edited(lambda rep: rep["matrices"]["Ep"]["entries"].__setitem__(0, "@")).replace('"@"', text)

    return {
        "canonical": canonical,
        "generic": generic,
        "bare-object": json.dumps(json.loads(canonical)["result"]),
        "pretty-printed": json.dumps(json.loads(canonical), indent=2),
        "nan-entry": raw_entry("[NaN, 0.0]"),
        "overflowing-entry": raw_entry("[1e400, 0.0]"),
        "integer-entry": raw_entry("[0, 0]"),
        "ragged-entry": raw_entry("[0.0]"),
        "string-entry": raw_entry('["0.0", 0.0]'),
        "non-ascii-entry": raw_entry('["é", 0.0]'),
        "deeper-nesting": raw_entry("[[0.0, 0.0]]"),
        "space-before-bracket": raw_entry("[0.0, 0.0 ]"),
        "pairs-in-a-key": edited(lambda rep: rep.update({"[[1.0, 2.0]]": 1})),
        "pairs-as-p": edited(lambda rep: rep.update(p=[[2.0, 0.0]])),
        "pairs-as-kind": edited(lambda rep: rep.update(kind=[[1.0, 0.0]])),
        "pairs-as-a-matrix": edited(lambda rep: rep["matrices"].update(K=[[1.0, 0.0]])),
        "empty-coefficients": edited(lambda rep: rep.update(coefficients=[])),
        "truncated": canonical[: len(canonical) // 2],
    }


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # the inf entry, on both reads
@pytest.mark.parametrize("name", list(_malformed_corpus()))
@pytest.mark.parametrize(
    "command", [["rep", "verify"], ["ladder", "cyclicity"], ["rep", "build"]], ids=" ".join
)
def test_rep_files_read_as_json_loads_reads_them(tmp_path, capsys, monkeypatch, name, command):
    rep_file, out_file = tmp_path / "rep.json", tmp_path / "out.json"
    rep_file.write_text(_malformed_corpus()[name], encoding="utf-8")
    argv = command + ["--in", str(rep_file), "-o", str(out_file)]

    def outcome():
        code, out, err = run(capsys, *argv)
        written = out_file.read_bytes() if out_file.exists() else None
        out_file.unlink(missing_ok=True)
        return code, out, err, written

    certified = outcome()
    monkeypatch.setattr(cli, "_decode_rep_text", json.loads)
    assert certified == outcome()
