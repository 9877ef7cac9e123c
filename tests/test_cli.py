import json
import math

import pytest

from hallrep.algebra import PrimitiveRoot
from hallrep.cli import main
from hallrep.cyclic import build_ladder, rep_from_json


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
