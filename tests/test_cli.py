import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import liekernel
from liekernel.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv, "--json")
    return code, json.loads(out)


def test_betti_json(capsys):
    code, payload = run_json(capsys, "betti", "(0,0,12)")
    assert code == 0
    assert payload["schema"] == "liekernel-report/1"
    assert payload["result"]["b"] == [1, 2, 2, 1]
    assert payload["mode"] == "exact"


def test_json_output_is_byte_identical(capsys):
    _, out1 = run(capsys, "betti", "(0,0,12)", "--json")
    _, out2 = run(capsys, "betti", "(0,0,12)", "--json")
    assert out1 == out2


def test_check23_with_binding(capsys):
    code, payload = run_json(capsys, "check23", "(0,21,l.31)",
                             "--bind", "l=1/2")
    assert code == 0
    assert payload["result"] == {"b2": 0, "b3": 0, "is_23_trivial": True}


def test_parse_canonicalises(capsys):
    code, payload = run_json(capsys, "parse", "(0,12+2.21,0)")
    assert code == 0
    assert payload["result"]["canonical"] == "(0,-12,0)"


def test_kernel_formula(capsys):
    code, payload = run_json(capsys, "kernel", "(0,34,-24,23)")
    assert code == 0
    assert payload["result"]["dim"] == 3
    assert payload["result"]["matches_formula"] is True


def test_structure_report(capsys):
    code, payload = run_json(capsys, "structure", "(0,12,2.13,-4.14,15)")
    assert code == 0
    res = payload["result"]
    assert res["unimodular"] and res["is_23_trivial"]
    assert res["derived_series_dims"] == [5, 4, 0]


def test_derivations_and_char_nilpotent(capsys):
    code, payload = run_json(
        capsys, "derivations",
        "(0,0,12,13,23,14+25+a.23,16+25+35+a.24)", "--bind", "a=1")
    assert code == 0
    assert payload["result"]["characteristically_nilpotent"] is True


def test_extend(capsys):
    code, payload = run_json(capsys, "extend", "(0,0,12)",
                             "--grading", "1,1,2")
    assert code == 0
    assert payload["result"]["is_23_trivial"] is True
    assert payload["result"]["dim"] == 4


def test_mmmap_round_trip(capsys):
    code, payload = run_json(capsys, "mmmap", "(0,21,1/2.31)", "--psi", "123")
    assert code == 0
    assert payload["result"]["round_trip_ok"] is True
    assert payload["result"]["dP_beta"] == "123"


def test_orbit_u2(capsys):
    code, payload = run_json(capsys, "orbit", "(0,34,-24,23)", "--beta", "12")
    assert code == 0
    res = payload["result"]
    assert res["condition_holds"] is False
    assert res["orbit_dim"] == 2


def test_g2_verify(capsys):
    code, payload = run_json(capsys, "g2-verify", "--F", "0,1,0,0")
    assert code == 0
    assert all(payload["result"].values())


def test_g2_flow_report(capsys, tmp_path):
    csv = tmp_path / "traj.csv"
    code, payload = run_json(
        capsys, "g2-flow", "--F", "0,1,0,0", "--t-end", "0.9",
        "--step", "1e-3", "--compare-closed-form", "--csv", str(csv))
    assert code == 0
    res = payload["result"]
    assert res["max_abs_err"] < 1e-8
    assert res["h2_detq_residual"] < 1e-10
    assert res["completeness"] == "half_complete"
    assert payload["mode"] == "float"
    lines = csv.read_text().strip().splitlines()
    assert lines[0] == "t,q11,q12,q22,h"
    assert len(lines) == 902  # header + 901 samples


def test_tables_command(capsys):
    code, payload = run_json(capsys, "tables")
    assert code == 0
    assert payload["result"]["ok"] is True
    assert payload["result"]["quartic_log_sum_abs"] < 1e-12


def test_corpus_command(capsys, tmp_path):
    fixture = tmp_path / "mini.lie"
    fixture.write_text("(0,0,12)  # name=h3\n(0,21,l.31) | l=1/2 # name=r\n")
    code, payload = run_json(capsys, "corpus", "--fixture", str(fixture),
                             "--triples", "5")
    assert code == 0
    assert payload["result"]["ok"] is True
    assert payload["result"]["algebras_checked"] == 2


def test_domain_error_exit_code(capsys):
    code, out = run(capsys, "check23", "(0,21")
    assert code == 1
    payload = json.loads(out)
    assert payload["error"]["type"] == "ParseError"


@pytest.mark.parametrize("binding", ["l=abc", "l=1/0", "l", "l=0.5", "l=1e3",
                                     "l=1_000", "1x=2"])
def test_malformed_binding_exit_code(capsys, binding):
    code, out = run(capsys, "check23", "(0,21,l.31)", "--bind", binding)
    assert code == 1
    assert json.loads(out)["error"]["type"] == "BindingError"


@pytest.mark.parametrize("argv", [
    ["betti", "(0,1/0.21)"],
    ["mmmap", "(0,21,1/2.31)", "--psi", "1/0.123"],
], ids=["tuple-zero-denominator", "form-zero-denominator"])
def test_zero_denominator_is_parse_error(capsys, argv):
    code, out = run(capsys, *argv)
    assert code == 1
    assert json.loads(out)["error"]["type"] == "ParseError"


@pytest.mark.parametrize("content", [
    None, "(0,0,12)  # name=h3 grading=a,b,c\n",
    "(0,0,12)  # name=h3\n(0,0,0)  # name=h3\n",
], ids=["missing-file", "grading-not-integers", "duplicate-name"])
def test_bad_corpus_fixture_exit_code(capsys, tmp_path, content):
    fixture = tmp_path / "bad.lie"
    if content is not None:
        fixture.write_text(content)
    code, out = run(capsys, "corpus", "--fixture", str(fixture))
    assert code == 1
    assert json.loads(out)["error"]["type"] == "LieKernelError"


@pytest.mark.parametrize("argv", [
    ["--F", "0,0,0,0", "--t-end", "1e9"],
    ["--F", "0,1,0,0", "--step", "1e-9"],
    ["--F", "1,0,0,1", "--t-end", "1e200", "--step", "1e199"],
    ["--F", "0,1,0,0", "--t-end", "1", "--step", "0.5"],
    ["--F", "0,1,0,0", "--t-end", "1.5", "--step", "0.25"],
], ids=["t-end-over-step-cap", "step-over-step-cap", "state-overflow",
        "stage-on-interval-end", "stage-on-interval-end-inside-run"])
def test_flow_error_exit_code(capsys, argv):
    code, out = run(capsys, "g2-flow", *argv)
    assert code == 1
    assert json.loads(out)["error"]["type"] == "FlowError"


def test_unwritable_csv_exit_code(capsys, tmp_path):
    code, out = run(capsys, "g2-flow", "--F", "0,1,0,0",
                    "--csv", str(tmp_path / "missing" / "x.csv"))
    assert code == 1
    assert json.loads(out)["error"]["type"] == "LieKernelError"


def test_non_finite_floats_are_strings(capsys):
    code, out = run(capsys, "g2-flow", "--F", "0,0,0,0", "--t-end", "1",
                    "--step", "0.5", "--json")
    assert code == 0
    payload = json.loads(out, parse_constant=pytest.fail)
    assert payload["result"]["interval"] == ["-inf", "inf"]
    assert payload["result"]["steps"] == 2


STDLIB_ONLY = """
import sys

class StdlibOnly:
    def find_spec(self, name, path=None, target=None):
        top = name.partition(".")[0]
        if top != "liekernel" and top not in sys.stdlib_module_names:
            raise ImportError(f"{name} is not in the standard library")

sys.meta_path.insert(0, StdlibOnly())
from liekernel.cli import main
sys.exit(main())
"""


def test_float_paths_run_on_the_standard_library_alone():
    src = str(Path(liekernel.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    for argv in (["tables"], ["g2-verify", "--F", "0,1,0,0"],
                 ["g2-flow", "--F", "0,1,0,0", "--compare-closed-form"]):
        proc = subprocess.run(
            [sys.executable, "-c", STDLIB_ONLY, *argv, "--json"],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["schema"] == "liekernel-report/1"


def test_moment_error_exit_code(capsys):
    code, out = run(capsys, "mmmap", "(0,0,12)", "--psi", "123")
    assert code == 1
    assert json.loads(out)["error"]["type"] == "MomentMapError"


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["betti"])  # missing algebra argument
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["extend", "(0,0,12)", "--grading", "a,b,c"],
    ["g2-flow", "--F", "a,b,c,d"],
    ["g2-verify", "--F", "1/0,0,0,0"],
    ["g2-verify", "--F", "1,2,3"],
    ["corpus", "--triples", "-5"],
    ["g2-verify", "--F", "0.5,0,0,0"],
    ["g2-flow", "--F", "0,0,0,0", "--t-end", "inf"],
    ["g2-flow", "--F", "1,0,0,1", "--t-end", "inf"],
    ["g2-flow", "--F", "0,1,0,0", "--t-end", "nan"],
    ["g2-flow", "--F", "0,1,0,0", "--step", "nan"],
    ["g2-flow", "--F", "0,1,0,0", "--step", "1e999"],
], ids=["grading-not-integers", "flow-F-not-rationals", "verify-F-zero-denominator",
        "verify-F-three-entries", "negative-triples", "verify-F-decimal",
        "flow-t-end-inf-flat", "flow-t-end-inf-curved", "flow-t-end-nan",
        "flow-step-nan", "flow-step-overflows"])
def test_bad_option_value_is_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "usage:" in err


def test_human_readable_default(capsys):
    code, out = run(capsys, "betti", "(0,0,12)")
    assert code == 0
    assert "b: [1, 2, 2, 1]" in out
