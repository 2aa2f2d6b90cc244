import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import liekernel
from liekernel.cli import build_parser, main


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


@pytest.mark.parametrize("algebra, b2, trivial", [
    ("(0)", 0, True), ("(0,21)", 0, True), ("(0,0)", 1, False),
])
def test_check23_and_structure_below_dimension_three(capsys, algebra, b2,
                                                     trivial):
    # b_k = 0 above n, so b3 = 0 here
    code, payload = run_json(capsys, "check23", algebra)
    assert code == 0
    assert payload["result"] == {"b2": b2, "b3": 0, "is_23_trivial": trivial}
    code, payload = run_json(capsys, "structure", algebra)
    assert code == 0
    assert payload["result"]["is_23_trivial"] is trivial


SMALL_ALGEBRAS = ["(0)", "(0,0)", "(0,21)", "(0,0,12)"]
ALGEBRA_COMMANDS = {
    "parse": [], "betti": [], "check23": [], "kernel": [], "structure": [],
    "derivations": [], "extend": ["--grading"], "mmmap": ["--psi", "0"],
    "orbit": ["--beta", "0"],
}


def _subcommands() -> dict:
    return next(a for a in build_parser()._actions
                if isinstance(a, argparse._SubParsersAction)).choices


def test_algebra_commands_cover_the_parser():
    takes_algebra = {name for name, p in _subcommands().items()
                     if any(a.dest == "algebra" for a in p._actions)}
    assert takes_algebra == set(ALGEBRA_COMMANDS)


README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_subcommand_has_help_and_a_readme_example(capsys):
    names = set(_subcommands())
    text = README.read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1]
    lines = block.split("```", 1)[0].splitlines()
    examples = {line.split()[1] for line in lines if line.strip()}
    assert len(names) == 13
    for name in names:
        with pytest.raises(SystemExit) as exit_:
            main([name, "--help"])
        assert exit_.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: liekernel {name}")
    assert examples == names


@pytest.mark.parametrize("algebra", SMALL_ALGEBRAS)
@pytest.mark.parametrize("command", sorted(ALGEBRA_COMMANDS))
def test_every_algebra_command_answers_in_json(capsys, command, algebra):
    extra = list(ALGEBRA_COMMANDS[command])
    if extra == ["--grading"]:
        extra.append(",".join(["1"] * (algebra.count(",") + 1)))
    code, out = run(capsys, command, algebra, *extra, "--json")
    assert code in (0, 1)
    payload = json.loads(out)  # exactly one JSON object, nothing after it
    assert isinstance(payload, dict)
    assert payload["schema"] == "liekernel-report/1"


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


def test_structure_of_ext_n6_at_the_dimension_limit(capsys):
    # ext(n(6)): the strictly upper-triangular 6x6 matrices, E_ab in weight
    # b - a, with the grading element adjoined; n = 16, the parser's limit
    from itertools import combinations

    from liekernel.families import GradedNilpotent, graded_extension
    from liekernel.liealg import matrix_lie_algebra
    from liekernel.parser import expr_of, serialize

    pairs = list(combinations(range(6), 2))
    n6 = matrix_lie_algebra([[[int((r, s) == p) for s in range(6)]
                              for r in range(6)] for p in pairs])
    ext = graded_extension(GradedNilpotent(n6, tuple(b - a for a, b in pairs)))
    code, payload = run_json(capsys, "structure", serialize(expr_of(ext)))
    assert code == 0
    res = payload["result"]
    assert len(res["betti"]) == 17 and res["is_23_trivial"]
    assert res["trivial23_consequences"]["not_basis_split"] is True
    assert all(res["trivial23_consequences"].values())


def test_derivations_and_char_nilpotent(capsys):
    code, payload = run_json(
        capsys, "derivations",
        "(0,0,12,13,23,14+25+a.23,16+25+35+a.24)", "--bind", "a=1")
    assert code == 0
    assert payload["result"]["characteristically_nilpotent"] is True
    for text in ("(0)", "(0,0,12)"):
        code, payload = run_json(capsys, "derivations", text)
        assert code == 0
        assert payload["result"]["characteristically_nilpotent"] is False


def test_derivations_solve_der_g_once(capsys, monkeypatch):
    # `dim` and the characteristic nilpotency chain read one cached solve
    from liekernel import liealg

    solves = []
    real = liealg.nullspace
    monkeypatch.setattr(liealg, "nullspace",
                        lambda *a: solves.append(a) or real(*a))
    code, payload = run_json(
        capsys, "derivations",
        "(0,0,12,13,23,14+25+a.23,16+25+35+a.24)", "--bind", "a=1")
    assert code == 0
    assert payload["result"]["characteristically_nilpotent"] is True
    assert len(solves) == 1


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


def test_long_flow_residual_is_relative(capsys):
    # h grows to ~4e6 over 10^5 steps; the absolute |h^2 - det Q| is ~3e-6
    code, payload = run_json(capsys, "g2-flow", "--F", "2,0,0,2",
                             "--t-end", "1000", "--step", "0.01")
    assert code == 0
    assert payload["result"]["steps"] == 100000
    assert payload["result"]["h_final"] > 1e6
    assert payload["result"]["h2_detq_residual"] <= payload["tol"]


def test_flow_error_leaves_no_csv(capsys, tmp_path):
    csv = tmp_path / "traj.csv"
    code, out = run(capsys, "g2-flow", "--F", "0,1,0,0", "--t-end", "1.5",
                    "--csv", str(csv))
    assert code == 1
    assert json.loads(out)["error"]["type"] == "FlowError"
    assert not csv.exists()


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


# numerals longer than the interpreter converts to or from text (4 300
# digits by default), on the way in and, as a sum or product of legal
# inputs, out
LONG, WIDE, EDGE = "7" * 5000, "3" * 3000, "9" * 4300


@pytest.mark.parametrize("argv, error", [
    (["parse", f"(0,0,{LONG}.12)"], "ParseError"),
    (["parse", f"(0,0,[{LONG},1])"], "ParseError"),
    (["mmmap", "(0,21,1/2.31)", "--psi", f"{LONG}.123"], "ParseError"),
    (["check23", "(0,21,l.31)", "--bind", f"l={LONG}"], "BindingError"),
    (["corpus", "--fixture", f"(0,21,l.31) | l=1/{LONG}\n"], "BindingError"),
    (["mmmap", f"(0,21,1/{WIDE}.31)", "--psi", f"{WIDE}.123", "--json"],
     "LieKernelError"),
    (["mmmap", f"(0,21,1/{WIDE}.31)", "--psi", f"{WIDE}.123"],
     "LieKernelError"),
    (["parse", f"(0,0,{EDGE}.12+{EDGE}.12)"], "LieKernelError"),
], ids=["tuple-coefficient", "bracketed-index", "psi", "bind", "lie-binding",
        "beta-json", "beta-plain", "canonical-sum"])
def test_numerals_past_the_digit_limit_are_domain_errors(capsys, tmp_path,
                                                         argv, error):
    if argv[0] == "corpus":
        fixture = tmp_path / "long.lie"
        fixture.write_text(argv[2])
        argv = argv[:2] + [str(fixture)]
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == 1 and err == ""
    assert json.loads(out)["error"]["type"] == error


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


@pytest.mark.parametrize("content", ["", "# only a comment\n\n"],
                         ids=["empty", "comment-only"])
def test_corpus_fixture_without_an_algebra_is_an_error(capsys, tmp_path,
                                                       content):
    fixture = tmp_path / "none.lie"
    fixture.write_text(content)
    code, out = run(capsys, "corpus", "--fixture", str(fixture), "--json")
    assert code == 1
    assert json.loads(out)["error"] == {"type": "LieKernelError",
                                        "message": "no algebra in fixture"}


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


# a meta-path finder that refuses every module outside the standard library
# and the package itself
STDLIB_GUARD = """
import sys

class StdlibOnly:
    def find_spec(self, name, path=None, target=None):
        top = name.partition(".")[0]
        if top != "liekernel" and top not in sys.stdlib_module_names:
            raise ImportError(f"{name} is not in the standard library")

sys.meta_path.insert(0, StdlibOnly())
"""
STDLIB_ONLY = STDLIB_GUARD + """
from liekernel.cli import main
sys.exit(main())
"""


def _child_env():
    """The environment with this checkout's package first on PYTHONPATH."""
    src = str(Path(liekernel.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_float_paths_run_on_the_standard_library_alone():
    env = _child_env()
    for argv in (["tables"], ["g2-verify", "--F", "0,1,0,0"],
                 ["g2-flow", "--F", "0,1,0,0", "--compare-closed-form"]):
        proc = subprocess.run(
            [sys.executable, "-c", STDLIB_ONLY, *argv, "--json"],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["schema"] == "liekernel-report/1"


LOADED_MODULES = STDLIB_GUARD + """
import contextlib, io
from liekernel import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:] + ["--json"])
print(code, *sorted(m for m in sys.modules
                   if m.startswith("liekernel.") or m == "dataclasses"))
"""


def test_each_subcommand_imports_only_its_own_modules(tmp_path):
    fixture = tmp_path / "one.lie"
    fixture.write_text("(0,0,12)  # name=h3\n", encoding="utf-8")
    argvs = {
        "parse": ["(0,21,l.31)"],
        "betti": ["(0,0,12)"],
        "check23": ["(0,0,12)"],
        "kernel": ["(0,0,12)"],
        "structure": ["(0,21,1/2.31)"],  # (2,3)-trivial: reads families
        "derivations": ["(0,0,12)"],
        "tables": [],
        "extend": ["(0,0,12)", "--grading", "1,1,2"],
        "mmmap": ["(0,21,1/2.31)", "--psi", "123"],
        "orbit": ["(0,34,-24,23)", "--beta", "12"],
        "g2-verify": [],
        "g2-flow": ["--F", "0,1,0,0", "--step", "0.5"],
        "corpus": ["--fixture", str(fixture), "--triples", "1"],
    }
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert set(argvs) == set(sub.choices)
    env, loaded = _child_env(), {}
    for command, args in argvs.items():
        proc = subprocess.run(
            [sys.executable, "-c", LOADED_MODULES, command, *args],
            capture_output=True, text=True, env=env, timeout=120)
        code, *modules = proc.stdout.split()
        assert code == "0", (command, proc.stdout, proc.stderr)
        loaded[command] = {m.removeprefix("liekernel.") for m in modules}
    for command, modules in loaded.items():
        assert ("g2flow" in modules) == command.startswith("g2-"), command
        assert ("corpus" in modules) == (command == "corpus"), command
        if command in ("parse", "betti", "check23", "kernel", "mmmap",
                       "orbit", "derivations", "g2-verify", "g2-flow"):
            assert "families" not in modules, command
        if command in ("parse", "betti", "check23", "structure",
                       "derivations", "tables", "extend", "g2-verify",
                       "g2-flow"):
            assert "kernelmap" not in modules, command
        if command in ("parse", "derivations", "g2-verify", "g2-flow"):
            assert "cohomology" not in modules, command
        if command in ("parse", "derivations"):
            assert "dataclasses" not in modules, command
    assert "families" in loaded["structure"]
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, liekernel; print(*sorted("
         "m for m in sys.modules if m.startswith('liekernel.')))"],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0 and proc.stdout.split() == []


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


def test_structure_ranks_each_degree_once(capsys, monkeypatch):
    # (2,3)-triviality is read off the Betti report, not ranked again
    from liekernel import cohomology

    calls = []
    rank = cohomology.rank
    monkeypatch.setattr(cohomology, "rank",
                        lambda *a, **k: calls.append(a) or rank(*a, **k))
    code, payload = run_json(capsys, "structure", "(0,12,2.13,-4.14,15)")
    assert code == 0 and payload["result"]["is_23_trivial"] is True
    assert len(calls) == 5


@pytest.mark.parametrize("argv", [[], ["--t-end", "0.1"]],
                         ids=["default-t-end", "t-end"])
def test_flow_curvature_past_the_float_range_is_a_flow_error(capsys, argv):
    code = main(["g2-flow", "--F", "9" * 400 + ",0,0,1", *argv, "--json"])
    out, err = capsys.readouterr()
    assert code == 1 and err == ""
    assert json.loads(out)["error"]["type"] == "FlowError"


def test_flow_interval_keeps_the_root_near_zero_at_large_curvature(capsys):
    # det(1 + tA) = (1 - 10^18 t)(1 - t): the interval ends at 1e-18, not 1
    code, payload = run_json(capsys, "g2-flow", "--F",
                             "0,1000000000000000000,-1,0", "--t-end", "1e-19")
    assert code == 0 and payload["result"]["interval"] == ["-inf", 1e-18]


SU3 = ("(-2.36-2.47,-2.47-2.58,2.16-26+45+78,17+27-35+68,-18+2.28+34+67,"
       "-2.13+23-48-57,-14-24-38+56,15-2.25+37+46)")

# Reports that read the lex basis of Lambda^k (kernel bases, coset
# representatives, d_P images), or structure constants over a common
# denominator above 1, pinned byte for byte.
PINNED_JSON = [
    (('kernel', 'SU3'),
     '{"command":"kernel","input_sha256":"d003754c114027a12a6aa6bc15f552ac30020e58ad87b89d847a686167e40a7b","mode":"exact","result":{"basis_bivectors":["12","13-2.57","14+56","15-46","16-2.78","17-68","18+67","23+57","24+56","25+2.46","26+78","27-68","28-2.67","34-67","35+68","36-47+58","37-46","38+56","45-78","48-57"],"dP_injective":true,"dP_surjective_onto_Z3":false,"dim":20,"formula_value":20,"matches_formula":true},"schema":"liekernel-report/1"}'),
    (('kernel', '(0,0,12)'),
     '{"command":"kernel","input_sha256":"573692959be7d4ec55a2fa82990f7d7849483d9e0b1d1b59bd856cfb3df0954b","mode":"exact","result":{"basis_bivectors":["13","23"],"dP_injective":false,"dP_surjective_onto_Z3":false,"dim":2,"formula_value":2,"matches_formula":true},"schema":"liekernel-report/1"}'),
    (('orbit', 'SU3', '--beta', '34-67'),
     '{"command":"orbit","input_sha256":"a8bf48a2009ea48e5814a3b369cd5408405ce22513018831dc8655975a77491f","mode":"exact","result":{"condition_holds":true,"dP_beta":"3.137-3.146","kernel_dim":3,"orbit_dim":5,"stabilizer_dim":3},"schema":"liekernel-report/1"}'),
    (('orbit', '(0,34,-24,23)', '--beta', '12'),
     '{"command":"orbit","input_sha256":"731646f53dcc69c7e5aaf8f9f12a36a478771635385d20a0419189bd3f80935b","mode":"exact","result":{"condition_holds":false,"dP_beta":"-134","kernel_dim":1,"orbit_dim":2,"stabilizer_dim":2},"schema":"liekernel-report/1"}'),
    (('mmmap', '(0,21,1/2.31)', '--psi', '123'),
     '{"command":"mmmap","input_sha256":"8be2d67457aa9bf2b2e4564255b0468b909d6902611ae33699dafd3c7a2d82a0","mode":"exact","result":{"beta":"-2/3.23","dP_beta":"123","round_trip_ok":true},"schema":"liekernel-report/1"}'),
    (('structure', '(0,12,2.13,-4.14,15)'),
     '{"command":"structure","input_sha256":"eeb656c4e75a6f400a49454a40477b14e1d987a2f2cf61ae445cfaec956931d6","mode":"exact","result":{"betti":[1,1,0,0,1,1],"derived_series_dims":[5,4,0],"is_23_trivial":true,"lower_central_dims":[5,4,4],"nilpotent":false,"solvable":true,"trivial23_consequences":{"b1_is_1":true,"derived_codim_1":true,"derived_nilpotent":true,"not_basis_split":true,"not_nilpotent":true,"solvable":true},"unimodular":true},"schema":"liekernel-report/1"}'),
    (('extend', '(0,0,1/2.12)', '--grading', '1,1,2'),
     '{"command":"extend","input_sha256":"317ab164cdcbe6b4209d15e9bb6f9eef08bf4bed5e8ece977b84ac25cdcedc5f","mode":"exact","result":{"dim":4,"extension":"(0,-12,-13,-2.14+1/2.23)","is_23_trivial":true},"schema":"liekernel-report/1"}'),
    (('structure', '(0,21,1/3.31)'),
     '{"command":"structure","input_sha256":"434501b43842f6ab729904342bdee7d9338bab13fcbd7e2d87f9afbc3afdeb3a","mode":"exact","result":{"betti":[1,1,0,0],"derived_series_dims":[3,2,0],"is_23_trivial":true,"lower_central_dims":[3,2,2],"nilpotent":false,"solvable":true,"trivial23_consequences":{"b1_is_1":true,"derived_codim_1":true,"derived_nilpotent":true,"not_basis_split":true,"not_nilpotent":true,"solvable":true},"unimodular":false},"schema":"liekernel-report/1"}'),
    (('derivations', '(0,0,12,13,23,14+25+a.23,16+25+35+a.24)', '--bind', 'a=1/2'),
     '{"command":"derivations","input_sha256":"17d832affc8896021860488bd9f03b4e1a2e5786268520b5bd386e2f30a39d65","mode":"exact","result":{"characteristically_nilpotent":true,"dim":10},"schema":"liekernel-report/1"}'),
]


@pytest.mark.parametrize("argv, expected", PINNED_JSON, ids=[
    "kernel-su3", "kernel-h3", "orbit-su3", "orbit-u2", "mmmap-r3", "structure-u5",
    "extend-half", "structure-r3-third", "derivations-cn7-half"])
def test_lex_dependent_json_is_pinned(capsys, argv, expected):
    code, out = run(capsys, *(SU3 if a == "SU3" else a for a in argv), "--json")
    assert code == 0
    assert out == expected + "\n"
