"""Seeded inputs, operations and answer checks of the benchmark workloads.

Every workload turns a seed into a fixed list of inputs, and a *round* runs
that whole list once.  The program only ever sees the generated inputs:
tuple texts for the Betti workloads, renamed corpus entries for ``corpus``
and argument vectors for ``cli``.  Expected answers are values recorded
here, never recomputed by the code under test.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
TMP = ROOT / ".perfbench_tmp"

CLI_ENTRY = "import sys; from liekernel.cli import main; sys.exit(main())"
CLI_TIMEOUT_S = 60

# Betti numbers of the corpus fixtures (src/liekernel/data/corpus.lie):
# the reference for every Betti answer the benchmark checks.
FIXTURE_BETTI = {
    "R1": (1, 1),
    "aff1": (1, 1, 0),
    "h3": (1, 2, 2, 1),
    "su2": (1, 0, 0, 1),
    "n5_filiform": (1, 2, 3, 3, 2, 1),
    "n5_235": (1, 2, 3, 3, 2, 1),
    "h5": (1, 4, 5, 5, 4, 1),
    "cn7_a1": (1, 2, 3, 4, 4, 3, 2, 1),
    "cn7_a2": (1, 2, 3, 4, 4, 3, 2, 1),
    "su3": (1, 0, 0, 1, 0, 1, 0, 0, 1),
}

# Basis-aligned direct sums: one n = 11, seven n = 10 and one n = 9.  Three
# n = 10 sums appear twice, under independent transforms, so that the median
# operation is the middle n = 10 one and the nearest-rank p90 the n = 11 one,
# and the round averages over more random bases.
SPARSE_SUMS = (
    ("su3", "su2"),
    ("su3", "aff1"),
    ("cn7_a1", "h3"),
    ("n5_filiform", "n5_235"),
    ("h5", "h5"),
    ("su3", "aff1"),
    ("cn7_a1", "h3"),
    ("n5_filiform", "n5_235"),
    ("su3", "R1"),
)
DENSE_ALGEBRAS = (
    ("su3",),
    ("cn7_a1",),
    ("cn7_a2",),
    ("su3", "R1"),
    ("su2", "su2", "su2"),
)
# Diagonal rescalings are drawn from these small rationals, so the CE
# matrices keep the sparsity of the fixtures and gain denominators.
SCALES = tuple(Fraction(x) * sign for x in ("1", "2", "3", "1/2", "1/3", "2/3",
                                           "3/2") for sign in (1, -1))

CORPUS_TRIPLES = 100
CORPUS_SIZE = 32
CORPUS_KUNNETH_PAIRS = 66


class Op(NamedTuple):
    """Outcome of one operation: latency, and how it went wrong if it did."""

    label: str
    seconds: float
    failed: bool  # raised, gave a wrong answer, or broke the CLI contract
    wrong: bool  # returned an answer that disagrees with the expected one
    coverage: float | None = None  # share of the op inside root spans


def digest(data) -> str:
    blob = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def kunneth(*vectors) -> tuple[int, ...]:
    """Betti numbers of a direct sum: the convolution of its summands'."""
    out = (1,)
    for v in vectors:
        acc = [0] * (len(out) + len(v) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(v):
                acc[i + j] += a * b
        out = tuple(acc)
    return out


# -- Betti workloads ----------------------------------------------------------

def _fixtures() -> dict:
    from liekernel import families

    return {e.name: e.algebra for e in families.load_corpus()}


def _direct_sum(fixtures, names):
    g = fixtures[names[0]]
    for name in names[1:]:
        g = g.direct_sum(fixtures[name])
    return g


def _sparse_form(c, rng):
    """Permute the basis and rescale it by a diagonal matrix of rationals."""
    n = len(c)
    perm = list(range(n))
    rng.shuffle(perm)
    s = [rng.choice(SCALES) for _ in range(n)]
    out = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for a in range(n):
        for b in range(n):
            row = c[perm[a]][perm[b]]
            for k in range(n):
                q = row[perm[k]]
                if q:
                    out[a][b][k] = q * s[a] * s[b] / s[k]
    return out


def _unit_triangular(n, rng, lower):
    return [[1 if i == j else
             (rng.choice((-1, 0, 1, 1)) if (j < i if lower else j > i) else 0)
             for j in range(n)] for i in range(n)]


def _triangular_inverse(t, lower):
    """Inverse of a unit triangular integer matrix, by substitution."""
    n = len(t)
    inv = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    order = range(n) if lower else range(n - 1, -1, -1)
    for i in order:
        for j in range(n):
            inner = range(i) if lower else range(i + 1, n)
            inv[i][j] = (1 if i == j else 0) - sum(t[i][m] * inv[m][j]
                                                   for m in inner)
    return inv


def _matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
            for row in a]


def _dense_form(c, rng):
    """Change basis by a seeded unimodular integer matrix P = L U.

    New constants are c'_ab^d = sum_ijk P_ia P_jb c_ij^k Q_dk with Q = P^-1,
    which fills in almost every structure constant.  The fixtures used here
    have integer constants, so the arithmetic stays in int.
    """
    n = len(c)
    lo, up = _unit_triangular(n, rng, True), _unit_triangular(n, rng, False)
    p = _matmul(lo, up)
    q = _matmul(_triangular_inverse(up, False), _triangular_inverse(lo, True))
    t1 = [[[0] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                x = int(c[i][j][k])
                if x:
                    for a in range(n):
                        if p[i][a]:
                            t1[a][j][k] += p[i][a] * x
    pt = list(zip(*p))
    t2 = [[[sum(x * y for x, y in zip(pt[b], col)) for col in zip(*t1[a])]
           for b in range(n)] for a in range(n)]
    return [[[sum(x * y for x, y in zip(t2[a][b], row)) for row in q]
             for b in range(n)] for a in range(n)]


def _tuple_text(c) -> str:
    from liekernel import liealg, parser

    return parser.serialize(parser.expr_of(liealg.LieAlgebra.unchecked(c)))


def betti_inputs(workload: str, seed: int) -> list[dict]:
    """Tuple texts and expected Betti numbers for betti-sparse/betti-dense."""
    rng = random.Random(f"{workload}:{seed}")
    fixtures = _fixtures()
    sparse = workload == "betti-sparse"
    out = []
    for names in (SPARSE_SUMS if sparse else DENSE_ALGEBRAS):
        g = _direct_sum(fixtures, names)
        c = (_sparse_form if sparse else _dense_form)(g.c, rng)
        out.append({
            "name": "+".join(names),
            "text": _tuple_text(c),
            "expected": list(kunneth(*(FIXTURE_BETTI[n] for n in names))),
        })
    return out


def betti_round(inputs, tracer=None) -> list[Op]:
    """Text to Betti numbers: parse_algebra, validate, CEComplex, betti."""
    from liekernel import cohomology, parser

    ops = []
    for item in inputs:
        root0 = tracer.root_s if tracer else 0.0
        t0 = perf_counter()
        try:
            g = parser.parse_algebra(item["text"], validate=False)
            g.validate()
            cx = cohomology.CEComplex(g)
            got = list(cohomology.betti(g, cx).betti)
        except Exception as err:  # a raising operation is a failed one
            print(f"perfbench: {item['name']}: {err!r}", file=sys.stderr)
            got = None
        dt = perf_counter() - t0
        wrong = got is not None and got != item["expected"]
        coverage = (tracer.root_s - root0) / dt if tracer else None
        ops.append(Op(item["name"], dt, got is None or wrong, wrong, coverage))
    return ops


# -- corpus workload ----------------------------------------------------------

def corpus_inputs(seed: int) -> dict:
    """Seed-suffixed entry names; they seed the suite's per-name RNG."""
    from liekernel import families

    names = sorted(e.name for e in families.load_corpus())
    return {"names": {n: f"{n}~{seed}" for n in names},
            "triples": CORPUS_TRIPLES}


def corpus_round(inputs, tracer=None) -> list[Op]:
    """One run_corpus_suite round on a freshly loaded corpus."""
    from liekernel import corpus, families

    root0 = tracer.root_s if tracer else 0.0
    t0 = perf_counter()
    wrong = False
    try:
        entries = [dataclasses.replace(e, name=inputs["names"][e.name])
                   for e in families.load_corpus()]
        suite = corpus.run_corpus_suite(entries, triples=inputs["triples"])
    except Exception as err:
        print(f"perfbench: corpus: {err!r}", file=sys.stderr)
        suite = None
    dt = perf_counter() - t0
    if suite is not None:
        algebras = suite["algebras"]
        pairs = suite["kunneth_pairs"]
        wrong = not (
            sorted(algebras) == sorted(inputs["names"].values())
            and len(algebras) == CORPUS_SIZE
            and all(all(checks.values()) for checks in algebras.values())
            and len(pairs) == CORPUS_KUNNETH_PAIRS
            and all(pairs.values())
            and suite["ok"] is True)
    coverage = (tracer.root_s - root0) / dt if tracer else None
    return [Op("corpus", dt, suite is None or wrong, wrong, coverage)]


# -- cli workload -------------------------------------------------------------

SU3 = ("(-2.36-2.47,-2.47-2.58,2.16-26+45+78,17+27-35+68,-18+2.28+34+67,"
       "-2.13+23-48-57,-14-24-38+56,15-2.25+37+46)")
R3L = "(0,21,l.31)"
CN7 = "(0,0,12,13,23,14+25+a.23,16+25+35+a.24)"
# Admissible parameter sets, from the verify_tables grids.
R3L_VALUES = ("-1/2", "-1/4", "1/4", "1/2", "3/4", "1")
CN7_VALUES = ("1", "2")
# Trace-free curvature matrices, for which the G2 structure is torsion-free.
G2_F_VALUES = ("0,1,0,0", "1,2,3,-1", "0,1,-1,0")
EXTENSIONS = (("(0,0,12)", "1,1,2", 4), ("(0,0,12,13)", "1,1,2,3", 5))
CORPUS_FIXTURE = ("(0,0,12)  # name=h3\n"
                  "(0,21,l.31) | l=1/2  # name=r3l\n"
                  "(-2.23,2.13,-2.12)  # name=su2\n")
CLI_ROUNDS = 12  # round plans generated per seed; runs cycle through them


def _plan(rng, fixture: str) -> list[dict]:
    """One round of 20: every subcommand, su(3) variants, two error paths."""
    l = rng.choice(R3L_VALUES)
    ext, weights, ext_dim = rng.choice(EXTENSIONS)
    plan = [
        ("parse", [R3L],
         {"n": 3, "canonical": R3L, "parameters": ["l"]}),
        ("betti", ["(0,0,12)"], {"b": [1, 2, 2, 1]}),
        ("betti", [SU3], {"b": list(FIXTURE_BETTI["su3"])}),
        ("check23", [R3L, "--bind", f"l={rng.choice(R3L_VALUES)}"],
         {"is_23_trivial": True, "b2": 0, "b3": 0}),
        ("kernel", ["(0,0,12)"], {"dim": 2, "matches_formula": True}),
        ("kernel", [SU3], {"dim": 20, "matches_formula": True,
                           "dP_injective": True}),
        ("structure", [R3L, "--bind", f"l={l}"],
         {"solvable": True, "nilpotent": False, "betti": [1, 1, 0, 0]}),
        ("structure", [SU3], {"solvable": False, "unimodular": True,
                              "betti": list(FIXTURE_BETTI["su3"])}),
        ("derivations", [CN7, "--bind", f"a={rng.choice(CN7_VALUES)}"],
         {"characteristically_nilpotent": True}),
        ("derivations", [SU3], {"dim": 8}),
        ("tables", [], {"ok": True}),
        ("extend", [ext, "--grading", weights],
         {"dim": ext_dim, "is_23_trivial": True}),
        ("mmmap", [R3L, "--bind", f"l={rng.choice(R3L_VALUES)}",
                   "--psi", "123"], {"round_trip_ok": True}),
        ("orbit", ["(0,34,-24,23)", "--beta", "12"],
         {"condition_holds": False, "orbit_dim": 2}),
        # beta_1 = B12^B13 - C12^C13 on su(3), the paper's 2-plectic example
        ("orbit", [SU3, "--beta", "34-67"],
         {"condition_holds": True, "orbit_dim": 5}),
        ("g2-verify", ["--F", rng.choice(G2_F_VALUES)],
         {"star_phi0_matches_hodge": True, "metric_is_identity": True,
          "dga_d_phi_zero": True, "dga_d_star_phi_zero": True}),
        ("g2-flow", ["--F", "0,1,0,0", "--step", "1e-4"],
         {"t_end": 0.9, "interval": ["-inf", 1.0],
          "completeness": "half_complete"}),
        ("corpus", ["--fixture", fixture, "--triples", "5"],
         {"ok": True, "algebras_checked": 3}),
    ]
    out = [{"argv": [cmd, *args, "--json"],
            "expect": {"exit": 0, "result": spots}} for cmd, args, spots in plan]
    # Error paths: a Jacobi-violating tuple, and a malformed binding that
    # must be refused with exit 1 (JSON error) or 2 (usage), no traceback.
    out.append({"argv": ["betti", "(0,0,12,34)", "--json"],
                "expect": {"exit": 1, "error": "JacobiError"}})
    out.append({"argv": ["check23", R3L, "--bind", "l=abc", "--json"],
                "expect": {"exit": "refused"}})
    rng.shuffle(out)
    return out


def cli_inputs(seed: int) -> list[list[dict]]:
    rng = random.Random(f"cli:{seed}")
    fixture = str((TMP / "cli_fixture.lie").relative_to(ROOT))
    return [_plan(rng, fixture) for _ in range(CLI_ROUNDS)]


def prepare_cli_files():
    TMP.mkdir(exist_ok=True)
    (TMP / "cli_fixture.lie").write_text(CORPUS_FIXTURE, encoding="utf-8")


WORKLOADS = ("betti-sparse", "betti-dense", "corpus", "cli")


def build_inputs(workload: str, seed: int):
    if workload == "corpus":
        return corpus_inputs(seed)
    if workload == "cli":
        return cli_inputs(seed)
    return betti_inputs(workload, seed)


def child_env() -> dict:
    """Environment for every process the benchmark starts."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def judge_cli(expect: dict, code: int, stdout: str, stderr: str
              ) -> tuple[bool, bool]:
    """(failed, wrong) for one invocation against its expected outcome."""
    try:
        payload = json.loads(stdout) if stdout.strip() else None
    except ValueError:
        payload = None
    if "Traceback" in stderr:
        return True, False
    if expect["exit"] == "refused":
        if code == 2 and not stdout.strip():
            return False, False
        ok = (code == 1 and isinstance(payload, dict)
              and payload.get("schema") == "liekernel-report/1"
              and "error" in payload)
        return not ok, False
    if not isinstance(payload, dict) or payload.get("schema") != \
            "liekernel-report/1":
        return True, False
    if "error" in expect:
        ok = code == 1 and payload.get("error", {}).get("type") == \
            expect["error"]
        wrong = code == 0  # a result where the input has none
        return not ok, wrong
    if code != 0:
        return True, False
    result = payload.get("result", {})
    wrong = any(result.get(k) != v for k, v in expect["result"].items())
    if payload.get("mode") == "float":
        residual = result.get("h2_detq_residual")
        wrong = wrong or not (isinstance(residual, float)
                              and residual <= payload.get("tol", 0.0))
    return wrong, wrong


def run_cli(argv, env, stats_path=None) -> tuple[float, int, str, str]:
    """One fresh CLI process, plain or through the tracing launcher."""
    if stats_path is None:
        cmd = [sys.executable, "-c", CLI_ENTRY, *argv]
    else:
        cmd = [sys.executable, str(BENCH / "launcher.py"), str(stats_path),
               *argv]
    t0 = perf_counter()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              cwd=ROOT, timeout=CLI_TIMEOUT_S)
    except subprocess.TimeoutExpired as err:
        return perf_counter() - t0, -1, "", f"timeout after {err.timeout} s"
    return perf_counter() - t0, proc.returncode, proc.stdout, proc.stderr


def cli_round(plan, env, traced=False) -> tuple[list[Op], list[dict]]:
    """Run one round plan; returns the ops and, if traced, span snapshots."""
    ops, snaps = [], []
    for i, item in enumerate(plan):
        stats = TMP / f"trace-{i}.json" if traced else None
        dt, code, out, err = run_cli(item["argv"], env, stats)
        failed, wrong = judge_cli(item["expect"], code, out, err)
        coverage = None
        if stats is not None and stats.exists():
            snap = json.loads(stats.read_text(encoding="utf-8"))
            stats.unlink()
            snaps.append(snap)
            coverage = snap["coverage"]
        ops.append(Op(item["argv"][0], dt, failed, wrong, coverage))
    return ops, snaps
