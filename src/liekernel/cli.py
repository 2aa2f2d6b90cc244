"""Command-line front end.

Every subcommand prints a human-readable summary by default and a
deterministic JSON report with --json: keys are sorted, rationals are
rendered as "p/q" strings, and floating results carry an explicit mode
and tolerance field.  Exit codes: 0 success, 1 domain error (JSON error
object on stdout), 2 usage error.

Importing this module loads only what argument parsing and the report
need: `errors` and `parser` with its `exterior`, `liealg` and `linalg`.
Each `cmd_*` imports the rest of what it uses when it runs, so a process
loads `cohomology`, `kernelmap`, `families`, `g2flow` or `corpus` only
when its subcommand reaches them.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import stat
import sys
from fractions import Fraction

from .errors import LieKernelError, ParseError
from .exterior import KForm, KVector, hodge_star
from .liealg import LieAlgebra
from .linalg import identity
from .parser import (AlgebraExpr, expr_of, parse, parse_binding, parse_form,
                     parse_rational, serialize, serialize_form, instantiate)

SCHEMA = "liekernel-report/1"


def _jsonable(x):
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, (KForm, KVector)):
        return serialize_form(x)
    if isinstance(x, AlgebraExpr):
        return serialize(x)
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, float) and not math.isfinite(x):
        return repr(x)
    return x


def _emit(args, result: dict, mode: str = "exact", tol: float | None = None) -> int:
    """Print a report; a result too long to write fails before any output."""
    payload = {
        "schema": SCHEMA,
        "command": args.command,
        "input_sha256": hashlib.sha256(
            " ".join(args._raw_argv).encode()).hexdigest(),
        "mode": mode,
    }
    if tol is not None:
        payload["tol"] = tol
    try:
        payload["result"] = _jsonable(result)
        if args.json:
            text = json.dumps(payload, sort_keys=True, separators=(",", ":"),
                              allow_nan=False) + "\n"
        else:
            text = "".join(
                f"{key}: {json.dumps(value, sort_keys=True, allow_nan=False)}\n"
                for key, value in payload["result"].items())
    except ValueError as err:  # an int past `sys.get_int_max_str_digits`
        raise LieKernelError(f"the result cannot be written: {err}") from None
    print(text, end="")
    return 0


def _bindings(args) -> dict:
    return dict(parse_binding(item) for item in args.bind or [])


def _algebra(args) -> LieAlgebra:
    g = instantiate(parse(args.algebra), _bindings(args))
    g.validate()
    return g


# argparse type= converters: a value they refuse is a usage error, exit 2.

def _mat2_arg(text: str):
    try:
        parts = [parse_rational(p) for p in text.split(",")]
    except ParseError:
        parts = []
    if len(parts) != 4:
        raise argparse.ArgumentTypeError(
            f"wants four comma-separated rationals a,b,c,d, got {text!r}")
    return ((parts[0], parts[1]), (parts[2], parts[3]))


def _weights_arg(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(w) for w in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"wants comma-separated integers, got {text!r}") from None


def _finite_float_arg(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"wants a finite number, got {text!r}")
    return value


def _positive_int_arg(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"wants a positive integer, got {text!r}")
    return value


def cmd_parse(args):
    expr = parse(args.algebra)
    return _emit(args, {
        "n": expr.n,
        "canonical": expr,
        "parameters": sorted(expr.parameters),
    })


def cmd_betti(args):
    from .cohomology import betti

    g = _algebra(args)
    rep = betti(g)
    return _emit(args, {
        "b": list(rep.betti),
        "cocycle_dims": list(rep.z_dims),
        "coboundary_dims": list(rep.b_dims),
    })


def cmd_check23(args):
    from .cohomology import complex_of

    cx = complex_of(_algebra(args))
    b2, b3 = cx.betti_number(2), cx.betti_number(3)
    return _emit(args, {"is_23_trivial": b2 == b3 == 0, "b2": b2, "b3": b3})


def cmd_kernel(args):
    from .kernelmap import dP_properties, lie_kernel

    g = _algebra(args)
    kernel = lie_kernel(g)
    formula = kernel.complex.betti_number(1) + g.n * (g.n - 3) // 2
    props = dP_properties(g)
    return _emit(args, {
        "dim": kernel.dim,
        "formula_value": formula,
        "matches_formula": kernel.dim == formula,
        "dP_injective": props.injective,
        "dP_surjective_onto_Z3": props.surjective_onto_Z3,
        "basis_bivectors": kernel.basis(),
    })


def cmd_structure(args):
    from .cohomology import betti

    g = _algebra(args)
    rep = betti(g)
    result = {
        "solvable": g.is_solvable(),
        "nilpotent": g.is_nilpotent(),
        "unimodular": g.is_unimodular(),
        "derived_series_dims": [s.dim for s in g.derived_series()],
        "lower_central_dims": [s.dim for s in g.lower_central_series()],
        "betti": list(rep.betti),
        "is_23_trivial": not any(rep.betti[2:4]),
    }
    if result["is_23_trivial"] and g.n >= 2:
        from .families import trivial23_consequences

        result["trivial23_consequences"] = trivial23_consequences(g)
    return _emit(args, result)


def cmd_derivations(args):
    g = _algebra(args)
    der = g.derivation_algebra()
    result = {"dim": der.dim}
    if g.is_nilpotent():
        result["characteristically_nilpotent"] = \
            g.is_characteristically_nilpotent()
    return _emit(args, result)


def cmd_tables(args):
    from .families import unimodular_quartic_log_sum, verify_tables

    report = verify_tables()
    log_err, roots = unimodular_quartic_log_sum()
    report["quartic_roots"] = roots
    report["quartic_log_sum_abs"] = log_err
    return _emit(args, report)


def cmd_extend(args):
    from .cohomology import is_23_trivial
    from .families import GradedNilpotent, graded_extension

    g = _algebra(args)
    extension = graded_extension(GradedNilpotent(g, args.grading))
    return _emit(args, {
        "extension": expr_of(extension),
        "is_23_trivial": is_23_trivial(extension),
        "dim": extension.n,
    })


def cmd_mmmap(args):
    from .kernelmap import dP, multimoment_value

    g = _algebra(args)
    psi = parse_form(args.psi, g.n, 3)
    beta = multimoment_value(g, psi)
    return _emit(args, {
        "beta": beta.rep,
        "dP_beta": dP(g, beta),
        "round_trip_ok": dP(g, beta) == psi,
    })


def cmd_orbit(args):
    from .kernelmap import dP, orbit_2plectic_check, pdual

    g = _algebra(args)
    beta = pdual(g, parse_form(args.beta, g.n, 2))
    check = orbit_2plectic_check(g, beta)
    return _emit(args, {
        "condition_holds": check.condition_holds,
        "orbit_dim": check.orbit_dim,
        "stabilizer_dim": check.stabilizer_dim,
        "kernel_dim": check.kernel_dim,
        "dP_beta": dP(g, beta),
    })


def cmd_g2_verify(args):
    from .g2flow import (dga_verify_torsion_free, g2t2_decompose,
                         metric_from_phi, phi0, reconstruct_phi,
                         reconstruct_star_phi, star_phi0)

    p0, s0 = phi0(), star_phi0()
    result = {"star_phi0_matches_hodge": hodge_star(p0) == s0}
    metric = metric_from_phi(p0)
    result["metric_is_identity"] = metric.exact and metric.gram == identity(7)
    frame = g2t2_decompose(p0, s0, (1, 0, 0, 0, 0, 0, 0),
                           (0, 1, 0, 0, 0, 0, 0), metric.gram)
    result["torus_frame_phi_reconstruction"] = reconstruct_phi(frame) == p0
    result["torus_frame_star_phi_reconstruction"] = reconstruct_star_phi(frame) == s0
    if args.F is not None:
        cert = dga_verify_torsion_free(args.F)
        result["dga_d_phi_zero"] = cert.d_phi_zero
        result["dga_d_star_phi_zero"] = cert.d_star_phi_zero
    return _emit(args, result)


@contextlib.contextmanager
def _trajectory_csv(path):
    """A row callback writing t,q11,q12,q22,h lines to path as they come.

    A body that raises leaves no partial file; a path that is not a regular
    file (a pipe, a device) is never removed."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("t,q11,q12,q22,h\n")
            try:
                yield lambda *row: fh.write(
                    ",".join(f"{v:.12g}" for v in row) + "\n")
            except BaseException:
                if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                    os.unlink(path)
                raise
    except OSError as err:
        raise LieKernelError(f"cannot write the trajectory: {err}") from None


def cmd_g2_flow(args):
    from .g2flow import (completeness_classify, flow_closed_form,
                         flow_integrate, flow_order_study,
                         max_interval, rk4_stepper_order_selftest)

    f_mat = args.F
    lo, hi = max_interval(f_mat)
    t_end = args.t_end
    if t_end is None:
        if not math.isfinite(hi):
            raise LieKernelError("interval is unbounded; pass --t-end")
        t_end = 0.9 * hi
    with (_trajectory_csv(args.csv) if args.csv
          else contextlib.nullcontext()) as on_row:
        traj = flow_integrate(f_mat, t_end, args.step, on_row)
        final = traj.final
        result = {
            "interval": [lo, hi],
            "t_end": t_end,
            "steps": traj.steps,
            "Q_final": [[final.Q[0][0], final.Q[0][1]],
                        [final.Q[1][0], final.Q[1][1]]],
            "h_final": final.h,
            "h2_detq_residual": traj.h2_detq_residual,
            "completeness": completeness_classify(f_mat),
        }
        if args.compare_closed_form:
            cf = flow_closed_form(
                f_mat, Fraction(t_end).limit_denominator(10 ** 12))
            errs = [abs(final.Q[i][j] - float(cf.Q[i][j]))
                    for i in range(2) for j in range(2)]
            errs.append(abs(final.h - float(cf.h)))
            result["max_abs_err"] = max(errs)
            study = flow_order_study(f_mat, t_end, max(args.step, 1e-2))
            result["order_study"] = {
                "errors": study.errors,
                "observed_order": study.observed_order,
                "roundoff_limited": study.roundoff_limited,
            }
            self_test = rk4_stepper_order_selftest()
            result["stepper_selftest_order"] = self_test.observed_order
    if args.csv:
        result["csv"] = args.csv
    return _emit(args, result, mode="float", tol=1e-8)


def cmd_corpus(args):
    from .corpus import run_corpus_suite
    from .families import load_corpus

    suite = run_corpus_suite(load_corpus(args.fixture or None),
                             triples=args.triples)
    failures = {
        name: [k for k, v in checks.items() if not v]
        for name, checks in suite["algebras"].items()
        if not all(checks.values())
    }
    result = {
        "algebras_checked": len(suite["algebras"]),
        "kunneth_pairs_checked": len(suite["kunneth_pairs"]),
        "failures": failures,
        "kunneth_failures": [k for k, v in suite["kunneth_pairs"].items()
                             if not v],
        "ok": suite["ok"],
    }
    code = _emit(args, result)
    return code if suite["ok"] else 1


_F_HELP = "2x2 curvature coefficients a,b,c,d"

# name, handler, help, whether it takes an algebra, and its extra
# (flag, options) pairs, in the order `liekernel --help` lists them
COMMANDS = (
    ("parse", cmd_parse, "parse and canonicalise a tuple", True, ()),
    ("betti", cmd_betti, "Betti numbers of the CE complex", True, ()),
    ("check23", cmd_check23, "test b2 = b3 = 0", True, ()),
    ("kernel", cmd_kernel, "Lie kernel dimension and d_P flags", True, ()),
    ("structure", cmd_structure, "series, predicates and cohomology", True, ()),
    ("derivations", cmd_derivations, "derivation algebra facts", True, ()),
    ("tables", cmd_tables, "verify the classification-table grids", False, ()),
    ("extend", cmd_extend, "graded extension of a nilpotent algebra", True, (
        ("--grading", dict(required=True, metavar="w1,w2,...", type=_weights_arg,
                           help="layer of each basis element")),)),
    ("mmmap", cmd_mmmap, "invert d_P on a closed three-form", True, (
        ("--psi", dict(required=True, help="three-form literal")),)),
    ("orbit", cmd_orbit, "stabiliser/kernel orbit certificate", True, (
        ("--beta", dict(required=True, help="two-form literal")),)),
    ("g2-verify", cmd_g2_verify, "pointwise G2 identity suite", False, (
        ("--F", dict(type=_mat2_arg, help=_F_HELP)),)),
    ("g2-flow", cmd_g2_flow, "integrate the symplectic-triple flow", False, (
        ("--F", dict(required=True, type=_mat2_arg, help=_F_HELP)),
        ("--t-end", dict(type=_finite_float_arg, default=None, dest="t_end")),
        ("--step", dict(type=_finite_float_arg, default=1e-3)),
        ("--compare-closed-form", dict(action="store_true")),
        ("--csv", dict(help="stream the t,q11,q12,q22,h trajectory")))),
    ("corpus", cmd_corpus, "run the fixture property suite", False, (
        ("--fixture", dict(help="alternative .lie fixture file")),
        ("--triples", dict(
            type=_positive_int_arg, default=25,
            help="random triples per algebra for the pairing identity")))),
)


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="liekernel",
        description="Exact Lie-algebra cohomology, Lie kernels, and the "
                    "G2 symplectic-triple flow.")
    sub = top.add_subparsers(dest="command", required=True)
    for name, func, help_text, algebra, options in COMMANDS:
        p = sub.add_parser(name, help=help_text)
        if algebra:
            p.add_argument("algebra", help="structure tuple, e.g. \"(0,21,l.31)\"")
            p.add_argument("--bind", action="append", metavar="name=p/q",
                           help="bind a parameter (repeatable)")
        p.add_argument("--json", action="store_true",
                       help="emit the versioned JSON report")
        for flag, kwargs in options:
            p.add_argument(flag, **kwargs)
        p.set_defaults(func=func)
    return top


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    args._raw_argv = argv
    try:
        return args.func(args)
    except LieKernelError as err:
        print(json.dumps({
            "schema": SCHEMA,
            "error": {"type": type(err).__name__, "message": str(err)},
        }, sort_keys=True, allow_nan=False))
        return 1


if __name__ == "__main__":
    sys.exit(main())
