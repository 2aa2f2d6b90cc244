"""Command-line front end.

Every subcommand prints a human-readable summary by default and a
deterministic JSON report with --json: keys are sorted, rationals are
rendered as "p/q" strings, and floating results carry an explicit mode
and tolerance field.  Exit codes: 0 success, 1 domain error (JSON error
object on stdout), 2 usage error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from fractions import Fraction

from . import corpus as corpus_mod
from .cohomology import betti, is_23_trivial
from .errors import LieKernelError, ParseError
from .exterior import KForm, hodge_star
from .families import (GradedNilpotent, graded_extension,
                       load_corpus, trivial23_consequences,
                       unimodular_quartic_log_sum, verify_tables)
from .g2flow import (completeness_classify, dga_verify_torsion_free,
                     flow_closed_form, flow_integrate, flow_order_study,
                     g2t2_decompose, max_interval, metric_from_phi, phi0,
                     reconstruct_phi, reconstruct_star_phi,
                     rk4_stepper_order_selftest, star_phi0)
from .kernelmap import (LieKernel, dP, dP_properties, multimoment_value, orbit_2plectic_check, pdual)
from .liealg import LieAlgebra
from .linalg import identity
from .parser import (expr_of, parse, parse_binding, parse_form, parse_rational,
                     serialize, serialize_form, instantiate)

SCHEMA = "liekernel-report/1"


def _jsonable(x):
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, KForm):
        return serialize_form(x)
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, float) and not math.isfinite(x):
        return repr(x)
    return x


def _emit(args, result: dict, mode: str = "exact", tol: float | None = None) -> int:
    payload = {
        "schema": SCHEMA,
        "command": args.command,
        "input_sha256": hashlib.sha256(
            " ".join(args._raw_argv).encode()).hexdigest(),
        "mode": mode,
        "result": _jsonable(result),
    }
    if tol is not None:
        payload["tol"] = tol
    if args.json:
        print(json.dumps(payload, sort_keys=True, separators=(",", ":"),
                         allow_nan=False))
    else:
        for key, value in payload["result"].items():
            print(f"{key}: {json.dumps(value, sort_keys=True, allow_nan=False)}")
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
        "canonical": serialize(expr),
        "parameters": sorted(expr.parameters),
    })


def cmd_betti(args):
    g = _algebra(args)
    rep = betti(g)
    return _emit(args, {
        "b": list(rep.betti),
        "cocycle_dims": list(rep.z_dims),
        "coboundary_dims": list(rep.b_dims),
    })


def cmd_check23(args):
    g = _algebra(args)
    rep = betti(g)
    return _emit(args, {
        "is_23_trivial": rep.betti[2] == 0 and rep.betti[3] == 0,
        "b2": rep.betti[2],
        "b3": rep.betti[3],
    })


def cmd_kernel(args):
    g = _algebra(args)
    kernel = LieKernel(g)
    rep = betti(g)
    formula = rep.betti[1] + g.n * (g.n - 3) // 2
    props = dP_properties(g, kernel)
    basis = [serialize_form(b) for b in kernel.basis()]
    return _emit(args, {
        "dim": kernel.dim,
        "formula_value": formula,
        "matches_formula": kernel.dim == formula,
        "dP_injective": props.injective,
        "dP_surjective_onto_Z3": props.surjective_onto_Z3,
        "basis_bivectors": basis,
    })


def cmd_structure(args):
    g = _algebra(args)
    rep = betti(g)
    result = {
        "solvable": g.is_solvable(),
        "nilpotent": g.is_nilpotent(),
        "unimodular": g.is_unimodular(),
        "derived_series_dims": [s.dim for s in g.derived_series()],
        "lower_central_dims": [s.dim for s in g.lower_central_series()],
        "betti": list(rep.betti),
        "is_23_trivial": rep.betti[2] == 0 and rep.betti[3] == 0,
    }
    if result["is_23_trivial"] and g.n >= 2:
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
    report = verify_tables()
    log_err, roots = unimodular_quartic_log_sum()
    report["quartic_roots"] = roots
    report["quartic_log_sum_abs"] = log_err
    return _emit(args, report)


def cmd_extend(args):
    g = _algebra(args)
    extension = graded_extension(GradedNilpotent(g, args.grading))
    return _emit(args, {
        "extension": serialize(expr_of(extension)),
        "is_23_trivial": is_23_trivial(extension),
        "dim": extension.n,
    })


def cmd_mmmap(args):
    g = _algebra(args)
    psi = parse_form(args.psi, g.n, 3)
    beta = multimoment_value(g, psi)
    return _emit(args, {
        "beta": serialize_form(beta.rep),
        "dP_beta": serialize_form(dP(g, beta)),
        "round_trip_ok": dP(g, beta) == psi,
    })


def cmd_orbit(args):
    g = _algebra(args)
    kernel = LieKernel(g)
    beta = pdual(g, parse_form(args.beta, g.n, 2), kernel)
    check = orbit_2plectic_check(g, beta, kernel)
    return _emit(args, {
        "condition_holds": check.condition_holds,
        "orbit_dim": check.orbit_dim,
        "stabilizer_dim": check.stabilizer_dim,
        "kernel_dim": check.kernel_dim,
        "dP_beta": serialize_form(dP(g, beta)),
    })


def cmd_g2_verify(args):
    p0, s0 = phi0(), star_phi0()
    result = {
        "star_phi0_matches_hodge": hodge_star(p0) == s0,
        "metric_is_identity": False,
        "torus_frame_phi_reconstruction": False,
        "torus_frame_star_phi_reconstruction": False,
    }
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


def cmd_g2_flow(args):
    f_mat = args.F
    lo, hi = max_interval(f_mat)
    t_end = args.t_end
    if t_end is None:
        if not math.isfinite(hi):
            raise LieKernelError("interval is unbounded; pass --t-end")
        t_end = 0.9 * hi
    traj = flow_integrate(f_mat, t_end, args.step)
    final = traj.final
    result = {
        "interval": [lo, hi],
        "t_end": t_end,
        "steps": len(traj.samples) - 1,
        "Q_final": [[final.Q[0][0], final.Q[0][1]],
                    [final.Q[1][0], final.Q[1][1]]],
        "h_final": final.h,
        "h2_detq_residual": traj.h2_detq_residual(),
        "completeness": completeness_classify(f_mat),
    }
    if args.compare_closed_form:
        cf = flow_closed_form(f_mat, Fraction(t_end).limit_denominator(10 ** 12))
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
        try:
            with open(args.csv, "w", encoding="utf-8") as fh:
                fh.write("t,q11,q12,q22,h\n")
                for row in traj.samples:
                    fh.write(",".join(f"{v:.12g}" for v in row) + "\n")
        except OSError as err:
            raise LieKernelError(f"cannot write the trajectory: {err}") from None
        result["csv"] = args.csv
    return _emit(args, result, mode="float", tol=1e-8)


def cmd_corpus(args):
    suite = corpus_mod.run_corpus_suite(load_corpus(args.fixture or None),
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


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="liekernel",
        description="Exact Lie-algebra cohomology, Lie kernels, and the "
                    "G2 symplectic-triple flow.")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, algebra=True):
        if algebra:
            p.add_argument("algebra", help="structure tuple, e.g. \"(0,21,l.31)\"")
            p.add_argument("--bind", action="append", metavar="name=p/q",
                           help="bind a parameter (repeatable)")
        p.add_argument("--json", action="store_true",
                       help="emit the versioned JSON report")

    p = sub.add_parser("parse", help="parse and canonicalise a tuple")
    common(p)
    p.set_defaults(func=cmd_parse)

    p = sub.add_parser("betti", help="Betti numbers of the CE complex")
    common(p)
    p.set_defaults(func=cmd_betti)

    p = sub.add_parser("check23", help="test b2 = b3 = 0")
    common(p)
    p.set_defaults(func=cmd_check23)

    p = sub.add_parser("kernel", help="Lie kernel dimension and d_P flags")
    common(p)
    p.set_defaults(func=cmd_kernel)

    p = sub.add_parser("structure", help="series, predicates and cohomology")
    common(p)
    p.set_defaults(func=cmd_structure)

    p = sub.add_parser("derivations", help="derivation algebra facts")
    common(p)
    p.set_defaults(func=cmd_derivations)

    p = sub.add_parser("tables", help="verify the classification-table grids")
    common(p, algebra=False)
    p.set_defaults(func=cmd_tables)

    p = sub.add_parser("extend", help="graded extension of a nilpotent algebra")
    common(p)
    p.add_argument("--grading", required=True, metavar="w1,w2,...",
                   type=_weights_arg,
                   help="layer of each basis element")
    p.set_defaults(func=cmd_extend)

    p = sub.add_parser("mmmap", help="invert d_P on a closed three-form")
    common(p)
    p.add_argument("--psi", required=True, help="three-form literal")
    p.set_defaults(func=cmd_mmmap)

    p = sub.add_parser("orbit", help="stabiliser/kernel orbit certificate")
    common(p)
    p.add_argument("--beta", required=True, help="two-form literal")
    p.set_defaults(func=cmd_orbit)

    p = sub.add_parser("g2-verify", help="pointwise G2 identity suite")
    common(p, algebra=False)
    p.add_argument("--F", type=_mat2_arg,
                   help="2x2 curvature coefficients a,b,c,d")
    p.set_defaults(func=cmd_g2_verify)

    p = sub.add_parser("g2-flow", help="integrate the symplectic-triple flow")
    common(p, algebra=False)
    p.add_argument("--F", required=True, type=_mat2_arg,
                   help="2x2 curvature coefficients a,b,c,d")
    p.add_argument("--t-end", type=_finite_float_arg, default=None,
                   dest="t_end")
    p.add_argument("--step", type=_finite_float_arg, default=1e-3)
    p.add_argument("--compare-closed-form", action="store_true")
    p.add_argument("--csv", help="dump t,q11,q12,q22,h trajectory")
    p.set_defaults(func=cmd_g2_flow)

    p = sub.add_parser("corpus", help="run the fixture property suite")
    common(p, algebra=False)
    p.add_argument("--fixture", help="alternative .lie fixture file")
    p.add_argument("--triples", type=_positive_int_arg, default=25,
                   help="random triples per algebra for the pairing identity")
    p.set_defaults(func=cmd_corpus)

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
