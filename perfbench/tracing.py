"""Layer tracer: wraps named liekernel functions from outside the package.

The package binds names with ``from .x import y``, so wrapping only the
defining module would miss most call sites.  ``Tracer.install`` therefore
rebinds every ``liekernel.*`` module attribute that refers to an original
function, and wraps methods and constructors on their class.  Each wrapper
records calls, total time and self time (span minus the time of the child
spans it encloses), keeping aggregates in memory rather than one record per
call, because the corpus workload makes millions of calls.
"""

from __future__ import annotations

import importlib
import sys
from time import perf_counter

# (span name, defining module, attribute path).  Constructors are wrapped
# through ``__init__``, so their span counts objects built.
SPANS = (
    ("parser.parse", "liekernel.parser", "parse"),
    ("parser.instantiate", "liekernel.parser", "instantiate"),
    ("liealg.validate", "liekernel.liealg", "LieAlgebra.validate"),
    ("liealg.bracket", "liekernel.liealg", "LieAlgebra.bracket"),
    ("liealg.derivation_algebra", "liekernel.liealg",
     "LieAlgebra.derivation_algebra"),
    ("exterior.wedge", "liekernel.exterior", "wedge"),
    ("exterior.pairing", "liekernel.exterior", "pairing"),
    ("exterior.KForm.vector", "liekernel.exterior", "KForm.vector"),
    ("linalg.rank", "liekernel.linalg", "rank"),
    ("linalg.rref", "liekernel.linalg", "rref"),
    ("linalg.nullspace", "liekernel.linalg", "nullspace"),
    ("linalg.Subspace", "liekernel.linalg", "Subspace.__init__"),
    ("cohomology.CEComplex", "liekernel.cohomology", "CEComplex.__init__"),
    ("cohomology.CEComplex.d_rows", "liekernel.cohomology", "CEComplex.d_rows"),
    ("cohomology.extend_as_derivation", "liekernel.cohomology",
     "extend_as_derivation"),
    ("cohomology.betti", "liekernel.cohomology", "betti"),
    ("cohomology.invariant_cohomology_dims", "liekernel.cohomology",
     "invariant_cohomology_dims"),
    ("kernelmap.LieKernel", "liekernel.kernelmap", "LieKernel.__init__"),
    ("kernelmap.dP", "liekernel.kernelmap", "dP"),
    ("kernelmap.ad_multivector", "liekernel.kernelmap", "ad_multivector"),
    ("kernelmap.dP_properties", "liekernel.kernelmap", "dP_properties"),
    ("families.verify_tables", "liekernel.families", "verify_tables"),
    ("families.load_corpus", "liekernel.families", "load_corpus"),
    ("g2flow.rk4_integrate", "liekernel.g2flow", "rk4_integrate"),
    ("g2flow.dga_verify_torsion_free", "liekernel.g2flow",
     "dga_verify_torsion_free"),
    ("corpus.check_algebra", "liekernel.corpus", "check_algebra"),
    ("corpus.adjoint_identity_holds", "liekernel.corpus",
     "adjoint_identity_holds"),
    ("corpus.kunneth_pair_check", "liekernel.corpus", "kunneth_pair_check"),
)

# Counters recorded at span boundaries, next to the spans above.
COUNTERS = (
    "linalg.rank.input_cells",
    "linalg.rank.input_nnz",
    "cohomology.d_rows.cells",
    "cohomology.d_rows.nnz",
    "g2flow.rk4_integrate.steps",
)


def matrix_size(rows, ncols=None) -> tuple[int, int]:
    """(cells, nonzeros) of a matrix given as dense rows or sparse dict rows.

    A dict row counts ``ncols`` cells when the caller passed a width, and
    only its stored entries otherwise.
    """
    cells = nnz = 0
    for row in rows:
        if isinstance(row, dict):
            values = row.values()
            cells += len(row) if ncols is None else ncols
        else:
            values = row
            cells += len(row)
        nnz += sum(1 for x in values if x)
    return cells, nnz


class Tracer:
    """Span aggregates for one process; install, run, then uninstall."""

    def __init__(self):
        self.stats = {name: [0, 0.0, 0.0] for name, _, _ in SPANS}
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.missing: list[str] = []
        self.root_s = 0.0  # time covered by spans with no enclosing span
        self._stack: list[float] = []
        self._undo: list[tuple] = []
        self._seen_rows: dict = {}

    # -- hooks ----------------------------------------------------------------

    def _rank_args(self, args, kwargs):
        rows = args[0] if args else kwargs["rows"]
        if not isinstance(rows, (list, tuple)):
            rows = list(rows)
            args = (rows,) + tuple(args[1:]) if args else args
            if "rows" in kwargs:
                kwargs["rows"] = rows
        ncols = args[1] if len(args) > 1 else kwargs.get("ncols")
        cells, nnz = matrix_size(rows, ncols)
        self.counters["linalg.rank.input_cells"] += cells
        self.counters["linalg.rank.input_nnz"] += nnz
        return args, kwargs

    def _rk4_args(self, args, kwargs):
        counters = self.counters
        rhs = args[0] if args else kwargs["rhs"]

        def counted_rhs(*a, **kw):
            counters["g2flow.rk4_integrate.steps"] += 0.25  # four stages a step
            return rhs(*a, **kw)

        if args:
            args = (counted_rhs,) + tuple(args[1:])
        else:
            kwargs["rhs"] = counted_rhs
        return args, kwargs

    def _d_rows_result(self, args, kwargs, result):
        # Count each (complex, degree) matrix once, however often the
        # complex's own cache hands it out again.
        key = (id(args[0]), args[1] if len(args) > 1 else kwargs.get("k"))
        if key in self._seen_rows:
            return
        self._seen_rows[key] = args[0]  # pins the id while the key is held
        cells, nnz = matrix_size(result)
        self.counters["cohomology.d_rows.cells"] += cells
        self.counters["cohomology.d_rows.nnz"] += nnz

    def new_round(self):
        """Forget which complexes were seen, so objects can be freed."""
        self._seen_rows.clear()

    # -- wrapping -------------------------------------------------------------

    def _wrap(self, name, fn, before=None, after=None):
        stat = self.stats[name]
        stack = self._stack
        tracer = self

        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                child = stack.pop()
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt - child
                if stack:
                    stack[-1] += dt
                else:
                    tracer.root_s += dt
            if after is not None:
                after(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def install(self):
        hooks = {
            "linalg.rank": (self._rank_args, None),
            "g2flow.rk4_integrate": (self._rk4_args, None),
            "cohomology.CEComplex.d_rows": (None, self._d_rows_result),
        }
        self.missing = []
        for modname in {m for _, m, _ in SPANS}:
            importlib.import_module(modname)
        package = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "liekernel"
                                         or n.startswith("liekernel."))]
        for name, modname, path in SPANS:
            owner = sys.modules[modname]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, original, *hooks.get(name, (None, None)))
            if outer:  # method or constructor: one binding, on the class
                own = attr in vars(owner)
                setattr(owner, attr, wrapper)
                self._undo.append((owner, attr, original if own else None))
                continue
            for module in package:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._undo.append((module, key, original))
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._undo.clear()
        self._seen_rows.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # -- results --------------------------------------------------------------

    def snapshot(self) -> dict:
        """Plain-data copy of every aggregate, for merging across processes."""
        return {
            "spans": {k: list(v) for k, v in self.stats.items()},
            "counters": dict(self.counters),
            "missing": list(self.missing),
        }


def merge(snapshots) -> dict:
    """Sum span aggregates and counters over several snapshots."""
    spans = {name: [0, 0.0, 0.0] for name, _, _ in SPANS}
    counters = dict.fromkeys(COUNTERS, 0)
    missing = set()
    for snap in snapshots:
        for name, (calls, total, self_s) in snap["spans"].items():
            acc = spans.setdefault(name, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += total
            acc[2] += self_s
        for name, value in snap["counters"].items():
            counters[name] = counters.get(name, 0) + value
        missing.update(snap["missing"])
    return {"spans": spans, "counters": counters, "missing": sorted(missing)}
