"""The package's exported names: lazily loaded, each the object its home
module defines, and exactly the names of the eager package before it."""

import importlib
import inspect
import pkgutil
import re
import sys
from pathlib import Path

import pytest

import liekernel

EXPORTS = {
    "cohomology": ["CEComplex", "CohomologyReport", "betti", "ce_differential",
                   "complex_of", "invariant_cohomology_dims", "is_23_trivial",
                   "lie_derivative"],
    "errors": ["AdmissibilityError", "BindingError", "DimensionMismatch",
               "FlowError", "G2Error", "HodgeError", "JacobiError",
               "LieKernelError", "MomentMapError", "ParseError",
               "SubspaceError"],
    "exterior": ["KForm", "KVector", "basis_form", "basis_vector",
                 "bivector_contract", "covector_of", "evaluate", "hodge_star",
                 "interior", "multi_indices", "pairing", "pullback",
                 "vector_of", "wedge", "wedge_all"],
    "families": ["CorpusEntry", "FamilySpec", "GradedNilpotent",
                 "corpus_algebra", "graded_extension", "load_corpus",
                 "make_family", "make_unimodular_5dim",
                 "seven_dim_characteristically_nilpotent", "su2", "su3",
                 "trivial23_consequences", "u2", "verify_tables"],
    "g2flow": ["CoherentTripleFrame", "FlowDGA", "FlowState", "G2Frame",
               "MetricResult", "Poly", "SU3Structure", "completeness_classify",
               "dga_evolution_identities", "dga_verify_torsion_free",
               "flow_closed_form", "flow_integrate", "flow_order_study",
               "g2t2_decompose", "halfflat_condition", "max_interval",
               "metric_from_phi", "phi0", "reconstruct_phi",
               "reconstruct_star_phi", "rk4_stepper_order_selftest",
               "standard_hyperkahler_triple", "star_phi0", "su3_structure"],
    "kernelmap": ["DPProperties", "LieKernel", "OrbitCheck", "PDualElement",
                  "dP", "dP_properties", "kernel_of_psi", "lie_kernel",
                  "multimoment_value", "orbit_2plectic_check", "pdual",
                  "stabilizer"],
    "liealg": ["LieAlgebra"],
    "linalg": ["Subspace"],
    "parser": ["AlgebraExpr", "instantiate", "load_lie_file", "parse",
               "parse_algebra", "parse_form", "serialize", "serialize_form"],
}
NAMES = sorted(name for names in EXPORTS.values() for name in names)


@pytest.mark.parametrize("module", sorted(EXPORTS))
def test_every_export_is_its_home_modules_object(module):
    home = importlib.import_module(f"liekernel.{module}")
    for name in EXPORTS[module]:
        scope = {}
        exec(f"from liekernel import {name}", scope)
        assert scope[name] is getattr(home, name) is getattr(liekernel, name)


def test_all_and_dir_list_exactly_the_exports():
    assert sorted(liekernel.__all__) == NAMES
    assert sorted(dir(liekernel)) == NAMES


def test_star_import_binds_every_export():
    scope = {}
    exec("from liekernel import *", scope)
    assert sorted(set(scope) - {"__builtins__"}) == NAMES


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="nonexistent"):
        liekernel.nonexistent
    # a submodule is no export: importing it by name still works
    from liekernel import cohomology
    assert cohomology is sys.modules["liekernel.cohomology"]


def test_readme_layout_names_resolve():
    """Each identifier in backticks in README's Layout table is a module, a
    module-level name or a class attribute of the package; the exceptions
    are `liekernel` commands and the binding name `l2`.  A span that does
    not start with an identifier, such as `.lie` or `--bind`, is none."""
    modules = [importlib.import_module(f"liekernel.{m.name}")
               for m in pkgutil.iter_modules(liekernel.__path__)]
    known = {m.__name__.rsplit(".", 1)[1] for m in modules}
    for module in modules:
        known.update(vars(module))
        known.update(attr for cls in vars(module).values()
                     if inspect.isclass(cls) and cls.__module__ == module.__name__
                     for attr in vars(cls))
    readme = Path(__file__).resolve().parents[1] / "README.md"
    table = readme.read_text(encoding="utf-8").split("## Layout", 1)[1]
    rows = [line for line in table.split("\n\n")[1].splitlines()
            if line.startswith("| `")]
    assert rows
    stale = []
    for span in re.findall(r"`([^`]+)`", "\n".join(rows)):
        name = re.match(r"[A-Za-z_]\w*", span)
        if (name and name[0] not in known and name[0] != "l2"
                and span.split()[0] != "liekernel"):
            stale.append(span)
    assert stale == []
