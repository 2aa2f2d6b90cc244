"""Exact Lie-algebra cohomology, Lie kernels and multi-moment pairings,
with a desk-scale G2 symplectic-triple flow component.

`import liekernel` loads no submodule.  Each exported name is imported
from its home module on first access (PEP 562) and then cached on the
package, so `from liekernel import betti` loads `cohomology` and what it
imports, and nothing else.
"""

import importlib

__version__ = "0.1.0"

# home module -> the names the package exports from it
_EXPORTS = {
    "cohomology": ("CEComplex", "CohomologyReport", "betti", "ce_differential",
                   "complex_of", "invariant_cohomology_dims", "is_23_trivial",
                   "lie_derivative"),
    "errors": ("AdmissibilityError", "BindingError", "DimensionMismatch",
               "FlowError", "G2Error", "HodgeError", "JacobiError",
               "LieKernelError", "MomentMapError", "ParseError",
               "SubspaceError"),
    "exterior": ("KForm", "KVector", "basis_form", "basis_vector",
                 "bivector_contract", "covector_of", "evaluate", "hodge_star",
                 "interior", "multi_indices", "pairing", "pullback",
                 "vector_of", "wedge", "wedge_all"),
    "families": ("CorpusEntry", "FamilySpec", "GradedNilpotent",
                 "corpus_algebra", "graded_extension", "load_corpus",
                 "make_family", "make_unimodular_5dim",
                 "seven_dim_characteristically_nilpotent", "su2", "su3",
                 "trivial23_consequences", "u2", "verify_tables"),
    "g2flow": ("CoherentTripleFrame", "FlowDGA", "FlowState", "G2Frame",
               "MetricResult", "Poly", "SU3Structure", "completeness_classify",
               "dga_evolution_identities", "dga_verify_torsion_free",
               "flow_closed_form", "flow_integrate", "flow_order_study",
               "g2t2_decompose", "halfflat_condition", "max_interval",
               "metric_from_phi", "phi0", "reconstruct_phi",
               "reconstruct_star_phi", "rk4_stepper_order_selftest",
               "standard_hyperkahler_triple", "star_phi0", "su3_structure"),
    "kernelmap": ("DPProperties", "LieKernel", "OrbitCheck", "PDualElement",
                  "dP", "dP_properties", "kernel_of_psi", "lie_kernel",
                  "multimoment_value", "orbit_2plectic_check", "pdual",
                  "stabilizer"),
    "liealg": ("LieAlgebra",),
    "linalg": ("Subspace",),
    "parser": ("AlgebraExpr", "instantiate", "load_lie_file", "parse",
               "parse_algebra", "parse_form", "serialize", "serialize_form"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    # an unknown name raises AttributeError, so `from liekernel import
    # cohomology` falls back to importing the submodule
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return list(__all__)
