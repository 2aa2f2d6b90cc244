"""Exact Lie-algebra cohomology, Lie kernels and multi-moment pairings,
with a desk-scale G2 symplectic-triple flow component."""

from .cohomology import (CEComplex, CohomologyReport, betti, ce_differential,
                         complex_of, invariant_cohomology_dims, is_23_trivial,
                         lie_derivative)
from .errors import (AdmissibilityError, BindingError, DimensionMismatch,
                     FlowError, G2Error, HodgeError, JacobiError,
                     LieKernelError, MomentMapError, ParseError, SubspaceError)
from .exterior import (KForm, KVector, basis_form, basis_vector,
                       bivector_contract, covector_of, evaluate, hodge_star,
                       interior, multi_indices, pairing, pullback, vector_of,
                       wedge, wedge_all)
from .families import (CorpusEntry, FamilySpec, GradedNilpotent, corpus_algebra,
                       graded_extension, load_corpus, make_family,
                       make_unimodular_5dim,
                       seven_dim_characteristically_nilpotent, su2, su3,
                       trivial23_consequences, u2, verify_tables)
from .g2flow import (CoherentTripleFrame, FlowDGA, FlowState, G2Frame,
                     MetricResult, Poly, SU3Structure, completeness_classify,
                     dga_evolution_identities, dga_verify_torsion_free,
                     flow_closed_form, flow_integrate, flow_order_study,
                     g2t2_decompose, halfflat_condition, max_interval,
                     metric_from_phi, phi0, reconstruct_phi,
                     reconstruct_star_phi, rk4_stepper_order_selftest,
                     standard_hyperkahler_triple, star_phi0, su3_structure)
from .kernelmap import (DPProperties, LieKernel, OrbitCheck, PDualElement, dP,
                        dP_properties, kernel_of_psi, lie_kernel,
                        multimoment_value, orbit_2plectic_check, pdual,
                        stabilizer)
from .liealg import LieAlgebra
from .linalg import Subspace
from .parser import (AlgebraExpr, instantiate, load_lie_file, parse,
                     parse_algebra, parse_form, serialize, serialize_form)

__version__ = "0.1.0"
