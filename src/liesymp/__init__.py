"""liesymp: exact-rational analysis of invariant compatible almost complex
structures on symplectic Lie algebras.

The package computes, entirely over Q:

  * validation of structure constants, symplectic cocycles and
    compatible positive almost complex structures;
  * the Nijenhuis tensor, its image/kernel distributions, involutivity
    and the metric norm;
  * invariant Levi-Civita / Chern-type / symplectic connections with
    curvature, Ricci and the two scalar curvatures;
  * a catalog of dim-4 and dim-6 model algebras, two dimension-raising
    constructions and a synthesizer for prescribed invariants;
  * the dimension of the space of algebraic Nijenhuis-like tensors;
  * reductive pairs g = h (+) m and, as one of them, the hyperbolic
    twistor model so(1,2n) with its two canonical structures.

Everything is deterministic and float-free; see the README for the CLI.
"""

from .catalog import (abelian, build_rank_example, builtin,
                      character_extension, dim6, ex1, ex2, ex3, ex4,
                      product_extension, thurston)
from .connections import (chern_connection, covariant_derivative_n,
                          curvature_summary, levi_civita, nabla_j_checks,
                          symplectic_connection, torsion,
                          torsion_recovers_nijenhuis)
from .errors import (BadNumber, BracketOrder, CocycleViolation,
                     DegenerateForm, DimensionMismatch,
                     InternalInvariantViolation, JacobiViolation,
                     LiesympError, NotACharacter, NotAlmostComplex,
                     NotCompatible, NotPositive, NotSkewSymmetric,
                     PerfectAlgebra, SerializationError, SingularGram,
                     Unsatisfiable, ValidationError, ZeroCharacter)
from .homogeneous import ReductivePair
from .lie import LieAlgebra, validate
from .linalg import Matrix, Scalar, Subspace, complement, qof
from .nijenhuis import (DistributionReport, Tensor3, check_tensor_identities,
                        classify, image_distribution, is_involutive,
                        kernel_distribution, nijenhuis_tensor, norm_sq)
from .nspace import (contains_tensor, expected_dimension,
                     nijenhuis_space_dim)
from .report import Analysis, build_report, golden_rows, run_goldens
from .serialization import (algebra_from_dict, algebra_to_dict,
                            triple_from_dict, triple_hash, triple_to_dict)
from .symp import (SymplecticTriple, build_triple, standard_j,
                   standard_omega)
from .twistor import (build_twistor_model, positivity_report, twistor_claims,
                      twistor_j, twistor_nijenhuis)

__version__ = "0.1.0"
