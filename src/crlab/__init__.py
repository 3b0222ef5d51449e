"""crlab: exact tools for linear spaces of matrices with bounded commutator
rank — constructions, randomized rank certificates, constructive simultaneous
triangularization, and exhaustive searches over triangular-conjugation-
invariant spaces."""

from .commrank import (BoundReport, CommutatorProfile, RankVerdict,
                       certify_rank_condition_symbolic, check_dimension_bound,
                       dimension_bound, max_commutator_rank,
                       satisfies_rank_condition)
from .constructions import (bidiagonal_witness_pair, build_family,
                            commutative_exceptional_space,
                            exceptional_extremal_space, extremal_space,
                            firstcol_zero_space, flanders_space,
                            lastrow_zero_space, rank_one_max_space,
                            schur_space, valid_splits)
from .invariant_spaces import (InvariantSpaceSpec, SearchReport,
                               commutator_line_cover,
                               enumerate_invariant_spaces,
                               is_triangular_invariant, search_max_dimension,
                               split_bound, triangular_closure)
from .linalg import (Mat, SingularMatrixError, commutator, mat_from_columns,
                     random_matrix)
from .numberfield import ExtensionLimitError, NumberField
from .subspace import MatrixSubspace, full_space, span, zero_space
from .triangularize import (InconsistentFamilyError, RankOneFamily,
                            TriangularizationResult, classify_rank_one_family,
                            triangularize_rank_one, verify_triangular)
from .verify import (AlgebraReport, FlandersReport, StructureVerdict,
                     algebra_structure_report, flanders_check, structure_check)

__version__ = "0.1.0"
