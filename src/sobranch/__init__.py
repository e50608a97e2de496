"""Exact branching multiplicities for the restriction of SO(2n+3) and
SO(2n+4) irreducibles to SO(2n) x SO(3) and SO(2n+1) x SO(3), computed by
four mutually independent algorithms and built to cross-verify them:

* the full alternating Weyl sum of Kostant's branching formula, and its
  interlacing-reduced short forms (``kostant``),
* Tsukamoto's implicit branching law via exact Laurent-polynomial
  generating functions (``tsukamoto``),
* closed-form tensor decompositions of the multiplicity space over SO(3),
  built on iterated pairwise Clebsch-Gordan (``clebsch_gordan``), together
  with the U(3)-reduction of the prescribed-end cases (``u3_so3``),
* a character-theoretic brute-force oracle: Freudenthal weight systems,
  restriction, and highest-weight stripping (``oracle``).

All arithmetic is exact; there is no floating point anywhere.
"""

from .clebsch_gordan import (
    So3MultiSet,
    closed_form_B,
    closed_form_D,
    so3_tensor_decompose,
    su2_tensor_multiplicity,
)
from .errors import (
    CoincidencePatternError,
    DomainError,
    InterlacingError,
    InternalInconsistencyError,
    MalformedSeriesError,
    PreconditionError,
    SobranchError,
)
from .kostant import (
    kostant_terms,
    multiplicity_kostant_full,
    multiplicity_kostant_reduced,
)
from .oracle import (
    CharacterMap,
    MultiplicityTable,
    branch_oracle,
    weight_multiplicities,
    weyl_dim,
    xi,
)
from .partition import (
    PartitionCache,
    count_sigma_prime,
    count_vector_partitions,
    shared_cache,
)
from .tsukamoto import (
    ATuple,
    LaurentPoly,
    enumerate_atuples,
    extract_multiplicities,
    multiplicity_tsukamoto,
    quantum_bracket,
    tsukamoto_generating_function,
)
from .u3_so3 import (
    U3Weight,
    ending_B,
    ending_D,
    u3_restriction,
    u3_to_so3_closed,
    u3_to_so3_oracle,
)
from .weights import (
    BranchingQuery,
    RootData,
    SignedPermutation,
    Weight,
    interlace,
    is_dominant,
    iter_dominant_weights,
    make_root_data,
    restrict,
    tilde,
)

__version__ = "0.1.0"

__all__ = [
    "ATuple",
    "BranchingQuery",
    "CharacterMap",
    "CoincidencePatternError",
    "DomainError",
    "InterlacingError",
    "InternalInconsistencyError",
    "LaurentPoly",
    "MalformedSeriesError",
    "MultiplicityTable",
    "PartitionCache",
    "PreconditionError",
    "RootData",
    "SignedPermutation",
    "So3MultiSet",
    "SobranchError",
    "U3Weight",
    "Weight",
    "branch_oracle",
    "closed_form_B",
    "closed_form_D",
    "count_sigma_prime",
    "count_vector_partitions",
    "ending_B",
    "ending_D",
    "enumerate_atuples",
    "extract_multiplicities",
    "interlace",
    "is_dominant",
    "iter_dominant_weights",
    "kostant_terms",
    "make_root_data",
    "multiplicity_kostant_full",
    "multiplicity_kostant_reduced",
    "multiplicity_tsukamoto",
    "quantum_bracket",
    "restrict",
    "shared_cache",
    "so3_tensor_decompose",
    "su2_tensor_multiplicity",
    "tilde",
    "tsukamoto_generating_function",
    "u3_restriction",
    "u3_to_so3_closed",
    "u3_to_so3_oracle",
    "weight_multiplicities",
    "weyl_dim",
    "xi",
]
