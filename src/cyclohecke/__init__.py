"""Exact computations in cyclotomic Hecke algebras and the fixed-point model
of equivariant K-theory of Gieseker spaces."""

from .rings import (
    CyclotomicDomain,
    CyclotomicNumber,
    DomainError,
    LaurentDomain,
    LaurentPoly,
    NotInvertibleError,
    RationalDomain,
    UnsupportedDomainError,
    cyclotomic_polynomial,
    elementary_symmetric,
    euler_phi,
)
from .linalg import RowSpace, kernel_basis, rank, solve_linear
from .combinatorics import (
    block_partition,
    content,
    count_multipartitions,
    count_standard_tableaux,
    enumerate_multipartitions,
    enumerate_standard_tableaux,
    jm_eigenvalues,
    nodes,
    partitions_of,
    render_multipartition,
    residue_vector,
)
from .hecke import (
    AlgebraContext,
    AlgebraElement,
    EngineError,
    check_relations,
    symbolic_context,
    validate_straightening,
)
from .center import (
    IdempotentSplitError,
    SingularGramError,
    center_basis,
    central_idempotents,
    jm_center_span,
)
from .ktheory import (
    RestrictionTable,
    fixed_point_character,
    restriction_table,
    verify_blocks,
    verify_main_theorem,
)
from .reports import VerificationReport
from .suites import (
    SmashProduct,
    suite_center,
    suite_hilb_fg06,
    suite_main_theorem,
    suite_pairing,
    suite_q1_gap,
)

__version__ = "0.1.0"
