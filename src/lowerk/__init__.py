"""Lower algebraic K-theory of integral group rings of amalgams of
finite groups, with exact finite-group and integer-matrix machinery."""

from .abelian import (
    AbelianMap,
    AbelianPresentation,
    FgAbelianGroup,
    cokernel,
    kernel,
    smith_normal_form,
)
from .amalgams import (
    Amalgam,
    AmalgamElement,
    GraphWithAction,
    INFINITE,
    graph_of_groups_quotient,
)
from .casebook import CASES, CaseReport, run_all, run_case
from .fusion import (
    FusedClasses,
    ModP,
    Padic,
    Rational,
    count_irreducibles,
    fused_classes,
    p_singular_classes,
    sc_rank,
)
from .groups import (
    FiniteGroup,
    GroupHom,
    Subgroup,
    build_group,
    center,
    conjugacy_classes,
    is_isomorphic,
    quotient,
    subgroup_generated,
)
from .ktheory import (
    AmalgamVC,
    DirectProductVC,
    KSheet,
    NilValue,
    SemiDirectVC,
    amalgam_k_assemble,
    assembly_spec_from_json,
    carter_rank,
    k_minus1,
    negk_consistency,
    nil_classify,
)
from .presentations import (
    Presentation,
    Word,
    parse_presentation,
    parse_word,
    todd_coxeter,
    van_buskirk,
    verify_homomorphism,
)

__version__ = "0.1.0"
