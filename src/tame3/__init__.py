"""Exact reduction theory for three-variable polynomial automorphisms."""

from .algebra import (
    DegreeValue,
    Poly,
    ScaledPair,
    WeightSystem,
    half,
    lex_weight,
    parse_poly,
    poly_to_text,
    total_weight,
    z_independent,
)
from .forms import (
    DiffForm,
    algebraically_independent,
    deg_form,
    differential,
    differentials_wedge,
    jacobian_det,
    wedge,
    wedge_degree,
)
from .univariate import (
    AuxPoly,
    BiPoly,
    aux_leading,
    aux_multiplicity,
    degS,
    multiplicity_by_roots,
    su_inequality_report,
)
from .search import (
    DEFAULT_LIMITS,
    ElementaryStep,
    SearchLimits,
    SUWitness,
    exact_membership,
    find_elementary_reduction,
    find_scaled_pair,
    find_su_reduction,
    homogeneous_membership,
    leading_membership_search,
)
from .conditions import (
    ConditionReport,
    TypeWitness,
    check_not_er,
    check_quasi_su,
    check_su_conditions,
    detect_type,
    normalize_to_su,
    su_pair_uniqueness,
    verify_properties,
)
from .engine import (
    Endo3,
    ReductionTrace,
    ReductionVerdict,
    TameFactor,
    certificate_json,
    certify_nagata,
    compose_endo,
    factor_tame,
    identity_endo,
    nagata_endo,
    nagata_weight,
    random_tame,
    recompose,
    reduce_step,
    reduce_to_floor,
    su_number,
    triangularize_at_floor,
    verify_automorphism,
)

__version__ = "0.1.0"
