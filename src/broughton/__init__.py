"""Exact invariants of generalized Broughton curve arrangements.

The package computes, with exact rational arithmetic throughout, the first
characteristic variety of the complement of the plane curve arrangement
attached to a pair of univariate polynomials, together with the supporting
invariants: admissibility hypotheses, Betti numbers, the multiple-fiber
divisor and orbifold group of the associated pencil, functional
decomposition of univariate polynomials, and resultant-based connectivity
certificates.
"""

from .arrangement import (
    BettiNumbers,
    CharVarietyReport,
    FiberDivisor,
    Hypotheses,
    HypothesesViolated,
    TorsionCharacter,
    TranslatedTorus,
    betti,
    characteristic_variety,
    check_hypotheses,
    orbifold_group,
    resonance,
    special_fiber_divisor,
)
from .bipoly import (
    BiPoly,
    SingularLocusCheck,
    build_f,
    build_g,
    build_h,
    is_irreducible_y_linear,
    resultant_y,
    singular_locus_finite,
)
from .decompose import (
    CONNECTED_CERTIFIED,
    INCONCLUSIVE,
    ConnectivityCertificate,
    Decomposition,
    connectivity_certificate,
    is_decomposable,
    uni_decompose_at,
)
from .parser import (
    ExponentRangeError,
    ParseError,
    UnknownVariableError,
    parse_bi,
    parse_uni,
    print_canonical,
)
from .report import (
    ReportDocument,
    SCHEMA_VERSION,
    build_report,
    render_json,
    render_text,
    report_mapping,
    zahid_polynomials,
)
from .squarefree import (
    PowerIndex,
    SquarefreeDecomposition,
    distinct_root_count,
    power_index,
    radical,
    squarefree_decompose,
)
from .unipoly import (
    NEG_INF,
    UniPoly,
    exact_div,
    gcd,
    resultant,
)

__version__ = "0.1.0"
