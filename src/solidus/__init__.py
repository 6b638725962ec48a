"""solidus: exact arithmetic for external numbers over a computable
non-Archimedean ordered field, with an executable axiom-checking harness.

The value hierarchy:

    RhoPoly      finite sums of rational powers of the infinite symbol rho
    PreciseNum   the ratio field of RhoPolys (the precise elements)
    Neutrix      magnitudes: convex additive subgroups cut out by degree
    ExternalNum  canonical pairs representative + neutrix

plus halflines with weak bounds, a natural-number interpretation, and a
registry of randomized axiom/theorem checks.
"""

from .errors import (
    DegenerateDomainError,
    EmptySetError,
    InternalError,
    NotAboveUnityError,
    NotIdempotentError,
    NotLimitedError,
    NotStrictlyOrderedError,
    NotZerolessError,
    ParseError,
    PreconditionFailedError,
    SolidusError,
    UnknownCheckError,
    UnknownFormulaError,
)
from .field import (
    NEG_INFINITY,
    ONE_POLY,
    Ordering,
    PreciseNum,
    RHO,
    RhoPoly,
    ZERO_POLY,
    as_polynomial,
    compare_precise,
    series_expand,
)
from .neutrix import (
    FULL,
    IDEMPOTENTS,
    INFINITESIMALS,
    LIMITED,
    Neutrix,
    NX_ZERO,
    closed_cut,
    decompose,
    is_ideal_of,
    is_idempotent,
    maximal_ideal,
    nx_add,
    nx_contains,
    nx_mul,
    nx_scale,
    open_cut,
)
from .external import (
    Classification,
    ExternalNum,
    as_external,
    canonicalize,
    classify,
    ext_add,
    ext_compare,
    ext_inv,
    ext_member,
    ext_mul,
    ext_neg,
    ext_subset,
    ext_disjoint,
    is_limited,
    is_zeroless,
    magnitude,
    pure,
    shadow,
    unity,
)
from .halfline import (
    Halfline,
    HalflineKind,
    Side,
    hl_complement,
    hl_member,
    lower,
    separate_from_hole,
    separate_precise,
    upper,
    winf,
    winf_finite,
    zup,
    zup_finite,
)
from .naturals import (
    INDUCTION_CATALOG,
    archimedean_witness,
    induction_spotcheck,
    is_natural,
)
from .generate import GeneratorConfig, Sampler
from .checks import (
    CheckFailure,
    CheckReport,
    exit_code,
    format_report,
    format_reports,
    minkowski_escapes,
    run_catalog,
    run_check,
)
from .parser import evaluate, parse

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
