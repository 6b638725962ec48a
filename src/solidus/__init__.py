"""solidus: exact arithmetic for external numbers over a computable
non-Archimedean ordered field, with an executable axiom-checking harness.

The value hierarchy:

    RhoPoly      finite sums of rational powers of the infinite symbol rho
    PreciseNum   the ratio field of RhoPolys (the precise elements)
    Neutrix      magnitudes: convex additive subgroups cut out by degree
    ExternalNum  canonical pairs representative + neutrix

plus halflines with weak bounds, a natural-number interpretation, and a
registry of randomized axiom/theorem checks, loaded on first use (PEP 562).
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
    ResourceLimitError,
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
    nx_product,
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
    zup,
    zup_finite,
)
from .naturals import (
    INDUCTION_CATALOG,
    archimedean_witness,
    induction_spotcheck,
    is_natural,
)
from .parser import evaluate, parse

#: the check harness's names, and the module each loads from on first access (PEP 562)
_HARNESS = dict.fromkeys(["generate", "GeneratorConfig", "Sampler"], "generate")
_HARNESS.update(dict.fromkeys(["checks", "CheckFailure", "CheckReport", "exit_code", "format_report", "format_reports",
                               "minkowski_escapes", "run_catalog", "run_check"], "checks"))


def __getattr__(name: str):
    module = _HARNESS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    loaded = import_module(f".{module}", __name__)
    return loaded if name == module else getattr(loaded, name)


__all__ = sorted([name for name in dir() if not name.startswith("_")] + list(_HARNESS))

__version__ = "0.1.0"
