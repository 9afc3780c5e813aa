"""Stretch-factor realization toolkit.

Builds, from an irreducible non-negative integer matrix, a rectangle strip
decomposition, boundary edge dynamics, an infinite-strip gluing schema, and
the resulting end/identification census, together with verification records
and SVG renderings.
"""

from .errors import (
    ConvergenceError,
    EndPeriodicError,
    InternalConsistencyError,
    InvalidInputError,
    PrecisionError,
    PreconditionError,
    VerificationError,
)
from .spectral import (
    DEFAULT_TOL,
    HORIZONTAL,
    VERTICAL,
    IntMatrix,
    IntPolynomial,
    MatrixFacts,
    PerronData,
    StripLabel,
    block_lift,
    char_poly,
    determinant,
    facts,
    graph_period,
    is_irreducible,
    is_primitive,
    parse_matrix_text,
    perron_eigendata,
    spectral_radius_exact,
)

from .decomposition import (
    PieceMap,
    PieceMapBranch,
    StripDecomposition,
    build_decomposition,
    corner_selection,
    piece_map,
)
from .edgemaps import (
    EdgeMap,
    EdgeMapSystem,
    PeriodicPoint,
    all_periodic_points,
    build_edge_maps,
    choose_initial_points,
    link_corner_partners,
    max_escape_depth,
    nesting_period,
    periodic_points,
)
from .gluing import (
    ClassCensus,
    End,
    EquivalenceClass,
    ExtendedPieceMap,
    GeneratorTrace,
    IdentificationSchema,
    InfiniteStrip,
    SurfaceReport,
    assemble_surface,
    attach_strips,
    build_extended_map,
    classify_classes,
    enumerate_identifications,
)
from .markov import IncidenceReport, incidence_matrix, verify_stretch
from .record import (
    ConstructionRecord,
    PipelineResult,
    SectionCheck,
    build_record,
    check_record,
    load_record,
    run_pipeline,
    verify_record,
)

__version__ = "0.1.0"

#: names bound on first use, by the submodule that defines them: certify
#: and verify read none of these modules, and ``warmup`` pulls in
#: ``fractions``
_LAZY = {
    "render": ("DIAGRAM_KINDS", "render", "strip_color"),
    "warmup": ("IntegerCase", "build_integer_case", "cross_validate",
               "f0_integer"),
    "window": ("derive_window",),
}
_LAZY_MODULE = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name: str):
    """Import the submodule that defines ``name`` and bind all of its lazy
    names here (PEP 562).

    Binding them all at once matters for ``render``: importing the
    submodule ``endperiodic.render`` sets the package attribute ``render``
    to the module, and rebinding it restores the function. A program that
    imports the submodule itself before reading any lazy name sees the
    module under ``endperiodic.render`` until it reads one.
    """
    module = _LAZY_MODULE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    namespace = import_module(f".{module}", __name__)
    for lazy in _LAZY[module]:
        globals()[lazy] = getattr(namespace, lazy)
    return globals()[name]


#: what ``from endperiodic import *`` binds: the public names above and the
#: lazy ones, which it loads
__all__ = [name for name in globals() if not name.startswith("_")]
__all__ += _LAZY_MODULE
