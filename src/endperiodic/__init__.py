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
    PreconditionError,
    VerificationError,
)
from .spectral import (
    COORD_TOL,
    DEFAULT_TOL,
    Digraph,
    IntMatrix,
    IntPolynomial,
    PerronData,
    block_lift,
    char_poly,
    determinant,
    graph_period,
    is_irreducible,
    is_primitive,
    largest_real_root,
    parse_matrix_text,
    perron_eigendata,
    spectral_radius_exact,
)

from .decomposition import (
    HORIZONTAL,
    VERTICAL,
    PieceMap,
    PieceMapBranch,
    StripDecomposition,
    StripLabel,
    SymbolicLength,
    build_decomposition,
    corner_selection,
    evaluate_length,
    piece_map,
)
from .edgemaps import (
    EdgeCoordinate,
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
    build_record,
    load_record,
    run_pipeline,
    verify_record,
)
from .render import DIAGRAM_KINDS, DiagramSpec, render, strip_color
from .warmup import IntegerCase, build_integer_case, cross_validate, f0_integer

__version__ = "0.1.0"
