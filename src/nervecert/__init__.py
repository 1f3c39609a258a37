"""Exact-arithmetic nerves of convex families, barycentric subdivision, and
mod-2 embeddability obstruction certificates."""

from .complexes import (
    Face,
    SdComplex,
    SimplicialComplex,
    barycentric_subdivision,
    complex_from_facets,
    disjoint_simplex_pairs,
    is_remote,
    skeleton_complex,
)
from .convex import (
    Crossing,
    HPolytope,
    Point,
    canonical_point,
    crossing,
    hulls_intersect,
    inscribed_ball,
    polytope_is_empty,
)
from .errors import (
    EmptyPolytopeError,
    GenericityError,
    LabelMismatchError,
    NerveCertError,
    NerveMismatchError,
    NotAFaceError,
    ParseError,
    SourceLabelingError,
    UnboundedPolytopeError,
)
from .nerve import (
    ConvexFamily,
    NerveMatch,
    nerve_exhaustive,
    nerve_helly,
    nerve_matches,
)
from .obstruction import (
    Cochain2,
    GF2Matrix,
    ObstructionCertificate,
    Placement,
    coboundary_matrix,
    gf2_rank,
    gf2_solve,
    intersection_cocycle,
    moment_curve_placement,
    obstruction_vanishes,
    reverse_columns,
)
from .witness import (
    WitnessMap,
    image_of_face,
    image_of_source_simplex,
    verify_remote_disjointness,
    verify_witness_membership,
    witness_points,
)

__version__ = "0.1.0"
