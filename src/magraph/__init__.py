"""Multi-aspect graph engine.

Graphs whose vertices are tuples over several aspects (layers, time instants,
locations, ...), with exact sparse-matrix representations, aggregation
(sub-determination), and traversal algorithms in both composite and
sub-determined form.
"""

from .core import (
    Aspect,
    AspectList,
    CompanionTuple,
    CompositeVertex,
    Mag,
    MagEdge,
    SubDetermination,
    build_mag,
    companion_tuple,
    composite_vertex_count,
    position_weight,
    sub_companion_tuple,
    sub_determine_edge,
    sub_determine_mag,
    sub_determine_vertex,
    subdet_image,
    vertex_from_index,
    vertex_index,
)
from .errors import (
    DuplicateEdgeError,
    EdgeArityError,
    EmptyAspectError,
    IndexOutOfRangeError,
    InvalidAspectError,
    InvalidZetaError,
    MagError,
    MagParseError,
    NonBinaryEntryError,
    NonPositiveWeightError,
    NonzeroDiagonalError,
    SelfLoopEdgeError,
    ShapeMismatchError,
    TooLargeForDenseError,
    UnknownElementError,
    UnknownExampleError,
    UnknownVertexError,
    WeightCountError,
)
from .sparse import SparseMatrix, ZERO_TOLERANCE
from .matrices import (
    MatrixWithTuple,
    adjacency_matrix,
    combinatorial_laplacian,
    elimination_matrix,
    incidence_matrix,
    mag_from_adjacency,
    main_components,
    main_identity,
    matrix_rank,
    normalized_laplacian,
    nullspace_dimension,
    sub_determination_matrix,
    sub_determined_adjacency,
    trivial_components,
    weighted_laplacian,
)
from .algorithms import (
    BfsResult,
    DegreeResult,
    DfsResult,
    ReachabilityMatrix,
    bfs,
    bfs_sub,
    degree,
    degree_from_adjacency,
    dfs,
    dfs_sub,
    reachability,
    sub_det_degree,
    sub_det_degree_from_adjacency,
    transitive_closure_pattern,
)
from .io import (
    builtin_example,
    export_matrix_market,
    load_mag,
    parse_mag,
    read_matrix_market,
    save_mag,
    write_mag,
)

__version__ = "0.1.0"
