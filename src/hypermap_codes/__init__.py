"""Hypermap-homology CSS codes and their surface-code equivalents.

Build CSS stabilizer codes from hypermaps (permutation pairs acting on
darts), move between the special-basis code and arbitrary-basis codes with
CNOT circuits, convert canonical codes to equivalent surface codes, and
verify the equivalences with a brute-force distance oracle at desk scale.
"""

from .chain import (
    apply_basis_change,
    boundary_pair,
    dart_vertex_sum,
    face_dart_sum,
    nonspecial_darts,
    project_nonspecial,
)
from .css import (
    CnotCircuit,
    CodeParams,
    CssCode,
    apply_cnot,
    build_canonical,
    cnot_circuit,
    code_from_boundary_change,
    params,
    read_stabilizer,
    reduced,
    stabilizer_equal,
    transform,
    write_stabilizer,
)
from .distance import (
    BACKEND as DISTANCE_BACKEND,
    CodeTooLargeError,
    NoLogicalOperatorError,
    distance_bruteforce,
    distance_exhaustive,
    distance_split,
)
from .gf2 import SingularMatrixError, decompose_elementary, elementary_matrix
from .hypermap import (
    DuplicateHyperedgeError,
    Hypermap,
    NonIntegerGenusError,
    NotBijectiveError,
    NotConnectedError,
    OrbitPartition,
    Permutation,
    choose_special_darts,
    hypermap_from_json,
    hypermap_to_json,
    load_hypermap,
    save_hypermap,
)
from .surface import (
    RotationGraph,
    SurfaceGraph,
    graph_to_hypermap,
    hypermap_to_surface,
    intermediate_surface,
    load_rotation_graph,
    rotation_to_surface,
    save_surface_graph,
    surface_code,
    toric_rotation_graph,
    verify_equivalence,
)

__version__ = "0.1.0"
