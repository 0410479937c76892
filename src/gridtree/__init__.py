"""gridtree: spanning-tree topology detection for switched distribution feeders.

The operating switch configuration of a feeder is a spanning tree of its
island graph.  This package identifies that tree from noiseless line-flow
sensors plus noisy nodal load forecasts: exact decoding when loads are known,
likelihood-based detection when they are forecasts, sensor-placement theory
for when identification is possible at all, and a Monte Carlo harness for
error-rate studies.
"""

from .errors import (
    GraphFormatError,
    GridTreeError,
    InconsistentObservationError,
    InfeasibleConstraintError,
    InternalInvariantError,
    InvalidPlacementError,
    MalformedGraphError,
    ModelError,
    NoFeasibleHypothesisError,
    NotASpanningTreeError,
    UnknownEdgeError,
    UnsupportedPlacementError,
)
from .graph import (
    Graph,
    SpanningTree,
    build_incidence,
    circuit_rank,
    count_spanning_trees,
    enumerate_spanning_trees,
    is_spanning_tree,
    max_weight_spanning_tree,
)
from .cycles import (
    FundamentalCycleBasis,
    apply_edge_exchange,
    encode_edge_exchange,
    fundamental_cycle_basis,
)
from .placement import (
    Placement,
    PlacementFamily,
    enumerate_valid_placements,
    is_valid_placement,
    minimum_sensor_count,
    naive_identifiability_oracle,
    placement_to_tree,
    tree_placement_bijection,
    tree_to_placement,
)
from .flows import (
    LoadModel,
    consumption_vector,
    cv_scaling,
    hypothesis_flow,
    hypothesis_flow_distribution,
    observation_matrix,
    observation_matrix_from_incidence,
    relaxed_flow_solution,
    tree_edge_flows,
)
from .fixture import IslandFixture, build_island_fixture
from .detect import (
    DetectionResult,
    HypothesisCache,
    detect_cycle_descent,
    detect_deterministic,
    detect_enumeration_oracle,
    detect_fmst,
    detect_map,
    detect_zero_flow_map,
    feasible_tree,
    local_map_search,
    log_likelihood,
    zero_flow_statistic,
    zero_flow_transform,
)
from .simulate import (
    ErrorReport,
    ExperimentConfig,
    PlacementRanking,
    evaluate_placements,
    run_deterministic_sweep,
    run_stochastic_sweep,
)

__version__ = "0.1.0"
