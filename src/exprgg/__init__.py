"""Random geometric graphs on exponential point clouds: sampling, l-inf
neighbor search, degree statistics, closed-form bounds, and seeded
verification experiments."""

from ._version import __version__
from .model import (
    DegreeSummary,
    EdgeDistanceFamily,
    LogRegime,
    PointCloud,
    PowerFamily,
    TheoryBounds,
)
from .sampling import (
    derive_replication_seed,
    exponential_inverse_cdf,
    read_cloud,
    sample_exponential_cloud,
    uniform_stream,
    write_cloud,
)
from .spatial import brute_force_edges
from .graphstats import degree_ratios, degree_summary, edge_density_gap, edge_list
from .theory import (
    a_max,
    a_min,
    chernoff_lower_tail,
    chernoff_upper_tail,
    containment_radius,
    edge_distance,
    h_function,
    pair_connect_prob,
    series_classifier,
    theory_bounds,
)
from .experiments import (
    ExperimentResult,
    ExperimentSpec,
    ResultRow,
    emit,
    from_jsonable,
    parse_table,
    read_table,
    run_experiment,
    to_jsonable,
    write_manifest,
)
