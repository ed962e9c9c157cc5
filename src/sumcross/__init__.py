"""sumcross: exact sumset arithmetic, arc-graph crossing counts, the two
explicit constructions with distinct consecutive differences, and checkers
for the growth bounds that connect them."""

from .arcgraph import (
    ArcGraph,
    CrossingStats,
    build_sum_graph,
    count_crossings_fast,
    count_intersections,
    crossing_stats,
    degree_sequence,
    has_parallel_edges,
    max_translate_pair_crossings,
)
from .bounds import (
    BoundReport,
    check_bipartite_crossing,
    check_crossing_lower,
    check_crossing_upper,
    check_degree_weighted_crossing,
    check_doubling_lower,
    check_energy_lower,
    check_heavy_subset,
    check_intersection_lower,
    check_level_set_count,
    check_multiplicity_lower,
    check_sumset_lower,
    reports_to_jsonable,
    run_all_checks,
)
from .construct import (
    REFERENCE_SEED,
    REFERENCE_TOUR,
    REFERENCE_WALK_VALUES,
    CoprimeParams,
    EulerTour,
    VectorSequence,
    assemble_increasing,
    construction_exponent,
    coprime_construction,
    default_encoding_base,
    encode_vectors,
    eulerian_tour,
    extend_walk,
    seed_walk,
    sidon_seed_construction,
)
from .sets import (
    EnergyValue,
    IntegerSet,
    RepProfile,
    SetFileError,
    consecutive_difference_multiplicity,
    difference_set,
    energy,
    high_multiplicity_set,
    is_convex,
    is_dcd,
    is_sidon,
    is_tdcd,
    level_set_size,
    load_set,
    representation_profile,
    satisfies_doubling,
    save_set,
    sumset,
    sumset_size,
)
from .sidon import (
    OptimizeResult,
    SeedScore,
    objective_f,
    optimize_exponent,
    seed_stats,
    sidon_search,
)

__version__ = "0.1.0"
