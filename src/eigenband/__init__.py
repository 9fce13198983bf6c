"""Band embeddings of the round sphere and flat tori.

The package builds the eigenfunction embedding of a frequency band,
the distance and pullback metric it induces, Gaussian random waves on
the band with their sup-norm statistics, and the covering/entropy
machinery that bounds those statistics.
"""

from .manifold import (
    ManifoldModel,
    Point,
    GeodesicDistance,
    sphere2,
    flat_torus,
    weyl_constants,
    make_point,
    geodesic_distance,
    uniform_sample,
    quasi_uniform_grid,
    exp_map,
    log_map,
    geodesic_waypoints,
)
from .spectrum import (
    Band,
    Mode,
    k_lambda,
    enumerate_band,
    eigenvalue_count,
    mean_frequency,
)
from .basis import (
    mode_matrix,
    gradient_matrix,
    orthonormality_check,
)
from .embed import (
    Embedding,
    CanonicalDistance,
    make_embedding,
    phi,
    band_kernel,
    cumulative_kernel,
    dist_lambda,
    pullback_metric,
    path_length_glambda,
    lipschitz_scan,
    distance_profile,
    diameter_estimate,
)
from .waves import (
    RandomWave,
    SupNormEstimate,
    SupBound,
    sample_wave,
    sup_norm,
    expected_sup,
    sup_norm_bound,
)
from .entropy import (
    Net,
    CoveringCurve,
    DudleyReport,
    greedy_net,
    covering_curve,
    fit_exponent,
    dudley_report,
    lp_covering_bound,
    claim_integral,
)

__version__ = "0.1.0"
