"""recomblab: recombination dynamics on the Boolean cube.

Exact and Monte Carlo evolution of probability measures under the pairwise
recombination product, in discrete and continuous time, together with the
mixing profiles, martingale diagnostics, and distance bounds that describe
how fast the dynamics reach the stationary product measure.
"""

from .cube import (
    Pmf,
    monochromatic_pmf,
    point_mass,
    product_fourier,
    product_pmf,
    random_balanced_pmf,
    random_pmf,
    stationary_product,
    tv_distance,
    uniform_pmf,
    wht_forward,
)
from .discrete import (
    collide_coeffs,
    collide_direct,
    collide_pmf,
    discrete_upper_bounds,
    evolve_discrete,
    fragmentation_time,
    fragmentation_times,
    mono_mixture_tv,
)
from .errors import (
    CapacityError,
    ConfigError,
    InvalidDistributionError,
    NumericalInvariantError,
    RecombError,
)
from .profiles import (
    check_l1_l2_bound,
    gaussian_tv,
    gaussian_tv_asymptotics,
    l1_from_l2_bound,
    lowerbound_experiment_continuous,
    lowerbound_experiment_discrete,
    mixture_profile_tv,
    mono_tv_large_n_limit,
    two_valued_extremal_density,
)
from .streams import STREAM_ALGORITHM, rng_substream
from .yule import (
    MartingaleBatch,
    MonteCarloMeasure,
    double_quenched_estimate,
    evolve_continuous,
    martingale_limit_samples,
    martingale_samples,
    sample_yule,
    spinal_identity_check,
    tail_probability_from_samples,
    wild_mc_estimate,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
