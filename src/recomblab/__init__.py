"""recomblab: recombination dynamics on the Boolean cube.

Exact and Monte Carlo evolution of probability measures under the pairwise
recombination product, in discrete and continuous time, together with the
mixing profiles, martingale diagnostics, and distance bounds that describe
how fast the dynamics reach the stationary product measure.

Importing the package loads none of its modules: each export below is
imported from its module on first access (PEP 562), so a command or script
pays only for the modules it uses.
"""

import importlib

__version__ = "0.1.0"

# every top-level export, by the module it lives in
_MODULE_EXPORTS = {
    "cube": (
        "Pmf", "monochromatic_pmf", "point_mass", "product_fourier", "product_pmf",
        "random_balanced_pmf", "random_pmf", "stationary_product", "tv_distance",
        "uniform_pmf", "wht_forward",
    ),
    "discrete": (
        "collide_coeffs", "collide_direct", "collide_pmf", "discrete_upper_bounds",
        "evolve_discrete", "fragmentation_time", "fragmentation_times", "mono_mixture_tv",
    ),
    "errors": (
        "CapacityError", "ConfigError", "InvalidDistributionError", "NumericalInvariantError",
        "RecombError",
    ),
    "profiles": (
        "check_l1_l2_bound", "gaussian_tv", "gaussian_tv_asymptotics", "l1_from_l2_bound",
        "lowerbound_experiment_continuous", "lowerbound_experiment_discrete",
        "mixture_profile_tv", "mono_tv_large_n_limit", "two_valued_extremal_density",
    ),
    "streams": ("STREAM_ALGORITHM", "rng_substream"),
    "yule": (
        "MonteCarloMeasure", "double_quenched_estimate", "evolve_continuous",
        "martingale_limit_samples", "martingale_samples", "sample_yule",
        "spinal_identity_check", "tail_probability_from_samples", "wild_mc_estimate",
    ),
}
_EXPORTS = {name: module for module, names in _MODULE_EXPORTS.items() for name in names}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    # a name outside the table raises AttributeError, so that the import
    # system goes on to load a submodule of that name (`from recomblab import yule`)
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
