"""Recursive posterior Cramer-Rao lower bounds for nonlinear Gaussian models.

The package computes the recursive error lower bound for a discrete-time
state-space model with additive Gaussian noise three ways: a Monte-Carlo
reference over sampled trajectories, a cheap approximation evaluated at a
single point estimate, and a covariance-aware approximation that averages
over the filter belief with the third-degree cubature rule.  All three run
one information recursion over their own terms; the difference between the
two approximations has a closed form from a split of each step of the
covariance-aware chain, and an experiment driver compares everything against
sigma-point and particle filters on a standard scalar benchmark.
"""

from .experiment import (ALL_ESTIMATORS, ALL_METHODS, DEFAULT_SEED, AggregateResult,
                         ExperimentConfig, ExperimentError, aggregate_bounds,
                         build_model, derive_run_seed, gap_series, rmse_series,
                         run_experiment, true_bound_series)
from .filters import (FilterOutput, UTParams, kalman_step, particle_moments, regularize_cov,
                      run_pf, run_ukf, sigma_points, systematic_resample, ukf_step,
                      unscented_transform)
from .fim import (DecomposedFim, FimTriple, bound_difference, decompose_terms,
                  fim_recursion_series, fim_recursion_step, fim_via_decomposition,
                  initial_fim, mean_cov_terms, mean_only_terms, true_fim_terms_mc)
from .linalg import NumericError, spd_inverse
from .model import (GaussianBelief, SystemModel, Trajectory, linear_gaussian_model,
                    sample_trajectory, ungm_model)
from .moments import (measurement_moment_map_derivatives, propagate_measurement_moments,
                      propagate_state_moments, state_moment_map_derivatives)

__version__ = "0.1.0"

__all__ = [
    "ALL_ESTIMATORS",
    "ALL_METHODS",
    "AggregateResult",
    "DEFAULT_SEED",
    "DecomposedFim",
    "ExperimentConfig",
    "ExperimentError",
    "FilterOutput",
    "FimTriple",
    "GaussianBelief",
    "NumericError",
    "SystemModel",
    "Trajectory",
    "UTParams",
    "aggregate_bounds",
    "bound_difference",
    "build_model",
    "decompose_terms",
    "derive_run_seed",
    "fim_recursion_series",
    "fim_recursion_step",
    "fim_via_decomposition",
    "gap_series",
    "initial_fim",
    "kalman_step",
    "linear_gaussian_model",
    "mean_cov_terms",
    "mean_only_terms",
    "measurement_moment_map_derivatives",
    "particle_moments",
    "propagate_measurement_moments",
    "propagate_state_moments",
    "regularize_cov",
    "rmse_series",
    "run_experiment",
    "run_pf",
    "run_ukf",
    "sample_trajectory",
    "sigma_points",
    "spd_inverse",
    "state_moment_map_derivatives",
    "systematic_resample",
    "true_bound_series",
    "true_fim_terms_mc",
    "ukf_step",
    "unscented_transform",
    "ungm_model",
]
