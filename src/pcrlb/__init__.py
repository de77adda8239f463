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

from .experiment import (AggregateResult, ExperimentConfig, ExperimentError, build_model,
                         run_experiment)
from .filters import (FilterOutput, UTParams, kalman_step, particle_moments, regularize_cov,
                      run_pf, run_ukf, sigma_points, systematic_resample,
                      unscented_transform)
from .fim import (FimTriple, bound_difference, decompose_terms, fim_recursion_series,
                  fim_recursion_step, fim_via_decomposition, initial_fim, mean_cov_terms,
                  mean_only_terms, true_fim_terms_mc)
from .linalg import NumericError, spd_inverse
from .model import (GaussianBelief, SystemModel, Trajectory, linear_gaussian_model,
                    sample_trajectory, ungm_model)
from . import moments  # noqa: F401  perfbench's tracer reads it from sys.modules

__version__ = "0.1.0"

__all__ = [
    "AggregateResult",
    "ExperimentConfig",
    "ExperimentError",
    "FilterOutput",
    "FimTriple",
    "GaussianBelief",
    "NumericError",
    "SystemModel",
    "Trajectory",
    "UTParams",
    "bound_difference",
    "build_model",
    "decompose_terms",
    "fim_recursion_series",
    "fim_recursion_step",
    "fim_via_decomposition",
    "initial_fim",
    "kalman_step",
    "linear_gaussian_model",
    "mean_cov_terms",
    "mean_only_terms",
    "particle_moments",
    "regularize_cov",
    "run_experiment",
    "run_pf",
    "run_ukf",
    "sample_trajectory",
    "sigma_points",
    "spd_inverse",
    "systematic_resample",
    "true_fim_terms_mc",
    "unscented_transform",
    "ungm_model",
]
