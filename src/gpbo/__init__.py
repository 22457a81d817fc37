"""Gaussian-process Bayesian optimization toolkit."""

from .acquisition import (
    AcquisitionSpec,
    confidence_bound,
    ei_monte_carlo_oracle,
    expected_improvement,
    probability_of_improvement,
)
from .baseline import random_search_baseline
from .gp import (
    FactorizationError,
    GpPosterior,
    HyperBounds,
    ObservationSet,
    Prediction,
    fit_posterior,
    log_marginal_likelihood,
    optimize_hypers,
    predict,
    sample_posterior,
    sample_prior,
)
from .kernels import KernelSpec, eval_kernel, gram_matrix, kernel_grad_hyper
from .loop import (
    BoConfig,
    ObjectiveFailure,
    SearchSpace,
    Trace,
    TraceRecord,
    incumbent,
    propose_next,
    run_bo,
)
from .objectives import ObjectiveSpec, recommended_space
from .trace_io import TraceWriter, read_trace, write_trace

__version__ = "0.1.0"

__all__ = [
    "AcquisitionSpec",
    "BoConfig",
    "FactorizationError",
    "GpPosterior",
    "HyperBounds",
    "KernelSpec",
    "ObjectiveFailure",
    "ObjectiveSpec",
    "ObservationSet",
    "Prediction",
    "SearchSpace",
    "Trace",
    "TraceRecord",
    "TraceWriter",
    "confidence_bound",
    "ei_monte_carlo_oracle",
    "eval_kernel",
    "expected_improvement",
    "fit_posterior",
    "gram_matrix",
    "incumbent",
    "kernel_grad_hyper",
    "log_marginal_likelihood",
    "optimize_hypers",
    "predict",
    "probability_of_improvement",
    "propose_next",
    "random_search_baseline",
    "read_trace",
    "recommended_space",
    "run_bo",
    "sample_posterior",
    "sample_prior",
    "write_trace",
]
