"""Greedy G-optimal sampling-set selection for graph signals.

The package covers the full pipeline: random graph models and their
Laplacians, the graph Fourier transform, greedy subset selection under
several optimal-design criteria (including an eigendecomposition-free
variant driven by a Givens-rotation filter approximation), signal
reconstruction from noisy samples, and exhaustive oracles that certify
the theory (monotonicity, approximate supermodularity, greedy decay).
"""

from .bench import (ExperimentResult, ExperimentSpec, ResultRow, SpecError,
                    parse_spec_file, parse_spec_text, run_experiment,
                    write_result_csv)
from .filters import (ApproxFilter, GivensSeq, approximate_lowpass,
                      exact_lowpass, greedy_jacobi, lowpass_from_givens,
                      rotation_budget)
from .graphs import (Graph, Laplacian, build_laplacian, gen_community,
                     gen_er, gen_sensor, load_graph, save_graph)
from .oracle import (AlphaReport, SuboptimalityReport, empirical_alpha,
                     exhaustive_optimum, greedy_decay_check,
                     relative_suboptimality, theorem_bounds)
from .reconstruction import (Reconstruction, biased_reconstruct,
                             blue_reconstruct, filter_reconstruct, rmse,
                             snr_to_sigma2)
from .rng import RNG_NAME, child_seed, rng_from
from .selection import (DEFAULT_MU, SamplingSet, greedy_aoptimal,
                        greedy_doptimal, greedy_eoptimal, greedy_select,
                        objective_agod, objective_aopt, objective_dopt,
                        objective_eopt, objective_fagod, random_select)
from .spectral import (GraphSignal, Observation, SpectralBasis,
                       eigendecompose, gen_signal, gft, igft,
                       leverage_scores, observe)

__version__ = "0.1.0"

__all__ = [
    "AlphaReport", "ApproxFilter", "DEFAULT_MU",
    "ExperimentResult", "ExperimentSpec", "GivensSeq", "Graph",
    "GraphSignal", "Laplacian", "Observation",
    "RNG_NAME", "Reconstruction", "ResultRow", "SamplingSet", "SpecError",
    "SpectralBasis",
    "SuboptimalityReport", "approximate_lowpass", "biased_reconstruct",
    "blue_reconstruct", "build_laplacian", "child_seed", "eigendecompose",
    "empirical_alpha", "exact_lowpass",
    "exhaustive_optimum", "filter_reconstruct", "gen_community", "gen_er",
    "gen_sensor", "gen_signal", "gft", "greedy_aoptimal", "greedy_decay_check",
    "greedy_doptimal", "greedy_eoptimal", "greedy_jacobi", "greedy_select",
    "igft", "leverage_scores", "load_graph", "lowpass_from_givens",
    "objective_agod", "objective_aopt",
    "objective_dopt", "objective_eopt", "objective_fagod", "observe",
    "parse_spec_file", "parse_spec_text", "random_select",
    "relative_suboptimality", "rmse", "rng_from", "rotation_budget",
    "run_experiment", "save_graph",
    "snr_to_sigma2", "theorem_bounds",
    "write_result_csv",
]
