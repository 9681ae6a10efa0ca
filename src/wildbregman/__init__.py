"""Wild refitting under Bregman losses.

Residue symmetrization, wild refitting, wild-optimism computation, radius
and noise-scale calibration, and high-probability excess-risk certificates
in fixed and random design, plus a synthetic-oracle validation harness.
"""

from .certify import (RiskCertificate, StabilityConstants,
                      fixed_design_certificate, random_design_certificate,
                      random_design_tail, stability_constants)
from .complexity import (RadiusReport, ball_sup, deviation_term,
                         fixed_point_radius, pilot_sup, rhat_bound_convex, wn)
from .design import (FixedDesignDataset, PredictionMatrix,
                     empirical_discrepancy, load_dataset, sample_sign_matrix,
                     save_dataset)
from .errors import RejectedInputError, SolveError
from .geometry import Box, ClippedSimplex
from .harness import (CoverageExperiment, CoverageReport, SyntheticSpec,
                      generate_synthetic, run_coverage)
from .potentials import BregmanLoss, builtin_loss
from .trainers import (LinearPredictor, LinearTrainer, SaturatedTrainer,
                       build_model)
from .wildfit import WildRefitResult, calibrate_rho, wild_optimism, wild_refit

__version__ = "0.1.0"

__all__ = [
    "Box", "BregmanLoss", "ClippedSimplex", "CoverageExperiment",
    "CoverageReport", "FixedDesignDataset", "LinearPredictor",
    "LinearTrainer", "PredictionMatrix", "RadiusReport", "RejectedInputError",
    "RiskCertificate", "SaturatedTrainer", "SolveError", "StabilityConstants",
    "SyntheticSpec", "WildRefitResult", "ball_sup", "build_model",
    "builtin_loss", "calibrate_rho", "deviation_term", "empirical_discrepancy",
    "fixed_design_certificate", "fixed_point_radius", "generate_synthetic",
    "load_dataset", "pilot_sup", "random_design_certificate",
    "random_design_tail", "rhat_bound_convex", "run_coverage",
    "sample_sign_matrix", "save_dataset", "stability_constants",
    "wild_optimism", "wild_refit", "wn",
]
